import math
import random

import pytest

from qss import harness
from qss.components import DetectorSpec, IDEAL_DETECTOR, phase_insensitive_amp, phase_shift
from qss.metrics import metrics_report
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qss.modes import (
    commutator,
    commutator_weight,
    covariance,
    db_to_linear,
    mode_axes,
    new_coherent,
    new_vacuum,
    variance,
)
from qss.protocols import (
    DealerConfig,
    UNITY_SINGLE_FF_GAIN,
    classical_avg_fidelity,
    classical_bounds,
    dealer_encode,
    make_report,
    parametric_correction,
    reconstruct_double_ff,
    reconstruct_mz,
    reconstruct_pia,
    reconstruct_single_ff,
    reconstruct_two_opa,
    secret_gains,
)

V_SQ = 0.354813  # -4.5 dB
V_N = 2.23872  # +3.5 dB


def encode(v_sq=V_SQ, v_anti=None, v_n=V_N, **kw):
    return dealer_encode(DealerConfig(v_sq=v_sq, v_anti=v_anti, v_n=v_n, **kw))


def single_ff_gain_map(reflectivity: float, g_elec: float) -> tuple[float, float]:
    """Closed-form electronic-to-optical gain map of the single
    feed-forward protocol with ideal optics: the oracle for the
    compositional build."""
    s = 1.0 / math.sqrt(2.0)
    g_minus = math.sqrt(reflectivity) * s
    g_plus = g_minus + g_elec * math.sqrt(1.0 - reflectivity) * s
    return g_plus, g_minus


def test_share_means_and_variances():
    shares = encode()
    s = 1.0 / math.sqrt(2.0)
    assert shares.share1.plus.mean == pytest.approx(5.0 * s)
    assert shares.share2.plus.mean == pytest.approx(5.0 * s)
    assert shares.share3.plus.mean == 0.0
    # share_i = (secret +/- entangled arm +/- noise)/sqrt(2)
    v_epr = (V_SQ + 1.0 / V_SQ) / 2.0
    expect = (1.0 + v_epr + V_N) / 2.0
    for share in (shares.share1, shares.share2):
        for form in (share.plus, share.minus):
            assert variance(form) == pytest.approx(expect, rel=1e-9)
    for form in (shares.share3.plus, shares.share3.minus):
        assert variance(form) == pytest.approx(v_epr + V_N, rel=1e-9)


def test_encoding_mode_mismatch():
    # eta_epr1_in is the one efficiency of the dealer, applied to both
    # outputs of the encoding splitter.
    shares = encode(eta_epr1_in=0.5)
    g_share = secret_gains(shares.secret, shares.share1)
    assert g_share == pytest.approx((0.5, 0.5), abs=1e-12)
    assert any(ax.label.startswith("mm_epr1_in") for ax in mode_axes(shares.share2))
    for eta in (0.0, 1.5):
        with pytest.raises(ValueError):
            DealerConfig(eta_epr1_in=eta)
    with pytest.raises(TypeError):
        DealerConfig(efficiencies={"epr1": 0.5})


def test_shares_are_physical():
    shares = encode()
    for k in (1, 2, 3):
        assert abs(commutator_weight(shares.share(k)) - 1.0) < 1e-12
    # distinct shares commute: the classical noise carries no commutator
    for j, k in ((1, 2), (1, 3), (2, 3)):
        a, b = shares.share(j), shares.share(k)
        for x in (a.plus, a.minus):
            for y in (b.plus, b.minus):
                assert abs(commutator(x, y)) < 1e-12


def test_every_build_axis_has_an_origin_label():
    # An axis's origin is its label, less the .plus/.minus of a quantum
    # axis; no build leaves an axis at a default label.
    cfgs = [harness.ExperimentConfig(protocol=name, **kw)
            for name in harness._BUILDERS for kw in ({}, harness.EXPERIMENT_KWARGS)]
    cfgs += [harness.ExperimentConfig(protocol="single_ff", unity_gain=True, **kw)
             for kw in ({}, harness.EXPERIMENT_KWARGS)]
    origins = set()
    for cfg in cfgs:
        live, _, raw, corrected, errors = harness._build(cfg, *harness._grid(cfg))
        assert live.tolist() == [0] and not errors, cfg.protocol
        for ax in mode_axes(raw, corrected):
            origin, _, role = ax.label.rpartition(".") if ax.role else (ax.label, "", None)
            assert role == ax.role, ax.label
            origins.add(origin)
    assert not origins & {"", "vac", "loss"}
    assert origins == {"secret", "sqz1", "sqz2", "N.plus", "N.minus", "mm_epr1_in", "mm_mz", "mm_ff_bs",
                       "hd_vac", "dark", "lo", "lo_mm", "dff_vac"}


@settings(max_examples=300, deadline=None)
@given(v_sq=st.just(1.0) | st.floats(0.05, 0.999), anti=st.just(1.0) | st.floats(1.001, 10.0),
       v_n=st.just(0.0) | st.floats(1e-3, 100.0), eta=st.just(1.0) | st.floats(0.5, 1.0))
@example(v_sq=1.0, anti=1.0, v_n=0.0, eta=1.0)
@example(v_sq=1.0, anti=1.0, v_n=0.0, eta=0.9)
def test_each_player_takes_share3_in_phase(v_sq, anti, v_n, eta):
    # Share 3 enters share 1's group as it is and share 2's flipped by pi.
    # Either way its correlations with the share add constructively: the
    # phase lock cov(a+, s3+) - cov(a-, s3-) is never negative, and it is
    # zero only where share 3 carries no correlation, a classical dealer
    # with no noise.
    shares = encode(v_sq=v_sq, v_anti=anti / v_sq, v_n=v_n, eta_epr1_in=eta)
    assert shares.group(1)[1] is shares.share3
    uncorrelated = v_sq == 1.0 and anti == 1.0 and v_n == 0.0
    for player in (1, 2):
        share, share3 = shares.group(player)
        lock = covariance(share.plus, share3.plus) - covariance(share.minus, share3.minus)
        assert lock >= 0.0, player
        assert (lock == 0.0) == uncorrelated, player


def test_mz_is_exact():
    shares = encode()
    out = reconstruct_mz(shares.share1, shares.share2)
    rep = make_report(shares.secret, out)
    assert rep.g_plus == pytest.approx(1.0, abs=1e-12)
    assert rep.g_minus == pytest.approx(1.0, abs=1e-12)
    foreign = {k: v for k, v in rep.coefficients.items() if not k.startswith("secret")}
    assert all(abs(c) < 1e-12 for pair in foreign.values() for c in pair)


def test_mz_with_mode_mismatch():
    shares = encode()
    out = reconstruct_mz(shares.share1, shares.share2, eta_bs=0.99)
    g_p, g_m = secret_gains(shares.secret, out)
    assert g_p == pytest.approx(math.sqrt(0.99), abs=1e-12)
    assert g_m == pytest.approx(math.sqrt(0.99), abs=1e-12)


@pytest.mark.parametrize("player", [1, 2])
def test_unity_protocols_cancel_dealer_noise(player):
    shares = encode()
    expect_v = 1.0 + 2.0 * V_SQ
    outputs = {
        "pia": reconstruct_pia(shares, player),
        "two_opa": reconstruct_two_opa(shares, player),
        "single_ff": parametric_correction(reconstruct_single_ff(shares, player)),
        "double_ff": reconstruct_double_ff(shares, player),
    }
    for name, out in outputs.items():
        rep = make_report(shares.secret, out)
        assert rep.g_plus == pytest.approx(1.0, abs=1e-10), name
        assert rep.g_minus == pytest.approx(1.0, abs=1e-10), name
        assert rep.v_out_plus == pytest.approx(expect_v, abs=1e-10), name
        assert rep.v_out_minus == pytest.approx(expect_v, abs=1e-10), name
        for label, (cp, cm) in rep.coefficients.items():
            if label.startswith("N."):
                assert abs(cp) < 1e-10 and abs(cm) < 1e-10, (name, label)


def test_pia_gain_validation():
    shares = encode()
    with pytest.raises(ValueError):
        reconstruct_pia(shares, 1, 0.5)
    with pytest.raises(ValueError):
        reconstruct_two_opa(shares, 1, 0.0)


def test_single_ff_gain_map_matches_composition():
    shares = encode(v_n=0.0)
    rng = random.Random(5)
    for _ in range(5):
        r = rng.uniform(0.05, 0.95)
        g_e = rng.uniform(0.0, 4.0)
        out = reconstruct_single_ff(shares, 1, r, g_e)
        g_p, g_m = secret_gains(shares.secret, out)
        exp_p, exp_m = single_ff_gain_map(r, g_e)
        assert g_p == pytest.approx(exp_p, abs=1e-12)
        assert g_m == pytest.approx(exp_m, abs=1e-12)


def test_single_ff_unity_electronic_gain():
    exp_p, exp_m = single_ff_gain_map(2.0 / 3.0, UNITY_SINGLE_FF_GAIN)
    assert exp_p * exp_m == pytest.approx(1.0, abs=1e-12)
    assert exp_p == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_solve_single_ff_unity_gain_with_losses():
    shares = encode()
    out = reconstruct_single_ff(shares, 1, 2.0 / 3.0, None, mirror_reflectivity=50.0 / 51.0, eta_bs=0.97, eta_lo=0.96)
    g_p, g_m = secret_gains(shares.secret, out)
    assert g_p * g_m == pytest.approx(1.0, abs=1e-15)


def test_unreachable_gains_name_their_cause():
    # With every photon reflected, the feed-forward cannot move g+; with
    # none, single_ff's kept beam has g- = 0 and double_ff's measured
    # beams carry no secret.
    shares = encode()
    for r in (0.0, 1.0):
        with pytest.raises(ValueError, match="^unity gain unreachable for this configuration$"):
            reconstruct_single_ff(shares, 1, r, None)
    with pytest.raises(ValueError, match=r"^optical gain 1\.0 is unreachable at reflectivity 0\.0$"):
        reconstruct_double_ff(shares, 1, reflectivity=0.0)


def test_unity_gain_solve_is_exact_to_a_few_ulp():
    # The closed-form electronic gain puts g+ g- within 4 ulp of 1 over
    # random dealers, splitters, losses, detectors and mirrors.
    rng = random.Random(30)
    worst = 0.0
    for _ in range(1000):
        shares = encode(v_sq=rng.uniform(0.1, 1.0), v_n=rng.uniform(0.0, 5.0), eta_epr1_in=rng.uniform(0.9, 1.0))
        mirror = rng.choice((None, rng.uniform(0.9, 0.999)))
        out = reconstruct_single_ff(shares, rng.choice((1, 2)), rng.uniform(0.05, 0.95), None,
                                    det=DetectorSpec(rng.uniform(0.8, 1.0), rng.uniform(0.0, 0.1)),
                                    mirror_reflectivity=mirror, eta_bs=rng.uniform(0.9, 1.0),
                                    eta_lo=rng.uniform(0.9, 1.0))
        g_p, g_m = secret_gains(shares.secret, out)
        worst = max(worst, abs(g_p * g_m - 1.0))
    assert worst <= 4 * math.ulp(1.0)


DOUBLE_FF_SETUPS = [(None, IDEAL_DETECTOR), (50.0 / 51.0, DetectorSpec(0.93, db_to_linear(-13.0)))]


def test_double_ff_hits_requested_gain():
    shares = encode()
    for mirror, det in DOUBLE_FF_SETUPS:
        for target in (0.5, 1.0, 1.5):
            out = reconstruct_double_ff(shares, 1, g_target=target, det=det, mirror_reflectivity=mirror)
            g_p, g_m = secret_gains(shares.secret, out)
            assert g_p == pytest.approx(target, abs=1e-14), (mirror, det)
            assert g_m == pytest.approx(target, abs=1e-14), (mirror, det)


@pytest.mark.parametrize("mirror", [None, 50.0 / 51.0])
def test_double_ff_dark_noise_raises_both_variances_linearly(mirror):
    # Each photocurrent carries its own dark noise onto its quadrature, at
    # gains the dark noise does not change.
    shares = encode()

    def variances(dark):
        out = reconstruct_double_ff(shares, 1, det=DetectorSpec(0.93, dark), mirror_reflectivity=mirror)
        return variance(out.plus), variance(out.minus)

    v0, v1, v2 = (variances(dark) for dark in (0.0, 0.05, 0.1))
    for q in (0, 1):
        assert v1[q] - v0[q] > 0.01
        assert v2[q] - v0[q] == pytest.approx(2.0 * (v1[q] - v0[q]), rel=1e-9)


def test_double_ff_vacuum_port_cancels_at_unity():
    shares = encode()
    out = reconstruct_double_ff(shares, 1, g_target=1.0)
    rep = make_report(shares.secret, out)
    for label, (cp, cm) in rep.coefficients.items():
        if label.startswith("dff_vac"):
            assert abs(cp) < 1e-10 and abs(cm) < 1e-10


def test_adversary_single_share():
    shares = encode()
    rep = make_report(shares.secret, shares.share(1))
    assert rep.g_plus == pytest.approx(1.0 / math.sqrt(2.0))
    assert rep.g_minus == pytest.approx(1.0 / math.sqrt(2.0))
    rep3 = make_report(shares.secret, shares.share(3))
    assert rep3.g_plus == 0.0 and rep3.g_minus == 0.0


def test_adversary_amplified_saturates_classical_bound():
    # Classical dealer: an amplified single share reaches, but cannot
    # exceed, the classical fidelity bound at unity gain.
    shares = encode(v_sq=1.0, v_n=0.0)
    out = phase_insensitive_amp(shares.share(1), new_vacuum(), 2.0)
    g_p, g_m = secret_gains(shares.secret, out)
    assert g_p == pytest.approx(1.0, abs=1e-12)
    assert variance(out.plus) == pytest.approx(3.0, abs=1e-12)
    f = metrics_report(make_report(shares.secret, out)).fidelity
    assert f == pytest.approx(0.5, abs=1e-12)
    f_max, _, _ = classical_bounds(g_p, g_m)
    assert f <= f_max + 1e-12


def test_classical_bounds_values():
    f, t, v = classical_bounds(1.0, 1.0)
    assert (f, t, v) == (1.0, 2.0, 0.0)
    f, t, v = classical_bounds(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    assert f == pytest.approx(0.5)
    assert t == pytest.approx(1.0)
    assert v == pytest.approx(0.25)
    f0, t0, v0 = classical_bounds(0.0, 0.0)
    assert f0 == 0.0 and t0 == 0.0 and v0 == 1.0


def test_classical_avg_fidelity():
    assert classical_avg_fidelity(2, 3) == pytest.approx(2.0 / 3.0)
    assert classical_avg_fidelity(1, 1) == 1.0
    with pytest.raises(ValueError):
        classical_avg_fidelity(3, 2)


def test_phase_flipped_secret_roundtrip():
    # The whole pipeline is phase-covariant: flipping the secret flips
    # the reconstruction but leaves variances unchanged.
    cfg = DealerConfig(v_sq=V_SQ, v_n=V_N, secret=phase_shift(new_coherent(5.0, 5.0), math.pi))
    shares = dealer_encode(cfg)
    out = reconstruct_pia(shares, 1)
    rep = make_report(shares.secret, out)
    assert rep.v_out_plus == pytest.approx(1.0 + 2.0 * V_SQ, abs=1e-10)
