import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss.components import (
    DetectorSpec,
    beam_splitter,
    displace,
    epr_pair,
    feed_forward,
    feed_forward_scale,
    homodyne,
    lo_displace,
    loss,
    phase_insensitive_amp,
    phase_sensitive_amp,
    phase_shift,
)
from qss.modes import (
    MINUS,
    PLUS,
    LinearForm,
    commutator,
    commutator_weight,
    covariance,
    new_coherent,
    new_squeezed,
    new_vacuum,
    variance,
)


def test_detector_spec_validation():
    with pytest.raises(ValueError):
        DetectorSpec(0.0)
    with pytest.raises(ValueError):
        DetectorSpec(1.0, -0.1)


def test_beam_splitter_is_involutive():
    a = new_coherent(3.0, -2.0, "a")
    b = new_squeezed(0.5, label="b")
    c, d = beam_splitter(a, b, 0.3)
    a2, b2 = beam_splitter(c, d, 0.3)
    for orig, back in ((a, a2), (b, b2)):
        for q in (PLUS, MINUS):
            assert back.quad(q).mean == pytest.approx(orig.quad(q).mean, abs=1e-12)
            assert variance(back.quad(q)) == pytest.approx(variance(orig.quad(q)), abs=1e-12)
            assert covariance(back.quad(q), orig.quad(q)) == pytest.approx(variance(orig.quad(q)), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(r=st.floats(0.0, 1.0))
def test_beam_splitter_outputs_uncorrelated_for_vacua(r):
    c, d = beam_splitter(new_vacuum(), new_vacuum(), r)
    for q in (PLUS, MINUS):
        assert abs(covariance(c.quad(q), d.quad(q))) < 1e-12
        assert variance(c.quad(q)) == pytest.approx(1.0, abs=1e-12)
    assert abs(commutator_weight(c) - 1.0) < 1e-12
    assert abs(commutator_weight(d) - 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(r=st.floats(0.0, 1.0), phi_a=st.floats(0.0, 2.0 * math.pi), phi_b=st.floats(0.0, 2.0 * math.pi))
def test_beam_splitter_outputs_commute(r, phi_a, phi_b):
    # The joint symplectic condition: distinct outputs commute on all
    # four cross pairs, which the per-mode weight alone cannot see.
    a = phase_shift(new_squeezed(0.3, label="a"), phi_a)
    b = phase_shift(new_coherent(1.0, -2.0, "b"), phi_b)
    c, d = beam_splitter(a, b, r)
    for x in (c.plus, c.minus):
        for y in (d.plus, d.minus):
            assert abs(commutator(x, y)) < 1e-12
    for m in (c, d):
        assert abs(commutator_weight(m) - 1.0) < 1e-12


def test_phase_shift_pi_flips_sign():
    m = new_coherent(1.0, 2.0)
    f = phase_shift(m, math.pi)
    assert f.plus.mean == pytest.approx(-1.0)
    assert f.minus.mean == pytest.approx(-2.0)
    assert covariance(f.plus, m.plus) == pytest.approx(-1.0, abs=1e-12)


def test_phase_shift_quarter_swaps_quadratures():
    s = new_squeezed(0.25)
    f = phase_shift(s, math.pi / 2.0)
    assert variance(f.plus) == pytest.approx(variance(s.minus), abs=1e-12)
    assert variance(f.minus) == pytest.approx(variance(s.plus), abs=1e-12)
    assert abs(commutator_weight(f) - 1.0) < 1e-12


def test_epr_pair_cross_correlations():
    v_sq = 0.25
    e1, e2 = epr_pair(new_squeezed(v_sq, None, MINUS), new_squeezed(v_sq, None, PLUS))
    v_sym = (v_sq + 1.0 / v_sq) / 2.0
    for q in (PLUS, MINUS):
        assert variance(e1.quad(q)) == pytest.approx(v_sym, abs=1e-12)
    expect = (1.0 / v_sq - v_sq) / 2.0
    assert covariance(e1.plus, e2.plus) == pytest.approx(expect, abs=1e-12)
    assert covariance(e1.minus, e2.minus) == pytest.approx(-expect, abs=1e-12)


def test_phase_insensitive_amp():
    with pytest.raises(ValueError):
        phase_insensitive_amp(new_vacuum(), new_vacuum(), 0.5)
    m = new_coherent(1.0, 1.0)
    out = phase_insensitive_amp(m, new_vacuum(), 4.0)
    assert out.plus.mean == pytest.approx(2.0)
    for q in (PLUS, MINUS):
        assert variance(out.quad(q)) == pytest.approx(4.0 + 3.0, abs=1e-12)
    assert abs(commutator_weight(out) - 1.0) < 1e-12


def test_phase_insensitive_amp_saturates_added_noise_bound():
    # With a vacuum idler the added-noise product equals |(1-g^2)/g^2|^2
    # where g^2 is the intensity gain referred to the input.
    gain = 3.0
    out = phase_insensitive_amp(new_coherent(1.0, 1.0), new_vacuum(), gain)
    g2 = gain
    v_added = [(variance(form) - g2) / g2 for form in (out.plus, out.minus)]
    assert v_added[0] * v_added[1] == pytest.approx(((g2 - 1.0) / g2) ** 2, abs=1e-12)


def test_phase_sensitive_amp_is_noiseless_squeezer():
    m = new_coherent(2.0, 2.0)
    out = phase_sensitive_amp(m, 4.0)
    assert out.plus.mean == pytest.approx(4.0)
    assert out.minus.mean == pytest.approx(1.0)
    assert variance(out.plus) == pytest.approx(4.0)
    assert variance(out.minus) == pytest.approx(0.25)
    assert abs(commutator_weight(out) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        phase_sensitive_amp(m, 0.0)


def test_loss_admixes_vacuum():
    m = new_coherent(2.0, 0.0)
    out = loss(m, 0.99)
    assert out.plus.mean == pytest.approx(2.0 * math.sqrt(0.99))
    assert covariance(out.plus, m.plus) == pytest.approx(math.sqrt(0.99), abs=1e-12)
    assert variance(out.plus) == pytest.approx(1.0, abs=1e-12)
    assert loss(m, 1.0) is m
    with pytest.raises(ValueError):
        loss(m, 1.2)


def test_homodyne_consumes_mode():
    m = new_coherent(3.0, 0.0)
    sig = homodyne(m, PLUS)
    assert sig.mean == pytest.approx(3.0)
    assert variance(sig) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        homodyne(m, PLUS)


def test_homodyne_inefficiency_and_dark_noise():
    det = DetectorSpec(efficiency=0.9, dark_noise_variance=0.05)
    sig = homodyne(new_coherent(2.0, 0.0), PLUS, det)
    assert sig.mean == pytest.approx(2.0 * math.sqrt(0.9))
    # 0.9 signal + 0.1 vacuum + dark
    assert variance(sig) == pytest.approx(0.9 + 0.1 + 0.05, abs=1e-12)


def test_displace_only_touches_chosen_quadrature():
    target = new_vacuum()
    sig = homodyne(new_coherent(1.0, 0.0), PLUS)
    out = displace(target, PLUS, sig, 0.5)
    assert out.plus.mean == pytest.approx(0.5)
    assert out.minus is target.minus
    assert variance(out.plus) == pytest.approx(1.0 + 0.25, abs=1e-12)
    assert variance(out.minus) == pytest.approx(1.0, abs=1e-12)


def test_lo_displace_attenuates_carrier():
    r = 50.0 / 51.0
    target = new_coherent(1.0, 0.0)
    sig = homodyne(new_coherent(0.0, 0.0), PLUS)
    out = lo_displace(target, PLUS, sig, 1.0, r)
    assert covariance(out.plus, target.plus) == pytest.approx(math.sqrt(r), abs=1e-12)
    assert abs(commutator_weight(out) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        lo_displace(target, PLUS, sig, 1.0, 1.0)


_GAINS = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


@settings(max_examples=200, deadline=None)
@given(quad=st.sampled_from([PLUS, MINUS]), gain=_GAINS, s=st.floats(0.1, 10.0),
       mirror=st.one_of(st.none(), st.floats(1e-9, 1.0 - 1e-9)),
       aux_eta=st.one_of(st.just(1.0), st.floats(1e-3, 1.0, exclude_max=True)))
def test_feed_forward_scale_is_the_map_of_displace_and_lo_displace(quad, gain, s, mirror, aux_eta):
    target = new_coherent(1.5, -0.5, "target")
    source = new_coherent(2.0, 0.0, "source")
    signal = LinearForm(s * source.plus.mean, {ax: s for ax in source.plus.coeffs})
    out = feed_forward(target, quad, signal, gain, mirror, aux_eta)
    k_t, k_s = feed_forward_scale(mirror, aux_eta)
    if mirror is None:
        assert (k_t, k_s) == (1.0, 1.0)
    for form_in, form_out in ((target.plus, out.plus), (target.minus, out.minus)):
        (ax, c), = form_in.coeffs.items()
        assert form_out.coeffs[ax] == pytest.approx(k_t * c, rel=1e-15, abs=0.0)
    (ax_s,) = signal.coeffs
    assert out.quad(quad).coeffs.get(ax_s, 0.0) == pytest.approx(gain * k_s * s, rel=1e-15, abs=0.0)
    assert ax_s not in out.quad(MINUS if quad == PLUS else PLUS).coeffs


def test_feed_forward_scale_rejects_an_open_or_closed_mirror():
    for r in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"^mirror reflectivity must be in \(0, 1\), got"):
            feed_forward_scale(r)
