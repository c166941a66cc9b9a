import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qss import harness
from qss.components import epr_pair, loss, phase_insensitive_amp, phase_sensitive_amp, phase_shift
from qss.harness import preset_config
from qss.metrics import (
    _exp,
    conditional_variance,
    duan_inseparability,
    fidelity,
    fit_symmetric_epr_loss,
    metrics_report,
    reid_epr,
    signal_transfer,
    unity_corrected_fidelity,
)
from qss.modes import (
    MINUS,
    PLUS,
    linear_combine,
    new_coherent,
    new_squeezed,
    new_vacuum,
)
from qss.protocols import (
    DealerConfig,
    classical_bounds,
    dealer_encode,
    make_report,
    reconstruct_pia,
    reconstruct_single_ff,
)

V_SQ = 0.354813


def composed_unity_fidelity(secret, output) -> float:
    """Oracle for the closed-form unity correction: correct the output
    with optical components and read the fidelity off the result.

    A pi phase shift undoes two negative gains, a noiseless squeezer
    symmetrises them, and minimal-noise amplification (g < 1) or loss
    (g > 1) brings them to one.
    """
    rep = make_report(secret, output)
    gg = rep.gain_product
    if gg <= 0.0:
        return 0.0
    if rep.g_plus < 0.0:
        output = phase_shift(output, math.pi)
    mode = phase_sensitive_amp(output, rep.g_minus / rep.g_plus)
    g = math.sqrt(gg)
    if g < 1.0:
        mode = phase_insensitive_amp(mode, new_vacuum("corr_idler"), 1.0 / gg)
    elif g > 1.0:
        mode = loss(mode, 1.0 / gg, "corr_loss")
    return metrics_report(make_report(secret, mode)).fidelity


def test_fidelity_of_perfect_copy():
    s = new_coherent(5.0, 5.0)
    assert metrics_report(make_report(s, s)).fidelity == pytest.approx(1.0)


def test_fidelity_closed_form():
    # unity gain, V_out = 3 on both quadratures -> F = 2/(1+3)
    assert fidelity((5.0, 5.0), 1.0, 1.0, 3.0, 3.0) == pytest.approx(0.5)
    # gain mismatch is punished through the displacement term
    f = fidelity((5.0, 5.0), 0.9, 1.0, 1.0, 1.0)
    k = 25.0 * 0.01 / 2.0
    assert f == pytest.approx(math.exp(-k / 4.0))


def test_fidelity_zero_for_secret_free_output():
    s = new_coherent(5.0, 5.0)
    assert metrics_report(make_report(s, new_vacuum())).fidelity == 0.0


def test_fidelity_requires_coherent_secret():
    with pytest.raises(ValueError):
        metrics_report(make_report(new_squeezed(0.5), new_vacuum()))


def test_signal_transfer_values():
    s = new_coherent(5.0, 5.0)
    out = linear_combine([(1.0, 1.0, s), (1.0, 1.0, new_vacuum())])
    t_p, t_m, t = signal_transfer(make_report(s, out))
    assert t_p == pytest.approx(0.5)
    assert t == pytest.approx(1.0)
    with pytest.raises(ValueError):
        signal_transfer(make_report(new_coherent(0.0, 1.0), out))


def test_conditional_variance_coherent_form():
    s = new_coherent(5.0, 5.0)
    out = linear_combine([(1.0, 1.0, s), (1.0, 1.0, new_vacuum())])
    rep = make_report(s, out)
    assert conditional_variance(rep, PLUS) == pytest.approx(1.0)  # V_out - g^2 = 2 - 1
    assert metrics_report(rep).added_noise == pytest.approx(1.0)


def test_duan_and_reid_for_vacua():
    assert duan_inseparability(new_vacuum(), new_vacuum()) == pytest.approx(1.0)
    assert reid_epr(new_vacuum(), new_vacuum()) == pytest.approx(1.0)


def test_duan_and_reid_for_entangled_pair():
    e1, e2 = epr_pair(new_squeezed(V_SQ, None, MINUS), new_squeezed(V_SQ, None, PLUS))
    assert duan_inseparability(e1, e2) == pytest.approx(V_SQ, rel=1e-6)
    v_anti = 1.0 / V_SQ
    v_sym = (V_SQ + v_anti) / 2.0
    c = (v_anti - V_SQ) / 2.0
    expect_reid = (v_sym - c**2 / v_sym) ** 2
    assert reid_epr(e1, e2) == pytest.approx(expect_reid, rel=1e-9)
    assert duan_inseparability(e1, e2) < 1.0
    assert reid_epr(e1, e2) < 1.0


def test_entanglement_degrades_with_loss():
    e1, e2 = epr_pair(new_squeezed(V_SQ, None, MINUS), new_squeezed(V_SQ, None, PLUS))
    d0 = duan_inseparability(e1, e2)
    d1 = duan_inseparability(loss(e1, 0.8), loss(e2, 0.8))
    assert d0 < d1 < 1.0


def test_unity_corrected_fidelity_invariant_under_squeezing():
    s = new_coherent(5.0, 5.0)
    out = linear_combine([(1.0, 1.0, s), (1.0, 1.0, new_vacuum())])
    f_ref = unity_corrected_fidelity(make_report(s, out))
    squeezed_out = phase_sensitive_amp(out, 2.0)
    assert unity_corrected_fidelity(make_report(s, squeezed_out)) == pytest.approx(f_ref, abs=1e-12)


def test_unity_corrected_fidelity_handles_sign_flip():
    shares = dealer_encode(DealerConfig(v_sq=V_SQ, v_n=2.23872))
    f1 = unity_corrected_fidelity(make_report(shares.secret, shares.share1))
    f2 = unity_corrected_fidelity(make_report(shares.secret, shares.share2))
    assert f1 == pytest.approx(f2, abs=1e-12)
    assert 0.0 < f1 <= 0.5 + 1e-12


def test_metrics_report_fields():
    shares = dealer_encode(DealerConfig(v_sq=V_SQ))
    raw = make_report(shares.secret, reconstruct_pia(shares, 1))
    rep = metrics_report(raw)
    assert raw.gain_product == pytest.approx(1.0, abs=1e-10)
    assert rep.fidelity == pytest.approx(2.0 / (2.0 + 2.0 * V_SQ), rel=1e-6)
    # The group-level classical limit follows from the share-access gains
    # 1/sqrt(2) fixed by the dealer, not from the corrected output gains.
    group_f_max, _, _ = classical_bounds(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    assert group_f_max == pytest.approx(0.5, abs=1e-12)
    assert rep.fidelity > group_f_max
    assert rep.v_cond_plus == pytest.approx(2.0 * V_SQ, abs=1e-10)
    assert rep.signal_transfer == pytest.approx(2.0 / (1.0 + 2.0 * V_SQ), rel=1e-9)


def test_raw_feed_forward_beats_gain_dependent_tv_bound():
    # The gain-dependent transfer bound is informative at the raw
    # (asymmetric) gains; the symmetrising correction leaves T unchanged.
    shares = dealer_encode(DealerConfig(v_sq=V_SQ))
    raw = make_report(shares.secret, reconstruct_single_ff(shares, 1))
    assert raw.g_plus == pytest.approx(math.sqrt(3.0), abs=1e-10)
    assert raw.g_minus == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-10)
    _, t_max, _ = classical_bounds(raw.g_plus, raw.g_minus)
    assert metrics_report(raw).signal_transfer > t_max


def test_metrics_report_zero_gain_share():
    shares = dealer_encode(DealerConfig(v_sq=V_SQ, v_n=1.0))
    rep = metrics_report(make_report(shares.secret, shares.share3))
    assert rep.fidelity == 0.0
    assert rep.signal_transfer == 0.0


# Zero or above 1e-150: below about 1e-158 the composed correction itself
# overflows to nan.
gains = st.floats(-3.0, 3.0).filter(lambda g: g == 0.0 or abs(g) >= 1e-150)


@settings(max_examples=200, deadline=None)
@given(g_plus=gains, g_minus=gains, v_plus=st.floats(0.0, 10.0), v_minus=st.floats(0.0, 10.0))
@example(g_plus=-0.5, g_minus=-1.5, v_plus=1.0, v_minus=2.0)  # both negative
@example(g_plus=0.5, g_minus=-1.5, v_plus=1.0, v_minus=2.0)  # g+ g- < 0
@example(g_plus=0.0, g_minus=1.5, v_plus=1.0, v_minus=2.0)  # g+ g- = 0
@example(g_plus=0.3, g_minus=0.6, v_plus=1.0, v_minus=2.0)  # g < 1
@example(g_plus=2.0, g_minus=1.5, v_plus=1.0, v_minus=2.0)  # g > 1
@example(g_plus=1.0, g_minus=1.1e-281, v_plus=1.0, v_minus=2.0)  # k g+ g- = g-^2 underflows to 0
def test_unity_corrected_fidelity_matches_composition(g_plus, g_minus, v_plus, v_minus):
    s = new_coherent(5.0, 5.0)
    out = linear_combine([(g_plus, g_minus, s), (math.sqrt(v_plus), math.sqrt(v_minus), new_vacuum())])
    expect = composed_unity_fidelity(s, out)
    rep = make_report(s, out)
    assert unity_corrected_fidelity(rep) == pytest.approx(expect, abs=1e-12)
    assert _bits(unity_corrected_fidelity(rep)) == _bits(_unity_fidelity_through_fidelity(rep))


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def test_exp_is_libm_exp_bit_for_bit():
    # Underflow starts near -708 (subnormals) and reaches 0 below -745.
    special = [-0.0, 0.0, math.nan, -math.inf, -1e-300, -708.5, -744.0, -745.2, -800.0, 5.0]
    values = np.array(special + np.linspace(-30.0, 0.0, 1681).tolist())
    for x in values.tolist():
        assert _exp(x).shape == ()
        assert _bits(_exp(x)) == _bits(math.exp(x))
    for shape in ((values.size,), (89, 19)):
        got = _exp(values.reshape(shape))
        assert got.shape == shape and got.dtype == np.float64
        assert (_bits(got).ravel() == _bits([math.exp(x) for x in values.tolist()])).all()
    assert _exp(np.array([])).shape == (0,)


def _unity_fidelity_through_fidelity(rep):
    """``unity_corrected_fidelity`` as it was written before its closed
    form: the unity-gain variances handed to ``fidelity`` at g+ = g- = 1."""
    with np.errstate(all="ignore"):
        positive = rep.g_plus * rep.g_minus > 0.0
        g_p, g_m = (np.where(positive, g, 1.0)[()] for g in (rep.g_plus, rep.g_minus))
        gg = g_p * g_m
        k = g_m / g_p
        added = np.abs(1.0 / gg - 1.0)
        v_plus = k * rep.v_out_plus / gg + added
        v_minus = np.where(k * gg != 0.0, rep.v_out_minus / (k * gg) + added, np.inf)[()]
    f = fidelity((rep.secret.plus.mean, rep.secret.minus.mean), 1.0, 1.0, v_plus, v_minus)
    return np.where(positive, f, 0.0)[()]


@pytest.mark.parametrize("name", sorted(set(harness.PRESETS) - {"summary"}))
def test_unity_corrected_fidelity_is_fidelity_at_unity_gain_bit_for_bit(name):
    cfg = preset_config(name)
    _, secret, raw, _, _ = harness._build(cfg, *harness._grid(cfg))
    rep = make_report(secret, raw)
    got, want = unity_corrected_fidelity(rep), _unity_fidelity_through_fidelity(rep)
    assert (_bits(got) == _bits(want)).all()
    if name in ("fig2a", "fig2b", "fig4a-classical"):  # their gain-0 rows have g+ g- = 0
        assert (rep.g_plus * rep.g_minus == 0.0).sum() == 41


@pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig3b", "fig4a-classical"])
def test_unity_corrected_fidelity_matches_composition_on_presets(name):
    cfg = preset_config(name)
    grid = harness._grid(cfg)
    worst = 0.0
    for i in range(len(grid[0])):
        _, secret, raw, _, _ = harness._build(cfg, *(k[i:i + 1] for k in grid))
        worst = max(worst, abs(unity_corrected_fidelity(make_report(secret, raw))
                               - composed_unity_fidelity(secret, raw)))
    assert worst < 1e-12


@pytest.mark.parametrize("target, v_sq", [(0.44, 10.0 ** -0.45), (0.9, 0.5), (0.2, 0.1), (0.5, 0.5), (1.0, 0.3)])
def test_fitted_epr_loss_reproduces_its_target(target, v_sq):
    eta = fit_symmetric_epr_loss(target, v_sq)
    e1, e2 = epr_pair(new_squeezed(v_sq, None, MINUS), new_squeezed(v_sq, None, PLUS))
    assert duan_inseparability(loss(e1, eta), loss(e2, eta)) == pytest.approx(target, abs=1e-15)


@pytest.mark.parametrize("target, v_sq", [(1.0, 1.0), (0.3, 0.5), (1.1, 0.5), (0.5, 0.0)])
def test_epr_loss_fit_rejects_what_no_loss_reaches(target, v_sq):
    with pytest.raises(ValueError, match="outside the reachable range"):
        fit_symmetric_epr_loss(target, v_sq)
