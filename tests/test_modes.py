import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss.modes import (
    MINUS,
    PLUS,
    QuadratureMode,
    classical_axis,
    commutator_weight,
    covariance,
    db_to_linear,
    is_physical,
    linear_combine,
    mode_axes,
    new_coherent,
    new_squeezed,
    new_vacuum,
    quantum_pair,
    signal_variance,
    variance,
)


def test_vacuum_is_qnl():
    v = new_vacuum()
    assert variance(v, PLUS) == 1.0
    assert variance(v, MINUS) == 1.0
    assert v.mean_plus == 0.0 and v.mean_minus == 0.0
    assert is_physical(v)


def test_coherent_means():
    c = new_coherent(2.0, -3.0)
    assert (c.mean_plus, c.mean_minus) == (2.0, -3.0)
    assert variance(c, PLUS) == 1.0


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert math.isclose(db_to_linear(-3.0), 0.501187, rel_tol=1e-5)
    assert math.isclose(db_to_linear(-4.5), 0.354813, rel_tol=1e-5)


def test_squeezed_default_partner_is_pure():
    s = new_squeezed(0.25)
    assert variance(s, MINUS) == 0.25
    assert variance(s, PLUS) == 4.0


def test_squeezed_orientation():
    s = new_squeezed(0.5, squeezed_quadrature=PLUS)
    assert variance(s, PLUS) == 0.5
    assert variance(s, MINUS) == 2.0


@pytest.mark.parametrize("v_sq, v_anti", [(0.0, None), (1.5, None), (-0.1, None), (0.5, 1.0)])
def test_squeezed_validation(v_sq, v_anti):
    with pytest.raises(ValueError):
        new_squeezed(v_sq, v_anti)


def test_axis_validation():
    with pytest.raises(ValueError):
        classical_axis(-1.0)
    ax_p, ax_m = quantum_pair(2.0, 0.5)
    assert ax_p.partner == ax_m.id and ax_m.partner == ax_p.id


def test_linear_combine_variance_arithmetic():
    a, b = new_vacuum("a"), new_squeezed(0.5, label="b")
    m = linear_combine([(0.6, 0.6, a), (0.8, 0.8, b)])
    assert math.isclose(variance(m, PLUS), 0.36 + 0.64 * 2.0, rel_tol=1e-12)
    assert math.isclose(variance(m, MINUS), 0.36 + 0.64 * 0.5, rel_tol=1e-12)


def test_covariance_over_shared_axes():
    a = new_vacuum("a")
    b = new_vacuum("b")
    m1 = linear_combine([(1.0, 1.0, a), (1.0, 1.0, b)])
    m2 = linear_combine([(1.0, 1.0, a), (-1.0, -1.0, b)])
    assert covariance(m1, PLUS, m2, PLUS) == 0.0
    m3 = linear_combine([(2.0, 2.0, a)])
    assert covariance(m1, PLUS, m3, PLUS) == 2.0


def test_signal_variance():
    s = new_coherent(1.0, 0.0).signal(PLUS)
    assert signal_variance(s) == 1.0
    assert s.scaled(3.0).mean == 3.0
    assert signal_variance(s.scaled(3.0)) == 9.0


def test_commutator_weight_basics():
    assert commutator_weight(new_vacuum()) == 1.0
    assert commutator_weight(new_squeezed(0.3)) == 1.0
    # classical axes carry no commutator weight
    ax = classical_axis(5.0)
    v = new_vacuum()
    m = QuadratureMode(0.0, 0.0, {**v.coeff_plus, ax: 2.0}, v.coeff_minus)
    assert commutator_weight(m) == 1.0
    # scaling both quadratures by k scales the weight by k^2
    scaled = linear_combine([(2.0, 2.0, v)])
    assert commutator_weight(scaled) == 4.0
    assert not is_physical(scaled)


@settings(max_examples=50, deadline=None)
@given(
    r=st.floats(0.0, 1.0),
    v_sq=st.floats(0.05, 1.0),
)
def test_balanced_mixing_preserves_weight(r, v_sq):
    a, b = new_vacuum(), new_squeezed(v_sq)
    t = math.sqrt(1.0 - r)
    m = linear_combine([(math.sqrt(r), math.sqrt(r), a), (t, t, b)])
    assert abs(commutator_weight(m) - 1.0) < 1e-12


def test_consumed_mode_rejected():
    v = new_vacuum()
    v.consumed = True
    with pytest.raises(ValueError):
        linear_combine([(1.0, 1.0, v)])


def test_cancelled_vacuum_leaves_no_key():
    a, idle = new_vacuum("a"), new_vacuum("idle")
    m = linear_combine([(0.6, 0.6, a), (0.3, 0.3, idle), (-0.3, -0.3, idle)])
    assert [ax.label for ax in mode_axes(m)] == ["a.plus", "a.minus"]
    (ax_p,), (ax_m,) = a.coeff_plus, a.coeff_minus
    assert m.coeff_plus == {ax_p: 0.6} and m.coeff_minus == {ax_m: 0.6}
