import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss.modes import (
    MINUS,
    PLUS,
    LinearForm,
    NoiseAxis,
    QuadratureMode,
    any_true,
    axis_names,
    classical_axis,
    combine,
    commutator,
    commutator_weight,
    covariance,
    db_to_linear,
    linear_combine,
    mode_axes,
    new_coherent,
    new_squeezed,
    new_vacuum,
    quantum_pair,
    variance,
)


def test_vacuum_is_qnl():
    v = new_vacuum()
    assert variance(v.plus) == 1.0
    assert variance(v.minus) == 1.0
    assert v.plus.mean == 0.0 and v.minus.mean == 0.0
    assert v.quad(PLUS) is v.plus and v.quad(MINUS) is v.minus
    assert commutator_weight(v) == 1.0


def test_coherent_means():
    c = new_coherent(2.0, -3.0)
    assert (c.plus.mean, c.minus.mean) == (2.0, -3.0)
    assert variance(c.plus) == 1.0


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert math.isclose(db_to_linear(-3.0), 0.501187, rel_tol=1e-5)
    assert math.isclose(db_to_linear(-4.5), 0.354813, rel_tol=1e-5)


def test_squeezed_default_partner_is_pure():
    s = new_squeezed(0.25)
    assert variance(s.minus) == 0.25
    assert variance(s.plus) == 4.0


def test_squeezed_orientation():
    s = new_squeezed(0.5, squeezed_quadrature=PLUS)
    assert variance(s.plus) == 0.5
    assert variance(s.minus) == 2.0


@pytest.mark.parametrize("v_sq, v_anti", [(0.0, None), (1.5, None), (-0.1, None), (0.5, 1.0)])
def test_squeezed_validation(v_sq, v_anti):
    with pytest.raises(ValueError):
        new_squeezed(v_sq, v_anti)


def test_axis_validation():
    with pytest.raises(ValueError):
        classical_axis(-1.0)
    ax_p, ax_m = quantum_pair(2.0, 0.5)
    assert ax_m.partner is ax_p and ax_p.partner is None
    assert (ax_p.role, ax_m.role, classical_axis(1.0).role) == (PLUS, MINUS, None)
    for role, partner in ((MINUS, None), (None, ax_p), (PLUS, ax_p), (MINUS, ax_m), ("x", None)):
        with pytest.raises(ValueError):
            NoiseAxis(1.0, role, partner)


@pytest.mark.parametrize("x", [
    0.0, -0.0, 2.5, math.nan, True, False, 0, 3,
    np.float64(0.0), np.float64(-1.0), np.float64(math.nan), np.bool_(True), np.bool_(False),
    np.array(0.0), np.array(math.nan), np.array(False), np.array(True),
    np.array([]), np.array([0.0, 0.0]), np.array([0.0, math.nan]), np.array([False, True]), np.zeros((2, 2)),
], ids=repr)
def test_any_true_agrees_with_np_any(x):
    assert any_true(x) is bool(np.any(x))


def test_linear_combine_variance_arithmetic():
    a, b = new_vacuum("a"), new_squeezed(0.5, label="b")
    m = linear_combine([(0.6, 0.6, a), (0.8, 0.8, b)])
    assert math.isclose(variance(m.plus), 0.36 + 0.64 * 2.0, rel_tol=1e-12)
    assert math.isclose(variance(m.minus), 0.36 + 0.64 * 0.5, rel_tol=1e-12)


def test_covariance_over_shared_axes():
    a = new_vacuum("a")
    b = new_vacuum("b")
    m1 = linear_combine([(1.0, 1.0, a), (1.0, 1.0, b)])
    m2 = linear_combine([(1.0, 1.0, a), (-1.0, -1.0, b)])
    assert covariance(m1.plus, m2.plus) == 0.0
    m3 = linear_combine([(2.0, 2.0, a)])
    assert covariance(m1.plus, m3.plus) == 2.0


def test_signal_variance():
    # A photocurrent is a form like any quadrature.
    s = new_coherent(1.0, 0.0).plus
    assert variance(s) == 1.0
    scaled = combine([(3.0, s)])
    assert scaled.mean == 3.0
    assert variance(scaled) == 9.0
    noise = LinearForm(0.5, {classical_axis(2.0): 1.0})
    total = combine([(3.0, s), (-1.0, noise)])
    assert total.mean == 2.5
    assert variance(total) == 9.0 + 2.0
    assert covariance(total, s) == 3.0


def test_commutator_weight_basics():
    assert commutator_weight(new_vacuum()) == 1.0
    assert commutator_weight(new_squeezed(0.3)) == 1.0
    # classical axes carry no commutator weight
    ax = classical_axis(5.0)
    v = new_vacuum()
    m = QuadratureMode(LinearForm(0.0, {**v.plus.coeffs, ax: 2.0}), v.minus)
    assert commutator_weight(m) == 1.0
    # scaling both quadratures by k scales the weight by k^2
    scaled = linear_combine([(2.0, 2.0, v)])
    assert commutator_weight(scaled) == 4.0


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
    (ax_p,), (ax_m,) = a.plus.coeffs, a.minus.coeffs
    assert m.plus.coeffs == {ax_p: 0.6} and m.minus.coeffs == {ax_m: 0.6}


def test_commutator_is_canonical_across_modes():
    a, b = new_vacuum("a"), new_squeezed(0.3, label="b")
    for x, y in ((a, b), (b, a)):
        assert commutator(x.plus, y.minus) == 0.0 and commutator(x.plus, y.plus) == 0.0
    assert commutator(a.plus, a.minus) == 1.0 and commutator(a.minus, a.plus) == -1.0
    # the two outputs of a balanced splitter commute; a dropped sign does not
    c = linear_combine([(0.6, 0.6, a), (0.8, 0.8, b)])
    d = linear_combine([(0.8, 0.8, a), (-0.6, -0.6, b)])
    wrong = linear_combine([(0.8, 0.8, a), (0.6, 0.6, b)])
    assert commutator(c.plus, d.minus) == 0.0
    assert commutator(c.plus, wrong.minus) == pytest.approx(0.96, abs=1e-12)
    assert commutator_weight(wrong) == pytest.approx(1.0, abs=1e-12)


def test_axes_ordered_by_first_appearance():
    # Axes have no global id: creating b first does not put it first.
    b, a = new_vacuum("b"), new_vacuum("a")
    m = linear_combine([(1.0, 1.0, a), (1.0, 1.0, b)])
    assert [ax.label for ax in mode_axes(m)] == ["a.plus", "b.plus", "a.minus", "b.minus"]
    assert [ax.label for ax in mode_axes(b, m)] == ["b.plus", "b.minus", "a.plus", "a.minus"]
    twin = new_vacuum("a")
    names = axis_names(mode_axes(linear_combine([(1.0, 1.0, twin), (1.0, 1.0, a)])))
    assert list(names.values()) == ["a.plus#1", "a.plus#2", "a.minus#1", "a.minus#2"]
    assert [ax for ax in names if ax.label == "a.plus"] == [*twin.plus.coeffs, *a.plus.coeffs]
