import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss import modes
from qss.modes import (
    CHUNK_SHOTS,
    MINUS,
    PLUS,
    ClassicalSignal,
    QuadratureMode,
    classical_axis,
    coefficient_matrix,
    commutator_weight,
    covariance,
    db_to_linear,
    draw_axes,
    is_physical,
    linear_combine,
    mode_axes,
    monte_carlo_sample,
    new_coherent,
    new_squeezed,
    new_vacuum,
    quantum_pair,
    signal_variance,
    variance,
    weighted_axes,
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


def test_monte_carlo_matches_analytics():
    a = new_coherent(2.0, -1.0, "a")
    b = new_squeezed(0.4, label="b")
    m = linear_combine([(0.6, 0.6, a), (0.8, 0.8, b)])
    stats = monte_carlo_sample([("m.plus", m, PLUS), ("m.minus", m, MINUS)], 200_000, seed=7)
    for label, quad in (("m.plus", PLUS), ("m.minus", MINUS)):
        i = stats.index(label)
        assert abs(stats.means[i] - m.mean(quad)) < 5 * stats.mean_se[i]
        assert abs(stats.variances[i] - variance(m, quad)) < 5 * stats.variance_se[i]


def test_monte_carlo_covariance():
    a = new_vacuum("a")
    m1 = linear_combine([(1.0, 1.0, a)])
    m2 = linear_combine([(0.5, 0.5, a)])
    stats = monte_carlo_sample([("x", m1, PLUS), ("y", m2, PLUS)], 100_000, seed=3)
    i, j = stats.index("x"), stats.index("y")
    assert abs(stats.covariances[i, j] - 0.5) < 5 * stats.covariance_se[i, j]


def test_monte_carlo_deterministic():
    m = new_coherent(1.0, 1.0)
    s1 = monte_carlo_sample([m], 1000, seed=42)
    s2 = monte_carlo_sample([m], 1000, seed=42)
    assert np.array_equal(s1.means, s2.means)
    assert np.array_equal(s1.variances, s2.variances)


def _sampled_network():
    """Two modes over the axes of a and b, plus an idle vacuum whose
    coefficients cancel and a zero-variance classical noise."""
    a = new_coherent(2.0, -1.0, "a")
    b = new_squeezed(0.4, label="b")
    idle = new_vacuum("idle")
    silent = classical_axis(0.0, "silent")
    noise = ClassicalSignal(0.0, {silent: 1.0})
    m = linear_combine([(0.6, 0.6, a), (0.8, -0.8, b), (0.3, 0.3, idle), (-0.3, -0.3, idle), (1.0, 1.0, noise)])
    return m, linear_combine([(0.5, 0.5, a)])


@pytest.mark.parametrize("n_shots", [CHUNK_SHOTS + 1, 1000])
def test_draw_axes_moments_match_regenerated_chunks(n_shots):
    m1, m2 = _sampled_network()
    axes = weighted_axes([m1, m2])
    coeffs = coefficient_matrix([m1.coeff_plus, m1.coeff_minus, m2.coeff_plus], axes)
    got = draw_axes(axes, n_shots, 5, coeffs)

    sizes = [min(CHUNK_SHOTS, n_shots - s) for s in range(0, n_shots, CHUNK_SHOTS)]
    std = np.sqrt([ax.variance for ax in axes])[:, None]
    d = np.hstack([std * np.random.default_rng(child).standard_normal((len(axes), n))
                   for child, n in zip(np.random.SeedSequence(5).spawn(len(sizes)), sizes)])
    x = coeffs @ d
    assert got.n_shots == n_shots
    for value, want in ((got.sum_x, x.sum(axis=1)), (got.xx, x @ x.T),
                        (got.xd, x @ d.T), (got.sum_d, d.sum(axis=1))):
        np.testing.assert_allclose(value, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_cancelled_vacuum_leaves_no_key():
    a, idle = new_vacuum("a"), new_vacuum("idle")
    m = linear_combine([(0.6, 0.6, a), (0.3, 0.3, idle), (-0.3, -0.3, idle)])
    assert [ax.label for ax in mode_axes(m)] == ["a.plus", "a.minus"]
    (ax_p,), (ax_m,) = a.coeff_plus, a.coeff_minus
    assert m.coeff_plus == {ax_p: 0.6} and m.coeff_minus == {ax_m: 0.6}


def test_only_weighted_axes_are_drawn():
    # The zero-variance classical axis keeps its key but adds no variance.
    m1, m2 = _sampled_network()
    assert [ax.label for ax in mode_axes(m1)] == ["a.plus", "a.minus", "b.plus", "b.minus", "silent"]
    assert [ax.label for ax in weighted_axes([m1, m2])] == ["a.plus", "a.minus", "b.plus", "b.minus"]


def test_worker_count_capped_by_cpus_and_chunks(monkeypatch):
    pools = []
    real = concurrent.futures.ThreadPoolExecutor

    def recording_pool(max_workers):
        pools.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
    m1, _ = _sampled_network()
    axes = weighted_axes([m1])
    coeffs = coefficient_matrix([m1.coeff_plus], axes)
    for cpus, n_shots in ((8, 3 * CHUNK_SHOTS), (2, 3 * CHUNK_SHOTS), (8, CHUNK_SHOTS)):
        monkeypatch.setattr(modes, "_usable_cpus", lambda cpus=cpus: cpus)
        draw_axes(axes, n_shots, 1, coeffs)
    assert pools == [3, 2]  # one chunk runs inline, with no pool
