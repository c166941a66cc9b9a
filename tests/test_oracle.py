import concurrent.futures
import math

import numpy as np
import pytest

from qss import oracle
from qss.components import displace
from qss.modes import (
    MINUS,
    PLUS,
    LinearForm,
    classical_axis,
    linear_combine,
    mode_axes,
    new_coherent,
    new_squeezed,
    new_vacuum,
)
from qss.oracle import CHUNK_SHOTS, coefficient_matrix, compare_mode_to_samples, draw_axes, weighted_axes


def test_monte_carlo_matches_analytics():
    a = new_coherent(2.0, -1.0, "a")
    b = new_squeezed(0.4, label="b")
    m = linear_combine([(0.6, 0.6, a), (0.8, 0.8, b)])
    findings = compare_mode_to_samples(m, m, 200_000, seed=7)
    moments = {f.quantity: f.z for f in findings if f.axis_label is None}
    assert sorted(moments) == ["mean.minus", "mean.plus", "variance.minus", "variance.plus"]
    assert all(abs(z) < 5.0 for z in moments.values())


def test_monte_carlo_covariance():
    a = new_vacuum("a")
    x = linear_combine([(1.0, 1.0, a)])
    y = linear_combine([(0.5, 0.5, a)])
    axes = weighted_axes([x, y])
    n = 100_000
    cov = draw_axes(axes, n, 3, coefficient_matrix([x.plus, y.plus], axes)).covariance()
    se = math.sqrt((cov[0, 0] * cov[1, 1] + cov[0, 1] ** 2) / (n - 1))
    assert abs(cov[0, 1] - 0.5) < 5 * se


def test_monte_carlo_deterministic():
    m = new_coherent(1.0, 1.0)
    axes = weighted_axes([m])
    coeffs = coefficient_matrix([m.plus, m.minus], axes)
    s1, s2 = draw_axes(axes, 1000, 42, coeffs), draw_axes(axes, 1000, 42, coeffs)
    for field in ("sum_x", "xx", "xd", "sum_d"):
        assert np.array_equal(getattr(s1, field), getattr(s2, field))
    assert compare_mode_to_samples(m, m, 1000, 42) == compare_mode_to_samples(m, m, 1000, 42)


def _sampled_network():
    """Two modes over the axes of a and b, plus an idle vacuum whose
    coefficients cancel and a zero-variance classical noise."""
    a = new_coherent(2.0, -1.0, "a")
    b = new_squeezed(0.4, label="b")
    idle = new_vacuum("idle")
    silent = classical_axis(0.0, "silent")
    noise = LinearForm(0.0, {silent: 1.0})
    m = linear_combine([(0.6, 0.6, a), (0.8, -0.8, b), (0.3, 0.3, idle), (-0.3, -0.3, idle)])
    m = displace(displace(m, PLUS, noise, 1.0), MINUS, noise, 1.0)
    return m, linear_combine([(0.5, 0.5, a)])


@pytest.mark.parametrize("n_shots", [CHUNK_SHOTS + 1, 1000])
def test_draw_axes_moments_match_regenerated_chunks(n_shots):
    m1, m2 = _sampled_network()
    axes = weighted_axes([m1, m2])
    coeffs = coefficient_matrix([m1.plus, m1.minus, m2.plus], axes)
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


def test_only_weighted_axes_are_drawn():
    # The zero-variance classical axis keeps its key but adds no variance.
    # Axes come in order of first appearance: X+ keys, then X- keys.
    m1, m2 = _sampled_network()
    assert [ax.label for ax in mode_axes(m1)] == ["a.plus", "b.plus", "silent", "a.minus", "b.minus"]
    assert [ax.label for ax in weighted_axes([m1, m2])] == ["a.plus", "b.plus", "a.minus", "b.minus"]


def test_worker_count_capped_by_cpus_and_chunks(monkeypatch):
    pools = []
    real = concurrent.futures.ThreadPoolExecutor

    def recording_pool(max_workers):
        pools.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
    m1, _ = _sampled_network()
    axes = weighted_axes([m1])
    coeffs = coefficient_matrix([m1.plus], axes)
    for cpus, n_shots in ((8, 3 * CHUNK_SHOTS), (2, 3 * CHUNK_SHOTS), (8, CHUNK_SHOTS)):
        monkeypatch.setattr(oracle, "_usable_cpus", lambda cpus=cpus: cpus)
        draw_axes(axes, n_shots, 1, coeffs)
    assert pools == [3, 2]  # one chunk runs inline, with no pool
