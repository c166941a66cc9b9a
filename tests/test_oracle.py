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
    variance,
)
from qss.oracle import coefficient_matrix, compare_mode_to_samples, draw_axes, weighted_axes


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
    coeffs = coefficient_matrix([x.plus, y.plus], axes)
    cov = coeffs @ draw_axes(axes, n, 3)[1] @ coeffs.T
    se = math.sqrt((cov[0, 0] * cov[1, 1] + cov[0, 1] ** 2) / (n - 1))
    assert abs(cov[0, 1] - 0.5) < 5 * se


def test_monte_carlo_deterministic():
    m = new_coherent(1.0, 1.0)
    axes = weighted_axes([m])
    (mean1, cov1), (mean2, cov2) = draw_axes(axes, 1000, 42), draw_axes(axes, 1000, 42)
    assert np.array_equal(mean1, mean2) and np.array_equal(cov1, cov2)
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


def test_only_weighted_axes_are_drawn():
    # The zero-variance classical axis keeps its key but adds no variance.
    # Axes come in order of first appearance: X+ keys, then X- keys.
    m1, m2 = _sampled_network()
    assert [ax.label for ax in mode_axes(m1)] == ["a.plus", "b.plus", "silent", "a.minus", "b.minus"]
    assert [ax.label for ax in weighted_axes([m1, m2])] == ["a.plus", "b.plus", "a.minus", "b.minus"]


def _deviates(axes, n_shots, seed):
    """One N(0, variance) deviate per axis in ``axes`` and shot."""
    std = np.sqrt([ax.variance for ax in axes])
    return std[:, None] * np.random.default_rng(seed).standard_normal((len(axes), n_shots))


def _brute_force_draw(axes, n_shots, seed):
    """Reference sampler: the sample mean and the unbiased sample
    covariance of every deviate of every shot."""
    d = _deviates(axes, n_shots, seed)
    return d.mean(axis=1), np.cov(d)


def test_z_scores_are_those_of_the_direct_sums(monkeypatch):
    # Predictions from m2 against samples of m1, so that most z are large.
    m1, m2 = _sampled_network()
    axes = weighted_axes([m1, m2])
    n = 500
    monkeypatch.setattr(oracle, "draw_axes", _brute_force_draw)
    got = compare_mode_to_samples(m2, m1, n, 11)

    d = _deviates(axes, n, 11)
    x = coefficient_matrix([m1.plus, m1.minus], axes) @ d
    dx = x - x.sum(axis=1, keepdims=True) / n
    dd = d - d.sum(axis=1, keepdims=True) / n
    want = []
    for i, quad in enumerate((PLUS, MINUS)):
        form = m2.quad(quad)
        v = (dx[i] * dx[i]).sum() / (n - 1)
        want.append((m1.quad(quad).mean + x[i].sum() / n - form.mean) / math.sqrt(v / n))
        want.append((v - variance(form)) / (v * math.sqrt(2 / (n - 1))))
        for j, ax in enumerate(axes):
            c = form.coeffs.get(ax, 0.0)
            est = (dx[i] * dd[j]).sum() / (n - 1) / ax.variance
            se = math.sqrt((max(v - c * c * ax.variance, 0.0) / ax.variance + 2 * c * c) / n)
            want.append((est - c) / se)
    assert len(got) == len(want) == 4 + 2 * len(axes)
    np.testing.assert_allclose([f.z for f in got], want, rtol=1e-9)


def test_draw_axes_is_unbiased_at_few_shots():
    # One shot more than axes: a wrong divisor or Bartlett degree of
    # freedom biases the covariance by a fifth or more.
    m1, _ = _sampled_network()
    axes = weighted_axes([m1])
    n_shots, k = len(axes) + 1, 2000
    covs = np.array([draw_axes(axes, n_shots, s)[1] for s in range(k)])
    var = np.array([ax.variance for ax in axes])
    # An entry ij of the unbiased covariance has variance var_i var_j / (n - 1) off
    # the diagonal and twice that on it.
    se = np.sqrt((np.outer(var, var) + np.diag(var**2)) / (n_shots - 1) / k)
    assert np.all(np.abs(covs.mean(axis=0) - np.diag(var)) < 5 * se)


def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between
    the empirical distribution functions of ``a`` and ``b``."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, at, "right") / a.size - np.searchsorted(b, at, "right") / b.size).max())


@pytest.mark.parametrize("n_shots", [6, 2000])
def test_z_scores_follow_the_brute_force_sampler(monkeypatch, n_shots):
    # Six shots over four axes is where the Bartlett degrees of freedom
    # show; 2000 is a typical small run.
    m1, _ = _sampled_network()
    seeds = range(300)
    fast = [compare_mode_to_samples(m1, m1, n_shots, s) for s in seeds]
    monkeypatch.setattr(oracle, "draw_axes", _brute_force_draw)
    slow = [compare_mode_to_samples(m1, m1, n_shots, 10_000 + s) for s in seeds]
    # Critical value at alpha = 0.001 for two samples of k each:
    # sqrt(-ln(alpha / 2) / 2) * sqrt(2 / k).
    critical = math.sqrt(-math.log(0.001 / 2) / 2) * math.sqrt(2 / len(seeds))
    for j, finding in enumerate(fast[0]):
        ks = _ks_statistic([fs[j].z for fs in fast], [fs[j].z for fs in slow])
        assert ks < critical, (finding.quantity, finding.axis_label, ks)
