import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss import oracle
from qss.components import displace
from qss.modes import (
    MINUS,
    PLUS,
    LinearForm,
    QuadratureMode,
    axis_names,
    classical_axis,
    linear_combine,
    mode_axes,
    new_coherent,
    new_squeezed,
    new_vacuum,
    quantum_pair,
    variance,
)
from qss.oracle import OracleFinding, coefficient_matrix, compare_mode_to_samples, draw_axes, weighted_axes


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


def _compare_axis_by_axis(predicted, sampled, n_shots, seed, row=0):
    """Reference for :func:`compare_mode_to_samples`: its per-axis
    findings made one axis at a time on Python floats."""
    axes = weighted_axes([sampled, predicted])
    names = axis_names(axes)
    sampled_coeffs = coefficient_matrix([sampled.plus, sampled.minus], axes)
    mean_d, cov_d = draw_axes(axes, n_shots, seed)
    fluct_mean = sampled_coeffs @ mean_d
    axis_cov = sampled_coeffs @ cov_d
    cov = axis_cov @ sampled_coeffs.T
    findings = []
    for i, quad in enumerate((PLUS, MINUS)):
        form = predicted.quad(quad)
        v_pred = variance(form)
        v_emp = float(cov[i, i])
        mean_emp = sampled.quad(quad).mean + float(fluct_mean[i])
        se_mean = math.sqrt(max(v_emp, 1e-30) / n_shots)
        findings.append(OracleFinding(row, f"mean.{quad}", None, (mean_emp - form.mean) / se_mean))
        se_var = max(v_emp, 1e-30) * math.sqrt(2.0 / (n_shots - 1))
        findings.append(OracleFinding(row, f"variance.{quad}", None, (v_emp - v_pred) / se_var))
        coeffs = form.coeffs
        for j, ax in enumerate(axes):
            c = coeffs.get(ax, 0.0)
            est = float(axis_cov[i, j]) / ax.variance
            resid = max(v_emp - c * c * ax.variance, 0.0)
            se = math.sqrt(max(resid / ax.variance + 2.0 * c * c, 1e-30) / n_shots)
            findings.append(OracleFinding(row, f"coeff.{quad}", names[ax], (est - c) / se))
    return findings


_coefficient = st.one_of(st.just(0.0), st.floats(-20.0, 20.0, allow_nan=False))


@st.composite
def _mode_pairs(draw):
    """A sampled and a predicted mode over a few shared axes: quantum
    pairs and classical axes, some of zero variance, with independent
    coefficients (a zero one included), so that some residual variances
    come out negative and are clipped."""
    axes = []
    for k in range(draw(st.integers(1, 4))):
        v_plus, v_minus = (draw(st.floats(1e-3, 1e3)) for _ in range(2))
        axes += quantum_pair(v_plus, v_minus, f"q{k}")
    axes += [classical_axis(draw(st.sampled_from([0.0, 0.05, 2.0])), "n") for _ in range(draw(st.integers(0, 2)))]

    def mode():
        forms = [LinearForm(draw(st.floats(-10.0, 10.0)),
                            {ax: draw(_coefficient) for ax in axes if draw(st.booleans())}) for _ in range(2)]
        return QuadratureMode(*forms)

    return mode(), mode()


@settings(max_examples=100, deadline=None)
@given(_mode_pairs(), st.integers(20, 10**7), st.integers(0, 2**32 - 1), st.integers(0, 50))
def test_z_scores_equal_the_axis_by_axis_reference(modes, n_shots, seed, row):
    sampled, predicted = modes
    for p in (predicted, sampled):
        assert compare_mode_to_samples(p, sampled, n_shots, seed, row) == \
            _compare_axis_by_axis(p, sampled, n_shots, seed, row)


def _draw_axes_by_indices(axes, n_shots, seed):
    """Reference for :func:`draw_axes`: the Bartlett factor filled through
    ``np.tril_indices``."""
    m = len(axes)
    std = np.sqrt([ax.variance for ax in axes])
    rng = np.random.default_rng(seed)
    mean = std * rng.standard_normal(m) / math.sqrt(n_shots)
    lower = np.zeros((m, m))
    lower[np.tril_indices(m, -1)] = rng.standard_normal(m * (m - 1) // 2)
    lower[np.diag_indices(m)] = np.sqrt(rng.chisquare(n_shots - 1 - np.arange(m)))
    scaled = std[:, None] * lower
    return mean, scaled @ scaled.T / (n_shots - 1)


@pytest.mark.parametrize("m", range(1, 21))
def test_draw_axes_fills_the_bartlett_factor_row_by_row(m):
    axes = [classical_axis(0.25 + k, f"a{k}") for k in range(m)]
    for n_shots, seed in ((m + 1, m), (10**6, 1000 + m)):
        got, want = draw_axes(axes, n_shots, seed), _draw_axes_by_indices(axes, n_shots, seed)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


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
