"""Monte Carlo sampling oracle for composed modes.

Everything the oracle reports about n shots of the quantities X = C D,
D holding one N(0, variance) deviate per drawn axis and shot, is a
function of two statistics of D: its sample mean and its unbiased
sample covariance.  For Gaussian D their joint law is exact and cheap
to draw (Cochran's theorem): with Σ = diag(variance), the mean is
N(0, Σ/n), and independently (n − 1) times the covariance is
Wishart_m(n − 1, Σ), drawn by the Bartlett decomposition (Bartlett
1933).  So :func:`draw_axes` costs O(m²) for m axes, whatever n, and
draws nothing per shot.  Only the axes that add variance to a sampled
quantity are drawn, and a quantity's mean is added to its sampled
fluctuation, so a large mean does not cancel its variance.  From the
statistics, :func:`compare_mode_to_samples` estimates each axis
coefficient c with the standard error √((R/σ² + 2c²)/n), R being the
rest of the quadrature's variance and σ² the axis's; the 2c² term is
the estimate's own spread, which qss 1.0 left out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import MINUS, PLUS, NoiseAxis, QuadratureMode, axis_names, mode_axes, variance

ORACLE_Z_LIMIT = 5.0


def weighted_axes(modes) -> list[NoiseAxis]:
    """Axes that add variance to either quadrature of any of ``modes``, in
    the order of :func:`~qss.modes.mode_axes`: those of nonzero variance,
    since the form algebra stores no zero coefficient."""
    return [ax for ax in mode_axes(*modes) if ax.variance != 0.0]


def coefficient_matrix(forms, axes) -> np.ndarray:
    """``(len(forms), len(axes))`` array of the coefficient of each form
    on each axis."""
    return np.array([[form.coeffs.get(ax, 0.0) for ax in axes] for form in forms])


def draw_axes(axes, n_shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The sample mean and the unbiased sample covariance of one
    N(0, variance) deviate per axis in ``axes`` and shot, over ``n_shots``
    shots, drawn from their joint law with one generator seeded by
    ``seed``.

    The scatter (n − 1)·cov is σ L Lᵀ σ, σ being the axes' standard
    deviations and L lower-triangular with L_ii = √χ²(n − 1 − i) and
    L_ij ~ N(0, 1) below the diagonal.  It is non-singular only when
    ``n_shots`` exceeds the number of axes.
    """
    m = len(axes)
    if n_shots < 2 or n_shots <= m:
        raise ValueError(f"n_shots must be at least 2 and exceed the {m} axes drawn, got {n_shots}")
    std = np.sqrt([ax.variance for ax in axes])
    rng = np.random.default_rng(seed)
    mean = std * rng.standard_normal(m) / math.sqrt(n_shots)
    lower = np.zeros((m, m))
    lower[np.tri(m, k=-1, dtype=bool)] = rng.standard_normal(m * (m - 1) // 2)  # row by row
    lower[np.diag_indices(m)] = np.sqrt(rng.chisquare(n_shots - 1 - np.arange(m)))
    scaled = std[:, None] * lower
    return mean, scaled @ scaled.T / (n_shots - 1)


@dataclass
class OracleFinding:
    row: int
    quantity: str
    axis_label: str | None
    z: float


def compare_mode_to_samples(predicted: QuadratureMode, sampled: QuadratureMode,
                            n_shots: int, seed: int, row: int = 0) -> list[OracleFinding]:
    """z-scores of predicted means/variances/per-axis coefficients against
    samples drawn from ``sampled``.

    In normal operation ``predicted is sampled``; passing a different
    ``predicted`` turns this into a regression check that localises any
    discrepancy to a noise axis.  Only axes that add variance to either
    mode are drawn and checked.
    """
    axes = weighted_axes([sampled, predicted])
    labels = list(axis_names(axes).values())
    axis_var = np.array([ax.variance for ax in axes])
    sampled_coeffs = coefficient_matrix([sampled.plus, sampled.minus], axes)
    predicted_coeffs = coefficient_matrix([predicted.plus, predicted.minus], axes)
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
        # Per axis, over all axes at once: the estimate is (1/n) sum of
        # x d / variance with x = c d + r, so its variance is
        # (R / variance + 2 c^2) / n, R being the variance of r, and the
        # axis's own spread counts too.
        c = predicted_coeffs[i]
        est = axis_cov[i] / axis_var
        resid = np.maximum(v_emp - c * c * axis_var, 0.0)
        se = np.sqrt(np.maximum(resid / axis_var + 2.0 * c * c, 1e-30) / n_shots)
        quantity = f"coeff.{quad}"
        findings.extend(OracleFinding(row, quantity, label, z) for label, z in zip(labels, ((est - c) / se).tolist()))
    return findings
