"""Monte Carlo sampling oracle for composed modes.

The oracle draws only the axes that add variance to a sampled
quantity, in chunks of ``CHUNK_SHOTS`` shots, each from its own child
of ``numpy.random.SeedSequence(seed)``; a chunk keeps only the moment
sums of its fluctuations (:class:`SampleMoments`), and a quantity's mean
is added after the sums, so a large mean does not cancel its variance.
Chunks run on one thread per usable CPU and are summed in chunk order,
so results are identical for any thread count.  A given seed yields
other draws than the dict-of-arrays sampler of qss 1.0, which drew
every axis, zero-weight ones included, from one generator.  From the
sums, :func:`compare_mode_to_samples` estimates each axis coefficient c
with the standard error √((R/σ² + 2c²)/n), R being the rest of the
quadrature's variance and σ² the axis's; the 2c² term is the estimate's
own spread, which qss 1.0 left out.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .modes import MINUS, PLUS, NoiseAxis, QuadratureMode, axis_names, mode_axes, variance

CHUNK_SHOTS = 1 << 16
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


@dataclass
class SampleMoments:
    """Sums over ``n_shots`` shots of the zero-mean fluctuations X = C D
    of k sampled quantities, where D holds one N(0, variance) deviate per
    drawn axis and shot: ΣX, X Xᵀ, X Dᵀ and ΣD."""

    n_shots: int
    sum_x: np.ndarray  # (k,)
    xx: np.ndarray  # (k, k)
    xd: np.ndarray  # (k, m)
    sum_d: np.ndarray  # (m,)

    def __add__(self, other: "SampleMoments") -> "SampleMoments":
        return SampleMoments(self.n_shots + other.n_shots, self.sum_x + other.sum_x, self.xx + other.xx,
                             self.xd + other.xd, self.sum_d + other.sum_d)

    def mean(self) -> np.ndarray:
        """Sample mean of the fluctuations."""
        return self.sum_x / self.n_shots

    def covariance(self) -> np.ndarray:
        """Unbiased sample covariance of the sampled quantities."""
        return (self.xx - np.outer(self.sum_x, self.sum_x) / self.n_shots) / max(self.n_shots - 1, 1)

    def axis_covariance(self) -> np.ndarray:
        """Unbiased sample covariance of each quantity with each axis."""
        return (self.xd - np.outer(self.sum_x, self.sum_d) / self.n_shots) / max(self.n_shots - 1, 1)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _draw_chunks(seeds, sizes, scaled: np.ndarray, std: np.ndarray,
                 z_buf: np.ndarray, x_buf: np.ndarray) -> list[SampleMoments]:
    """Moments of each chunk in turn.  ``scaled`` is C with each column
    multiplied by its axis's standard deviation, so X = C D = scaled Z for
    the standard normal draws Z; Z and X are written into the flat
    buffers ``z_buf`` and ``x_buf``."""
    parts = []
    for seed, n in zip(seeds, sizes):
        z = z_buf[: len(std) * n].reshape(len(std), n)
        np.random.default_rng(seed).standard_normal(out=z)
        x = np.matmul(scaled, z, out=x_buf[: len(scaled) * n].reshape(len(scaled), n))
        parts.append(SampleMoments(n, x.sum(axis=1), x @ x.T, (x @ z.T) * std, z.sum(axis=1) * std))
    return parts


def draw_axes(axes, n_shots: int, seed: int, coeffs: np.ndarray) -> SampleMoments:
    """Draw one N(0, variance) deviate per axis in ``axes`` and shot, and
    reduce the fluctuations X = ``coeffs`` @ D to :class:`SampleMoments`.

    Deterministic under ``seed`` whatever the number of worker threads:
    chunk j of ``CHUNK_SHOTS`` shots draws from
    ``SeedSequence(seed).spawn(n_chunks)[j]`` and chunks are summed in
    order.  Worker w of W takes chunks w, w + W, ...; there is one worker
    per usable CPU, because the normal fill and the matrix products
    release the interpreter lock.  Each worker's buffers are allocated
    here, on the calling thread, so they come from one allocator arena
    instead of staying cached in a fresh arena per worker thread.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    std = np.sqrt([ax.variance for ax in axes])
    scaled = np.asarray(coeffs, dtype=float) * std
    sizes = [min(CHUNK_SHOTS, n_shots - start) for start in range(0, n_shots, CHUNK_SHOTS)]
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    workers = min(len(sizes), _usable_cpus())
    jobs = [(seeds[w::workers], sizes[w::workers], scaled, std,
             np.empty(len(std) * sizes[0]), np.empty(len(scaled) * sizes[0])) for w in range(workers)]
    if workers == 1:
        parts = _draw_chunks(*jobs[0])
    else:
        from concurrent.futures import ThreadPoolExecutor  # here, to keep it out of import time

        with ThreadPoolExecutor(max_workers=workers) as pool:
            by_worker = [f.result() for f in [pool.submit(_draw_chunks, *job) for job in jobs]]
        parts = [by_worker[j % workers][j // workers] for j in range(len(sizes))]
    return sum(parts[1:], start=parts[0])


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
    names = axis_names(axes)
    moments = draw_axes(axes, n_shots, seed,
                        coefficient_matrix([sampled.plus, sampled.minus], axes))
    fluct_mean = moments.mean()
    cov = moments.covariance()
    axis_cov = moments.axis_covariance()
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
            # The estimate is (1/n) sum of x d / variance with x = c d + r:
            # its variance is (R / variance + 2 c^2) / n, R being the
            # variance of r, so the axis's own spread counts too.
            resid = max(v_emp - c * c * ax.variance, 0.0)
            se = math.sqrt(max(resid / ax.variance + 2.0 * c * c, 1e-30) / n_shots)
            findings.append(OracleFinding(row, f"coeff.{quad}", names[ax], (est - c) / se))
    return findings
