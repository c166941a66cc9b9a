"""Quality measures for reconstructed states: fidelity, signal transfer,
added noise and entanglement criteria.

A Gaussian output is fixed by its first and second moments, so every
reconstruction metric here is a closed form of one
:class:`~qss.protocols.ReconstructionReport`: the secret's means and the
output's gains g+- and variances V+-.

Each reconstruction metric is one numpy expression over floats or, for
a batch, arrays with one entry per row; its zero cases are ``np.where``
selections, so numpy's warnings for the discarded branches are off.

The conditional variance is reported in its coherent-secret form
V_out - g^2, not the optimal-estimator form V_in - cov^2 / V_out: only
the coherent-secret form reproduces the classical floor V >= 1/4 and
the general bound V >= |1 - g+ g-|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import MINUS, PLUS, QuadratureMode, any_true, covariance, variance
from .protocols import ReconstructionReport

# libm's exp, elementwise: numpy's own float64 exp, used on CPUs with
# AVX-512, differs from libm on some inputs, so results would vary by CPU.
# Mapping math.exp over a list is faster than np.frompyfunc(math.exp).
def _exp(x) -> np.ndarray:
    return np.fromiter(map(math.exp, np.ravel(x).tolist()), float, np.size(x)).reshape(np.shape(x))


@dataclass
class MetricsReport:
    """The measures of one delivered state; a sweep reads the gains and the
    classical bounds off the raw output instead."""

    fidelity: float
    t_plus: float
    t_minus: float
    signal_transfer: float
    v_cond_plus: float
    v_cond_minus: float
    added_noise: float


def fidelity(secret_means: tuple[float, float], g_plus: float, g_minus: float,
             v_out_plus: float, v_out_minus: float) -> float:
    """Gaussian overlap of a coherent secret with the reconstructed state.

    Returns 0 when the output carries no secret component at all: the
    overlap vanishes once averaged over unknown displacements.
    """
    if any_true(v_out_plus < 0.0) or any_true(v_out_minus < 0.0):
        raise ValueError("output variances must be >= 0")
    with np.errstate(all="ignore"):
        k_plus = secret_means[0] ** 2 * (1.0 - g_plus) ** 2 / (1.0 + v_out_plus)
        k_minus = secret_means[1] ** 2 * (1.0 - g_minus) ** 2 / (1.0 + v_out_minus)
        f = 2.0 * _exp(-(k_plus + k_minus) / 4.0) / np.sqrt((1.0 + v_out_plus) * (1.0 + v_out_minus))
    return np.where((g_plus == 0.0) & (g_minus == 0.0), 0.0, f)[()]


def signal_transfer(rep: ReconstructionReport) -> tuple[float, float, float]:
    """Quadrature SNR transfer coefficients T+ and T- and their sum.

    Defined via signal-to-noise ratios, so nonzero secret means are
    required, but the value itself is independent of their magnitude:
    T = g^2 V_in / V_out per quadrature, with V_in = 1 for the coherent
    secret.  A zero output variance carries no signal: T = 0.
    """
    if rep.secret.plus.mean == 0.0 or rep.secret.minus.mean == 0.0:
        raise ValueError("signal transfer is undefined for a zero secret mean")
    with np.errstate(all="ignore"):
        t_plus, t_minus = (np.where(v > 0.0, np.square(g) / v, 0.0)[()]
                           for g, v in ((rep.g_plus, rep.v_out_plus), (rep.g_minus, rep.v_out_minus)))
    return t_plus, t_minus, t_plus + t_minus


def conditional_variance(rep: ReconstructionReport, quadrature: str) -> float:
    """Reconstruction noise V_out - g^2 on one quadrature.  A zero output
    variance degenerates to zero added noise."""
    g, v_out = (rep.g_plus, rep.v_out_plus) if quadrature == PLUS else (rep.g_minus, rep.v_out_minus)
    return np.where(v_out > 0.0, v_out - np.square(g), 0.0)[()]


def duan_inseparability(epr1: QuadratureMode, epr2: QuadratureMode) -> float:
    """Geometric mean of the best sum/difference variances, normalised so
    two vacua sit exactly at the separability boundary 1."""
    best = []
    for a, b in ((epr1.plus, epr2.plus), (epr1.minus, epr2.minus)):
        va = variance(a)
        vb = variance(b)
        c = covariance(a, b)
        best.append(min(va + vb + 2 * c, va + vb - 2 * c) / 2.0)
    return math.sqrt(best[0] * best[1])


def fit_symmetric_epr_loss(target_duan: float, v_sq: float) -> float:
    """Efficiency eta, applied to both entangled beams, that reproduces a
    measured inseparability value (calibration fit, not ground truth).

    Such a loss gives the pair the Duan value d = eta V_sq + 1 - eta,
    whatever its anti-squeezing, so eta = (1 - d) / (1 - V_sq).
    """
    if not (0.0 < v_sq < 1.0 and v_sq <= target_duan <= 1.0):
        raise ValueError(f"target inseparability {target_duan} is outside the reachable range at V_sq = {v_sq}")
    return (1.0 - target_duan) / (1.0 - v_sq)


def reid_epr(epr1: QuadratureMode, epr2: QuadratureMode) -> float:
    """Product of conditional variances of one beam given the other."""
    prod = 1.0
    for a, b in ((epr1.plus, epr2.plus), (epr1.minus, epr2.minus)):
        va = variance(a)
        vb = variance(b)
        c = covariance(a, b)
        prod *= va - (c**2 / vb if vb > 0.0 else 0.0)
    return prod


def unity_corrected_fidelity(rep: ReconstructionReport) -> float:
    """Fidelity after correcting the output to unity gain.

    A noiseless squeezer first symmetrises the gains to g = sqrt(g+ g-)
    (after a pi phase shift when both are negative), scaling V+ by
    k = g-/g+ and V- by 1/k.  Minimal-noise amplification (g < 1) or
    attenuation (g > 1) then brings g to one, scaling each variance by
    1/g^2 and adding |1/g^2 - 1|.  Returns 0 when the gain product is
    not positive.  When k g+ g- = g-^2 underflows to 0, V-/(k g+ g-) is
    taken as its limit +inf, so the fidelity is its limit 0.
    """
    with np.errstate(all="ignore"):
        positive = rep.g_plus * rep.g_minus > 0.0
        g_p, g_m = (np.where(positive, g, 1.0)[()] for g in (rep.g_plus, rep.g_minus))
        gg = g_p * g_m
        k = g_m / g_p
        added = np.abs(1.0 / gg - 1.0)
        v_plus = k * rep.v_out_plus / gg + added
        v_minus = np.where(k * gg != 0.0, rep.v_out_minus / (k * gg) + added, np.inf)[()]
        f = 2.0 / np.sqrt((1.0 + v_plus) * (1.0 + v_minus))  # fidelity() at g = 1: its exponent is 0
    return np.where(positive, f, 0.0)[()]


def metrics_report(rep: ReconstructionReport) -> MetricsReport:
    """F/T/V report for one reconstructed (or adversary) state.  Its gains
    are ``rep``'s own, and :func:`~qss.protocols.classical_bounds` gives
    the classical limits at those gains."""
    f = fidelity((rep.secret.plus.mean, rep.secret.minus.mean), rep.g_plus, rep.g_minus,
                 rep.v_out_plus, rep.v_out_minus)
    t_p, t_m, _ = signal_transfer(rep)
    v_p = conditional_variance(rep, PLUS)
    v_m = conditional_variance(rep, MINUS)
    with np.errstate(all="ignore"):  # an overflow gives inf, as it does for floats
        return MetricsReport(
            fidelity=f,
            t_plus=t_p,
            t_minus=t_m,
            signal_transfer=t_p + t_m,
            v_cond_plus=v_p,
            v_cond_minus=v_m,
            added_noise=v_p * v_m,
        )
