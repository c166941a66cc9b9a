"""Quality measures for reconstructed states: fidelity, signal transfer,
added noise, entanglement criteria, and detector-efficiency inference.

Two conditional-variance conventions exist: the optimal-estimator form
V_in - cov^2 / V_out, and the coherent-secret form V_out - g^2.  Only
the coherent-secret form reproduces the classical floor V >= 1/4 and
the general bound V >= |1 - g+ g-|^2, so it is the reported product;
both forms are exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .components import epr_pair, loss, phase_insensitive_amp, phase_sensitive_amp, phase_shift
from .modes import MINUS, PLUS, QuadratureMode, covariance, new_squeezed, new_vacuum, variance
from .protocols import classical_bounds, secret_gains

COHERENT_TOL = 1e-9


@dataclass
class MetricsReport:
    fidelity: float
    g_plus: float
    g_minus: float
    gain_product: float
    t_plus: float
    t_minus: float
    signal_transfer: float
    v_cond_plus: float
    v_cond_minus: float
    added_noise: float
    f_classical_max: float
    t_classical_max: float
    v_classical_min: float

    @property
    def beats_classical_fidelity(self) -> bool:
        return self.fidelity > self.f_classical_max

    @property
    def beats_classical_tv(self) -> bool:
        return self.signal_transfer > self.t_classical_max or self.added_noise < self.v_classical_min


def _require_coherent(secret: QuadratureMode):
    for q in (PLUS, MINUS):
        if abs(variance(secret, q) - 1.0) > COHERENT_TOL:
            raise ValueError("fidelity is defined here for coherent (vacuum-statistics) secrets only")


def fidelity(secret_means: tuple[float, float], g_plus: float, g_minus: float,
             v_out_plus: float, v_out_minus: float) -> float:
    """Gaussian overlap of a coherent secret with the reconstructed state.

    Returns 0 when the output carries no secret component at all: the
    overlap vanishes once averaged over unknown displacements.
    """
    if v_out_plus < 0.0 or v_out_minus < 0.0:
        raise ValueError("output variances must be >= 0")
    if g_plus == 0.0 and g_minus == 0.0:
        return 0.0
    k_plus = secret_means[0] ** 2 * (1.0 - g_plus) ** 2 / (1.0 + v_out_plus)
    k_minus = secret_means[1] ** 2 * (1.0 - g_minus) ** 2 / (1.0 + v_out_minus)
    return 2.0 * math.exp(-(k_plus + k_minus) / 4.0) / math.sqrt((1.0 + v_out_plus) * (1.0 + v_out_minus))


def fidelity_modes(secret: QuadratureMode, output: QuadratureMode) -> float:
    _require_coherent(secret)
    g_p, g_m = secret_gains(secret, output)
    return fidelity(
        (secret.mean_plus, secret.mean_minus),
        g_p,
        g_m,
        variance(output, PLUS),
        variance(output, MINUS),
    )


def signal_transfer(secret: QuadratureMode, output: QuadratureMode) -> tuple[float, float, float]:
    """Quadrature SNR transfer coefficients T+ and T- and their sum.

    Defined via signal-to-noise ratios, so nonzero secret means are
    required, but the value itself is independent of their magnitude:
    T = g^2 V_in / V_out per quadrature.
    """
    if secret.mean_plus == 0.0 or secret.mean_minus == 0.0:
        raise ValueError("signal transfer is undefined for a zero secret mean")
    g_p, g_m = secret_gains(secret, output)
    t_plus = g_p**2 * variance(secret, PLUS) / variance(output, PLUS)
    t_minus = g_m**2 * variance(secret, MINUS) / variance(output, MINUS)
    return t_plus, t_minus, t_plus + t_minus


def conditional_variance(secret: QuadratureMode, output: QuadratureMode, quadrature: str,
                         form: str = "coherent") -> float:
    """Reconstruction noise on one quadrature.

    ``form="coherent"`` gives V_out - g^2 (the reported convention);
    ``form="optimal"`` gives the optimal-estimator V_in - cov^2/V_out.
    A zero output variance degenerates to zero added noise.
    """
    v_out = variance(output, quadrature)
    if form == "coherent":
        g = secret_gains(secret, output)[0 if quadrature == PLUS else 1]
        return v_out - g**2 if v_out > 0.0 else 0.0
    if form == "optimal":
        v_in = variance(secret, quadrature)
        if v_out <= 0.0:
            return v_in
        c = covariance(secret, quadrature, output, quadrature)
        return v_in - c**2 / v_out
    raise ValueError(f"unknown conditional-variance form {form!r}")


def additional_noise_product(secret: QuadratureMode, output: QuadratureMode, form: str = "coherent") -> float:
    return conditional_variance(secret, output, PLUS, form) * conditional_variance(secret, output, MINUS, form)


def duan_inseparability(epr1: QuadratureMode, epr2: QuadratureMode) -> float:
    """Geometric mean of the best sum/difference variances, normalised so
    two vacua sit exactly at the separability boundary 1."""
    best = []
    for q in (PLUS, MINUS):
        va = variance(epr1, q)
        vb = variance(epr2, q)
        c = covariance(epr1, q, epr2, q)
        best.append(min(va + vb + 2 * c, va + vb - 2 * c) / 2.0)
    return math.sqrt(best[0] * best[1])


def fit_symmetric_epr_loss(target_duan: float, v_sq: float, v_anti: float | None = None,
                           tol: float = 1e-6) -> float:
    """Efficiency eta, applied to both entangled beams, that reproduces a
    measured inseparability value (calibration fit, not ground truth)."""

    def duan_at(eta: float) -> float:
        s1 = new_squeezed(v_sq, v_anti, MINUS, "s1")
        s2 = new_squeezed(v_sq, v_anti, PLUS, "s2")
        e1, e2 = epr_pair(s1, s2)
        return duan_inseparability(loss(e1, eta), loss(e2, eta))

    lo, hi = 0.0, 1.0
    if not duan_at(0.0) >= target_duan >= duan_at(1.0):
        raise ValueError("target inseparability is outside the reachable range")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if duan_at(mid) > target_duan:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def reid_epr(epr1: QuadratureMode, epr2: QuadratureMode) -> float:
    """Product of conditional variances of one beam given the other."""
    prod = 1.0
    for q in (PLUS, MINUS):
        va = variance(epr1, q)
        vb = variance(epr2, q)
        c = covariance(epr1, q, epr2, q)
        prod *= va - (c**2 / vb if vb > 0.0 else 0.0)
    return prod


def infer_homodyne(measured_variance: float, eta_hom: float) -> float:
    """Invert detection loss: V = 1 + (V_measured - 1) / eta."""
    if not 0.0 < eta_hom <= 1.0:
        raise ValueError(f"homodyne efficiency must be in (0, 1], got {eta_hom}")
    return 1.0 + (measured_variance - 1.0) / eta_hom


def unity_corrected_fidelity(secret: QuadratureMode, output: QuadratureMode) -> float:
    """Fidelity after correcting the output to unity gain.

    Gains are first symmetrised by a noiseless squeezer, then brought to
    one by minimal-noise amplification (g < 1) or attenuation (g > 1).
    Returns 0 when the gain product is not positive.
    """
    _require_coherent(secret)
    g_p, g_m = secret_gains(secret, output)
    gg = g_p * g_m
    if gg <= 0.0:
        return 0.0
    if g_p < 0.0:
        # Both gains negative: undo the overall pi phase first.
        output = phase_shift(output, math.pi)
    mode = phase_sensitive_amp(output, g_m / g_p)
    g = math.sqrt(gg)
    if g < 1.0:
        mode = phase_insensitive_amp(mode, new_vacuum("corr_idler"), 1.0 / gg)
    elif g > 1.0:
        mode = loss(mode, 1.0 / gg, "corr_loss")
    return fidelity_modes(secret, mode)


def metrics_report(secret: QuadratureMode, output: QuadratureMode,
                   zero_secret_component_fidelity: float = 0.0) -> MetricsReport:
    """Full F/T/V report for one reconstructed (or adversary) state."""
    _require_coherent(secret)
    g_p, g_m = secret_gains(secret, output)
    f_max, t_max, v_min = classical_bounds(g_p, g_m)
    if g_p == 0.0 and g_m == 0.0:
        f = zero_secret_component_fidelity
        t_p = t_m = 0.0
    else:
        f = fidelity_modes(secret, output)
        t_p, t_m, _ = signal_transfer(secret, output)
    v_p = conditional_variance(secret, output, PLUS)
    v_m = conditional_variance(secret, output, MINUS)
    return MetricsReport(
        fidelity=f,
        g_plus=g_p,
        g_minus=g_m,
        gain_product=g_p * g_m,
        t_plus=t_p,
        t_minus=t_m,
        signal_transfer=t_p + t_m,
        v_cond_plus=v_p,
        v_cond_minus=v_m,
        added_noise=v_p * v_m,
        f_classical_max=f_max,
        t_classical_max=t_max,
        v_classical_min=v_min,
    )
