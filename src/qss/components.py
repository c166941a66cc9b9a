"""Gaussian optical elements and measurement / feed-forward primitives.

Sign convention for every beam splitter:

    c = sqrt(R) a + sqrt(1-R) b
    d = sqrt(1-R) a - sqrt(R) b

All interference phase choices are expressed through explicit
:func:`phase_shift` calls on the inputs, so noise-cancellation sign
errors stay testable.  An "x:y" splitter has reflectivity x/(x+y).

A knob may be a float or an array with one entry per row of a batch.
A guard on such a knob raises :class:`RowError`, which names the rows
that fail it and gives each the message it would raise alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import PLUS, LinearForm, QuadratureMode, any_true, classical_axis, combine, linear_combine, new_vacuum


class RowError(ValueError):
    """A guard failed on some rows: ``mask`` marks them (a bool for float
    knobs) and ``messages`` holds each one's message, in row order."""

    def __init__(self, mask, messages: list[str]):
        super().__init__(messages[0])
        self.mask = mask
        self.messages = messages


def reject(bad, message: str, *values):
    """Raise :class:`RowError` on the rows where ``bad`` holds, each with
    ``message.format(*values)`` at that row's values."""
    if any_true(bad):
        cols = [np.broadcast_to(v, np.shape(bad))[bad].tolist() for v in values]
        raise RowError(bad, [message.format(*(col[i] for col in cols)) for i in range(np.count_nonzero(bad))])


def _sqrt(x):
    """Square root of a float, or of an array elementwise; both correctly rounded."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


@dataclass(frozen=True)
class DetectorSpec:
    efficiency: float = 1.0
    dark_noise_variance: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"detector efficiency must be in (0, 1], got {self.efficiency}")
        if self.dark_noise_variance < 0.0:
            raise ValueError("dark noise variance must be >= 0")


IDEAL_DETECTOR = DetectorSpec()


def beam_splitter(a: QuadratureMode, b: QuadratureMode, reflectivity: float):
    reject(np.logical_not((0.0 <= reflectivity) & (reflectivity <= 1.0)),
           "reflectivity must be in [0, 1], got {}", reflectivity)
    r = _sqrt(reflectivity)
    t = _sqrt(1.0 - reflectivity)
    c = linear_combine([(r, r, a), (t, t, b)])
    d = linear_combine([(t, t, a), (-r, -r, b)])
    return c, d


def phase_shift(mode: QuadratureMode, phi: float) -> QuadratureMode:
    """Rotate the quadratures: X+' = cos(phi) X+ - sin(phi) X-."""
    mode.require_live()
    c, s = math.cos(phi), math.sin(phi)
    return QuadratureMode(combine([(c, mode.plus), (-s, mode.minus)]), combine([(s, mode.plus), (c, mode.minus)]))


def epr_pair(sqz1: QuadratureMode, sqz2: QuadratureMode):
    """Entangled pair from two squeezed beams on a 1:1 beam splitter.

    Canonical orientation: sqz1 squeezed on X-, sqz2 squeezed on X+.
    Other orientations are reachable by phase-shifting the inputs.
    """
    return beam_splitter(sqz1, sqz2, 0.5)


def phase_insensitive_amp(mode: QuadratureMode, idler: QuadratureMode, gain: float) -> QuadratureMode:
    """X+ -> sqrt(G) X+ - sqrt(G-1) X+_idler, X- -> sqrt(G) X- + sqrt(G-1) X-_idler."""
    reject(gain < 1.0, "phase-insensitive gain must be >= 1, got {}", gain)
    g = _sqrt(gain)
    h = _sqrt(gain - 1.0)
    return linear_combine([(g, g, mode), (-h, h, idler)])


def phase_sensitive_amp(mode: QuadratureMode, gain: float) -> QuadratureMode:
    """Noiseless amplification: X+ -> sqrt(G) X+, X- -> X-/sqrt(G)."""
    reject(gain <= 0.0, "phase-sensitive gain must be > 0, got {}", gain)
    g = _sqrt(gain)
    return linear_combine([(g, 1.0 / g, mode)])


def loss(mode: QuadratureMode, eta: float, label: str = "loss") -> QuadratureMode:
    """Beam-splitter model of loss: sqrt(eta) mode + sqrt(1-eta) vacuum."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must be in [0, 1], got {eta}")
    if eta == 1.0:
        mode.require_live()
        return mode
    out, _ = beam_splitter(mode, new_vacuum(label), eta)
    return out


def homodyne(mode: QuadratureMode, quadrature: str, det: DetectorSpec = IDEAL_DETECTOR) -> LinearForm:
    """Measure one quadrature; the mode is destroyed and may not be reused.

    Detector inefficiency admixes vacuum; dark noise enters as a
    classical axis on the photocurrent, not on any optical mode.
    """
    mode.require_live()
    mode.consumed = True
    eta = det.efficiency
    terms = [(_sqrt(eta), mode.quad(quadrature))]
    if eta < 1.0:
        terms.append((_sqrt(1.0 - eta), new_vacuum("hd_vac").quad(quadrature)))
    if det.dark_noise_variance > 0.0:
        terms.append((1.0, LinearForm(0.0, {classical_axis(det.dark_noise_variance, "dark"): 1.0})))
    return combine(terms)


def displace(target: QuadratureMode, quadrature: str, signal: LinearForm, gain: float) -> QuadratureMode:
    """Add ``gain * signal`` (mean and fluctuations) to one quadrature."""
    target.require_live()
    shifted = combine([(1.0, target.quad(quadrature)), (gain, signal)])
    return QuadratureMode(shifted, target.minus) if quadrature == PLUS else QuadratureMode(target.plus, shifted)


def _require_mirror(mirror_reflectivity: float):
    if not 0.0 < mirror_reflectivity < 1.0:
        raise ValueError(f"mirror reflectivity must be in (0, 1), got {mirror_reflectivity}")


def lo_displace(
    target: QuadratureMode,
    quadrature: str,
    signal: LinearForm,
    gain: float,
    mirror_reflectivity: float,
    aux_eta: float = 1.0,
) -> QuadratureMode:
    """Displacement via a modulated local oscillator on a highly
    reflective mirror.

    The target passes a beam splitter of reflectivity ``mirror_reflectivity``
    against an auxiliary vacuum carrying ``gain * signal`` on the chosen
    quadrature, so the carried state keeps amplitude sqrt(R) and picks up
    a 1-R vacuum admixture.  ``aux_eta`` models mode mismatch between the
    local oscillator and the target beam.
    """
    _require_mirror(mirror_reflectivity)
    aux = displace(new_vacuum("lo"), quadrature, signal, gain)
    if aux_eta < 1.0:
        aux = loss(aux, aux_eta, "lo_mm")
    out, _ = beam_splitter(target, aux, mirror_reflectivity)
    return out


def feed_forward(target: QuadratureMode, quadrature: str, signal: LinearForm, gain: float,
                 mirror_reflectivity: float | None = None, aux_eta: float = 1.0) -> QuadratureMode:
    """Feed ``gain * signal`` forward onto one quadrature of ``target``:
    an ideal :func:`displace`, or :func:`lo_displace` when a mirror is set."""
    if mirror_reflectivity is None:
        return displace(target, quadrature, signal, gain)
    return lo_displace(target, quadrature, signal, gain, mirror_reflectivity, aux_eta)


def feed_forward_scale(mirror_reflectivity: float | None = None, aux_eta: float = 1.0) -> tuple[float, float]:
    """The linear map of :func:`feed_forward` as ``(k_t, k_s)``: it takes a
    coefficient c of the target to ``k_t * c`` on both quadratures, plus
    ``gain * k_s * s`` on the fed one for a coefficient s of the signal."""
    if mirror_reflectivity is None:
        return 1.0, 1.0
    _require_mirror(mirror_reflectivity)
    return math.sqrt(mirror_reflectivity), math.sqrt((1.0 - mirror_reflectivity) * aux_eta)
