"""Linear Gaussian mode algebra over independent noise axes.

Every optical mode is represented by its two quadratures X+ (amplitude)
and X- (phase), each written as a mean plus a sparse linear combination
of independent zero-mean Gaussian noise axes.  The quantum noise limit
is normalised to 1: a vacuum quadrature has variance 1, and the
commutation relation between conjugate quadratures maps to a commutator
weight of exactly 1 (see :func:`commutator_weight`).

Quantum axes come in conjugate pairs, one per elementary mode; classical
axes (modulation noise, detector dark noise) stand alone and carry no
commutator weight.  All second moments are exact sums over shared axes;
:mod:`qss.oracle` checks them by sampling.

Coefficient dicts are keyed by the :class:`NoiseAxis` objects
themselves, which compare and hash by identity, so a mode's axes are
exactly its coefficient keys; an axis whose coefficients cancel leaves
no key.  A coefficient dict is never changed after it is built, so modes
and signals may share one.  The axis ``id`` only orders axes by
creation.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

TOL = 1e-12

PLUS = "plus"
MINUS = "minus"

_axis_ids = itertools.count()
_axis_lock = threading.Lock()


def _next_axis_id() -> int:
    with _axis_lock:
        return next(_axis_ids)


@dataclass(frozen=True, eq=False)
class NoiseAxis:
    """One independent scalar Gaussian fluctuation source, equal only to itself."""

    id: int  # creation order
    variance: float
    kind: str  # "quantum" or "classical"
    partner: int | None = None  # conjugate axis of the same elementary mode
    role: str | None = None  # "plus"/"minus" for quantum axes
    label: str = ""

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError(f"axis variance must be >= 0, got {self.variance}")
        if self.kind not in ("quantum", "classical"):
            raise ValueError(f"unknown axis kind {self.kind!r}")
        if self.kind == "quantum" and self.partner is None:
            raise ValueError("quantum axes must have a partner")
        if self.kind == "classical" and self.partner is not None:
            raise ValueError("classical axes have no partner")


def classical_axis(variance: float, label: str = "") -> NoiseAxis:
    return NoiseAxis(_next_axis_id(), variance, "classical", label=label)


def quantum_pair(v_plus: float, v_minus: float, label: str = "") -> tuple[NoiseAxis, NoiseAxis]:
    """Fresh conjugate axis pair for one elementary mode."""
    ip, im = _next_axis_id(), _next_axis_id()
    ax_p = NoiseAxis(ip, v_plus, "quantum", partner=im, role=PLUS, label=f"{label}.plus")
    ax_m = NoiseAxis(im, v_minus, "quantum", partner=ip, role=MINUS, label=f"{label}.minus")
    return ax_p, ax_m


@dataclass
class ClassicalSignal:
    """A measured photocurrent: linear functional of noise axes, no
    physicality constraint."""

    mean: float
    coeffs: dict[NoiseAxis, float]

    def scaled(self, k: float) -> "ClassicalSignal":
        return ClassicalSignal(k * self.mean, {ax: k * c for ax, c in self.coeffs.items()})


@dataclass
class QuadratureMode:
    """An optical mode: per-quadrature mean and sparse axis coefficients.

    Treated as immutable after construction; ``consumed`` is the one
    mutable flag, set when the mode is destroyed by a measurement.
    """

    mean_plus: float
    mean_minus: float
    coeff_plus: dict[NoiseAxis, float]
    coeff_minus: dict[NoiseAxis, float]
    consumed: bool = field(default=False, compare=False)

    def require_live(self):
        if self.consumed:
            raise ValueError("mode has already been measured and may not be reused")

    def mean(self, quadrature: str) -> float:
        return self.mean_plus if quadrature == PLUS else self.mean_minus

    def coeffs(self, quadrature: str) -> dict[NoiseAxis, float]:
        return self.coeff_plus if quadrature == PLUS else self.coeff_minus

    def signal(self, quadrature: str) -> ClassicalSignal:
        """The selected quadrature as a classical linear functional."""
        return ClassicalSignal(self.mean(quadrature), self.coeffs(quadrature))


def _accumulate(target: dict[NoiseAxis, float], coeffs: dict[NoiseAxis, float], k: float):
    """Add ``k * coeffs`` into ``target``, dropping keys that sum to zero."""
    if k == 0.0:
        return
    for ax, c in coeffs.items():
        v = target.get(ax, 0.0) + k * c
        if v == 0.0:
            target.pop(ax, None)
        else:
            target[ax] = v


def _creation_order(axes) -> list[NoiseAxis]:
    """``axes`` without repeats, oldest first."""
    return sorted(set(axes), key=lambda ax: ax.id)


def mode_axes(*modes: QuadratureMode) -> list[NoiseAxis]:
    """The axes of ``modes``, that is their coefficient keys, oldest first."""
    return _creation_order(ax for m in modes for ax in (*m.coeff_plus, *m.coeff_minus))


def new_vacuum(label: str = "vac") -> QuadratureMode:
    ax_p, ax_m = quantum_pair(1.0, 1.0, label)
    return QuadratureMode(0.0, 0.0, {ax_p: 1.0}, {ax_m: 1.0})


def new_squeezed(
    v_sq: float,
    v_anti: float | None = None,
    squeezed_quadrature: str = MINUS,
    label: str = "sqz",
) -> QuadratureMode:
    """Squeezed mode with variance ``v_sq`` < 1 on the chosen quadrature.

    ``v_anti`` defaults to the pure-state partner 1/v_sq; larger values
    model mixed states (excess noise on the anti-squeezed quadrature).
    """
    if not 0.0 < v_sq <= 1.0:
        raise ValueError(f"squeezed variance must be in (0, 1], got {v_sq}")
    if v_anti is None:
        v_anti = 1.0 / v_sq
    if v_sq * v_anti < 1.0 - TOL:
        raise ValueError(f"uncertainty product violated: {v_sq} * {v_anti} < 1")
    if squeezed_quadrature == MINUS:
        v_plus, v_minus = v_anti, v_sq
    elif squeezed_quadrature == PLUS:
        v_plus, v_minus = v_sq, v_anti
    else:
        raise ValueError(f"unknown quadrature {squeezed_quadrature!r}")
    ax_p, ax_m = quantum_pair(v_plus, v_minus, label)
    return QuadratureMode(0.0, 0.0, {ax_p: 1.0}, {ax_m: 1.0})


def new_coherent(mean_plus: float, mean_minus: float, label: str = "coh") -> QuadratureMode:
    mode = new_vacuum(label)
    return QuadratureMode(mean_plus, mean_minus, mode.coeff_plus, mode.coeff_minus)


def db_to_linear(db: float) -> float:
    """Variance in QNL units for a level quoted in dB relative to the QNL."""
    return 10.0 ** (db / 10.0)


def linear_combine(terms) -> QuadratureMode:
    """Linear combination of modes and/or classical signals.

    ``terms`` is an iterable of ``(c_plus, c_minus, obj)`` where ``obj``
    is a :class:`QuadratureMode` or :class:`ClassicalSignal`.  Signals
    contribute ``c_plus * signal`` to X+ and ``c_minus * signal`` to X-.
    """
    mean_p = mean_m = 0.0
    coeff_p: dict[NoiseAxis, float] = {}
    coeff_m: dict[NoiseAxis, float] = {}
    for c_plus, c_minus, obj in terms:
        if isinstance(obj, QuadratureMode):
            obj.require_live()
            mean_p += c_plus * obj.mean_plus
            mean_m += c_minus * obj.mean_minus
            _accumulate(coeff_p, obj.coeff_plus, c_plus)
            _accumulate(coeff_m, obj.coeff_minus, c_minus)
        else:
            mean_p += c_plus * obj.mean
            mean_m += c_minus * obj.mean
            _accumulate(coeff_p, obj.coeffs, c_plus)
            _accumulate(coeff_m, obj.coeffs, c_minus)
    return QuadratureMode(mean_p, mean_m, coeff_p, coeff_m)


def variance(mode: QuadratureMode, quadrature: str) -> float:
    return sum(v * v * ax.variance for ax, v in mode.coeffs(quadrature).items())


def covariance(mode_a: QuadratureMode, quad_a: str, mode_b: QuadratureMode, quad_b: str) -> float:
    ca, cb = mode_a.coeffs(quad_a), mode_b.coeffs(quad_b)
    if len(cb) < len(ca):
        ca, cb = cb, ca
    return sum(c * cb[ax] * ax.variance for ax, c in ca.items() if ax in cb)


def signal_variance(sig: ClassicalSignal) -> float:
    return sum(c * c * ax.variance for ax, c in sig.coeffs.items())


def commutator_weight(mode: QuadratureMode) -> float:
    """Sum over quantum pairs m of c+_{x_m} c-_{y_m} - c+_{y_m} c-_{x_m}.

    Equals 1 for any mode produced by a physical (symplectic) operation;
    classical axes contribute nothing.
    """
    cp, cm = mode.coeff_plus, mode.coeff_minus
    by_id = {ax.id: ax for ax in (*cp, *cm)}
    w = 0.0
    for ax in by_id.values():
        if ax.role == PLUS:
            y = by_id.get(ax.partner)
            w += cp.get(ax, 0.0) * cm.get(y, 0.0) - cp.get(y, 0.0) * cm.get(ax, 0.0)
    return w


def is_physical(mode: QuadratureMode, tol: float = TOL) -> bool:
    return abs(commutator_weight(mode) - 1.0) <= tol


def axis_names(axes) -> dict[NoiseAxis, str]:
    """A unique name per axis: its label, with ``#<k>`` appended when
    several of ``axes`` share the label, k being the axis's 1-based rank
    among them in creation order."""
    groups: dict[str, list[NoiseAxis]] = {}
    for ax in _creation_order(axes):
        groups.setdefault(ax.label, []).append(ax)
    return {ax: ax.label if len(groups[ax.label]) == 1 else f"{ax.label}#{groups[ax.label].index(ax) + 1}"
            for ax in axes}
