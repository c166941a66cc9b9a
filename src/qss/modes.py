"""Linear Gaussian mode algebra over independent noise axes.

One type, :class:`LinearForm`, holds every quantity of a build: a mean
plus a sparse linear combination of independent zero-mean Gaussian
noise axes.  An optical mode is a pair of forms, its quadratures X+
(amplitude) and X- (phase); a homodyne photocurrent is a single form.
The quantum noise limit is normalised to 1: a vacuum quadrature has
variance 1, and the commutation relation between conjugate quadratures
maps to a commutator of exactly 1 (see :func:`commutator`).

Quantum axes come in conjugate pairs, one per elementary mode; the X-
axis of a pair holds its X+ axis as ``partner``.  Classical axes
(modulation noise, detector dark noise) have no role and carry no
commutator weight.  All second moments are exact sums over shared axes;
:mod:`qss.oracle` checks them by sampling.

Coefficient dicts are keyed by the :class:`NoiseAxis` objects
themselves, which compare and hash by identity, so a form's axes are
exactly its coefficient keys; an axis whose coefficients cancel leaves
no key.  A coefficient dict is never changed after it is built, so
forms may share one.  Axes have no global id: they are ordered by first
appearance, X+ keys before X- keys, mode by mode (see :func:`mode_axes`),
so a build's axis order depends only on that build.

A batch of builds that differ only in their knobs is one build whose
means, coefficients and axis variances may be numpy arrays, one entry
per row.  Only a float coefficient that sums to zero is dropped, so a
row of a batch can keep zero terms that the row built alone drops, and
add its terms in another order; the two agree to a few ulp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TOL = 1e-12

PLUS = "plus"
MINUS = "minus"


def any_true(x) -> bool:
    """Whether any entry of ``x`` holds: ``bool(x)`` for a Python or numpy
    scalar, ``x.any()`` for an array.  A guard on a one-row build sees
    plain floats, where ``np.any`` would cost more than the guard."""
    return bool(x.any()) if isinstance(x, np.ndarray) else bool(x)


@dataclass(frozen=True, eq=False)
class NoiseAxis:
    """One independent scalar Gaussian fluctuation source, equal only to itself."""

    variance: float
    role: str | None = None  # "plus"/"minus" on a quantum axis, None on a classical one
    partner: NoiseAxis | None = None  # on an X- axis, the X+ axis of the same elementary mode
    label: str = ""

    def __post_init__(self):
        if any_true(self.variance < 0):
            raise ValueError(f"axis variance must be >= 0, got {self.variance}")
        if self.role not in (None, PLUS, MINUS):
            raise ValueError(f"unknown axis role {self.role!r}")
        if (self.role == MINUS) != (self.partner is not None and self.partner.role == PLUS):
            raise ValueError("an X- axis, and only an X- axis, has an X+ axis as partner")


def classical_axis(variance: float, label: str = "") -> NoiseAxis:
    return NoiseAxis(variance, label=label)


def quantum_pair(v_plus: float, v_minus: float, label: str = "") -> tuple[NoiseAxis, NoiseAxis]:
    """Fresh conjugate axis pair for one elementary mode."""
    ax_p = NoiseAxis(v_plus, PLUS, label=f"{label}.plus")
    return ax_p, NoiseAxis(v_minus, MINUS, ax_p, label=f"{label}.minus")


@dataclass(slots=True)
class LinearForm:
    """A quadrature or a photocurrent: ``mean`` plus the sum of each
    coefficient times its axis."""

    mean: float
    coeffs: dict[NoiseAxis, float]


@dataclass(slots=True)
class QuadratureMode:
    """An optical mode: one linear form per quadrature.

    Treated as immutable after construction; ``consumed`` is the one
    mutable flag, set when the mode is destroyed by a measurement.
    """

    plus: LinearForm
    minus: LinearForm
    consumed: bool = field(default=False, compare=False)

    def require_live(self):
        if self.consumed:
            raise ValueError("mode has already been measured and may not be reused")

    def quad(self, quadrature: str) -> LinearForm:
        return self.plus if quadrature == PLUS else self.minus


def _accumulate(target: dict[NoiseAxis, float], coeffs: dict[NoiseAxis, float], k: float):
    """Add ``k * coeffs`` into ``target``, dropping float keys that sum to zero."""
    if isinstance(k, float) and k == 0.0:
        return
    for ax, c in coeffs.items():
        v = target.get(ax, 0.0) + k * c
        if isinstance(v, float) and v == 0.0:
            target.pop(ax, None)
        else:
            target[ax] = v


def combine(terms) -> LinearForm:
    """The form sum of ``k * form`` over the ``(k, form)`` pairs of ``terms``."""
    mean = 0.0
    coeffs: dict[NoiseAxis, float] = {}
    for k, form in terms:
        mean += k * form.mean
        _accumulate(coeffs, form.coeffs, k)
    return LinearForm(mean, coeffs)


def mode_axes(*modes: QuadratureMode) -> list[NoiseAxis]:
    """The axes of ``modes``, that is their coefficient keys, in order of
    first appearance: X+ keys, then X- keys, of each mode in turn."""
    return list(dict.fromkeys(ax for m in modes for form in (m.plus, m.minus) for ax in form.coeffs))


def _mode(v_plus: float, v_minus: float, label: str, mean_plus: float = 0.0,
          mean_minus: float = 0.0) -> QuadratureMode:
    ax_p, ax_m = quantum_pair(v_plus, v_minus, label)
    return QuadratureMode(LinearForm(mean_plus, {ax_p: 1.0}), LinearForm(mean_minus, {ax_m: 1.0}))


def new_vacuum(label: str = "vac") -> QuadratureMode:
    return _mode(1.0, 1.0, label)


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
        return _mode(v_anti, v_sq, label)
    if squeezed_quadrature == PLUS:
        return _mode(v_sq, v_anti, label)
    raise ValueError(f"unknown quadrature {squeezed_quadrature!r}")


def new_coherent(mean_plus: float, mean_minus: float, label: str = "coh") -> QuadratureMode:
    return _mode(1.0, 1.0, label, mean_plus, mean_minus)


def db_to_linear(db: float) -> float:
    """Variance in QNL units for a level quoted in dB relative to the QNL."""
    return 10.0 ** (db / 10.0)


def linear_combine(terms) -> QuadratureMode:
    """Linear combination of modes: ``terms`` is a sequence of
    ``(c_plus, c_minus, mode)``, and each quadrature of the result is
    :func:`combine` of its coefficients times that quadrature of the modes."""
    for *_, mode in terms:
        mode.require_live()
    return QuadratureMode(combine((c_plus, mode.plus) for c_plus, _, mode in terms),
                          combine((c_minus, mode.minus) for _, c_minus, mode in terms))


# The sums below run left to right in an explicit loop: from Python 3.12
# on, sum() of floats is compensated, so a float row and an array row
# would round differently.
def variance(form: LinearForm) -> float:
    total = 0.0
    for ax, v in form.coeffs.items():
        total += v * v * ax.variance
    return total


def covariance(form_a: LinearForm, form_b: LinearForm) -> float:
    ca, cb = form_a.coeffs, form_b.coeffs
    if len(cb) < len(ca):
        ca, cb = cb, ca
    total = 0.0
    for ax, c in ca.items():
        if ax in cb:
            total += c * cb[ax] * ax.variance
    return total


def commutator(form_a: LinearForm, form_b: LinearForm) -> float:
    """[a, b] in QNL units: the sum over quantum pairs (x, y) of
    a_x b_y - a_y b_x.  [X+, X-] is 1 for every mode a symplectic
    operation produces, and 0 across distinct modes; classical axes
    contribute nothing."""
    ca, cb = form_a.coeffs, form_b.coeffs
    w = 0.0
    for y in dict.fromkeys((*ca, *cb)):
        x = y.partner
        if x is not None:
            w += ca.get(x, 0.0) * cb.get(y, 0.0) - ca.get(y, 0.0) * cb.get(x, 0.0)
    return w


def commutator_weight(mode: QuadratureMode) -> float:
    """[X+, X-] of one mode: 1 for any physical (symplectic) composition."""
    return commutator(mode.plus, mode.minus)


def axis_names(axes) -> dict[NoiseAxis, str]:
    """A unique name per axis: its label, with ``#<k>`` appended when
    several of ``axes`` share the label, k being the axis's 1-based rank
    among them in the order given."""
    groups: dict[str, list[NoiseAxis]] = {}
    for ax in axes:
        groups.setdefault(ax.label, []).append(ax)
    return {ax: ax.label if len(groups[ax.label]) == 1 else f"{ax.label}#{groups[ax.label].index(ax) + 1}"
            for ax in axes}
