"""Linear Gaussian mode algebra over independent noise axes.

Every optical mode is represented by its two quadratures X+ (amplitude)
and X- (phase), each written as a mean plus a sparse linear combination
of independent zero-mean Gaussian noise axes.  The quantum noise limit
is normalised to 1: a vacuum quadrature has variance 1, and the
commutation relation between conjugate quadratures maps to a commutator
weight of exactly 1 (see :func:`commutator_weight`).

Quantum axes come in conjugate pairs, one per elementary mode; classical
axes (modulation noise, detector dark noise) stand alone and carry no
commutator weight.  All second moments are exact sums over shared axes,
and :func:`monte_carlo_sample` provides an independent sampling oracle
for any composed network.

The oracle draws only the axes that add variance to a sampled
quantity, in chunks of ``CHUNK_SHOTS`` shots, each from its own child
of ``numpy.random.SeedSequence(seed)``; a chunk keeps only the moment
sums of its fluctuations (:class:`SampleMoments`), and a quantity's mean
is added after the sums, so a large mean does not cancel its variance.
Chunks run on one thread per usable CPU and are summed in chunk order,
so results are identical for any thread count.  A given seed yields
other draws than the dict-of-arrays sampler of qss 1.0, which drew
every axis, zero-weight ones included, from one generator.  From the
sums, ``harness.compare_mode_to_samples`` estimates each axis
coefficient c with the standard error √((R/σ² + 2c²)/n), R being the
rest of the quadrature's variance and σ² the axis's; the 2c² term is the
estimate's own spread, which qss 1.0 left out.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-12

PLUS = "plus"
MINUS = "minus"

_axis_ids = itertools.count()
_axis_lock = threading.Lock()


def _next_axis_id() -> int:
    with _axis_lock:
        return next(_axis_ids)


@dataclass(frozen=True)
class NoiseAxis:
    """One independent scalar Gaussian fluctuation source."""

    id: int
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
    coeffs: dict[int, float]
    axes: dict[int, NoiseAxis]

    def scaled(self, k: float) -> "ClassicalSignal":
        return ClassicalSignal(k * self.mean, {a: k * c for a, c in self.coeffs.items()}, dict(self.axes))


@dataclass
class QuadratureMode:
    """An optical mode: per-quadrature mean and sparse axis coefficients.

    Treated as immutable after construction; ``consumed`` is the one
    mutable flag, set when the mode is destroyed by a measurement.
    """

    mean_plus: float
    mean_minus: float
    coeff_plus: dict[int, float]
    coeff_minus: dict[int, float]
    axes: dict[int, NoiseAxis]
    consumed: bool = field(default=False, compare=False)

    def require_live(self):
        if self.consumed:
            raise ValueError("mode has already been measured and may not be reused")

    def mean(self, quadrature: str) -> float:
        return self.mean_plus if quadrature == PLUS else self.mean_minus

    def coeffs(self, quadrature: str) -> dict[int, float]:
        return self.coeff_plus if quadrature == PLUS else self.coeff_minus

    def signal(self, quadrature: str) -> ClassicalSignal:
        """The selected quadrature as a classical linear functional."""
        return ClassicalSignal(self.mean(quadrature), dict(self.coeffs(quadrature)), dict(self.axes))


def _merge_axes(parts) -> dict[int, NoiseAxis]:
    merged: dict[int, NoiseAxis] = {}
    for p in parts:
        merged.update(p.axes)
    return merged


def _accumulate(target: dict[int, float], coeffs: dict[int, float], k: float):
    if k == 0.0:
        return
    for aid, c in coeffs.items():
        v = target.get(aid, 0.0) + k * c
        if v == 0.0:
            target.pop(aid, None)
        else:
            target[aid] = v


def new_vacuum(label: str = "vac") -> QuadratureMode:
    ax_p, ax_m = quantum_pair(1.0, 1.0, label)
    return QuadratureMode(0.0, 0.0, {ax_p.id: 1.0}, {ax_m.id: 1.0}, {ax_p.id: ax_p, ax_m.id: ax_m})


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
    return QuadratureMode(0.0, 0.0, {ax_p.id: 1.0}, {ax_m.id: 1.0}, {ax_p.id: ax_p, ax_m.id: ax_m})


def new_coherent(mean_plus: float, mean_minus: float, label: str = "coh") -> QuadratureMode:
    mode = new_vacuum(label)
    return QuadratureMode(mean_plus, mean_minus, mode.coeff_plus, mode.coeff_minus, mode.axes)


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
    coeff_p: dict[int, float] = {}
    coeff_m: dict[int, float] = {}
    axes: dict[int, NoiseAxis] = {}
    for c_plus, c_minus, obj in terms:
        axes.update(obj.axes)
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
    return QuadratureMode(mean_p, mean_m, coeff_p, coeff_m, axes)


def variance(mode: QuadratureMode, quadrature: str) -> float:
    c = mode.coeffs(quadrature)
    return sum(v * v * mode.axes[aid].variance for aid, v in c.items())


def covariance(mode_a: QuadratureMode, quad_a: str, mode_b: QuadratureMode, quad_b: str) -> float:
    ca, cb = mode_a.coeffs(quad_a), mode_b.coeffs(quad_b)
    if len(cb) < len(ca):
        ca, cb = cb, ca
        axes = mode_b.axes
    else:
        axes = mode_a.axes
    return sum(c * cb[aid] * axes[aid].variance for aid, c in ca.items() if aid in cb)


def signal_variance(sig: ClassicalSignal) -> float:
    return sum(c * c * sig.axes[aid].variance for aid, c in sig.coeffs.items())


def commutator_weight(mode: QuadratureMode) -> float:
    """Sum over quantum pairs m of c+_{x_m} c-_{y_m} - c+_{y_m} c-_{x_m}.

    Equals 1 for any mode produced by a physical (symplectic) operation;
    classical axes contribute nothing.
    """
    cp, cm = mode.coeff_plus, mode.coeff_minus
    w = 0.0
    for aid, ax in mode.axes.items():
        if ax.kind == "quantum" and ax.role == PLUS:
            y = ax.partner
            w += cp.get(aid, 0.0) * cm.get(y, 0.0) - cp.get(y, 0.0) * cm.get(aid, 0.0)
    return w


def is_physical(mode: QuadratureMode, tol: float = TOL) -> bool:
    return abs(commutator_weight(mode) - 1.0) <= tol


# ---------------------------------------------------------------------------
# Monte Carlo sampling oracle

CHUNK_SHOTS = 1 << 16


def weighted_axes(modes) -> list[NoiseAxis]:
    """Axes, in id order, that add variance to either quadrature of any
    of ``modes``: a nonzero coefficient on an axis of nonzero variance."""
    found: dict[int, NoiseAxis] = {}
    for mode in modes:
        for coeffs in (mode.coeff_plus, mode.coeff_minus):
            for aid, c in coeffs.items():
                ax = mode.axes[aid]
                if c != 0.0 and ax.variance != 0.0:
                    found[aid] = ax
    return [found[aid] for aid in sorted(found)]


def axis_names(axes) -> dict[int, str]:
    """A unique name per axis: its label, with ``#<id>`` appended when
    another of ``axes`` has the same label."""
    labels = [ax.label or str(ax.id) for ax in axes]
    return {ax.id: f"{lab}#{ax.id}" if labels.count(lab) > 1 else lab for ax, lab in zip(axes, labels)}


def coefficient_matrix(rows, axes) -> np.ndarray:
    """``(len(rows), len(axes))`` array of each coefficient dict in
    ``rows`` on each axis."""
    return np.array([[coeffs.get(ax.id, 0.0) for ax in axes] for coeffs in rows])


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
class SampleStats:
    """Empirical moments (with standard errors) of a set of quadratures."""

    n_shots: int
    labels: list[str]
    means: np.ndarray
    mean_se: np.ndarray
    variances: np.ndarray
    variance_se: np.ndarray
    covariances: np.ndarray  # full symmetric matrix
    covariance_se: np.ndarray

    def index(self, label: str) -> int:
        return self.labels.index(label)


def monte_carlo_sample(modes, n_shots: int, seed: int = 0) -> SampleStats:
    """Sample every listed quadrature and return empirical statistics.

    ``modes`` is a list of ``(label, mode, quadrature)`` triples, or
    bare modes (both quadratures are then sampled with labels
    ``m{i}.plus`` / ``m{i}.minus``).
    """
    entries = []
    for i, item in enumerate(modes):
        if isinstance(item, tuple):
            entries.append(item)
        else:
            entries.append((f"m{i}.plus", item, PLUS))
            entries.append((f"m{i}.minus", item, MINUS))
    axes = weighted_axes([m for _, m, _ in entries])
    moments = draw_axes(axes, n_shots, seed, coefficient_matrix([m.coeffs(q) for _, m, q in entries], axes))
    means = np.array([m.mean(q) for _, m, q in entries]) + moments.mean()
    cov = moments.covariance()
    var = np.diag(cov).copy()
    denom = max(n_shots - 1, 1)
    mean_se = np.sqrt(var / n_shots)
    var_se = var * math.sqrt(2.0 / denom)
    cov_se = np.sqrt((np.outer(var, var) + cov**2) / denom)
    return SampleStats(n_shots, [e[0] for e in entries], means, mean_se, var, var_se, cov, cov_se)
