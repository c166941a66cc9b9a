"""Config-driven sweeps: assemble dealer + protocol pipelines, scan
parameter grids, compare against the classical bounds, regenerate the
figure data as CSV/JSON, and cross-check the analytic moments of
selected rows against the Monte Carlo oracle of :mod:`qss.oracle`.

Each protocol is built by one entry of a ``{name: builder}`` table; the
``summary`` protocol has none and is dispatched in :func:`run`.

Every build goes through :func:`_build`: one dealer and one protocol
build, with reflectivity, gain and v_n as arrays of the grid's rows
(floats for one row).  Rows a guard rejects fail with the message each
would give alone, and the rest are built again.  A sweep builds all its
rows at once, and its results stay columns (:class:`RunResult`) through
output: the CSV is formatted column by column and the JSON rows are
written by the C encoder.  The oracle check builds each row it samples
alone, on floats, over one dealer per distinct v_n of those rows.

Configs are flat dotted-key text files (``dealer.v_sq_db = -4.5``) or
JSON objects with the same keys.  Identical config + seed produces a
byte-identical CSV.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from .components import DetectorSpec, RowError
from .modes import QuadratureMode, db_to_linear, new_coherent
from .oracle import ORACLE_Z_LIMIT, OracleFinding, compare_mode_to_samples
from .protocols import (
    DEFAULT_SECRET_MEANS,
    DOUBLE_FF_REFLECTIVITY,
    SINGLE_FF_REFLECTIVITY,
    UNITY_DOUBLE_FF_GAIN,
    UNITY_PIA_GAIN,
    UNITY_SINGLE_FF_GAIN,
    UNITY_TWO_OPA_GAIN,
    DealerConfig,
    ShareSet,
    classical_avg_fidelity,
    dealer_encode,
    classical_bounds,
    make_report,
    parametric_correction,
    reconstruct_double_ff,
    reconstruct_mz,
    reconstruct_pia,
    reconstruct_single_ff,
    reconstruct_two_opa,
)

BOUND_TOL = 1e-9
OUT_DIR_ENV = "QSS_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_ORACLE_FAILURE = 3
EXIT_BOUND_VIOLATION = 4

CSV_COLUMNS = [
    "protocol",
    "reflectivity",
    "gain",
    "v_n",
    "g_plus",
    "g_minus",
    "gain_product",
    "fidelity",
    "fidelity_unity",
    "t_plus",
    "t_minus",
    "signal_transfer",
    "v_cond_plus",
    "v_cond_minus",
    "added_noise",
    "f_classical_max",
    "t_classical_max",
    "v_classical_min",
    "oracle_max_z",
]


class ConfigError(ValueError):
    pass


@dataclass
class SweepAxis:
    start: float
    stop: float
    steps: int = 41

    def values(self) -> list[float]:
        if self.steps < 1:
            raise ConfigError("sweep steps must be >= 1")
        return list(np.linspace(self.start, self.stop, self.steps))


@dataclass
class ExperimentConfig:
    protocol: str = "single_ff"
    player: int = 2  # which of shares 1/2 joins share 3

    # dealer
    v_sq: float = 1.0
    v_anti: float | None = None
    v_n: float = 0.0
    eta_epr1_in: float = 1.0
    secret_mean_plus: float = DEFAULT_SECRET_MEANS[0]
    secret_mean_minus: float = DEFAULT_SECRET_MEANS[1]

    # protocol parameters
    reflectivity: float | None = None
    gain: float | None = None
    unity_gain: bool = False
    eta_mz: float = 1.0
    eta_recon_bs: float = 1.0
    eta_lo: float = 1.0
    eta_ff: float = 1.0
    dark_noise: float = 0.0
    mirror_r: float | None = None

    # sweeps
    sweep_gain: SweepAxis | None = None
    sweep_reflectivity: SweepAxis | None = None
    sweep_v_n: SweepAxis | None = None

    # oracle
    shots: int = 1_000_000
    seed: int = 12345
    oracle_rows: int = 3

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.player not in (1, 2):
            raise ConfigError("player must be 1 or 2")
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.oracle_rows < 1:
            raise ConfigError(f"oracle rows must be >= 1, got {self.oracle_rows}")
        for key, eta in (("dealer.eta_epr1_in", self.eta_epr1_in), ("efficiencies.mz", self.eta_mz),
                         ("efficiencies.recon_bs", self.eta_recon_bs), ("efficiencies.lo", self.eta_lo),
                         ("detector.eta_ff", self.eta_ff)):
            if not 0.0 < eta <= 1.0:
                raise ConfigError(f"{key} must be in (0, 1], got {eta}")
        v_n_range = (self.sweep_v_n.start, self.sweep_v_n.stop) if self.sweep_v_n else ()
        v_n_low = min((self.v_n, *v_n_range))
        if not v_n_low >= 0.0:
            raise ConfigError(f"classical noise variance must be >= 0, got {v_n_low}")
        if self.secret_mean_plus == 0.0 or self.secret_mean_minus == 0.0:
            raise ConfigError("secret means must be nonzero: signal transfer is undefined for a zero mean")

    def detector(self) -> DetectorSpec:
        return DetectorSpec(self.eta_ff, self.dark_noise)

    def dealer(self, v_n: float) -> DealerConfig:
        return DealerConfig(
            v_sq=self.v_sq,
            v_anti=self.v_anti,
            v_n=v_n,
            eta_epr1_in=self.eta_epr1_in,
            secret=new_coherent(self.secret_mean_plus, self.secret_mean_minus, "secret"),
        )

    def is_classical(self) -> bool:
        v_anti = self.v_anti if self.v_anti is not None else 1.0 / self.v_sq
        return self.v_sq == 1.0 and v_anti == 1.0


# -- config parsing ----------------------------------------------------------

_DB_PAIRS = {
    "dealer.v_sq": "dealer.v_sq_db",
    "dealer.v_anti": "dealer.v_anti_db",
    "dealer.v_n": "dealer.v_n_db",
    "detector.dark_noise": "detector.dark_noise_db",
}


def _boolean(value) -> bool:
    """A JSON bool, or ``true``/``false`` in any case."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise ConfigError(f"expected true or false, got {value!r}")


def _integer(value) -> int:
    """An int, or a float of integral value such as ``1e6``; not a bool."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"expected an integer, got {value!r}")


def _finite(value) -> float:
    """A float that is neither NaN nor infinite; not a bool."""
    if isinstance(value, bool):
        raise ConfigError(f"expected a number, got {value!r}")
    if math.isfinite(number := float(value)):
        return number
    raise ConfigError(f"expected a finite number, got {value!r}")


def _cast(key: str, caster, value):
    """``caster(value)``, naming ``key`` in a :class:`ConfigError`."""
    try:
        return caster(value)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


_SCALAR_KEYS = {
    "protocol.name": ("protocol", str),
    "protocol.player": ("player", _integer),
    "protocol.reflectivity": ("reflectivity", _finite),
    "protocol.gain": ("gain", _finite),
    "protocol.unity_gain": ("unity_gain", _boolean),
    "protocol.mirror_r": ("mirror_r", _finite),
    "dealer.v_sq": ("v_sq", _finite),
    "dealer.v_anti": ("v_anti", _finite),
    "dealer.v_n": ("v_n", _finite),
    "dealer.eta_epr1_in": ("eta_epr1_in", _finite),
    "secret.mean_plus": ("secret_mean_plus", _finite),
    "secret.mean_minus": ("secret_mean_minus", _finite),
    "efficiencies.mz": ("eta_mz", _finite),
    "efficiencies.recon_bs": ("eta_recon_bs", _finite),
    "efficiencies.lo": ("eta_lo", _finite),
    "detector.eta_ff": ("eta_ff", _finite),
    "detector.dark_noise": ("dark_noise", _finite),
    "oracle.shots": ("shots", _integer),
    "oracle.seed": ("seed", _integer),
    "oracle.rows": ("oracle_rows", _integer),
}


def _decibels(value) -> float:
    """The linear value of a finite level in dB, which must not overflow."""
    try:
        return db_to_linear(_finite(value))
    except OverflowError:
        raise ConfigError(f"a level of {value!r} dB overflows") from None


# A dB twin sets the field of its linear key from a level in dB.
_SCALAR_KEYS.update({db: (_SCALAR_KEYS[key][0], _decibels) for key, db in _DB_PAIRS.items()})

_SWEEP_KEYS = {"sweep.gain": "sweep_gain", "sweep.reflectivity": "sweep_reflectivity", "sweep.v_n": "sweep_v_n"}


def _coerce(raw: str):
    s = raw.strip()
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; ``#`` comments; blank lines ignored."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = _coerce(value)
    return out


def load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return json.loads(text) if text.lstrip().startswith("{") else parse_config_text(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    kwargs: dict = {}
    sweeps: dict[str, dict] = {}
    for linear_key, db_key in _DB_PAIRS.items():
        if linear_key in mapping and db_key in mapping:
            raise ConfigError(f"{linear_key} and {db_key} are mutually exclusive")
    for key, value in mapping.items():
        if key in _SCALAR_KEYS:
            attr, caster = _SCALAR_KEYS[key]
            kwargs[attr] = _cast(key, caster, value)
            continue
        parts = key.rsplit(".", 1)
        if len(parts) == 2 and parts[0] in _SWEEP_KEYS and parts[1] in ("start", "stop", "steps"):
            sweeps.setdefault(parts[0], {})[parts[1]] = _cast(key, _integer if parts[1] == "steps" else _finite, value)
            continue
        raise ConfigError(f"unknown config key {key!r}")
    for sweep_key, fields in sweeps.items():
        if "start" not in fields or "stop" not in fields:
            raise ConfigError(f"{sweep_key} needs start and stop")
        kwargs[_SWEEP_KEYS[sweep_key]] = SweepAxis(**fields)
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# -- pipeline assembly -------------------------------------------------------


# The gain knob of each protocol that has one; mz and the adversary views
# have none, and their rows show gain 0.
_DEFAULT_GAIN = {
    "pia": UNITY_PIA_GAIN,
    "two_opa": UNITY_TWO_OPA_GAIN,
    "single_ff": UNITY_SINGLE_FF_GAIN,
    "double_ff": UNITY_DOUBLE_FF_GAIN,
}


def _knobs(cfg: ExperimentConfig) -> tuple[float, float, float]:
    """Reflectivity, gain and classical noise of an unswept run: each the
    config's, else the protocol's default."""
    reflectivity = cfg.reflectivity if cfg.reflectivity is not None else (
        DOUBLE_FF_REFLECTIVITY if cfg.protocol == "double_ff" else SINGLE_FF_REFLECTIVITY)
    gain = cfg.gain if cfg.gain is not None else _DEFAULT_GAIN.get(cfg.protocol, 0.0)
    return reflectivity, gain, cfg.v_n


def _build_single_ff(cfg: ExperimentConfig, shares, share_a, r: float, g: float):
    out = reconstruct_single_ff(share_a, shares.share3, r, None if cfg.unity_gain else g, det=cfg.detector(),
                                mirror_reflectivity=cfg.mirror_r, eta_bs=cfg.eta_recon_bs, eta_lo=cfg.eta_lo,
                                secret=shares.secret)
    return out, parametric_correction(out)


def _uncorrected(out: QuadratureMode):
    return out, out


# One builder per protocol: (cfg, shares, share_a, r, g) -> (raw, corrected).
_BUILDERS = {
    "mz": lambda cfg, shares, share_a, r, g: _uncorrected(
        reconstruct_mz(shares.share1, shares.share2, cfg.eta_mz)),
    "pia": lambda cfg, shares, share_a, r, g: _uncorrected(
        reconstruct_pia(share_a, shares.share3, g)),
    "two_opa": lambda cfg, shares, share_a, r, g: _uncorrected(
        reconstruct_two_opa(share_a, shares.share3, g)),
    "single_ff": _build_single_ff,
    "double_ff": lambda cfg, shares, share_a, r, g: _uncorrected(reconstruct_double_ff(
        share_a, shares.share3, shares.secret, r, g, det=cfg.detector(), mirror_reflectivity=cfg.mirror_r)),
    "adversary_1": lambda cfg, shares, share_a, r, g: _uncorrected(shares.share1),
    "adversary_3": lambda cfg, shares, share_a, r, g: _uncorrected(shares.share3),
}

PROTOCOLS = (*_BUILDERS, "summary")


def _build(cfg: ExperimentConfig, r: np.ndarray, g: np.ndarray, n: np.ndarray, shares: ShareSet | None = None):
    """One dealer and one protocol build over the rows at knobs ``r``,
    ``g``, ``n`` (float64 columns; a one-row build runs on floats).
    ``shares``, if given, is the dealer already encoded at ``n``; it is
    not used once some rows have failed.

    Returns the indices of the rows built, the secret, the raw and the
    corrected outputs (all None if no row is built), and the reason of
    each failed row.  A guard fails its own rows, each with the message
    it would give alone, and the rest are built again; any other
    ``ValueError`` fails every remaining row.
    """
    size = len(r)
    errors: dict[int, str] = {}
    live = np.arange(size)
    while live.size:
        r_live, g_live, n_live = (k[live] if size > 1 else float(k[0]) for k in (r, g, n))
        if shares is None or live.size < size:
            shares = dealer_encode(cfg.dealer(n_live))
        try:
            raw, corrected = _BUILDERS[cfg.protocol](cfg, shares, shares.share(cfg.player), r_live, g_live)
        except ValueError as exc:
            failure = exc if isinstance(exc, RowError) else RowError(True, [str(exc)] * live.size)
            mask = np.broadcast_to(failure.mask, live.shape)
            errors.update(zip(live[mask].tolist(), failure.messages))
            live = live[~mask]
            continue
        return live, shares.secret, raw, corrected, errors
    return live, None, None, None, errors


# -- sweeps ------------------------------------------------------------------


@dataclass
class RunResult:
    """A sweep's output as columns: ``data`` holds one array per CSV
    column, with one entry per row, and ``errors`` the reason of each
    failed row, by row index.  ``protocol``, and ``oracle_max_z`` when no
    row was sampled, are read-only views of one value, not copies."""

    columns: list[str]
    data: dict[str, np.ndarray]
    summary: dict
    errors: dict[int, str] = field(default_factory=dict)

    @property
    def rows(self) -> Rows:
        return Rows(self)


class Rows(Sequence):
    """The rows of a :class:`RunResult`, read-only.  Each row is made on
    access: a dict of its cells, plus ``error`` on a failed row."""

    def __init__(self, result: RunResult):
        self._result = result

    def __len__(self) -> int:
        return len(self._result.data[self._result.columns[0]])

    def __getitem__(self, i: int) -> dict:
        i = range(len(self))[i]
        return self._row(i, [self._result.data[c].item(i) for c in self._result.columns])

    def __iter__(self):
        cells = zip(*(self._result.data[c].tolist() for c in self._result.columns))
        return (self._row(i, values) for i, values in enumerate(cells))

    def _row(self, i: int, values) -> dict:
        row = dict(zip(self._result.columns, values))
        if i in self._result.errors:
            row["error"] = self._result.errors[i]
        return row


def _beyond_bounds(data: dict[str, np.ndarray]) -> np.ndarray:
    """Which rows exceed a classical bound; a failed row (NaN) never does."""
    f, f_max, t, t_max, v, v_min = (np.asarray(data[c], dtype=float) for c in (
        "fidelity_unity", "f_classical_max", "signal_transfer", "t_classical_max", "added_noise", "v_classical_min"))
    return (f > f_max + BOUND_TOL) | (t > t_max + BOUND_TOL) | (v < v_min - BOUND_TOL)


def _grid(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reflectivity, gain and v_n of each grid row (r outermost, v_n
    innermost), as float64 columns; an unswept knob holds its default."""
    axes = (cfg.sweep_reflectivity, cfg.sweep_gain, cfg.sweep_v_n)
    values = [axis.values() if axis else [knob] for axis, knob in zip(axes, _knobs(cfg))]
    return tuple(np.array(k, dtype=float).ravel() for k in np.meshgrid(*values, indexing="ij"))


# Fidelity and conditional variances refer to the delivered (corrected)
# state; gains and the classical bounds refer to the raw protocol output,
# since the per-quadrature transfer bound assumes no local squeezing after
# reconstruction (T itself is invariant under the correction, so the
# comparison stays consistent).
_DELIVERED_COLUMNS = ("fidelity", "t_plus", "t_minus", "signal_transfer", "v_cond_plus", "v_cond_minus", "added_noise")


def _sweep(cfg: ExperimentConfig, r: np.ndarray, g: np.ndarray, n: np.ndarray):
    """The CSV columns of the rows at knobs ``r``, ``g``, ``n`` and the
    reason of each failed row (see :func:`_build`)."""
    size = len(r)
    data = {c: np.full(size, np.nan) for c in CSV_COLUMNS}
    data.update(protocol=np.broadcast_to(np.array(cfg.protocol), size), reflectivity=r, gain=g, v_n=n,
                oracle_max_z=np.broadcast_to(np.array(None), size))
    live, secret, raw, corrected, errors = _build(cfg, r, g, n)
    if live.size:
        raw_rep = make_report(secret, raw)
        rep = metrics.metrics_report(raw_rep if corrected is raw else make_report(secret, corrected))
        f_max, t_max, v_min = classical_bounds(raw_rep.g_plus, raw_rep.g_minus)
        cells = {"g_plus": raw_rep.g_plus, "g_minus": raw_rep.g_minus, "gain_product": raw_rep.gain_product,
                 "fidelity_unity": metrics.unity_corrected_fidelity(raw_rep),
                 "f_classical_max": f_max, "t_classical_max": t_max, "v_classical_min": v_min}
        cells.update((c, getattr(rep, c)) for c in _DELIVERED_COLUMNS)
        for c, values in cells.items():
            data[c][live] = values
    return data, errors


def run(cfg: ExperimentConfig, with_oracle: bool = False) -> RunResult:
    """Evaluate the full sweep grid; deterministic for a fixed config."""
    row_z = oracle_check(cfg).row_z if with_oracle else {}
    if cfg.protocol == "summary":
        return _summary_run(cfg)
    data, errors = _sweep(cfg, *_grid(cfg))
    if row_z:
        data["oracle_max_z"] = np.array([row_z.get(i) for i in range(len(data["protocol"]))], dtype=object)
    good = np.ones(len(data["protocol"]), bool)
    good[list(errors)] = False
    summary = {
        "rows": good.size,
        "failed_rows": len(errors),
        "bound_violations": int(_beyond_bounds(data).sum()),
        "classical_mode": cfg.is_classical(),
    }
    if good.any():
        col = {c: data[c][good] for c in ("fidelity", "gain_product", "fidelity_unity", "signal_transfer",
                                           "added_noise")}
        best_f = np.argmax(col["fidelity"])
        summary.update(
            best_fidelity=col["fidelity"].item(best_f),
            best_fidelity_gain_product=col["gain_product"].item(best_f),
            best_unity_fidelity=col["fidelity_unity"].max().item(),
            best_signal_transfer=col["signal_transfer"].max().item(),
            min_added_noise=col["added_noise"].min().item(),
        )
    return RunResult(CSV_COLUMNS, data, summary, errors)


def _summary_run(cfg: ExperimentConfig) -> RunResult:
    """F/T/V for each authorised group plus the permutation average
    F_avg = (F_12 + 2 F_23) / 3.

    Fidelities are quoted at unity gain; T and V are the best values over
    a feed-forward gain sweep, matching how the measured "best signal
    transfer" and "lowest additional noise" are reported.
    """
    mz_cfg = replace(cfg, protocol="mz", sweep_gain=None, sweep_reflectivity=None, sweep_v_n=None)
    ff_cfg = replace(cfg, protocol="single_ff", unity_gain=True,
                     sweep_gain=None, sweep_reflectivity=None, sweep_v_n=None)
    sweep_cfg = replace(ff_cfg, unity_gain=False, sweep_gain=SweepAxis(0.0, 40.0, 201))
    (mz, mz_errors), (ff, ff_errors), (sweep, _) = (_sweep(c, *_grid(c)) for c in (mz_cfg, ff_cfg, sweep_cfg))
    f12, f23 = mz["fidelity"].item(0), ff["fidelity"].item(0)
    f_avg = (f12 + 2.0 * f23) / 3.0
    f_classical = classical_avg_fidelity(2, 3)
    data = {c: np.array([mz[c].item(0), ff[c].item(0), None], dtype=object) for c in CSV_COLUMNS}
    data["protocol"][2], data["fidelity"][2] = "average", f_avg
    errors = {i: e for i, row_errors in enumerate((mz_errors, ff_errors)) for e in row_errors.values()}
    summary = {
        "rows": 3,
        "failed_rows": len(errors),
        "bound_violations": 0,
        "classical_mode": cfg.is_classical(),
        "f_12": f12,
        "f_23": f23,
        "t_12": mz["signal_transfer"].item(0),
        "v_12": mz["added_noise"].item(0),
        "t_23_best": sweep["signal_transfer"].max().item(),
        "v_23_best": sweep["added_noise"].min().item(),
        "t_23_unity": ff["signal_transfer"].item(0),
        "v_23_unity": ff["added_noise"].item(0),
        "f_avg": f_avg,
        "classical_f_avg_limit": f_classical,
        "beats_classical_average": f_avg > f_classical,
    }
    return RunResult(CSV_COLUMNS, data, summary, errors)


# -- accessible region -------------------------------------------------------


def pareto_frontier(t: np.ndarray, v: np.ndarray) -> list[tuple[float, float]]:
    """Non-dominated (max T, min V) subset of the points (t[i], v[i]),
    sorted by T; ties keep the lower V, then the earlier point.  Points
    with a non-finite coordinate are skipped."""
    finite = np.isfinite(t) & np.isfinite(v)
    t, v = t[finite], v[finite]
    order = np.lexsort((v, -t))
    t, v = t[order], v[order]
    # Highest T first: a point is kept when its V is below every V before it.
    keep = np.ones(v.size, bool)
    keep[1:] = v[1:] < np.minimum.accumulate(v)[:-1]
    return list(zip(t[keep][::-1].tolist(), v[keep][::-1].tolist()))


def region_boundary(cfg: ExperimentConfig) -> list[tuple[float, float]]:
    """Pareto frontier of the accessible (T, V) set over the sweep grid.
    A failed row's T and V are NaN, which the frontier skips."""
    if cfg.protocol == "summary":
        raise ConfigError("the summary protocol has no sweep grid to bound")
    data, errors = _sweep(cfg, *_grid(cfg))
    if len(errors) == len(data["protocol"]):
        raise ConfigError("no evaluable grid points")
    return pareto_frontier(data["signal_transfer"], data["added_noise"])


# -- Monte Carlo oracle ------------------------------------------------------


@dataclass
class OracleReport:
    passed: bool
    worst_z: float
    worst_quantity: str
    findings: list[OracleFinding]
    row_z: dict[int, float]
    rows_checked: int


def oracle_check(cfg: ExperimentConfig) -> OracleReport:
    """Re-derive the moments of selected sweep rows by sampling and flag
    any deviation beyond five standard errors."""
    if cfg.protocol == "summary":
        raise ConfigError("the summary protocol has no sweep rows to sample")
    if cfg.shots < 10_000:
        raise ConfigError("oracle needs at least 10^4 shots")
    grid = _grid(cfg)
    size = grid[0].size
    n_check = min(cfg.oracle_rows, size)
    idx = sorted({round(i * (size - 1) / max(n_check - 1, 1)) for i in range(n_check)})
    findings: list[OracleFinding] = []
    row_z: dict[int, float] = {}
    # The dealer depends on v_n alone, and no build consumes a share, so
    # rows of one v_n share one dealer.
    dealers: dict[float, ShareSet] = {}
    for i in idx:
        r, g, n = (k[i:i + 1] for k in grid)
        v_n = n.item(0)
        if v_n not in dealers:
            dealers[v_n] = dealer_encode(cfg.dealer(v_n))
        live, _, raw, _, _ = _build(cfg, r, g, n, dealers[v_n])
        if not live.size:
            continue
        fs = compare_mode_to_samples(raw, raw, cfg.shots, cfg.seed + i, row=i)
        row_z[i] = max(abs(f.z) for f in fs)
        findings.extend(fs)
    worst = max(findings, key=lambda f: abs(f.z), default=None)
    return OracleReport(
        passed=all(abs(f.z) < ORACLE_Z_LIMIT for f in findings),
        worst_z=abs(worst.z) if worst else 0.0,
        worst_quantity=(worst.quantity if worst else ""),
        findings=[f for f in findings if abs(f.z) >= ORACLE_Z_LIMIT],
        row_z=row_z,
        rows_checked=len(row_z),
    )


# -- output ------------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _format_column(col: np.ndarray) -> list[str]:
    if col.dtype == np.float64:
        return [format(v, ".9g") for v in col.tolist()]
    return [_format_cell(v) for v in col.tolist()]


def rows_to_csv(result: RunResult) -> str:
    """The result as CSV, written column by column from ``result.data``."""
    cols = [_format_column(result.data[c]) for c in result.columns]
    return "\n".join([",".join(result.columns), *map(",".join, zip(*cols))]) + "\n"


# Writes one row as ``json.dumps(indent=2, sort_keys=True)`` does at depth
# 2, less the braces, but with the C encoder: ``indent`` selects the
# pure-Python one.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=True, separators=(",\n      ", ": "))


def result_to_json(result: RunResult) -> str:
    """The rows, with an ``error`` entry on each failed one, and the
    summary as JSON: the bytes of ``json.dumps(indent=2, sort_keys=True)``."""
    payload = {"columns": result.columns, "rows": [], "summary": result.summary}
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"
    if not result.rows:
        return text
    rows = ",\n".join(["    {\n      " + _ROW_ENCODER.encode(row)[1:-1] + "\n    }" for row in result.rows])
    return text.replace('"rows": []', '"rows": [\n' + rows + "\n  ]", 1)


def default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, ".")


# -- presets -----------------------------------------------------------------

SQZ_DB = -4.5
NOISE_DB = 3.5
EXPERIMENT_KWARGS = dict(
    v_sq=db_to_linear(SQZ_DB),
    v_anti=None,  # pure partner; decoherence is carried by v_n
    v_n=db_to_linear(NOISE_DB),
    eta_epr1_in=0.97,
    eta_mz=0.99,
    eta_recon_bs=0.97,
    eta_lo=0.96,
    eta_ff=0.93,
    dark_noise=db_to_linear(-13.0),
    mirror_r=50.0 / 51.0,
)


def _preset_fig2(v_sq: float) -> ExperimentConfig:
    return ExperimentConfig(
        protocol="single_ff",
        v_sq=v_sq,
        sweep_reflectivity=SweepAxis(0.0, 1.0, 41),
        sweep_gain=SweepAxis(0.0, 6.0, 41),
    )


def _preset_fig3b() -> ExperimentConfig:
    return ExperimentConfig(protocol="single_ff", sweep_gain=SweepAxis(0.0, 40.0, 41), **EXPERIMENT_KWARGS)


PRESETS = {
    "fig2a": lambda: _preset_fig2(1.0),
    "fig2b": lambda: _preset_fig2(db_to_linear(-6.0)),
    "fig3a-classical": lambda: ExperimentConfig(
        protocol="single_ff", v_sq=1.0, sweep_gain=SweepAxis(0.0, 6.0, 41)),
    "fig3b": _preset_fig3b,
    "fig3b-inset-mz": lambda: ExperimentConfig(
        protocol="mz", sweep_v_n=SweepAxis(db_to_linear(NOISE_DB), db_to_linear(NOISE_DB), 1),
        **EXPERIMENT_KWARGS),
    "fig4a-classical": lambda: ExperimentConfig(
        protocol="single_ff", v_sq=1.0,
        sweep_reflectivity=SweepAxis(0.0, 1.0, 41), sweep_gain=SweepAxis(0.0, 4.0, 41)),
    "fig4b": _preset_fig3b,  # an alias: the same configuration as fig3b
    "fig5-adversary": lambda: ExperimentConfig(
        protocol="adversary_1", v_sq=db_to_linear(SQZ_DB), sweep_v_n=SweepAxis(0.0, 100.0, 41)),
    "summary": lambda: ExperimentConfig(protocol="summary", **EXPERIMENT_KWARGS),
}


def preset_config(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
