"""Config-driven sweeps: assemble dealer + protocol pipelines, scan
parameter grids, compare against the classical bounds, regenerate the
figure data as CSV/JSON, and cross-check every analytic moment against
the Monte Carlo oracle.

Configs are flat dotted-key text files (``dealer.v_sq_db = -4.5``) or
JSON objects with the same keys.  Identical config + seed produces a
byte-identical CSV.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .components import DetectorSpec, IDEAL_DETECTOR
from .modes import (
    MINUS,
    PLUS,
    QuadratureMode,
    axis_names,
    coefficient_matrix,
    db_to_linear,
    draw_axes,
    new_coherent,
    variance,
    weighted_axes,
)
from .protocols import (
    DealerConfig,
    classical_bounds,
    dealer_encode,
    secret_gains,
    make_report,
    parametric_correction,
    reconstruct_double_ff,
    reconstruct_mz,
    reconstruct_pia,
    reconstruct_single_ff,
    reconstruct_two_opa,
    solve_single_ff_unity_gain,
)

BOUND_TOL = 1e-9
ORACLE_Z_LIMIT = 5.0
OUT_DIR_ENV = "QSS_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_ORACLE_FAILURE = 3
EXIT_BOUND_VIOLATION = 4

PROTOCOLS = ("mz", "pia", "two_opa", "single_ff", "double_ff", "adversary_1", "adversary_3", "summary")

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
        if self.steps == 1:
            return [self.start]
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
    secret_mean_plus: float = 5.0
    secret_mean_minus: float = 5.0

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

    def detector(self) -> DetectorSpec:
        if self.eta_ff == 1.0 and self.dark_noise == 0.0:
            return IDEAL_DETECTOR
        return DetectorSpec(self.eta_ff, self.dark_noise)

    def dealer(self, v_n: float | None = None) -> DealerConfig:
        eff = {"epr1_in": self.eta_epr1_in} if self.eta_epr1_in < 1.0 else {}
        return DealerConfig(
            v_sq=self.v_sq,
            v_anti=self.v_anti,
            v_n=self.v_n if v_n is None else v_n,
            efficiencies=eff,
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

_SCALAR_KEYS = {
    "protocol.name": ("protocol", str),
    "protocol.player": ("player", int),
    "protocol.reflectivity": ("reflectivity", float),
    "protocol.gain": ("gain", float),
    "protocol.unity_gain": ("unity_gain", bool),
    "protocol.mirror_r": ("mirror_r", float),
    "dealer.v_sq": ("v_sq", float),
    "dealer.v_anti": ("v_anti", float),
    "dealer.v_n": ("v_n", float),
    "dealer.eta_epr1_in": ("eta_epr1_in", float),
    "secret.mean_plus": ("secret_mean_plus", float),
    "secret.mean_minus": ("secret_mean_minus", float),
    "efficiencies.mz": ("eta_mz", float),
    "efficiencies.recon_bs": ("eta_recon_bs", float),
    "efficiencies.lo": ("eta_lo", float),
    "detector.eta_ff": ("eta_ff", float),
    "detector.dark_noise": ("dark_noise", float),
    "oracle.shots": ("shots", int),
    "oracle.seed": ("seed", int),
    "oracle.rows": ("oracle_rows", int),
}

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
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return json.loads(text)
    return parse_config_text(text)


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    kwargs: dict = {}
    sweeps: dict[str, dict] = {}
    for linear_key, db_key in _DB_PAIRS.items():
        if linear_key in mapping and db_key in mapping:
            raise ConfigError(f"{linear_key} and {db_key} are mutually exclusive")
    for key, value in mapping.items():
        if key in _DB_PAIRS.values():
            linear_key = next(k for k, v in _DB_PAIRS.items() if v == key)
            attr, _ = _SCALAR_KEYS[linear_key]
            kwargs[attr] = db_to_linear(float(value))
            continue
        if key in _SCALAR_KEYS:
            attr, caster = _SCALAR_KEYS[key]
            kwargs[attr] = caster(value)
            continue
        parts = key.rsplit(".", 1)
        if len(parts) == 2 and parts[0] in _SWEEP_KEYS and parts[1] in ("start", "stop", "steps"):
            sweeps.setdefault(parts[0], {})[parts[1]] = value
            continue
        raise ConfigError(f"unknown config key {key!r}")
    for sweep_key, fields in sweeps.items():
        if "start" not in fields or "stop" not in fields:
            raise ConfigError(f"{sweep_key} needs start and stop")
        axis = SweepAxis(float(fields["start"]), float(fields["stop"]), int(fields.get("steps", 41)))
        kwargs[_SWEEP_KEYS[sweep_key]] = axis
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# -- pipeline assembly -------------------------------------------------------


@dataclass
class PipelineResult:
    secret: QuadratureMode
    raw: QuadratureMode
    corrected: QuadratureMode
    error: str | None = None


def _default_reflectivity(protocol: str) -> float:
    return 0.5 if protocol == "double_ff" else 2.0 / 3.0


def _default_gain(protocol: str) -> float:
    return {
        "pia": 2.0,
        "two_opa": 3.0 + 2.0 * math.sqrt(2.0),
        "single_ff": 2.0 * math.sqrt(2.0),
        "double_ff": 1.0,
    }.get(protocol, 0.0)


def build_pipeline(cfg: ExperimentConfig, reflectivity: float | None, gain: float | None,
                   v_n: float | None) -> PipelineResult:
    """One dealer + reconstruction run at explicit knob settings."""
    shares = dealer_encode(cfg.dealer(v_n))
    secret = shares.secret
    share_a = shares.share(cfg.player)
    r = reflectivity if reflectivity is not None else (
        cfg.reflectivity if cfg.reflectivity is not None else _default_reflectivity(cfg.protocol))
    g = gain if gain is not None else (cfg.gain if cfg.gain is not None else _default_gain(cfg.protocol))

    try:
        if cfg.protocol == "mz":
            out = reconstruct_mz(shares.share1, shares.share2, cfg.eta_mz)
            return PipelineResult(secret, out, out)
        if cfg.protocol == "pia":
            out = reconstruct_pia(share_a, shares.share3, g)
            return PipelineResult(secret, out, out)
        if cfg.protocol == "two_opa":
            out = reconstruct_two_opa(share_a, shares.share3, g)
            return PipelineResult(secret, out, out)
        if cfg.protocol == "single_ff":
            def run_ff(g_elec: float) -> QuadratureMode:
                return reconstruct_single_ff(
                    share_a, shares.share3, r, g_elec,
                    det=cfg.detector(), mirror_reflectivity=cfg.mirror_r,
                    eta_bs=cfg.eta_recon_bs, eta_lo=cfg.eta_lo)

            if cfg.unity_gain:
                g = solve_single_ff_unity_gain(lambda ge: make_report(secret, run_ff(ge)))
            out = run_ff(g)
            return PipelineResult(secret, out, parametric_correction(out))
        if cfg.protocol == "double_ff":
            out = reconstruct_double_ff(
                share_a, shares.share3, secret, r, g,
                det=cfg.detector(), mirror_reflectivity=cfg.mirror_r)
            return PipelineResult(secret, out, out)
        if cfg.protocol in ("adversary_1", "adversary_3"):
            k = 1 if cfg.protocol == "adversary_1" else 3
            out = shares.share(k)
            return PipelineResult(secret, out, out)
    except ValueError as exc:
        dummy = secret
        return PipelineResult(secret, dummy, dummy, error=str(exc))
    raise ConfigError(f"protocol {cfg.protocol!r} cannot be built directly")


# -- sweeps ------------------------------------------------------------------


@dataclass
class RunResult:
    columns: list[str]
    rows: list[dict]
    summary: dict

    def bound_violations(self) -> list[dict]:
        out = []
        for row in self.rows:
            if row.get("error"):
                continue
            if (
                row["fidelity_unity"] > row["f_classical_max"] + BOUND_TOL
                or row["signal_transfer"] > row["t_classical_max"] + BOUND_TOL
                or row["added_noise"] < row["v_classical_min"] - BOUND_TOL
            ):
                out.append(row)
        return out


def _grid(cfg: ExperimentConfig):
    r_values = cfg.sweep_reflectivity.values() if cfg.sweep_reflectivity else [None]
    g_values = cfg.sweep_gain.values() if cfg.sweep_gain else [None]
    n_values = cfg.sweep_v_n.values() if cfg.sweep_v_n else [None]
    for r in r_values:
        for g in g_values:
            for n in n_values:
                yield r, g, n


def _evaluate_row(cfg: ExperimentConfig, r, g, n) -> dict:
    pipe = build_pipeline(cfg, r, g, n)
    row = {c: float("nan") for c in CSV_COLUMNS}
    row["protocol"] = cfg.protocol
    row["reflectivity"] = r if r is not None else (cfg.reflectivity if cfg.reflectivity is not None else _default_reflectivity(cfg.protocol))
    row["gain"] = g if g is not None else (cfg.gain if cfg.gain is not None else _default_gain(cfg.protocol))
    row["v_n"] = n if n is not None else cfg.v_n
    row["oracle_max_z"] = None
    if pipe.error:
        row["error"] = pipe.error
        return row
    # Fidelity and conditional variances refer to the delivered
    # (corrected) state; gains and the classical bounds refer to the raw
    # protocol output, since the per-quadrature transfer bound assumes no
    # local squeezing after reconstruction (T itself is invariant under
    # the correction, so the comparison stays consistent).
    rep = metrics.metrics_report(pipe.secret, pipe.corrected)
    g_raw_p, g_raw_m = secret_gains(pipe.secret, pipe.raw)
    f_max, t_max, v_min = classical_bounds(g_raw_p, g_raw_m)
    row.update(
        g_plus=g_raw_p,
        g_minus=g_raw_m,
        gain_product=g_raw_p * g_raw_m,
        fidelity=rep.fidelity,
        fidelity_unity=metrics.unity_corrected_fidelity(pipe.secret, pipe.raw),
        t_plus=rep.t_plus,
        t_minus=rep.t_minus,
        signal_transfer=rep.signal_transfer,
        v_cond_plus=rep.v_cond_plus,
        v_cond_minus=rep.v_cond_minus,
        added_noise=rep.added_noise,
        f_classical_max=f_max,
        t_classical_max=t_max,
        v_classical_min=v_min,
    )
    return row


def run(cfg: ExperimentConfig, with_oracle: bool = False) -> RunResult:
    """Evaluate the full sweep grid; deterministic for a fixed config."""
    if cfg.protocol == "summary":
        return _summary_run(cfg)
    rows = [_evaluate_row(cfg, r, g, n) for r, g, n in _grid(cfg)]
    if with_oracle:
        report = oracle_check(cfg)
        for idx, z in report.row_z.items():
            rows[idx]["oracle_max_z"] = z
    good = [r for r in rows if not r.get("error")]
    summary = {
        "rows": len(rows),
        "failed_rows": len(rows) - len(good),
        "bound_violations": 0,
        "classical_mode": cfg.is_classical(),
    }
    if good:
        best_f = max(good, key=lambda r: r["fidelity"])
        best_t = max(good, key=lambda r: r["signal_transfer"])
        min_v = min(good, key=lambda r: r["added_noise"])
        summary.update(
            best_fidelity=best_f["fidelity"],
            best_fidelity_gain_product=best_f["gain_product"],
            best_unity_fidelity=max(r["fidelity_unity"] for r in good),
            best_signal_transfer=best_t["signal_transfer"],
            min_added_noise=min_v["added_noise"],
        )
    result = RunResult(CSV_COLUMNS, rows, summary)
    summary["bound_violations"] = len(result.bound_violations())
    return result


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
    mz_row = _evaluate_row(mz_cfg, None, None, None)
    ff_row = _evaluate_row(ff_cfg, None, None, None)
    sweep_cfg = replace(ff_cfg, unity_gain=False)
    sweep_rows = [_evaluate_row(sweep_cfg, None, g, None)
                  for g in SweepAxis(0.0, 40.0, 201).values()]
    f12, f23 = mz_row["fidelity"], ff_row["fidelity"]
    f_avg = (f12 + 2.0 * f23) / 3.0
    avg_row = {c: None for c in CSV_COLUMNS}
    avg_row.update(protocol="average", fidelity=f_avg)
    summary = {
        "rows": 3,
        "failed_rows": 0,
        "bound_violations": 0,
        "classical_mode": cfg.is_classical(),
        "f_12": f12,
        "f_23": f23,
        "t_12": mz_row["signal_transfer"],
        "v_12": mz_row["added_noise"],
        "t_23_best": max(r["signal_transfer"] for r in sweep_rows),
        "v_23_best": min(r["added_noise"] for r in sweep_rows),
        "t_23_unity": ff_row["signal_transfer"],
        "v_23_unity": ff_row["added_noise"],
        "f_avg": f_avg,
        "classical_f_avg_limit": 2.0 / 3.0,
        "beats_classical_average": f_avg > 2.0 / 3.0,
    }
    return RunResult(CSV_COLUMNS, [mz_row, ff_row, avg_row], summary)


# -- accessible region -------------------------------------------------------


def pareto_frontier(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Non-dominated (max T, min V) subset, sorted by T; ties keep the
    lower V."""
    best: dict[float, tuple[float, float]] = {}
    for t, v in points:
        if not (math.isfinite(t) and math.isfinite(v)):
            continue
        if t not in best or v < best[t][1]:
            best[t] = (t, v)
    candidates = sorted(best.values(), key=lambda p: (-p[0], p[1]))
    frontier = []
    min_v = math.inf
    for t, v in candidates:
        if v < min_v:
            frontier.append((t, v))
            min_v = v
    frontier.reverse()
    return frontier


def region_boundary(cfg: ExperimentConfig) -> list[tuple[float, float]]:
    """Pareto frontier of the accessible (T, V) set over the sweep grid."""
    grid = list(_grid(cfg))
    if not grid:
        raise ConfigError("empty sweep grid")
    points = []
    for r, g, n in grid:
        row = _evaluate_row(cfg, r, g, n)
        if not row.get("error"):
            points.append((row["signal_transfer"], row["added_noise"]))
    if not points:
        raise ConfigError("no evaluable grid points")
    return pareto_frontier(points)


# -- Monte Carlo oracle ------------------------------------------------------


@dataclass
class OracleFinding:
    row: int
    quantity: str
    axis_label: str | None
    z: float


@dataclass
class OracleReport:
    passed: bool
    worst_z: float
    worst_quantity: str
    findings: list[OracleFinding]
    row_z: dict[int, float]
    rows_checked: int


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
                        coefficient_matrix([sampled.coeff_plus, sampled.coeff_minus], axes))
    fluct_mean = moments.mean()
    cov = moments.covariance()
    axis_cov = moments.axis_covariance()
    findings = []
    for i, quad in enumerate((PLUS, MINUS)):
        v_pred = variance(predicted, quad)
        v_emp = float(cov[i, i])
        mean_emp = sampled.mean(quad) + float(fluct_mean[i])
        se_mean = math.sqrt(max(v_emp, 1e-30) / n_shots)
        findings.append(OracleFinding(row, f"mean.{quad}", None, (mean_emp - predicted.mean(quad)) / se_mean))
        se_var = max(v_emp, 1e-30) * math.sqrt(2.0 / (n_shots - 1))
        findings.append(OracleFinding(row, f"variance.{quad}", None, (v_emp - v_pred) / se_var))
        coeffs = predicted.coeffs(quad)
        for j, ax in enumerate(axes):
            c = coeffs.get(ax.id, 0.0)
            est = float(axis_cov[i, j]) / ax.variance
            # The estimate is (1/n) sum of x d / variance with x = c d + r:
            # its variance is (R / variance + 2 c^2) / n, R being the
            # variance of r, so the axis's own spread counts too.
            resid = max(v_emp - c * c * ax.variance, 0.0)
            se = math.sqrt(max(resid / ax.variance + 2.0 * c * c, 1e-30) / n_shots)
            findings.append(OracleFinding(row, f"coeff.{quad}", names[ax.id], (est - c) / se))
    return findings


def oracle_check(cfg: ExperimentConfig) -> OracleReport:
    """Re-derive the moments of selected sweep rows by sampling and flag
    any deviation beyond five standard errors."""
    if cfg.shots < 10_000:
        raise ConfigError("oracle needs at least 10^4 shots")
    grid = list(_grid(cfg))
    n_check = max(1, min(cfg.oracle_rows, len(grid)))
    idx = sorted({round(i * (len(grid) - 1) / max(n_check - 1, 1)) for i in range(n_check)})
    findings: list[OracleFinding] = []
    row_z: dict[int, float] = {}
    for i in idx:
        r, g, n = grid[i]
        pipe = build_pipeline(cfg, r, g, n)
        if pipe.error:
            continue
        fs = compare_mode_to_samples(pipe.raw, pipe.raw, cfg.shots, cfg.seed + i, row=i)
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
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.9g}"
    return str(value)


def rows_to_csv(columns: list[str], rows: list[dict]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def result_to_json(result: RunResult) -> str:
    payload = {
        "columns": result.columns,
        "rows": [{c: row.get(c) for c in result.columns} for row in result.rows],
        "summary": result.summary,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"


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


def build_presets() -> dict:
    presets = {
        "fig2a": lambda: _preset_fig2(1.0),
        "fig2b": lambda: _preset_fig2(db_to_linear(-6.0)),
        "fig3a-classical": lambda: ExperimentConfig(
            protocol="single_ff", v_sq=1.0, sweep_gain=SweepAxis(0.0, 6.0, 41)),
        "fig3b": lambda: ExperimentConfig(
            protocol="single_ff", sweep_gain=SweepAxis(0.0, 40.0, 41), **EXPERIMENT_KWARGS),
        "fig3b-inset-mz": lambda: ExperimentConfig(
            protocol="mz", sweep_v_n=SweepAxis(db_to_linear(NOISE_DB), db_to_linear(NOISE_DB), 1),
            **EXPERIMENT_KWARGS),
        "fig4a-classical": lambda: ExperimentConfig(
            protocol="single_ff", v_sq=1.0,
            sweep_reflectivity=SweepAxis(0.0, 1.0, 41), sweep_gain=SweepAxis(0.0, 4.0, 41)),
        "fig4b": lambda: ExperimentConfig(
            protocol="single_ff", sweep_gain=SweepAxis(0.0, 40.0, 41), **EXPERIMENT_KWARGS),
        "fig5-adversary": lambda: ExperimentConfig(
            protocol="adversary_1", v_sq=db_to_linear(SQZ_DB), sweep_v_n=SweepAxis(0.0, 100.0, 41)),
        "summary": lambda: ExperimentConfig(protocol="summary", **EXPERIMENT_KWARGS),
    }
    return presets


PRESETS = build_presets()


def preset_config(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")


def fit_symmetric_epr_loss(target_duan: float, v_sq: float, v_anti: float | None = None,
                           tol: float = 1e-6) -> float:
    """Efficiency eta, applied to both entangled beams, that reproduces a
    measured inseparability value (calibration fit, not ground truth)."""
    from .components import epr_pair, loss
    from .metrics import duan_inseparability
    from .modes import new_squeezed

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
