"""The three benchmark workloads: their seeded inputs, one pass of work
through ``qss``'s public entry points, and the checks on its outputs.

Each workload object is made from the seed alone (numpy and the
reference model, no ``qss``), then :meth:`build` turns the seeded
parameters into ``qss`` configs or config files, :meth:`operations`
lists one pass as calls to make, and :meth:`check` judges their outputs.
A pass is a fixed list of operations, so every run attempts whole
rounds of the same work.  ``calibrate_every`` is how many operations
run between two readings of the speed calibration.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import importlib
import io
import json
import math
import random
import statistics
import sys
from pathlib import Path

import numpy as np

import refmodel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The documented sweep CSV schema.
CSV_COLUMNS = [
    "protocol", "reflectivity", "gain", "v_n", "g_plus", "g_minus", "gain_product",
    "fidelity", "fidelity_unity", "t_plus", "t_minus", "signal_transfer",
    "v_cond_plus", "v_cond_minus", "added_noise", "f_classical_max",
    "t_classical_max", "v_classical_min", "oracle_max_z",
]
PRESET_NAMES = ("fig2a", "fig2b", "fig3a-classical", "fig3b", "fig3b-inset-mz",
                "fig4a-classical", "fig4b", "fig5-adversary", "summary")
SUMMARY_POINTS = 2 + 201  # mz and unity-gain rows, plus the 201-point gain sweep
ORACLE_Z_LIMIT = 5.0
CSV_TOL = 1e-7  # CSV cells carry 9 significant digits


def load_qss():
    """Import ``qss`` afresh from the checkout's ``src``, dropping any
    modules of an earlier import, and return its ``harness`` and ``cli``."""
    for key in [k for k in sys.modules if k == "qss" or k.startswith("qss.")]:
        del sys.modules[key]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("qss.cli")
    if Path(cli.__file__).resolve().parent != SRC / "qss":
        raise ImportError(f"qss imported from {cli.__file__}, not from {SRC}")
    return sys.modules["qss.harness"], cli


def median_rate(work_per_pass: float, pass_seconds) -> float:
    """Work per pass over the median pass time."""
    return work_per_pass / statistics.median(pass_seconds)


def grid_points(r_axis, g_axis):
    """(reflectivity, gain) of a sweep grid in the harness's row order:
    reflectivity outer, gain inner."""
    r, g = np.linspace(*r_axis), np.linspace(*g_axis)
    return np.repeat(r, len(g)), np.tile(g, len(r))


def bound_status(rows_arr: dict, tol: float = refmodel.TOL):
    """Per row: (violates a classical bound, beats the fidelity bound),
    with the bounds recomputed from the row's raw gains.  A violation is
    judged on the unity-corrected fidelity, T and V; beating the bound
    on the delivered (parametrically corrected) fidelity."""
    f_max, t_max, v_min = refmodel.classical_bounds(rows_arr["g_plus"], rows_arr["g_minus"])
    violates = ((rows_arr["fidelity_unity"] > f_max + tol)
                | (rows_arr["signal_transfer"] > t_max + tol)
                | (rows_arr["added_noise"] < v_min - tol))
    return violates, rows_arr["fidelity"] > f_max + tol


class Workload:
    """Defaults: calibrate after every operation; no operation is
    expected to fail."""

    calibrate_every = 1

    def failed(self, outputs) -> int:
        return 0


# -- figure-grids --------------------------------------------------------------


class FigureGrids(Workload):
    """Three published 41x41 presets plus a seeded 41x41 frontier."""

    name = "figure-grids"
    calibration = "python"
    # preset, v_sq, (r start, stop, steps), (g start, stop, steps)
    PRESETS = (
        ("fig2a", 1.0, (0.0, 1.0, 41), (0.0, 6.0, 41)),
        ("fig2b", 10.0 ** -0.6, (0.0, 1.0, 41), (0.0, 6.0, 41)),
        ("fig4a-classical", 1.0, (0.0, 1.0, 41), (0.0, 4.0, 41)),
    )
    REGION_AXES = ((0.0, 1.0, 41), (0.0, 6.0, 41))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.v_sq = 10.0 ** (rng.uniform(-6.0, -1.0) / 10.0)
        self.v_n = 10.0 ** (rng.uniform(-3.0, 6.0) / 10.0)
        self.reference = {}
        for name, v_sq, r_axis, g_axis in self.PRESETS:
            r, g = grid_points(r_axis, g_axis)
            self.reference[name] = (r, g, refmodel.single_ff(v_sq, 0.0, r, g))
        r, g = grid_points(*self.REGION_AXES)
        self.region_reference = refmodel.single_ff(self.v_sq, self.v_n, r, g)
        self.rows_per_pass = sum(len(r) for r, _, _ in self.reference.values()) + len(r)
        self.ops_per_pass = len(self.PRESETS) + 1

    def build(self, harness, cli, workdir: Path):
        presets = [(name, harness.preset_config(name)) for name, *_ in self.PRESETS]
        (r0, r1, rn), (g0, g1, gn) = self.REGION_AXES
        region = harness.ExperimentConfig(
            protocol="single_ff", v_sq=self.v_sq, v_n=self.v_n,
            sweep_reflectivity=harness.SweepAxis(r0, r1, rn),
            sweep_gain=harness.SweepAxis(g0, g1, gn))
        return presets, region

    def operations(self, harness, cli, inputs) -> list:
        presets, region = inputs
        ops = [lambda cfg=cfg: harness.run(cfg) for _, cfg in presets]
        return ops + [lambda: harness.region_boundary(region)]

    def check(self, outputs) -> list[str]:
        errors = []
        for (name, (r, g, want)), result in zip(self.reference.items(), outputs):
            rows = result.rows
            if len(rows) != len(r):
                errors.append(f"{name}: {len(rows)} rows, expected {len(r)}")
                continue
            got = refmodel.rows_as_arrays(rows)
            knobs = {"reflectivity": np.array([row["reflectivity"] for row in rows], float),
                     "gain": np.array([row["gain"] for row in rows], float)}
            errors += refmodel.compare(knobs, {"reflectivity": r, "gain": g}, where=f"{name}: ")
            errors += refmodel.compare(got, want, where=f"{name}: ")
            violates, beats = bound_status(got)
            if name != "fig2b" and violates.any():
                errors.append(f"{name}: {int(violates.sum())} rows violate a classical bound")
            if name == "fig2b" and not beats.any():
                errors.append("fig2b: no row beats the classical fidelity bound")
        errors += refmodel.frontier_errors(outputs[-1], self.region_reference["signal_transfer"],
                                           self.region_reference["added_noise"])
        return errors


# -- oracle-1e6 ----------------------------------------------------------------


class OracleSampling(Workload):
    """The Monte Carlo oracle at its pinned 10^6 shots on fig3b and the
    fig3b inset, with oracle seeds drawn from the benchmark seed."""

    name = "oracle-1e6"
    calibration = "numpy"
    SHOTS = 1_000_000
    CHECKS = (("fig3b", 3), ("fig3b-inset-mz", 1))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.oracle_seeds = [rng.randrange(2**31) for _ in self.CHECKS]
        self.rows_per_pass = sum(rows for _, rows in self.CHECKS)
        self.shots_per_pass = self.SHOTS * self.rows_per_pass
        self.ops_per_pass = len(self.CHECKS)
        self.first = None

    def build(self, harness, cli, workdir: Path):
        return [dataclasses.replace(harness.preset_config(name), seed=s, shots=self.SHOTS)
                for (name, _), s in zip(self.CHECKS, self.oracle_seeds)]

    def operations(self, harness, cli, inputs) -> list:
        return [lambda cfg=cfg: harness.oracle_check(cfg) for cfg in inputs]

    def check(self, reports) -> list[str]:
        errors = []
        for (name, rows), rep in zip(self.CHECKS, reports):
            errors += oracle_errors(name, rows, rep.rows_checked,
                                    [f.quantity for f in rep.findings], rep.worst_z)
            if len(rep.row_z) != rows or not all(map(math.isfinite, rep.row_z.values())):
                errors.append(f"{name}: oracle row z-scores missing or not finite")
        if max(rep.worst_z for rep in reports) <= 1.0:
            errors.append("largest oracle |z| is not above 1: the oracle samples nothing")
        seen = [(rep.worst_z, rep.worst_quantity, sorted(rep.row_z.items())) for rep in reports]
        if self.first is None:
            self.first = seen
        elif seen != self.first:
            errors.append("oracle output differs between passes with the same seeds")
        return errors


def oracle_errors(name, rows_expected, rows_checked, finding_quantities, worst_z) -> list[str]:
    """Checks on one oracle report.  Mean and variance findings are
    judged; per-axis coefficient findings are not, because the program's
    standard error for them omits the axis's own sampling variance and
    flags false deviations on some seeds."""
    errors = []
    if rows_checked != rows_expected:
        errors.append(f"{name}: oracle checked {rows_checked} rows, expected {rows_expected}")
    if not math.isfinite(worst_z):
        errors.append(f"{name}: oracle worst z is not finite")
    moments = [q for q in finding_quantities if not q.startswith("coeff.")]
    if moments:
        errors.append(f"{name}: oracle moment deviations beyond z={ORACLE_Z_LIMIT}: {moments}")
    return errors


# -- config-mix ----------------------------------------------------------------


@dataclasses.dataclass
class Invocation:
    """One ``qss.cli.main`` call: its arguments (``{dir}`` is replaced by
    the work directory), where its output lands and what to check."""

    name: str
    argv: list[str]
    rows: int  # grid points evaluated (counted into rows_per_s)
    check: str
    out: str | None = None  # file under the work directory; None = stdout
    params: dict = dataclasses.field(default_factory=dict)
    expect_code: int = 0

    def resolved(self, workdir: Path) -> list[str]:
        return [a.replace("{dir}", str(workdir)) for a in self.argv]


def _experiment(rng: random.Random, mirror: bool) -> dict:
    cfg = {
        "dealer.v_sq_db": round(rng.uniform(-6.0, -3.0), 6),
        "dealer.v_n_db": round(rng.uniform(0.0, 5.0), 6),
        "dealer.eta_epr1_in": round(rng.uniform(0.9, 0.99), 6),
        "efficiencies.mz": round(rng.uniform(0.9, 0.99), 6),
        "efficiencies.recon_bs": round(rng.uniform(0.9, 0.99), 6),
        "efficiencies.lo": round(rng.uniform(0.9, 0.99), 6),
        "detector.eta_ff": round(rng.uniform(0.9, 0.99), 6),
        "detector.dark_noise_db": round(rng.uniform(-15.0, -10.0), 6),
    }
    if mirror:
        cfg["protocol.mirror_r"] = round(rng.uniform(0.95, 0.99), 6)
    return cfg


def _ideal(rng: random.Random) -> dict:
    return {"dealer.v_sq_db": round(rng.uniform(-6.0, -1.0), 6),
            "dealer.v_n_db": round(rng.uniform(-3.0, 5.0), 6)}


def _sweep(key: str, start: float, stop: float, steps: int) -> dict:
    return {f"sweep.{key}.start": start, f"sweep.{key}.stop": stop, f"sweep.{key}.steps": steps}


def _write(path: Path, mapping: dict, as_json: bool):
    if as_json:
        text = json.dumps(mapping, indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(f"{k} = {v}\n" for k, v in mapping.items())
    path.write_text(text, encoding="utf-8")


def generate_configs(seed: int, workdir: Path) -> list[Invocation]:
    """Write the config files of one config-mix pass into ``workdir``
    and return its invocations.  Values come from the seed; which
    protocols, formats and row counts appear does not."""
    rng = random.Random(seed)
    inv: list[Invocation] = []

    def add(name, mapping, as_json, rows, check, fmt="csv", to_file=True, **params):
        fname = f"{name}.{'json' if as_json else 'cfg'}"
        _write(workdir / fname, mapping, as_json)
        out = f"{name}.out.{fmt}" if to_file else None
        argv = ["run", "--config", f"{{dir}}/{fname}", "--format", fmt]
        if out:
            argv += ["--out", f"{{dir}}/{out}"]
        inv.append(Invocation(name, argv, rows, check, out, params))

    def ideal_with(protocol):
        return {"protocol.name": protocol, **_ideal(rng)}

    def exp_with(protocol, mirror=False):
        return {"protocol.name": protocol, **_experiment(rng, mirror)}

    add("mz_exp", {**exp_with("mz"), **_sweep("v_n", 0.0, round(rng.uniform(2.0, 6.0), 6), 11)},
        False, 11, "bounds")
    add("mz_ideal", {"protocol.name": "mz", "dealer.v_sq_db": round(rng.uniform(-6.0, -1.0), 6)},
        True, 1, "mz_exact", fmt="json")
    add("pia_ideal", {**ideal_with("pia"), **_sweep("gain", 1.0, 4.0, 21)}, True, 21, "bounds", fmt="json")
    add("pia_exp", {**exp_with("pia"), "protocol.gain": round(rng.uniform(1.5, 3.0), 6)},
        False, 1, "bounds")
    add("two_opa_ideal", {**ideal_with("two_opa"), **_sweep("gain", 1.0, 10.0, 31)},
        False, 31, "bounds", to_file=False)
    add("two_opa_exp", exp_with("two_opa"), True, 1, "bounds", fmt="json")
    add("sff_unity_mirror", {**exp_with("single_ff", mirror=True), "protocol.unity_gain": "true",
                             **_sweep("v_n", 1.0, round(rng.uniform(2.0, 4.0), 6), 11)},
        False, 11, "unity", fmt="json")
    add("sff_unity_ideal", {**ideal_with("single_ff"), "protocol.unity_gain": True},
        True, 1, "unity", fmt="json")
    add("sff_mirror_sweep", {**exp_with("single_ff", mirror=True), **_sweep("gain", 0.0, 40.0, 41)},
        False, 41, "bounds")
    ideal = _ideal(rng)
    add("sff_ideal_grid", {"protocol.name": "single_ff", **ideal, **_sweep("reflectivity", 0.0, 1.0, 5),
                           **_sweep("gain", 0.0, 6.0, 5)},
        True, 25, "reference", **_linear(ideal))
    add("dff_mirror", {**exp_with("double_ff", mirror=True), **_sweep("gain", 0.5, 1.5, 11)},
        False, 11, "double_ff", fmt="json")
    add("dff_ideal", ideal_with("double_ff"), True, 1, "double_ff", fmt="json")
    add("adversary_1", {**ideal_with("adversary_1"), **_sweep("v_n", 0.0, 50.0, 21)}, False, 21, "bounds")
    add("adversary_3", {**ideal_with("adversary_3"), **_sweep("v_n", 0.0, 50.0, 21)}, True, 21, "bounds")

    inv.append(Invocation("summary", ["run", "--preset", "summary", "--format", "json",
                                      "--out", "{dir}/summary.out.json"],
                          SUMMARY_POINTS, "summary", "summary.out.json"))
    inv.append(Invocation("fig3b", ["run", "--preset", "fig3b", "--out", "{dir}/fig3b.out.csv"],
                          41, "bounds", "fig3b.out.csv"))

    region = _ideal(rng)
    _write(workdir / "region.cfg", {"protocol.name": "single_ff", **region,
                                    **_sweep("reflectivity", 0.0, 1.0, 11), **_sweep("gain", 0.0, 6.0, 11)},
           False)
    inv.append(Invocation("region", ["region", "--config", "{dir}/region.cfg"], 121, "region", None,
                          _linear(region)))

    _write(workdir / "oracle.cfg", {**exp_with("single_ff"), **_sweep("gain", 0.0, 20.0, 21),
                                    "oracle.rows": 3, "oracle.seed": rng.randrange(2**31)}, False)
    inv.append(Invocation("oracle", ["oracle", "--config", "{dir}/oracle.cfg", "--shots", "20000",
                                     "--out", "{dir}/oracle.out.json"], 3, "oracle", "oracle.out.json"))
    inv.append(Invocation("presets", ["presets", "--format", "json"], 0, "presets"))

    # Invalid configs, identical for every seed: both should end in exit code 2.
    (workdir / "bad_vsq.cfg").write_text("dealer.v_sq_db = 1.0\n", encoding="utf-8")
    (workdir / "bad_gain.json").write_text('{"protocol.gain": "abc"}\n', encoding="utf-8")
    for name in ("bad_vsq.cfg", "bad_gain.json"):
        inv.append(Invocation(name, ["run", "--config", f"{{dir}}/{name}"], 0, "invalid", expect_code=2))
    return inv


def _linear(mapping: dict) -> dict:
    return {"v_sq": 10.0 ** (mapping["dealer.v_sq_db"] / 10.0),
            "v_n": 10.0 ** (mapping["dealer.v_n_db"] / 10.0)}


def _read_table(text: str, fmt: str):
    """(columns, rows, summary) of a sweep output in CSV or JSON."""
    if fmt == "json":
        payload = json.loads(text)
        return payload["columns"], payload["rows"], payload["summary"]
    reader = csv.reader(io.StringIO(text))
    columns = next(reader)
    rows = [dict(zip(columns, cells)) for cells in reader]
    return columns, rows, {}


class ConfigMix(Workload):
    """A fixed list of in-process ``qss`` CLI calls on seeded config files."""

    name = "config-mix"
    calibration = "python"

    def __init__(self, seed: int):
        self.seed = seed

    def build(self, harness, cli, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self.invocations = generate_configs(self.seed, workdir)
        self.workdir = workdir
        self.rows_per_pass = sum(i.rows for i in self.invocations)
        self.ops_per_pass = self.calibrate_every = len(self.invocations)
        return [(inv, inv.resolved(workdir)) for inv in self.invocations]

    def operations(self, harness, cli, inputs) -> list:
        def call(inv, argv):
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    outcome = cli.main(argv)
            except ValueError as exc:  # a config fault escaping as a traceback
                outcome = exc
            return inv, outcome, stdout.getvalue()

        return [lambda inv=inv, argv=argv: call(inv, argv) for inv, argv in inputs]

    def failed(self, results) -> int:
        """Invalid-config calls that did not end in their expected exit code."""
        return sum(inv.expect_code != 0 and outcome != inv.expect_code for inv, outcome, _ in results)

    def check(self, results) -> list[str]:
        errors = []
        for inv, outcome, stdout in results:
            if inv.expect_code != 0:
                continue  # counted by failed() until they exit 2
            text = (self.workdir / inv.out).read_text(encoding="utf-8") if inv.out else stdout
            try:
                errors += [f"{inv.name}: {e}" for e in self._check_one(inv, outcome, text)]
            except (KeyError, IndexError, ValueError, StopIteration) as exc:
                errors.append(f"{inv.name}: unreadable output ({exc!r})")
        return errors

    def _check_one(self, inv: Invocation, outcome, text: str) -> list[str]:
        if inv.check == "oracle":
            payload = json.loads(text)
            if outcome not in (0, 3) or (outcome == 3) == payload["passed"]:
                return [f"exit {outcome!r} with passed={payload['passed']}"]
            errors = oracle_errors("oracle", 3, payload["rows_checked"],
                                   [f["quantity"] for f in payload["findings"]], payload["worst_z"])
            if payload["worst_z"] <= 1.0:
                errors.append("largest oracle |z| is not above 1: the oracle samples nothing")
            return errors
        if outcome != 0:
            return [f"exit {outcome!r}, expected 0"]
        if inv.check == "presets":
            missing = set(PRESET_NAMES) - set(json.loads(text))
            return [f"presets missing {sorted(missing)}"] if missing else []
        if inv.check == "region":
            lines = text.splitlines()
            if lines[0] != "signal_transfer,added_noise":
                return [f"region header {lines[0]!r}"]
            frontier = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
            r, g = grid_points((0.0, 1.0, 11), (0.0, 6.0, 11))
            ref = refmodel.single_ff(inv.params["v_sq"], inv.params["v_n"], r, g)
            return refmodel.frontier_errors(frontier, ref["signal_transfer"], ref["added_noise"], CSV_TOL)

        fmt = "json" if inv.out and inv.out.endswith(".json") else "csv"
        tol = refmodel.TOL if fmt == "json" else CSV_TOL
        columns, rows, summary = _read_table(text, fmt)
        errors = []
        if columns != CSV_COLUMNS:
            errors.append(f"columns {columns}")
        if inv.check == "summary":
            f_avg = summary["f_avg"]
            if not f_avg > 2.0 / 3.0:
                errors.append(f"f_avg = {f_avg!r} does not beat 2/3")
            if abs(f_avg - (summary["f_12"] + 2.0 * summary["f_23"]) / 3.0) > tol:
                errors.append("f_avg is not (F_12 + 2 F_23) / 3")
            return errors
        if len(rows) != inv.rows:
            return errors + [f"{len(rows)} rows, expected {inv.rows}"]
        arr = {k: np.array([float(row[k]) for row in rows])
               for k in ("reflectivity", "gain", "g_plus", "g_minus", "gain_product",
                         "f_classical_max", "t_classical_max", "v_classical_min")}
        f_max, t_max, v_min = refmodel.classical_bounds(arr["g_plus"], arr["g_minus"])
        errors += refmodel.compare(arr, {"f_classical_max": f_max, "t_classical_max": t_max,
                                         "v_classical_min": v_min}, tol)
        ones = np.ones(len(rows))
        if inv.check == "unity":
            errors += refmodel.compare(arr, {"gain_product": ones}, tol)
        elif inv.check == "double_ff":
            errors += refmodel.compare(arr, {"g_plus": arr["gain"], "g_minus": arr["gain"]}, tol)
        elif inv.check == "mz_exact":
            got = {"g_plus": arr["g_plus"], "g_minus": arr["g_minus"],
                   "fidelity": np.array([float(row["fidelity"]) for row in rows])}
            errors += refmodel.compare(got, {"g_plus": ones, "g_minus": ones, "fidelity": ones}, tol)
        elif inv.check == "reference":
            want = refmodel.single_ff(inv.params["v_sq"], inv.params["v_n"], arr["reflectivity"], arr["gain"])
            errors += refmodel.compare(refmodel.rows_as_arrays(rows), want, tol)
        return errors


WORKLOADS = {cls.name: cls for cls in (FigureGrids, OracleSampling, ConfigMix)}
