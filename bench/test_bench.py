"""Tests of the benchmark's own logic: tracing arithmetic, throughput,
seeded config generation, the reference model and its checks."""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import refmodel
import run
import steady
import workloads
from tracer import Tracer, traced_names

ROOT = Path(__file__).resolve().parent.parent


def _busy(seconds: float):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.layer`` defines nested functions; ``fakepkg.user``
    imported one of them by name, as the qss modules do."""
    pkg = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.layer")

    def leaf():
        _busy(0.002)

    def inner():
        _busy(0.001)
        layer.leaf()
        layer.leaf()

    def outer():
        _busy(0.001)
        layer.inner()
        user.inner()

    layer.leaf, layer.inner, layer.outer = leaf, inner, outer
    user = types.ModuleType("fakepkg.user")
    user.inner = inner
    for mod in (pkg, layer, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return layer, user


def test_self_times_add_up_under_nesting(fake_package):
    layer, user = fake_package
    originals = (layer.leaf, layer.inner, layer.outer, user.inner)
    tracer = Tracer("fakepkg", {"layer": ("outer", "inner", "leaf", "removed")})
    tracer.install()
    assert user.inner is not originals[3]  # rebound where it was imported too
    t0 = time.perf_counter_ns()
    tracer.span("root", lambda: layer.outer())
    wall = time.perf_counter_ns() - t0
    tracer.uninstall()

    assert (layer.leaf, layer.inner, layer.outer, user.inner) == originals
    assert tracer.calls == {"layer.outer": 1, "layer.inner": 2, "layer.leaf": 4,
                            "layer.removed": 0, "root": 1}
    total = sum(tracer.self_ns.values())
    assert abs(total - wall) <= 0.01 * wall
    assert tracer.self_ns["layer.leaf"] >= 4 * 2_000_000
    assert 2_000_000 <= tracer.self_ns["layer.inner"] < 4_000_000
    assert tracer.self_ns["layer.removed"] == 0


def test_throughput_is_work_over_median_pass():
    assert workloads.median_rate(100, [2.0, 1.0, 4.0]) == 50.0
    assert workloads.median_rate(100, [1.0, 2.0, 3.0, 10.0]) == 40.0  # median 2.5, not mean 4
    med, q1, q3, share = steady.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (med, q1, q3) == (3.0, 1.5, 4.5) and share == 1.0
    assert steady.worsening(100.0, 110.0, "lower") == pytest.approx(0.1)
    assert steady.worsening(100.0, 110.0, "higher") == pytest.approx(-0.1)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_config_generation_is_seeded(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    inv_a = workloads.generate_configs(7, dirs[0])
    inv_b = workloads.generate_configs(7, dirs[1])
    inv_c = workloads.generate_configs(8, dirs[2])
    a, b, c = (_files(d) for d in dirs)
    assert a == b
    assert [i.argv for i in inv_a] == [i.argv for i in inv_b] == [i.argv for i in inv_c]
    assert a.keys() == c.keys()
    changed = {name for name in a if a[name] != c[name]}
    assert changed == set(a) - {"bad_vsq.cfg", "bad_gain.json"}  # invalid inputs do not depend on the seed
    assert sum(i.expect_code == 2 for i in inv_a) == 2


def _rows_from(ref: dict, r, g) -> list[dict]:
    rows = []
    for i in range(len(r)):
        row = {f: float(ref[f][i]) for f in refmodel.ROW_FIELDS if not f.startswith("v_out")}
        row.update(reflectivity=float(r[i]), gain=float(g[i]))
        rows.append(row)
    return rows


def test_reference_check_flags_perturbed_fidelity():
    r, g = workloads.grid_points((0.0, 1.0, 5), (0.0, 6.0, 5))
    want = refmodel.single_ff(10.0 ** -0.45, 1.5, r, g)
    rows = _rows_from(want, r, g)
    assert refmodel.compare(refmodel.rows_as_arrays(rows), want) == []
    rows[7]["fidelity"] += 1e-6
    errors = refmodel.compare(refmodel.rows_as_arrays(rows), want)
    assert len(errors) == 1 and errors[0].startswith("fidelity[7]")


def test_frontier_check_flags_dominated_and_foreign_points():
    t = np.array([0.5, 1.0, 1.5, 1.2])
    v = np.array([0.1, 0.2, 0.6, 0.7])
    assert refmodel.frontier_errors([(0.5, 0.1), (1.0, 0.2), (1.5, 0.6)], t, v) == []
    assert "dominated" in refmodel.frontier_errors([(1.2, 0.7)], t, v)[0]
    assert "not a grid point" in refmodel.frontier_errors([(0.7, 0.1)], t, v)[0]
    assert "monotone" in refmodel.frontier_errors([(1.0, 0.2), (0.5, 0.1)], t, v)[0]


def test_oracle_check_judges_moments_not_coefficients():
    assert workloads.oracle_errors("x", 3, 3, ["coeff.plus", "coeff.minus"], 7.0) == []
    assert workloads.oracle_errors("x", 3, 2, [], 2.0)
    assert workloads.oracle_errors("x", 1, 1, ["variance.plus"], 6.0)


def _qss():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from qss import cli, harness
    return harness, cli


def test_reference_model_matches_qss():
    harness, _ = _qss()
    v_sq, v_n = 10.0 ** -0.35, 2.2
    cfg = harness.ExperimentConfig(protocol="single_ff", v_sq=v_sq, v_n=v_n,
                                   sweep_reflectivity=harness.SweepAxis(0.0, 1.0, 6),
                                   sweep_gain=harness.SweepAxis(0.0, 6.0, 6))
    r, g = workloads.grid_points((0.0, 1.0, 6), (0.0, 6.0, 6))
    got = refmodel.rows_as_arrays(harness.run(cfg).rows)
    assert refmodel.compare(got, refmodel.single_ff(v_sq, v_n, r, g)) == []


def test_config_mix_pass_checks_clean_and_counts_invalid_configs(tmp_path):
    harness, cli = _qss()
    mix = workloads.ConfigMix(seed=3)
    results = [op() for op in mix.operations(harness, cli, mix.build(harness, cli, tmp_path))]
    assert len(results) == mix.ops_per_pass
    assert mix.failed(results) == sum(inv.expect_code != 0 for inv in mix.invocations) == 2
    assert mix.check(results) == []


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {f"{n}.calls": "count" for n in traced_names()}
    expected.update({f"{n}.self_ms": "ms" for n in traced_names()})
    expected.update(run.TRACE_UNITS)
    assert per_layer == expected
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
