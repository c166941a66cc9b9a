import dataclasses
import json
import statistics

import pytest

from qss import cli, harness, modes
from qss.harness import (
    ConfigError,
    ExperimentConfig,
    SweepAxis,
    build_pipeline,
    compare_mode_to_samples,
    config_from_mapping,
    oracle_check,
    parse_config_text,
    pareto_frontier,
    preset_config,
    region_boundary,
    rows_to_csv,
    run,
)
from qss.modes import CHUNK_SHOTS, PLUS, QuadratureMode
from qss.protocols import make_report


def small_adversary_config(**kw):
    return ExperimentConfig(
        protocol="adversary_1",
        v_sq=0.354813,
        sweep_v_n=SweepAxis(0.0, 10.0, 5),
        **kw,
    )


# -- config parsing ----------------------------------------------------------


def test_parse_config_text():
    text = """
    # comment
    protocol.name = single_ff
    dealer.v_sq_db = -4.5   # squeezing
    protocol.unity_gain = true
    oracle.shots = 5000
    """
    mapping = parse_config_text(text)
    assert mapping["protocol.name"] == "single_ff"
    assert mapping["dealer.v_sq_db"] == -4.5
    assert mapping["protocol.unity_gain"] is True
    assert mapping["oracle.shots"] == 5000


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("this is not a key value line")


def test_config_from_mapping_db_conversion():
    cfg = config_from_mapping({"dealer.v_sq_db": -3.0})
    assert cfg.v_sq == pytest.approx(0.501187, rel=1e-5)


def test_config_rejects_db_and_linear_together():
    with pytest.raises(ConfigError):
        config_from_mapping({"dealer.v_sq": 0.5, "dealer.v_sq_db": -3.0})


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_mapping({"dealer.bogus": 1})


def test_config_sweep_requires_bounds():
    with pytest.raises(ConfigError):
        config_from_mapping({"sweep.gain.start": 0.0})
    cfg = config_from_mapping({"sweep.gain.start": 0.0, "sweep.gain.stop": 2.0, "sweep.gain.steps": 3})
    assert cfg.sweep_gain.values() == [0.0, 1.0, 2.0]


def test_config_validation():
    with pytest.raises(ConfigError):
        config_from_mapping({"protocol.name": "nope"})
    with pytest.raises(ConfigError):
        config_from_mapping({"protocol.player": 3})


def test_load_json_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"protocol.name": "mz", "dealer.v_n": 2.0}))
    cfg = config_from_mapping(harness.load_config_file(str(path)))
    assert cfg.protocol == "mz" and cfg.v_n == 2.0


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_config("fig99")


# -- sweeps and output -------------------------------------------------------


def test_run_is_deterministic_and_byte_identical():
    cfg = small_adversary_config()
    a = rows_to_csv(*_cols_rows(run(cfg)))
    b = rows_to_csv(*_cols_rows(run(cfg)))
    assert a == b
    assert a.splitlines()[0].startswith("protocol,reflectivity,gain,v_n,")


def _cols_rows(result):
    return result.columns, result.rows


def test_csv_uses_nine_significant_digits():
    cfg = small_adversary_config()
    text = rows_to_csv(*_cols_rows(run(cfg)))
    first = text.splitlines()[1].split(",")
    g_plus = first[4]
    assert g_plus == "0.707106781"


def test_run_summary_fields():
    cfg = small_adversary_config()
    result = run(cfg)
    assert result.summary["rows"] == 5
    assert result.summary["failed_rows"] == 0
    assert "best_fidelity" in result.summary
    assert result.summary["bound_violations"] == 0


def test_adversary_rows_monotone_in_noise():
    result = run(small_adversary_config())
    t = [r["signal_transfer"] for r in result.rows]
    v = [r["added_noise"] for r in result.rows]
    assert all(a > b for a, b in zip(t, t[1:]))
    assert all(a < b for a, b in zip(v, v[1:]))


def test_json_output_roundtrips():
    result = run(small_adversary_config())
    payload = json.loads(harness.result_to_json(result))
    assert payload["columns"] == result.columns
    assert len(payload["rows"]) == 5


def test_double_ff_unreachable_gain_marks_row():
    # At zero reflectivity the measured beams carry no secret, so the
    # feed-forward cannot move the optical gain.
    cfg = ExperimentConfig(protocol="double_ff", reflectivity=0.0, gain=1.0)
    result = run(cfg)
    assert result.summary["failed_rows"] == 1
    assert "error" in result.rows[0]


# -- Pareto frontier ---------------------------------------------------------


def test_pareto_frontier_dominance():
    pts = [(1.0, 1.0), (0.5, 0.5), (1.0, 0.8), (0.2, 2.0), (0.9, 0.4)]
    frontier = pareto_frontier(pts)
    assert frontier == [(0.9, 0.4), (1.0, 0.8)]
    assert frontier == sorted(frontier)


def test_pareto_frontier_tie_breaks_toward_lower_v():
    frontier = pareto_frontier([(1.0, 0.6), (1.0, 0.4)])
    assert frontier == [(1.0, 0.4)]


def test_region_boundary_classical_limits():
    cfg = ExperimentConfig(
        protocol="single_ff",
        v_sq=1.0,
        sweep_reflectivity=SweepAxis(0.0, 1.0, 11),
        sweep_gain=SweepAxis(0.0, 4.0, 11),
    )
    frontier = region_boundary(cfg)
    assert frontier
    for t, v in frontier:
        assert t <= 1.0 + 1e-9
        assert v >= 0.25 - 1e-9


# -- Monte Carlo oracle ------------------------------------------------------


def test_oracle_passes_on_honest_pipeline():
    cfg = dataclasses.replace(small_adversary_config(), shots=100_000, oracle_rows=1)
    report = oracle_check(cfg)
    assert report.passed
    assert report.worst_z < 5.0
    assert report.rows_checked == 1


def test_oracle_localises_corrupted_coefficient():
    # Negative control: predictions from a deliberately corrupted mode
    # must fail against honest samples, naming the corrupted axis.
    cfg = ExperimentConfig(protocol="pia", v_sq=0.354813, v_n=2.23872)
    pipe = build_pipeline(cfg, None, None, None)
    honest = pipe.raw
    sqz_id = next(aid for aid, ax in honest.axes.items() if ax.label == "sqz2.plus")
    corrupted_coeffs = dict(honest.coeff_plus)
    corrupted_coeffs[sqz_id] = corrupted_coeffs.get(sqz_id, 0.0) + 0.2
    corrupted = QuadratureMode(
        honest.mean_plus, honest.mean_minus,
        corrupted_coeffs, dict(honest.coeff_minus), dict(honest.axes))
    findings = compare_mode_to_samples(corrupted, honest, 200_000, seed=11)
    bad = [f for f in findings if abs(f.z) >= 5.0]
    assert bad
    assert any(f.axis_label == "sqz2.plus" and f.quantity == "coeff.plus" for f in bad)
    # the conjugate quadrature stays clean
    assert all(not f.quantity.endswith(".minus") for f in bad
               if f.quantity.startswith("coeff"))


def test_oracle_coefficient_z_has_unit_spread():
    # The secret axes dominate the mz output, so a standard error that
    # left out the estimate's own spread would inflate their z about 7x.
    cfg = preset_config("fig3b-inset-mz")
    pipe = build_pipeline(cfg, None, None, cfg.sweep_v_n.start)
    zs = [f.z for seed in range(40)
          for f in compare_mode_to_samples(pipe.raw, pipe.raw, 20_000, seed)
          if (f.quantity, f.axis_label) in {("coeff.plus", "secret.plus"), ("coeff.minus", "secret.minus")}]
    assert len(zs) == 80
    assert 0.7 <= statistics.stdev(zs) <= 1.3


def _weighted_ids(mode):
    return {aid for coeffs in (mode.coeff_plus, mode.coeff_minus) for aid, c in coeffs.items() if c}


def test_oracle_draws_only_weighted_axes(monkeypatch):
    drawn = []
    real = harness.draw_axes
    monkeypatch.setattr(harness, "draw_axes", lambda axes, *a: drawn.append(axes) or real(axes, *a))
    cfg = preset_config("fig3b-inset-mz")
    pipe = build_pipeline(cfg, None, None, cfg.sweep_v_n.start)
    compare_mode_to_samples(pipe.raw, pipe.raw, 10_000, 1)
    weighted = _weighted_ids(pipe.raw)
    assert len(pipe.raw.axes) > len(weighted)
    assert sorted(ax.id for ax in drawn[0]) == sorted(weighted)


def test_oracle_reports_identical_for_any_worker_count(monkeypatch):
    cfg = dataclasses.replace(small_adversary_config(), shots=3 * CHUNK_SHOTS + 1, oracle_rows=2)
    pipe = build_pipeline(cfg, None, None, 10.0)
    runs = []
    for cpus in (1, 3):
        monkeypatch.setattr(modes, "_usable_cpus", lambda cpus=cpus: cpus)
        runs.append((oracle_check(cfg), compare_mode_to_samples(pipe.raw, pipe.raw, cfg.shots, 4)))
    assert runs[0] == runs[1]


def test_axis_names_are_unique_when_labels_collide():
    # At gain 10, fig3b's output carries two axes labelled mm_ff_bs.plus.
    pipe = build_pipeline(preset_config("fig3b"), None, 10.0, None)
    assert len(_weighted_ids(pipe.raw)) == 19
    assert len(make_report(pipe.secret, pipe.raw).coefficients) == 19
    findings = compare_mode_to_samples(pipe.raw, pipe.raw, 10_000, 2)
    pairs = [(f.quantity, f.axis_label) for f in findings]
    assert len(pairs) == len(set(pairs)) == 4 + 2 * 19


def test_oracle_requires_enough_shots():
    with pytest.raises(ConfigError):
        oracle_check(dataclasses.replace(small_adversary_config(), shots=100))


# -- CLI ---------------------------------------------------------------------


def test_cli_run_preset_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = cli.main(["run", "--preset", "fig5-adversary", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.split(",") == harness.CSV_COLUMNS


def test_cli_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUT_DIR_ENV, str(tmp_path))
    code = cli.main(["run", "--preset", "fig5-adversary", "--out", "sub/rows.csv"])
    assert code == 0
    assert (tmp_path / "sub" / "rows.csv").exists()


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dealer.bogus = 1\n")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_oracle_failure_exit_code(monkeypatch, capsys):
    failed = harness.OracleReport(False, 9.0, "variance.plus", [], {}, 1)
    monkeypatch.setattr(harness, "oracle_check", lambda cfg: failed)
    assert cli.main(["oracle", "--preset", "fig5-adversary"]) == 3


def test_cli_bound_violation_exit_code(monkeypatch, capsys):
    violating = {c: 0.0 for c in harness.CSV_COLUMNS}
    violating.update(protocol="single_ff", fidelity_unity=0.9, f_classical_max=0.5,
                     signal_transfer=0.0, t_classical_max=1.0,
                     added_noise=1.0, v_classical_min=0.25)
    fake = harness.RunResult(harness.CSV_COLUMNS, [violating],
                             {"classical_mode": True, "bound_violations": 1})
    monkeypatch.setattr(harness, "run", lambda cfg, with_oracle=False: fake)
    assert cli.main(["run", "--preset", "fig4a-classical"]) == 4


def test_cli_region_and_presets(capsys):
    assert cli.main(["presets"]) == 0
    listed = capsys.readouterr().out
    assert "summary" in listed
    assert cli.main(["region", "--preset", "fig4a-classical", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["frontier"]


def test_cli_seed_and_shots_override():
    cfg = preset_config("fig5-adversary")
    args = cli._build_parser().parse_args(
        ["run", "--preset", "fig5-adversary", "--seed", "7", "--shots", "20000"])
    loaded = cli._load_config(args)
    assert loaded.seed == 7 and loaded.shots == 20000
    assert cfg.seed != 7 or cfg.shots != 20000
