import dataclasses
import gc
import json
import math
import statistics
import tracemalloc

import numpy as np
import pytest

from qss import cli, harness, oracle, protocols
from qss.harness import (
    ConfigError,
    ExperimentConfig,
    SweepAxis,
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
from qss.metrics import metrics_report, unity_corrected_fidelity
from qss.modes import LinearForm, QuadratureMode, mode_axes
from qss.oracle import weighted_axes
from qss.protocols import classical_bounds, dealer_encode, make_report


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
    cfg = config_from_mapping({"sweep.gain.start": 0.0, "sweep.gain.stop": 2.0})
    assert cfg.sweep_gain.steps == SweepAxis(0.0, 2.0).steps


def test_integer_keys_accept_integral_floats():
    cfg = config_from_mapping({**parse_config_text("oracle.shots = 1e6\nprotocol.player = 1.0"),
                               "oracle.seed": 7.0, "oracle.rows": 2,
                               "sweep.v_n.start": 0, "sweep.v_n.stop": 1, "sweep.v_n.steps": 3.0})
    got = (cfg.shots, cfg.player, cfg.seed, cfg.oracle_rows, cfg.sweep_v_n.steps)
    assert got == (1_000_000, 1, 7, 2, 3)
    assert all(type(v) is int for v in got)


def test_config_validation():
    with pytest.raises(ConfigError):
        config_from_mapping({"protocol.name": "nope"})
    with pytest.raises(ConfigError):
        config_from_mapping({"protocol.player": 3})


def test_unity_gain_accepts_only_true_or_false():
    for value, want in ((True, True), ("false", False), ("FALSE", False), ("True", True)):
        assert config_from_mapping({"protocol.unity_gain": value}).unity_gain is want
    for value in ("no", 1, 0, None):
        with pytest.raises(ConfigError, match="expected true or false"):
            config_from_mapping({"protocol.unity_gain": value})
    assert parse_config_text("protocol.unity_gain = False")["protocol.unity_gain"] is False


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
    a = rows_to_csv(run(cfg))
    b = rows_to_csv(run(cfg))
    assert a == b
    assert a.splitlines()[0].startswith("protocol,reflectivity,gain,v_n,")


def test_csv_uses_nine_significant_digits():
    cfg = small_adversary_config()
    text = rows_to_csv(run(cfg))
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
    assert all("error" not in row for row in payload["rows"])


def _rowwise_csv(result):
    """The row-dict CSV writer that the column writer replaced: the
    reference it must match byte for byte."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        if isinstance(value, float):
            return "nan" if math.isnan(value) else f"{value:.9g}"
        return str(value)
    lines = [",".join(result.columns)]
    lines += [",".join(cell(row.get(c)) for c in result.columns) for row in result.rows]
    return "\n".join(lines) + "\n"


def _hand_made_result():
    """Two rows: a good one and a failed one whose reason needs escaping,
    with a negative NaN in a float and in an object column."""
    data = {c: np.array([0.1 + 0.2, -np.nan]) for c in harness.CSV_COLUMNS}
    data.update(protocol=np.array(["pia", "pia"]), oracle_max_z=np.array([1.25, -math.nan], dtype=object))
    return harness.RunResult(harness.CSV_COLUMNS, data, {"rows": 2, "failed_rows": 1},
                             {1: 'a "quote", a \\ backslash,\na newline and \u00e9'})


WRITER_CASES = {
    "pia": lambda: run(ExperimentConfig(protocol="pia", v_sq=0.3, sweep_gain=SweepAxis(0.0, 3.0, 4))),
    "summary": lambda: run(preset_config("summary")),
    "no-rows": lambda: harness.RunResult(
        harness.CSV_COLUMNS, {c: np.array([]) for c in harness.CSV_COLUMNS}, {"rows": 0}),
    "hand-made": _hand_made_result,
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_writers_match_the_reference_encoders(case):
    result = WRITER_CASES[case]()
    assert bool(result.errors) == (case in ("pia", "hand-made"))
    payload = {"columns": result.columns, "rows": list(result.rows), "summary": result.summary}
    assert harness.result_to_json(result) == json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"
    assert rows_to_csv(result) == _rowwise_csv(result)


def _one_row(cfg, **knobs):
    """The raw output and secret of ``cfg`` built alone at ``knobs``, with
    its sweeps removed."""
    cfg = dataclasses.replace(cfg, sweep_gain=None, sweep_reflectivity=None, sweep_v_n=None, **knobs)
    live, secret, raw, _, errors = harness._build(cfg, *harness._grid(cfg))
    assert live.tolist() == [0] and not errors
    return raw, secret


def test_every_protocol_has_a_builder():
    assert set(harness._BUILDERS) == set(harness.PROTOCOLS) - {"summary"}
    for name in harness._BUILDERS:
        cfg = ExperimentConfig(protocol=name)
        grid = harness._grid(cfg)
        assert [k.tolist() for k in grid] == [[k] for k in harness._knobs(cfg)]
        live, _, raw, corrected, errors = harness._build(cfg, *grid)
        assert live.tolist() == [0] and errors == {}, name
        assert (corrected is raw) == (name != "single_ff"), name


def test_double_ff_unreachable_gain_marks_row():
    # At zero reflectivity the measured beams carry no secret, so the
    # feed-forward cannot move the optical gain.
    cfg = ExperimentConfig(protocol="double_ff", reflectivity=0.0, gain=1.0)
    result = run(cfg)
    assert result.summary["failed_rows"] == 1
    assert "error" in result.rows[0]


def _row_alone(cfg, knobs):
    """Row ``knobs`` (its one-entry r, g and v_n columns) built alone, on
    floats, and measured: its error message, or its metric cells."""
    live, secret, raw_out, corrected, errors = harness._build(cfg, *knobs)
    if errors:
        return errors[0]
    raw = make_report(secret, raw_out)
    rep = metrics_report(raw if corrected is raw_out else make_report(secret, corrected))
    f_max, t_max, v_min = classical_bounds(raw.g_plus, raw.g_minus)
    cells = {"g_plus": raw.g_plus, "g_minus": raw.g_minus, "gain_product": raw.gain_product,
             "fidelity_unity": unity_corrected_fidelity(raw),
             "f_classical_max": f_max, "t_classical_max": t_max, "v_classical_min": v_min}
    cells.update(vars(rep))
    return cells


BATCH_CASES = [
    ExperimentConfig(protocol="mz", sweep_v_n=SweepAxis(0.0, 2.0, 3), **harness.EXPERIMENT_KWARGS),
    ExperimentConfig(protocol="pia", v_sq=0.3, sweep_gain=SweepAxis(0.0, 3.0, 4)),  # gain 0 fails
    # Classical dealer: share 3 is correlated with the shares for v_n > 0 only.
    ExperimentConfig(protocol="pia", v_sq=1.0, sweep_v_n=SweepAxis(0.0, 2.0, 3)),
    ExperimentConfig(protocol="two_opa", v_sq=0.3, sweep_gain=SweepAxis(0.0, 6.0, 4)),  # gain 0 fails
    ExperimentConfig(protocol="single_ff", v_sq=0.3, sweep_reflectivity=SweepAxis(0.0, 1.0, 3),
                     sweep_gain=SweepAxis(0.0, 4.0, 3)),
    # Unity gain is unreachable at reflectivity 0 (g- = 0) and 1 (no feed-forward).
    ExperimentConfig(protocol="single_ff", unity_gain=True, sweep_reflectivity=SweepAxis(0.0, 1.0, 5),
                     **harness.EXPERIMENT_KWARGS),
    ExperimentConfig(protocol="single_ff", v_sq=1.0, sweep_v_n=SweepAxis(0.0, 2.0, 3)),
    # The optical gain is unreachable at reflectivity 0.
    ExperimentConfig(protocol="double_ff", v_sq=0.3, sweep_reflectivity=SweepAxis(0.0, 1.0, 5),
                     sweep_gain=SweepAxis(0.5, 1.5, 3)),
    ExperimentConfig(protocol="adversary_1", v_sq=0.3, sweep_v_n=SweepAxis(0.0, 3.0, 3)),
    ExperimentConfig(protocol="adversary_3", v_sq=0.3, sweep_v_n=SweepAxis(0.0, 3.0, 3)),
    # Unity gain without a mirror, through a lossy splitter and a noisy detector.
    ExperimentConfig(protocol="single_ff", unity_gain=True, v_sq=0.3, v_n=1.0, eta_recon_bs=0.97, eta_ff=0.93,
                     dark_noise=0.05, sweep_reflectivity=SweepAxis(0.0, 1.0, 5)),
]


@pytest.mark.parametrize("cfg", BATCH_CASES, ids=lambda cfg: cfg.protocol)
def test_batched_sweep_matches_rows_built_alone(cfg):
    result = run(cfg)
    grid = harness._grid(cfg)
    assert len(result.rows) == len(grid[0]) >= 3
    for i, row in enumerate(result.rows):
        alone = _row_alone(cfg, [k[i:i + 1] for k in grid])
        if isinstance(alone, str):
            assert row["error"] == alone
            continue
        assert "error" not in row
        for column, value in alone.items():
            np.testing.assert_array_max_ulp(row[column], value, maxulp=4)
    cells = [cell for line in rows_to_csv(result).splitlines() for cell in line.split(",")]
    assert "-0" not in cells


def test_batched_sweeps_fail_the_guarded_rows():
    pia, two_opa, double_ff = (run(BATCH_CASES[i]).errors for i in (1, 3, 7))
    assert pia == {0: "amplifier gain must be >= 1, got 0.0"}
    assert two_opa == {0: "amplifying gain must be > 0, got 0.0"}
    assert double_ff == {i: f"optical gain {g} is unreachable at reflectivity 0.0"
                         for i, g in enumerate((0.5, 1.0, 1.5))}
    for i in (5, 10):
        assert run(BATCH_CASES[i]).errors == dict.fromkeys((0, 4), "unity gain unreachable for this configuration")


@pytest.mark.parametrize("cfg, homodynes", [
    (ExperimentConfig(protocol="single_ff", unity_gain=True, sweep_reflectivity=SweepAxis(0.1, 0.9, 3),
                      **harness.EXPERIMENT_KWARGS), 1),
    (ExperimentConfig(protocol="single_ff", unity_gain=True), 1),
    (ExperimentConfig(protocol="double_ff", mirror_r=50.0 / 51.0, eta_ff=0.93, dark_noise=0.05,
                      sweep_gain=SweepAxis(0.5, 1.5, 3)), 2),
], ids=["single_ff-sweep", "single_ff-row", "double_ff-sweep"])
def test_feed_forward_gain_solves_measure_once_per_build(monkeypatch, cfg, homodynes):
    # The solved gains are read off the one build: no build at trial gains.
    calls, homodyne = [], protocols.homodyne
    monkeypatch.setattr(protocols, "homodyne", lambda *args: calls.append(args) or homodyne(*args))
    live, *_ = harness._build(cfg, *harness._grid(cfg))
    assert live.size == harness._grid(cfg)[0].size and len(calls) == homodynes


@pytest.mark.parametrize("preset", ["fig2b", "fig3b", "fig4a-classical", "summary"])
@pytest.mark.parametrize("protocol", ["pia", "two_opa", "single_ff", "double_ff"])
def test_players_1_and_2_give_the_same_row(preset, protocol):
    # The dealer treats shares 1 and 2 alike up to signs that share 3's
    # flip undoes, so either player's group reconstructs the same state.
    # This is why summary's F_avg counts F_23 for both {1,3} and {2,3}.
    base = dataclasses.replace(preset_config(preset), protocol=protocol, unity_gain=preset == "summary")
    (one, errors_one), (two, errors_two) = (harness._sweep(dataclasses.replace(base, player=p), *harness._grid(base))
                                            for p in (1, 2))
    assert errors_one == errors_two
    assert len(errors_one) < len(one["protocol"])
    for column in harness.CSV_COLUMNS[1:-1]:  # all but protocol and oracle_max_z
        np.testing.assert_allclose(one[column], two[column], rtol=1e-14, atol=0.0, err_msg=column)


def test_result_keeps_no_per_row_objects():
    # The rows of a result are made on access, so it holds a few arrays
    # rather than one dict and 19 floats per row (26,862 blocks for fig2a).
    tracemalloc.start()
    try:
        result = run(preset_config("fig2a"))
        gc.collect()
        kept = tracemalloc.take_snapshot()
        del result
        gc.collect()
        freed = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert sum(stat.count_diff for stat in kept.compare_to(freed, "filename")) < 1000


def test_constant_columns_are_read_only_views():
    result = run(preset_config("fig2a"))
    for column, value in (("protocol", "single_ff"), ("oracle_max_z", None)):
        col = result.data[column]
        assert col.shape == (1681,) and col.strides == (0,) and not col.flags.writeable
        assert col.tolist() == [value] * 1681
    with pytest.raises(ValueError, match="read-only"):
        result.data["protocol"][0] = "mz"


# -- Pareto frontier ---------------------------------------------------------


def test_pareto_frontier_dominance():
    t, v = np.array([1.0, 0.5, 1.0, 0.2, 0.9]), np.array([1.0, 0.5, 0.8, 2.0, 0.4])
    frontier = pareto_frontier(t, v)
    assert frontier == [(0.9, 0.4), (1.0, 0.8)]
    assert frontier == sorted(frontier)


def test_pareto_frontier_tie_breaks_toward_lower_v():
    frontier = pareto_frontier(np.array([1.0, 1.0]), np.array([0.6, 0.4]))
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


def test_region_boundary_rejects_summary():
    with pytest.raises(ConfigError, match="summary protocol has no sweep grid"):
        region_boundary(preset_config("summary"))


def test_cli_region_summary_exit_code(capsys):
    assert cli.main(["region", "--preset", "summary"]) == 2
    assert capsys.readouterr().err == "config error: the summary protocol has no sweep grid to bound\n"


# -- Monte Carlo oracle ------------------------------------------------------


def test_oracle_passes_on_honest_pipeline():
    cfg = dataclasses.replace(small_adversary_config(), shots=100_000, oracle_rows=1)
    report = oracle_check(cfg)
    assert report.passed
    assert report.worst_z < 5.0
    assert report.rows_checked == 1


def test_oracle_skips_exactly_the_failed_rows():
    # Rows 0, 2 and 3 are sampled; row 0 (gain 0) fails the amplifier's guard.
    cfg = dataclasses.replace(BATCH_CASES[1], shots=10_000, oracle_rows=3)
    report = oracle_check(cfg)
    assert report.rows_checked == 2
    assert sorted(report.row_z) == [2, 3]
    result = run(cfg, with_oracle=True)
    assert list(result.errors) == [0]
    z = result.data["oracle_max_z"]
    assert z[0] is None and z[1] is None and z.flags.writeable
    assert [z[2], z[3]] == [report.row_z[2], report.row_z[3]]
    cells = [line.split(",")[-1] for line in rows_to_csv(result).splitlines()[1:]]
    assert cells[:2] == ["", ""] and all(cells[2:])
    # When the only sampled row fails there is nothing to fill: the column stays a read-only view.
    z = run(dataclasses.replace(cfg, oracle_rows=1), with_oracle=True).data["oracle_max_z"]
    assert z.tolist() == [None] * 4 and not z.flags.writeable


def test_oracle_localises_corrupted_coefficient():
    # Negative control: predictions from a deliberately corrupted mode
    # must fail against honest samples, naming the corrupted axis.
    honest, _ = _one_row(ExperimentConfig(protocol="pia", v_sq=0.354813, v_n=2.23872))
    sqz = next(ax for ax in mode_axes(honest) if ax.label == "sqz2.plus")
    corrupted_coeffs = dict(honest.plus.coeffs)
    corrupted_coeffs[sqz] = corrupted_coeffs.get(sqz, 0.0) + 0.2
    corrupted = QuadratureMode(LinearForm(honest.plus.mean, corrupted_coeffs), honest.minus)
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
    raw, _ = _one_row(cfg, v_n=cfg.sweep_v_n.start)
    zs = [f.z for seed in range(40)
          for f in compare_mode_to_samples(raw, raw, 20_000, seed)
          if (f.quantity, f.axis_label) in {("coeff.plus", "secret.plus"), ("coeff.minus", "secret.minus")}]
    assert len(zs) == 80
    assert 0.7 <= statistics.stdev(zs) <= 1.3


def test_oracle_draws_only_weighted_axes(monkeypatch):
    # With no classical noise the N axes keep their coefficients but add
    # no variance, so they are not drawn.
    drawn = []
    real = oracle.draw_axes
    monkeypatch.setattr(oracle, "draw_axes", lambda axes, *a: drawn.append(axes) or real(axes, *a))
    raw, _ = _one_row(preset_config("fig3b"), gain=10.0, v_n=0.0)
    compare_mode_to_samples(raw, raw, 10_000, 1)
    axes = mode_axes(raw)
    assert {ax.label for ax in axes if ax not in drawn[0]} == {"N.plus", "N.minus"}
    assert drawn[0] == [ax for ax in axes if ax.variance > 0.0]


def test_oracle_needs_more_shots_than_drawn_axes():
    # One shot has no sample variance, and a scatter of no more shots
    # than axes is singular.
    raw, _ = _one_row(preset_config("fig3b"))
    m = len(weighted_axes([raw]))
    for n_shots in (1, m):
        with pytest.raises(ValueError, match="n_shots"):
            compare_mode_to_samples(raw, raw, n_shots, 0)
    assert compare_mode_to_samples(raw, raw, m + 1, 0)


@pytest.mark.parametrize("name, rows", [
    ("fig2a", 3), ("fig2b", 3), ("fig3a-classical", 3), ("fig3b", 3),
    ("fig3b-inset-mz", 1), ("fig4a-classical", 3), ("fig4b", 3), ("fig5-adversary", 3),
])
def test_oracle_passes_every_sweep_preset(name, rows):
    cfg = preset_config(name)
    assert cfg.shots == 1_000_000
    report = oracle_check(cfg)
    assert report.passed and report.rows_checked == rows


SWEEP_PRESETS = sorted(name for name in harness.PRESETS if name != "summary")


def _oracle_rows_built_alone(cfg):
    """Every finding of :func:`oracle_check`'s sampled rows, each row
    built alone with its own dealer, and each row's largest |z|."""
    grid = harness._grid(cfg)
    size = grid[0].size
    n_check = min(cfg.oracle_rows, size)
    findings, row_z = [], {}
    for i in sorted({round(i * (size - 1) / max(n_check - 1, 1)) for i in range(n_check)}):
        live, _, raw, _, _ = harness._build(cfg, *(k[i:i + 1] for k in grid))
        if live.size:
            fs = oracle.compare_mode_to_samples(raw, raw, cfg.shots, cfg.seed + i, row=i)
            row_z[i] = max(abs(f.z) for f in fs)
            findings += fs
    return findings, row_z


@pytest.mark.parametrize("name", SWEEP_PRESETS)
def test_oracle_rows_share_a_dealer_without_changing_a_z(monkeypatch, name):
    cfg = dataclasses.replace(preset_config(name), oracle_rows=7)
    want, want_row_z = _oracle_rows_built_alone(cfg)
    got, dealers = [], []
    monkeypatch.setattr(harness, "compare_mode_to_samples",
                        lambda *a, **k: got.extend(fs := compare_mode_to_samples(*a, **k)) or fs)
    monkeypatch.setattr(harness, "dealer_encode", lambda dealer: dealers.append(dealer.v_n) or dealer_encode(dealer))
    report = oracle_check(cfg)
    assert got == want
    assert report.row_z == want_row_z and report.rows_checked == len(want_row_z) == min(7, harness._grid(cfg)[0].size)
    worst = max(want, key=lambda f: abs(f.z))
    assert (report.worst_z, report.worst_quantity) == (abs(worst.z), worst.quantity)
    assert report.findings == [f for f in want if abs(f.z) >= 5.0]
    # One dealer per distinct v_n: fig5-adversary sweeps v_n, the other presets hold it.
    assert dealers == list(dict.fromkeys(harness._grid(cfg)[2][list(want_row_z)].tolist()))


def test_build_encodes_its_own_dealer_once_rows_fail():
    # A dealer handed to a batch serves its first attempt only; rows that
    # survive a failed guard are built again over a dealer of their own.
    cfg = BATCH_CASES[1]  # row 0 fails
    grid = harness._grid(cfg)
    shares = dealer_encode(cfg.dealer(grid[2]))
    live, secret, raw, _, errors = harness._build(cfg, *grid, shares)
    assert secret is not shares.secret
    live_alone, secret_alone, raw_alone, _, errors_alone = harness._build(cfg, *grid)
    assert live.tolist() == live_alone.tolist() == [1, 2, 3] and errors == errors_alone
    assert make_report(secret, raw).v_out_plus.tolist() == make_report(secret_alone, raw_alone).v_out_plus.tolist()


def test_lo_efficiency_is_the_electronic_gain_scaled_by_its_root():
    # eta_lo mode-matches the local oscillator that carries the
    # feed-forward: it scales the fed signal by sqrt(eta_lo), as the
    # electronic gain g sqrt(eta_lo) does at eta_lo = 1, and the vacuum
    # its loss admits replaces vacuum that the mirror admits anyway.
    cfg = preset_config("fig3b")
    ideal = dataclasses.replace(cfg, eta_lo=1.0)
    r, g, n = harness._grid(cfg)
    g_ideal = g * math.sqrt(cfg.eta_lo)
    assert cfg.eta_lo == 0.96 and cfg.mirror_r is not None
    reports = []
    for c, gain in ((cfg, g), (ideal, g_ideal)):
        live, secret, raw, _, errors = harness._build(c, r, gain, n)
        assert live.size == r.size and not errors
        reports.append(make_report(secret, raw))
    for moment in ("g_plus", "g_minus", "v_out_plus", "v_out_minus"):
        np.testing.assert_allclose(getattr(reports[0], moment), getattr(reports[1], moment), rtol=1e-15, atol=0)
    (data, _), (data_ideal, _) = harness._sweep(cfg, r, g, n), harness._sweep(ideal, r, g_ideal, n)
    gg = data_ideal["gain_product"]
    for column in set(harness.CSV_COLUMNS) - {"protocol", "gain", "oracle_max_z"}:
        # V_min = (1 - g+ g-)^2 magnifies the relative error of g+ g- by
        # 2 g+ g- / |1 - g+ g-|, about 400 near unity gain.
        rtol = 1e-15 * np.maximum(1.0, 2.0 * np.abs(gg / (1.0 - gg))) if column == "v_classical_min" else 1e-15
        assert np.all(np.abs(data[column] - data_ideal[column]) <= rtol * np.abs(data_ideal[column])), column


def test_axis_names_are_unique_when_labels_collide():
    # At gain 10, fig3b's output carries two axes labelled mm_ff_bs.plus.
    raw, secret = _one_row(preset_config("fig3b"), gain=10.0)
    assert len(mode_axes(raw)) == 19
    names = make_report(secret, raw).coefficients
    assert len(names) == 19
    assert {"mm_ff_bs.plus#1", "mm_ff_bs.plus#2", "mm_ff_bs.minus"} <= set(names)
    findings = compare_mode_to_samples(raw, raw, 10_000, 2)
    pairs = [(f.quantity, f.axis_label) for f in findings]
    assert len(pairs) == len(set(pairs)) == 4 + 2 * 19


def test_axis_names_do_not_depend_on_earlier_builds():
    def names():
        raw, secret = _one_row(preset_config("fig3b"), gain=10.0)
        return list(make_report(secret, raw).coefficients)

    first = names()
    _one_row(ExperimentConfig(protocol="double_ff", v_sq=0.5, v_n=1.0))
    assert names() == first


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


def test_failed_row_names_its_reason(tmp_path, capsys):
    cfg = tmp_path / "pia.cfg"
    cfg.write_text("protocol.name = pia\nprotocol.gain = 0\n")
    assert cli.main(["run", "--config", str(cfg), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    reason = "amplifier gain must be >= 1, got 0.0"
    assert json.loads(out)["rows"][0]["error"] == reason
    assert f"row 0: {reason}" in err.splitlines()
    assert "failed_rows: 1" in err.splitlines()


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dealer.bogus = 1\n")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("content, reason", [
    (b'{"protocol.name": "mz",\n', "Expecting property name enclosed in double quotes"),
    (b"protocol.name = mz\n# caf\xe9\n", "'utf-8' codec can't decode byte 0xe9"),
], ids=["malformed-json", "not-utf-8"])
def test_cli_undecodable_config_exit_code(tmp_path, capsys, content, reason):
    cfg = tmp_path / "undecodable.cfg"
    cfg.write_bytes(content)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: {cfg}: {reason}")


def test_cli_oracle_failure_exit_code(monkeypatch, capsys):
    failed = harness.OracleReport(False, 9.0, "variance.plus", [], {}, 1)
    monkeypatch.setattr(harness, "oracle_check", lambda cfg: failed)
    assert cli.main(["oracle", "--preset", "fig5-adversary"]) == 3


def test_cli_bound_violation_exit_code(monkeypatch, capsys):
    violating = {c: 0.0 for c in harness.CSV_COLUMNS}
    violating.update(protocol="single_ff", fidelity_unity=0.9, f_classical_max=0.5,
                     signal_transfer=0.0, t_classical_max=1.0,
                     added_noise=1.0, v_classical_min=0.25)
    fake = harness.RunResult(harness.CSV_COLUMNS, {c: np.array([v]) for c, v in violating.items()},
                             {"classical_mode": True, "bound_violations": 1})
    monkeypatch.setattr(harness, "run", lambda cfg, with_oracle=False: fake)
    assert cli.main(["run", "--preset", "fig4a-classical"]) == 4


def test_cli_classical_summary_checks_its_bounds(tmp_path, capsys):
    # A classical-mode run checks the bounds; the summary's average row
    # has none of its own, so it is never beyond one.
    cfg = tmp_path / "summary.cfg"
    cfg.write_text("protocol.name = summary\ndealer.v_sq = 1.0\n")
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert "classical_mode: True" in capsys.readouterr().err


def test_cli_region_and_presets(capsys):
    assert cli.main(["presets"]) == 0
    listed = capsys.readouterr().out
    assert "summary" in listed
    assert cli.main(["region", "--preset", "fig4a-classical", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["frontier"]


def test_cli_negative_seed_exit_code(tmp_path, capsys):
    assert cli.main(["oracle", "--preset", "fig3b-inset-mz", "--seed", "-1"]) == 2
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("protocol.name = mz\noracle.seed = -3\n")
    assert cli.main(["run", "--config", str(cfg), "--with-oracle"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: seed must be >= 0, got -1", "config error: seed must be >= 0, got -3"]


def test_summary_cannot_be_sampled(capsys):
    assert cli.main(["run", "--preset", "summary", "--with-oracle"]) == 2
    assert cli.main(["oracle", "--preset", "summary"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: the summary protocol has no sweep rows to sample"] * 2


def test_cli_parser_carries_nothing_between_calls(monkeypatch, capsys):
    parse = cli._PARSER.parse_args
    assert parse(["run", "--preset", "fig2a", "--with-oracle", "--format", "json"]).with_oracle
    args = parse(["run", "--preset", "fig2a"])
    assert args.with_oracle is False and args.format == "csv"
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--preset", "fig2a", "--config", "any.cfg"])
        assert exc.value.code == 2
    monkeypatch.setattr(cli, "_build_parser", lambda: pytest.fail("cli.main built a parser"))
    assert cli.main(["presets"]) == 0


def test_cli_seed_and_shots_override():
    cfg = preset_config("fig5-adversary")
    args = cli._build_parser().parse_args(
        ["run", "--preset", "fig5-adversary", "--seed", "7", "--shots", "20000"])
    loaded = cli._load_config(args)
    assert loaded.seed == 7 and loaded.shots == 20000
    assert cfg.seed != 7 or cfg.shots != 20000


@pytest.mark.parametrize("key", ["dealer.eta_epr1_in", "efficiencies.mz", "efficiencies.recon_bs",
                                 "efficiencies.lo", "detector.eta_ff"])
@pytest.mark.parametrize("eta", [1.5, 0.0])
def test_cli_efficiency_outside_unit_interval_exit_code(tmp_path, capsys, key, eta):
    cfg = tmp_path / "eta.cfg"
    cfg.write_text(f"protocol.name = single_ff\n{key} = {eta}\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {key} must be in (0, 1], got {eta}"]


@pytest.mark.parametrize("lines, message", [
    ("dealer.v_n = -1", "classical noise variance must be >= 0, got -1.0"),
    ("sweep.v_n.start = 2\nsweep.v_n.stop = -1\nsweep.v_n.steps = 4",
     "classical noise variance must be >= 0, got -1.0"),
    ("secret.mean_plus = 0", "secret means must be nonzero: signal transfer is undefined for a zero mean"),
    ("secret.mean_minus = 0", "secret means must be nonzero: signal transfer is undefined for a zero mean"),
    # These three used to fail at build time, with a ValueError traceback.
    ("dealer.v_sq = 0", "dealer.v_sq must be > 0, got 0.0"),
    ("dealer.v_sq_db = -4000", "dealer.v_sq must be > 0, got 0.0"),  # underflows to 0
    ("dealer.v_sq = 0.5\ndealer.v_anti = 0.1", "dealer.v_sq * dealer.v_anti must be >= 1, got 0.5 * 0.1"),
])
def test_cli_invalid_dealer_config_exit_code(tmp_path, capsys, lines, message):
    cfg = tmp_path / "dealer.cfg"
    cfg.write_text(f"protocol.name = mz\n{lines}\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]


_SWEEP = '"sweep.gain.start": 0, "sweep.gain.stop": 1'


@pytest.mark.parametrize("text, message", [
    ("protocol.player = 1.9", "protocol.player: expected an integer, got 1.9"),
    ('{"protocol.player": 1.9}', "protocol.player: expected an integer, got 1.9"),
    ('{"protocol.player": "two"}', "protocol.player: expected an integer, got 'two'"),
    ("protocol.player = two", "protocol.player: expected an integer, got 'two'"),
    ('{"protocol.player": true}', "protocol.player: expected an integer, got True"),
    ("oracle.shots = 1e6.5", "oracle.shots: expected an integer, got '1e6.5'"),
    ('{"oracle.seed": 1.5}', "oracle.seed: expected an integer, got 1.5"),
    ('{"oracle.rows": null}', "oracle.rows: expected an integer, got None"),
    ('{%s, "sweep.gain.steps": 2.7}' % _SWEEP, "sweep.gain.steps: expected an integer, got 2.7"),
    ('{%s, "sweep.gain.steps": "5"}' % _SWEEP, "sweep.gain.steps: expected an integer, got '5'"),
])
def test_cli_non_integer_count_exit_code(tmp_path, capsys, text, message):
    # A count that is not an integer used to be truncated or to end in a traceback.
    cfg = tmp_path / "count.cfg"
    cfg.write_text(text + "\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]


@pytest.mark.parametrize("rows", [0, -2])
def test_cli_oracle_rows_below_one_exit_code(tmp_path, capsys, rows):
    # Non-positive row counts used to be clamped to one checked row.
    cfg = tmp_path / "rows.cfg"
    cfg.write_text(f"protocol.name = mz\noracle.rows = {rows}\n")
    assert cli.main(["oracle", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: oracle rows must be >= 1, got {rows}"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["dealer.v_n", "secret.mean_plus", "protocol.gain", "dealer.v_n_db",
                                 "sweep.gain.start", "sweep.gain.stop"])
def test_cli_non_finite_number_exit_code(tmp_path, capsys, key, value, fmt):
    # NaN used to pass as a value and fill the output with NaN cells.
    mapping = {"protocol.name": "pia", "sweep.gain.start": 1.0, "sweep.gain.stop": 2.0, key: value}
    cfg = tmp_path / "finite.cfg"
    cfg.write_text(json.dumps(mapping) if fmt == "json" else "".join(f"{k} = {v}\n" for k, v in mapping.items()))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {key}: expected a finite number, got {value!r}"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("key", ["dealer.v_n", "protocol.gain", "dealer.v_n_db", "sweep.gain.start"])
def test_cli_bool_for_a_number_exit_code(tmp_path, capsys, key, fmt):
    # A bool used to pass as 1.0: {"dealer.v_n": true} ran at v_n = 1.
    mapping = {"protocol.name": "pia", "sweep.gain.start": 1.0, "sweep.gain.stop": 2.0, key: True}
    cfg = tmp_path / "bool.cfg"
    cfg.write_text(json.dumps(mapping) if fmt == "json" else "".join(f"{k} = {v}\n" for k, v in mapping.items()))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {key}: expected a number, got True"]


@pytest.mark.parametrize("key", ["dealer.v_sq_db", "dealer.v_anti_db", "dealer.v_n_db", "detector.dark_noise_db"])
def test_cli_overflowing_db_level_exit_code(tmp_path, capsys, key):
    # A finite level whose linear value overflows used to end in an OverflowError.
    cfg = tmp_path / "db.cfg"
    cfg.write_text(f"protocol.name = mz\n{key} = 4000\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {key}: a level of 4000 dB overflows"]


def test_cli_underflowing_noise_level_runs(tmp_path):
    # No classical noise is a valid dealer: a v_n level that underflows to 0 runs.
    cfg = tmp_path / "db.cfg"
    cfg.write_text("protocol.name = mz\ndealer.v_n_db = -4000\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
