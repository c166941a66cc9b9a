"""Command-line front end.

Subcommands:

* ``run``     evaluate a sweep from a config file or preset and write CSV/JSON
* ``region``  Pareto frontier of the accessible (T, V) region
* ``oracle``  Monte Carlo cross-check of the analytic moments
* ``presets`` list the built-in figure/experiment presets

Exit codes: 0 success, 2 configuration error, 3 oracle failure,
4 classical-bound violation in a classical-mode run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import harness
from .harness import (
    ConfigError,
    EXIT_BOUND_VIOLATION,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_ORACLE_FAILURE,
    ExperimentConfig,
    PRESETS,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qss",
        description="Simulator for (2,3) continuous-variable quantum state sharing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--config", help="path to a dotted-key or JSON config file")
            src.add_argument("--preset", choices=sorted(PRESETS), help="built-in configuration")
        p.add_argument("--out", help="output file (default: stdout; relative paths resolve "
                                     f"against ${harness.OUT_DIR_ENV} if set)")
        p.add_argument("--seed", type=int, help="override the sampling seed")
        p.add_argument("--shots", type=int, help="override the Monte Carlo shot count")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

    p_run = sub.add_parser("run", help="evaluate a parameter sweep")
    add_common(p_run)
    p_run.add_argument("--with-oracle", action="store_true",
                       help="also sample selected rows and report the worst z-score")

    p_region = sub.add_parser("region", help="accessible (T, V) frontier")
    add_common(p_region)

    p_oracle = sub.add_parser("oracle", help="Monte Carlo cross-check")
    add_common(p_oracle)

    p_presets = sub.add_parser("presets", help="list built-in presets")
    p_presets.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


_PARSER = _build_parser()


def _load_config(args) -> ExperimentConfig:
    if getattr(args, "preset", None):
        cfg = harness.preset_config(args.preset)
    else:
        cfg = harness.config_from_mapping(harness.load_config_file(args.config))
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.shots is not None:
        overrides["shots"] = args.shots
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _write(args, text: str):
    if not args.out:
        sys.stdout.write(text)
        return
    path = args.out
    if not os.path.isabs(path):
        path = os.path.join(harness.default_out_dir(), path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}", file=sys.stderr)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    result = harness.run(cfg, with_oracle=args.with_oracle)
    if args.format == "json":
        _write(args, harness.result_to_json(result))
    else:
        _write(args, harness.rows_to_csv(result))
    for i, error in sorted(result.errors.items()):
        print(f"row {i}: {error}", file=sys.stderr)
    for key, value in sorted(result.summary.items()):
        print(f"{key}: {value}", file=sys.stderr)
    if result.summary.get("classical_mode") and result.summary["bound_violations"]:
        print("error: classical-mode run exceeds a classical bound", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def _cmd_region(args) -> int:
    cfg = _load_config(args)
    frontier = harness.region_boundary(cfg)
    if args.format == "json":
        _write(args, json.dumps(
            {"frontier": [{"signal_transfer": t, "added_noise": v} for t, v in frontier]},
            indent=2) + "\n")
    else:
        lines = ["signal_transfer,added_noise"]
        lines += [f"{t:.9g},{v:.9g}" for t, v in frontier]
        _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg = _load_config(args)
    report = harness.oracle_check(cfg)
    payload = {
        "passed": report.passed,
        "worst_z": report.worst_z,
        "worst_quantity": report.worst_quantity,
        "rows_checked": report.rows_checked,
        "findings": [
            {"row": f.row, "quantity": f.quantity, "axis": f.axis_label, "z": f.z}
            for f in report.findings
        ],
    }
    _write(args, json.dumps(payload, indent=2) + "\n")
    if not report.passed:
        print(f"error: oracle deviation z={report.worst_z:.2f} on {report.worst_quantity}",
              file=sys.stderr)
        return EXIT_ORACLE_FAILURE
    return EXIT_OK


def _cmd_presets(args) -> int:
    if args.format == "json":
        payload = {name: dataclasses.asdict(PRESETS[name]()) for name in sorted(PRESETS)}
        sys.stdout.write(json.dumps(payload, indent=2, default=str) + "\n")
    else:
        for name in sorted(PRESETS):
            cfg = PRESETS[name]()
            print(f"{name}: protocol={cfg.protocol} v_sq={cfg.v_sq:.6g} v_n={cfg.v_n:.6g}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    handlers = {"run": _cmd_run, "region": _cmd_region, "oracle": _cmd_oracle, "presets": _cmd_presets}
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
