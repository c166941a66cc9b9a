"""Steadiness of one workload across seeds.

    python3 bench/steady.py --workload figure-grids --runs 10 [--first-seed 1]
                            [--seconds S] [--against bench/results/steady-....json]

Runs ``bench/run.py`` K times in sequence, one seed each, and prints for
every end-to-end metric its median, quartiles, quartile spread as a
share of the median, and max/min ratio next to the bound in
``BENCHMARK.json``.  A spread under a third of the bound is steady.
``--against`` also prints how far each median moved from an earlier
set, which must stay within the bound.  Results go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) with the driver's quartiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worsening(before: float, after: float, better: str) -> float:
    """Share by which ``after`` is worse than ``before`` (negative: better)."""
    return (after - before) / before if better == "lower" else (before - after) / before


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--against", type=Path, help="an earlier steady-*.json of the same workload")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        runs.append(run_once(args.workload, seed, args.seconds, 0))
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()),
              file=sys.stderr)

    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else None
    shares = {r["failed"] / r["attempted"] for r in runs}
    summary = {"workload": args.workload, "seconds": args.seconds,
               "seeds": [args.first_seed, args.first_seed + args.runs - 1],
               "failed_shares": sorted(shares), "metrics": {}}
    steady = all(r["correct"] for r in runs) and len(shares) == 1
    print(f"{args.workload}: {args.runs} runs of {args.seconds} s, failed share {sorted(shares)}")
    print(f"{'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'max/min':>9}{'bound':>7}  verdict")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med, q1, q3, iqr = spread(values)
        verdict = "steady" if iqr < m["bound"] / 3 else ("within" if iqr <= m["bound"] else "WIDE")
        if m["name"] == "setup_s":
            verdict += " (spread not gated)"
        elif iqr > m["bound"]:
            steady = False
        line = (f"{m['name']:<20}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{iqr:>9.3f}"
                f"{max(values) / min(values):>9.3f}{m['bound']:>7.2f}  {verdict}")
        if earlier:
            moved = worsening(earlier["metrics"][m["name"]]["median"], med, m["better"])
            line += f"; worse than earlier set by {moved:+.3f}"
            steady &= moved <= m["bound"]
        print(line)
        summary["metrics"][m["name"]] = {"values": values, "median": med, "q1": q1, "q3": q3,
                                         "spread": iqr, "bound": m["bound"]}
    out = HERE / "results" / f"steady-{args.workload}-seeds{args.first_seed}-{args.first_seed + args.runs - 1}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
