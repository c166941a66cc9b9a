#!/usr/bin/env python3
"""Regenerate the data behind every figure preset as CSV files.

Usage:
    python3 scripts/reproduce_figures.py [OUT_DIR]

OUT_DIR defaults to ./figure_data (or $QSS_OUT_DIR if set).
"""

import os
import sys

from qss import harness


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.join(harness.default_out_dir(), "figure_data")
    os.makedirs(out_dir, exist_ok=True)
    for name in sorted(harness.PRESETS):
        cfg = harness.preset_config(name)
        result = harness.run(cfg)
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(harness.rows_to_csv(result))
        extras = {k: v for k, v in result.summary.items()
                  if isinstance(v, float)}
        summary = ", ".join(f"{k}={v:.4f}" for k, v in sorted(extras.items()))
        print(f"{name}: {len(result.rows)} rows -> {path}")
        if summary:
            print(f"    {summary}")
        # accessible-region frontier for the sweep presets
        if cfg.sweep_gain or cfg.sweep_reflectivity:
            frontier = harness.region_boundary(cfg)
            fpath = os.path.join(out_dir, f"{name}_frontier.csv")
            with open(fpath, "w", encoding="utf-8") as fh:
                fh.write("signal_transfer,added_noise\n")
                fh.writelines(f"{t:.9g},{v:.9g}\n" for t, v in frontier)
            print(f"    frontier: {len(frontier)} points -> {fpath}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
