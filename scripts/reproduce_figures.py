#!/usr/bin/env python3
"""Regenerate every figure-level dataset in one pass.

Runs the full pipeline into an output directory:

  1. calibrate the noisy detector regime (weights, histograms, fringe),
  2. ideal sensitivity + bias scans over the 19-point default grid,
  3. noisy sensitivity + bias scans (Bayes and YMK),
  4. CRLB curves for the ideal model and for the configured misread
     channel (``paper_regime``, not the channel fitted in step 1).

Everything is seeded, so reruns reproduce identical CSVs. Plot the
outputs with any CSV-aware tool; angles in all files are in units of pi.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from mzbayes.cli import main as cli_main

IDEAL_GRID = [round(0.05 * k, 2) for k in range(1, 20)]
NOISY_GRID = [0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
              0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.98]


def build_configs(out_dir: Path, p: int, replicas: int) -> dict[str, Path]:
    ideal = {
        "model": {"nbar": 1.08},
        "plan": {"theta_grid_pi": IDEAL_GRID, "p": p, "replicas": replicas,
                 "estimators": ["bayes", "classical"]},
        "fisher": {"theta_grid_pi": IDEAL_GRID},
    }
    noisy = {
        "model": {"nbar": 1.08},
        "noise": {"kind": "paper_regime"},
        "calibration": {"pulses_per_phase": 200_000},
        "plan": {"theta_grid_pi": NOISY_GRID, "p": p, "replicas": replicas,
                 "estimators": ["bayes", "ymk"]},
        "fisher": {"theta_grid_pi": NOISY_GRID},
    }
    paths = {}
    for name, doc in [("ideal", ideal), ("noisy", noisy)]:
        path = out_dir / f"config_{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        paths[name] = path
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=None,
                        help="output directory (default: temp dir, printed)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pulses", type=int, default=1000,
                        help="pulses per estimation")
    parser.add_argument("--replicas", type=int, default=150)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir) if args.out_dir else Path(
        tempfile.mkdtemp(prefix="mzbayes_figures_")
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = build_configs(out_dir, args.pulses, args.replicas)

    common = ["--seed", str(args.seed)] + (["--quiet"] if args.quiet else [])
    steps = [
        ("calibrate", ["calibrate"], "noisy"),
        ("ideal sensitivity", ["scan", "sensitivity"], "ideal"),
        ("ideal bias", ["scan", "bias"], "ideal"),
        ("noisy sensitivity", ["scan", "sensitivity"], "noisy"),
        ("noisy bias", ["scan", "bias"], "noisy"),
        ("ideal CRLB", ["fisher"], "ideal"),
        ("noisy CRLB", ["fisher"], "noisy"),
    ]
    for label, command, name in steps:
        if not args.quiet:
            print(f"--- {label} ---")
        paths = ["--config", str(configs[name]), "--out-dir", str(out_dir / name)]
        code = cli_main(command + paths + common)
        if code != 0:
            print(f"step '{label}' failed with exit code {code}", file=sys.stderr)
            return code
    print(f"all datasets written under {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
