"""Command-line front end.

One JSON config drives everything; angles in the config and in all
emitted CSVs are in units of pi. Subcommands:

  calibrate    simulate a calibration run and fit retrodictive weights
  scan         run a bias or sensitivity Monte Carlo scan
  fisher       tabulate Fisher information and the CRLB over a theta grid

Exit codes: 0 success, 2 config/usage error, 3 numerical or fit failure.
Outputs are written atomically (temp file + rename); a failing command
leaves no partial files behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from mzbayes.detector import (
    ConfusionModel,
    FitError,
    RetrodictiveWeights,
    fit_retrodictive_weights,
    noisy_joint_pmf,
    simulate_calibration,
)
from mzbayes.estimators import FringeParams, fit_fringe
from mzbayes.experiment import ExperimentPlan, bias_scan, sensitivity_scan
from mzbayes.fisher import DEFAULT_D_THETA, crlb_curve
from mzbayes.photon_model import InterferometerModel
from mzbayes.posterior import DegenerateEvidenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Bad or missing configuration."""


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(p) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _model_from_config(cfg: dict) -> InterferometerModel:
    section = cfg.get("model", {})
    try:
        return InterferometerModel(
            nbar=float(section.get("nbar", 1.08)),
            n_max=int(section.get("n_max", 25)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad model section: {exc}") from exc


def _noise_from_config(cfg: dict) -> ConfusionModel | None:
    section = cfg.get("noise")
    if section is None:
        return None
    kind = section.get("kind", "matrix")
    try:
        if kind == "identity":
            return ConfusionModel.identity(int(section.get("n_max", 4)))
        if kind == "paper_regime":
            return ConfusionModel.paper_regime(int(section.get("n_max", 4)))
        if kind == "matrix":
            return ConfusionModel(
                forward_c=np.array(section["forward_c"]),
                forward_d=np.array(section["forward_d"]),
                n_max=int(section.get("n_max", 4)),
            )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad noise section: {exc}") from exc
    raise ConfigError(f"unknown noise kind: {kind!r}")


def _thetas_pi(section: dict, key: str, default: list[float]) -> np.ndarray:
    values = section.get(key, default)
    try:
        return np.pi * np.asarray([float(v) for v in values])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


def _calibration_phases(cfg: dict) -> np.ndarray:
    section = cfg.get("calibration", {})
    default = list(np.linspace(0.02, 0.98, 33))
    return _thetas_pi(section, "phases_pi", default)


def _out_dir(cfg: dict, args) -> Path:
    out = args.out_dir or cfg.get("output", {}).get("dir", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    return int(cfg.get("plan", {}).get("seed", 0))


def _write_atomic(path: Path, content: str) -> None:
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    with open(tmp, "w", newline="") as fh:
        fh.write(content)
    os.replace(tmp, path)


def _emit_files(files: dict[Path, str]) -> None:
    # All contents are rendered before anything is written, so an earlier
    # failure leaves no partial outputs.
    for path, content in files.items():
        _write_atomic(path, content)


def _render_csv(rows: list[list], header: list[str]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_calibrate(cfg: dict, args) -> int:
    model = _model_from_config(cfg)
    noise = _noise_from_config(cfg) or ConfusionModel.identity()
    section = cfg.get("calibration", {})
    phases = _calibration_phases(cfg)
    pulses = int(section.get("pulses_per_phase", 200_000))
    out_dir = _out_dir(cfg, args)
    rng = np.random.default_rng([_seed(cfg, args), 0xCA11])
    calib = simulate_calibration(phases, pulses, noise, model, rng)
    weights = fit_retrodictive_weights(calib, model)
    fringe = fit_fringe(calib)

    hist_rows = []
    for j, phi in enumerate(calib.phases):
        for nc in range(calib.n_max + 1):
            for nd in range(calib.n_max + 1):
                hist_rows.append(
                    [f"{phi / math.pi:.12g}", nc, nd, int(calib.counts[j, nc, nd])]
                )
    fringe_doc = {
        "a": fringe.a,
        "b": fringe.b,
        "amplitude": fringe.amplitude,
    }
    _emit_files(
        {
            out_dir / "weights.json": weights.to_json() + "\n",
            out_dir / "calibration.csv": _render_csv(
                hist_rows, ["phi", "nc", "nd", "count"]
            ),
            out_dir / "fringe.json": json.dumps(fringe_doc, indent=2) + "\n",
        }
    )
    worst, pair = weights.worst_diagonal()
    if not args.quiet:
        print(f"worst diagonal weight: {worst:.4f} at measured pair {pair}")
        print(f"wrote {out_dir / 'weights.json'}")
    return EXIT_OK


def _plan_from_config(cfg: dict, args) -> ExperimentPlan:
    section = cfg.get("plan", {})
    noise = _noise_from_config(cfg)
    weights = None
    fringe = None
    if noise is not None and not noise.is_identity():
        out_dir = _out_dir(cfg, args)
        weights_file = Path(
            cfg.get("calibration", {}).get("weights_file", out_dir / "weights.json")
        )
        if not weights_file.is_file():
            raise ConfigError(
                f"noise configured but weights file {weights_file} is missing; "
                "run the calibrate command first"
            )
        weights = RetrodictiveWeights.from_json(weights_file.read_text())
        fringe_file = weights_file.with_name("fringe.json")
        if fringe_file.is_file():
            doc = json.loads(fringe_file.read_text())
            fringe = FringeParams(
                a=doc["a"], b=doc["b"], amplitude=doc["amplitude"]
            )
    elif noise is not None:
        weights = RetrodictiveWeights.identity(noise.n_max)
    model = _model_from_config(cfg)
    default_grid = list(np.linspace(0.05, 0.95, 19))
    try:
        return ExperimentPlan(
            theta_grid=_thetas_pi(section, "theta_grid_pi", default_grid),
            p=int(section.get("p", 1000)),
            replicas=int(section.get("replicas", 150)),
            seed=_seed(cfg, args),
            nbar=model.nbar,
            ideal_n_max=model.n_max,
            grid_points=int(section.get("grid_points", 4096)),
            noise=noise,
            weights=weights,
            fringe=fringe,
            estimators=tuple(section.get("estimators", ["bayes"])),
        )
    except ValueError as exc:
        raise ConfigError(f"bad plan section: {exc}") from exc


def cmd_scan(cfg: dict, args) -> int:
    plan = _plan_from_config(cfg, args)
    out_dir = _out_dir(cfg, args)
    if args.kind == "bias":
        result = bias_scan(plan)
    else:
        result = sensitivity_scan(plan)

    csv_path = out_dir / f"{args.kind}_scan.csv"
    _emit_files(
        {
            csv_path: result.to_csv(),
            out_dir / f"{args.kind}_manifest.json": json.dumps(
                plan.manifest(), indent=2
            )
            + "\n",
        }
    )
    if not args.quiet:
        if args.kind == "bias":
            ratios = [
                abs(rec.bias) / rec.sd_est
                for rec in result.records
                if np.isfinite(rec.sd_est) and rec.sd_est > 0
            ]
            for rec in result.records:
                print(
                    f"theta/pi={rec.theta / math.pi:.3f} est={rec.estimator} "
                    f"bias={rec.bias:+.5f} sd={rec.sd_est:.5f}"
                )
            if ratios:
                print(f"max |bias|/sd_est = {max(ratios):.3f}")
        else:
            for rec in result.records:
                scaled = math.sqrt(plan.p) * rec.mean_dtheta
                print(
                    f"theta/pi={rec.theta / math.pi:.3f} est={rec.estimator} "
                    f"sqrt(p)*dtheta={scaled:.4f} sd_est={rec.sd_est:.5f}"
                )
        print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_fisher(cfg: dict, args) -> int:
    model = _model_from_config(cfg)
    noise = _noise_from_config(cfg)
    section = cfg.get("fisher", {})
    d_theta = float(section.get("d_theta", DEFAULT_D_THETA))
    if not d_theta > 0:
        raise ConfigError(f"d_theta must be > 0, got {d_theta}")
    default_grid = list(np.linspace(0.02, 0.98, 49))
    thetas = _thetas_pi(section, "theta_grid_pi", default_grid)
    p = int(cfg.get("plan", {}).get("p", 1000))
    if noise is not None:
        pmf = noisy_joint_pmf(noise, model)
    else:
        pmf = model.joint_pmf
    fishers, bounds = crlb_curve(pmf, thetas, p, d_theta)
    rows = [
        [f"{t / math.pi:.12g}", f"{f:.12g}", f"{b:.12g}"]
        for t, f, b in zip(thetas, fishers, bounds)
    ]
    out_dir = _out_dir(cfg, args)
    _emit_files(
        {out_dir / "crlb.csv": _render_csv(rows, ["theta", "fisher", "crlb"])}
    )
    if not args.quiet:
        print(
            f"fisher range [{fishers.min():.6g}, {fishers.max():.6g}], "
            f"wrote {out_dir / 'crlb.csv'}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzbayes",
        description="Bayesian Mach-Zehnder phase estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out-dir", default=None, help="override output directory")
        p.add_argument("--quiet", action="store_true", help="suppress stdout")

    p_cal = sub.add_parser("calibrate", help="simulate calibration and fit weights")
    add_common(p_cal)

    p_scan = sub.add_parser("scan", help="run a Monte Carlo scan")
    p_scan.add_argument("kind", choices=["bias", "sensitivity"])
    add_common(p_scan)

    p_fisher = sub.add_parser("fisher", help="tabulate Fisher information / CRLB")
    add_common(p_fisher)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, args)
        if args.command == "scan":
            return cmd_scan(cfg, args)
        return cmd_fisher(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, DegenerateEvidenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
