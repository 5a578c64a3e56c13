"""Command-line front end.

One JSON config drives everything; angles in the config and in all
emitted CSVs are in units of pi. Subcommands:

  calibrate    simulate a calibration run and fit retrodictive weights
  scan         run a bias or sensitivity Monte Carlo scan
  fisher       tabulate Fisher information and the CRLB over a theta grid

Exit codes: 0 success, 2 config/usage error (an output directory that
cannot be made or written to among them), 3 numerical or fit failure.
Every command checks the ``model``, ``noise`` and ``plan`` sections; the
others are checked by the command that reads them. Outputs are written
atomically (temp file + rename) once all are rendered; a failing command
creates no files and no output directory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from mzbayes.detector import (
    CalibrationError,
    ConfusionModel,
    FitError,
    RetrodictiveWeights,
    fit_retrodictive_weights,
    noisy_joint_pmf,
    simulate_calibration,
)
from mzbayes.estimators import FringeParams, UndefinedEstimateError, fit_fringe
from mzbayes.experiment import ExperimentPlan, scan
from mzbayes.fisher import DEFAULT_D_THETA, crlb_csv, crlb_curve
from mzbayes.photon_model import InterferometerModel
from mzbayes.posterior import DegenerateEvidenceError, PhaseGrid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Bad or missing configuration."""


def _number(value) -> float:
    """A JSON number: an int or a float, but not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"need a number, got {value!r}")
    return float(value)


def _pi_array(values) -> np.ndarray:
    # A string or an object iterates as strings, which _number rejects.
    try:
        thetas = np.pi * np.array([_number(v) for v in values])
    except TypeError:
        raise TypeError(f"need a list of angles, got {values!r}") from None
    if thetas.size == 0:
        raise ValueError("need at least one angle")
    return thetas


def _matrix(rows) -> np.ndarray:
    return np.array([[_number(v) for v in row] for row in rows])


def _integer(value) -> int:
    """A JSON integer; an integral float such as ``1e3`` counts, a bool or fraction does not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"need an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"need an integer, got {value!r}")
    return int(value)


def _names(values) -> tuple[str, ...]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise TypeError(f"need a list of names, got {values!r}")
    return tuple(values)


# Every config key with its converter; a key missing here is rejected.
# An absent key keeps the default of the code that reads it.
_SCHEMA = {
    "model": {"nbar": _number, "n_max": _integer},
    "noise": {"kind": str, "n_max": _integer, "forward_c": _matrix, "forward_d": _matrix},
    "calibration": {"phases_pi": _pi_array, "pulses_per_phase": _integer, "weights_file": Path},
    "plan": {
        "theta_grid_pi": _pi_array,
        "p": _integer,
        "replicas": _integer,
        "seed": _integer,
        "grid_points": lambda n: PhaseGrid(_integer(n)),
        "estimators": _names,
    },
    "fisher": {"theta_grid_pi": _pi_array, "d_theta": _number},
    "output": {"dir": Path},
}


def load_config(path: str) -> dict:
    """The config at ``path``, each present value converted by ``_SCHEMA``."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        # JSON text is UTF-8, whatever the locale's encoding.
        with open(p, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = {}
    for name, section in raw.items():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown config section {name!r}")
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be a JSON object")
        cfg[name] = {}
        for key, value in section.items():
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown config key {name}.{key}")
            try:
                cfg[name][key] = _SCHEMA[name][key](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad {name}.{key}: {exc}") from exc
    return cfg


def _model_from_config(cfg: dict) -> InterferometerModel:
    try:
        return replace(ExperimentPlan.model, **cfg.get("model", {}))
    except ValueError as exc:
        raise ConfigError(f"bad model section: {exc}") from exc


def _plan_from_config(cfg: dict) -> ExperimentPlan:
    """The ``model`` and ``plan`` sections as one plan, without a misread channel."""
    model = _model_from_config(cfg)
    renamed = {"theta_grid_pi": "theta_grid", "grid_points": "grid"}
    fields = {renamed.get(key, key): value for key, value in cfg.get("plan", {}).items()}
    try:
        return ExperimentPlan(model=model, **fields)
    except ValueError as exc:
        raise ConfigError(f"bad plan section: {exc}") from exc


def _noise_from_config(cfg: dict) -> ConfusionModel | None:
    if "noise" not in cfg:
        return None
    section = dict(cfg["noise"])
    kind = section.pop("kind", "matrix")
    factories = {
        "identity": ConfusionModel.identity,
        "paper_regime": ConfusionModel.paper_regime,
        "matrix": ConfusionModel,
    }
    if kind not in factories:
        raise ConfigError(f"unknown noise kind: {kind!r}")
    with _sized_by("noise.n_max"):
        try:
            return factories[kind](**section)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad noise section: {exc}") from exc


def _write_atomic(path: Path, content: str) -> None:
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    with open(tmp, "w", newline="") as fh:
        fh.write(content)
    os.replace(tmp, path)


def _emit_files(out_dir: Path, files: dict[str, str]) -> None:
    # All contents are rendered before anything is written, so an earlier
    # failure leaves no partial outputs and no output directory.
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            _write_atomic(out_dir / name, content)
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {out_dir}: {exc}") from exc


@contextmanager
def _sized_by(keys: str):
    """Report an array too large to hold as a bad value of one of ``keys``.

    numpy raises ``MemoryError`` for an array the machine cannot hold, and
    ``ValueError: Maximum allowed dimension exceeded`` (or ``size``), or
    ``array is too big``, for one beyond its own index range, before
    anything is allocated.
    """
    try:
        yield
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(
            ("Maximum allowed", "array is too big")
        ):
            raise
        raise ConfigError(f"bad {keys}: too large to hold ({exc})") from exc


def cmd_calibrate(
    cfg: dict, plan: ExperimentPlan, noise: ConfusionModel | None, out_dir: Path, args
) -> int:
    section = cfg.get("calibration", {})
    rng = np.random.default_rng([plan.seed, 0xCA11])
    try:
        with _sized_by("calibration.pulses_per_phase or model.n_max"):
            calib = simulate_calibration(
                section.get("phases_pi", np.pi * np.linspace(0.02, 0.98, 33)),
                section.get("pulses_per_phase", 200_000),
                noise or ConfusionModel.identity(),
                plan.model,
                rng,
            )
    except CalibrationError as exc:
        raise ConfigError(f"bad calibration section: {exc}") from exc
    weights = fit_retrodictive_weights(calib, plan.model)
    fringe_json = json.dumps(asdict(fit_fringe(calib)), indent=2) + "\n"
    weights = replace(weights, fringe_sha256=hashlib.sha256(fringe_json.encode()).hexdigest())
    _emit_files(
        out_dir,
        {
            "weights.json": weights.to_json() + "\n",
            "calibration.csv": calib.to_csv(),
            "fringe.json": fringe_json,
        },
    )
    worst, pair = weights.worst_diagonal()
    if not args.quiet:
        print(f"worst diagonal weight: {worst:.4f} at measured pair {pair}")
        print(f"wrote {out_dir / 'weights.json'}")
    return EXIT_OK


def _load_calibration(
    cfg: dict, out_dir: Path, nbar: float, n_max: int, needs_fringe: bool
) -> tuple[ConfusionModel, FringeParams | None]:
    """The channel (and fringe, if present) that ``calibrate`` fitted at ``nbar`` and ``n_max``.

    The fringe file must be present when ``needs_fringe``: the ideal fringe
    would stand in for it without a word. One that is present must have the sha256 the weights record.
    """
    weights_file = cfg.get("calibration", {}).get("weights_file", out_dir / "weights.json")
    if not weights_file.is_file():
        raise ConfigError(
            f"noise configured but weights file {weights_file} is missing; "
            "run the calibrate command first"
        )
    try:
        weights = RetrodictiveWeights.from_json(weights_file.read_text(), n_max)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"unreadable {weights_file}: {exc!r}") from exc
    fringe_file = weights_file.with_name("fringe.json")
    fringe = None
    if fringe_file.is_file():
        data = fringe_file.read_bytes()
        try:
            fringe = FringeParams(**json.loads(data))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"unreadable {fringe_file}: {exc!r}") from exc
        if weights.fringe_sha256 is None:
            raise ConfigError(f"{weights_file} does not record the sha256 of {fringe_file} "
                              "(fringe_sha256); re-run the calibrate command")
        if hashlib.sha256(data).hexdigest() != weights.fringe_sha256:
            raise ConfigError(f"{fringe_file} is not the fringe file calibrated with "
                              f"{weights_file}: its sha256 differs; re-run the calibrate command")
    elif needs_fringe:
        raise ConfigError(
            f"plan.estimators lists fringe but fringe file {fringe_file} is missing; "
            "run the calibrate command first"
        )
    if weights.nbar is None or weights.channel is None:
        raise ConfigError(
            f"{weights_file} does not record the nbar it was calibrated at and the "
            "channel it fitted (forward_c, forward_d); re-run the calibrate command"
        )
    if weights.nbar != nbar:
        raise ConfigError(
            f"{weights_file} was calibrated at nbar {weights.nbar}, "
            f"but the model has nbar {nbar}"
        )
    return weights.channel, fringe


def cmd_scan(
    cfg: dict, plan: ExperimentPlan, noise: ConfusionModel | None, out_dir: Path, args
) -> int:
    if noise is not None:
        if noise.is_identity():
            channel, fringe = noise, None
        else:
            channel, fringe = _load_calibration(
                cfg, out_dir, plan.model.nbar, noise.n_max, "fringe" in plan.estimators
            )
        try:
            plan = replace(plan, noise=noise, channel=channel, fringe=fringe)
        except ValueError as exc:
            raise ConfigError(f"bad plan section: {exc}") from exc
    with _sized_by("plan.p, plan.grid_points or model.n_max"):
        result = scan(plan)

    csv_path = out_dir / f"{args.kind}_scan.csv"
    _emit_files(
        out_dir,
        {
            csv_path.name: result.to_csv(),
            f"{args.kind}_manifest.json": json.dumps(plan.manifest(), indent=2) + "\n",
        },
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


def cmd_fisher(
    cfg: dict, plan: ExperimentPlan, noise: ConfusionModel | None, out_dir: Path, args
) -> int:
    section = cfg.get("fisher", {})
    thetas = section.get("theta_grid_pi", np.pi * np.linspace(0.02, 0.98, 49))
    pmf = plan.model.joint_pmf if noise is None else noisy_joint_pmf(noise, plan.model)
    with _sized_by("model.n_max"):
        try:
            fishers, bounds = crlb_curve(
                pmf, thetas, plan.p, section.get("d_theta", DEFAULT_D_THETA)
            )
        except ValueError as exc:
            raise ConfigError(
                f"bad fisher inputs at model.n_max {plan.model.n_max}, nbar {plan.model.nbar}: {exc}"
            ) from exc
    _emit_files(out_dir, {"crlb.csv": crlb_csv(thetas, fishers, bounds)})
    if not args.quiet:
        print(
            f"fisher range [{fishers.min():.6g}, {fishers.max():.6g}], "
            f"wrote {out_dir / 'crlb.csv'}"
        )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.setdefault("plan", {})["seed"] = args.seed
        out_dir = Path(args.out_dir or cfg.get("output", {}).get("dir", "."))
        commands = {"calibrate": cmd_calibrate, "scan": cmd_scan, "fisher": cmd_fisher}
        return commands[args.command](
            cfg, _plan_from_config(cfg), _noise_from_config(cfg), out_dir, args
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        FitError,
        DegenerateEvidenceError,
        UndefinedEstimateError,
        FloatingPointError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
