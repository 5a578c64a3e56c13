"""Workloads: derived configs, the CLI commands they run, and output gates.

Inputs are copies of the shipped configs in which only ``output.dir`` and
``calibration.weights_file`` point into the run's work directory; ``ml-scan``
also narrows the noisy plan to the ML and fringe estimators. The seed
reaches the program only through the CLI's ``--seed`` flag.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

# Family-wise false-alarm rate of each |bias|/se gate per repeat. The
# benchmark checks hundreds of seeds, so a fixed 3-sigma cut over 19 phases
# would fail about one seed in twenty by chance; the cut is
# Bonferroni-corrected to this rate instead (about 5.4 sigma for 19 phases).
GATE_ALPHA = 1e-6
CRLB_DEV_LIMIT = 0.10
YMK_MIN_BIAS_SE = 3.0
INTERIOR_PI = (0.05, 0.95)


@dataclass(frozen=True)
class Workload:
    name: str
    base_config: str
    commands: tuple[tuple[str, ...], ...]
    plan: dict = field(default_factory=dict)
    prerequisite: tuple[str, ...] | None = None
    tiny: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ideal-scan",
            base_config="configs/ideal.json",
            commands=(("scan", "sensitivity"),),
            tiny={"plan": {"theta_grid_pi": [0.25, 0.5, 0.75], "replicas": 20, "p": 200}},
        ),
        Workload(
            name="noisy-pipeline",
            base_config="configs/noisy.json",
            commands=(("calibrate",), ("scan", "bias"), ("fisher",)),
            tiny={
                "plan": {"theta_grid_pi": [0.02, 0.25, 0.75], "replicas": 20, "p": 1000},
                "fisher": {"theta_grid_pi": [0.02, 0.25, 0.75]},
                "calibration": {"pulses_per_phase": 20000},
            },
        ),
        Workload(
            name="ml-scan",
            base_config="configs/noisy.json",
            commands=(("scan", "bias"),),
            plan={"estimators": ["ml", "fringe"], "theta_grid_pi": [0.5], "replicas": 2},
            prerequisite=("calibrate",),
            tiny={
                "plan": {"theta_grid_pi": [0.5], "replicas": 2, "p": 200, "grid_points": 256},
                "calibration": {"pulses_per_phase": 20000},
            },
        ),
    )
}


@dataclass(frozen=True)
class Paths:
    work: Path

    @property
    def config(self) -> Path:
        return self.work / "config.json"

    @property
    def out(self) -> Path:
        return self.work / "out"

    @property
    def setup(self) -> Path:
        return self.work / "setup"


def derive_config(root: Path, w: Workload, paths: Paths, tiny: bool) -> dict:
    cfg = json.loads((root / w.base_config).read_text())
    cfg.setdefault("plan", {}).update(w.plan)
    if tiny:
        for section, values in w.tiny.items():
            cfg.setdefault(section, {}).update(values)
    cfg["output"] = {"dir": str(paths.out)}
    if "calibration" in cfg:
        weights_dir = paths.setup if w.prerequisite else paths.out
        cfg["calibration"]["weights_file"] = str(weights_dir / "weights.json")
    return cfg


def command_argv(
    command: tuple[str, ...], paths: Paths, seed: int, out_dir: Path | None = None
) -> list[str]:
    args = [*command, "--config", str(paths.config), "--seed", str(seed)]
    if out_dir is not None:
        args += ["--out-dir", str(out_dir)]
    return args


# -- gates -----------------------------------------------------------------


def bias_se_limit(cells: int) -> float:
    return NormalDist().inv_cdf(1.0 - GATE_ALPHA / (2 * cells))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(row: dict, keys) -> bool:
    try:
        return all(math.isfinite(float(row[k])) for k in keys)
    except (KeyError, TypeError, ValueError):
        return False


class Gates:
    """Checks of one repeat's outputs; every failed check is kept by name."""

    def __init__(self, cfg: dict, paths: Paths):
        self.cfg = cfg
        self.paths = paths
        self.results: list[tuple[str, bool, str]] = []
        self.quality: dict[str, float] = {}
        self.ml_estimates: list = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    def command(self, command: tuple[str, ...], code: int) -> bool:
        ok = self.check(f"{command[0]}.exit", code == 0, f"exit {code}")
        if ok:
            checker = getattr(self, f"_{command[0]}")
            try:
                ok = checker(*command[1:])
            except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
                ok = self.check(f"{command[0]}.outputs", False, repr(exc))
        return ok

    def _calibrate(self) -> bool:
        out = self.paths.out
        doc = json.loads((out / "weights.json").read_text())
        n = int(doc["n_max"]) + 1
        dists = list(doc["weights"].values())
        ok = self.check(
            "calibrate.weights",
            len(dists) == n * n
            and all(
                all(math.isfinite(w) and 0.0 <= w <= 1.0 for w in d.values())
                and abs(sum(d.values()) - 1.0) < 1e-9
                for d in dists
            ),
            f"{len(dists)} measured pairs",
        )
        phases = self.cfg.get("calibration", {}).get("phases_pi")
        rows = _read_csv(out / "calibration.csv")
        want = (len(phases) if phases else 33) * n * n
        ok &= self.check("calibrate.histogram_rows", len(rows) == want, f"{len(rows)}/{want}")
        fringe = json.loads((out / "fringe.json").read_text())
        return ok & self.check(
            "calibrate.fringe", all(math.isfinite(fringe[k]) for k in ("a", "b", "amplitude"))
        )

    def _scan(self, kind: str) -> bool:
        plan = self.cfg["plan"]
        rows = _read_csv(self.paths.out / f"{kind}_scan.csv")
        thetas, estimators = plan["theta_grid_pi"], plan["estimators"]
        ok = self.check(
            "scan.rows",
            len(rows) == len(thetas) * len(estimators),
            f"{len(rows)} rows for {len(thetas)} theta x {len(estimators)} estimators",
        )
        base = ("theta", "mean_est", "bias", "sd_est")
        with_dt = base + ("mean_dtheta", "sd_dtheta")
        ok &= self.check(
            "scan.finite",
            all(_finite(r, with_dt if r["estimator"] == "bayes" else base) for r in rows),
        )
        if not ok:
            return False
        replicas = int(plan["replicas"])
        by_est: dict[str, list[dict]] = {}
        for r in rows:
            by_est.setdefault(r["estimator"], []).append(r)

        def bias_se(r):
            return abs(float(r["bias"])) / (float(r["sd_est"]) / math.sqrt(replicas))

        bayes = by_est.get("bayes", [])
        if bayes and self.cfg.get("noise") is None:
            crlb = 1.0 / math.sqrt(int(plan["p"]) * float(self.cfg["model"]["nbar"]))
            dev = max(abs(float(r["mean_dtheta"]) / crlb - 1.0) for r in bayes)
            self.quality["crlb_dev_max"] = dev
            ok &= self.check("scan.crlb_dev_max", dev < CRLB_DEV_LIMIT, f"{dev:.4f}")
            worst = max(bias_se(r) for r in bayes)
            limit = bias_se_limit(len(bayes))
            self.quality["bayes_bias_se_max"] = worst
            ok &= self.check("scan.bayes_unbiased", worst < limit, f"{worst:.2f} < {limit:.2f}")
        elif bayes:
            lo, hi = INTERIOR_PI
            interior = [r for r in bayes if lo <= float(r["theta"]) <= hi]
            worst = max(bias_se(r) for r in interior)
            limit = bias_se_limit(len(interior))
            self.quality["bayes_bias_se_max"] = worst
            ok &= self.check("scan.bayes_unbiased", worst <= limit, f"{worst:.2f} <= {limit:.2f}")
            ymk = [r for r in by_est.get("ymk", []) if lo <= float(r["theta"]) <= hi]
            if ymk:
                ymk_worst = max(bias_se(r) for r in ymk)
                self.quality["ymk_bias_se_max"] = ymk_worst
                ok &= self.check(
                    "scan.ymk_biased", ymk_worst > YMK_MIN_BIAS_SE, f"{ymk_worst:.1f}"
                )
        if "ml" in by_est:
            ests = self.ml_estimates
            in_range = all(0.0 <= float(e.phase) <= math.pi for e in ests)
            flat = sum(bool(e.flat) for e in ests)
            want = len(thetas) * replicas
            ok &= self.check(
                "scan.ml_estimates",
                len(ests) == want and in_range and flat == 0,
                f"{len(ests)}/{want} estimates, {flat} flat, in [0, pi]: {in_range}",
            )
        return ok

    def _fisher(self) -> bool:
        rows = _read_csv(self.paths.out / "crlb.csv")
        thetas = self.cfg.get("fisher", {}).get("theta_grid_pi", [])
        ok = self.check("fisher.rows", len(rows) == len(thetas), f"{len(rows)}/{len(thetas)}")
        ok &= self.check(
            "fisher.positive",
            all(_finite(r, ("fisher", "crlb")) and float(r["crlb"]) > 0 for r in rows),
        )
        scan = self.paths.out / "bias_scan.csv"
        if ok and scan.is_file():
            crlb = {round(float(r["theta"]), 9): float(r["crlb"]) for r in rows}
            devs = [
                abs(float(r["mean_dtheta"]) / crlb[round(float(r["theta"]), 9)] - 1.0)
                for r in _read_csv(scan)
                if r["estimator"] == "bayes" and round(float(r["theta"]), 9) in crlb
            ]
            if devs:
                self.quality["crlb_dev_max"] = max(devs)
        return ok

