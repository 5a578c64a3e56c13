#!/usr/bin/env python3
"""Benchmark of the mzbayes command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ideal-scan --seed 7 --seconds 42 --trace 0

The benchmark imports ``mzbayes`` from the checkout's ``src/`` and drives
``mzbayes.cli.main`` in-process as a closed loop: one caller, one command
at a time, each starting after the previous one returned. It repeats the
workload's commands until ``--seconds`` is used up. Set-up (interpreter
start, ``import mzbayes.cli``, writing the derived config and any
prerequisite ``calibrate``) runs several times in child processes.

Each time is the median over the run's repeats, each repeat's time
adjusted for the host's speed at that moment (see ``reference.py``); every
repeat's raw and adjusted time is in the report line. Repeats after the
first use seeds derived from ``--seed`` (see ``rep_seed``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
untraced repeat, then wraps the program's public functions (see
``layers.py``) and prints per-layer metrics from traced repeats.

Every repeat's outputs pass through the gates in ``workloads.py``. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit and sample count, the gates, and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import REPEAT_ROUNDS, SETUP_ROUNDS, HostClock
from workloads import WORKLOADS, Gates, Paths, command_argv, derive_config

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Printed in the result line (the contract's end-to-end metrics): defined
# and non-zero on every workload.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("scan_s", "s"),
    ("replicas_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
]
# Printed in the report only: undefined on some workloads, zero when all is
# well (failed_frac), set by the seed's statistics (crlb_dev_max), or the
# unadjusted times and the host speed they were adjusted by.
REPORT_ONLY = [
    ("calibrate_s", "s"),
    ("fisher_s", "s"),
    ("failed_frac", "ratio"),
    ("crlb_dev_max", "ratio"),
    ("raw_setup_s", "s"),
    ("raw_wall_s", "s"),
    ("raw_scan_s", "s"),
    ("host_speed", "ratio"),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small plans, for the self-test")
    parser.add_argument("--setup-child", metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


# -- set-up ------------------------------------------------------------------


def setup_child(workload, paths, seed: int, tiny: bool) -> int:
    """Child side of one set-up: import, derive the config, run prerequisites."""
    import mzbayes.cli as cli

    paths.out.mkdir(parents=True, exist_ok=True)
    cfg = derive_config(ROOT, workload, paths, tiny)
    paths.config.write_text(json.dumps(cfg, indent=2) + "\n")
    if workload.prerequisite is None:
        return 0
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(command_argv(workload.prerequisite, paths, seed, out_dir=paths.setup))


class SetupError(RuntimeError):
    """A set-up child process failed."""


def run_setups(args, paths, repeats: int, clock=None) -> tuple[list[float], list[float]]:
    """Raw and host-adjusted times of ``repeats`` set-ups (adjusted only with a clock)."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-child", str(paths.work),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    raw, adjusted = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
        if clock is not None:
            adjusted.append(raw[-1] * clock.factor(SETUP_ROUNDS))
    return raw, adjusted


# -- the timed body ----------------------------------------------------------


def run_command(cli_main, arguments) -> int:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return int(cli_main(arguments))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed command, not a crashed benchmark
        traceback.print_exc()
        return 1


def run_repeat(cli, workload, paths, seed, tracer=None):
    """One closed-loop pass over the workload's commands."""
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    times, codes = {}, []
    gc.collect()  # every repeat starts from the same heap state
    t0 = time.perf_counter()
    with span("bench"):
        for command in workload.commands:
            arguments = command_argv(command, paths, seed)
            c0 = time.perf_counter()
            with span("cli"):
                codes.append(run_command(cli.main, arguments))
            times[command[0]] = time.perf_counter() - c0
    return {"wall_s": time.perf_counter() - t0, "times": times, "codes": codes, "seed": seed}


def adjust(rep: dict, factor: float) -> dict:
    """Keep the raw times of ``rep`` and scale its times by the host factor."""
    rep["raw_wall_s"], rep["raw_times"] = rep["wall_s"], rep["times"]
    rep["wall_s"] *= factor
    rep["times"] = {name: t * factor for name, t in rep["times"].items()}
    return rep


def record_ml_estimates(sink: list):
    """Keep every ML estimate the scan computes, for the range/flat gate."""
    import mzbayes.experiment as experiment

    original = getattr(experiment, "ml_estimate", None)
    if original is None:
        return lambda: None

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    experiment.ml_estimate = recorded
    return lambda: setattr(experiment, "ml_estimate", original)


# -- reporting ---------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mzbayes").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "source_sha256_16": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def median(values):
    return statistics.median(values) if values else None


def emit(report: dict, metrics: dict, units: dict, contract: list, runner) -> None:
    for name, value in metrics.items():
        samples = report["samples"].get(name)
        extra = f"  (median of {samples})" if samples else ""
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:45s} {shown:>12s} {units[name]}{extra}")
    for name, ok, detail in report["gates"]:
        print(f"gate {name}: {'PASS' if ok else 'FAIL'} {detail}")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in contract},
    }
    print(json.dumps(result))


# -- runs --------------------------------------------------------------------


def rep_seed(seed: int, rep: int) -> int:
    """CLI seed of repeat ``rep``: the workload seed first, then derived ones.

    Distinct data per repeat averages out the data-dependent cost of the ML
    scan within one run; the same workload seed always yields the same list.
    """
    if rep == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def timed_loop(seconds, started, body):
    """Repeat ``body`` while the next repeat still fits in ``seconds``."""
    reps, longest = [], 0.0
    while not reps or time.perf_counter() - started + longest <= seconds:
        t0 = time.perf_counter()
        reps.append(body())
        longest = max(longest, time.perf_counter() - t0)
    return reps


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mzbayes" / "cli.py").is_file():
        return fail(f"no mzbayes source under {src}; run from a source checkout")
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not (ROOT / workload.base_config).is_file():
        return fail(f"missing {workload.base_config}")
    for var in BLAS_VARS:  # single-threaded numerics, fixed before numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    if args.setup_child:
        return setup_child(workload, Paths(Path(args.setup_child)), args.seed, args.tiny)

    paths = Paths(ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        return run(args, workload, paths)
    finally:
        shutil.rmtree(paths.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            paths.work.parent.rmdir()


class Runner:
    """Runs and gates repeats, keeping the tallies the result line needs."""

    def __init__(self, cli, workload, cfg, paths):
        self.cli = cli
        self.workload = workload
        self.cfg = cfg
        self.paths = paths
        self.attempted = 0
        self.failed = 0
        self.gates: dict[str, tuple[bool, str]] = {}
        self.quality: dict[str, float] = {}
        self.ml_estimates: list = []

    def repeat(self, seed: int, tracer=None) -> dict:
        self.ml_estimates.clear()
        rep = run_repeat(self.cli, self.workload, self.paths, seed, tracer)
        gates = Gates(self.cfg, self.paths)
        gates.ml_estimates = list(self.ml_estimates)
        for command, code in zip(self.workload.commands, rep["codes"]):
            self.failed += not gates.command(command, code)
        self.attempted += len(rep["codes"])
        for name, ok, detail in gates.results:  # a failure in any repeat sticks
            if self.gates.get(name, (True, ""))[0]:
                self.gates[name] = (ok, detail)
        for name, value in gates.quality.items():  # worst repeat
            self.quality[name] = max(value, self.quality.get(name, value))
        rep["bytes_written"] = sum(
            p.stat().st_size for p in self.paths.out.iterdir() if p.is_file()
        )
        return rep


def run(args, workload, paths) -> int:
    started = time.perf_counter()
    clock = None if args.trace else HostClock()
    try:
        setup_times = run_setups(args, paths, 1 if args.trace else SETUP_REPEATS, clock)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc), 1)
    import mzbayes.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        return fail(f"imported mzbayes from {cli.__file__}, not from this checkout")
    cfg = json.loads(paths.config.read_text())
    runner = Runner(cli, workload, cfg, paths)
    restore = record_ml_estimates(runner.ml_estimates)
    try:
        if args.trace:
            metrics, units, samples, extra = traced_run(args, started, runner)
        else:
            seeds = (rep_seed(args.seed, k) for k in itertools.count())
            reps = timed_loop(
                args.seconds, started,
                lambda: adjust(runner.repeat(next(seeds)), clock.factor(REPEAT_ROUNDS)),
            )
            metrics, units, samples, timings = untraced_metrics(
                reps, setup_times, clock.host_speed(), cfg["plan"], runner
            )
            extra = {"repeat_seeds": [r["seed"] for r in reps], "timings": timings,
                     "reference_round_s": clock.refs}
    finally:
        restore()
    plan = cfg["plan"]
    report = {
        "environment": environment(args),
        "samples": samples,
        "gates": [(name, ok, detail) for name, (ok, detail) in runner.gates.items()],
        "quality": runner.quality,
        "plan": {"theta_points": len(plan["theta_grid_pi"]), "replicas": int(plan["replicas"]),
                 "p": int(plan["p"]), "estimators": plan["estimators"]},
        **extra,
    }
    contract = list(units) if args.trace else [name for name, _ in END_TO_END]
    emit(report, metrics, units, contract, runner)
    return 0


def untraced_metrics(reps, setup_times, host_speed, plan, runner):
    def per_command(name, key="times"):
        return [r[key][name] for r in reps if name in r[key]]

    raw_setup, setup = setup_times
    timings = {
        "setup_s": setup,
        "wall_s": [r["wall_s"] for r in reps],
        "scan_s": per_command("scan"),
        "calibrate_s": per_command("calibrate"),
        "fisher_s": per_command("fisher"),
        "raw_setup_s": raw_setup,
        "raw_wall_s": [r["raw_wall_s"] for r in reps],
        "raw_scan_s": per_command("scan", "raw_times"),
    }
    medians = {name: median(values) for name, values in timings.items()}
    replicas = len(plan["theta_grid_pi"]) * int(plan["replicas"])
    metrics = {
        **medians,
        "replicas_per_s": replicas / medians["scan_s"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": runner.failed / runner.attempted,
        "crlb_dev_max": runner.quality.get("crlb_dev_max"),
        "host_speed": host_speed,
    }
    units = dict(END_TO_END + REPORT_ONLY)
    metrics = {name: metrics[name] for name in units}
    samples = {name: len(values) for name, values in timings.items() if values}
    samples["replicas_per_s"] = samples["scan_s"]
    return metrics, units, samples, timings


def traced_run(args, started, runner):
    """One untraced repeat, then traced repeats of the same seed's data."""
    from layers import COUNT_METRICS, PER_LAYER, Instruments, layer_metrics
    from tracer import HOOKS, Tracer

    untraced = runner.repeat(args.seed)
    tracer = Tracer()
    instruments = Instruments(tracer)
    instruments.install()
    per_rep, digests = [], []

    def traced_body():
        tracer.clear()
        instruments.reset_digests()
        rep = runner.repeat(args.seed, tracer)
        summary = tracer.summary()
        values = layer_metrics(summary, tracer.counters)
        values["cli.bytes_written"] = float(rep["bytes_written"])
        values["trace.wall_s"] = summary["bench"]["total_s"]
        values["trace.unattributed_s"] = summary["bench"]["self_s"]
        values["trace.hooks_s"] = summary.get(HOOKS, {}).get("self_s", 0.0)
        values["trace.overhead_s"] = rep["times"]["scan"] - untraced["times"]["scan"]
        per_rep.append(values)
        digests.append(instruments.digests())
        return rep

    try:
        timed_loop(args.seconds - (time.perf_counter() - started), time.perf_counter(),
                   traced_body)
    finally:
        tracer.unpatch()
    metrics, units, samples, differ = {}, {}, {}, []
    for name, unit, _, _ in PER_LAYER:
        values = [v[name] for v in per_rep]
        units[name] = unit
        if name in COUNT_METRICS:
            metrics[name] = values[-1]
            if len(set(values)) > 1:
                differ.append(name)
        else:
            metrics[name] = median(values)
            samples[name] = len(values)
    absent = set(tracer.absent)
    summary = tracer.summary()
    extra = {
        "absent": [name for name, _, _, group in PER_LAYER if group in absent],
        "counts_differ_between_repeats": differ,
        "draws_sha256": {**digests[-1], "same_in_every_repeat": len(set(map(str, digests))) == 1},
        "untraced_scan_s": untraced["times"]["scan"],
        "top_level_self_s": {name: summary[name]["self_s"] for name in ("bench", "cli")},
    }
    return metrics, units, samples, extra


if __name__ == "__main__":
    sys.exit(main())
