#!/usr/bin/env python3
"""Fast self-test of the benchmark harness on tiny plans.

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` in both modes and checks that the
result line has the contract's shape, that every metric named in
``BENCHMARK.json`` (and every report-only metric) is printed with its
unit, and that each command's gates ran and passed. It also checks that tracing
survives a missing program function and that the benchmark refuses to
run, without printing a result, where no mzbayes source is present.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from layers import PER_LAYER, Instruments
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workload(workload, bench: dict) -> None:
    for trace, section, expected in (
        (0, "end_to_end", dict(run.END_TO_END)),
        (1, "per_layer", {name: unit for name, unit, _, _ in PER_LAYER}),
    ):
        proc = run_bench(ROOT, workload.name, trace)
        where = f"{workload.name} --trace {trace}"
        check(proc.returncode == 0, f"{where} exited {proc.returncode}:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        check(set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}")
        check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
              f"{where}: attempted {result['attempted']}")
        check(result["correct"] and result["failed"] == 0, f"{where}: gates failed:\n{proc.stdout}")
        declared = {m["name"]: m["unit"] for m in bench[section]}
        check(declared == expected, f"{where}: BENCHMARK.json {section} differs from the harness")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == expected, f"{where}: metrics {sorted(got)} != {sorted(expected)}")
        check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
              f"{where}: non-numeric metric value")
        report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
        gate_names = {name for name, _, _ in report["gates"]}
        for command in workload.commands:
            check(f"{command[0]}.exit" in gate_names, f"{where}: no gates for {command[0]}")
        check(len(gate_names) > len(workload.commands), f"{where}: only exit gates ran")
        if trace == 0:
            printed = {line.split()[0] for line in lines[:-1] if line}
            for name, _ in run.END_TO_END + run.REPORT_ONLY:
                check(name in printed, f"{where}: {name} not printed")
        else:
            check(report["draws_sha256"]["same_in_every_repeat"], f"{where}: draws differ")
        print(f"ok  {where}")


def check_missing_name() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import mzbayes.experiment as experiment

    original = experiment.ml_estimate
    del experiment.ml_estimate
    tracer = Tracer()
    try:
        Instruments(tracer).install()
    finally:
        tracer.unpatch()
        experiment.ml_estimate = original
    check("estimators.ml_estimate" in tracer.absent, f"absent names {tracer.absent}")
    check(experiment.replica_rng.__module__ == "mzbayes.experiment", "patches not undone")
    print("ok  a missing function is reported absent")


def check_refuses_without_source() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench(bare, "ideal-scan", 0)
        check(proc.returncode != 0, "ran without mzbayes source")
        check('"correct"' not in proc.stdout, "printed a result without mzbayes source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    print("ok  refuses to run without the program's source")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads differ from the harness")
    for workload in WORKLOADS.values():
        check_workload(workload, bench)
    check_missing_name()
    check_refuses_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
