#!/usr/bin/env python3
"""The repository benchmark: one command for the three user paths.

    python3 perfbench/run.py                      # the gated workloads
    python3 perfbench/run.py --workload fleet-10k --seed 3 --seconds 20
    python3 perfbench/run.py --workload serve-runs --trace 1

Without --workload it runs the workloads BENCHMARK.json lists
(catalog-sweep, fleet-10k); serve-runs, which it does not list, runs only
when named. Builds the `dtpm` library, the `dtpm` CLI and the workload
runner (perfbench/CMakeLists.txt, Release) into .bench_build, then runs
each workload in processes of its own: several set-up-only processes, whose
median is `setup_s`, and one measuring process. Untraced runs report the
end-to-end metrics of BENCHMARK.json; `--trace 1` runs report the per-layer
metrics instead (serve-runs adds its request-path metrics to them). Every metric is printed by name with its unit, a result
file with provenance lands in .bench_results/, and the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when every output check passed, 1 when one failed (the
result is still printed), 2 when the build or a workload process failed
(no result is printed). Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
WORKLOADS = ["catalog-sweep", "fleet-10k", "serve-runs"]
DEFAULT_SEED = 1
# Set-up is sampled in fresh processes (its caches are process-wide), half
# before and half after the measuring process, which adds one more sample:
# host speed drifts over tens of seconds, and the median spans the drift.
SETUP_SAMPLES_EACH_SIDE = 7


class BenchError(Exception):
    """A build or workload process failed: no result can be reported."""


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_spec() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec: dict[str, Any] = json.load(f)
    return spec


def build() -> tuple[str, str]:
    """Configures and builds; returns (workload runner, dtpm CLI) paths.

    Configuring every time is cheap once the cache exists, and cmake
    refuses a cache made for another source tree instead of building it.
    """
    out = os.path.join(ROOT, ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", out,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target",
              "perfbench_workload", "dtpm_cli"]]
    for step in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return (os.path.join(out, "perfbench_workload"),
            os.path.join(out, "dtpm", "dtpm"))


def commit() -> str:
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30,
                                check=False)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def cpu_ticks() -> list[int] | None:
    """The aggregate `cpu` line of /proc/stat (None off Linux)."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None,
                after: list[int] | None) -> float | None:
    """Share of all CPU time the hypervisor stole between two samples.

    A shared host's steal time is the main source of run-to-run spread,
    so every result records it.
    """
    if before is None or after is None or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


# Each workload ends within this many seconds of the build finishing.
RUN_DEADLINE_S = 160.0


def run_process(binaries: tuple[str, str], workload: str, seed: int,
                seconds: float, extra: list[str],
                deadline: float) -> dict[str, Any]:
    runner, dtpm = binaries
    cmd = [runner, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--repo", ROOT, "--dtpm", dtpm,
           "--reference", REFERENCE] + extra
    try:
        # run() kills and reaps the process if it overruns.
        result = subprocess.run(cmd, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=max(1.0, deadline - time.monotonic()),
                                check=False)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} timed out") from error
    lines = result.stdout.strip().splitlines()
    if result.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload} exited with {result.returncode}")
    report: dict[str, Any] = json.loads(lines[-1])
    return report


def declared_workloads(spec: dict[str, Any]) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def run_workload(binaries: tuple[str, str], spec: dict[str, Any],
                 workload: str, seed: int, seconds: float, trace: bool,
                 record: bool) -> dict[str, Any]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup_samples: list[float] = []
    if trace:
        before = cpu_ticks()
        report = run_process(binaries, workload, seed, seconds, ["--trace"],
                             deadline)
        report["host_steal_share"] = steal_share(before, cpu_ticks())
        expected = [m["name"] for m in spec["per_layer"]]
        missing = sorted(set(expected) - set(report["metrics"]))
        if missing:
            raise BenchError(f"{workload} did not report {missing}")
        # The runner reports every layer it knows; a listed workload keeps
        # the listed ones. serve-runs, which is not listed, keeps its
        # request-path metrics too.
        if workload in declared_workloads(spec):
            report["metrics"] = {name: report["metrics"][name]
                                 for name in expected}
    else:
        def sample_setup() -> None:
            for _ in range(SETUP_SAMPLES_EACH_SIDE):
                sample = run_process(binaries, workload, seed, seconds,
                                     ["--setup-only"], deadline)
                setup_samples.append(sample["metrics"]["setup_s"]["value"])

        sample_setup()
        before = cpu_ticks()
        report = run_process(binaries, workload, seed, seconds,
                             ["--record-reference"] if record else [],
                             deadline)
        report["host_steal_share"] = steal_share(before, cpu_ticks())
        setup_samples.append(report["metrics"]["setup_s"]["value"])
        sample_setup()
        report["metrics"]["setup_s"]["value"] = statistics.median(
            setup_samples)
        expected = [m["name"] for m in spec["end_to_end"]]
        if sorted(report["metrics"]) != sorted(expected):
            raise BenchError(f"{workload} reported "
                             f"{sorted(report['metrics'])}, "
                             f"BENCHMARK.json lists {sorted(expected)}")
    report["setup_samples_s"] = setup_samples
    return report


def write_result(report: dict[str, Any], seconds: float) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = (f"{report['workload']}-seed{report['seed']}-"
            f"trace{int(report['trace'])}.json")
    path = os.path.join(RESULTS_DIR, name)
    result = dict(report)
    result["seconds"] = seconds
    result["commit"] = commit()
    result["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    return path


def print_report(report: dict[str, Any], path: str) -> None:
    workload = report["workload"]
    for name, metric in report["metrics"].items():
        print(f"{workload:14} {name:26} {metric['value']:16.6f} "
              f"{metric['unit']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"{workload:14} {'error_rate':26} "
          f"{failed / max(1, attempted):16.6f} failed/attempted "
          f"({failed} of {attempted})")
    info = report["info"]
    clamped = " CLAMPED" if info.get("workers_clamped") else ""
    print(f"{workload:14} workers {info.get('workers_requested')} requested, "
          f"{info.get('workers_effective')} effective{clamped}; "
          f"nproc {info['nproc']}; {info['compiler']} {info['build_type']}")
    steal = report.get("host_steal_share")
    if steal is not None:
        print(f"{workload:14} host steal {100 * steal:.1f}% of CPU time "
              "while measuring")
    for failure in report["check_failures"]:
        print(f"{workload:14} CHECK FAILED: {failure}")
    print(f"{workload:14} result file {os.path.relpath(path, ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: every workload "
                             "BENCHMARK.json lists; serve-runs only when "
                             "named)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference.json (default "
                             "seed only)")
    args = parser.parse_args()
    if args.seed < 1:
        parser.error("--seed must be at least 1")
    if args.record_reference and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("references are recorded untraced at the default seed")

    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds else float(spec["run_seconds"])
        binaries = build()
        workloads = ([args.workload] if args.workload
                     else declared_workloads(spec))
        reports = []
        for workload in workloads:
            report = run_workload(binaries, spec, workload, args.seed,
                                  seconds, bool(args.trace),
                                  args.record_reference)
            print_report(report, write_result(report, seconds))
            reports.append(report)
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(str(error))
        return 2

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in reports
                   for name, m in r["metrics"].items()}
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
