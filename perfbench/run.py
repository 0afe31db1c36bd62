#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of qamp.

Run from the repository root; no install and no compiled extension needed:

    python3 perfbench/run.py --workload recommend --seed 1 --trace 0
    python3 perfbench/run.py --workload all --trace 0

One process, one thread, one closed-loop client: the next request is sent
after the previous answer has come back and been checked.  The benchmark
makes every input from --seed; the library receives only those inputs.

--trace 0 runs requests for --seconds and reports the end-to-end metrics
listed in BENCHMARK.json, with times scaled to nominal host speed (see
speed.py; the raw wall times are in the detail line).  --trace 1 runs each workload's fixed number of requests,
each one untraced and then traced, and reports the per-layer metrics (see
spans.py) plus the tracing slowdown between the two.  Both modes run
requests again and require every counter to repeat exactly.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

``correct`` is false when the measurement cannot be trusted: the answer
checker's self-test failed or a replayed request did not repeat exactly.
Requests whose answers fail a check are counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# nproc is 2 and the benchmark is single-threaded: pin every BLAS/OpenMP
# pool to one thread before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

if not (SRC / "qamp" / "__init__.py").is_file():
    sys.exit(f"perfbench: no qamp sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from numpy.lib.stride_tricks import sliding_window_view  # noqa: E402
import qamp  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from speed import HostSpeed  # noqa: E402

SETUP_PROBES = 5
REPLAYS = 2


def environment_stamp() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": qamp.kernel_backend(),
        "QAMP_KERNEL": os.environ.get("QAMP_KERNEL", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def execute(workload, i: int) -> tuple[float, workloads.Verdict]:
    """Run request i; returns (seconds inside the library call, verdict)."""
    call, check = workload.request(i)
    start = perf_counter()
    try:
        answer = call()
    except Exception as exc:  # a request that raises is a failed request; the run goes on
        return perf_counter() - start, workloads.Verdict([f"{type(exc).__name__}: {exc}"])
    latency = perf_counter() - start
    return latency, check(answer)


def facts(verdict: workloads.Verdict) -> dict:
    return {"problems": verdict.problems, "quality": verdict.quality, **verdict.counters}


def differing(first: dict, second: dict) -> list[str]:
    """Keys whose values differ between two runs of the same request."""
    return sorted(str(key) for key in first.keys() | second.keys() if first.get(key) != second.get(key))


def replay_mismatches(workload, results) -> dict[int, list[str]]:
    """Counters of the first REPLAYS requests that differ when the request runs again."""
    mismatches = {}
    for i in range(min(REPLAYS, len(results))):
        keys = differing(facts(execute(workload, i)[1]), facts(results[i][1]))
        if keys:
            mismatches[i] = keys
    return mismatches


def setup_seconds(name: str, seed: int, speed: HostSpeed) -> list[tuple[float, float]]:
    """(nominal, wall) set-up seconds of SETUP_PROBES fresh processes (see setup_probe.py).

    The reference is timed in this process, just before and just after
    each probe.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(SETUP_PROBES):
        before = speed.scale()
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", name, "--seed", str(seed)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        wall = json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append((wall * 0.5 * (before + speed.scale()), wall))
    return samples


def measure(name: str, workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    """The untraced, timed run: end-to-end metrics.

    The reference computation of speed.py is timed between consecutive
    requests.  A request's nominal latency is its wall time scaled by the
    reference timings around it, each first replaced by the median of the
    five nearest, since a single reference timing is noisy itself.
    """
    speed = HostSpeed(workload.n)
    setup = setup_seconds(name, seed, speed)
    workload.build()
    execute(workload, 0)  # warm-up: first-call costs are not request latency
    results = []
    references = [speed.seconds()]
    start = perf_counter()
    while not results or perf_counter() - start < seconds:
        results.append(execute(workload, len(results)))
        references.append(speed.seconds())
    mismatches = replay_mismatches(workload, results)

    wall = np.array([latency for latency, _ in results])
    references = np.array(references)
    smoothed = np.median(sliding_window_view(np.pad(references, 2, mode="edge"), 5), axis=1)
    latencies = wall * speed.nominal_s / (0.5 * (smoothed[:-1] + smoothed[1:]))
    answered = sum(1 for _, verdict in results if not verdict.problems)
    qualities = [verdict.quality for _, verdict in results if verdict.quality is not None]
    metrics = {
        "setup_s": statistics.median(nominal for nominal, _ in setup),
        "requests_per_s": answered / float(latencies.sum()),
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "answered_ratio": answered / len(results),
        "answer_quality": statistics.fmean(qualities) if qualities else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "latency_samples": len(results),
        "quality_samples": len(qualities),
        "failed_ratio": 1.0 - metrics["answered_ratio"],
        "wall_setup_s": statistics.median(wall for _, wall in setup),
        "wall_requests_per_s": answered / float(wall.sum()),
        "wall_latency_p50_ms": float(np.percentile(wall, 50)) * 1e3,
        "wall_latency_p90_ms": float(np.percentile(wall, 90)) * 1e3,
        "reference_median_us": float(np.median(references)) * 1e6,
        "replay_mismatches": mismatches,
    }
    return metrics, results, detail


KERNEL_BENCHES = (
    ("backend.grover_step.kernel_us", "bench_step"),
    ("backend.selection_stats.kernel_us", "bench_stats"),
    ("backend.doubled_step.round_us", "bench_round"),
)


def kernel_timings(n: int) -> tuple[dict, list[str]]:
    """The three timings of benchmarks/kernel_bench.py at this workload's n, in microseconds."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import kernel_bench
    except ImportError:
        return {metric: 0.0 for metric, _ in KERNEL_BENCHES}, ["benchmarks/kernel_bench.py"]
    backend = qamp.kernel_backend()
    repeats = max(10, 1 << max(0, 22 - n))
    timings, absent = {}, []
    for metric, bench in KERNEL_BENCHES:
        seconds = getattr(kernel_bench, bench, lambda n, r: {})(n, repeats).get(backend)
        if seconds is None:
            absent.append(f"kernel_bench.{bench}")
        timings[metric] = 0.0 if seconds is None else seconds * 1e6
    return timings, absent


def trace_run(workload) -> tuple[dict, list, dict]:
    """The traced run: per-layer metrics over a fixed set of requests."""
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.request = "setup"
        workload.build()
    count = workload.trace_requests
    execute(workload, 0)  # warm-up
    # Each request runs untraced and then traced, back to back, so a change
    # in machine speed during the run does not show up as tracing overhead.
    untraced, traced = [], []
    for i in range(count):
        untraced.append(execute(workload, i))
        with tracer.installed():
            tracer.request = i
            traced.append(execute(workload, i))
    replay = spans.Tracer()
    with replay.installed():
        replayed = []
        for i in range(min(REPLAYS, count)):
            replay.request = i
            replayed.append(execute(workload, i))
    first, second = spans.request_counts(tracer.spans), spans.request_counts(replay.spans)
    mismatches = {}
    for i in range(count):
        keys = differing(facts(traced[i][1]), facts(untraced[i][1]))
        if i < len(replayed):
            keys += differing(first.get(i, {}), second.get(i, {}))
            keys += differing(facts(traced[i][1]), facts(replayed[i][1]))
        if keys:
            mismatches[i] = sorted(set(keys))

    items = sum(len(verdict.counters.get("items", ())) for _, verdict in traced)
    metrics = spans.layer_metrics(tracer.spans, items)
    kernels, kernel_absent = kernel_timings(workload.n)
    metrics.update(kernels)
    metrics["trace.slowdown_ratio"] = sum(t for t, _ in traced) / sum(t for t, _ in untraced)
    metrics["trace.requests"] = count
    metrics["check.exact_count_mismatches"] = len(mismatches)
    detail = {
        "absent": tracer.absent + kernel_absent,
        "spans": len(tracer.spans),
        "replay_mismatches": mismatches,
    }
    return metrics, traced, detail


def needle_defect(workload) -> dict:
    """Outcome of the workload's untimed one-needle probe, if it has one (see workloads.OptimizeDynamic)."""
    probe = getattr(workload, "needle_probe", None)
    outcomes = probe() if probe else []
    wrong = [problems for problems in outcomes if problems]
    return {"probes": len(outcomes), "wrong": len(wrong), "examples": wrong[:2]}


def run_one(args, bench: dict) -> dict:
    workdir_root = ROOT / ".perfbench_work"
    workdir_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir_root))
    try:
        self_test = checks.self_test(workdir / "self-test")
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.generate()
        if args.trace:
            metrics, results, detail = trace_run(workload)
            wanted = bench["per_layer"]
        else:
            metrics, results, detail = measure(args.workload, workload, args.seed, args.seconds)
            wanted = bench["end_to_end"]
        needle = needle_defect(workload)
        metrics["check.needle_false_optimal"] = needle["wrong"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir_root.rmdir()
        except OSError:
            pass

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: metrics listed in BENCHMARK.json but not measured: {missing}")
    failed = [(i, verdict.problems) for i, (_, verdict) in enumerate(results) if verdict.problems]
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        stamp=environment_stamp(),
        self_test_failures=self_test,
        failed_examples=failed[:3],
        needle_defect=needle,
    )
    print(f"# {args.workload}: seed {args.seed}, trace {args.trace}, {len(results)} requests, {len(failed)} failed")
    for metric in wanted:
        print(f"#   {metric['name']:<44} {metrics[metric['name']]:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"#   {'failed_ratio':<44} {detail['failed_ratio']:>14.6g} ratio (answer checker)")
        print("# times above are at nominal host speed; by the wall clock:")
        for name, unit in (("setup_s", "s"), ("requests_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms")):
            print(f"#   {'wall_' + name:<44} {detail['wall_' + name]:>14.6g} {unit}")
    if needle["probes"]:
        print(
            f"# known defect (ROADMAP item 5): dynamic_optimize() on one-needle tables, "
            f"{needle['wrong']} of {needle['probes']} untimed probe answers wrong (not counted in failed)"
        )
    print("# detail " + json.dumps(detail, default=str))
    return {
        "correct": not self_test and not detail["replay_mismatches"],
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main() -> None:
    plan = json.loads((HERE / "plan.json").read_text(encoding="utf-8"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=plan["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_all(args) if args.workload == "all" else run_one(args, bench)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
