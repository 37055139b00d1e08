#!/usr/bin/env python3
"""nestlab benchmark: one workload, one client, one process, closed loop.

    python3 perfbench/run.py --workload grid_n16 --seed 1 --seconds 50 --trace 0

Run from the repository root; nestlab is imported from src/.  The run sets
up, measures set-up again in fresh processes, then starts the next operation
as soon as the previous one ends until --seconds have passed (and at least
the workload's quality batches are done).  It prints a readable report and,
as its last line, one JSON object {"correct", "attempted", "failed",
"metrics"} holding BENCHMARK.json's end_to_end metrics (--trace 0) or its
per_layer metrics (--trace 1).  A traced run also writes its spans to
.bench_out/.  Exit status: 0 on success, 1 when an output check fails,
2 when nestlab's sources or BENCHMARK.json are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

# Pinned before numpy loads: one client in one process, one BLAS thread.
PINNED_ENV = {
    "NESTLAB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps this many operations above it
LAYERS = ("designs", "model", "sampling", "identify", "communities", "recovery", "metrics", "harness")

from tracing import NULL_TRACER, Tracer  # noqa: E402  (stdlib only)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="smoke: tiny n and one set-up repeat, for testing the benchmark itself",
    )
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_workloads():
    """Import nestlab (through the workloads module) from this checkout's src/."""
    sys.path.insert(0, SRC)
    import workloads
    import nestlab

    if os.path.dirname(os.path.dirname(os.path.abspath(nestlab.__file__))) != SRC:
        raise ImportError(f"nestlab was imported from {nestlab.__file__}, not from src/")
    return workloads


def setup_probe(args) -> None:
    start = time.perf_counter()
    workloads = import_workloads()
    workloads.make(args.workload, args.seed, args.scale == "smoke", NULL_TRACER, OUT_DIR)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(args, repeats: int) -> list[float]:
    """Set-up time of fresh processes: import nestlab, make truths, build designs."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
    ]
    times = []
    for _ in range(repeats):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        **{key: os.environ[key] for key in PINNED_ENV},
    }


def _mean(values) -> float:
    kept = [v for v in values if not math.isnan(v)]
    return statistics.fmean(kept) if kept else math.nan


def end_to_end(records, wall: float, setup_times: list[float], quality) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(records) / wall,
        "op_s_p50": statistics.median(r.seconds for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rand_index_mean": _mean(r.rand_index for r in quality),
    }


def extra_end_to_end(records, quality) -> list[tuple[str, float, str, str]]:
    """End-to-end figures kept out of BENCHMARK.json: (name, value, unit, note)."""
    rows = []
    times = sorted(r.seconds for r in records)
    if len(times) >= 2 * TAIL_BEYOND:
        pct = 100.0 * (len(times) - TAIL_BEYOND) / len(times)
        rows.append(("op_s_tail", times[-TAIL_BEYOND - 1], "s", f"p{pct:.1f} of {len(times)} ops"))
    else:
        rows.append(("op_s_tail", math.nan, "s", f"omitted: {len(times)} ops, needs {2 * TAIL_BEYOND}"))
    failed = sum(r.failed for r in records)
    rows.append(("failed_frac", failed / len(records), "1", f"{failed} of {len(records)} ops"))
    rows.append(("rmse_restricted_mean", _mean(r.rmse_restricted for r in quality), "1", "quality ops"))
    soft = _mean(r.rmse_soft for r in quality)
    if not math.isnan(soft):
        rows.append(("rmse_soft_mean", soft, "1", "quality ops"))
    return rows


def per_layer(tracer: Tracer, records) -> dict:
    ops = len(records)
    c = tracer.counts
    self_times = tracer.self_times()
    noisy_identify = tracer.total("identify.noisy_identify_with_outside")
    detect = tracer.total("communities.community_detect")
    out = {
        "metrics.rmse_soft_s": tracer.total("metrics.rmse_soft") / ops,
        "metrics.subsets_scored": c["metrics.subsets_scored"] / ops,
        "communities.detect_s": detect / ops,
        "communities.calls": c["communities.calls"] / ops,
        "communities.edge_nnz": c["communities.edge_nnz"] / ops,
        "communities.found": c["communities.found"] / ops,
        "identify.tests_s": (noisy_identify - detect) / ops,
        "identify.pair_tests": c["identify.pair_tests"] / ops,
        "identify.zero_evidence_skips": c["identify.zero_evidence_skips"] / ops,
        "identify.edges_zero": c["identify.edges_zero"] / ops,
        "identify.edges_one": c["identify.edges_one"] / ops,
        "identify.edges_soft": c["identify.edges_soft"] / ops,
        "identify.exact_s": (
            tracer.total("identify.exact_identify_with_outside")
            + tracer.total("identify.exact_identify_without_outside")
        ) / ops,
        "identify.boost_s": tracer.total("identify.boost_factors") / ops,
        "model.probabilities_s": tracer.total("model.choice_probabilities") / ops,
        "model.probabilities_calls": c["model.probabilities_calls"] / ops,
        "recovery.lsq_s": tracer.total("recovery.recover_least_squares") / ops,
        "recovery.exact_s": tracer.total("recovery.recover_all") / ops,
        "recovery.flags": c["recovery.flags"] / ops,
        "recovery.failures": c["recovery.failures"] / ops,
        "sampling.sample_s": tracer.total("sampling.sample_choices") / ops,
        "sampling.customers": c["sampling.customers"] / ops,
        "sampling.csv_roundtrip_s": tracer.total("sampling.csv_roundtrip") / ops,
        "designs.build_s": tracer.total("designs.build"),
        "model.truth_s": tracer.total("model.truth") + tracer.total("model.generate_ground_truth"),
        "harness.violations": c["harness.violations"],
        "trace.overhead_s": _mean(r.overhead for r in records),
    }
    # The identification call contains a detection as long as the re-run.
    self_times["identify"] = self_times.get("identify", 0.0) - detect
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_times.get(layer, 0.0) / ops
    return out


def emit(spec_metrics, values: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def report_failure(message: str, records) -> int:
    print(f"CHECK FAILED: {message}")
    failed = sum(r.failed for r in records)
    print(json.dumps({"correct": False, "attempted": len(records), "failed": failed, "metrics": {}}))
    return 1


def print_rows(rows) -> None:
    for name, value, unit, note in rows:
        print(f"{name:<30} {value:>14.6g} {unit:<9} {note}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nestlab", "__init__.py")) or not os.path.isfile(SPEC):
        print("run from a checkout holding src/nestlab and BENCHMARK.json", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0
    with open(SPEC) as fh:
        spec = json.load(fh)
    smoke = args.scale == "smoke"

    tracer = Tracer() if args.trace else NULL_TRACER
    start = time.perf_counter()
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed, smoke, tracer, OUT_DIR)
    own_setup = time.perf_counter() - start
    setup_times = measure_setup(args, 1 if smoke else SETUP_REPEATS)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# parameters {json.dumps(workload.params())}")
    print(f"# environment {json.dumps(environment())}")
    print("# closed loop: one client, next operation starts when the previous ends")

    records = []
    check_error = None
    batch = 0
    start = time.perf_counter()
    try:
        while True:
            records.extend(workload.run_batch(batch, tracer))
            batch += 1
            if batch >= workload.quality_batches and time.perf_counter() - start >= args.seconds:
                break
    except workloads.CheckFailed as exc:
        check_error = str(exc)
    wall = time.perf_counter() - start

    if check_error is not None:
        return report_failure(check_error, records)

    quality = [r for r in records if r.batch < workload.quality_batches]
    e2e = end_to_end(records, wall, setup_times, quality)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"# timed phase {wall:.3f} s, {len(records)} ops in {batch} batches; "
          f"set-up in this process {own_setup:.3f} s, in fresh processes "
          f"{', '.join(f'{t:.3f}' for t in setup_times)} s")
    print_rows((name, value, units[name], "") for name, value in e2e.items())
    print_rows(extra_end_to_end(records, quality))
    for r in records:
        if r.failed:
            print(f"failed op {r.op}: stage {r.failed_stage}, {r.error}")
    failures = Counter((r.failed_stage, r.error) for r in records if r.failed)
    for (stage, error), count in sorted(failures.items()):
        print(f"failures  stage={stage} error={error} ops={count}")
    if hasattr(workload, "violations"):
        print(f"general-position violations: {workload.violations}")

    if args.trace:
        layer = per_layer(tracer, records)
        print_rows((name, value, units[name], "") for name, value in layer.items())
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        print(f"# {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
        metrics = emit(spec["per_layer"], layer)
    else:
        metrics = emit(spec["end_to_end"], e2e)
    undefined = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if undefined:
        return report_failure(f"metrics undefined: {undefined}", records)
    failed = sum(r.failed for r in records)
    print(json.dumps({"correct": True, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
