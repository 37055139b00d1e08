"""Smoke test of the benchmark itself, at tiny n, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--scale", "smoke",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# exact_n512 is not in BENCHMARK.json (see README.md) but stays runnable.
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]] + ["exact_n512"])
@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_reports_every_metric(workload, trace):
    spec = _spec()
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_missing_sources_exit_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "tracing.py", "workloads.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_spec()))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "grid_n16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: without an outside option, exact identification can "
    "join unit-lambda singleton nests at small n (about 1 in 10 truths at n=24)",
)
def test_exact_identification_without_outside_at_small_n():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from nestlab.identify import boost_factors, exact_identify_without_outside
    import workloads

    n = 24
    design = workloads.slice_design(workloads.balanced_enumeration(n, 2))
    for k in range(40):
        truth = workloads._truth_with_nests(n, n // 4, workloads._rng(99, n, k), outside=False)
        probs = workloads._probabilities(truth, design, workloads.NULL_TRACER)
        boosts = boost_factors(probs[0], probs[1:], labels=design.labels)
        _, partition = exact_identify_without_outside(boosts, design)
        assert partition.nests == truth.partition.nests, k
