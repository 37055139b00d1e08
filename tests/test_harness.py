"""Tests for the benchmarking harness and its baselines."""

import csv
import json
import os

import numpy as np
import pytest

from nestlab.designs import balanced_enumeration, slice_design
from nestlab import harness
from nestlab.harness import (
    ExperimentConfig,
    CompareReport,
    _cell_seed,
    _instance_models,
    build_design,
    compare_designs,
    config_from_dict,
    default_two_nest_partition,
    load_config,
    run_pipeline,
    _worker_count,
)
from nestlab.metrics import rmse_soft_restricted
from nestlab.model import NestPartition, design_probabilities, generate_ground_truth
from nestlab.sampling import allocate_customers, empirical_probabilities, sample_choices


def tiny_config(**over):
    base = dict(
        n=8,
        b=2,
        schemes=("slice", "default_two_nest"),
        T_list=(7000,),
        instances=2,
        seed=5,
        outside=True,
        mode="noisy",
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_config_round_trip():
    config = tiny_config()
    again = config_from_dict(config.to_dict())
    assert again == config


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError):
        config_from_dict({"n": 8, "beam_width": 3})


def test_config_validates_scheme_names():
    with pytest.raises(ValueError):
        tiny_config(schemes=("slice", "mystery"))


def test_config_test_settings_flow_through():
    config = tiny_config(alpha=0.01)
    assert config.test_config().alpha == 0.01
    assert config.test_config().beta == pytest.approx(0.99)


def test_load_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 8, "instances": 2, "T_list": [5000]}))
    config = load_config(path)
    assert config.n == 8
    assert config.T_list == (5000,)


def test_default_two_nest_partition_halves():
    assert default_two_nest_partition(16) == NestPartition(
        [tuple(range(1, 9)), tuple(range(9, 17))]
    )
    assert default_two_nest_partition(5) == NestPartition([(1, 2), (3, 4, 5)])


def test_build_design_schemes():
    rng = np.random.default_rng(0)
    config = tiny_config()
    for scheme, count in [("slice", 6), ("slice_naive", 6), ("loo", 8)]:
        design = build_design(scheme, 8, 2, config, rng)
        assert design.num_experiments == count, scheme
    random_design = build_design("random", 8, 2, config, rng)
    assert random_design.num_experiments == 6  # matches the slice budget
    assert all(len(s) == 4 for s in random_design.experiments)
    inc = build_design("incremental", 8, 2, config, rng)
    assert [len(s) for s in inc.experiments] == list(range(1, 9))


@pytest.mark.parametrize("n, b", [(6, 2), (2, 3)])
def test_point_estimate_scores_empirical_frequencies(n, b):
    """Row for row, control included, even where an experiment repeats the control"""
    config = tiny_config(n=n, b=b, schemes=("slice", "point_estimate"))
    truth = generate_ground_truth(n, np.random.default_rng(7))
    result = run_pipeline(truth, "point_estimate", 700, config, seed=1)
    design = slice_design(balanced_enumeration(n, b))
    table = sample_choices(truth, design, allocate_customers(700, design.num_experiments + 1), seed=1)
    assert result.rmse_soft_restricted == rmse_soft_restricted(
        design_probabilities(truth, design), empirical_probabilities(table)
    )


def test_run_pipeline_exact_mode_is_perfect():
    config = tiny_config(mode="exact")
    truth = generate_ground_truth(8, np.random.default_rng(11))
    result = run_pipeline(truth, "slice", 7000, config, seed=3, instance=0)
    assert not result.failed
    assert result.rand_index == 1.0
    assert result.rmse_soft < 1e-8


def test_run_pipeline_noisy_mode_returns_scores():
    config = tiny_config()
    truth = generate_ground_truth(8, np.random.default_rng(12))
    result = run_pipeline(truth, "slice", 70000, config, seed=4, instance=0)
    assert not result.failed
    assert 0.0 <= result.rand_index <= 1.0
    assert result.rmse_soft >= 0.0
    assert result.rmse_soft_restricted >= 0.0


def test_run_pipeline_point_estimate_only_restricted():
    config = tiny_config(schemes=("slice", "point_estimate"))
    truth = generate_ground_truth(8, np.random.default_rng(13))
    result = run_pipeline(truth, "point_estimate", 7000, config, seed=5, instance=0)
    assert np.isnan(result.rmse_soft)
    assert np.isnan(result.rand_index)
    assert result.rmse_soft_restricted >= 0.0


def test_cell_seeds_differ_across_grid():
    seeds = {
        _cell_seed(0, inst, scheme, T)
        for inst in range(3)
        for scheme in ("slice", "random")
        for T in (1000, 2000)
    }
    assert len(seeds) == 12


def test_compare_designs_writes_report(tmp_path):
    config = tiny_config(output_dir=str(tmp_path))
    report = compare_designs(config)
    assert isinstance(report, CompareReport)
    assert len(report.results) == 2 * 2  # schemes x instances, one T

    with open(tmp_path / "results_T7000.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["scheme"] for r in rows} == {"slice", "default_two_nest"}
    assert all("|" in r["partition"] or "," in r["partition"] for r in rows)

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["n"] == 8
    cells = {(c["scheme"], c["T"]) for c in summary["cells"]}
    assert cells == {("slice", 7000), ("default_two_nest", 7000)}


def test_compare_designs_is_deterministic():
    a = compare_designs(tiny_config()).summary()
    b = compare_designs(tiny_config()).summary()
    assert a == b


def test_compare_designs_parallel_matches_serial(monkeypatch):
    serial = compare_designs(tiny_config()).summary()
    monkeypatch.setenv("NESTLAB_THREADS", "2")
    parallel = compare_designs(tiny_config()).summary()
    assert serial == parallel


def test_worker_count_reads_nestlab_threads_capped_at_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("NESTLAB_THREADS", raising=False)
    assert _worker_count() == 1
    for raw, want in [("1", 1), ("3", 3), (" 2 ", 2), ("4", 4), ("64", 4)]:
        monkeypatch.setenv("NESTLAB_THREADS", raw)
        assert _worker_count() == want, raw
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count() == 1


@pytest.mark.parametrize("raw", ["0", "-2", "two", "1.5", ""])
def test_worker_count_rejects_bad_nestlab_threads(monkeypatch, raw):
    monkeypatch.setenv("NESTLAB_THREADS", raw)
    with pytest.raises(ValueError, match="NESTLAB_THREADS"):
        _worker_count()


def test_summary_reports_failures_field():
    report = compare_designs(tiny_config())
    assert all(r.failed_stage is None for r in report.results)
    for cell in report.summary()["cells"]:
        assert cell["failures"] == 0
        assert cell["failures_by_stage"] == {"identify": 0, "recovery": 0}


def same_result(a, b):
    """Bitwise field equality, NaN equal to NaN."""
    floats = ("rmse_soft", "rand_index", "rmse_soft_restricted")
    same_floats = all(
        getattr(a, f) == getattr(b, f) or (np.isnan(getattr(a, f)) and np.isnan(getattr(b, f)))
        for f in floats
    )
    rest = ("instance", "scheme", "T", "partition", "failed", "failed_stage", "flags")
    return same_floats and all(getattr(a, f) == getattr(b, f) for f in rest)


@pytest.mark.parametrize("mode", ["noisy", "exact"])
def test_compare_designs_cells_equal_standalone_run_pipeline(mode):
    config = tiny_config(
        schemes=("slice", "random", "default_two_nest", "point_estimate"),
        T_list=(7000, 40000),
        mode=mode,
    )
    report = compare_designs(config)
    truths = _instance_models(config)
    cells = [
        (i, scheme, T)
        for i in range(config.instances)
        for scheme in config.schemes
        for T in config.T_list
    ]
    assert len(report.results) == len(cells)
    for (i, scheme, T), result in zip(cells, report.results):
        alone = run_pipeline(truths[i], scheme, T, config, _cell_seed(config.seed, i, scheme, T), i)
        assert same_result(result, alone), (i, scheme, T)


def test_compare_designs_calls_module_level_run_pipeline_per_cell(monkeypatch):
    calls = []
    original = harness.run_pipeline

    def spy(truth, scheme, T, *args, **kwargs):
        calls.append((scheme, T, kwargs.get("truth_table") is not None))
        return original(truth, scheme, T, *args, **kwargs)

    monkeypatch.setattr(harness, "run_pipeline", spy)
    config = tiny_config(T_list=(7000, 9000))
    report = compare_designs(config)
    expected = [(s, T, True) for _ in range(2) for s in config.schemes for T in config.T_list]
    assert calls == expected
    assert [(r.scheme, r.T) for r in report.results] == [(s, T) for s, T, _ in expected]


def test_compare_designs_past_exhaustive_limit_scores_restricted_only():
    config = tiny_config(n=21, schemes=("slice",), T_list=(60000,), instances=1)
    (result,) = compare_designs(config).results
    assert not result.failed
    assert np.isnan(result.rmse_soft)
    assert np.isfinite(result.rmse_soft_restricted)
    assert 0.0 <= result.rand_index <= 1.0


@pytest.mark.parametrize(
    "target, stage", [("_identify", "identify"), ("recover_least_squares", "recovery")]
)
def test_failed_cells_report_their_stage(monkeypatch, tmp_path, target, stage):
    def broken(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(harness, target, broken)
    config = tiny_config(schemes=("slice",), output_dir=str(tmp_path))
    report = compare_designs(config)
    assert all(r.failed and r.failed_stage == stage for r in report.results)
    (cell,) = report.summary()["cells"]
    assert cell["failures"] == 2
    assert cell["failures_by_stage"] == {"identify": 0, "recovery": 0, stage: 2}
    with open(tmp_path / "results_T7000.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["failed_stage"] for r in rows] == [stage, stage]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["cells"][0]["failures_by_stage"][stage] == 2
