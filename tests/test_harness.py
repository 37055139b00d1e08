"""Tests for the benchmarking harness and its baselines."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from nestlab.cli import main
from nestlab.designs import balanced_enumeration, save_design, slice_design
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
    evaluate_model,
    load_config,
    run_pipeline,
    _worker_count,
)
from nestlab.metrics import all_subset_cells, rmse_soft_restricted
from nestlab.model import NestPartition, design_probabilities, generate_ground_truth, save_model
from nestlab.recovery import recover_all, recover_least_squares
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


def test_import_leaves_process_pools_unloaded():
    """The process pool loads only when compare_designs runs in parallel"""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, nestlab.cli; sys.exit(any(m.split('.')[0] in "
            "('multiprocessing', 'concurrent') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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


def assert_cells_equal_standalone_run_pipeline(config):
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
    return report


@pytest.mark.parametrize("mode", ["noisy", "exact"])
def test_compare_designs_cells_equal_standalone_run_pipeline(mode):
    """Cells on the shared slice design and on per-cell designs, every scheme"""
    assert_cells_equal_standalone_run_pipeline(tiny_config(
        schemes=("slice", "slice_naive", "random", "loo", "incremental", "default_two_nest",
                 "point_estimate"),
        T_list=(7000, 40000),
        mode=mode,
    ))


@pytest.mark.parametrize("mode", ["noisy", "exact"])
def test_grid_without_outside_cells_equal_standalone_run_pipeline(mode):
    """Identification and recovery without an outside option, in both modes"""
    report = assert_cells_equal_standalone_run_pipeline(tiny_config(
        schemes=("slice", "random"), T_list=(40000,), outside=False, mode=mode,
    ))
    assert all(r.partition is not None for r in report.results)
    if mode == "exact":  # the refit model reproduces the truth's choice function
        assert all(r.rmse_soft < 1e-9 for r in report.results)


def test_compare_designs_calls_module_level_run_pipeline_per_cell(monkeypatch):
    calls = []
    original = harness.run_pipeline

    def spy(truth, scheme, T, *args, **kwargs):
        calls.append((scheme, T, kwargs.get("truth_cells") is not None))
        return original(truth, scheme, T, *args, **kwargs)

    monkeypatch.setattr(harness, "run_pipeline", spy)
    config = tiny_config(T_list=(7000, 9000))
    report = compare_designs(config)
    expected = [(s, T, True) for _ in range(2) for s in config.schemes for T in config.T_list]
    assert calls == expected
    assert [(r.scheme, r.T) for r in report.results] == [(s, T) for s, T, _ in expected]


def test_slice_schemes_share_one_slice_design_per_instance(monkeypatch):
    seen = []
    original = harness.run_pipeline

    def spy(truth, scheme, T, *args, slice_probs=None, **kwargs):
        seen.append((scheme, slice_probs))
        return original(truth, scheme, T, *args, slice_probs=slice_probs, **kwargs)

    monkeypatch.setattr(harness, "run_pipeline", spy)
    config = tiny_config(
        schemes=("slice", "random", "default_two_nest", "point_estimate"), T_list=(7000, 9000),
    )
    compare_designs(config)
    assert all((probs is None) == (scheme == "random") for scheme, probs in seen)
    per_instance = [{id(probs) for _, probs in seen[i * 8 : (i + 1) * 8] if probs} for i in range(2)]
    assert [len(ids) for ids in per_instance] == [1, 1] and per_instance[0] != per_instance[1]
    slice_probs = seen[0][1]
    assert slice_probs[0] is seen[-1][1][0]  # one slice design for the grid
    with pytest.raises(ValueError, match="does not run on the slice design"):
        run_pipeline(_instance_models(config)[0], "random", 7000, config, 1, slice_probs=slice_probs)


def test_compare_designs_past_exhaustive_limit_scores_restricted_only():
    config = tiny_config(n=21, schemes=("slice",), T_list=(60000,), instances=1)
    (result,) = compare_designs(config).results
    assert not result.failed
    assert np.isnan(result.rmse_soft)
    assert np.isfinite(result.rmse_soft_restricted)
    assert 0.0 <= result.rand_index <= 1.0


@pytest.mark.parametrize(
    "target, stage", [("identify_partition", "identify"), ("recover_least_squares", "recovery")]
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


def test_report_columns_and_config_keys_are_pinned(tmp_path):
    config = tiny_config(output_dir=str(tmp_path))
    report = compare_designs(config)
    with open(tmp_path / "results_T7000.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == [
        "instance", "scheme", "T", "rmse_soft", "rand_index", "rmse_soft_restricted",
        "failed", "failed_stage", "flags", "partition",
    ]
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert list(report.summary()["config"]) == fields
    assert list(json.loads((tmp_path / "summary.json").read_text())["config"]) == fields


@pytest.mark.parametrize("target", ["identify_partition", "recover_least_squares"])
def test_unreached_scores_stay_nan(monkeypatch, tmp_path, target):
    """A failed cell reaches no score and a point estimate only the restricted one"""
    def broken(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(harness, target, broken)
    config = tiny_config(
        schemes=("slice", "point_estimate"), instances=1, output_dir=str(tmp_path)
    )
    failed, estimate = compare_designs(config).results
    assert failed.failed and not estimate.failed
    assert failed.partition is None and estimate.partition is None
    assert failed.flags == ("RuntimeError: forced failure",) and estimate.flags == ()
    assert all(np.isnan(getattr(failed, name)) for name in harness.SCORES)
    assert np.isnan(estimate.rmse_soft) and np.isnan(estimate.rand_index)
    assert np.isfinite(estimate.rmse_soft_restricted)
    with open(tmp_path / "results_T7000.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["rmse_soft"] for r in rows] == ["nan", "nan"]
    assert [r["rand_index"] for r in rows] == ["nan", "nan"]
    assert rows[0]["rmse_soft_restricted"] == "nan"
    assert [r["failed"] for r in rows] == ["1", "0"]
    assert [r["flags"] for r in rows] == ["RuntimeError: forced failure", ""]
    assert [r["partition"] for r in rows] == ["", ""]


def test_report_keeps_the_recovery_flags(tmp_path):
    config = tiny_config(schemes=("slice",), instances=1)
    flagged = harness.PipelineResult(
        instance=0, scheme="slice", T=7000, partition=NestPartition([(1, 2)]),
        flags=("nest-0-lambda-defaulted", "rank-deficient"),
    )
    clean = harness.PipelineResult(instance=1, scheme="slice", T=7000)
    harness.write_report(CompareReport(config, [flagged, clean]), str(tmp_path))
    with open(tmp_path / "results_T7000.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["flags"] for r in rows] == ["nest-0-lambda-defaulted; rank-deficient", ""]
    assert (tmp_path / "summary.json").read_text() == SUMMARY_FILE


# indented by two spaces, with a final newline; no score has two finite values
SUMMARY_FILE = """{
  "config": {
    "n": 8,
    "b": 2,
    "schemes": [
      "slice"
    ],
    "T_list": [
      7000
    ],
    "instances": 1,
    "seed": 5,
    "outside": true,
    "mode": "noisy",
    "alpha": 0.05,
    "beta": null,
    "num_random_assortments": null,
    "size_rule": "half",
    "output_dir": null
  },
  "cells": [
    {
      "scheme": "slice",
      "T": 7000,
      "runs": 2,
      "failures": 0,
      "failures_by_stage": {
        "identify": 0,
        "recovery": 0
      }
    }
  ],
  "assumption_violations": []
}
"""


def test_report_writes_one_file_per_budget(tmp_path):
    config = tiny_config(schemes=("slice",), T_list=(7000, 21000), instances=1,
                         output_dir=str(tmp_path))
    compare_designs(config)
    for T in config.T_list:
        with open(tmp_path / f"results_T{T}.csv", newline="") as fh:
            assert [r["T"] for r in csv.DictReader(fh)] == [str(T)]


@pytest.mark.parametrize("call, message", [
    (lambda: build_design("spiral", 8, 2, tiny_config(), np.random.default_rng(0)),
     "unknown scheme 'spiral'"),
    (lambda: tiny_config(mode="bayes"), "mode must be 'noisy' or 'exact', got 'bayes'"),
    (lambda: config_from_dict([1, 2]), "config file must hold a JSON object"),
    (lambda: config_from_dict({"n": 8, "schemes": 5}),
     "config has a field of the wrong type: 'int' object is not iterable"),
])
def test_harness_boundary_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_every_recovery_refuses_a_partition_of_other_items():
    """Harness stage, least squares and exact recovery all refuse an 8-item partition of n=14 data"""
    truth = generate_ground_truth(14, 3)
    design = build_design("slice", 14, 2, tiny_config(), np.random.default_rng(0))
    table = harness.sample_counts(design_probabilities(truth, design), design, 70000, 1)
    partition = NestPartition([(1, 2, 3), (4, 5), (6, 7, 8)])
    message = "^control row offers items 1..14, partition covers items 1..8$"
    for call in (
        lambda: harness.recover_model(table, partition, design),
        lambda: harness.recover_model(table, partition, design, empirical_probabilities(table)),
        lambda: recover_least_squares(table, partition, design),
        lambda: recover_all(design_probabilities(truth, design), partition, design),
    ):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("field, value, message", [
    ("T_list", (9000.5,), "config field T_list entry must be an integer, got 9000.5"),
    ("T_list", (7000, 9000.0), "config field T_list entry must be an integer, got 9000.0"),
    ("n", 8.0, "config field n must be an integer, got 8.0"),
    ("b", "2", "config field b must be an integer, got '2'"),
    ("instances", 1.5, "config field instances must be an integer, got 1.5"),
    ("seed", None, "config field seed must be an integer, got None"),
    ("num_random_assortments", 4.0,
     "config field num_random_assortments must be an integer, got 4.0"),
])
def test_config_integer_fields_are_integers(field, value, message):
    """A float budget used to end in a TypeError from the cell seed, deep inside the grid"""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tiny_config(**{field: value})


def test_config_integer_fields_become_python_ints():
    config = config_from_dict({"n": np.int64(8), "T_list": [np.int64(7000)], "seed": np.int32(5)})
    assert config.T_list == (7000,) and type(config.T_list[0]) is int
    assert type(config.n) is int and type(config.seed) is int
    assert config.to_dict()["T_list"] == [7000]


def stage_cell(config, truth, instance, scheme, T):
    """One grid cell rebuilt from the stage functions: design, true probabilities, partition, fit"""
    seed = _cell_seed(config.seed, instance, scheme, T)
    design = build_design(scheme, truth.n, config.b, config,
                          np.random.default_rng(np.random.SeedSequence((seed, 0xD5))))
    true_probs = design_probabilities(truth, design)
    table = harness.sample_counts(true_probs, design, T, seed)
    if scheme == "default_two_nest":
        partition = default_two_nest_partition(truth.n)
    else:
        partition = harness.identify_partition(table, design, config.test_config())[1]
    estimate, flags = harness.recover_model(table, partition, design)
    return design, true_probs, partition, estimate, flags


def cli_scores(tmp_path, truth, estimate, design, capsys):
    """The JSON nestlab evaluate prints for the truth, estimate and design saved to files"""
    save_model(truth, str(tmp_path / "truth.json"))
    save_model(estimate, str(tmp_path / "est.json"))
    args = ["evaluate", "--true", str(tmp_path / "truth.json"), "--est", str(tmp_path / "est.json")]
    if design is not None:
        save_design(design, str(tmp_path / "design.json"))
        args += ["--design", str(tmp_path / "design.json")]
    capsys.readouterr()
    assert main(args) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("outside", [True, False])
def test_stage_functions_rebuild_grid_cells_and_their_scores(outside, tmp_path, capsys):
    """evaluate_model, the grid's PipelineResult and nestlab evaluate give the same floats"""
    config = tiny_config(
        schemes=("slice", "random", "default_two_nest"), T_list=(9000, 90000), outside=outside,
    )
    report = compare_designs(config)
    truths = _instance_models(config)
    assert not any(r.failed for r in report.results)
    for r in report.results:
        truth = truths[r.instance]
        design, true_probs, partition, estimate, flags = stage_cell(
            config, truth, r.instance, r.scheme, r.T
        )
        assert (partition, flags) == (r.partition, r.flags)
        scores = evaluate_model(truth, estimate, partition, design, true_probs,
                                all_subset_cells(truth))
        assert list(scores) == ["rand_index", "rmse_soft", "rmse_soft_restricted"]
        assert scores == {name: getattr(r, name) for name in scores}
        assert scores == evaluate_model(truth, estimate, partition, design)
        assert estimate.partition == partition  # no flat-logit fit among these cells
        printed = cli_scores(tmp_path, truth, estimate, design, capsys)
        assert list(printed) == list(scores) and printed == scores


def test_grid_scores_the_identified_partition_and_evaluate_the_models(tmp_path, capsys):
    """A one-nest fit without an outside option is saved as singletons; both scores are pinned"""
    config = ExperimentConfig(n=8, T_list=(9000, 90000), instances=30, outside=False)
    truth = _instance_models(config)[8]
    result = run_pipeline(truth, "random", 90000, config, _cell_seed(0, 8, "random", 90000), 8)
    design, _, partition, estimate, flags = stage_cell(config, truth, 8, "random", 90000)
    assert partition == truth.partition == NestPartition([tuple(range(1, 9))])
    assert flags == ("single-nest-mnl",) == result.flags
    assert estimate.partition == NestPartition([(i,) for i in range(1, 9)])
    assert result.rand_index == 1.0
    assert evaluate_model(truth, estimate, partition)["rand_index"] == 1.0
    assert evaluate_model(truth, estimate)["rand_index"] == 0.0
    assert cli_scores(tmp_path, truth, estimate, design, capsys)["rand_index"] == 0.0


def test_evaluate_model_scores_only_what_its_inputs_allow():
    """No rmse_soft past EXHAUSTIVE_LIMIT items, no restricted score without a design"""
    truth = generate_ground_truth(8, np.random.default_rng(3))
    estimate = generate_ground_truth(8, np.random.default_rng(4))
    assert list(evaluate_model(truth, estimate)) == ["rand_index", "rmse_soft"]
    design = slice_design(balanced_enumeration(8, 2))
    assert list(evaluate_model(truth, estimate, design=design)) == [
        "rand_index", "rmse_soft", "rmse_soft_restricted",
    ]
    big = generate_ground_truth(21, np.random.default_rng(5))
    assert list(evaluate_model(big, big)) == ["rand_index"]
    scores = evaluate_model(big, big, design=slice_design(balanced_enumeration(21, 2)))
    assert scores == {"rand_index": 1.0, "rmse_soft_restricted": 0.0}


EXACT_SCHEMES = ("slice", "slice_naive", "random", "loo", "incremental", "default_two_nest")


def test_exact_mode_cells_draw_no_counts(monkeypatch):
    """Only point_estimate reads exact mode's counts; the others check the budget and draw none"""
    config = tiny_config(schemes=EXACT_SCHEMES, T_list=(7000, 40000), mode="exact")
    drawn = compare_designs(config)

    def broken(*args, **kwargs):
        raise RuntimeError("counts drawn")

    monkeypatch.setattr(harness, "draw_counts", broken)
    skipped = compare_designs(config)
    assert all(same_result(a, b) for a, b in zip(drawn.results, skipped.results))
    assert len(skipped.results) == len(drawn.results)
    assert not any(r.failed for r in skipped.results)
    truth = _instance_models(config)[0]
    with pytest.raises(RuntimeError, match="counts drawn"):
        run_pipeline(truth, "point_estimate", 7000, config, seed=1)
    message = "budget 6 cannot give each of 7 assortments a customer"
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_pipeline(truth, "slice", 6, config, seed=1)
