"""End-to-end simulation pipeline and design comparison grid.

One pipeline run is: build a design, split the customer budget, sample
choices, identify the nest partition from the counts, fit parameters by
least squares, and score the fit against the ground truth.  Each stage is
one function (build_design, sample_counts, identify_partition, recover_model,
evaluate_model), which the nestlab subcommands call too.  The comparison grid
repeats this over instances x schemes x budgets with per-cell seeds, so any
cell is reproducible in isolation, and writes one CSV per budget plus a
summary JSON of means and confidence intervals.

The grid runs one instance at a time (one process-pool task per instance):
the instance's all-subset truth cells (metrics.all_subset_cells) are built
once, shared by its cells' rmse_soft scores, and dropped before the next
instance.  So are the slice design and the truth's probabilities on it,
shared by the cells of the schemes that run on it; the randomized and
incremental designs depend on each cell's seed and are built per cell.
"""

from __future__ import annotations

import csv
import os
import zlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .designs import (
    SIZE_RULES,
    ExperimentDesign,
    balanced_enumeration,
    incremental_design,
    leave_one_out_design,
    naive_encoding,
    randomized_design,
    slice_design,
)
from .identify import (
    EdgeMatrix,
    TestConfig,
    boost_factors,
    exact_identify_with_outside,
    exact_identify_without_outside,
    noisy_identify_with_outside,
    noisy_identify_without_outside,
)
from .metrics import (
    EXHAUSTIVE_LIMIT,
    all_subset_cells,
    confidence_interval,
    rand_index,
    rmse_soft,
    rmse_soft_restricted,
)
from .model import (
    EXACT_TOLERANCE,
    ChoiceProbabilities,
    NestPartition,
    NestedLogitModel,
    check_general_position,
    design_probabilities,
    from_json_object,
    generate_ground_truth,
    integer,
    read_json,
    write_json,
)
from .recovery import recover_all, recover_least_squares
from .sampling import ChoiceCountTable, allocate_customers, draw_counts, empirical_probabilities

DESIGN_SCHEMES = ("slice", "slice_naive", "random", "loo", "incremental")
BASELINE_SCHEMES = ("default_two_nest", "point_estimate")
SLICE_SCHEMES = ("slice", *BASELINE_SCHEMES)  # the schemes run on the slice design


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one comparison grid, each field checked at load (integers with lower bounds)."""

    n: int = 16
    b: int = 2
    schemes: tuple[str, ...] = ("slice", "random", "default_two_nest")
    T_list: tuple[int, ...] = (9000, 90000, 450000)
    instances: int = 50
    seed: int = 0
    outside: bool = True
    mode: str = "noisy"  # or "exact": identification from exact probabilities
    alpha: float = 0.05
    beta: float | None = None
    num_random_assortments: int | None = None  # defaults to the slice count b*L
    size_rule: str = "half"
    output_dir: str | None = None

    def __post_init__(self):
        bounds = {"n": 2, "b": 2, "instances": 1, "seed": 0}
        if self.num_random_assortments is not None:
            bounds["num_random_assortments"] = 1
        for name, least in bounds.items():
            value = integer(getattr(self, name), f"config field {name}", least)
            object.__setattr__(self, name, value)
        if self.size_rule not in SIZE_RULES:
            raise ValueError(f"size_rule must be one of {list(SIZE_RULES)}, got {self.size_rule!r}")
        T_list = tuple(integer(T, "config field T_list entry", 1) for T in self.T_list)
        object.__setattr__(self, "T_list", T_list)
        object.__setattr__(self, "schemes", tuple(self.schemes))
        valid = set(DESIGN_SCHEMES) | set(BASELINE_SCHEMES)
        bad = [s for s in self.schemes if s not in valid]
        if bad:
            raise ValueError(f"unknown schemes {bad}; expected one of {sorted(valid)}")
        if self.mode not in ("noisy", "exact"):
            raise ValueError(f"mode must be 'noisy' or 'exact', got {self.mode!r}")
        self.test_config()  # TestConfig checks alpha and beta at load time

    def test_config(self) -> TestConfig:
        return TestConfig(alpha=self.alpha, beta=self.beta)

    def to_dict(self) -> dict:
        return {**asdict(self), "schemes": list(self.schemes), "T_list": list(self.T_list)}


def _config_from_object(data: dict) -> ExperimentConfig:
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    extra = set(data) - known
    if extra:
        raise ValueError(f"unknown config fields: {sorted(extra)}")
    return ExperimentConfig(**data)


def config_from_dict(data: dict) -> ExperimentConfig:
    return from_json_object(data, "config", (), _config_from_object)


def load_config(path: str) -> ExperimentConfig:
    return read_json(path, "config", (), _config_from_object)


def default_two_nest_partition(n: int) -> NestPartition:
    """The fixed strawman grouping: first half of the items versus the rest."""
    half = n // 2
    return NestPartition([tuple(range(1, half + 1)), tuple(range(half + 1, n + 1))])


@dataclass
class PipelineResult:
    """One grid cell; each score stays NaN until its stage runs."""

    instance: int
    scheme: str
    T: int
    partition: NestPartition | None = None
    rmse_soft: float = float("nan")
    rand_index: float = float("nan")
    rmse_soft_restricted: float = float("nan")
    flags: tuple[str, ...] = ()
    failed_stage: str | None = None  # "identify" or "recovery" when failed

    @property
    def failed(self) -> bool:
        return self.failed_stage is not None


SCORES = ("rmse_soft", "rand_index", "rmse_soft_restricted")
FAILURE_STAGES = ("identify", "recovery")


def build_design(
    scheme: str, n: int, b: int, config: ExperimentConfig, rng: np.random.Generator
) -> ExperimentDesign:
    """The design of a scheme; random reads config's count and size rule."""
    if scheme in SLICE_SCHEMES:
        return slice_design(balanced_enumeration(n, b))
    if scheme == "slice_naive":
        return slice_design(naive_encoding(n, b))
    if scheme == "random":
        count = config.num_random_assortments or b * balanced_enumeration(n, b).length
        return randomized_design(n, count, size_rule=config.size_rule, rng=rng)
    if scheme == "loo":
        return leave_one_out_design(n)
    if scheme == "incremental":
        return incremental_design(n, rng)
    raise ValueError(f"unknown scheme {scheme!r}")


def sample_counts(
    probs: list[ChoiceProbabilities], design: ExperimentDesign, T: int, seed: int
) -> ChoiceCountTable:
    """Counts of T customers split as evenly as possible over the control and every experiment."""
    return draw_counts(probs, design, allocate_customers(T, design.num_experiments + 1), seed)


def identify_partition(
    table: ChoiceCountTable | None, design: ExperimentDesign, test_config: TestConfig,
    probs: list[ChoiceProbabilities] | None = None, tol: float = EXACT_TOLERANCE,
) -> tuple[EdgeMatrix, NestPartition]:
    """Edges and partition: exact rules on probs' boosts if given, else test_config's tests.

    probs is recover_model's: the control row, then one per experiment.  Each
    picks the with- or without-outside identifier by its own outside flag.
    """
    if probs is not None:
        boosts = boost_factors(probs[0], probs[1:], design.labels)
        exact = exact_identify_with_outside if boosts.outside else exact_identify_without_outside
        return exact(boosts, design, tol=tol)
    noisy = noisy_identify_with_outside if table.outside else noisy_identify_without_outside
    return noisy(table, design, test_config)


def recover_model(
    table: ChoiceCountTable | None, partition: NestPartition, design: ExperimentDesign,
    probs: list[ChoiceProbabilities] | None = None,
) -> tuple[NestedLogitModel, tuple[str, ...]]:
    """Fitted model and flags: exact recovery from probs if given, else least squares on table."""
    if probs is not None:
        return recover_all(probs, partition, design), ()
    fit = recover_least_squares(table, partition, design)
    return fit.model, tuple(fit.flags)


def evaluate_model(
    truth: NestedLogitModel, estimate: NestedLogitModel,
    partition: NestPartition | None = None, design: ExperimentDesign | None = None,
    true_probs: list[ChoiceProbabilities] | None = None, truth_cells: np.ndarray | None = None,
) -> dict[str, float]:
    """Scores of estimate against truth, keyed rand_index, rmse_soft, rmse_soft_restricted.

    rand_index scores partition, the estimate's own partition when None.
    The two differ where least squares fits a one-nest partition without an
    outside option as the flat logit (singleton nests, flag single-nest-mnl):
    the grid scores the partition it identified, nestlab evaluate the model's.
    rmse_soft is left out past EXHAUSTIVE_LIMIT items, and reads truth_cells
    (all_subset_cells(truth)) when given; rmse_soft_restricted needs a design,
    and reads true_probs (the truth's probabilities on it) when given.  Either
    given input yields the same floats as computing it here.
    """
    if partition is None:
        partition = estimate.partition
    scores = {"rand_index": rand_index(truth.partition, partition)}
    if truth.n <= EXHAUSTIVE_LIMIT:
        scores["rmse_soft"] = rmse_soft(truth, estimate, truth_cells)
    if design is not None:
        true_probs = design_probabilities(truth, design) if true_probs is None else true_probs
        est_probs = design_probabilities(estimate, design)
        scores["rmse_soft_restricted"] = rmse_soft_restricted(true_probs, est_probs)
    return scores


def run_pipeline(
    truth: NestedLogitModel,
    scheme: str,
    T: int,
    config: ExperimentConfig,
    seed: int,
    instance: int = 0,
    truth_cells: np.ndarray | None = None,
    slice_probs: tuple[ExperimentDesign, list[ChoiceProbabilities]] | None = None,
) -> PipelineResult:
    """Design, sample, identify, recover, and score one grid cell, one stage function each.

    The truth's design probabilities are computed once: counts are drawn
    from them, and exact identification and recovery (mode "exact", which
    draws counts only for point_estimate) and the restricted score read them.
    Baseline schemes reuse the slice design's data: default_two_nest skips
    identification in favor of a fixed half split, and point_estimate skips
    modeling entirely, so it only gets the restricted score.  Other cells
    take evaluate_model's scores of the identified partition; truth_cells is
    all_subset_cells(truth) when the caller has it.
    slice_probs is the slice design and the truth's probabilities on it,
    for a scheme in SLICE_SCHEMES when the caller has them: that design
    does not depend on the cell's seed, so every result is the same
    either way.  Other schemes build their design from the seed.
    """
    n = truth.n
    if slice_probs is None:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD5)))
        design = build_design(scheme, n, config.b, config, rng)
        true_probs = design_probabilities(truth, design)
    elif scheme in SLICE_SCHEMES:
        design, true_probs = slice_probs
    else:
        raise ValueError(f"scheme {scheme!r} does not run on the slice design")
    result = PipelineResult(instance=instance, scheme=scheme, T=T)
    if scheme == "point_estimate":
        empirical = empirical_probabilities(sample_counts(true_probs, design, T, seed))
        return replace(result, rmse_soft_restricted=rmse_soft_restricted(true_probs, empirical))

    exact_probs = true_probs if config.mode == "exact" else None
    if exact_probs is not None:  # the exact stages read no counts, so only the budget check runs
        allocate_customers(T, design.num_experiments + 1)
    table = sample_counts(true_probs, design, T, seed) if exact_probs is None else None
    stage = "identify"
    try:
        if scheme == "default_two_nest":
            partition = default_two_nest_partition(n)
        else:
            partition = identify_partition(table, design, config.test_config(), exact_probs)[1]
        stage = "recovery"
        estimate, result.flags = recover_model(table, partition, design, exact_probs)
    except Exception as exc:  # noqa: BLE001  degraded cell, scored as a failure
        result.flags = (f"{type(exc).__name__}: {exc}",)
        result.failed_stage = stage
        return result

    scores = evaluate_model(truth, estimate, partition, design, true_probs, truth_cells)
    return replace(result, partition=partition, **scores)


def _cell_seed(master: int, instance: int, scheme: str, T: int) -> int:
    mix = np.random.SeedSequence(
        (master, instance, zlib.crc32(scheme.encode()), T)
    )
    return int(mix.generate_state(1, dtype=np.uint64)[0])


def _instance_models(config: ExperimentConfig) -> list[NestedLogitModel]:
    models = []
    for i in range(config.instances):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xA11CE, i)))
        models.append(generate_ground_truth(config.n, rng, outside=config.outside))
    return models


def _run_instance(args) -> list[PipelineResult]:
    """Every (scheme, T) cell of one instance, sharing one vector of truth cells.

    The slice schemes' cells also share the grid's slice design and the
    truth's probabilities on it, computed once here.  Cells go through the
    module-level run_pipeline, looked up per call.
    """
    config, instance, truth, design = args
    truth_cells = all_subset_cells(truth) if truth.n <= EXHAUSTIVE_LIMIT else None
    slice_probs = design, design_probabilities(truth, design)
    return [
        run_pipeline(
            truth,
            scheme,
            T,
            config,
            _cell_seed(config.seed, instance, scheme, T),
            instance,
            truth_cells=truth_cells,
            slice_probs=slice_probs if scheme in SLICE_SCHEMES else None,
        )
        for scheme in config.schemes
        for T in config.T_list
    ]


@dataclass
class CompareReport:
    config: ExperimentConfig
    results: list[PipelineResult]
    assumption_violations: list[str] = field(default_factory=list)

    def cell(self, scheme: str, T: int) -> list[PipelineResult]:
        return [r for r in self.results if r.scheme == scheme and r.T == T]

    def summary(self) -> dict:
        out: dict = {"config": self.config.to_dict(), "cells": []}
        for scheme in self.config.schemes:
            for T in self.config.T_list:
                rows = self.cell(scheme, T)
                entry: dict = {
                    "scheme": scheme,
                    "T": T,
                    "runs": len(rows),
                    "failures": sum(r.failed for r in rows),
                    "failures_by_stage": {
                        stage: sum(r.failed_stage == stage for r in rows)
                        for stage in FAILURE_STAGES
                    },
                }
                for name in SCORES:
                    vals = [getattr(r, name) for r in rows if not np.isnan(getattr(r, name))]
                    if len(vals) >= 2:
                        mean, low, high = confidence_interval(vals)
                        entry[name] = {"mean": mean, "ci_low": low, "ci_high": high}
                out["cells"].append(entry)
        out["assumption_violations"] = self.assumption_violations
        return out


def _worker_count() -> int:
    """Worker processes requested by NESTLAB_THREADS, capped at the CPU count.

    Unset means 1 (serial).  Anything but an integer of at least 1 raises.
    """
    raw = os.environ.get("NESTLAB_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"NESTLAB_THREADS must be an integer >= 1, got {raw!r}")
    return min(threads, os.cpu_count() or 1)


def compare_designs(config: ExperimentConfig) -> CompareReport:
    """Run the full comparison grid and optionally write its reports.

    Ground-truth instances are generated once and shared by every scheme and
    budget, and the slice design once for the grid; general-position
    violations against it get flagged (they void the identification
    guarantees, so the CLI exits nonzero).
    Work runs per instance: each instance builds its truth's all-subset
    cells once for its cells' rmse_soft, and its truth's probabilities on
    the slice design once for the slice schemes' cells, and drops them
    when done, so at most one such vector per worker is alive.  Results
    come back in (instance, scheme, T) order.  NESTLAB_THREADS > 1
    distributes instances across processes, at most one per CPU.
    """
    models = _instance_models(config)
    slice_ref = slice_design(balanced_enumeration(config.n, config.b))
    violations = []
    for i, truth in enumerate(models):
        for label, k_a, k_b in check_general_position(truth, slice_ref):
            violations.append(
                f"instance {i}: nests {k_a} and {k_b} share a multiplier under {label}"
            )

    tasks = [(config, i, truth, slice_ref) for i, truth in enumerate(models)]
    threads = _worker_count()
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import, and only needed here
        with ProcessPoolExecutor(max_workers=threads) as pool:
            per_instance = list(pool.map(_run_instance, tasks, chunksize=1))
    else:
        per_instance = [_run_instance(task) for task in tasks]
    results = [r for cells in per_instance for r in cells]

    report = CompareReport(config=config, results=results, assumption_violations=violations)
    if config.output_dir:
        write_report(report, config.output_dir)
    return report


def write_report(report: CompareReport, output_dir: str) -> None:
    os.makedirs(output_dir, exist_ok=True)
    for T in report.config.T_list:
        path = os.path.join(output_dir, f"results_T{T}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([
                "instance", "scheme", "T", *SCORES, "failed", "failed_stage", "flags", "partition",
            ])
            for r in report.results:
                if r.T != T:
                    continue
                groups = (
                    "|".join(",".join(str(i) for i in nest) for nest in r.partition.nests)
                    if r.partition is not None
                    else ""
                )
                writer.writerow([
                    r.instance, r.scheme, r.T, *(f"{getattr(r, name):.10g}" for name in SCORES),
                    int(r.failed), r.failed_stage or "", "; ".join(r.flags), groups,
                ])
    write_json(report.summary(), os.path.join(output_dir, "summary.json"))
