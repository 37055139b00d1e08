"""End-to-end simulation pipeline and design comparison grid.

One pipeline run is: build a design, split the customer budget, sample
choices, identify the nest partition from the counts, fit parameters by
least squares, and score the fit against the ground truth.  The comparison
grid repeats this over instances x schemes x budgets with per-cell seeds, so
any cell is reproducible in isolation, and writes one CSV per budget plus a
summary JSON of means and confidence intervals.

The grid runs one instance at a time (one process-pool task per instance):
the instance's all-subset truth table is built once, shared by its cells'
rmse_soft scores, and dropped before the next instance.
"""

from __future__ import annotations

import csv
import json
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .designs import (
    ExperimentDesign,
    balanced_enumeration,
    incremental_design,
    leave_one_out_design,
    naive_encoding,
    randomized_design,
    slice_design,
)
from .identify import (
    TestConfig,
    boost_factors,
    exact_identify_with_outside,
    exact_identify_without_outside,
    noisy_identify_with_outside,
    noisy_identify_without_outside,
)
from .metrics import (
    EXHAUSTIVE_LIMIT,
    all_subset_probabilities,
    confidence_interval,
    rand_index,
    rmse_soft,
    rmse_soft_restricted,
)
from .model import (
    NestPartition,
    NestedLogitModel,
    check_general_position,
    design_probabilities,
    generate_ground_truth,
)
from .recovery import recover_all, recover_least_squares
from .sampling import allocate_customers, draw_counts, empirical_probabilities

DESIGN_SCHEMES = ("slice", "slice_naive", "random", "loo", "incremental")
BASELINE_SCHEMES = ("default_two_nest", "point_estimate")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one comparison grid."""

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
        valid = set(DESIGN_SCHEMES) | set(BASELINE_SCHEMES)
        bad = [s for s in self.schemes if s not in valid]
        if bad:
            raise ValueError(f"unknown schemes {bad}; expected one of {sorted(valid)}")
        if self.mode not in ("noisy", "exact"):
            raise ValueError(f"mode must be 'noisy' or 'exact', got {self.mode!r}")

    def test_config(self) -> TestConfig:
        return TestConfig(alpha=self.alpha, beta=self.beta)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "b": self.b,
            "schemes": list(self.schemes),
            "T_list": list(self.T_list),
            "instances": self.instances,
            "seed": self.seed,
            "outside": self.outside,
            "mode": self.mode,
            "alpha": self.alpha,
            "beta": self.beta,
            "num_random_assortments": self.num_random_assortments,
            "size_rule": self.size_rule,
            "output_dir": self.output_dir,
        }


def config_from_dict(data: dict) -> ExperimentConfig:
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    extra = set(data) - known
    if extra:
        raise ValueError(f"unknown config fields: {sorted(extra)}")
    data = dict(data)
    for key in ("schemes", "T_list"):
        if key in data:
            data[key] = tuple(data[key])
    return ExperimentConfig(**data)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def default_two_nest_partition(n: int) -> NestPartition:
    """The fixed strawman grouping: first half of the items versus the rest."""
    half = n // 2
    return NestPartition([tuple(range(1, half + 1)), tuple(range(half + 1, n + 1))])


@dataclass
class PipelineResult:
    instance: int
    scheme: str
    T: int
    partition: NestPartition | None
    rmse_soft: float
    rand_index: float
    rmse_soft_restricted: float
    failed: bool = False
    flags: tuple[str, ...] = ()
    failed_stage: str | None = None  # "identify" or "recovery" when failed


FAILURE_STAGES = ("identify", "recovery")


def build_design(
    scheme: str, n: int, b: int, config: ExperimentConfig, rng: np.random.Generator
) -> ExperimentDesign:
    if scheme in ("slice", *BASELINE_SCHEMES):
        return slice_design(balanced_enumeration(n, b))
    if scheme == "slice_naive":
        return slice_design(naive_encoding(n, b))
    if scheme == "random":
        encoding = balanced_enumeration(n, b)
        count = config.num_random_assortments or b * encoding.length
        return randomized_design(n, count, size_rule=config.size_rule, rng=rng)
    if scheme == "loo":
        return leave_one_out_design(n)
    if scheme == "incremental":
        return incremental_design(n, rng)
    raise ValueError(f"unknown scheme {scheme!r}")


def _identify(table, design, config: ExperimentConfig, truth: NestedLogitModel, true_probs):
    if config.mode == "exact":
        bf = boost_factors(true_probs[0], true_probs[1:], labels=design.labels)
        if truth.outside:
            return exact_identify_with_outside(bf, design)[1]
        return exact_identify_without_outside(bf, design)[1]
    if truth.outside:
        return noisy_identify_with_outside(table, design, config.test_config())[1]
    return noisy_identify_without_outside(table, design, config.test_config())[1]


def run_pipeline(
    truth: NestedLogitModel,
    scheme: str,
    T: int,
    config: ExperimentConfig,
    seed: int,
    instance: int = 0,
    truth_table: np.ndarray | None = None,
) -> PipelineResult:
    """Design, sample, identify, recover, and score one grid cell.

    The truth's design probabilities are computed once: counts are drawn
    from them, and exact identification, recover_all and the restricted
    score read them.
    Baseline schemes reuse the slice design's data: default_two_nest skips
    identification in favor of a fixed half split, and point_estimate skips
    modeling entirely, so it only gets the restricted score.  truth_table is
    all_subset_probabilities(truth) when the caller has it; rmse_soft is the
    same float either way, and NaN past metrics.EXHAUSTIVE_LIMIT items.
    """
    n = truth.n
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD5)))
    design = build_design(scheme, n, config.b, config, rng)
    allocation = allocate_customers(T, design.num_experiments + 1)
    true_probs = design_probabilities(truth, design)
    table = draw_counts(true_probs, design, allocation, seed)
    flags: list[str] = []

    if scheme == "point_estimate":
        restricted = rmse_soft_restricted(true_probs, empirical_probabilities(table))
        return PipelineResult(
            instance=instance,
            scheme=scheme,
            T=T,
            partition=None,
            rmse_soft=float("nan"),
            rand_index=float("nan"),
            rmse_soft_restricted=restricted,
        )

    stage = "identify"
    try:
        if scheme == "default_two_nest":
            partition = default_two_nest_partition(n)
        else:
            partition = _identify(table, design, config, truth, true_probs)
        stage = "recovery"
        if config.mode == "exact":
            estimate = recover_all(true_probs, partition, design)
        else:
            fit = recover_least_squares(table, partition, design)
            estimate = fit.model
            flags.extend(fit.flags)
    except Exception as exc:  # noqa: BLE001  degraded cell, scored as a failure
        return PipelineResult(
            instance=instance,
            scheme=scheme,
            T=T,
            partition=None,
            rmse_soft=float("nan"),
            rand_index=float("nan"),
            rmse_soft_restricted=float("nan"),
            failed=True,
            flags=(f"{type(exc).__name__}: {exc}",),
            failed_stage=stage,
        )

    soft = float("nan") if n > EXHAUSTIVE_LIMIT else rmse_soft(truth, estimate, truth_table)
    return PipelineResult(
        instance=instance,
        scheme=scheme,
        T=T,
        partition=partition,
        rmse_soft=soft,
        rand_index=rand_index(truth.partition, partition),
        rmse_soft_restricted=rmse_soft_restricted(true_probs, design_probabilities(estimate, design)),
        flags=tuple(flags),
    )


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
    """Every (scheme, T) cell of one instance, sharing one truth table.

    Cells go through the module-level run_pipeline, looked up per call.
    """
    config, instance, truth = args
    truth_table = all_subset_probabilities(truth) if truth.n <= EXHAUSTIVE_LIMIT else None
    return [
        run_pipeline(
            truth,
            scheme,
            T,
            config,
            _cell_seed(config.seed, instance, scheme, T),
            instance,
            truth_table=truth_table,
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
                for name in ("rmse_soft", "rand_index", "rmse_soft_restricted"):
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
    budget; general-position violations against the slice design get flagged
    (they void the identification guarantees, so the CLI exits nonzero).
    Work runs per instance: each instance builds its truth's all-subset
    table once for its cells' rmse_soft and drops it when done, so at most
    one table per worker is alive.  Results come back in (instance, scheme,
    T) order.  NESTLAB_THREADS > 1 distributes instances across processes,
    at most one per CPU.
    """
    models = _instance_models(config)
    slice_ref = slice_design(balanced_enumeration(config.n, config.b))
    violations = []
    for i, truth in enumerate(models):
        for label, k_a, k_b in check_general_position(truth, slice_ref):
            violations.append(
                f"instance {i}: nests {k_a} and {k_b} share a multiplier under {label}"
            )

    tasks = [(config, i, truth) for i, truth in enumerate(models)]
    threads = _worker_count()
    if threads > 1:
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
            writer.writerow(
                [
                    "instance",
                    "scheme",
                    "T",
                    "rmse_soft",
                    "rand_index",
                    "rmse_soft_restricted",
                    "failed",
                    "failed_stage",
                    "partition",
                ]
            )
            for r in report.results:
                if r.T != T:
                    continue
                groups = (
                    "|".join(",".join(str(i) for i in nest) for nest in r.partition.nests)
                    if r.partition is not None
                    else ""
                )
                writer.writerow(
                    [
                        r.instance,
                        r.scheme,
                        r.T,
                        f"{r.rmse_soft:.10g}",
                        f"{r.rand_index:.10g}",
                        f"{r.rmse_soft_restricted:.10g}",
                        int(r.failed),
                        r.failed_stage or "",
                        groups,
                    ]
                )
    with open(os.path.join(output_dir, "summary.json"), "w") as fh:
        json.dump(report.summary(), fh, indent=2)
        fh.write("\n")
