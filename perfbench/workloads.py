"""The benchmark's workloads: closed loops of nestlab operations.

Each workload builds its inputs from the seed, hands nestlab only the
generated truths, designs and counts, and checks every output.  Importing
this module imports numpy, scipy and nestlab, which is part of set-up.

A workload exposes run_batch(b, tracer), which runs batch b and returns one
OpRecord per operation.  With a real Tracer it records spans around every
call into a nestlab module and replays the batch's work untraced as well,
failing unless both give the same results.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
import zlib

import numpy as np

from nestlab import harness
from nestlab.communities import community_detect
from nestlab.designs import balanced_enumeration, slice_design
from nestlab.harness import ExperimentConfig, compare_designs, default_two_nest_partition
from nestlab.identify import (
    TestConfig,
    boost_factors,
    exact_identify_with_outside,
    exact_identify_without_outside,
    noisy_identify_with_outside,
)
from nestlab.metrics import rand_index, rmse_soft, rmse_soft_restricted
from nestlab.model import (
    NestedLogitModel,
    NestPartition,
    check_general_position,
    choice_probabilities,
    generate_ground_truth,
    normalize_identifiable,
)
from nestlab.recovery import recover_all, recover_least_squares
from nestlab.sampling import allocate_customers, load_counts, sample_choices, save_counts

from tracing import NULL_TRACER

NAN = float("nan")
EXACT_RECOVERY_RMSE = 1e-9  # exact recovery reproduces the design's probabilities


class CheckFailed(Exception):
    """A nestlab output failed a benchmark check; the run is not correct."""


@dataclasses.dataclass
class OpRecord:
    op: str
    batch: int
    seconds: float = NAN
    failed_stage: str | None = None
    error: str | None = None
    partition: NestPartition | None = None
    rand_index: float = NAN
    rmse_restricted: float = NAN
    rmse_soft: float = NAN
    overhead: float = NAN  # traced wall minus untraced wall, traced runs only

    @property
    def failed(self) -> bool:
        return self.failed_stage is not None

    def outcome(self) -> tuple:
        """Everything a traced replay must reproduce exactly."""
        nests = None if self.partition is None else self.partition.nests
        floats = tuple(
            "nan" if math.isnan(v) else v
            for v in (self.rand_index, self.rmse_restricted, self.rmse_soft)
        )
        return (self.failed_stage, self.error, nests, floats)


def _derived_seed(*words: int) -> int:
    state = np.random.SeedSequence(words).generate_state(1, dtype=np.uint64)
    return int(state[0])


def _rng(*words: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(words))


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_partition(partition: NestPartition, n: int, op: str) -> None:
    items = sorted(i for nest in partition.nests for i in nest)
    _check(items == list(range(1, n + 1)), f"{op}: partition does not cover 1..{n}")


def _check_scores(rec: OpRecord) -> None:
    _check(0.0 <= rec.rand_index <= 1.0, f"{rec.op}: rand index {rec.rand_index}")
    _check(
        math.isfinite(rec.rmse_restricted) and rec.rmse_restricted >= 0.0,
        f"{rec.op}: restricted rmse {rec.rmse_restricted}",
    )


def _probabilities(model, design, tracer):
    with tracer.span("model.choice_probabilities"):
        out = [choice_probabilities(model, items) for items in (design.control, *design.experiments)]
    tracer.count("model.probabilities_calls", len(out))
    return out


def _rand_index(truth, partition, tracer) -> float:
    with tracer.span("metrics.rand_index"):
        return rand_index(truth.partition, partition)


def _rmse_restricted(true_probs, estimate, design, tracer) -> float:
    est_probs = _probabilities(estimate, design, tracer)
    with tracer.span("metrics.rmse_soft_restricted"):
        return rmse_soft_restricted(true_probs, est_probs)


def _pair_tests(table) -> tuple[int, int]:
    """(equality tests attempted, tests skipped for zero evidence) over all experiments.

    A pair's z-test has no evidence when both items drew no customer in the
    experiment, or both drew none in the control.
    """
    tests = skips = 0
    control = table.counts[0]
    for items, counts in zip(table.assortments[1:], table.counts[1:]):
        tests += math.comb(len(items), 2)
        zero_here = {i for i in items if counts[i] == 0}
        zero_control = {i for i in items if control[i] == 0}
        skips += (
            math.comb(len(zero_here), 2)
            + math.comb(len(zero_control), 2)
            - math.comb(len(zero_here & zero_control), 2)
        )
    return tests, skips


def _identify_noisy(table, design, config: TestConfig, tracer) -> NestPartition:
    """noisy_identify_with_outside; traced, community detection runs again on its edges.

    The re-run's time stands for the detection inside the identification
    call, which no span can reach.
    """
    with tracer.span("identify.noisy_identify_with_outside"):
        edges, partition = noisy_identify_with_outside(table, design, config)
    if tracer.enabled:
        start = time.perf_counter()
        with tracer.span("communities.community_detect"):
            again = community_detect(edges.values)
        tracer.count("trace.rerun_s", time.perf_counter() - start)
        _check(again.nests == partition.nests, "community_detect on the returned edges differs")
        upper = edges.values[np.triu_indices(edges.n, k=1)]
        tracer.count("communities.calls")
        tracer.count("communities.edge_nnz", int((upper > 0.0).sum()))
        tracer.count("communities.found", partition.num_nests)
        tracer.count("identify.edges_zero", int((upper == 0.0).sum()))
        tracer.count("identify.edges_one", int((upper == 1.0).sum()))
        tracer.count("identify.edges_soft", int(((upper > 0.0) & (upper < 1.0)).sum()))
        tests, skips = _pair_tests(table)
        tracer.count("identify.pair_tests", tests)
        tracer.count("identify.zero_evidence_skips", skips)
    return partition


def _fail(rec: OpRecord, stage: str, exc: Exception, tracer) -> None:
    rec.failed_stage = stage
    rec.error = type(exc).__name__
    if stage == "recovery":
        tracer.count("recovery.failures")


def _traced_twin(run, b: int, tracer) -> OpRecord:
    """Run operation b untraced, then traced, and require the same outcome."""
    rec = run(b, NULL_TRACER)
    tracer.op = rec.op
    rerun_before = tracer.counts["trace.rerun_s"]
    start = time.perf_counter()
    traced = run(b, tracer)
    wall = time.perf_counter() - start
    _check(traced.outcome() == rec.outcome(), f"{rec.op}: traced run differs from untraced")
    rec.overhead = wall - (tracer.counts["trace.rerun_s"] - rerun_before) - rec.seconds
    return rec


class GridN16:
    """harness.compare_designs batches; one operation is one grid cell."""

    name = "grid_n16"

    def __init__(self, seed: int, smoke: bool, tracer, workdir: str):
        self.seed = seed
        self.config = ExperimentConfig(
            n=6 if smoke else 16,
            b=2,
            schemes=("slice", "random", "default_two_nest"),
            T_list=(9000, 90000, 450000),
            instances=1 if smoke else 4,
            outside=True,
            mode="noisy",
            alpha=0.05,
        )
        self.quality_batches = 1 if smoke else 4
        self.violations = 0
        # The one hook: compare_designs runs each cell through the module-level
        # run_pipeline, so timing that name gives per-cell times.
        self.cell_seconds: list[float] = []
        cell_seconds = self.cell_seconds
        run_pipeline = harness.run_pipeline

        def timed_run_pipeline(*args, **kwargs):
            start = time.perf_counter()
            try:
                return run_pipeline(*args, **kwargs)
            finally:
                cell_seconds.append(time.perf_counter() - start)

        harness.run_pipeline = timed_run_pipeline

    def params(self) -> dict:
        return {
            **self.config.to_dict(),
            "seed": "per batch, derived from --seed",
            "instances_per_batch": self.config.instances,
            "quality_batches": self.quality_batches,
        }

    def run_batch(self, b: int, tracer) -> list[OpRecord]:
        config = dataclasses.replace(self.config, seed=_derived_seed(self.seed, 0x6121D, b))
        self.cell_seconds.clear()
        report = compare_designs(config)
        cells = [
            (i, scheme, T)
            for i in range(config.instances)
            for scheme in config.schemes
            for T in config.T_list
        ]
        _check(
            len(report.results) == len(cells) == len(self.cell_seconds),
            f"batch {b}: {len(report.results)} cells, expected {len(cells)}",
        )
        self.violations += len(report.assumption_violations)
        records = []
        for c, ((i, scheme, T), result, seconds) in enumerate(
            zip(cells, report.results, self.cell_seconds)
        ):
            _check(
                (result.instance, result.scheme, result.T) == (i, scheme, T),
                f"batch {b}: cell {c} out of order",
            )
            rec = OpRecord(
                op=f"b{b}c{c}",
                batch=b,
                seconds=seconds,
                partition=result.partition,
                rand_index=result.rand_index,
                rmse_restricted=result.rmse_soft_restricted,
                rmse_soft=result.rmse_soft,
            )
            if result.failed:
                rec.failed_stage = "harness.run_pipeline"
                rec.error = result.flags[0].split(":", 1)[0]
            else:
                _check_partition(result.partition, config.n, rec.op)
                _check_scores(rec)
                _check(math.isfinite(rec.rmse_soft), f"{rec.op}: rmse_soft {rec.rmse_soft}")
            records.append(rec)
        if tracer.enabled:
            self._replay(b, config, report, cells, records, tracer)
        return records

    def _replay(self, b, config, report, cells, records, tracer) -> None:
        """Repeat every cell through the public layer calls, under spans."""
        tracer.op = f"b{b}"
        with tracer.span("model.generate_ground_truth"):
            truths = [
                generate_ground_truth(config.n, _rng(config.seed, 0xA11CE, i), outside=config.outside)
                for i in range(config.instances)
            ]
        with tracer.span("designs.build"):
            slice_ref = slice_design(balanced_enumeration(config.n, config.b))
        with tracer.span("model.check_general_position"):
            violations = sum(len(check_general_position(t, slice_ref)) for t in truths)
        _check(violations == len(report.assumption_violations), "replayed violations differ")
        tracer.count("harness.violations", violations)
        for (i, scheme, T), rec in zip(cells, records):
            tracer.op = rec.op
            seed = _derived_seed(config.seed, i, zlib.crc32(scheme.encode()), T)
            rerun_before = tracer.counts["trace.rerun_s"]
            start = time.perf_counter()
            replayed = self._replay_cell(truths[i], scheme, T, config, seed, rec.op, tracer)
            wall = time.perf_counter() - start
            replayed.seconds = rec.seconds
            outcome = replayed.outcome()
            expected = rec.outcome()
            if rec.failed:  # the replay knows the failing stage; compare_designs does not
                outcome = outcome[1:]
                expected = expected[1:]
                rec.failed_stage = replayed.failed_stage
            _check(outcome == expected, f"{rec.op}: replay differs from compare_designs")
            rec.overhead = wall - (tracer.counts["trace.rerun_s"] - rerun_before) - rec.seconds

    def _replay_cell(self, truth, scheme, T, config, seed, op, tracer) -> OpRecord:
        # Mirrors harness.run_pipeline for the noisy-mode schemes this grid runs.
        rec = OpRecord(op=op, batch=-1)
        with tracer.span("harness.run_pipeline"):
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD5)))
            with tracer.span("designs.build"):
                design = harness.build_design(scheme, truth.n, config.b, config, rng)
            allocation = allocate_customers(T, design.num_experiments + 1)
            with tracer.span("sampling.sample_choices"):
                table = sample_choices(truth, design, allocation, seed)
            tracer.count("sampling.customers", T)
            true_probs = _probabilities(truth, design, tracer)
            stage = "identify"
            try:
                if scheme == "default_two_nest":
                    partition = default_two_nest_partition(truth.n)
                else:
                    partition = _identify_noisy(table, design, config.test_config(), tracer)
                stage = "recovery"
                with tracer.span("recovery.recover_least_squares"):
                    fit = recover_least_squares(table, partition, design)
            except CheckFailed:
                raise
            except Exception as exc:  # noqa: BLE001  run_pipeline scores this cell as failed
                _fail(rec, stage, exc, tracer)
                return rec
            tracer.count("recovery.flags", len(fit.flags))
            rec.partition = partition
            with tracer.span("metrics.rmse_soft"):
                rec.rmse_soft = rmse_soft(truth, fit.model)
            tracer.count("metrics.subsets_scored", 2**truth.n - 1)
            rec.rand_index = _rand_index(truth, partition, tracer)
            rec.rmse_restricted = _rmse_restricted(true_probs, fit.model, design, tracer)
        return rec


def _truth_with_nests(
    n: int, num_nests: int, rng: np.random.Generator, outside: bool
) -> NestedLogitModel:
    """generate_ground_truth's distribution with the nest count fixed.

    Both n=512 pipelines cost more or less with the nest count (community
    detection grows with the largest nests), so a fixed count keeps one
    operation's cost comparable across seeds.
    """
    perm = rng.permutation(n) + 1
    cuts = np.sort(rng.choice(n - 1, size=num_nests - 1, replace=False)) + 1
    bounds = [0, *cuts.tolist(), n]
    nests = [tuple(sorted(int(x) for x in perm[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    weights = tuple(float(w) for w in rng.uniform(1.0, 10.0, size=n))
    lambdas = rng.uniform(0.3, 0.6, size=num_nests)
    order = sorted(range(num_nests), key=lambda k: nests[k][0])
    model = NestedLogitModel(
        partition=NestPartition(nests),
        weights=weights,
        lambdas=tuple(float(lambdas[k]) for k in order),
        outside=outside,
    )
    return normalize_identifiable(model)


class NoisyN512:
    """One store per operation: sample, CSV round trip, identify, fit, score."""

    name = "noisy_n512"
    pool = 8
    customers = 10**8

    def __init__(self, seed: int, smoke: bool, tracer, workdir: str):
        self.seed = seed
        self.n = 24 if smoke else 512
        self.num_nests = self.n // 4
        self.quality_batches = 1 if smoke else 2
        self.config = TestConfig(alpha=0.05)
        with tracer.span("designs.build"):
            self.design = slice_design(balanced_enumeration(self.n, 2))
        with tracer.span("model.truth"):
            self.truths = [
                _truth_with_nests(self.n, self.num_nests, _rng(seed, 0x5105E, k), outside=True)
                for k in range(self.pool)
            ]
        self.allocation = allocate_customers(self.customers, self.design.num_experiments + 1)
        self.csv_path = os.path.join(workdir, f"counts-{self.name}-{seed}.csv")

    def params(self) -> dict:
        return {
            "n": self.n,
            "b": 2,
            "design": "slice",
            "nests": self.num_nests,
            "outside": True,
            "customers": self.customers,
            "alpha": self.config.alpha,
            "truth_pool": self.pool,
            "quality_batches": self.quality_batches,
        }

    def run_batch(self, b: int, tracer) -> list[OpRecord]:
        if tracer.enabled:
            return [_traced_twin(self._op, b, tracer)]
        return [self._op(b, tracer)]

    def _op(self, k: int, tracer) -> OpRecord:
        truth = self.truths[k % self.pool]
        rec = OpRecord(op=f"op{k}", batch=k)
        table = loaded = None
        stage = "sampling"
        start = time.perf_counter()
        try:
            with tracer.span("sampling.sample_choices"):
                table = sample_choices(
                    truth, self.design, self.allocation, _derived_seed(self.seed, 0x5A4E, k)
                )
            tracer.count("sampling.customers", self.customers)
            with tracer.span("sampling.csv_roundtrip"):
                save_counts(table, self.csv_path)
                loaded = load_counts(self.csv_path, self.n)
            stage = "identify"
            partition = _identify_noisy(loaded, self.design, self.config, tracer)
            rec.partition = partition
            stage = "metrics"
            rec.rand_index = _rand_index(truth, partition, tracer)
            stage = "recovery"
            with tracer.span("recovery.recover_least_squares"):
                fit = recover_least_squares(loaded, partition, self.design)
            tracer.count("recovery.flags", len(fit.flags))
            stage = "metrics"
            true_probs = _probabilities(truth, self.design, tracer)
            rec.rmse_restricted = _rmse_restricted(true_probs, fit.model, self.design, tracer)
        except CheckFailed:
            raise
        except Exception as exc:  # noqa: BLE001  a failed operation is counted, not fatal
            _fail(rec, stage, exc, tracer)
        rec.seconds = time.perf_counter() - start
        if loaded is not None:
            _check(loaded == table, f"{rec.op}: counts changed in the CSV round trip")
        if rec.partition is not None:
            _check_partition(rec.partition, self.n, rec.op)
        if not rec.failed:
            _check_scores(rec)
        return rec


class ExactN512:
    """Exact probabilities, boost factors, exact identification, recover_all, scoring.

    Operations alternate between truths with and without an outside option.
    """

    name = "exact_n512"
    pool = 32

    def __init__(self, seed: int, smoke: bool, tracer, workdir: str):
        # Not smaller for smoke runs: at n <= 64 the no-outside identifier can
        # join unit-lambda singleton nests, which the rand index check reports.
        self.n = 128 if smoke else 512
        self.num_nests = self.n // 4
        self.quality_batches = 2
        with tracer.span("designs.build"):
            self.design = slice_design(balanced_enumeration(self.n, 2))
        with tracer.span("model.truth"):
            self.truths = [
                _truth_with_nests(self.n, self.num_nests, _rng(seed, 0xE4AC7, k), outside=k % 2 == 0)
                for k in range(self.pool)
            ]
        self.general_position: dict[int, bool] = {}  # pool index -> in general position

    def params(self) -> dict:
        return {
            "n": self.n,
            "b": 2,
            "design": "slice",
            "nests": self.num_nests,
            "outside": "alternating, starting with an outside option",
            "truth_pool": self.pool,
            "quality_batches": self.quality_batches,
        }

    def run_batch(self, b: int, tracer) -> list[OpRecord]:
        if tracer.enabled:
            return [_traced_twin(self._op, b, tracer)]
        return [self._op(b, tracer)]

    def _op(self, k: int, tracer) -> OpRecord:
        truth = self.truths[k % self.pool]
        rec = OpRecord(op=f"op{k}", batch=k)
        stage = "model"
        start = time.perf_counter()
        try:
            probs = _probabilities(truth, self.design, tracer)
            stage = "identify"
            with tracer.span("identify.boost_factors"):
                boosts = boost_factors(probs[0], probs[1:], labels=self.design.labels)
            identify = exact_identify_with_outside if truth.outside else exact_identify_without_outside
            with tracer.span(f"identify.{identify.__name__}"):
                _, partition = identify(boosts, self.design)
            rec.partition = partition
            stage = "metrics"
            rec.rand_index = _rand_index(truth, partition, tracer)
            stage = "recovery"
            with tracer.span("recovery.recover_all"):
                estimate = recover_all(probs, partition, self.design)
            stage = "metrics"
            rec.rmse_restricted = _rmse_restricted(probs, estimate, self.design, tracer)
        except CheckFailed:
            raise
        except Exception as exc:  # noqa: BLE001  a failed operation is counted, not fatal
            _fail(rec, stage, exc, tracer)
        rec.seconds = time.perf_counter() - start
        self._check(k, truth, rec)
        return rec

    @property
    def violations(self) -> int:
        """Truths used so far on which check_general_position flags a pair of nests."""
        return sum(not ok for ok in self.general_position.values())

    def _check(self, k: int, truth, rec: OpRecord) -> None:
        _check(rec.partition is not None, f"{rec.op}: identification failed ({rec.error})")
        _check_partition(rec.partition, self.n, rec.op)
        index = k % self.pool
        if index not in self.general_position:
            self.general_position[index] = not check_general_position(truth, self.design)
        if not self.general_position[index]:
            return  # the guarantee below assumes general position
        # The paper's guarantee: exact identification recovers the partition.
        _check(rec.rand_index == 1.0, f"{rec.op}: rand index {rec.rand_index} below 1")
        if not rec.failed:
            _check(
                rec.rmse_restricted <= EXACT_RECOVERY_RMSE,
                f"{rec.op}: exact recovery misses the design probabilities by {rec.rmse_restricted}",
            )


WORKLOADS = {cls.name: cls for cls in (GridN16, NoisyN512, ExactN512)}


def make(name: str, seed: int, smoke: bool, tracer, workdir: str):
    return WORKLOADS[name](seed, smoke, tracer, workdir)
