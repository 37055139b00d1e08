"""Tests for parameter recovery from choice probabilities and counts."""

import contextlib
import itertools
import math

import numpy as np
import pytest

from nestlab import recovery
from nestlab.designs import (
    balanced_enumeration,
    code_length,
    leave_one_out_design,
    randomized_design,
    slice_design,
)
from nestlab.metrics import rmse_soft
from nestlab.model import (
    NestPartition,
    NestedLogitModel,
    choice_probabilities,
    design_probabilities,
    generate_ground_truth,
    normalize_identifiable,
)
from nestlab.recovery import (
    RecoveryError,
    SingularSystemError,
    recover_all,
    recover_least_squares,
    within_nest_weights,
)
from nestlab.sampling import allocate_customers, sample_choices


def test_within_nest_weights_normalizes_lowest_index():
    control = choice_probabilities(
        NestedLogitModel(
            partition=NestPartition([(1, 3), (2,)]),
            weights=(2.0, 5.0, 6.0),
            lambdas=(0.5, 1.0),
            outside=True,
        ),
        (1, 2, 3),
    )
    weights = within_nest_weights(control, NestPartition([(1, 3), (2,)]))
    assert weights[1] == pytest.approx(1.0)
    assert weights[3] == pytest.approx(3.0)  # 6 / 2 within the nest
    assert weights[2] == pytest.approx(1.0)  # its own nest's base


def test_round_trip_exact_probabilities():
    """Recovered parameters reproduce the choice function everywhere"""
    rng = np.random.default_rng(50)
    for outside in (True, False):
        for _ in range(15):
            n = int(rng.integers(2, 11))
            model = generate_ground_truth(n, rng, outside=outside)
            enc = balanced_enumeration(n, 2)
            design = slice_design(enc)
            rows = design_probabilities(model, design)
            recovered = recover_all(rows, model.partition, design)
            assert rmse_soft(model, recovered) < 1e-10, (n, outside)


def test_round_trip_recovers_parameters_up_to_normalization():
    rng = np.random.default_rng(51)
    model = generate_ground_truth(9, rng)
    enc = balanced_enumeration(9, 2)
    design = slice_design(enc)
    rows = design_probabilities(model, design)
    recovered = recover_all(rows, model.partition, design)
    norm = normalize_identifiable(model)
    assert recovered.partition == norm.partition
    for i in range(1, 10):
        assert recovered.weight(i) == pytest.approx(norm.weight(i), rel=1e-7)
    for lam_a, lam_b in zip(recovered.lambdas, norm.lambdas):
        assert lam_a == pytest.approx(lam_b, abs=1e-7)


def test_degenerate_nest_round_trip():
    """A zero-dissimilarity nest carries its own weight parameter"""
    model = NestedLogitModel(
        partition=NestPartition([(1, 2, 3), (4,), (5, 6)]),
        weights=(1.0, 2.0, 1.5, 3.0, 0.5, 1.0),
        lambdas=(0.0, 1.0, 0.4),
        outside=True,
        degenerate_weights={0: 3.7},
    )
    enc = balanced_enumeration(6, 2)
    design = slice_design(enc)
    rows = design_probabilities(model, design)
    recovered = recover_all(rows, model.partition, design)
    k = recovered.partition.nest_of(1)
    assert recovered.lambdas[k] == 0.0
    assert recovered.degenerate_weights[k] == pytest.approx(3.7, rel=1e-7)
    assert rmse_soft(model, recovered) < 1e-10


def test_single_nest_without_outside_falls_back_to_flat_weights():
    """One all-item nest leaves lambda unobservable; shares pin the weights"""
    model = NestedLogitModel(
        partition=NestPartition([(1, 2, 3)]),
        weights=(1.0, 2.0, 3.0),
        lambdas=(0.7,),
        outside=False,
    )
    enc = balanced_enumeration(3, 2)
    design = slice_design(enc)
    rows = design_probabilities(model, design)
    recovered = recover_all(rows, NestPartition([(1, 2, 3)]), design)
    got = choice_probabilities(recovered, (1, 2, 3))
    want = choice_probabilities(model, (1, 2, 3))
    for i in (1, 2, 3):
        assert got.prob(i) == pytest.approx(want.prob(i), abs=1e-12)


@pytest.mark.parametrize(
    "scheme, n, first_seed", [("slice", 16, 1000), ("slice", 32, 1000), ("loo", 8, 2000)]
)
def test_true_partition_recovers_without_outside(scheme, n, first_seed):
    """Every no-outside truth here has a nonsingular system; the chooser finds it"""
    if scheme == "slice":
        design = slice_design(balanced_enumeration(n, 2))
    else:
        design = leave_one_out_design(n)
    for seed in range(first_seed, first_seed + 30):
        truth = generate_ground_truth(n, seed, outside=False)
        rows = design_probabilities(truth, design)
        fitted = recover_all(rows, truth.partition, design)
        for want, got in zip(rows, design_probabilities(fitted, design)):
            for item in want.assortment:
                error = abs(want.probs[item] - got.probs[item])
                assert error <= 1e-12, (seed, want.assortment, item)


def reference_pair_is_usable(anchor, target, s_items, sp_items):
    """Both experiments offer both nests, cut them differently, and the second
    does not offer both whole."""
    s, sp = set(s_items), set(sp_items)
    cuts = (
        tuple(sorted(set(anchor) & s)),
        tuple(sorted(set(target) & s)),
        tuple(sorted(set(anchor) & sp)),
        tuple(sorted(set(target) & sp)),
    )
    if any(len(c) == 0 for c in cuts):
        return False
    if (cuts[0], cuts[1]) == (cuts[2], cuts[3]):
        return False
    if (cuts[2], cuts[3]) == (anchor, target):
        return False
    return True


def reference_log_fraction(weights, nest, items):
    inside = sum(weights[i] for i in nest if i in set(items))
    return math.log(inside / sum(weights[i] for i in nest))


def reference_log_determinant(weights, anchor, target, s_items, sp_items):
    """Scalar 2x2 minor of log offered-weight fractions, the 3-row system's |det|."""
    return reference_log_fraction(weights, anchor, s_items) * reference_log_fraction(
        weights, target, sp_items
    ) - reference_log_fraction(weights, anchor, sp_items) * reference_log_fraction(
        weights, target, s_items
    )


def recover_recording_reads(monkeypatch, rows, partition, design):
    """Experiments (-1 for the control) whose rows each nest's system reads."""
    reads: dict[tuple[int, ...], list[int]] = {}
    real_rows = recovery._system_rows

    def spy(terms, k, chosen):
        reads.setdefault(partition.nests[k], []).extend(chosen)
        return real_rows(terms, k, chosen)

    monkeypatch.setattr(recovery, "_system_rows", spy)
    with contextlib.suppress(RecoveryError):
        recover_all(rows, partition, design)
    monkeypatch.undo()
    return reads


@pytest.mark.parametrize("scheme", ["slice", "random", "loo"])
def test_chosen_experiments_reach_the_largest_determinant(monkeypatch, scheme):
    """Each nest's experiments reach the reference maximum |det| of its system"""
    checked = {"pair": 0, "single": 0}
    for seed in range(3000, 3020):
        n = 8 + seed % 9
        truth = generate_ground_truth(n, seed, outside=False)
        if scheme == "slice":
            design = slice_design(balanced_enumeration(n, 2))
        elif scheme == "random":
            design = randomized_design(n, 2 * code_length(n, 2), size_rule="half", rng=seed)
        else:
            design = leave_one_out_design(n)
        exps = design.experiments
        rows = design_probabilities(truth, design)
        weights = within_nest_weights(rows[0], truth.partition)
        anchor = truth.partition.nests[0]
        for target, chosen in recover_recording_reads(
            monkeypatch, rows, truth.partition, design
        ).items():
            assert chosen[0] == -1
            if len(anchor) > 1 and len(target) > 1:
                best = max(
                    (
                        abs(reference_log_determinant(weights, anchor, target, exps[a], exps[c]))
                        for a, c in itertools.permutations(range(len(exps)), 2)
                        if reference_pair_is_usable(anchor, target, exps[a], exps[c])
                    ),
                    default=0.0,
                )
                got = abs(reference_log_determinant(
                    weights, anchor, target, exps[chosen[1]], exps[chosen[2]]
                ))
                checked["pair"] += 1
            elif len(anchor) > 1 or len(target) > 1:
                free = anchor if len(anchor) > 1 else target
                best = max(
                    abs(reference_log_fraction(weights, free, items))
                    for items in exps
                    if set(anchor) & set(items) and set(target) & set(items)
                )
                got = abs(reference_log_fraction(weights, free, exps[chosen[1]]))
                checked["single"] += 1
            else:
                assert chosen == [-1]
                continue
            assert got >= best * (1.0 - 1e-12), (seed, target, chosen)
    assert checked["pair"] >= 10 and checked["single"] >= 10, checked


def test_recovery_raises_on_degenerate_geometry():
    """Equal weights across twin nests collapse the linear system"""
    model = NestedLogitModel(
        partition=NestPartition([(1, 2), (3, 4)]),
        weights=(1.0, 1.0, 1.0, 1.0),
        lambdas=(0.4, 0.7),
        outside=False,
    )
    enc = balanced_enumeration(4, 2)
    design = slice_design(enc)
    rows = design_probabilities(model, design)
    with pytest.raises(SingularSystemError):
        recover_all(rows, model.partition, design)


def test_recover_all_validates_row_count():
    model = generate_ground_truth(4, np.random.default_rng(3))
    enc = balanced_enumeration(4, 2)
    design = slice_design(enc)
    rows = design_probabilities(model, design)
    with pytest.raises(ValueError):
        recover_all(rows[:-1], model.partition, design)


def test_least_squares_recovery_approaches_truth():
    rng = np.random.default_rng(54)
    model = generate_ground_truth(8, rng)
    enc = balanced_enumeration(8, 2)
    design = slice_design(enc)
    m = 300000
    table = sample_choices(model, design, [m] * (design.num_experiments + 1), seed=11)
    fit = recover_least_squares(table, model.partition, design)
    assert rmse_soft(model, fit.model) < 0.01
    assert "rank-deficient" not in fit.flags


def test_least_squares_clamps_lambda_into_range():
    rng = np.random.default_rng(55)
    model = generate_ground_truth(6, rng)
    enc = balanced_enumeration(6, 2)
    design = slice_design(enc)
    # tiny samples push raw estimates outside [0, 1]; the fit must not
    table = sample_choices(model, design, [40] * (design.num_experiments + 1), seed=12)
    fit = recover_least_squares(table, model.partition, design)
    for lam in fit.model.lambdas:
        assert 0.0 <= lam <= 1.0


def test_least_squares_flags_unobservable_lambda():
    """A nest never split by the design leaves its lambda defaulted"""
    rng = np.random.default_rng(56)
    model = NestedLogitModel(
        partition=NestPartition([(1, 2), (3,), (4,)]),
        weights=(1.0, 2.0, 1.5, 0.5),
        lambdas=(0.5, 1.0, 1.0),
        outside=True,
    )
    from nestlab.designs import ExperimentDesign

    design = ExperimentDesign(
        n=4,
        experiments=[(1, 2, 3), (1, 2, 4)],  # nest {1,2} always offered whole
        labels=("A", "B"),
        scheme="manual",
    )
    table = sample_choices(model, design, [5000] * 3, seed=13)
    fit = recover_least_squares(table, model.partition, design)
    assert any(flag.endswith("lambda-defaulted") for flag in fit.flags)
