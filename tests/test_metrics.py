"""Tests for the scoring metrics and confidence intervals."""

import itertools
import math

import numpy as np
import pytest

from nestlab.designs import balanced_enumeration, slice_design
from nestlab.metrics import (
    all_subset_probabilities,
    confidence_interval,
    rand_index,
    rmse_soft,
    rmse_soft_restricted,
)
from nestlab.model import (
    NestPartition,
    NestedLogitModel,
    choice_probabilities,
    design_probabilities,
    generate_ground_truth,
    singleton_partition,
)


def brute_force_rmse(truth, estimate):
    """Subset-by-subset double loop, no vectorization"""
    n = truth.n
    total, cells = 0.0, 0
    for size in range(1, n + 1):
        for items in itertools.combinations(range(1, n + 1), size):
            a = choice_probabilities(truth, items)
            b = choice_probabilities(estimate, items)
            for i in ((0,) if a.outside else ()) + a.assortment:
                total += (a.probs[i] - b.probs[i]) ** 2
                cells += 1
    return math.sqrt(total / cells)


def test_all_subset_probabilities_rows_sum_to_one():
    rng = np.random.default_rng(60)
    for outside in (True, False):
        model = generate_ground_truth(6, rng, outside=outside)
        table = all_subset_probabilities(model)
        assert table.shape == (2 ** 6 - 1, 7)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)
        if not outside:
            assert np.all(table[:, 0] == 0.0)


def test_all_subset_probabilities_order_is_bitmask():
    model = generate_ground_truth(4, np.random.default_rng(61))
    table = all_subset_probabilities(model)
    # subset mask s occupies row s - 1; mask 0b0101 offers items 1 and 3
    cp = choice_probabilities(model, (1, 3))
    np.testing.assert_allclose(table[0b0101 - 1, 1], cp.prob(1), atol=1e-14)
    np.testing.assert_allclose(table[0b0101 - 1, 3], cp.prob(3), atol=1e-14)
    assert table[0b0101 - 1, 2] == 0.0


def mixed_nest_model(outside):
    """n = 7 with a lambda = 0 nest, a lambda = 1 nest, two singletons and a proper nest."""
    return NestedLogitModel(
        partition=NestPartition([(1, 4), (2, 6, 7), (3,), (5,)]),
        weights=(2.0, 0.5, 3.0, 1.5, 0.25, 4.0, 1.0),
        lambdas=(0.0, 1.0, 1.0, 0.35),
        outside=outside,
        degenerate_weights={0: 1.75},
    )


@pytest.mark.parametrize("outside", [True, False])
def test_all_subset_probabilities_match_choice_probabilities(outside):
    rng = np.random.default_rng(70)
    models = [mixed_nest_model(outside), NestedLogitModel(
        partition=NestPartition([(1, 2, 3)]),
        weights=(1.0, 2.0, 3.0),
        lambdas=(0.0,),
        outside=outside,
        degenerate_weights={0: 0.5},
    )]
    models += [generate_ground_truth(int(rng.integers(2, 8)), rng, outside=outside) for _ in range(6)]
    for model in models:
        n = model.n
        table = all_subset_probabilities(model)
        assert table.shape == (2**n - 1, n + 1)
        for s in range(1, 2**n):
            items = [t + 1 for t in range(n) if s >> t & 1]
            want = choice_probabilities(model, items).probs
            np.testing.assert_allclose(table[s - 1], want, rtol=0, atol=1e-14)


def test_rmse_soft_with_given_truth_table_is_bitwise_equal():
    rng = np.random.default_rng(71)
    for outside in (True, False):
        for n in (2, 5, 9):
            truth = generate_ground_truth(n, rng, outside=outside)
            estimate = generate_ground_truth(n, rng, outside=outside)
            table = all_subset_probabilities(truth)
            before = table.copy()
            assert rmse_soft(truth, estimate, table) == rmse_soft(truth, estimate)
            np.testing.assert_array_equal(table, before)  # the shared table is not modified
    truth = mixed_nest_model(True)
    assert rmse_soft(truth, truth, all_subset_probabilities(truth)) == 0.0


def test_rmse_soft_rejects_truth_table_of_wrong_shape():
    rng = np.random.default_rng(72)
    truth = generate_ground_truth(5, rng)
    other = generate_ground_truth(4, rng)
    with pytest.raises(ValueError, match="truth table"):
        rmse_soft(truth, truth, all_subset_probabilities(other))


def test_rmse_soft_matches_brute_force():
    rng = np.random.default_rng(62)
    for outside in (True, False):
        for _ in range(5):
            n = int(rng.integers(2, 8))
            truth = generate_ground_truth(n, rng, outside=outside)
            estimate = generate_ground_truth(n, rng, outside=outside)
            want = brute_force_rmse(truth, estimate)
            assert rmse_soft(truth, estimate) == pytest.approx(want, abs=1e-12)


def test_rmse_soft_zero_on_identical_models():
    model = generate_ground_truth(5, np.random.default_rng(63))
    assert rmse_soft(model, model) == 0.0


def test_rmse_soft_rejects_mismatched_models():
    a = generate_ground_truth(4, np.random.default_rng(64), outside=True)
    b = generate_ground_truth(4, np.random.default_rng(64), outside=False)
    with pytest.raises(ValueError):
        rmse_soft(a, b)
    c = generate_ground_truth(5, np.random.default_rng(64))
    with pytest.raises(ValueError):
        rmse_soft(a, c)


def test_rmse_soft_refuses_huge_enumeration():
    model = generate_ground_truth(21, np.random.default_rng(65))
    with pytest.raises(ValueError):
        rmse_soft(model, model)


def test_rmse_soft_restricted_on_design_assortments():
    rng = np.random.default_rng(66)
    truth = generate_ground_truth(6, rng)
    other = generate_ground_truth(6, rng)
    design = slice_design(balanced_enumeration(6, 2))
    rows_a = design_probabilities(truth, design)
    rows_b = design_probabilities(other, design)

    total, cells = 0.0, 0
    for cp_a, cp_b in zip(rows_a, rows_b):
        for i in ((0,) if cp_a.outside else ()) + cp_a.assortment:
            total += (cp_a.probs[i] - cp_b.probs[i]) ** 2
            cells += 1
    want = math.sqrt(total / cells)
    assert rmse_soft_restricted(rows_a, rows_b) == pytest.approx(want, abs=1e-12)
    assert rmse_soft_restricted(rows_a, rows_a) == 0.0


def test_rmse_soft_restricted_requires_alignment():
    truth = generate_ground_truth(6, np.random.default_rng(67))
    design = slice_design(balanced_enumeration(6, 2))
    rows = design_probabilities(truth, design)
    with pytest.raises(ValueError):
        rmse_soft_restricted(rows, rows[:-1])
    shuffled = [rows[0], *rows[2:], rows[1]]
    with pytest.raises(ValueError):
        rmse_soft_restricted(rows, shuffled)


def rand_by_pairs(first, second):
    n = first.n
    agree = total = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            same_a = first.nest_of(i) == first.nest_of(j)
            same_b = second.nest_of(i) == second.nest_of(j)
            agree += same_a == same_b
            total += 1
    return agree / total


def random_partition(n, rng):
    labels = rng.integers(0, max(1, n // 2) + 1, size=n)
    groups: dict[int, list[int]] = {}
    for item, g in enumerate(labels, start=1):
        groups.setdefault(int(g), []).append(item)
    return NestPartition(groups.values())


def test_rand_index_matches_pair_enumeration():
    rng = np.random.default_rng(68)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        a = random_partition(n, rng)
        b = random_partition(n, rng)
        assert rand_index(a, b) == pytest.approx(rand_by_pairs(a, b), abs=1e-15)


def test_rand_index_edge_cases():
    assert rand_index(singleton_partition(1), singleton_partition(1)) == 1.0
    assert rand_index(singleton_partition(4), singleton_partition(4)) == 1.0
    one = NestPartition([(1, 2, 3)])
    assert rand_index(one, singleton_partition(3)) == 0.0


def test_rand_index_requires_same_item_count():
    with pytest.raises(ValueError):
        rand_index(singleton_partition(3), singleton_partition(4))


def test_confidence_interval_frozen_two_point_case():
    """k = 2 samples 0 and 1: the t quantile is 12.7062..., so the
    half-width is t * std / sqrt(2) = 6.3531..."""
    mean, low, high = confidence_interval([0.0, 1.0])
    assert mean == 0.5
    half = (high - low) / 2
    assert half == pytest.approx(6.353102368216047, abs=1e-9)
    assert low == pytest.approx(0.5 - half)


def test_confidence_interval_shrinks_with_samples():
    rng = np.random.default_rng(69)
    small = rng.normal(size=10)
    big = np.concatenate([small] * 40)
    _, lo_s, hi_s = confidence_interval(small.tolist())
    _, lo_b, hi_b = confidence_interval(big.tolist())
    assert hi_b - lo_b < hi_s - lo_s


def test_confidence_interval_needs_two_values():
    with pytest.raises(ValueError):
        confidence_interval([1.0])
