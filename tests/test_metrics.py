"""Tests for the scoring metrics and confidence intervals."""

import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import nestlab
from nestlab.designs import balanced_enumeration, slice_design
from nestlab.metrics import (
    all_subset_cells,
    all_subset_probabilities,
    confidence_interval,
    rand_index,
    rmse_soft,
    rmse_soft_restricted,
)
from nestlab.model import (
    ChoiceProbabilities,
    NestPartition,
    NestedLogitModel,
    choice_probabilities,
    design_probabilities,
    generate_ground_truth,
    normalize_identifiable,
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
    np.testing.assert_allclose(table[0b0101 - 1, 1], cp.probs[1], atol=1e-14)
    np.testing.assert_allclose(table[0b0101 - 1, 3], cp.probs[3], atol=1e-14)
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


def test_rmse_soft_with_given_truth_cells_is_bitwise_equal():
    rng = np.random.default_rng(71)
    for outside in (True, False):
        for n in (2, 5, 9):
            truth = generate_ground_truth(n, rng, outside=outside)
            estimate = generate_ground_truth(n, rng, outside=outside)
            cells = all_subset_cells(truth)
            before = cells.copy()
            assert rmse_soft(truth, estimate, cells) == rmse_soft(truth, estimate)
            np.testing.assert_array_equal(cells, before)  # the shared vector is not modified
    truth = mixed_nest_model(True)
    assert rmse_soft(truth, truth, all_subset_cells(truth)) == 0.0


def full_width_table(model):
    """The all-subset table in one pass over every bitmask, the kernel's arithmetic written out.

    Nest weights doubled over the items in increasing order, W ** lambda in
    log space (the fixed weight when lambda = 0, 0 for an absent nest), the
    denominator summed nest by nest, the factor v_N / denom / W_N, and item
    column i the factor times v_i, times 1 where offered and 0 elsewhere.
    """
    n = model.n
    sums = np.zeros((model.partition.num_nests, 1 << n))  # column s: subset s, 0 included
    for t, k in enumerate(model.partition.labels()):
        top = sums[:, 1 << t : 2 << t]
        top[...] = sums[:, : 1 << t]
        top[k] += model.weights[t]
    within = sums[:, 1:]
    present = within > 0.0
    safe = np.where(present, within, 1.0)
    values = np.exp(np.log(safe) * np.asarray(model.lambdas)[:, None]) * present
    for k, v in model.degenerate_weights.items():
        values[k] = present[k] * v
    denom = np.zeros(within.shape[1])
    for row in values:
        denom += row
    if model.outside:
        denom += 1.0
    factor = values / denom / safe
    codes = np.arange(1, 1 << n)
    table = np.zeros((n + 1, codes.size))  # column-major, as the library's table
    if model.outside:
        table[0] = 1.0 / denom
    for t, k in enumerate(model.partition.labels()):
        table[t + 1] = factor[k] * model.weights[t] * ((codes >> t) & 1)
    return table.T


def degenerate_models(n, outside):
    """A model with lambda = 0 on nest {1, n} and singleton {2}, and its normalized twin.

    Items 3..n - 1 go in threes with lambda 0.35, 1 (split by normalizing)
    and 0.7 in turn; at n = 1 the one item is the lambda = 0 singleton.
    """
    rng = np.random.default_rng(n)
    if n == 1:
        nests = [(1,)]
    else:
        middle = list(range(3, n))
        nests = [(1, n), *([(2,)] if n >= 3 else []),
                 *(tuple(middle[i : i + 3]) for i in range(0, len(middle), 3))]
    model = NestedLogitModel(  # nests listed by smallest member, as NestPartition keeps them
        partition=NestPartition(nests),
        weights=tuple(rng.uniform(0.5, 8.0, size=n)),
        lambdas=tuple(0.0 if len(nest) == 1 or k == 0 else (0.35, 1.0, 0.7)[k % 3]
                      for k, nest in enumerate(nests)),
        outside=outside,
        degenerate_weights={k: 0.6 + k for k, nest in enumerate(nests) if len(nest) == 1 or k == 0},
    )
    return [model, normalize_identifiable(model)]


@pytest.mark.parametrize("n", [1, 2, 3, 12, 13, 14, 16])
@pytest.mark.parametrize("outside", [True, False])
def test_all_subset_probabilities_equal_one_full_width_pass(n, outside):
    """Bitwise: blocks of 2**13 bitmasks reproduce one pass over all of them"""
    models = degenerate_models(n, outside)
    if n >= 2:
        models.append(generate_ground_truth(n, np.random.default_rng(100 + n), outside=outside))
    for model in models:
        table = all_subset_probabilities(model)
        assert table.flags.f_contiguous
        assert np.array_equal(table, full_width_table(model))


@pytest.mark.parametrize("n", [3, 12, 13, 14, 16])
@pytest.mark.parametrize("outside", [True, False])
def test_all_subset_cells_are_the_offered_entries(n, outside):
    """Bitwise: the cells are the table's offered entries, in the documented order"""
    truth, twin = degenerate_models(n, outside)  # a lambda = 0 nest, and its normalized twin
    estimate = generate_ground_truth(n, np.random.default_rng(200 + n), outside=outside)
    codes = np.arange(1, 2**n)
    for model in (truth, twin, estimate):
        cells = all_subset_cells(model)
        table = all_subset_probabilities(model)
        offered = [table[:, 0]] if outside else []
        offered += [table[(codes >> t) & 1 == 1, t + 1] for t in range(n)]
        assert cells.shape == (n * 2 ** (n - 1) + (2**n - 1 if outside else 0),)
        assert np.array_equal(cells, np.concatenate(offered))
    cells = all_subset_cells(truth)
    for model in (twin, estimate):
        assert rmse_soft(truth, model, cells) == rmse_soft(truth, model)
        for wrong in (cells[:-1], np.append(cells, 0.0)):
            with pytest.raises(ValueError, match="truth cells"):
                rmse_soft(truth, model, wrong)


@pytest.mark.parametrize("n", [3, 12, 13, 14, 16])
def test_rmse_soft_matches_one_whole_table_sum(n):
    rng = np.random.default_rng(73)
    for outside in (True, False):
        pairs = [degenerate_models(n, outside)]
        models = [generate_ground_truth(n, rng, outside=outside) for _ in range(6)]
        pairs += list(zip(models[::2], models[1::2]))
        for truth, estimate in pairs:
            diff = full_width_table(estimate) - full_width_table(truth)
            flat = diff.ravel(order="K")
            cells = n * 2 ** (n - 1) + (2**n - 1 if outside else 0)
            want = math.sqrt(float(np.vdot(flat, flat)) / cells)
            got = rmse_soft(truth, estimate, all_subset_cells(truth))
            assert got == rmse_soft(truth, estimate)
            assert abs(got - want) <= 1e-15 * want


def test_rmse_soft_never_holds_a_whole_table():
    """Beside the shared truth cells, one n = 16 score holds at most half a table"""
    rng = np.random.default_rng(74)
    truth = generate_ground_truth(16, rng)
    estimate = NestedLogitModel(  # one nest per item: the most per-nest temporaries
        partition=singleton_partition(16), weights=truth.weights, lambdas=(1.0,) * 16,
        outside=True,
    )
    table = all_subset_probabilities(truth)
    cells = all_subset_cells(truth)
    tracemalloc.start()
    try:
        rmse_soft(truth, estimate, cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table.nbytes / 2


def test_rmse_soft_holds_a_single_nest_table_pair_at_n_20():
    """A 20-item nest has the largest per-nest tables: W and W**lambda of 2**20 floats each"""
    rng = np.random.default_rng(75)
    truth = generate_ground_truth(20, rng)
    estimate = NestedLogitModel(
        partition=NestPartition([range(1, 21)]), weights=truth.weights, lambdas=(0.5,), outside=True,
    )
    tracemalloc.start()
    try:
        rmse_soft(truth, estimate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = 8 * 2**20
    # the two tables, their bool mask and both models' block buffers; not a third table
    assert peak <= 2.5 * table_bytes, peak / table_bytes


def test_rmse_soft_rejects_truth_cells_of_wrong_shape():
    rng = np.random.default_rng(72)
    truth = generate_ground_truth(5, rng)
    other = generate_ground_truth(4, rng)
    no_outside = generate_ground_truth(5, rng, outside=False)
    for wrong in (all_subset_cells(other), all_subset_cells(no_outside),
                  all_subset_probabilities(truth), all_subset_cells(truth)[None, :]):
        with pytest.raises(ValueError, match="truth cells"):
            rmse_soft(truth, truth, wrong)


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


def matrix_rand_index(first, second):
    """Pairwise co-membership agreement as the mean over the upper triangle."""
    a, b = first.labels(), second.labels()
    agree = (a[:, None] == a[None, :]) == (b[:, None] == b[None, :])
    return float(agree[np.triu_indices(first.n, k=1)].mean())


def test_rand_index_is_the_pair_mean_float():
    """The contingency count gives the float of the mean over all pairs, bit for bit"""
    rng = np.random.default_rng(69)
    for _ in range(300):
        n = int(rng.integers(2, 200))
        a, b = random_partition(n, rng), random_partition(n, rng)
        assert rand_index(a, b) == matrix_rand_index(a, b)


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


def test_import_leaves_scipy_unloaded():
    """No scipy module loads with nestlab.cli, which imports every library module"""
    src = os.path.dirname(os.path.dirname(nestlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, nestlab.cli; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("call, message", [
    (lambda: rmse_soft_restricted(
        [ChoiceProbabilities(assortment=(1,), probs=np.array([0.5, 0.5]), outside=True)],
        [ChoiceProbabilities(assortment=(1,), probs=np.array([0.0, 1.0]), outside=False)]),
     "outside-option flag mismatch"),
    (lambda: rmse_soft_restricted([], []), "no assortments to score"),
])
def test_metrics_boundary_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
