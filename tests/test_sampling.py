"""Tests for customer allocation, choice sampling, and count tables."""

import re

import numpy as np
import pytest

from nestlab.designs import balanced_enumeration, slice_design
from nestlab.model import (
    NestPartition,
    NestedLogitModel,
    choice_probabilities,
    design_probabilities,
    generate_ground_truth,
)
from nestlab.sampling import (
    ChoiceCountTable,
    allocate_customers,
    draw_counts,
    empirical_probabilities,
    load_counts,
    sample_choices,
    save_counts,
)


def small_model():
    return NestedLogitModel(
        partition=NestPartition([(1, 2), (3,)]),
        weights=(1.0, 2.0, 4.0),
        lambdas=(0.5, 1.0),
        outside=True,
    )


def test_allocate_customers_even_split():
    assert allocate_customers(9000, 9) == [1000] * 9
    assert allocate_customers(10, 3) == [4, 3, 3]
    assert allocate_customers(7, 7) == [1] * 7


def test_allocate_customers_invariants():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k = int(rng.integers(1, 20))
        total = int(rng.integers(k, 10000))
        alloc = allocate_customers(total, k)
        assert sum(alloc) == total
        assert max(alloc) - min(alloc) <= 1


def test_allocate_customers_rejects_starvation():
    with pytest.raises(ValueError):
        allocate_customers(2, 3)


def test_sample_counts_sum_to_allocation():
    model = small_model()
    design = slice_design(balanced_enumeration(3, 2))
    alloc = allocate_customers(4500, design.num_experiments + 1)
    table = sample_choices(model, design, alloc, seed=0)
    assert table.labels[0] == "control"
    for cnt, m, items in zip(table.counts, table.sizes, table.assortments):
        assert cnt.sum() == m
        assert set(np.flatnonzero(cnt)) <= {0, *items}


def test_sample_choices_is_seed_deterministic():
    model = small_model()
    design = slice_design(balanced_enumeration(3, 2))
    alloc = allocate_customers(900, design.num_experiments + 1)
    a = sample_choices(model, design, alloc, seed=42)
    b = sample_choices(model, design, alloc, seed=42)
    c = sample_choices(model, design, alloc, seed=43)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_draw_counts_samples_given_design_probabilities():
    model = small_model()
    design = slice_design(balanced_enumeration(3, 2))
    alloc = allocate_customers(900, design.num_experiments + 1)
    probs = design_probabilities(model, design)
    assert draw_counts(probs, design, alloc, seed=5) == sample_choices(model, design, alloc, seed=5)
    with pytest.raises(ValueError, match="every experiment"):
        draw_counts(probs[:-1], design, alloc, seed=5)


def test_sampled_frequencies_approach_exact_probabilities():
    model = small_model()
    design = slice_design(balanced_enumeration(3, 2))
    m = 200000
    table = sample_choices(model, design, [m] * (design.num_experiments + 1), seed=1)
    emp = empirical_probabilities(table)
    for cp_hat, items in zip(emp, table.assortments):
        cp = choice_probabilities(model, items)
        np.testing.assert_allclose(cp_hat.probs, cp.probs, rtol=0, atol=0.01)


def test_empirical_probabilities_need_customers():
    model = small_model()
    design = slice_design(balanced_enumeration(3, 2))
    alloc = [100] * (design.num_experiments + 1)
    alloc[2] = 0
    table = sample_choices(model, design, alloc, seed=3)
    with pytest.raises(ValueError, match=re.escape(table.labels[2])):
        empirical_probabilities(table)


def test_count_table_rows_must_match_assortments():
    # a nonzero count on an item the assortment does not offer
    with pytest.raises(ValueError, match="offered items"):
        ChoiceCountTable(
            n=3,
            outside=True,
            labels=("control",),
            assortments=((1, 2),),
            counts=([1, 2, 3, 4],),
            sizes=(10,),
        )
    # a matrix with one column too few
    with pytest.raises(ValueError, match="shape"):
        ChoiceCountTable(
            n=3,
            outside=True,
            labels=("control",),
            assortments=((1, 2, 3),),
            counts=([1, 2, 3],),
            sizes=(6,),
        )


def test_count_table_validates_sums():
    with pytest.raises(ValueError):
        ChoiceCountTable(
            n=2,
            outside=True,
            labels=("control",),
            assortments=((1, 2),),
            counts=([1, 2, 3],),
            sizes=(7,),
        )


def test_counts_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    model = generate_ground_truth(5, rng)
    design = slice_design(balanced_enumeration(5, 2))
    table = sample_choices(model, design, allocate_customers(700, 7), seed=9)

    path = tmp_path / "counts.csv"
    save_counts(table, path)
    loaded = load_counts(path, n=5)
    assert loaded.labels == table.labels
    assert loaded.assortments == table.assortments
    assert np.array_equal(loaded.counts, table.counts)
    assert np.array_equal(loaded.sizes, table.sizes)
    assert loaded.outside
    assert loaded == table


def test_load_counts_detects_missing_outside(tmp_path):
    model = generate_ground_truth(4, np.random.default_rng(5), outside=False)
    design = slice_design(balanced_enumeration(4, 2))
    table = sample_choices(model, design, allocate_customers(500, 5), seed=2)
    path = tmp_path / "counts.csv"
    save_counts(table, path)
    loaded = load_counts(path, n=4)
    assert not loaded.outside


def test_load_counts_requires_control_first(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "assortment_label,item_id,count,sample_size\n"
        "S(1,-0),1,5,5\n"
        "control,1,3,5\ncontrol,2,2,5\n"
    )
    with pytest.raises(ValueError):
        load_counts(path, n=2)


def test_count_table_rejects_negative_counts():
    # -1 and 6 sum to the sample size, so only the sign check catches it
    with pytest.raises(ValueError, match="item 1 in control"):
        ChoiceCountTable(
            n=2,
            outside=False,
            labels=("control",),
            assortments=((1, 2),),
            counts=([0, -1, 6],),
            sizes=(5,),
        )


def test_count_table_rejects_items_outside_range():
    with pytest.raises(ValueError, match="item 7 of S"):
        ChoiceCountTable(
            n=2,
            outside=False,
            labels=("control", "S"),
            assortments=((1, 2), (1, 7)),
            counts=([0, 2, 3], [0, 1, 4]),
            sizes=(5, 5),
        )


def test_load_counts_rejects_conflicting_sample_sizes(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "assortment_label,item_id,count,sample_size\n"
        "control,1,3,9\ncontrol,2,2,5\n"  # sums to the last size listed
    )
    with pytest.raises(ValueError, match="control lists sample sizes 9 and 5"):
        load_counts(path, n=2)


def test_load_counts_rejects_repeated_items(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "assortment_label,item_id,count,sample_size\n"
        "control,1,3,5\ncontrol,1,3,5\ncontrol,2,2,5\n"
    )
    with pytest.raises(ValueError, match="control lists item 1 twice"):
        load_counts(path, n=2)
