"""Tests for customer allocation, choice sampling, and count tables."""

import csv
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


@pytest.mark.parametrize("total, k, message", [
    (10.5, 2, "budget must be an integer, got 10.5"),
    (10.0, 2, "budget must be an integer, got 10.0"),
    (10, 2.0, "assortment count must be an integer, got 2.0"),
])
def test_allocate_customers_rejects_non_integers(total, k, message):
    """10.5 customers used to split as [6.0, 5.0], 11 in all"""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        allocate_customers(total, k)
    assert allocate_customers(np.int64(10), np.int64(3)) == [4, 3, 3]


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
        )
    # a matrix with one column too few
    with pytest.raises(ValueError, match="shape"):
        ChoiceCountTable(
            n=3,
            outside=True,
            labels=("control",),
            assortments=((1, 2, 3),),
            counts=([1, 2, 3],),
        )


def test_count_table_validates_sums():
    """Sample sizes are the row sums; an experiment may have none, the control may not"""
    fields = dict(n=2, outside=True, labels=("control", "S"), assortments=((1, 2), (1, 2)))
    table = ChoiceCountTable(counts=([1, 2, 3], [0, 0, 0]), **fields)
    assert table.sizes.dtype == np.int64 and table.sizes.tolist() == [6, 0]
    with pytest.raises(ValueError, match="^control has no customers$"):
        ChoiceCountTable(counts=([0, 0, 0], [1, 2, 3]), **fields)


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


def reference_save_counts(table, path):
    """One csv.writer row per offered item, as a plain loop."""
    lead = (0,) if table.outside else ()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["assortment_label", "item_id", "count", "sample_size"])
        for label, items, row, m in zip(table.labels, table.assortments, table.counts, table.sizes):
            for item in sorted(lead + tuple(items)):
                writer.writerow([label, item, int(row[item]), int(m)])


@pytest.mark.parametrize("outside", [True, False])
def test_save_counts_writes_csv_writer_bytes(tmp_path, outside):
    """Labels that need quoting (commas, quotes, line breaks) are written as csv.writer writes them"""
    labels = ("control", "S(1,-0)", 'say "two"', "two\nlines", "", " spaced ")
    assortments = ((1, 2, 3), (1, 3), (2,), (2, 3), (1,), (3,))
    rng = np.random.default_rng(8)
    counts = np.zeros((len(labels), 4), dtype=np.int64)
    for row, items in zip(counts, assortments):
        row[list(((0,) if outside else ()) + items)] = rng.integers(0, 10**6, len(items) + outside)
    table = ChoiceCountTable(n=3, outside=outside, labels=labels, assortments=assortments,
                             counts=counts)
    save_counts(table, tmp_path / "got.csv")
    reference_save_counts(table, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert load_counts(tmp_path / "got.csv", n=3) == table


def test_save_counts_sorts_each_assortment(tmp_path):
    """A table listing its items out of order is saved in increasing item order and loads sorted"""
    fields = dict(n=3, outside=True, labels=("control", "S"),
                  counts=[[1, 2, 3, 4], [2, 0, 5, 3]])
    table = ChoiceCountTable(assortments=((3, 1, 2), (3, 2)), **fields)
    path = tmp_path / "counts.csv"
    save_counts(table, path)
    assert path.read_text().splitlines()[1:] == [
        "control,0,1,10", "control,1,2,10", "control,2,3,10", "control,3,4,10",
        "S,0,2,10", "S,2,5,10", "S,3,3,10",
    ]
    loaded = load_counts(path, n=3)
    assert loaded == ChoiceCountTable(assortments=((1, 2, 3), (2, 3)), **fields)
    save_counts(loaded, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


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
        '"S(1,-0)",1,5,5\n'
        "control,1,3,5\ncontrol,2,2,5\n"
    )
    with pytest.raises(ValueError, match="^count file must start with the control assortment$"):
        load_counts(path, n=2)


def test_count_table_rejects_negative_counts():
    # -1 and 6 sum to a positive sample size, so only the sign check catches it
    with pytest.raises(ValueError, match="item 1 in control"):
        ChoiceCountTable(
            n=2,
            outside=False,
            labels=("control",),
            assortments=((1, 2),),
            counts=([0, -1, 6],),
        )


def test_count_table_rejects_items_outside_range():
    with pytest.raises(ValueError, match="item 7 of S"):
        ChoiceCountTable(
            n=2,
            outside=False,
            labels=("control", "S"),
            assortments=((1, 2), (1, 7)),
            counts=([0, 2, 3], [0, 1, 4]),
        )


def test_count_table_rejects_non_integer_items():
    """(1, 2.9) used to count as offering item 2, and save_counts then failed on it"""
    with pytest.raises(TypeError):
        ChoiceCountTable(
            n=2,
            outside=False,
            labels=("control", "S"),
            assortments=((1, 2), (1, 2.9)),
            counts=([0, 2, 3], [0, 1, 4]),
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


def test_load_counts_reads_columns_by_header(tmp_path):
    model = generate_ground_truth(5, np.random.default_rng(6))
    design = slice_design(balanced_enumeration(5, 2))
    table = sample_choices(model, design, allocate_customers(700, 7), seed=3)
    path = tmp_path / "counts.csv"
    save_counts(table, path)
    order = (2, 0, 3, 1)  # count, assortment_label, sample_size, item_id
    shuffled = tmp_path / "shuffled.csv"
    with open(path, newline="") as src, open(shuffled, "w", newline="") as dst:
        csv.writer(dst).writerows([row[k] for k in order] for row in csv.reader(src))
    assert shuffled.read_text().startswith("count,assortment_label,sample_size,item_id\n")
    assert load_counts(shuffled, n=5) == table


@pytest.mark.parametrize("column", ["assortment_label", "item_id", "count", "sample_size"])
def test_load_counts_names_a_missing_column(tmp_path, column):
    header = ["assortment_label", "item_id", "count", "sample_size"]
    rows = [["control", "1", "3", "5"], ["control", "2", "2", "5"]]
    keep = [k for k, name in enumerate(header) if name != column]
    path = tmp_path / "counts.csv"
    path.write_text(
        "".join(",".join(row[k] for k in keep) + "\n" for row in [header, *rows])
    )
    with pytest.raises(ValueError, match=f"no {column} column"):
        load_counts(path, n=2)


def _count_file(path, rows):
    path.write_text("assortment_label,item_id,count,sample_size\n" + rows)
    return path


def _two_item_draw(allocation):
    model = generate_ground_truth(2, np.random.default_rng(0))
    design = slice_design(balanced_enumeration(2, 2))
    return draw_counts(design_probabilities(model, design), design, allocation, seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda tmp: allocate_customers(10, 0), "need at least one assortment"),
    (lambda tmp: allocate_customers(10**23, 3), f"budget {10**23} does not fit in int64"),
    (lambda tmp: _two_item_draw([5, 5]), "allocation must cover control plus every experiment"),
    (lambda tmp: _two_item_draw([5, -1, 5]), "negative sample size"),
    (lambda tmp: ChoiceCountTable(n=1, outside=True, labels=("control",), assortments=(),
                                  counts=[[0, 5]]),
     "misaligned count table"),
    (lambda tmp: load_counts(_count_file(tmp / "c.csv", "S,1,5,5\ncontrol,1,5,5\n"), 1),
     "count file must start with the control assortment"),
    (lambda tmp: load_counts(
        _count_file(tmp / "c.csv", "control,0,1,5\ncontrol,1,4,5\nS,1,5,5\n"), 1),
     "count rows must cover exactly the offered items"),
    (lambda tmp: load_counts(_count_file(tmp / "c.csv", "control,1,5,5\ncontrol,2\n"), 2),
     "count file line 3 has 2 fields, not 4"),
    (lambda tmp: load_counts(_count_file(tmp / "c.csv", "control,1,5,5\ncontrol,2,5x,5\n"), 2),
     "count file line 3: count '5x' is not an integer"),
    (lambda tmp: load_counts(_count_file(tmp / "c.csv", "control,one,5,5\n"), 1),
     "count file line 2: item_id 'one' is not an integer"),
    (lambda tmp: load_counts(_count_file(tmp / "c.csv", "control,1,5,5.0\n"), 1),
     "count file line 2: sample_size '5.0' is not an integer"),
    (lambda tmp: load_counts(_count_file(tmp / "c.csv", "control,1,x,y\n"), 1),
     "count file line 2: count 'x' is not an integer"),
    (lambda tmp: load_counts(
        _count_file(tmp / "c.csv", "control,1,5,5\ncontrol,2,99999999999999999999999,5\n"), 2),
     "count file line 3: count '99999999999999999999999' does not fit in int64"),
    (lambda tmp: load_counts(_count_file(tmp / "c.csv", "control,1,5,-9223372036854775809\n"), 1),
     "count file line 2: sample_size '-9223372036854775809' does not fit in int64"),
    (lambda tmp: load_counts(  # a quoted line break makes one record span lines 3 and 4
        _count_file(tmp / "c.csv", 'control,1,5,5\n"S\nT",1,5,5\n\nS,1,x,5\n'), 1),
     "count file line 6: count 'x' is not an integer"),
    # A file breaking two rules reports the rule load_counts checks first, wherever its
    # line lies: field count, integer fields, one sample size per label, no repeated item.
    (lambda tmp: load_counts(
        _count_file(tmp / "c.csv", "control,x,5,5\ncontrol,2,0,5\ncontrol,3\n"), 3),
     "count file line 4 has 2 fields, not 4"),
    (lambda tmp: load_counts(
        _count_file(tmp / "c.csv", "control,1,3,9\ncontrol,2,2,5\ncontrol,3,y,5\n"), 3),
     "count file line 4: count 'y' is not an integer"),
    (lambda tmp: load_counts(
        _count_file(tmp / "c.csv", "control,1,3,5\ncontrol,1,3,5\ncontrol,2,2,7\n"), 3),
     "control lists sample sizes 5 and 7"),
    (lambda tmp: load_counts(_count_file(tmp / "c.csv", "S,1,5,5\nS,1,0,5\ncontrol,1,5,5\n"), 3),
     "S lists item 1 twice"),
    # Then the table's own rules (5e18 + 5e18 wraps in int64 to the negative size listed),
    # and last each listed sample size against its counts' sum.
    (lambda tmp: load_counts(_count_file(
        tmp / "c.csv", "control,0,5000000000000000000,-8446744073709551616\n"
        "control,1,5000000000000000000,-8446744073709551616\n"), 1),
     "counts of control do not fit in int64"),
    (lambda tmp: load_counts(_count_file(tmp / "c.csv", "control,1,0,5\nS,1,6,7\n"), 1),
     "control has no customers"),
    # Drawn without a control customer, these counts used to identify 8 singletons (one
    # nest of all 8 items at z_threshold=5); the table now refuses them before any test.
    (lambda tmp: sample_choices(generate_ground_truth(8, 1), slice_design(balanced_enumeration(8, 2)),
                                [0] + [10_000] * 6, seed=3),
     "control has no customers"),
    (lambda tmp: load_counts(_count_file(tmp / "c.csv", "control,1,5,5\nS,1,6,7\n"), 1),
     "S lists sample size 7 but its counts sum to 6"),
    (lambda tmp: ChoiceCountTable(  # 3 * 6148914691236517207 = 2**64 + 5 wraps in int64 to 5
        n=2, outside=True, labels=("control", "S"), assortments=((1, 2), (1, 2)),
        counts=[[1, 2, 3], [6148914691236517207] * 3]),
     "counts of S do not fit in int64"),
])
def test_sampling_boundary_checks(tmp_path, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path)
