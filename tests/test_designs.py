"""Tests for encodings and experiment designs."""

import json
import re

import numpy as np
import pytest

from nestlab.designs import (
    BaseBEncoding,
    ExperimentDesign,
    balanced_enumeration,
    code_length,
    design_from_dict,
    design_to_dict,
    incremental_design,
    leave_one_out_design,
    load_design,
    naive_encoding,
    randomized_design,
    save_design,
    slice_design,
    verify_separation,
)


def test_code_length_values():
    """L is the least power such that b^L covers n codewords"""
    cases = [
        (1, 2, 1),
        (2, 2, 1),
        (3, 2, 2),
        (8, 2, 3),
        (9, 2, 4),
        (16, 2, 4),
        (17, 2, 5),
        (9, 3, 2),
        (10, 3, 3),
        (1000, 5, 5),  # 5^4 = 625 < 1000 <= 3125 = 5^5
    ]
    for n, b, expected in cases:
        assert code_length(n, b) == expected, (n, b)


def test_naive_encoding_is_base_b_of_item_minus_one():
    enc = naive_encoding(9, 2)
    assert enc.length == 4
    # item 1 -> 0 -> 0000, item 9 -> 8 -> 1000
    assert enc.sigma(1) == (0, 0, 0, 0)
    assert enc.sigma(2) == (0, 0, 0, 1)
    assert enc.sigma(9) == (1, 0, 0, 0)
    # positions are 1-based, most significant first
    assert enc.sigma_digit(9, 1) == 1
    assert enc.sigma_digit(9, 4) == 0


def test_balanced_enumeration_first_five_codewords():
    """The first five balanced codewords for b=2 are frozen"""
    enc = balanced_enumeration(5, 2)
    expected = [
        (0, 0, 0),
        (1, 1, 1),
        (0, 0, 1),
        (1, 1, 0),
        (0, 1, 0),
    ]
    assert [enc.sigma(i) for i in range(1, 6)] == expected


def test_balanced_enumeration_balance_and_distinctness():
    """Digit counts per position never spread more than 1; codewords distinct"""
    rng = np.random.default_rng(4)
    for _ in range(40):
        b = int(rng.integers(2, 6))
        n = int(rng.integers(2, 200))
        enc = balanced_enumeration(n, b)
        for pos in range(1, enc.length + 1):
            counts = enc.position_counts(pos)
            assert counts.sum() == n
            assert counts.max() - counts.min() <= 1, (n, b, pos)
        seen = {enc.sigma(i) for i in range(1, n + 1)}
        assert len(seen) == n


def test_balanced_covers_all_codewords_at_power():
    # n = b^L uses each codeword exactly once
    enc = balanced_enumeration(16, 2)
    assert len({enc.sigma(i) for i in range(1, 17)}) == 16


def test_slice_design_sets_for_nine_items():
    """Slice contents for the naive encoding of 9 items in base 2"""
    design = slice_design(naive_encoding(9, 2))
    sets = dict(zip(design.labels, design.experiments))
    assert design.control == tuple(range(1, 10))
    assert sets["S(1,-0)"] == (9,)
    assert sets["S(1,-1)"] == (1, 2, 3, 4, 5, 6, 7, 8)
    assert sets["S(2,-0)"] == (5, 6, 7, 8)
    assert sets["S(3,-0)"] == (3, 4, 7, 8)
    assert sets["S(4,-0)"] == (2, 4, 6, 8)
    assert sets["S(4,-1)"] == (1, 3, 5, 7, 9)


def test_slice_design_label_order_is_row_major():
    design = slice_design(naive_encoding(5, 2))
    assert design.labels == (
        "S(1,-0)", "S(1,-1)", "S(2,-0)", "S(2,-1)", "S(3,-0)", "S(3,-1)",
    )


def test_slice_design_experiment_count():
    # b * L experiments, even when some slice is empty
    for n, b in [(8, 2), (9, 2), (27, 3), (5, 4)]:
        design = slice_design(balanced_enumeration(n, b))
        assert design.num_experiments == b * code_length(n, b)


def test_slice_design_separates_all_ordered_pairs():
    for n in [2, 3, 7, 16, 33]:
        for b in (2, 3):
            design = slice_design(balanced_enumeration(n, b))
            assert verify_separation(design) == [], (n, b)


def test_verify_separation_reports_uncovered_pairs():
    design = ExperimentDesign(
        n=3,
        experiments=[(1, 2), (2, 3)],
        labels=("A", "B"),
    )
    missing = verify_separation(design)
    # no experiment offers 2 without 1 and 3 simultaneously absent:
    # (1,2) offers 1 without 3, (2,3) offers 3 without 1, but nothing
    # separates 2 from both neighbours on one side each
    assert (2, 1) not in missing
    assert (1, 2) in missing  # 1 never appears without 2


def test_randomized_design_half_sizes():
    design = randomized_design(10, 4, size_rule="half", rng=0)
    assert design.num_experiments == 4
    assert all(len(items) == 5 for items in design.experiments)
    assert design.labels == ("RAND(1)", "RAND(2)", "RAND(3)", "RAND(4)")


def test_randomized_design_uniform_3_6_sizes():
    design = randomized_design(12, 30, size_rule="uniform_3_6", rng=1)
    sizes = {len(items) for items in design.experiments}
    assert sizes <= {3, 4, 5, 6}
    with pytest.raises(ValueError):
        randomized_design(5, 3, size_rule="uniform_3_6", rng=1)


def test_randomized_design_is_seed_deterministic():
    a = randomized_design(9, 5, size_rule="half", rng=7)
    b = randomized_design(9, 5, size_rule="half", rng=7)
    assert a.experiments == b.experiments


def test_random_designs_draw_from_a_given_generator_in_place():
    """A Generator seed draws as its integer seed would, and its stream moves on"""
    rng = np.random.default_rng(7)
    first = randomized_design(9, 5, size_rule="half", rng=rng)
    assert first.experiments == randomized_design(9, 5, size_rule="half", rng=7).experiments
    assert randomized_design(9, 5, size_rule="half", rng=rng).experiments != first.experiments
    rng = np.random.default_rng(3)
    first = incremental_design(9, rng=rng)
    assert first.experiments == incremental_design(9, rng=3).experiments
    assert incremental_design(9, rng=rng).experiments != first.experiments


def test_leave_one_out_design():
    design = leave_one_out_design(4)
    assert design.experiments == ((2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3))
    assert design.labels == ("LOO(1)", "LOO(2)", "LOO(3)", "LOO(4)")
    assert verify_separation(design) == []


def test_incremental_design_prefixes():
    design = incremental_design(5, rng=3)
    sizes = [len(items) for items in design.experiments]
    assert sizes == [1, 2, 3, 4, 5]
    # each experiment extends the previous one
    for small, big in zip(design.experiments, design.experiments[1:]):
        assert set(small) <= set(big)
    assert design.experiments[-1] == design.control


def test_membership_matrix_shape_and_content():
    design = slice_design(naive_encoding(4, 2))
    m = design.membership_matrix()
    assert m.shape == (design.num_experiments, 4)
    for row, items in zip(m, design.experiments):
        assert set(np.flatnonzero(row) + 1) == set(items)


def test_design_rejects_bad_items():
    with pytest.raises(ValueError):
        ExperimentDesign(n=3, experiments=[(0, 1)], labels=("A",))
    with pytest.raises(ValueError):
        ExperimentDesign(n=3, experiments=[(1, 4)], labels=("A",))
    with pytest.raises(ValueError):
        ExperimentDesign(n=3, experiments=[(1,), (2,)], labels=("A", "A"))
    # duplicate items collapse rather than error
    design = ExperimentDesign(n=3, experiments=[(1, 1, 2)], labels=("A",))
    assert design.experiments == ((1, 2),)


def test_design_json_round_trip(tmp_path):
    design = slice_design(balanced_enumeration(6, 2))
    data = design_to_dict(design)
    again = design_from_dict(data)
    assert again.experiments == design.experiments
    assert again.labels == design.labels
    assert again.control == design.control

    path = tmp_path / "design.json"
    save_design(design, path)
    loaded = load_design(path)
    assert loaded.experiments == design.experiments
    # the file is plain JSON with one record per assortment
    raw = json.loads(path.read_text())
    assert raw["n"] == 6
    assert {rec["label"] for rec in raw["experiments"]} == set(design.labels)
    # indented by two spaces, with a final newline
    save_design(ExperimentDesign(n=3, experiments=[(2, 1)], labels=("A",)), path)
    assert path.read_text() == SMALL_DESIGN_FILE


@pytest.mark.parametrize("build", [
    lambda n: slice_design(balanced_enumeration(n, np.int64(2))),
    leave_one_out_design,
    lambda n: randomized_design(n, np.int64(5), rng=0),
])
def test_design_from_numpy_integers_stores_python_ints(tmp_path, build):
    """A numpy n used to stay in the design, so save_design left a partial file"""
    design = build(np.int64(8))
    assert type(design.n) is int
    save_design(design, tmp_path / "design.json")
    assert load_design(tmp_path / "design.json") == design


SMALL_DESIGN_FILE = """{
  "n": 3,
  "control": [
    1,
    2,
    3
  ],
  "experiments": [
    {
      "label": "A",
      "items": [
        1,
        2
      ]
    }
  ]
}
"""


def test_encoding_rejects_out_of_range_queries():
    enc = naive_encoding(4, 2)
    with pytest.raises(ValueError):
        enc.sigma(0)
    with pytest.raises(ValueError):
        enc.sigma(5)
    with pytest.raises(ValueError):
        enc.sigma_digit(1, 0)
    for item in (0, 5, 1.5, 2.0):  # item 0 would read item 4's digit, 1.5 fail as an index
        with pytest.raises(ValueError, match=f"^item {item} out of range 1..4$"):
            enc.sigma_digit(item, 1)
        with pytest.raises(ValueError, match=f"^item {item} out of range 1..4$"):
            enc.sigma(item)
    for position in (0, 3, 1.0):  # position 0 would count the last position
        with pytest.raises(ValueError, match=f"position {position} out of range 1..2"):
            enc.position_counts(position)


def test_design_experiments_follow_the_item_id_rule():
    """Ids are sorted and deduplicated; the first id outside 1..n is named; floats are refused"""
    design = ExperimentDesign(n=3, experiments=[np.array([3, 1, 3]), (2,)], labels=("A", "B"))
    assert design.experiments == ((1, 3), (2,))
    with pytest.raises(ValueError, match=r"^item 4 of experiment 1 lies outside 1\.\.3$"):
        ExperimentDesign(n=3, experiments=[(1,), (2, 4, 0)], labels=("A", "B"))
    with pytest.raises(TypeError):
        ExperimentDesign(n=3, experiments=[(1, 2.5)], labels=("A",))


@pytest.mark.parametrize("key", ["n", "control", "experiments", "label", "items"])
def test_design_from_dict_names_a_missing_key(key):
    data = design_to_dict(slice_design(balanced_enumeration(5, 2)))
    if key in data:
        del data[key]
    else:
        del data["experiments"][2][key]
    with pytest.raises(ValueError, match=f"^design has no '{key}' key$"):
        design_from_dict(data)


def test_design_files_hold_no_base_and_older_files_still_load():
    design = slice_design(balanced_enumeration(5, 2))
    data = design_to_dict(design)
    assert list(data) == ["n", "control", "experiments"]
    assert design_from_dict({**data, "b": 2}) == design


SMALL_DESIGN = {"n": 3, "control": [1, 2, 3], "experiments": [{"label": "A", "items": [1, 2]}]}


@pytest.mark.parametrize("build, message", [
    (lambda: code_length(4, 1), "encoding base must be at least 2, got 1"),
    (lambda: BaseBEncoding(n=3, b=2, digits=np.zeros((2, 2), dtype=np.int64)),
     "digit matrix does not cover all items"),
    (lambda: ExperimentDesign(n=3, experiments=[(1, 2)], labels=()),
     "one label per experiment required"),
    (lambda: randomized_design(8, 0), "assortment count must be at least 1, got 0"),
    (lambda: randomized_design(8, 2.5), "assortment count must be an integer, got 2.5"),
    (lambda: randomized_design(1, 2, size_rule="half"), "size rule half needs n >= 2"),
    (lambda: randomized_design(8, 2, size_rule="third"), "unknown size rule 'third'"),
    (lambda: leave_one_out_design(1), "number of items must be at least 2, got 1"),
    (lambda: incremental_design(0), "number of items must be at least 1, got 0"),
    (lambda: design_from_dict({**SMALL_DESIGN, "n": 0}),
     "number of items must be at least 1, got 0"),
    (lambda: design_from_dict({**SMALL_DESIGN, "control": [1, 2]}),
     "design control must list every item 1..3"),
    (lambda: design_from_dict([1, 2]), "design file must hold a JSON object"),
    (lambda: design_from_dict({**SMALL_DESIGN, "experiments": [5]}),
     "design has a field of the wrong type: argument of type 'int' is not iterable"),
    (lambda: design_from_dict({**SMALL_DESIGN, "experiments": [{"label": "A", "items": [1.7, 3]}]}),
     "design has a field of the wrong type: 'float' object cannot be interpreted as an integer"),
])
def test_design_boundary_checks(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
