"""Tests for the two-level Nested Logit model and its generators."""

import itertools
import math
import pickle
import re

import numpy as np
import pytest

from nestlab.designs import (
    ExperimentDesign,
    balanced_enumeration,
    code_length,
    incremental_design,
    leave_one_out_design,
    randomized_design,
    slice_design,
)
from nestlab.metrics import all_subset_probabilities
from nestlab.model import (
    NestPartition,
    NestedLogitModel,
    check_general_position,
    choice_probabilities,
    design_probabilities,
    generate_ground_truth,
    item_ids,
    item_position,
    load_model,
    load_partition,
    model_from_dict,
    model_to_dict,
    nest_multipliers,
    normalize_identifiable,
    partition_to_dict,
    save_model,
    singleton_partition,
    write_json,
)


def two_nest_model(outside=True):
    # {1,2} with lambda 0.5, {3} singleton
    return NestedLogitModel(
        partition=NestPartition([(1, 2), (3,)]),
        weights=(1.0, 2.0, 4.0),
        lambdas=(0.5, 1.0),
        outside=outside,
    )


def test_partition_canonical_form():
    p = NestPartition([(3,), (2, 1)])
    assert p.nests == ((1, 2), (3,))
    assert p.nest_of(1) == 0
    assert p.nest_of(3) == 1
    assert p.n == 3
    assert p.num_nests == 2


def test_partition_validation():
    with pytest.raises(ValueError):
        NestPartition([(1, 2), (2, 3)])  # overlap
    with pytest.raises(ValueError):
        NestPartition([(1,), (3,)])  # gap at 2
    with pytest.raises(ValueError):
        NestPartition([(1,), ()])  # empty nest


def test_partition_labels():
    p = NestPartition([(2, 4), (1, 3)])
    labels = p.labels()
    assert labels[0] == labels[2]
    assert labels[1] == labels[3]
    assert labels[0] != labels[1]


def test_partition_nest_of_rejects_items_outside_range():
    """Items 0, -1 and n+1 raise KeyError; an array index would wrap for 0 and -1, fail on 1.5"""
    p = NestPartition([(2, 4), (1, 3)])
    for item in (0, -1, 5, 1.5, 2.0):
        with pytest.raises(KeyError):
            p.nest_of(item)


def test_model_weight_rejects_items_outside_range():
    """Items 0, -1 and n+1 raise KeyError; a tuple index would wrap for 0 and -1, fail on 1.5"""
    model = NestedLogitModel(
        partition=NestPartition([(1, 2), (3,)]), weights=(2.0, 3.0, 5.0), lambdas=(0.5, 1.0)
    )
    assert [model.weight(i) for i in (1, 2, 3)] == [2.0, 3.0, 5.0]
    for item in (0, -1, 4, 1.5, 2.0):
        with pytest.raises(KeyError):
            model.weight(item)


def test_item_ids_is_the_one_id_rule():
    """Sorted distinct ids; non-integers are a TypeError, the first id outside 1..n is named"""
    assert item_ids([3, 1, 3, np.int64(2)]) == (1, 2, 3)
    assert item_ids((), 4, "S") == ()
    assert all(type(i) is int for i in item_ids(np.array([2, 1]), 2, "S"))
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        item_ids([1, 2.0], 4, "S")
    with pytest.raises(ValueError, match=r"^item 9 of S lies outside 1\.\.4$"):
        item_ids([2, 9, 0], 4, "S")
    assert [item_position(i, 3) for i in (1, np.int64(3))] == [0, 2]
    for item in (0, 4, 1.0, 1.5):
        with pytest.raises(KeyError):
            item_position(item, 3)


@pytest.mark.parametrize("assortment", [[2.9, 1], [1, 2.0], ["1"]])
def test_assortment_items_must_be_integers(assortment):
    """A float id is refused, not truncated: [2.9, 1] used to read as assortment (1, 2)"""
    with pytest.raises(TypeError):
        choice_probabilities(two_nest_model(), assortment)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_weights_must_be_finite(bad):
    """NaN passed the old v <= 0 check, so evaluate printed NaN scores"""
    with pytest.raises(ValueError, match="^item weights must be positive and finite$"):
        NestedLogitModel(partition=NestPartition([(1, 2)]), weights=(bad, 2.0), lambdas=(0.5,))
    with pytest.raises(ValueError, match="^degenerate nest weights must be positive and finite$"):
        NestedLogitModel(partition=NestPartition([(1, 2)]), weights=(1.0, 2.0), lambdas=(0.0,),
                         degenerate_weights={0: bad})


def test_partition_labels_are_read_only():
    p = NestPartition([(2, 4), (1, 3)])
    with pytest.raises(ValueError):
        p.labels()[0] = 1
    assert p.labels().tolist() == [0, 1, 0, 1]


def test_partition_equality_and_hash_follow_the_grouping():
    p = NestPartition([(3,), (2, 1)])
    q = NestPartition([[1, 2], [3]])
    assert p == q and hash(p) == hash(q)
    assert p != NestPartition([(1,), (2, 3)])
    assert len({p, q, NestPartition([(1,), (2,), (3,)])}) == 2


def test_partition_pickle_round_trip():
    p = NestPartition([(2, 5), (1, 3), (4,)])
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p)
    assert np.array_equal(q.labels(), p.labels())
    assert not q.labels().flags.writeable
    assert [q.nest_of(i) for i in range(1, 6)] == [0, 1, 0, 2, 1]


def test_singleton_partition():
    assert singleton_partition(3).nests == ((1,), (2,), (3,))


def test_probabilities_match_hand_computed_values():
    """Straight-line evaluation of the closed form for a 3-item instance"""
    model = two_nest_model()
    cp = choice_probabilities(model, (1, 2, 3))

    vN1 = (1.0 + 2.0) ** 0.5
    vN2 = 4.0
    denom = 1.0 + vN1 + vN2
    assert cp.probs[0] == pytest.approx(1.0 / denom, abs=1e-15)
    assert cp.probs[1] == pytest.approx(vN1 / denom * (1.0 / 3.0), abs=1e-15)
    assert cp.probs[2] == pytest.approx(vN1 / denom * (2.0 / 3.0), abs=1e-15)
    assert cp.probs[3] == pytest.approx(vN2 / denom, abs=1e-15)

    # drop item 2: nest weight shrinks to 1^0.5
    cp = choice_probabilities(model, (1, 3))
    denom = 1.0 + 1.0 + 4.0
    assert cp.probs[1] == pytest.approx(1.0 / denom, abs=1e-15)
    assert cp.probs[3] == pytest.approx(4.0 / denom, abs=1e-15)


def test_probabilities_without_outside_drop_the_one():
    model = two_nest_model(outside=False)
    cp = choice_probabilities(model, (1, 2, 3))
    vN1 = 3.0 ** 0.5
    denom = vN1 + 4.0
    assert cp.probs[3] == pytest.approx(4.0 / denom, abs=1e-15)
    assert cp.probs[0] == 0.0


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(11)
    for outside in (True, False):
        for _ in range(25):
            model = generate_ground_truth(int(rng.integers(2, 12)), rng, outside=outside)
            items = [i for i in range(1, model.n + 1) if rng.random() < 0.6]
            if not items:
                items = [1]
            cp = choice_probabilities(model, items)
            assert cp.probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert (cp.probs[0] > 0.0) == outside


def test_degenerate_nest_uses_fixed_weight():
    """lambda = 0 keeps the nest weight constant while members remain offered"""
    model = NestedLogitModel(
        partition=NestPartition([(1, 2), (3,)]),
        weights=(1.0, 3.0, 2.0),
        lambdas=(0.0, 1.0),
        outside=True,
        degenerate_weights={0: 3.7},
    )
    # the nest's value is 3.7 whichever members are offered
    assert choice_probabilities(model, (1, 2)).probs[0] == pytest.approx(1.0 / 4.7)
    assert choice_probabilities(model, (1,)).probs[0] == pytest.approx(1.0 / 4.7)
    cp_full = choice_probabilities(model, (1, 2, 3))
    cp_part = choice_probabilities(model, (1, 3))
    # the nest's total share is unchanged by dropping a member
    assert cp_full.probs[1] + cp_full.probs[2] == pytest.approx(cp_part.probs[1], abs=1e-12)
    # within the nest the split follows the item weights
    assert cp_full.probs[2] / cp_full.probs[1] == pytest.approx(3.0, abs=1e-12)


def reference_choice_probabilities(model, items):
    """The closed form as a scalar loop over nests, the reference for the array kernel.

    Returns {item: probability}, key 0 being the outside option when present.
    """
    offered = set(items)
    values, members = [], []
    for k, nest in enumerate(model.partition.nests):
        inside = [i for i in nest if i in offered]
        total = sum(model.weight(i) for i in inside)
        lam = model.lambdas[k]
        if total == 0.0:
            value = 0.0
        elif lam == 0.0:
            value = model.degenerate_weights[k]
        else:
            value = math.exp(lam * math.log(total))
        values.append(value)
        members.append((inside, total))
    denom = (1.0 if model.outside else 0.0) + sum(values)
    probs = {0: 1.0 / denom} if model.outside else {}
    for value, (inside, total) in zip(values, members):
        for i in inside:
            probs[i] = value / denom * model.weight(i) / total
    return probs


def assert_matches_reference(model, items, row):
    want = np.zeros(model.n + 1)
    for i, p in reference_choice_probabilities(model, items).items():
        want[i] = p
    np.testing.assert_allclose(row, want, rtol=0, atol=1e-15)


def with_extreme_lambdas(model):
    """The model with lambda = 0 on its first multi-item nest and 1 on its second."""
    multi = [k for k, nest in enumerate(model.partition.nests) if len(nest) > 1]
    lambdas = list(model.lambdas)
    lambdas[multi[0]] = 0.0
    lambdas[multi[1]] = 1.0
    return NestedLogitModel(
        partition=model.partition,
        weights=model.weights,
        lambdas=tuple(lambdas),
        outside=model.outside,
        degenerate_weights={multi[0]: 2.5},
    )


@pytest.mark.parametrize("outside", [True, False])
def test_kernel_matches_scalar_reference_on_every_subset(outside):
    """n <= 7, every subset, single rows and the all-subset table: within 1e-15"""
    rng = np.random.default_rng(12)
    models = [NestedLogitModel(  # a lambda = 0 nest, a lambda = 1 nest, two singletons
        partition=NestPartition([(1, 4), (2, 6, 7), (3,), (5,)]),
        weights=(2.0, 0.5, 3.0, 1.5, 0.25, 4.0, 1.0),
        lambdas=(0.0, 1.0, 1.0, 0.35),
        outside=outside,
        degenerate_weights={0: 1.75},
    )]
    models += [generate_ground_truth(n, rng, outside=outside) for n in range(2, 8)]
    for model in models:
        n = model.n
        table = all_subset_probabilities(model)
        for s in range(1, 2**n):
            items = tuple(t + 1 for t in range(n) if s >> t & 1)
            assert_matches_reference(model, items, choice_probabilities(model, items).probs)
            assert_matches_reference(model, items, table[s - 1])


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("outside", [True, False])
def test_kernel_matches_scalar_reference_on_slice_designs(n, outside):
    design = slice_design(balanced_enumeration(n, 2))
    truth = generate_ground_truth(n, np.random.default_rng(n), outside=outside)
    for model in (truth, with_extreme_lambdas(truth)):
        for cp in design_probabilities(model, design):
            assert_matches_reference(model, cp.assortment, cp.probs)


def test_design_probabilities_match_choice_probabilities():
    """Bitwise: a row's probabilities do not depend on the other rows computed with it"""
    rng = np.random.default_rng(13)
    for n, outside in itertools.product((3, 16, 64, 512), (True, False)):
        model = generate_ground_truth(n, rng, outside=outside)
        design = slice_design(balanced_enumeration(n, 2))
        rows = design_probabilities(model, design)
        assert rows[0].assortment == design.control
        for cp, items in zip(rows, (design.control, *design.experiments)):
            want = choice_probabilities(model, items)
            assert cp.assortment == want.assortment
            assert np.array_equal(cp.probs, want.probs)


@pytest.mark.parametrize("outside", [True, False])
def test_rows_are_bitwise_independent_on_both_kernel_branches(outside):
    """A row alone (fewer assortments than items) equals it in a batch of at least n"""
    rng = np.random.default_rng(15)
    mixed = NestedLogitModel(  # lambda 0 and 1 nests, two singletons, a free lambda
        partition=NestPartition([(1, 4, 9), (2, 6, 7, 16), (3,), (5,), (8, 10, 11, 12, 13, 14, 15)]),
        weights=tuple(rng.uniform(0.5, 8.0, size=16)),
        lambdas=(0.0, 1.0, 1.0, 1.0, 0.45),
        outside=outside,
        degenerate_weights={0: 1.75},
    )
    truth = generate_ground_truth(16, rng, outside=outside)
    for model in (mixed, truth, with_extreme_lambdas(truth)):
        table = all_subset_probabilities(model)  # blocks of 8,192 rows: the loop branch
        codes = [*rng.integers(1, 2**16, size=300).tolist(), *(1 << t for t in range(16)), 2**16 - 1]
        subsets = [tuple(t + 1 for t in range(16) if s >> t & 1) for s in codes]
        batch = design_probabilities(model, ExperimentDesign(  # 15 rows: the array branch
            n=16, experiments=subsets[:14], labels=tuple(f"E{k}" for k in range(14)),
        ))
        for s, items in zip(codes, subsets):
            assert np.array_equal(table[s - 1], choice_probabilities(model, items).probs)
        for cp, items in zip(batch[1:], subsets):
            assert np.array_equal(cp.probs, choice_probabilities(model, items).probs)
    truth = generate_ground_truth(512, rng, outside=outside)
    assortments = [
        tuple(sorted((rng.choice(512, size=k, replace=False) + 1).tolist()))
        for k in rng.integers(1, 513, size=600)
    ]
    design = ExperimentDesign(  # 601 rows at n = 512: the loop branch
        n=512, experiments=assortments, labels=tuple(f"E{k}" for k in range(600)),
    )
    for model in (truth, with_extreme_lambdas(truth)):
        rows = design_probabilities(model, design)
        for cp, items in zip(rows, (design.control, *assortments)):
            assert np.array_equal(cp.probs, choice_probabilities(model, items).probs)


def test_assortment_items_are_normalized():
    """Duplicates drop, items sort, numpy integers are accepted; an empty assortment is refused"""
    model = two_nest_model()
    want = choice_probabilities(model, (1, 3))
    for items in ([3, 1, 3], (np.int64(3), np.int32(1)), np.array([1, 3, 1]), iter((3, 1))):
        cp = choice_probabilities(model, items)
        assert cp.assortment == (1, 3) and all(type(i) is int for i in cp.assortment)
        assert np.array_equal(cp.probs, want.probs)
    for empty in ((), [], np.array([], dtype=np.int64)):
        with pytest.raises(ValueError, match="assortment must be nonempty"):
            choice_probabilities(model, empty)


def test_degenerate_weight_required_exactly_for_zero_lambda():
    with pytest.raises(ValueError):
        NestedLogitModel(
            partition=NestPartition([(1, 2)]),
            weights=(1.0, 1.0),
            lambdas=(0.0,),
            outside=True,
        )
    with pytest.raises(ValueError):
        NestedLogitModel(
            partition=NestPartition([(1, 2)]),
            weights=(1.0, 1.0),
            lambdas=(0.5,),
            outside=True,
            degenerate_weights={0: 2.0},
        )


def test_model_validation():
    with pytest.raises(ValueError):
        NestedLogitModel(
            partition=NestPartition([(1,)]), weights=(0.0,), lambdas=(1.0,), outside=True
        )
    with pytest.raises(ValueError):
        NestedLogitModel(
            partition=NestPartition([(1,)]), weights=(1.0,), lambdas=(1.5,), outside=True
        )
    with pytest.raises(ValueError):
        NestedLogitModel(
            partition=NestPartition([(1, 2)]), weights=(1.0,), lambdas=(0.5,), outside=True
        )


def test_nest_multiplier_at_least_one():
    rng = np.random.default_rng(5)
    for _ in range(30):
        model = generate_ground_truth(8, rng)
        for k, nest in enumerate(model.partition.nests):
            items = [i for i in range(1, 9) if rng.random() < 0.5]
            if not set(nest) & set(items):
                continue
            mult = nest_multipliers(model, [items])[k, 0]
            assert mult >= 1.0 - 1e-12
            if set(nest) <= set(items):
                assert mult == pytest.approx(1.0, abs=1e-12)
            else:
                assert mult > 1.0


def test_nest_multipliers_are_nan_for_missed_nests_and_one_for_full_nests():
    model = two_nest_model()  # {1,2} with lambda 0.5, {3} singleton
    mult = nest_multipliers(model, [(1, 2, 3), (1,), (3,), ()])
    assert mult.shape == (2, 4)
    assert mult[:, 0].tolist() == [1.0, 1.0]
    assert mult[0, 1] == pytest.approx(math.sqrt(3.0))  # (3 / 1) ** 0.5
    assert np.isnan([mult[1, 1], mult[0, 2], *mult[:, 3]]).all()  # no member offered


def test_normalize_identifiable_splits_unit_lambda_nest():
    model = NestedLogitModel(
        partition=NestPartition([(1, 2, 3)]),
        weights=(1.0, 2.0, 3.0),
        lambdas=(1.0,),
        outside=True,
    )
    norm = normalize_identifiable(model)
    assert norm.partition == singleton_partition(3)
    assert norm.weights == (1.0, 2.0, 3.0)


def test_normalize_identifiable_reparameterizes_singletons():
    model = NestedLogitModel(
        partition=NestPartition([(1,), (2, 3)]),
        weights=(4.0, 1.0, 1.0),
        lambdas=(0.5, 0.4),
        outside=True,
    )
    norm = normalize_identifiable(model)
    assert norm.lambdas[norm.partition.nest_of(1)] == 1.0
    assert norm.weight(1) == pytest.approx(2.0)  # 4 ** 0.5


def test_normalize_identifiable_preserves_choice_function():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        model = generate_ground_truth(n, rng)
        # roughen the model so normalization has real work to do
        rough = NestedLogitModel(
            partition=model.partition,
            weights=model.weights,
            lambdas=tuple(
                1.0 if len(nest) == 1 and rng.random() < 0.5 else lam
                for nest, lam in zip(model.partition.nests, model.lambdas)
            ),
            outside=model.outside,
            degenerate_weights=model.degenerate_weights,
        )
        norm = normalize_identifiable(rough)
        for size in range(1, n + 1):
            for items in itertools.combinations(range(1, n + 1), size):
                a = choice_probabilities(rough, items)
                b = choice_probabilities(norm, items)
                np.testing.assert_allclose(a.probs, b.probs, rtol=0, atol=1e-12)


def test_generated_truth_satisfies_published_constraints():
    """Nest count, weight ratio, and dissimilarity ranges of the generator"""
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(2, 17))
        model = generate_ground_truth(n, rng)
        assert model.partition.num_nests <= max(1, n // 2)
        ws = [model.weight(i) for i in range(1, n + 1)]
        assert max(ws) / min(ws) <= 10.0 + 1e-9
        for nest, lam in zip(model.partition.nests, model.lambdas):
            if len(nest) == 1:
                assert lam == 1.0
            else:
                assert 0.3 <= lam <= 0.6


def test_generated_truth_in_general_position_for_slices():
    rng = np.random.default_rng(123)
    design = slice_design(balanced_enumeration(12, 2))
    for _ in range(20):
        model = generate_ground_truth(12, rng)
        assert check_general_position(model, design) == []


def test_check_general_position_flags_symmetric_instance():
    # equal weights make two partially offered nests share every multiplier
    model = NestedLogitModel(
        partition=NestPartition([(1, 2), (3, 4)]),
        weights=(1.0, 1.0, 1.0, 1.0),
        lambdas=(0.5, 0.5),
        outside=True,
    )
    design = slice_design(balanced_enumeration(4, 2))
    assert check_general_position(model, design) != []


def reference_nest_multiplier(model, nest_index, assortment):
    """Mult(N, S) as a scalar sum over the nest's members, the reference for nest_multipliers."""
    nest = model.partition.nests[nest_index]
    offered = set(assortment)
    total = sum(model.weight(i) for i in nest)
    inside = sum(model.weight(i) for i in nest if i in offered)
    lam = model.lambdas[nest_index]
    return math.exp((1.0 - lam) * (math.log(total) - math.log(inside)))


def reference_check_general_position(model, design, tolerance=1e-9):
    """Every pair of partially offered nests, experiment by experiment, as scalar loops."""
    violations = []
    for label, items in zip(design.labels, design.experiments):
        offered = set(items)
        partial = []
        for k, nest in enumerate(model.partition.nests):
            inside = sum(1 for i in nest if i in offered)
            if 0 < inside < len(nest):
                partial.append((k, reference_nest_multiplier(model, k, items)))
        for a in range(len(partial)):
            for c in range(a + 1, len(partial)):
                ka, ma = partial[a]
                kc, mc = partial[c]
                if abs(ma - mc) <= tolerance * max(abs(ma), abs(mc)):
                    violations.append((label, ka, kc))
    return violations


def equal_weight_model(model):
    """The model's partition with every weight 1 and lambda 0.5 on each multi-item nest."""
    return NestedLogitModel(
        partition=model.partition,
        weights=(1.0,) * model.n,
        lambdas=tuple(0.5 if len(nest) > 1 else 1.0 for nest in model.partition.nests),
        outside=model.outside,
    )


@pytest.mark.parametrize("outside", [True, False])
def test_check_general_position_matches_scalar_reference(outside):
    """Same triples in the same order on slice, random, leave-one-out and incremental designs"""
    rng = np.random.default_rng(41)
    flagged = checked = 0
    for n in (4, 7, 12, 20):
        for _ in range(3):
            truth = generate_ground_truth(n, rng, outside=outside)
            designs = [
                slice_design(balanced_enumeration(n, 2)),
                slice_design(balanced_enumeration(n, 3)),
                randomized_design(n, 2 * code_length(n, 2), size_rule="half", rng=rng),
                leave_one_out_design(n),
                incremental_design(n, rng=rng),
            ]
            for design in designs:
                for model in (truth, equal_weight_model(truth)):
                    want = reference_check_general_position(model, design)
                    assert check_general_position(model, design) == want
                    flagged += bool(want)
                    checked += 1
    assert 0 < flagged < checked


def test_check_general_position_flags_partly_offered_unit_lambda_nests():
    """Two lambda = 1 nests have multiplier exactly 1 when partly offered, and still count"""
    model = NestedLogitModel(
        partition=NestPartition([(1, 2), (3, 4), (5,)]),
        weights=(1.0, 2.0, 3.0, 4.0, 5.0),
        lambdas=(1.0, 1.0, 1.0),
        outside=True,
    )
    design = ExperimentDesign(n=5, experiments=((1, 3, 5), (1, 2, 3)), labels=("A", "B"))
    assert nest_multipliers(model, design.experiments)[:2, 0].tolist() == [1.0, 1.0]
    assert check_general_position(model, design) == [("A", 0, 1)]
    assert reference_check_general_position(model, design) == [("A", 0, 1)]
    assert check_general_position(model, ExperimentDesign(n=5, experiments=(), labels=())) == []


def test_model_json_round_trip(tmp_path):
    model = NestedLogitModel(
        partition=NestPartition([(1, 3), (2,)]),
        weights=(1.0, 2.0, 0.5),
        lambdas=(0.0, 1.0),
        outside=False,
        degenerate_weights={0: 1.25},
    )
    again = model_from_dict(model_to_dict(model))
    assert again == model

    path = tmp_path / "model.json"
    save_model(model, path)
    assert load_model(path) == model
    assert path.read_text() == MODEL_FILE

    path = tmp_path / "partition.json"
    write_json(partition_to_dict(model.partition), path)
    assert load_partition(path) == model.partition
    assert path.read_text() == PARTITION_FILE
    path.write_text(PARTITION_FILE.replace('"n": 3', '"n": 4'))
    with pytest.raises(ValueError, match=r"^partition n is 4 but its nests cover items 1\.\.3$"):
        load_partition(path)
    path.write_text('{"nests": [[3, 1], [2]]}')  # n may be left out
    assert load_partition(path) == model.partition


# Both files are indented by two spaces and end in a newline.
MODEL_FILE = """{
  "n": 3,
  "nests": [
    [
      1,
      3
    ],
    [
      2
    ]
  ],
  "v": [
    1.0,
    2.0,
    0.5
  ],
  "lambda": [
    0.0,
    1.0
  ],
  "v_nest_degenerate": {
    "0": 1.25
  },
  "outside_option": false
}
"""
PARTITION_FILE = """{
  "n": 3,
  "nests": [
    [
      1,
      3
    ],
    [
      2
    ]
  ]
}
"""


def test_generator_accepts_integer_seed():
    rng = np.random.default_rng(9)
    a = generate_ground_truth(6, rng)
    b = generate_ground_truth(6, np.random.default_rng(9))
    assert a == b
    assert generate_ground_truth(6, 9) == a
    assert generate_ground_truth(6, rng) != a  # a given Generator's stream moves on


@pytest.mark.parametrize("outside", [True, False])
def test_normalize_identifiable_keeps_lambda_zero_nests(outside):
    """A lambda = 0 singleton becomes its fixed weight; a multi-item one keeps it under a new index"""
    model = NestedLogitModel(
        partition=NestPartition([(1, 2, 3), (4, 5), (6,)]),
        weights=(1.0, 2.0, 3.0, 1.5, 2.5, 4.0),
        lambdas=(1.0, 0.0, 0.0),
        outside=outside,
        degenerate_weights={1: 2.5, 2: 0.7},
    )
    norm = normalize_identifiable(model)
    assert norm.partition == NestPartition([(1,), (2,), (3,), (4, 5), (6,)])
    assert norm.lambdas == (1.0, 1.0, 1.0, 0.0, 1.0)
    assert norm.degenerate_weights == {3: 2.5}
    assert norm.weight(6) == 0.7
    np.testing.assert_allclose(
        all_subset_probabilities(norm), all_subset_probabilities(model), rtol=0, atol=1e-15
    )


def test_design_probabilities_rejects_a_design_of_other_items():
    design = slice_design(balanced_enumeration(4, 2))
    with pytest.raises(ValueError, match="^design has 4 items, model has 8$"):
        design_probabilities(generate_ground_truth(8, np.random.default_rng(1)), design)


def test_model_file_carries_each_lambda_with_its_nest():
    """Nests may be listed in any order; lambda and v_nest_degenerate follow the nests as listed"""
    model = NestedLogitModel(
        partition=NestPartition([(1, 4), (2, 5), (3, 6)]),
        weights=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        lambdas=(0.3, 0.0, 0.7),
        degenerate_weights={1: 2.5},
    )
    data = model_to_dict(model)
    shuffled = {**data, "nests": [[6, 3], [5, 2], [1, 4]], "lambda": [0.7, 0.0, 0.3],
                "v_nest_degenerate": {"1": 2.5}}
    assert model_from_dict(shuffled) == model
    assert model_from_dict({**data, "nests": [[5, 2], [1, 4], [3, 6]], "lambda": [0.0, 0.3, 0.7],
                            "v_nest_degenerate": {"0": 2.5}}) == model
    with pytest.raises(ValueError, match="^degenerate_weights must cover exactly"):
        model_from_dict({**shuffled, "v_nest_degenerate": {"3": 2.5}})


@pytest.mark.parametrize("key", ["nests", "v", "lambda", "outside_option"])
def test_model_from_dict_names_a_missing_key(key):
    data = model_to_dict(generate_ground_truth(5, np.random.default_rng(2)))
    del data[key]
    with pytest.raises(ValueError, match=f"^model has no '{key}' key$"):
        model_from_dict(data)


@pytest.mark.parametrize("call, message", [
    (lambda: NestedLogitModel(partition=NestPartition([(1, 2)]), weights=(1.0, 2.0),
                              lambdas=(0.5, 0.5)),
     "one lambda per nest required"),
    (lambda: NestedLogitModel(partition=NestPartition([(1, 2)]), weights=(1.0, 2.0),
                              lambdas=(0.0,), degenerate_weights={0: 0.0}),
     "degenerate nest weights must be positive and finite"),
    (lambda: generate_ground_truth(1), "ground truth generation needs n >= 2"),
    (lambda: generate_ground_truth(2.5, 1), "item count must be an integer, got 2.5"),
    (lambda: model_from_dict([1, 2]), "model file must hold a JSON object"),
    (lambda: model_from_dict({**model_to_dict(generate_ground_truth(4, 0)), "nests": 5}),
     "model has a field of the wrong type: 'int' object is not iterable"),
    (lambda: model_from_dict({**model_to_dict(generate_ground_truth(4, 0)), "lambda": None}),
     "model has a field of the wrong type: 'NoneType' object is not iterable"),
    (lambda: model_from_dict({**model_to_dict(generate_ground_truth(4, 0)),
                              "nests": [[1, 2.9], [3, 4]]}),
     "model has a field of the wrong type: 'float' object cannot be interpreted as an integer"),
    (lambda: model_from_dict({**model_to_dict(generate_ground_truth(4, 0)), "n": 7}),
     "model n is 7 but its nests cover items 1..4"),
])
def test_model_boundary_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
