"""Tests for the two-level Nested Logit model and its generators."""

import itertools
import math

import numpy as np
import pytest

from nestlab.designs import balanced_enumeration, slice_design
from nestlab.metrics import all_subset_probabilities
from nestlab.model import (
    NestPartition,
    NestedLogitModel,
    check_general_position,
    choice_probabilities,
    design_probabilities,
    generate_ground_truth,
    load_model,
    model_from_dict,
    model_to_dict,
    nest_multiplier,
    normalize_identifiable,
    save_model,
    singleton_partition,
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


def test_singleton_partition():
    assert singleton_partition(3).nests == ((1,), (2,), (3,))


def test_probabilities_match_hand_computed_values():
    """Straight-line evaluation of the closed form for a 3-item instance"""
    model = two_nest_model()
    cp = choice_probabilities(model, (1, 2, 3))

    vN1 = (1.0 + 2.0) ** 0.5
    vN2 = 4.0
    denom = 1.0 + vN1 + vN2
    assert cp.prob(0) == pytest.approx(1.0 / denom, abs=1e-15)
    assert cp.prob(1) == pytest.approx(vN1 / denom * (1.0 / 3.0), abs=1e-15)
    assert cp.prob(2) == pytest.approx(vN1 / denom * (2.0 / 3.0), abs=1e-15)
    assert cp.prob(3) == pytest.approx(vN2 / denom, abs=1e-15)

    # drop item 2: nest weight shrinks to 1^0.5
    cp = choice_probabilities(model, (1, 3))
    denom = 1.0 + 1.0 + 4.0
    assert cp.prob(1) == pytest.approx(1.0 / denom, abs=1e-15)
    assert cp.prob(3) == pytest.approx(4.0 / denom, abs=1e-15)


def test_probabilities_without_outside_drop_the_one():
    model = two_nest_model(outside=False)
    cp = choice_probabilities(model, (1, 2, 3))
    vN1 = 3.0 ** 0.5
    denom = vN1 + 4.0
    assert cp.prob(3) == pytest.approx(4.0 / denom, abs=1e-15)
    assert cp.prob(0) == 0.0


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
            assert (cp.prob(0) > 0.0) == outside


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
    assert choice_probabilities(model, (1, 2)).prob(0) == pytest.approx(1.0 / 4.7)
    assert choice_probabilities(model, (1,)).prob(0) == pytest.approx(1.0 / 4.7)
    cp_full = choice_probabilities(model, (1, 2, 3))
    cp_part = choice_probabilities(model, (1, 3))
    # the nest's total share is unchanged by dropping a member
    assert cp_full.prob(1) + cp_full.prob(2) == pytest.approx(cp_part.prob(1), abs=1e-12)
    # within the nest the split follows the item weights
    assert cp_full.prob(2) / cp_full.prob(1) == pytest.approx(3.0, abs=1e-12)


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
            mult = nest_multiplier(model, k, items)
            assert mult >= 1.0 - 1e-12
            if set(nest) <= set(items):
                assert mult == pytest.approx(1.0, abs=1e-12)
            else:
                assert mult > 1.0


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


def test_generator_accepts_integer_seed():
    a = generate_ground_truth(6, np.random.default_rng(9))
    b = generate_ground_truth(6, np.random.default_rng(9))
    assert a == b
