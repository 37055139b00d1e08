"""Tests for boost factors, statistical tests, and nest identification."""

import itertools
import math
import re

import numpy as np
import pytest

from nestlab.designs import (
    ExperimentDesign,
    balanced_enumeration,
    design_from_dict,
    design_to_dict,
    naive_encoding,
    slice_design,
)
from nestlab.identify import (
    EXACT_TOLERANCE,
    NOISY_NULL,
    BoostTable,
    EdgeMatrix,
    TestConfig,
    ZeroEvidenceError,
    boost_factors,
    boost_factors_from_counts,
    exact_identify_with_outside,
    exact_identify_without_outside,
    noisy_identify_with_outside,
    noisy_identify_without_outside,
    theorem_margins,
    theorem_pair_count,
    theorem_sample_size,
    theorem_z_threshold,
    z_statistic,
    _components_of_ones,
    _finalize_exact,
    _pair_weights,
    _pair_z,
    _support_z,
)
from nestlab.communities import community_detect
from nestlab.metrics import rand_index, rmse_soft_restricted
from nestlab.model import (
    ChoiceProbabilities,
    NestPartition,
    NestedLogitModel,
    choice_probabilities,
    design_probabilities,
    generate_ground_truth,
)
from nestlab.recovery import recover_all, recover_least_squares
from nestlab.sampling import (
    ChoiceCountTable,
    allocate_customers,
    load_counts,
    sample_choices,
    save_counts,
)


def test_boost_factors_from_drink_sales():
    """Four drinks, two restricted days: shares scaled against a full-menu day"""
    # day 1 offers everything and is the control; days 2 and 3 drop items.
    # 500 visitors per day, the remainder walks away.
    control = ChoiceProbabilities(
        assortment=(1, 2, 3, 4),
        probs=np.array([0.0, 0.4, 0.2, 0.2, 0.2]),
        outside=True,
    )
    day2 = ChoiceProbabilities(
        assortment=(1, 2), probs=np.array([0.28, 0.48, 0.24, 0.0, 0.0]), outside=True
    )
    day3 = ChoiceProbabilities(
        assortment=(2, 3, 4), probs=np.array([0.12, 0.0, 0.4, 0.24, 0.24]), outside=True
    )
    # item 1's control share would divide by zero if it were never chosen
    with pytest.raises(ValueError):
        boost_factors(control, [day2, day3])

    control = ChoiceProbabilities(
        assortment=(1, 2, 3, 4),
        probs=np.array([0.1, 0.36, 0.18, 0.18, 0.18]),
        outside=True,
    )
    day2 = ChoiceProbabilities(
        assortment=(1, 2), probs=np.array([0.352, 0.432, 0.216, 0.0, 0.0]), outside=True
    )
    day3 = ChoiceProbabilities(
        assortment=(2, 3, 4), probs=np.array([0.208, 0.0, 0.36, 0.216, 0.216]), outside=True
    )
    table = boost_factors(control, [day2, day3], labels=("day2", "day3"))
    # juices rise together by 20% when the other drinks vanish
    assert table.factors[0][1] == pytest.approx(1.2)
    assert table.factors[0][2] == pytest.approx(1.2)
    # without its nest-mate, item 2 doubles while the others gain 20%
    assert table.factors[1][2] == pytest.approx(2.0)
    assert table.factors[1][3] == pytest.approx(1.2)
    assert table.factors[1][4] == pytest.approx(1.2)


def boost_matrix(n, rows):
    """Item-indexed boost rows from {item: factor} literals, NaN where not offered."""
    out = np.full((len(rows), n + 1), np.nan)
    for r, row in enumerate(rows):
        for i, factor in row.items():
            out[r, i] = factor
    return out


def test_single_experiment_deductions():
    """One experiment: unboosted items split from outside, equal boosts join"""
    n = 8
    design = ExperimentDesign(
        n=n, experiments=[(1, 2, 3, 4)], labels=("S",)
    )
    table = BoostTable(
        n=n,
        outside=True,
        labels=("S",),
        assortments=((1, 2, 3, 4),),
        factors=boost_matrix(n, [{0: 1.3, 1: 1.3, 2: 1.6, 3: 1.9, 4: 1.9}]),
    )
    edges, _ = exact_identify_with_outside(table, design)
    assert edges.get(3, 4) == 1.0  # same boost above the outside's joins
    assert edges.get(1, 2) == 0.0  # 1.3 vs 1.6
    assert edges.get(1, 3) == 0.0
    assert edges.get(2, 3) == 0.0
    assert edges.get(2, 4) == 0.0
    for k in (5, 6, 7, 8):
        assert edges.get(1, k) == 0.0  # item 1 is unboosted, its nest is inside S


def eight_item_model():
    # four nests over eight items; weights chosen with no coincidental ties
    return NestedLogitModel(
        partition=NestPartition([(1,), (2, 6), (3, 4, 5), (7, 8)]),
        weights=(1.1, 0.7, 1.9, 1.3, 0.8, 2.2, 0.9, 1.6),
        lambdas=(1.0, 0.45, 0.55, 0.35),
        outside=True,
    )


def test_boost_pattern_on_eight_items():
    """The qualitative boosted-vs-flat pattern across all six slices"""
    model = eight_item_model()
    design = slice_design(naive_encoding(8, 2))
    rows = design_probabilities(model, design)
    table = boost_factors(rows[0], rows[1:], labels=design.labels)

    flat = {
        "S(1,-0)": {7, 8},
        "S(1,-1)": {1},
        "S(2,-0)": {7, 8},
        "S(2,-1)": {1, 2, 6},
        "S(3,-0)": {2, 6},
        "S(3,-1)": {1},
    }
    for label, items, bf in zip(table.labels, table.assortments, table.factors):
        base = bf[0]
        for i in items:
            if i in flat[label]:
                assert bf[i] == pytest.approx(base, rel=1e-12), (label, i)
            else:
                assert bf[i] > base * (1 + 1e-9), (label, i)

    # boosted items from one nest share their factor, across nests they differ
    _, partition = exact_identify_with_outside(table, design)
    assert partition == model.partition


def test_exact_identification_recovers_generated_truths():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        model = generate_ground_truth(n, rng)
        design = slice_design(balanced_enumeration(n, 2))
        rows = design_probabilities(model, design)
        table = boost_factors(rows[0], rows[1:], labels=design.labels)
        _, partition = exact_identify_with_outside(table, design)
        assert partition == model.partition, n


def test_exact_identification_without_outside_preserves_choice():
    """Merged singletons are fine as long as the induced choice agrees"""
    rng = np.random.default_rng(22)
    merged = 0
    for _ in range(25):
        n = int(rng.integers(3, 14))
        model = generate_ground_truth(n, rng, outside=False)
        design = slice_design(balanced_enumeration(n, 2))
        rows = design_probabilities(model, design)
        table = boost_factors(rows[0], rows[1:], labels=design.labels)
        _, partition = exact_identify_without_outside(table, design)
        merged += partition != model.partition
        recovered = recover_all(rows, partition, design)
        est = design_probabilities(recovered, design)
        assert rmse_soft_restricted(rows, est) < 1e-9
    # the ambiguity is real: some suites do merge singleton nests
    assert merged >= 1


def test_edge_matrix_get_rejects_items_outside_range():
    """Items are 1-based: 0 and n + 1 raise KeyError instead of wrapping or an IndexError"""
    edges = EdgeMatrix(values=np.arange(9.0).reshape(3, 3))
    assert edges.get(1, 2) == 1.0 and edges.get(3, 1) == 6.0
    for i, j in ((0, 1), (1, 0), (-1, 2), (4, 1), (1, 4), (1.5, 1), (1, 2.0)):
        with pytest.raises(KeyError):
            edges.get(i, j)


def test_edge_matrix_records_exact_contradictions():
    n = 4
    design = ExperimentDesign(
        n=n, experiments=[(1, 2, 3), (1, 2, 4)], labels=("A", "B")
    )
    table = BoostTable(
        n=n,
        outside=True,
        labels=("A", "B"),
        assortments=((1, 2, 3), (1, 2, 4)),
        factors=boost_matrix(n, [
            {0: 1.0, 1: 1.5, 2: 1.5, 3: 1.0},  # joins 1-2
            {0: 1.0, 1: 1.2, 2: 1.7, 4: 1.0},  # splits 1-2
        ]),
    )
    edges, _ = exact_identify_with_outside(table, design)
    assert edges.inconsistencies, "conflicting deductions should be recorded"


def random_count_tables(num, seed, n_items=3):
    """Small two-assortment tables with uniformly random positive counts"""
    rng = np.random.default_rng(seed)
    items = tuple(range(1, n_items + 1))
    for _ in range(num):
        counts = np.array([[int(rng.integers(1, 200)) for _ in (0, *items)] for _ in range(2)])
        yield ChoiceCountTable(
            n=n_items,
            outside=True,
            labels=("control", "S"),
            assortments=(items, items),
            counts=counts,
        )


def test_z_statistic_antisymmetry_is_exact():
    for table in random_count_tables(300, seed=31):
        z_ij = z_statistic(table, 1, 2, 0)
        z_ji = z_statistic(table, 2, 1, 0)
        assert z_ij == -z_ji  # bitwise, not approximate
        for i in (1, 2, 3):  # against the outside option, as the noisy boost tests read it
            assert z_statistic(table, 0, i, 0) == -z_statistic(table, i, 0, 0)


def test_z_statistic_matches_straight_line_formula():
    """Plain transcription of the pooled two-share comparison"""
    for table in random_count_tables(500, seed=32):
        x_s = table.counts[1]
        x_c = table.counts[0]
        m_s = table.sizes[1]
        m_c = table.sizes[0]
        ps_i, ps_j = x_s[1] / m_s, x_s[2] / m_s
        pc_i, pc_j = x_c[1] / m_c, x_c[2] / m_c
        num = ps_i / (ps_i + ps_j) - pc_i / (pc_i + pc_j)
        p_i = (ps_i + pc_i) / (ps_i + ps_j + pc_i + pc_j)
        p_j = (ps_j + pc_j) / (ps_i + ps_j + pc_i + pc_j)
        var = p_i * p_j * (1.0 / (x_s[1] + x_s[2]) + 1.0 / (x_c[1] + x_c[2]))
        want = num / math.sqrt(var)
        got = z_statistic(table, 1, 2, 0)
        assert got == pytest.approx(want, abs=1e-12)


def reference_pair_z(xs, xc, m_s, m_c, a, b):
    """_pair_z's formula with a fresh array for every intermediate."""
    ns = xs[a] + xs[b]
    nc = xc[a] + xc[b]
    evidence = (ns > 0) & (nc > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ps, pc = xs / m_s, xc / m_c
        ps_a, ps_b, pc_a, pc_b = ps[a], ps[b], pc[a], pc[b]
        share_s = ps_a + ps_b
        share_c = pc_a + pc_b
        numerator = (ps_a * pc_b - pc_a * ps_b) / (share_s * share_c)
        total = share_s + share_c
        pool = ps + pc
        variance = ((pool[a] / total) * (pool[b] / total)) * (1.0 / ns + 1.0 / nc)
        z = numerator / np.sqrt(variance)
    z[numerator == 0.0] = 0.0
    z[~evidence] = np.nan
    return z, evidence


def test_pair_z_keeps_the_bits_of_the_plain_formula():
    rng = np.random.default_rng(33)
    for k in (2, 3, 17, 256):
        for _ in range(20):
            # sparse enough that some pairs lack evidence, with counts up to 10**7
            xs, xc = rng.integers(0, 10**7, (2, k)) * (rng.random((2, k)) < 0.8)
            a, b = np.triu_indices(k, 1)
            m_s, m_c = int(xs.sum()) + 1, int(xc.sum()) + 1
            z, evidence = _pair_z(xs, xc, m_s, m_c, a, b)
            want_z, want_evidence = reference_pair_z(xs, xc, m_s, m_c, a, b)
            assert z.tobytes() == want_z.tobytes()
            assert np.array_equal(evidence, want_evidence)
            # swapped pairs negate every nonzero z bit for bit, with the same zeros, NaNs and
            # evidence (a zero numerator writes +0.0 in either order)
            z_ba, evidence_ba = _pair_z(xs, xc, m_s, m_c, b, a)
            signed = ~np.isnan(z) & (z != 0.0)
            assert (-z[signed]).tobytes() == z_ba[signed].tobytes()
            assert np.array_equal(z_ba == 0.0, z == 0.0)
            assert np.array_equal(np.isnan(z_ba), np.isnan(z))
            assert np.array_equal(evidence_ba, evidence)


def test_z_statistic_zero_when_shares_match():
    table = ChoiceCountTable(
        n=2,
        outside=True,
        labels=("control", "S"),
        assortments=((1, 2), (1, 2)),
        counts=([10, 30, 60], [40, 10, 20]),
    )
    assert z_statistic(table, 1, 2, 0) == 0.0


def test_z_statistic_rejects_non_integer_ids():
    """2.0 passed the offer check (2.0 in (1, 2)) and then failed as an array index"""
    table = ChoiceCountTable(
        n=2,
        outside=True,
        labels=("control", "S"),
        assortments=((1, 2), (1, 2)),
        counts=([10, 30, 60], [40, 10, 20]),
    )
    assert z_statistic(table, np.int64(1), 2, 0) == 0.0
    for i, j in ((1, 2.0), (1.5, 2)):
        with pytest.raises(TypeError):
            z_statistic(table, i, j, 0)


def test_z_statistic_rejects_empty_evidence():
    table = ChoiceCountTable(
        n=2,
        outside=True,
        labels=("control", "S"),
        assortments=((1, 2), (1, 2)),
        counts=([10, 30, 60], [70, 0, 0]),
    )
    with pytest.raises(ZeroEvidenceError):
        z_statistic(table, 1, 2, 0)


def test_noisy_identification_with_plentiful_data():
    rng = np.random.default_rng(40)
    hits = 0
    for trial in range(10):
        model = generate_ground_truth(8, rng)
        design = slice_design(balanced_enumeration(8, 2))
        alloc = allocate_customers(7 * 400000, design.num_experiments + 1)
        table = sample_choices(model, design, alloc, seed=100 + trial)
        _, partition = noisy_identify_with_outside(table, design)
        hits += rand_index(partition, model.partition)
    assert hits / 10 > 0.9


def test_noisy_identification_without_outside_runs():
    rng = np.random.default_rng(41)
    model = generate_ground_truth(8, rng, outside=False)
    design = slice_design(balanced_enumeration(8, 2))
    alloc = allocate_customers(7 * 200000, design.num_experiments + 1)
    table = sample_choices(model, design, alloc, seed=7)
    _, partition = noisy_identify_without_outside(table, design)
    assert partition.n == 8


def test_noisy_rejects_mismatched_outside_flag():
    model = generate_ground_truth(4, np.random.default_rng(1))
    design = slice_design(balanced_enumeration(4, 2))
    table = sample_choices(model, design, [50] * 5, seed=1)
    with pytest.raises(ValueError):
        noisy_identify_without_outside(table, design)


def test_threshold_identification_uses_fixed_cutoff():
    """With the cutoff from the sample bound, huge m classifies exactly"""
    rng = np.random.default_rng(42)
    model = generate_ground_truth(8, rng)
    design = slice_design(balanced_enumeration(8, 2))
    rho, margin = theorem_margins(model, design)
    k = theorem_pair_count(8, design.num_experiments)
    tau = theorem_z_threshold(k, delta=0.1)
    m = theorem_sample_size(rho, margin, k, delta=0.1)
    m = min(m, 10**7)  # cap: full bound can ask for billions
    table = sample_choices(model, design, [m] * (design.num_experiments + 1), seed=5)
    config = TestConfig(z_threshold=tau)
    _, partition = noisy_identify_with_outside(table, design, config)
    assert rand_index(partition, model.partition) == 1.0


def test_threshold_identification_skips_experiments_without_customers():
    """An experiment nobody saw adds nothing, as if it had not been run: in the z-threshold
    regime, in noisy identification with and without an outside option, and in least squares"""
    design = slice_design(balanced_enumeration(6, 2))
    alloc = [10**6] * (design.num_experiments + 1)
    alloc[2] = 0
    keep = [k for k in range(design.num_experiments + 1) if k != 2]
    cases = [(False, noisy_identify_without_outside, 43), (True, noisy_identify_with_outside, 46)]
    for outside, identify, truth_seed in cases:
        model = generate_ground_truth(6, np.random.default_rng(truth_seed), outside=outside)
        starved = sample_choices(model, design, alloc, seed=8)
        assert starved.sizes[2] == 0
        dropped = ChoiceCountTable(
            n=6,
            outside=outside,
            labels=tuple(starved.labels[k] for k in keep),
            assortments=tuple(starved.assortments[k] for k in keep),
            counts=starved.counts[keep],
        )
        for config in (TestConfig(), TestConfig(z_threshold=3.0)):
            got, partition = identify(starved, design, config)
            want, expected = identify(dropped, design, config)
            assert np.array_equal(got.values, want.values)
            assert partition == expected
        got = recover_least_squares(starved, model.partition, design)
        want = recover_least_squares(dropped, model.partition, design)
        assert (got.model, got.flags) == (want.model, want.flags)


def test_experiment_offering_no_item_deduces_nothing(tmp_path):
    """An experiment offering no item: exact and z-threshold rules deduce the same as without it"""
    model = generate_ground_truth(8, np.random.default_rng(44))
    design = slice_design(balanced_enumeration(8, 2))
    table = sample_choices(model, design, [10**6] * (design.num_experiments + 1), seed=9)
    data = design_to_dict(design)
    data["experiments"].append({"label": "E", "items": []})
    padded_design = design_from_dict(data)
    path = tmp_path / "counts.csv"
    save_counts(table, path)
    with open(path, "a") as fh:
        fh.write("E,0,1000,1000\n")
    padded = load_counts(path, 8)
    assert padded.assortments[-1] == () and padded_design.experiments[-1] == ()
    exact = exact_identify_with_outside(boost_factors_from_counts(table), design)
    assert_same_identification(
        exact_identify_with_outside(boost_factors_from_counts(padded), padded_design), exact
    )
    for tau in (2.0, 5.0):
        config = TestConfig(z_threshold=tau)
        assert_same_identification(
            noisy_identify_with_outside(padded, padded_design, config),
            noisy_identify_with_outside(table, design, config),
        )
    # without an outside option such an experiment has no reference boost at all
    rows = design_probabilities(generate_ground_truth(8, np.random.default_rng(45), False), design)
    empty = ChoiceProbabilities(assortment=(), probs=np.zeros(9), outside=False)
    assert_same_identification(
        exact_identify_without_outside(boost_factors(rows[0], [*rows[1:], empty]), None),
        exact_identify_without_outside(boost_factors(rows[0], rows[1:]), None),
    )


def test_theorem_constants_straight_line():
    # K = (|S| + 1) (n + 1 + C(n+1, 2)) pairs, n = 8 with 6 experiments
    assert theorem_pair_count(8, 6) == 7 * (9 + 36)
    k = theorem_pair_count(8, 6)
    assert theorem_z_threshold(k, 0.1) == pytest.approx(
        8.0 * math.sqrt(3.0 * math.log(2.0 * k / 0.1))
    )
    assert theorem_sample_size(0.01, 0.05, k, 0.1) == math.ceil(
        3.0 * 625.0 * math.log(2.0 * k / 0.1) / (0.01 * 0.0025)
    )


def test_theorem_margins_on_symmetric_instance():
    """No unequal boosts anywhere leaves the margin at its default"""
    model = NestedLogitModel(
        partition=NestPartition([(1, 2)]),
        weights=(1.0, 1.0),
        lambdas=(0.5,),
        outside=True,
    )
    design = ExperimentDesign(n=2, experiments=[(1, 2)], labels=("S",))
    rho, margin = theorem_margins(model, design)
    cp = choice_probabilities(model, (1, 2))
    assert rho == pytest.approx(min(cp.probs))
    assert margin == 1.0


def test_test_config_defaults():
    config = TestConfig()
    assert config.alpha == 0.05
    assert config.beta == 0.95
    assert TestConfig(alpha=0.2).beta == pytest.approx(0.8)
    with pytest.raises(ValueError):
        TestConfig(alpha=1.5)


def test_boost_factors_from_counts_matches_ratio():
    model = eight_item_model()
    design = slice_design(naive_encoding(8, 2))
    table = sample_choices(model, design, [5000] * 7, seed=3)
    boosts = boost_factors_from_counts(table)
    emp_control = table.counts[0] / table.sizes[0]
    emp_s = table.counts[1] / table.sizes[1]
    for i in table.assortments[1]:
        assert boosts.factors[0][i] == pytest.approx(emp_s[i] / emp_control[i])


def reference_z(table, i, j, s):
    """Scalar pooled z score for (i, j) in experiment s; None without evidence."""
    row = s + 1
    xs_i, xs_j = table.counts[row][i], table.counts[row][j]
    xc_i, xc_j = table.counts[0][i], table.counts[0][j]
    if xs_i + xs_j == 0 or xc_i + xc_j == 0:
        return None
    m_s, m_c = table.sizes[row], table.sizes[0]
    ps_i, ps_j = xs_i / m_s, xs_j / m_s
    pc_i, pc_j = xc_i / m_c, xc_j / m_c
    numerator = (ps_i * pc_j - pc_i * ps_j) / ((ps_i + ps_j) * (pc_i + pc_j))
    if numerator == 0.0:
        return 0.0
    total = (ps_i + ps_j) + (pc_i + pc_j)
    pool_i = (ps_i + pc_i) / total
    pool_j = (ps_j + pc_j) / total
    variance = pool_i * pool_j * (1.0 / (xs_i + xs_j) + 1.0 / (xc_i + xc_j))
    return numerator / math.sqrt(variance)


def reference_noisy_identify(table, config):
    """The noisy identifiers as scalar loops, one z-test call per pair.

    Returns the finalized edge values (before community detection).
    """
    n = table.n
    values = np.full((n, n), NOISY_NULL)

    def lower(i, j, w):
        values[i - 1, j - 1] = values[j - 1, i - 1] = min(w, values[i - 1, j - 1])

    def p_equal(i, j, s):
        z = reference_z(table, i, j, s)
        return None if z is None else math.erfc(abs(z) / math.sqrt(2.0))

    def p_leq(i, s):
        z = reference_z(table, i, 0, s)
        return None if z is None else 0.5 * math.erfc(z / math.sqrt(2.0))

    for s, items in enumerate(table.assortments[1:]):
        for a, i in enumerate(items):
            for j in items[a + 1:]:
                p_eq = p_equal(i, j, s)
                if p_eq is None:
                    continue
                if p_eq <= config.alpha:
                    lower(i, j, 0.0)
                elif not table.outside:
                    lower(i, j, p_eq)
                else:
                    p_i, p_j = p_leq(i, s), p_leq(j, s)
                    if p_i is not None and p_j is not None and max(p_i, p_j) <= config.alpha:
                        lower(i, j, 1.0)
                    else:
                        lower(i, j, p_eq)
        if not table.outside:
            continue
        for i in items:
            p_i = p_leq(i, s)
            if p_i is None or p_i <= config.beta:
                continue
            for k in range(1, n + 1):
                if k not in items:
                    lower(i, k, 1.0 - p_i)
    if table.outside:
        ones = values == 1.0
        shared = (ones.astype(np.int64) @ ones.astype(np.int64)) > 0
        promote = (values != 0.0) & shared
        np.fill_diagonal(promote, False)
        values[promote] = 1.0
    values[values == NOISY_NULL] = 0.0
    np.fill_diagonal(values, 0.0)
    return values


def reference_tables():
    """Seeded sampled tables from thin to plentiful budgets, some rows empty"""
    rng = np.random.default_rng(77)
    configs = [
        TestConfig(alpha=alpha, beta=beta)
        for alpha, beta in itertools.product((0.0, 1e-8, 1e-4, 0.05, 1.0), (None, 0.0, 1.0))
    ]
    for n, outside in itertools.product((6, 16, 64), (True, False)):
        design = slice_design(balanced_enumeration(n, 2))
        for k, config in enumerate(configs):
            for cap in (4, 60, 5000, 10**6):
                model = generate_ground_truth(n, rng, outside=outside)
                alloc = [int(m) for m in rng.integers(0, cap, size=design.num_experiments + 1)]
                if k % 3 == 0:
                    alloc[1 + k % design.num_experiments] = 0  # an all-zero row
                seed = int(rng.integers(2**31))
                if alloc[0] == 0:  # the table refuses it, so identification never sees it
                    with pytest.raises(ValueError, match="^control has no customers$"):
                        sample_choices(model, design, alloc, seed=seed)
                    yield design, None, config
                else:
                    yield design, sample_choices(model, design, alloc, seed=seed), config


def test_noisy_identification_matches_scalar_reference():
    """Per-experiment array tests give bit-identical edges to the pair loops"""
    identify = {True: noisy_identify_with_outside, False: noisy_identify_without_outside}
    checked = zero_evidence = refused = 0
    for design, table, config in reference_tables():
        if table is None:
            refused += 1
            continue
        edges, partition = identify[table.outside](table, design, config)
        want = reference_noisy_identify(table, config)
        assert np.array_equal(edges.values, want), (table.n, config)
        assert partition == community_detect(want)
        zero_evidence += any(
            reference_z(table, i, j, s) is None
            for s, items in enumerate(table.assortments[1:])
            for i, j in itertools.combinations(items, 2)
        )
        checked += 1
    assert refused == 21  # thin budgets can leave the control without customers
    assert checked + refused >= 360
    assert zero_evidence >= 80  # thin budgets exercise the no-evidence skips


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("outside", [True, False])
@pytest.mark.parametrize("split", ["whole", "partway"])
def test_noisy_identification_in_chunks_matches_scalar_reference(monkeypatch, n, outside, split):
    """Experiments tested in chunks, the whole design in one or split partway, give the pair loops' edges"""
    from nestlab import identify

    design = slice_design(balanced_enumeration(n, 2))
    total = sum(math.comb(len(items), 2) for items in design.experiments)
    monkeypatch.setattr(identify, "_PAIR_BUDGET", total if split == "whole" else total // 2)
    chunks = identify._chunks(design.experiments)
    if split == "whole":
        assert len(chunks) == 1
    else:
        assert len(chunks) >= 2 and max(map(len, chunks)) >= 2
    rng = np.random.default_rng(n + 2 * outside)
    identify_ = noisy_identify_with_outside if outside else noisy_identify_without_outside
    for config in (TestConfig(alpha=0.05), TestConfig(alpha=1e-4, beta=0.0)):
        for cap in (60, 10**5):
            model = generate_ground_truth(n, rng, outside=outside)
            alloc = [int(m) for m in rng.integers(1, cap, size=design.num_experiments + 1)]
            alloc[2] = 0  # an experiment nobody saw, inside the first chunk
            table = sample_choices(model, design, alloc, seed=int(rng.integers(2**31)))
            edges, partition = identify_(table, design, config)
            want = reference_noisy_identify(table, config)
            assert np.array_equal(edges.values, want), (config, cap)
            assert partition == community_detect(want)


def assert_rejected_pairs_skipped_in_later_chunks(calls, table, chunks, alpha):
    """Each chunk's one pair call skips the pairs earlier chunks rejected; (tested, all) item pairs.

    A pair call's positions index the chunk's supports, laid end to end, each
    led by its experiment's outside option when the table has one.  A pair
    whose first item is the outside option (0) tests a boost, not sameness.
    """
    assert len(calls) == len(chunks)  # one _pair_z call per chunk, outside-option tests included
    lead = (0,) if table.outside else ()
    rejected, tested, full = set(), 0, 0
    for chunk, (a, b, z, evidence) in zip(chunks, calls):
        items = [i for s in chunk for i in lead + table.assortments[s + 1]]
        results = [
            ((items[i], items[j]), seen, v)
            for i, j, seen, v in zip(a.tolist(), b.tolist(), evidence.tolist(), z.tolist())
            if items[i] != 0
        ]
        pairs = [pair for pair, _, _ in results]
        assert rejected.isdisjoint(pairs)
        rejected.update(
            pair for pair, seen, v in results
            if seen and math.erfc(abs(v) / math.sqrt(2.0)) <= alpha
        )
        tested += len(pairs)
        full += sum(math.comb(len(table.assortments[s + 1]), 2) for s in chunk)
    assert rejected
    return tested, full


@pytest.mark.parametrize("outside", [True, False])
def test_pairs_rejected_once_are_never_tested_again(monkeypatch, outside):
    """A weight of 0 absorbs every later minimum, so later chunks of experiments skip the pair"""
    from nestlab import identify

    calls, pair_z = [], identify._pair_z

    def recording_pair_z(xs, xc, m_s, m_c, a, b):
        z, evidence = pair_z(xs, xc, m_s, m_c, a, b)
        calls.append((a.copy(), b.copy(), z, evidence))
        return z, evidence

    monkeypatch.setattr(identify, "_pair_z", recording_pair_z)
    config = TestConfig(alpha=0.05)
    identify_ = noisy_identify_with_outside if outside else noisy_identify_without_outside
    design = slice_design(balanced_enumeration(128, 2))
    model = generate_ground_truth(128, np.random.default_rng(81), outside=outside)
    table = sample_choices(model, design, allocate_customers(10**7, design.num_experiments + 1), seed=5)
    edges, _ = identify_(table, design, config)
    assert np.array_equal(edges.values, reference_noisy_identify(table, config))
    # at n = 128 each experiment is a chunk of its own, with one pair call
    chunks = [range(s, s + 1) for s in range(design.num_experiments)]
    assert identify._chunks(design.experiments) == chunks
    tested, full = assert_rejected_pairs_skipped_in_later_chunks(calls, table, chunks, config.alpha)
    assert tested < full / 2

    # at n = 16 chunks of two experiments: a pair rejected in an earlier chunk is skipped
    calls.clear()
    monkeypatch.setattr(identify, "_PAIR_BUDGET", 2 * math.comb(8, 2))
    design = slice_design(balanced_enumeration(16, 2))
    chunks = identify._chunks(design.experiments)
    assert [len(chunk) for chunk in chunks] == [2] * 4
    model = generate_ground_truth(16, np.random.default_rng(82), outside=outside)
    table = sample_choices(model, design, allocate_customers(10**6, design.num_experiments + 1), seed=6)
    edges, _ = identify_(table, design, config)
    assert np.array_equal(edges.values, reference_noisy_identify(table, config))
    tested, full = assert_rejected_pairs_skipped_in_later_chunks(calls, table, chunks, config.alpha)
    assert tested < full


@pytest.mark.parametrize("outside", [True, False])
def test_every_merge_leaves_the_edge_matrix_symmetric(monkeypatch, outside):
    """Each weight goes into both orientations of its pair, so no merge breaks symmetry"""
    from nestlab import identify

    shapes, merge_min = [], identify._merge_min

    def checked_merge_min(values, rows, cols, weight):
        merge_min(values, rows, cols, weight)
        assert np.array_equal(values, values.T)
        shapes.append(np.ndim(rows))

    monkeypatch.setattr(identify, "_merge_min", checked_merge_min)
    design = slice_design(balanced_enumeration(64, 2))
    model = generate_ground_truth(64, np.random.default_rng(86), outside=outside)
    table = sample_choices(model, design, allocate_customers(10**6, design.num_experiments + 1), seed=7)
    config = TestConfig(alpha=0.05)
    identify_ = noisy_identify_with_outside if outside else noisy_identify_without_outside
    edges, _ = identify_(table, design, config)
    assert np.array_equal(edges.values, reference_noisy_identify(table, config))
    assert shapes.count(1) == design.num_experiments
    assert (2 in shapes) == outside  # unboosted items merged against the unoffered block


def test_noisy_identification_with_alpha_tied_to_a_p_value():
    """alpha equal to a pair's exact p-value rejects that pair; one float less keeps it"""
    identify = {True: noisy_identify_with_outside, False: noisy_identify_without_outside}
    rng = np.random.default_rng(79)
    design = slice_design(balanced_enumeration(16, 2))
    for outside in (True, False):
        model = generate_ground_truth(16, rng, outside=outside)
        alloc = allocate_customers(30000, design.num_experiments + 1)
        table = sample_choices(model, design, alloc, seed=int(rng.integers(2**31)))
        for s, items in enumerate(table.assortments[1:]):
            a, b = np.triu_indices(len(items), 1)
            z, evidence = _support_z(table, s, items, a, b)
            p = sorted(math.erfc(abs(v) / math.sqrt(2.0)) for v in z[evidence])
            tied = p[len(p) // 2]
            pair = [k for k, v in enumerate(z[evidence])
                    if math.erfc(abs(v) / math.sqrt(2.0)) == tied]
            weights = _pair_weights(a, b, z, evidence, tied)[2]
            assert weights[pair].tolist() == [0.0] * len(pair)
            below = float(np.nextafter(tied, 0.0))
            weights = _pair_weights(a, b, z, evidence, below)[2]
            assert weights[pair].tolist() == [tied] * len(pair)
            for alpha in (tied, below, float(np.nextafter(tied, 1.0))):
                config = TestConfig(alpha=alpha)
                edges, _ = identify[outside](table, design, config)
                assert np.array_equal(edges.values, reference_noisy_identify(table, config))


def test_pair_weights_screen_agrees_with_exact_p_values():
    """Screened weights equal exact erfc decisions on dense sweeps around each cutoff"""
    rng = np.random.default_rng(80)
    alphas = (0.0, 5e-324, 1e-310, 1e-300, 1e-8, 1e-4, 0.05, 0.5, 1 - 1e-12,
              float(np.nextafter(1.0, 0.0)), 1.0)
    for alpha in alphas:
        lo, hi = 0.0, 30.0  # u where math.erfc crosses alpha
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if math.erfc(mid) <= alpha else (mid, hi)
        cut = hi * math.sqrt(2.0)
        steps = np.arange(-3000, 3001)
        near = np.abs(cut + steps * np.spacing(max(cut, 1e-300)))
        z = np.concatenate([
            near, cut * (1.0 + np.linspace(-0.02, 0.02, 4001)), rng.uniform(0.0, 45.0, 3000),
            [0.0, 1e-300, 1e-17, 1e-12, 40.0],
        ])
        side = math.ceil((1.0 + math.sqrt(1.0 + 8.0 * len(z))) / 2.0)
        a, b = np.triu_indices(side, 1)
        for sign in (1.0, -1.0):
            matrix = np.zeros((side, side))
            matrix[a[: len(z)], b[: len(z)]] = sign * z
            evidence = np.ones(matrix.shape, dtype=bool)
            boosted = rng.random(side) < 0.5
            p = np.array([math.erfc(abs(v) / math.sqrt(2.0)) for v in matrix[a, b]])
            want = np.where(p <= alpha, 0.0, np.where(boosted[a] & boosted[b], 1.0, p))
            got_a, got_b, weight = _pair_weights(a, b, matrix[a, b], evidence[a, b], alpha, boosted)
            assert np.array_equal(got_a, a) and np.array_equal(got_b, b)
            assert np.array_equal(weight, want), alpha
            _, _, weight = _pair_weights(a, b, matrix[a, b], evidence[a, b], alpha)
            assert np.array_equal(weight, np.where(p <= alpha, 0.0, p)), alpha


# The scalar deduction loops of exact and z-threshold identification, kept as
# references for the rule engine.  The exact ones join a tied pair when its
# first-listed item is boosted; the engine needs both boosted (see by_boost).


def reference_releq(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def reference_set(edges, i, j, value):
    """One scalar edge write, recording contradictions as the engine does."""
    old = edges.values[i - 1, j - 1]
    if not np.isnan(old) and old != value:
        edges.inconsistencies.append((i, j, float(old), value))
    edges.values[i - 1, j - 1] = value
    edges.values[j - 1, i - 1] = value


def reference_split_from_unoffered(edges, i, offered):
    for k in range(1, edges.n + 1):
        if k not in offered:
            reference_set(edges, i, k, 0.0)


def reference_resolve_low_group(edges, group, offered):
    split = any(
        edges.get(group[a], group[c]) == 0.0
        for a in range(len(group))
        for c in range(a + 1, len(group))
    )
    if split:
        for i in group:
            reference_split_from_unoffered(edges, i, offered)
    else:
        for a in range(len(group)):
            for c in range(a + 1, len(group)):
                reference_set(edges, group[a], group[c], 1.0)


def reference_components_of_ones(values):
    """Depth-first search over the definite-1 edges, one nest per start item."""
    n = len(values)
    seen, nests = set(), []
    for start in range(n):
        if start in seen:
            continue
        stack, nest = [start], []
        seen.add(start)
        while stack:
            u = stack.pop()
            nest.append(u + 1)
            for v in range(n):
                if values[u, v] == 1.0 and v not in seen:
                    seen.add(v)
                    stack.append(v)
        nests.append(nest)
    return NestPartition(nests)


def test_components_of_ones_match_depth_first_search():
    """Random graphs, shuffled paths and shuffled cliques: the same nests as the scalar search"""
    rng = np.random.default_rng(81)
    for trial in range(300):
        n = int(rng.integers(1, 40))
        values = np.where(rng.random((n, n)) < 0.5, 0.0, np.nan)
        if trial % 3 == 0:  # sparse random edges
            ones = rng.random((n, n)) < 0.1 * rng.random()
            values[ones | ones.T] = 1.0
        else:  # a path (trial % 3 == 1) or a clique through each of up to four groups
            for group in np.split(rng.permutation(n), np.sort(rng.integers(0, n, 3))):
                if trial % 3 == 1:
                    a, b = group[:-1], group[1:]
                else:
                    a, b = (group[k] for k in np.triu_indices(len(group), 1))
                values[a, b] = values[b, a] = 1.0
        np.fill_diagonal(values, 0.0)
        assert _components_of_ones(values) == reference_components_of_ones(values)


def reference_exact_with_outside(table, tol=EXACT_TOLERANCE):
    """Exact identification with an outside option as scalar pair loops."""
    n = table.n
    edges = EdgeMatrix(values=np.full((n, n), np.nan))
    for items, bf in zip(table.assortments, table.factors):
        base = bf[0]
        for a, i in enumerate(items):
            for j in items[a + 1:]:
                if not reference_releq(bf[i], bf[j], tol):
                    reference_set(edges, i, j, 0.0)
                elif bf[i] > base and not reference_releq(bf[i], base, tol):
                    reference_set(edges, i, j, 1.0)
        offered = set(items)
        for i in items:
            if reference_releq(bf[i], base, tol):
                reference_split_from_unoffered(edges, i, offered)
    return _finalize_exact(edges)


def reference_exact_without_outside(table, tol=EXACT_TOLERANCE):
    """Exact identification without an outside option as scalar pair loops."""
    n = table.n
    edges = EdgeMatrix(values=np.full((n, n), np.nan))
    for items, bf in zip(table.assortments, table.factors):
        if not items:
            continue
        low = min(bf[i] for i in items)
        for a, i in enumerate(items):
            for j in items[a + 1:]:
                if not reference_releq(bf[i], bf[j], tol):
                    reference_set(edges, i, j, 0.0)
                elif bf[i] > low and not reference_releq(bf[i], low, tol):
                    reference_set(edges, i, j, 1.0)
    for items, bf in zip(table.assortments, table.factors):
        if not items:
            continue
        low = min(bf[i] for i in items)
        reference_resolve_low_group(
            edges, [i for i in items if reference_releq(bf[i], low, tol)], set(items)
        )
    return _finalize_exact(edges)


def support_z_matrix(table, s, support):
    """_support_z over every pair of the support as an antisymmetric matrix, NaN diagonal."""
    a, b = np.triu_indices(len(support), 1)
    z = np.full((len(support), len(support)), np.nan)
    z[a, b] = _support_z(table, s, support, a, b)[0]
    z[b, a] = -z[a, b]
    return z


def reference_threshold_identify(table, threshold):
    """z-theorem identification as scalar pair loops over the z kernel."""
    outside = table.outside
    n = table.n
    edges = EdgeMatrix(values=np.full((n, n), np.nan))
    low_groups = []
    for s, items in enumerate(table.assortments[1:]):
        offered = set(items)
        z = support_z_matrix(table, s, ((0,) if outside else ()) + items).tolist()
        if outside:
            boosted = [None if math.isnan(row[0]) else abs(row[0]) > threshold for row in z[1:]]
            z = [row[1:] for row in z[1:]]
        else:
            control, counts = table.counts[0], table.counts[s + 1]
            ratios = {
                i: (counts[i] / table.sizes[s + 1]) / (control[i] / table.sizes[0])
                for i in items
                if control[i] > 0 and table.sizes[s + 1] > 0
            }
            if not ratios:
                continue
            low = items.index(min(ratios, key=lambda i: (ratios[i], i)))
            boosted = [None if math.isnan(row[low]) else abs(row[low]) > threshold for row in z]
            boosted[low] = False
            low_groups.append((offered, sorted(i for i, up in zip(items, boosted) if up is False)))
        for a, i in enumerate(items):
            for c in range(a + 1, len(items)):
                if math.isnan(z[a][c]):
                    continue
                if abs(z[a][c]) > threshold:
                    reference_set(edges, i, items[c], 0.0)
                elif boosted[a] and boosted[c]:
                    reference_set(edges, i, items[c], 1.0)
        if outside:
            for i, up in zip(items, boosted):
                if up is False:
                    reference_split_from_unoffered(edges, i, offered)
    for offered, group in low_groups:
        reference_resolve_low_group(edges, group, offered)
    return _finalize_exact(edges)


def assert_same_identification(got, want):
    (edges, partition), (ref_edges, ref_partition) = got, want
    assert np.array_equal(edges.values, ref_edges.values)
    assert edges.inconsistencies == ref_edges.inconsistencies
    assert partition == ref_partition


def exact_identify(table, tol=EXACT_TOLERANCE):
    identify = exact_identify_with_outside if table.outside else exact_identify_without_outside
    return identify(table, None, tol)


def reference_exact_identify(table, tol=EXACT_TOLERANCE):
    identify = reference_exact_with_outside if table.outside else reference_exact_without_outside
    return identify(table, tol)


def by_boost(table, descending=False):
    """The same boost table with each experiment's items listed by boost.

    Listed by ascending boost, the old exact rule (join when the first item
    of a tied pair is boosted) and the engine's (join when both are)
    coincide; listed by descending boost, they differ on near ties.
    """
    return BoostTable(
        n=table.n,
        outside=table.outside,
        labels=table.labels,
        assortments=tuple(
            tuple(sorted(items, key=lambda i: (bf[i], i), reverse=descending))
            for items, bf in zip(table.assortments, table.factors)
        ),
        factors=table.factors,
    )


def test_exact_identification_matches_scalar_reference():
    """Exact and sampled boost tables, n 4..64: same edges, contradictions and nests"""
    rng = np.random.default_rng(78)
    contradictions = 0
    for n, outside, _ in itertools.product((4, 8, 16, 32, 64), (True, False), range(3)):
        truth = generate_ground_truth(n, rng, outside=outside)
        design = slice_design(balanced_enumeration(n, int(rng.integers(2, 4))))
        rows = design_probabilities(truth, design)
        table = boost_factors(rows[0], rows[1:], labels=design.labels)
        assert_same_identification(exact_identify(table), reference_exact_identify(table))
        # sampled boosts under a loose tolerance contradict each other often
        alloc = [int(m) for m in rng.integers(10**3, 10**5, size=design.num_experiments + 1)]
        sampled = by_boost(boost_factors_from_counts(sample_choices(truth, design, alloc, seed=n)))
        for tol in (EXACT_TOLERANCE, 0.05):
            got = exact_identify(sampled, tol)
            assert_same_identification(got, reference_exact_identify(sampled, tol))
            contradictions += len(got[0].inconsistencies)
    assert contradictions > 1000


def test_exact_contradictions_match_scalar_reference():
    n = 4
    table = BoostTable(
        n=n,
        outside=True,
        labels=("A", "B"),
        assortments=((1, 2, 3), (1, 2, 4)),
        factors=boost_matrix(n, [
            {0: 1.0, 1: 1.5, 2: 1.5, 3: 1.0},
            {0: 1.0, 1: 1.2, 2: 1.7, 4: 1.0},
        ]),
    )
    got = exact_identify(table)
    assert got[0].inconsistencies == [(1, 2, 1.0, 0.0)]
    assert_same_identification(got, reference_exact_identify(table))


def near_tie_tables():
    """Boost tables whose ties hold only within 2 * EXACT_TOLERANCE.

    Boosts sit at a reference or a boosted level, each nudged by a few
    multiples of 0.4 * EXACT_TOLERANCE, so equality is not transitive.
    """
    rng = np.random.default_rng(79)
    step = 0.4 * EXACT_TOLERANCE
    for outside, _ in itertools.product((True, False), range(20)):
        n = int(rng.integers(4, 9))
        assortments, factors = [], []
        for _ in range(4):
            items = rng.choice(np.arange(1, n + 1), int(rng.integers(2, n)), replace=False)
            bf = {
                int(i): float(rng.choice((1.0, 1.6))) * (1.0 + step * int(rng.integers(0, 5)))
                for i in items
            }
            if outside:
                bf[0] = 1.0
            assortments.append(tuple(sorted(int(i) for i in items)))
            factors.append(bf)
        yield BoostTable(
            n=n,
            outside=outside,
            labels=tuple(f"S{k}" for k in range(4)),
            assortments=tuple(assortments),
            factors=boost_matrix(n, factors),
        )


def test_near_ties_match_scalar_reference():
    for table in near_tie_tables():
        table = by_boost(table)
        assert_same_identification(exact_identify(table), reference_exact_identify(table))


def test_near_tie_joins_need_both_items_boosted():
    """The one input where the engine departs from the old exact rule.

    Two items whose boosts agree within tolerance, one clear of the
    reference and one within tolerance of it: the old rule joined them only
    when the boosted item was listed first; the engine never joins them, so
    its edges do not depend on the order of the assortment.
    """
    up, near = 1.0 + 1.5 * EXACT_TOLERANCE, 1.0 + 0.5 * EXACT_TOLERANCE
    table = BoostTable(
        n=4, outside=True, labels=("S",), assortments=((1, 2, 3),),
        factors=boost_matrix(4, [{0: 1.0, 1: up, 2: near, 3: up}]),
    )
    flipped = by_boost(table)  # lists item 2 first
    assert reference_exact_identify(table)[0].get(1, 2) == 1.0
    assert reference_exact_identify(flipped)[0].get(1, 2) == 0.0
    for boosts in (table, flipped):
        edges, partition = exact_identify(boosts)
        assert edges.get(1, 2) == 0.0
        assert partition == NestPartition([(1, 3), (2,), (4,)])
    departed = 0
    for table in near_tie_tables():
        ascending, descending = by_boost(table), by_boost(table, descending=True)
        got_up, got_down = exact_identify(ascending), exact_identify(descending)
        assert np.array_equal(got_up[0].values, got_down[0].values)
        assert got_up[1] == got_down[1]
        departed += not np.array_equal(
            got_down[0].values, reference_exact_identify(descending)[0].values
        )
    assert departed > 0


def test_threshold_identification_matches_scalar_reference():
    """z-theorem mode over several cutoffs, thin budgets and starved experiments"""
    rng = np.random.default_rng(80)
    identify = {True: noisy_identify_with_outside, False: noisy_identify_without_outside}
    starved = 0
    for n, outside, cap in itertools.product((6, 16, 48), (True, False), (30, 3000, 10**6)):
        truth = generate_ground_truth(n, rng, outside=outside)
        design = slice_design(balanced_enumeration(n, 2))
        alloc = [int(m) for m in rng.integers(0, cap, size=design.num_experiments + 1)]
        alloc[0] = max(alloc[0], 1)
        alloc[1 + int(rng.integers(design.num_experiments))] = 0
        table = sample_choices(truth, design, alloc, seed=int(rng.integers(2**31)))
        starved += alloc.count(0)
        for tau in (0.5, 2.0, 5.0, 40.0):
            got = identify[outside](table, design, TestConfig(z_threshold=tau))
            assert_same_identification(got, reference_threshold_identify(table, tau))
    assert starved >= 18


def reference_theorem_margins(model, design, tol=EXACT_TOLERANCE):
    control = choice_probabilities(model, design.control)
    rho = min(control.probs[i] for i in ((0,) if model.outside else ()) + control.assortment)
    delta = 1.0
    for items in design.experiments:
        if not items:
            continue
        cp = choice_probabilities(model, items)
        support = ([0] if model.outside else []) + list(items)
        bf = {i: cp.probs[i] / control.probs[i] for i in support}
        for a, i in enumerate(support):
            for j in support[a + 1:]:
                if reference_releq(bf[i], bf[j], tol):
                    continue
                share_s = cp.probs[i] / (cp.probs[i] + cp.probs[j])
                share_c = control.probs[i] / (control.probs[i] + control.probs[j])
                delta = min(delta, abs(share_s - share_c))
    return rho, delta


def test_theorem_margins_match_scalar_reference():
    """Bitwise on the criterion-05 truths, the fixed-cutoff truth and no-outside truths"""
    design = slice_design(balanced_enumeration(8, 2))
    truths = [generate_ground_truth(8, np.random.default_rng(seed)) for seed in range(10)]
    truths.append(generate_ground_truth(8, np.random.default_rng(42)))
    truths += [generate_ground_truth(8, np.random.default_rng(s), outside=False) for s in range(3)]
    for truth in truths:
        assert theorem_margins(truth, design) == reference_theorem_margins(truth, design)


def _two_item_tables(outside):
    """A count table over items 1, 2 and its boost table; experiment S offers item 1 only."""
    counts = ([10, 30, 60], [40, 30, 0]) if outside else ([0, 40, 60], [0, 70, 0])
    table = ChoiceCountTable(
        n=2, outside=outside, labels=("control", "S"), assortments=((1, 2), (1,)),
        counts=counts,
    )
    return table, boost_factors_from_counts(table)


TWO_ITEMS = ExperimentDesign(n=2, experiments=[(1,)], labels=("S",))


@pytest.mark.parametrize("call, message", [
    (lambda: boost_factors(
        ChoiceProbabilities(assortment=(1, 3), probs=np.array([0.2, 0.4, 0.0]), outside=True), []),
     "control row offers items [1, 3], not items 1..2"),
    (lambda: boost_factors(
        ChoiceProbabilities(assortment=(1, 2), probs=np.array([0.2, 0.4, 0.4]), outside=True),
        [ChoiceProbabilities(assortment=(1,), probs=np.array([0.0, 1.0, 0.0]), outside=False)]),
     "outside-option flag differs between assortments"),
    (lambda: BoostTable(n=2, outside=True, labels=("S",), assortments=(), factors=np.ones((1, 3))),
     "misaligned boost table"),
    (lambda: BoostTable(n=2, outside=True, labels=("S",), assortments=((1,),),
                        factors=np.ones((1, 3))),
     "boost rows must cover exactly the offered items"),
    (lambda: exact_identify_with_outside(_two_item_tables(False)[1], TWO_ITEMS),
     "boost table has no outside option"),
    (lambda: exact_identify_without_outside(_two_item_tables(True)[1], TWO_ITEMS),
     "boost table carries an outside option"),
    (lambda: noisy_identify_with_outside(_two_item_tables(False)[0], TWO_ITEMS),
     "count table has no outside option"),
    (lambda: z_statistic(_two_item_tables(True)[0], 1, 1, 0),
     "z statistic needs two distinct choices"),
    (lambda: z_statistic(_two_item_tables(True)[0], 1, 2, 0), "item 2 not offered in S"),
    (lambda: TestConfig(alpha=0.05, beta=1.5), "beta must lie in [0, 1]"),
    (lambda: TestConfig(alpha=-0.1), "alpha must lie in [0, 1]"),
])
def test_identify_boundary_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
