"""Acceptance suite: one test per shipped guarantee.

Each test states its target up front and is self-contained; oracles are
re-derived here rather than imported from the unit files so a regression
in shared helpers cannot mask one in the library.
"""

import itertools
import math
import time

import numpy as np
import pytest

from nestlab.communities import community_detect, modularity
from nestlab.designs import balanced_enumeration, slice_design, verify_separation
from nestlab.harness import ExperimentConfig, compare_designs
from nestlab.identify import (
    ChoiceCountTable,
    boost_factors,
    exact_identify_with_outside,
    exact_identify_without_outside,
    theorem_margins,
    theorem_pair_count,
    theorem_sample_size,
    theorem_z_threshold,
    z_statistic,
)
from nestlab.metrics import all_subset_probabilities, rand_index, rmse_soft
from nestlab.model import (
    NestPartition,
    check_general_position,
    choice_probabilities,
    design_probabilities,
    generate_ground_truth,
)
from nestlab.recovery import recover_all
from nestlab.sampling import sample_choices

SUITE_SIZES = (4, 8, 16, 32)  # 50 instances each, 200 total


def generated_suite(rng, outside):
    for n in SUITE_SIZES:
        for _ in range(50):
            yield n, generate_ground_truth(n, rng, outside=outside)


def test_criterion_01_exact_identification_with_outside():
    """200/200 generated truths identified exactly from exact probabilities, under 10 s."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    hits = 0
    for n, truth in generated_suite(rng, outside=True):
        design = slice_design(balanced_enumeration(n, 2))
        rows = design_probabilities(truth, design)
        table = boost_factors(rows[0], rows[1:], labels=design.labels)
        _, partition = exact_identify_with_outside(table, design)
        assert rand_index(partition, truth.partition) == 1.0, (n, partition.nests)
        hits += 1
    elapsed = time.monotonic() - start
    assert hits == 200
    assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_02_without_outside_choice_function_matches():
    """200/200 no-outside truths: identified-then-refit model agrees on every design assortment."""
    rng = np.random.default_rng(102)
    hits = 0
    for n, truth in generated_suite(rng, outside=False):
        encoding = balanced_enumeration(n, 2)
        design = slice_design(encoding)
        rows = design_probabilities(truth, design)
        table = boost_factors(rows[0], rows[1:], labels=design.labels)
        _, partition = exact_identify_without_outside(table, design)
        fitted = recover_all(rows, partition, design)
        est = design_probabilities(fitted, design)
        for want, got in zip(rows, est):
            for item in want.assortment:
                assert abs(want.probs[item] - got.probs[item]) <= 1e-9, (n, item)
        hits += 1
    assert hits == 200


def distinct_codewords(digits, b):
    """Number of distinct rows of a base-b digit matrix.

    Checks every digit lies in 0..b-1, then packs each row into one int64
    with base-b place values, which is injective on such rows.
    """
    assert digits.min() >= 0 and digits.max() < b, b
    places = b ** np.arange(digits.shape[1], dtype=np.int64)
    return np.unique(digits.astype(np.int64) @ places).size


def test_criterion_03_balanced_encodings_everywhere():
    """Digit counts per position spread at most 1 and all codes distinct, n up to 1000, under 5 s."""
    start = time.monotonic()
    for b in (2, 3, 4, 5):
        for n in range(2, 1001):
            digits = balanced_enumeration(n, b).digits
            for pos in range(digits.shape[1]):
                counts = np.bincount(digits[:, pos], minlength=b)
                assert counts.max() - counts.min() <= 1, (n, b, pos)
            assert distinct_codewords(digits, b) == n, (n, b)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_04_slice_designs_separate_all_ordered_pairs():
    """Every ordered item pair has an assortment keeping one and dropping the other."""
    # Codeword distinctness is equivalent to ordered-pair separation for
    # slice designs: membership of i in S(pos,-d) is sigma_pos(i) != d, so a
    # pair is unseparated only when the codes agree everywhere.
    for b in (2, 3):
        for n in range(2, 4097):
            digits = balanced_enumeration(n, b).digits
            assert distinct_codewords(digits, b) == n, (n, b)

    # Direct membership check on a ladder of sizes, straight from the design.
    for b in (2, 3):
        for n in (*range(2, 65), 128, 256, 512, 1024, 2048, 4095, 4096):
            design = slice_design(balanced_enumeration(n, b))
            m = design.membership_matrix().astype(np.float32)
            separated = m.T @ (1.0 - m)  # (i, j) -> count of rows with i in, j out
            np.fill_diagonal(separated, 1.0)
            assert np.all(separated > 0), (n, b)

    # And the library's own checker on the small end.
    for n in (2, 3, 17, 64):
        assert verify_separation(slice_design(balanced_enumeration(n, 2))) == []


def test_criterion_05_finite_sample_z_classification():
    """At the prescribed sample size, thresholded z tests classify every pair in >= 85% of trials."""
    delta = 0.1
    correct = total = 0
    for instance_seed in range(10):
        truth = generate_ground_truth(8, np.random.default_rng(instance_seed))
        design = slice_design(balanced_enumeration(8, 2))
        rho, margin = theorem_margins(truth, design)
        assert rho > 0 and margin > 0
        pairs = theorem_pair_count(8, design.num_experiments)
        tau = theorem_z_threshold(pairs, delta)
        m = theorem_sample_size(rho, margin, pairs, delta)

        rows = design_probabilities(truth, design)
        bf = boost_factors(rows[0], rows[1:], labels=design.labels)
        for trial in range(20):
            table = sample_choices(
                truth, design, [m] * (design.num_experiments + 1),
                seed=1000 * instance_seed + trial,
            )
            all_right = True
            for e, items in enumerate(design.experiments):
                factors = bf.factors[e]
                pool = (*items, 0)
                for a, b in itertools.combinations(pool, 2):
                    same = abs(factors[a] - factors[b]) <= 1e-9 * max(
                        abs(factors[a]), abs(factors[b])
                    )
                    z = z_statistic(table, a, b, e)
                    if (abs(z) <= tau) != same:
                        all_right = False
            correct += all_right
            total += 1
    assert total == 200
    assert correct >= 170, f"only {correct}/200 trials fully correct"


def test_criterion_06_design_benchmark_trends():
    """Slice design beats the randomized and fixed-two-nest baselines at every budget."""
    config = ExperimentConfig(
        n=16,
        b=2,
        schemes=("slice", "random", "default_two_nest"),
        T_list=(9000, 90000, 450000),
        instances=50,
        seed=2,
        outside=True,
    )
    report = compare_designs(config)
    summary = report.summary()
    assert summary["assumption_violations"] == []
    cells = {(c["scheme"], c["T"]): c for c in summary["cells"]}
    assert all(c["failures"] == 0 for c in cells.values())

    for T in config.T_list:
        ours = cells[("slice", T)]
        for rival in ("random", "default_two_nest"):
            other = cells[(rival, T)]
            assert ours["rmse_soft"]["mean"] < other["rmse_soft"]["mean"], (rival, T)
            assert ours["rand_index"]["mean"] > other["rand_index"]["mean"], (rival, T)

    # Interval separation is required against the weak fixed baseline once the
    # budget is large; against the randomized design the mean gaps at 50
    # instances sit inside overlapping intervals, so that comparison stays
    # directional and is only reported here.
    for T in (90000, 450000):
        ours, weak = cells[("slice", T)], cells[("default_two_nest", T)]
        assert ours["rmse_soft"]["ci_high"] < weak["rmse_soft"]["ci_low"], T
        assert ours["rand_index"]["ci_low"] > weak["rand_index"]["ci_high"], T
        rnd = cells[("random", T)]
        rmse_sep = ours["rmse_soft"]["ci_high"] < rnd["rmse_soft"]["ci_low"]
        rand_sep = ours["rand_index"]["ci_low"] > rnd["rand_index"]["ci_high"]
        print(
            f"T={T}: interval separation vs randomized design:"
            f" rmse_soft={'yes' if rmse_sep else 'no'},"
            f" rand_index={'yes' if rand_sep else 'no'}"
        )


def test_criterion_07_exact_recovery_round_trip():
    """100 instances: refit from exact probabilities reproduces every subset's probabilities."""
    rng = np.random.default_rng(107)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 11))
        truth = generate_ground_truth(n, rng)
        encoding = balanced_enumeration(n, 2)
        design = slice_design(encoding)
        if check_general_position(truth, design):
            continue  # coincidental multiplier tie; draw another instance
        rows = design_probabilities(truth, design)
        fitted = recover_all(rows, truth.partition, design)
        diff = all_subset_probabilities(truth) - all_subset_probabilities(fitted)
        assert np.max(np.abs(diff)) <= 1e-8, n
        done += 1


def brute_force_rmse(truth, estimate):
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


def random_partition(n, rng):
    labels = rng.integers(0, max(1, n // 2) + 1, size=n)
    groups: dict[int, list[int]] = {}
    for item, g in enumerate(labels, start=1):
        groups.setdefault(int(g), []).append(item)
    return NestPartition(groups.values())


def test_criterion_08_metric_oracles():
    """rmse_soft equals subset-by-subset enumeration; rand_index equals pair counting."""
    rng = np.random.default_rng(108)
    for _ in range(30):
        n = int(rng.integers(2, 11))
        outside = bool(rng.integers(0, 2))
        truth = generate_ground_truth(n, rng, outside=outside)
        estimate = generate_ground_truth(n, rng, outside=outside)
        want = brute_force_rmse(truth, estimate)
        assert rmse_soft(truth, estimate) == pytest.approx(want, abs=1e-12)

    for _ in range(1000):
        n = int(rng.integers(2, 13))
        first, second = random_partition(n, rng), random_partition(n, rng)
        agree = total = 0
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                same_a = first.nest_of(i) == first.nest_of(j)
                same_b = second.nest_of(i) == second.nest_of(j)
                agree += same_a == same_b
                total += 1
        assert rand_index(first, second) == pytest.approx(agree / total, abs=1e-15)


def random_count_table(rng):
    k = int(rng.integers(2, 7))
    items = tuple(range(1, k + 1))
    counts = np.array([[int(rng.integers(1, 500)) for _ in (0, *items)] for _ in range(2)])
    return ChoiceCountTable(
        n=k,
        outside=True,
        labels=("control", "S"),
        assortments=(items, items),
        counts=counts,
    )


def test_criterion_09_z_statistic_properties():
    """Antisymmetry is bitwise and the value matches a plain transcription on 10^4 tables."""
    rng = np.random.default_rng(109)
    for _ in range(10_000):
        table = random_count_table(rng)
        pool = (0, *range(1, table.n + 1))
        i, j = rng.choice(pool, size=2, replace=False)
        i, j = int(i), int(j)
        z_ij = z_statistic(table, i, j, 0)
        assert z_ij == -z_statistic(table, j, i, 0)  # bitwise, not approximate

        x_s, x_c = table.counts[1], table.counts[0]
        m_s, m_c = table.sizes[1], table.sizes[0]
        ps_i, ps_j = x_s[i] / m_s, x_s[j] / m_s
        pc_i, pc_j = x_c[i] / m_c, x_c[j] / m_c
        num = ps_i / (ps_i + ps_j) - pc_i / (pc_i + pc_j)
        p_i = (ps_i + pc_i) / (ps_i + ps_j + pc_i + pc_j)
        p_j = (ps_j + pc_j) / (ps_i + ps_j + pc_i + pc_j)
        var = p_i * p_j * (1.0 / (x_s[i] + x_s[j]) + 1.0 / (x_c[i] + x_c[j]))
        assert z_ij == pytest.approx(num / math.sqrt(var), abs=1e-12)


def block_matrix(sizes, noise=None):
    n = sum(sizes)
    a = np.zeros((n, n))
    start = 0
    for size in sizes:
        a[start:start + size, start:start + size] = 1.0
        start += size
    np.fill_diagonal(a, 0.0)
    if noise is not None:
        i, j, w = noise
        a[i - 1, j - 1] = a[j - 1, i - 1] = w
    return a


def blocks_partition(sizes):
    nests, start = [], 1
    for size in sizes:
        nests.append(tuple(range(start, start + size)))
        start += size
    return NestPartition(nests)


def all_partitions(n):
    def grow(prefix, maxseen):
        if len(prefix) == n:
            yield prefix
            return
        for g in range(maxseen + 2):
            yield from grow(prefix + [g], max(maxseen, g))

    for labels in grow([0], 0):
        groups: dict[int, list[int]] = {}
        for item, g in enumerate(labels, start=1):
            groups.setdefault(g, []).append(item)
        yield NestPartition(groups.values())


def brute_force_best_partition(weights):
    best, best_q = None, -np.inf
    for partition in all_partitions(weights.shape[0]):
        q = modularity(weights, partition)
        if q > best_q + 1e-12:
            best, best_q = partition, q
    return best


def test_criterion_10_community_detection_on_planted_blocks():
    """Planted 0/1 blocks recovered exactly; one 0.1 spurious edge never moves the split."""
    rng = np.random.default_rng(110)
    layouts = [
        (4,) * 8,
        (6, 6, 6, 6, 4, 2, 1, 1),
        (10, 12, 10),
        (16, 16),
        (32,),
        (9, 8, 7, 5, 2, 1),
        (5, 1, 3),
        (2, 2, 2, 2),
        (1,) * 8,
        (3, 3, 2),
    ]
    for _ in range(40):
        n = int(rng.integers(4, 33))
        k = int(rng.integers(1, min(8, n) + 1))
        sizes = tuple(int(s) for s in rng.multinomial(n - k, np.full(k, 1.0 / k)) + 1)
        layouts.append(sizes)
    for sizes in layouts:
        assert community_detect(block_matrix(sizes)) == blocks_partition(sizes), sizes

    # A 0.1 edge into a degree-zero singleton genuinely raises modularity when
    # absorbed, so the stability claim is over blocks that carry internal edges.
    spurious_layouts = [
        (3, 3, 2), (2, 2), (4, 4), (2, 2, 2), (3, 2, 3), (4, 2, 2), (5, 3),
        (6, 2), (3, 3), (2, 2, 2, 2), (4, 4, 4, 4), (6, 6, 6, 6, 8), (10, 12, 10),
        (4,) * 8, (9, 8, 7, 5, 3),
    ]
    for sizes in spurious_layouts:
        noisy = block_matrix(sizes, noise=(1, sizes[0] + 1, 0.1))
        want = blocks_partition(sizes)
        assert community_detect(noisy) == want, sizes
        if sum(sizes) <= 8:
            assert brute_force_best_partition(noisy) == want, sizes
