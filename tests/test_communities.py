"""Tests for weighted community detection and modularity scoring."""

import heapq
import itertools
import tracemalloc

import numpy as np
import pytest

from nestlab.communities import WALK_LENGTH, _walktrap_merges, community_detect, modularity
from nestlab.designs import balanced_enumeration, slice_design
from nestlab.identify import TestConfig, noisy_identify_with_outside
from nestlab.model import NestPartition, generate_ground_truth, singleton_partition
from nestlab.sampling import allocate_customers, sample_choices


def block_matrix(sizes, noise=None):
    """0/1 matrix with ones inside consecutive blocks, zero diagonal"""
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
    """Every set partition of 1..n via restricted growth strings"""
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
    """Exhaustive modularity maximizer; ties resolved by first enumeration"""
    n = weights.shape[0]
    best, best_q = None, -np.inf
    for partition in all_partitions(n):
        q = modularity(weights, partition)
        if q > best_q + 1e-12:
            best, best_q = partition, q
    return best, best_q


def reference_walktrap(weights, walk_length=WALK_LENGTH):
    """The plain Walktrap merge sequence, and each cut with its modularity.

    The reference algorithm: each merge rescans every adjacent community
    pair for the minimum walk distance (ties to the lowest index pair), and
    each cut is scored by modularity() from scratch.
    """
    w = np.array(weights, dtype=np.float64)
    np.fill_diagonal(w, 0.0)
    n = w.shape[0]
    loops = w.copy()
    np.fill_diagonal(loops, 1.0)
    degrees = loops.sum(axis=1)
    walk = np.linalg.matrix_power(loops / degrees[:, None], walk_length)
    inv_degree = 1.0 / degrees

    members = {i: [i] for i in range(n)}
    vectors = {i: walk[i].copy() for i in range(n)}
    neighbors = {i: set(np.nonzero(w[i] > 0.0)[0].tolist()) for i in range(n)}
    snapshots = [[list(v) for v in members.values()]]
    merges = []
    next_id = n

    def walk_distance(a, b):
        diff = vectors[a] - vectors[b]
        size_a, size_b = len(members[a]), len(members[b])
        factor = size_a * size_b / (size_a + size_b)
        return factor * float(np.dot(diff * diff, inv_degree)) / n

    while len(members) > 1:
        best_pair, best_dist = None, np.inf
        for a in sorted(members):
            for b in sorted(neighbors[a]):
                if b <= a:
                    continue
                dist = walk_distance(a, b)
                if dist < best_dist:
                    best_dist, best_pair = dist, (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        merges.append(best_pair)
        merged = next_id
        next_id += 1
        size_a, size_b = len(members[a]), len(members[b])
        vectors[merged] = (size_a * vectors[a] + size_b * vectors[b]) / (size_a + size_b)
        members[merged] = members.pop(a) + members.pop(b)
        joined = (neighbors.pop(a) | neighbors.pop(b)) - {a, b}
        neighbors[merged] = joined
        for c in joined:
            neighbors[c] -= {a, b}
            neighbors[c].add(merged)
        del vectors[a], vectors[b]
        snapshots.append([sorted(v) for v in members.values()])

    cuts = [NestPartition([[i + 1 for i in g] for g in groups]) for groups in snapshots]
    return merges, cuts, [modularity(w, groups) for groups in snapshots]


def assert_matches_reference(weights):
    """Same merge sequence as the reference, and its first modularity maximum.

    Cuts whose from-scratch modularity differs from the maximum by roundoff
    only (1e-12) are tied: the reference's choice among them rests on the
    last bits of a sum, so any tied cut of the same merge sequence passes.
    """
    merges, cuts, qs = reference_walktrap(weights)
    w = np.array(weights, dtype=np.float64)
    np.fill_diagonal(w, 0.0)
    assert _walktrap_merges(w)[0] == merges
    tied = [cut for cut, q in zip(cuts, qs) if q >= max(qs) - 1e-12]
    got = community_detect(weights)
    assert got in tied, (got, cuts[int(np.argmax(qs))])


def symmetric(upper):
    upper = np.triu(upper, 1)
    return upper + upper.T


def test_modularity_straight_line_value():
    """Two disjoint edges: handwritten Newman sum"""
    w = block_matrix([2, 2])
    p = blocks_partition([2, 2])
    # 2m = 4; each community holds weight 2 inside with degree sum 1 + 1
    want = sum(2 / 4 - ((1 + 1) / 4) ** 2 for _ in range(2))
    assert modularity(w, p) == pytest.approx(want, abs=1e-15)
    # merging everything puts all weight inside but the degree term dominates
    assert modularity(w, NestPartition([(1, 2, 3, 4)])) == pytest.approx(
        4 / 4 - 1.0, abs=1e-15
    )


def test_modularity_ignores_self_loops():
    w = block_matrix([2, 2])
    w_loops = w.copy()
    np.fill_diagonal(w_loops, 5.0)
    p = blocks_partition([2, 2])
    assert modularity(w, p) == modularity(w_loops, p)


def test_modularity_empty_graph_is_zero():
    w = np.zeros((3, 3))
    assert modularity(w, singleton_partition(3)) == 0.0


def test_planted_blocks_recovered():
    for sizes in [(3, 3), (4, 2, 3), (2, 2, 2, 2), (5, 1, 3)]:
        w = block_matrix(sizes)
        assert community_detect(w) == blocks_partition(sizes), sizes


def test_detection_matches_exhaustive_search_on_random_graphs():
    """Walktrap's chosen cut should land on a modularity optimum for cliques"""
    rng = np.random.default_rng(77)
    for _ in range(10):
        sizes = []
        remaining = 6
        while remaining:
            s = int(rng.integers(1, remaining + 1))
            sizes.append(s)
            remaining -= s
        w = block_matrix(sizes)
        got = community_detect(w)
        want, want_q = brute_force_best_partition(w)
        assert modularity(w, got) == pytest.approx(want_q, abs=1e-12), sizes


def test_detection_matches_reference_on_random_graphs():
    """Heap merges and incremental modularity reproduce the full-rescan cut"""
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(2, 30))
        kind = trial % 5
        if kind == 0:  # dense
            w = symmetric(rng.random((n, n)))
        elif kind == 1:  # sparse
            w = symmetric(rng.random((n, n)) * (rng.random((n, n)) < 0.15))
        elif kind == 2:  # thirds, so walk distances tie
            w = symmetric(np.round(3 * rng.random((n, n))) / 3 * (rng.random((n, n)) < 0.5))
        elif kind == 3:  # disconnected components
            w = np.zeros((n, n))
            cut = int(rng.integers(1, n))
            for lo, hi in [(0, cut), (cut, n)]:
                w[lo:hi, lo:hi] = symmetric(np.round(3 * rng.random((hi - lo, hi - lo))) / 3)
        else:  # shuffled cliques: symmetric vertices tie exactly on distance
            w = block_matrix([int(s) for s in rng.integers(1, 5, size=int(rng.integers(2, 6)))])
            perm = rng.permutation(w.shape[0])
            w = w[np.ix_(perm, perm)]
        assert_matches_reference(w)


def test_detection_matches_reference_on_noisy_edges():
    truth = generate_ground_truth(n=64, rng=np.random.default_rng(12))
    design = slice_design(balanced_enumeration(64, 2))
    allocation = allocate_customers(10**7, design.num_experiments + 1)
    table = sample_choices(truth, design, allocation, seed=4)
    edges, partition = noisy_identify_with_outside(table, design, TestConfig(alpha=0.05))
    assert_matches_reference(edges.values)
    assert community_detect(edges.values) == partition


def test_detection_holds_at_most_three_matrices_beyond_its_input():
    """The walk code owns its one copy, turns it into P in place and keeps P**4 as the walk vectors"""
    rng = np.random.default_rng(13)
    n = 512
    within = block_matrix([4] * (n // 4)) * symmetric(0.5 + 0.5 * rng.random((n, n)))
    w = within + symmetric(0.1 * (rng.random((n, n)) < 0.02))  # plus sparse cross-block edges
    tracemalloc.start()
    try:
        community_detect(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * w.nbytes, peak / w.nbytes


def per_community_walktrap_merges(weights):
    """_walktrap_merges with links read row by row and the first heap built per community.

    Every distance comes from one stacked matmul per community, with the
    size factor as a numpy array, so its bits are the reference's.
    """
    w = np.array(weights, dtype=np.float64)
    np.fill_diagonal(w, 0.0)
    n = w.shape[0]
    two_m = w.sum()
    strengths = w.sum(axis=1).tolist()
    strength = dict(enumerate(strengths))
    links = {}
    for i in range(n):
        adjacent = np.nonzero(w[i] > 0.0)[0]
        links[i] = dict(zip(adjacent.tolist(), w[i, adjacent].tolist()))
    np.fill_diagonal(w, 1.0)
    degrees = w.sum(axis=1)
    walk = w / degrees[:, None]
    for _ in range(WALK_LENGTH.bit_length() - 1):
        walk = walk @ walk
    inv_degree = 1.0 / degrees[:, None]
    size = dict.fromkeys(range(n), 1)
    row = {i: i for i in range(n)}

    def distances(c, others):
        diff = walk[[row[o] for o in others]]
        diff -= walk[row[c]]
        diff *= diff
        dots = np.matmul(diff[:, None, :], inv_degree)[:, 0, 0]
        sizes = np.array([size[o] for o in others])
        factor = sizes * size[c] / (sizes + size[c])
        return (factor * dots / n).tolist()

    heap = []
    for a in range(n):
        later = [b for b in links[a] if b > a]
        heap += zip(distances(a, later), [a] * len(later), later)
    heapq.heapify(heap)
    merges = []
    score = -sum(s * s for s in strengths)
    best_score, best_step = score, 0
    while heap:
        _, a, b = heapq.heappop(heap)
        if a not in size or b not in size:
            continue
        score += 2.0 * (two_m * links[a][b] - strength[a] * strength[b])
        merged = n + len(merges)
        merges.append((a, b))
        size_a, size_b = size.pop(a), size.pop(b)
        size[merged] = size_a + size_b
        vector, other = walk[row[a]], walk[row.pop(b)]
        row[merged] = row.pop(a)
        vector *= size_a
        vector += size_b * other
        vector /= size_a + size_b
        strength[merged] = strength.pop(a) + strength.pop(b)
        joined = links.pop(a)
        for c, weight in links.pop(b).items():
            joined[c] = joined.get(c, 0.0) + weight
        del joined[a], joined[b]
        links[merged] = joined
        for c, weight in joined.items():
            links[c].pop(a, None)
            links[c].pop(b, None)
            links[c][merged] = weight
        for dist, c in zip(distances(merged, list(joined)), joined):
            heapq.heappush(heap, (dist, c, merged))
        if score > best_score:
            best_score, best_step = score, len(merges)
    return merges, best_step


@pytest.mark.parametrize("edges", [255, 256, 257, 513])
def test_whole_array_heap_build_matches_per_community_build(edges):
    """Edge counts around the 256-edge block give the per-community merge sequence and cut"""
    rng = np.random.default_rng(edges)
    for trial in range(4):
        n = 60
        connected = rng.permutation(n)[:48]  # the other 12 vertices stay isolated
        a, b = np.triu_indices(48, 1)
        pick = rng.choice(len(a), size=edges, replace=False)
        w = np.zeros((n, n))
        levels = rng.integers(1, 4, size=edges) / 3 if trial % 2 else rng.random(edges)
        w[connected[a[pick]], connected[b[pick]]] = levels  # thirds tie walk distances
        w = w + w.T
        assert np.count_nonzero(np.triu(w, 1)) == edges
        assert _walktrap_merges(w.copy()) == per_community_walktrap_merges(w)


def test_exactly_tied_cuts_keep_the_earliest():
    """Merging 3 into {1, 2, 4} changes modularity by exactly zero

    2m = 12, the one link between them has weight 1 and their degrees are 2
    and 6, so 2m * 1 == 6 * 2; the earlier cut is the first maximum.
    """
    w = np.zeros((6, 6))
    for i, j in [(1, 4), (1, 6), (2, 3), (2, 4), (3, 6), (5, 6)]:
        w[i - 1, j - 1] = w[j - 1, i - 1] = 1.0
    got = community_detect(w)
    assert got == NestPartition([(1, 2, 4), (3,), (5, 6)])
    later = NestPartition([(1, 2, 3, 4), (5, 6)])
    assert modularity(w, got) == pytest.approx(1 / 9, abs=1e-15)
    assert modularity(w, later) == pytest.approx(1 / 9, abs=1e-15)
    assert later in reference_walktrap(w)[1]


def test_single_weak_edge_does_not_move_blocks():
    w = block_matrix([3, 3, 2], noise=(1, 8, 0.1))
    assert community_detect(w) == blocks_partition([3, 3, 2])


def test_all_zero_weights_give_singletons():
    assert community_detect(np.zeros((4, 4))) == singleton_partition(4)


def test_single_node_graph():
    assert community_detect(np.zeros((1, 1))) == singleton_partition(1)


def test_detection_is_deterministic():
    rng = np.random.default_rng(3)
    w = rng.random((8, 8))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    assert community_detect(w) == community_detect(w.copy())


def test_soft_weights_still_cluster():
    """Noisy within-block weights around 0.8, cross weights around 0.1"""
    rng = np.random.default_rng(9)
    w = block_matrix([4, 4])
    w = np.where(w > 0, 0.8 + 0.2 * rng.random((8, 8)), 0.1 * rng.random((8, 8)))
    w = np.triu(w, 1)
    w = w + w.T
    assert community_detect(w) == blocks_partition([4, 4])


def test_rejects_asymmetric_input():
    w = np.zeros((3, 3))
    w[0, 1] = 1.0
    with pytest.raises(ValueError):
        community_detect(w)


def test_symmetry_tolerance_is_one_in_a_trillion():
    w = symmetric(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]]))
    w[0, 2] = 1e-12  # |w - w.T| at most 1e-12 passes
    assert community_detect(w).n == 3
    assert np.isfinite(modularity(w, singleton_partition(3)))
    w[0, 2] = 2e-12
    for check in (community_detect, lambda w: modularity(w, singleton_partition(3))):
        with pytest.raises(ValueError, match="weight matrix must be symmetric"):
            check(w)


def test_rejects_negative_weights():
    w = np.zeros((2, 2))
    w[0, 1] = w[1, 0] = -0.5
    with pytest.raises(ValueError):
        community_detect(w)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_weights(bad):
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = bad
    with pytest.raises(ValueError, match="weights must be finite"):
        community_detect(w)
    with pytest.raises(ValueError, match="weights must be finite"):
        modularity(w, singleton_partition(3))


def test_partition_enumerator_counts_bell_numbers():
    # Bell numbers 1, 2, 5, 15, 52 for n = 1..5
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert sum(1 for _ in all_partitions(n)) == bell


@pytest.mark.parametrize("weights, message", [
    (np.zeros((2, 3)), "weight matrix must be square"),
    (np.zeros((0, 0)), "empty weight matrix"),
])
def test_community_detect_boundary_checks(weights, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        community_detect(weights)
