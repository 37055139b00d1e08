"""Community detection on soft evidence graphs.

Noisy identification produces a symmetric weight matrix over items, with
entries in [0, 1] grading how confidently two items look nested together.
Communities are found by Walktrap (Pons & Latapy, "Computing communities in
large networks using random walks", JGAA 2006): vertices whose t-step walk
distributions look alike get merged, and the merge sequence is cut at the
first strict modularity maximum.  As in the paper's implementation, a
min-heap holds the distances between adjacent communities and only the
merged community's distances are computed after each merge, while the
modularity of every cut follows from Newman's merge increment ("Fast
algorithm for detecting community structure in networks", PRE 2004).
"""

from __future__ import annotations

import heapq

import numpy as np

from .model import NestPartition

WALK_LENGTH = 4


def _validated_weights(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weight matrix must be square")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if w.size and np.abs(w - w.T).max() > 1e-12:
        raise ValueError("weight matrix must be symmetric")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    w = w.copy()
    np.fill_diagonal(w, 0.0)
    return w


def modularity(
    weights: np.ndarray, communities: list[list[int]] | NestPartition
) -> float:
    """Newman-Girvan modularity of a grouping, on off-diagonal weights.

    communities hold 0-based vertex indices, or a NestPartition whose
    1-based nests are shifted down.  A graph with no edge weight at all
    scores 0.
    """
    if isinstance(communities, NestPartition):
        communities = [[i - 1 for i in nest] for nest in communities.nests]
    w = _validated_weights(weights)
    two_m = w.sum()
    if two_m == 0.0:
        return 0.0
    degrees = w.sum(axis=1)
    q = 0.0
    for members in communities:
        idx = np.asarray(members, dtype=np.int64)
        internal = w[np.ix_(idx, idx)].sum()
        q += internal / two_m - (degrees[idx].sum() / two_m) ** 2
    return float(q)


def community_detect(weights: np.ndarray) -> NestPartition:
    """Partition items 1..n by Walktrap agglomerative random-walk clustering.

    Vertices get a self-loop of weight 1 and transition matrix P = D^-1 A;
    a community's signature is the average of its members' rows of P**t,
    t = WALK_LENGTH.  Only communities joined by positive off-diagonal
    weight may merge, the pair at minimum walk distance merges first, and
    distance ties go to the lexicographically lowest community index pair.

    Candidate pairs sit in a min-heap of (distance, a, b) with a < b, so a
    pop yields exactly that order.  Merged communities get fresh ids, never
    reused, and heap entries naming a merged-away id are skipped when popped
    (lazy deletion); after a merge only the new community's distances to its
    neighbours are pushed.  Modularity is tracked incrementally along the
    merge sequence, merging a and b adding Newman's 2 (e_ab - a_a a_b), and
    the first strict maximum wins.  The running sum is kept in units of
    1/(2m)^2, exact for integer weights, so cuts of mathematically equal
    modularity compare equal and the earliest is kept.  A graph with no
    edges keeps every item alone.
    """
    return detect_validated(_validated_weights(weights))


def detect_validated(w: np.ndarray) -> NestPartition:
    """community_detect on a matrix the caller built valid and hands over.

    w must be a square float64 array, symmetric, finite and non-negative,
    with a zero diagonal, as _validated_weights returns it; it is not
    checked, and it becomes scratch space.
    """
    merges, best_step = _walktrap_merges(w)
    n = len(w)
    groups: dict[int, list[int]] = {i: [i + 1] for i in range(n)}
    for step, (a, b) in enumerate(merges[:best_step]):
        groups[n + step] = groups.pop(a) + groups.pop(b)
    return NestPartition(groups.values())


def _walktrap_merges(w: np.ndarray) -> tuple[list[tuple[int, int]], int]:
    """Walktrap's merge sequence on a weight matrix, and its best cut.

    Merge k joins communities a < b into the new community n + k.  The cut
    after the first best_step merges is the first strict modularity maximum.

    w is valid as _validated_weights returns it, and the function takes
    it over: once strengths and links are read off it, it becomes P in
    place, and P**t (np.linalg.matrix_power's squarings; WALK_LENGTH is a
    power of two) writes each square over the array two squarings back, so
    the walk holds two n x n arrays, w's buffer one of them.  Each
    community's walk vector is a row of P**t: a merged one is written over
    the row of its lower-numbered member.  Links come from
    one np.nonzero, split by row.  Distances are ddots of stacked rows, as
    in a one-pair np.dot, so each keeps its bits: the first heap's over all
    edges, 256 at a time, then each merged community's to its neighbours.
    """
    n = w.shape[0]
    if n == 0:
        raise ValueError("empty weight matrix")
    two_m = w.sum()
    if two_m == 0.0:
        return [], 0
    strengths = w.sum(axis=1).tolist()
    strength: dict[int, float] = dict(enumerate(strengths))
    tails, heads = np.nonzero(w > 0.0)  # every edge both ways, row by row
    bounds = np.searchsorted(tails, np.arange(n + 1)).tolist()
    adjacent, weight_of = heads.tolist(), w[tails, heads].tolist()
    links: dict[int, dict[int, float]] = {}  # links[a][c]: total weight between adjacent a and c
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        links[i] = dict(zip(adjacent[lo:hi], weight_of[lo:hi]))
    tails, heads = tails[tails < heads], heads[tails < heads]  # each edge once, a < b
    np.fill_diagonal(w, 1.0)  # every vertex gets a self-loop of weight 1
    degrees = w.sum(axis=1)
    w /= degrees[:, None]
    walk, spare = w, None  # P = D^-1 A
    del w
    for _ in range(WALK_LENGTH.bit_length() - 1):
        walk, spare = np.matmul(walk, walk, out=spare), walk
    del spare
    inv_degree = 1.0 / degrees[:, None]

    size: dict[int, int] = dict.fromkeys(range(n), 1)
    row: dict[int, int] = {i: i for i in range(n)}  # community -> its row of walk

    def dots(rows_a, rows_b) -> list[float]:
        """Per row of rows_b, its squared walk difference from rows_a (or one row) over degree."""
        diff = walk[rows_b]
        diff -= walk[rows_a]
        diff *= diff
        return np.matmul(diff[:, None, :], inv_degree)[:, 0, 0].tolist()

    def distances(c: int, others: list[int]) -> list[float]:
        """The walk distance of c to each community in others."""
        sc, sizes = size[c], [size[o] for o in others]
        return [s * sc / (s + sc) * dot / n
                for s, dot in zip(sizes, dots(row[c], [row[o] for o in others]))]

    later = ((a, b) for a in range(n) for b in links[a] if b > a)  # tails, heads; links' ints
    heap = []  # singletons: size factor 1 * 1 / (1 + 1); 256 edges (rows of diff) at a time
    for lo in range(0, len(tails), 256):
        block = zip(dots(tails[lo:lo + 256], heads[lo:lo + 256]), later)  # stops with the block
        heap += [(0.5 * dot / n, a, b) for dot, (a, b) in block]
    del tails, heads, adjacent, weight_of
    heapq.heapify(heap)
    merges: list[tuple[int, int]] = []
    score = -sum(s * s for s in strengths)  # modularity times (2m)^2
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
