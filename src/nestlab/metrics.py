"""Model and partition quality metrics.

rmse_soft averages squared choice-probability error over every nonempty
assortment (the restricted variant over a fixed list); rand_index scores a
recovered partition by pairwise co-membership agreement; confidence
intervals are Student-t over independent instances (the only use of
scipy, imported on first call so that importing nestlab stays light).

The all-subset scores walk the bitmasks in blocks of 2**13, each through
the model's one probability kernel: all_subset_probabilities fills its
table block by block, and rmse_soft sums squared errors block by block
without building the estimate's table.  A caller scoring many estimates of
one truth (the comparison grid) builds the truth's table once and passes it
to rmse_soft.  Probability rows are item-indexed arrays (see
model.ChoiceProbabilities), so the restricted score is one array
difference.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .model import ChoiceProbabilities, NestPartition, NestedLogitModel, probability_table

EXHAUSTIVE_LIMIT = 20  # 2**n probability table; past this use the restricted form
CONFIDENCE_LEVEL = 0.95  # two-sided coverage of confidence_interval
_BLOCK_BITS = 13  # subsets are scored in blocks of 2**13 consecutive bitmasks


def _check_exhaustive(n: int) -> None:
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_LIMIT}")


def _subset_blocks(model: NestedLogitModel) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, probability table) for each block of consecutive bitmasks.

    rows selects the block's rows of the all-subset table (bitmask s on row
    s - 1); the first block skips the empty subset.  The per-nest offered
    weights are doubled once over the low items, in increasing item order;
    a block's high items are then added in increasing item order too.
    """
    n = model.n
    low_bits = min(n, _BLOCK_BITS)
    width = 1 << low_bits
    labels = model.partition.labels().tolist()
    weights = model.weights
    low = np.zeros((model.partition.num_nests, width))  # column l: low subset l, 0 included
    offered = np.empty((n, width), dtype=bool)
    codes = np.arange(width, dtype=np.uint32)
    for t in range(low_bits):
        top = low[:, 1 << t : 2 << t]
        top[...] = low[:, : 1 << t]
        top[labels[t]] += weights[t]
        offered[t] = (codes >> t) & 1
    high_items = range(low_bits, n)

    def block_weights(high: int) -> np.ndarray:
        within = low.copy()
        for t in high_items:
            if (high >> (t - low_bits)) & 1:
                within[labels[t]] += weights[t]
        return within

    for high in range(1 << (n - low_bits)):
        offered[low_bits:] = ((high >> np.arange(n - low_bits)) & 1)[:, None]
        first = high << low_bits
        skip = 1 if high == 0 else 0  # bitmask 0 is the empty subset
        rows = slice(first + skip - 1, first + width - 1)
        # the weights are built in the call, so the kernel frees them before its table
        yield rows, probability_table(model, block_weights(high)[:, skip:], offered[:, skip:])


def all_subset_probabilities(model: NestedLogitModel) -> np.ndarray:
    """Choice probabilities for every nonempty assortment, vectorized.

    Row s - 1 (s = 1..2**n - 1) covers the assortment whose bitmask is s, in
    the item-indexed row format: column 0 is the outside option (all zero
    when the model has none) and column i the probability of item i, zero
    when not offered.  The table is column-major, so each column is
    contiguous.  It is allocated once and filled block by block, so beside
    it only one block's temporaries are alive.
    """
    _check_exhaustive(model.n)
    table = np.empty((model.n + 1, (1 << model.n) - 1))  # one contiguous row per column
    for rows, block in _subset_blocks(model):
        table[:, rows] = block.T
    return table.T


def rmse_soft(
    truth: NestedLogitModel,
    estimate: NestedLogitModel,
    truth_table: np.ndarray | None = None,
) -> float:
    """Root mean squared choice-probability error over all nonempty assortments.

    Each assortment contributes one squared error per offered item, plus one
    for the outside option when present; the mean is over all contributions.
    The squared errors are summed block by block, so the estimate's
    all-subset table is never built.  truth_table, when given, is
    all_subset_probabilities(truth), computed once and shared by every
    estimate of the same truth; without it the truth's blocks are computed
    alongside the estimate's.  The result is the same float either way.
    """
    if truth.n != estimate.n:
        raise ValueError("models must share the item set")
    if truth.outside != estimate.outside:
        raise ValueError("models must agree on the outside option")
    n = truth.n
    _check_exhaustive(n)
    shape = ((1 << n) - 1, n + 1)
    truth_blocks = None
    if truth_table is None:
        truth_blocks = _subset_blocks(truth)
    elif truth_table.shape != shape:
        raise ValueError(f"truth table shape {truth_table.shape}, expected {shape}")
    total = 0.0
    for rows, diff in _subset_blocks(estimate):
        diff -= truth_table[rows] if truth_blocks is None else next(truth_blocks)[1]
        flat = diff.ravel(order="K")  # a view, not a copy
        total += float(np.vdot(flat, flat))
        del diff, flat  # freed before the next block is computed
    cells = n * (1 << (n - 1))  # sum of |S| over nonempty S
    if truth.outside:
        cells += (1 << n) - 1
    return math.sqrt(total / cells)


def rmse_soft_restricted(
    true_probs: list[ChoiceProbabilities], est_probs: list[ChoiceProbabilities]
) -> float:
    """rmse_soft over a fixed assortment list instead of all subsets.

    Rows hold 0 where an item is not offered, so the squared difference of
    the two stacked tables covers exactly the offered items (and the
    outside option when present).
    """
    if len(true_probs) != len(est_probs):
        raise ValueError("probability lists differ in length")
    for t, e in zip(true_probs, est_probs):
        if t.assortment != e.assortment:
            raise ValueError(
                f"assortment mismatch: {t.assortment} vs {e.assortment}"
            )
        if t.outside != e.outside:
            raise ValueError("outside-option flag mismatch")
    cells = sum(len(t.assortment) + t.outside for t in true_probs)
    if cells == 0:
        raise ValueError("no assortments to score")
    diff = np.array([t.probs for t in true_probs]) - np.array([e.probs for e in est_probs])
    return math.sqrt(float(np.vdot(diff, diff)) / cells)


def rand_index(first: NestPartition, second: NestPartition) -> float:
    """Fraction of item pairs grouped consistently by both partitions.

    Pairs are counted from the contingency table of the two nest labellings:
    those together in both, together in each, and all pairs, as integers,
    so the fraction is one division.
    """
    if first.n != second.n:
        raise ValueError("partitions cover different item sets")
    n = first.n
    if n < 2:
        return 1.0

    def pairs(sizes: np.ndarray) -> int:
        return int((sizes * (sizes - 1)).sum()) // 2

    a = first.labels()
    b = second.labels()
    table = np.bincount(a * second.num_nests + b)
    both = pairs(table)
    split_once = pairs(np.bincount(a)) + pairs(np.bincount(b)) - 2 * both
    total = n * (n - 1) // 2
    return (total - split_once) / total


def confidence_interval(values: list[float] | np.ndarray) -> tuple[float, float, float]:
    """(mean, low, high) Student-t interval at CONFIDENCE_LEVEL treating values as iid draws."""
    from scipy import stats  # slow to import, and only needed here

    arr = np.asarray(values, dtype=np.float64)
    k = arr.size
    if k < 2:
        raise ValueError("confidence interval needs at least two values")
    mean = float(arr.mean())
    spread = float(arr.std(ddof=1))
    quantile = float(stats.t.ppf(0.5 + CONFIDENCE_LEVEL / 2.0, k - 1))
    half = quantile * spread / math.sqrt(k)
    return mean, mean - half, mean + half
