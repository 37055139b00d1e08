"""Model and partition quality metrics.

rmse_soft averages squared choice-probability error over every nonempty
assortment (the restricted variant over a fixed list); rand_index scores a
recovered partition by pairwise co-membership agreement; confidence
intervals are Student-t over independent instances (the only use of
scipy, imported on first call so that importing nestlab stays light).

The all-subset scores run the model's probability kernel in its two
steps (model.nest_values, model.nest_factors): the value step once per
model, on per-nest tables of W and W ** lambda over the subsets of each
nest's items, and the factor step on blocks of 2**13 bitmasks, whose
values and weights are gathered from the tables.  They keep only the
cells rmse_soft counts: the outside option's probability and each
offered item's, about half of the (2**n - 1) x (n + 1) table.
all_subset_cells gathers them into one vector, and rmse_soft sums squared
errors piece by piece without building the estimate's.  A caller scoring many estimates of one truth
(the comparison grid) builds the truth's vector once and passes it to
rmse_soft.  all_subset_probabilities scatters the cells into the full
table.  Probability rows are item-indexed arrays (see
model.ChoiceProbabilities), so the restricted score is one array
difference.
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterator

import numpy as np

from .model import (
    ChoiceProbabilities,
    NestPartition,
    NestedLogitModel,
    nest_factors,
    nest_values,
)

EXHAUSTIVE_LIMIT = 20  # 2**n probability table; past this use the restricted form
CONFIDENCE_LEVEL = 0.95  # two-sided coverage of confidence_interval
_BLOCK_BITS = 13  # subsets are scored in blocks of 2**13 consecutive bitmasks


def _check_exhaustive(n: int) -> None:
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_LIMIT}")


def _cell_count(n: int, outside: bool) -> int:
    """Cells scored over the nonempty subsets: sum of |S|, plus one each for the outside option."""
    return n * (1 << (n - 1)) + ((1 << n) - 1 if outside else 0)


def _subset_cells(model: NestedLogitModel) -> Iterator[tuple[int, np.ndarray]]:
    """(start, values): consecutive pieces of all_subset_cells(model), block by block.

    A nest's offered weight takes at most 2**|N| values, one per subset of
    its items, so the kernel's value step runs once per model on per-nest
    tables: row k, entry c holds W_N of the subset of nest k whose j-th
    smallest item is offered where bit j of c is set, doubled in increasing
    item order (the float sums a pass over every bitmask forms), and
    nest_values turns the rows into W ** lambda.  A block is 2**13
    consecutive bitmasks: each nest's codes over the block are its low
    items' codes, built once, plus the block's high items, so one gather
    of V and one of W feed the factor step, nest_factors.  Low item t + 1
    is offered on every second run of 2**t bitmasks, high items on the
    whole block or on none of it.  Block 0 is computed at full width,
    bitmask 0 included: that subset offers no item, so only the outside
    option's piece drops it.
    """
    n = model.n
    low_bits = min(n, _BLOCK_BITS)
    width = 1 << low_bits
    labels = model.partition.labels().tolist()
    weights = model.weights
    nests = model.partition.nests
    bit = [0] * n  # item t + 1's bit in its nest's code
    for nest in nests:
        for j, item in enumerate(nest):
            bit[item - 1] = 1 << j
    span = 1 << max(map(len, nests))  # one table row per nest, as wide as the largest nest's
    within = np.zeros((len(nests), span))
    for t, k in enumerate(labels):
        row = within[k]
        np.add(row[: bit[t]], weights[t], out=row[bit[t] : 2 * bit[t]])
    values = nest_values(model, within).ravel()
    within = within.ravel()
    index = np.empty((len(nests), width), dtype=np.intp)  # raveled table position, low subset l
    index[:, 0] = np.arange(len(nests)) * span
    for t in range(low_bits):
        top = index[:, 1 << t : 2 << t]
        top[...] = index[:, : 1 << t]
        top[labels[t]] += bit[t]
    block_values, block_within = np.empty(index.shape), np.empty(index.shape)
    codes = np.zeros(len(nests), dtype=np.intp)  # per nest, the code of the block's high items
    outside_cells = (1 << n) - 1 if model.outside else 0
    starts = [outside_cells + t * (1 << (n - 1)) for t in range(n)]  # each item's next position

    for high in range(1 << (n - low_bits)):
        high_codes = np.zeros(len(nests), dtype=np.intp)
        for t in range(low_bits, n):
            if (high >> (t - low_bits)) & 1:
                high_codes[labels[t]] += bit[t]
        index += (high_codes - codes)[:, None]  # from the last block's high items to this block's
        codes = high_codes
        # mode="clip" writes straight into out; every position is in range
        np.take(values, index, out=block_values, mode="clip")
        np.take(within, index, out=block_within, mode="clip")
        # without an outside option bitmask 0 divides 0 by 0; no cell reads that column
        with np.errstate(invalid="ignore") if high == 0 else contextlib.nullcontext():
            factor, denom = nest_factors(model, block_values, block_within)
        if model.outside:
            skip = 1 if high == 0 else 0  # bitmask 0 is the empty subset
            yield (high << low_bits) + skip - 1, 1.0 / denom[skip:]
        for t, k in enumerate(labels):
            if t < low_bits:
                piece = factor[k].reshape(-1, 2 << t)[:, 1 << t :] * weights[t]
            elif (high >> (t - low_bits)) & 1:
                piece = factor[k] * weights[t]
            else:
                continue
            yield starts[t], piece.ravel()
            starts[t] += piece.size


def all_subset_cells(model: NestedLogitModel) -> np.ndarray:
    """Every choice probability that rmse_soft scores, as one vector.

    First the outside option's probability on every nonempty subset, in
    bitmask order (when the model has one), then item i's on every subset
    that offers it, in bitmask order, for i = 1..n: n * 2**(n - 1) entries,
    plus 2**n - 1 with an outside option.  A caller scoring many estimates
    of one truth builds the truth's vector once and passes it to rmse_soft.
    """
    _check_exhaustive(model.n)
    cells = np.empty(_cell_count(model.n, model.outside))
    for start, values in _subset_cells(model):
        cells[start : start + values.size] = values
    return cells


def all_subset_probabilities(model: NestedLogitModel) -> np.ndarray:
    """Choice probabilities for every nonempty assortment, as one table.

    Row s - 1 (s = 1..2**n - 1) covers the assortment whose bitmask is s, in
    the item-indexed row format: column 0 is the outside option (all zero
    when the model has none) and column i the probability of item i, zero
    when not offered.  The table is column-major, so each column is
    contiguous.  It holds the entries of all_subset_cells, scattered into
    zeros.
    """
    n = model.n
    cells = all_subset_cells(model)
    items = cells[cells.size - n * (1 << (n - 1)) :].reshape(n, -1)
    table = np.zeros((n + 1, (1 << n) - 1))  # one contiguous row per column
    if model.outside:
        table[0] = cells[: table.shape[1]]
    codes = np.arange(1, 1 << n)
    for t in range(n):
        table[t + 1, (codes >> t) & 1 == 1] = items[t]
    return table.T


def rmse_soft(
    truth: NestedLogitModel,
    estimate: NestedLogitModel,
    truth_cells: np.ndarray | None = None,
) -> float:
    """Root mean squared choice-probability error over all nonempty assortments.

    Each assortment contributes one squared error per offered item, plus one
    for the outside option when present: the cells of all_subset_cells,
    over which the mean is taken.  The squared errors are summed piece by
    piece as the estimate's blocks are computed, and the pieces' sums added
    with math.fsum, so no whole vector or table of the estimate is built;
    its per-nest tables hold 2**|N| entries per nest N, 2**n for a model
    of one nest.
    truth_cells, when given, is all_subset_cells(truth), computed once and
    shared by every estimate of the same truth; without it the truth's
    pieces are computed alongside the estimate's.  The result is the same
    float either way.
    """
    if truth.n != estimate.n:
        raise ValueError("models must share the item set")
    if truth.outside != estimate.outside:
        raise ValueError("models must agree on the outside option")
    n = truth.n
    _check_exhaustive(n)
    count = _cell_count(n, truth.outside)
    truth_pieces = None
    if truth_cells is None:
        truth_pieces = _subset_cells(truth)
    elif truth_cells.shape != (count,):
        raise ValueError(f"truth cells of shape {truth_cells.shape}, expected ({count},)")
    sums = []
    for start, diff in _subset_cells(estimate):
        if truth_pieces is None:
            diff -= truth_cells[start : start + diff.size]
        else:
            diff -= next(truth_pieces)[1]
        sums.append(float(np.vdot(diff, diff)))
    return math.sqrt(math.fsum(sums) / count)


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
