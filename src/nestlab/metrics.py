"""Model and partition quality metrics.

rmse_soft averages squared choice-probability error over every nonempty
assortment (the restricted variant over a fixed list); rand_index scores a
recovered partition by pairwise co-membership agreement; confidence
intervals are Student-t over independent instances.

The all-subset table behind rmse_soft comes from the model's one
probability kernel: the bool offer mask for the last n is cached and the
per-nest offered weights come from a doubling pass over the bitmasks.  A
caller scoring many estimates of one truth (the comparison grid) builds the
truth's table once and passes it to rmse_soft.  Probability rows are
item-indexed arrays (see model.ChoiceProbabilities), so the restricted score
is one array difference.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import stats

from .model import ChoiceProbabilities, NestPartition, NestedLogitModel, probability_table

EXHAUSTIVE_LIMIT = 20  # 2**n probability table; past this use the restricted form


@functools.lru_cache(maxsize=1)
def _subset_masks(n: int) -> np.ndarray:
    """Read-only bool offer masks, shape (n, 2**n - 1).

    Entry [t, s - 1] says whether the assortment with bitmask s offers item
    t + 1.  Item-major, so each item's row is contiguous.
    """
    codes = np.arange(1, 1 << n, dtype=np.uint32)
    masks = np.empty((n, codes.size), dtype=bool)
    for t in range(n):
        masks[t] = (codes >> t) & 1
    masks.flags.writeable = False
    return masks


def _subset_weights(model: NestedLogitModel) -> np.ndarray:
    """Per-nest offered weights W_N(S) of every nonempty subset, shape (K, 2**n - 1).

    Built by doubling: the subsets with top bit t are those below 2**t plus
    item t + 1, so each sum adds its nest's items in increasing order.
    """
    n = model.n
    weights = model.weights
    sums = np.zeros((model.partition.num_nests, 1 << n))  # column s: subset s, 0 included
    for t, k in enumerate(model.partition.labels()):
        top = sums[:, 1 << t : 2 << t]
        top[...] = sums[:, : 1 << t]
        top[k] += weights[t]
    return sums[:, 1:]


def all_subset_probabilities(model: NestedLogitModel) -> np.ndarray:
    """Choice probabilities for every nonempty assortment, vectorized.

    Row s - 1 (s = 1..2**n - 1) covers the assortment whose bitmask is s, in
    the item-indexed row format: column 0 is the outside option (all zero
    when the model has none) and column i the probability of item i, zero
    when not offered.  The table is column-major, so each column is
    contiguous.  The doubled per-nest sums feed probability_table, which
    frees them before it allocates the table.
    """
    n = model.n
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_LIMIT}")
    return probability_table(model, _subset_weights(model), _subset_masks(n))


def rmse_soft(
    truth: NestedLogitModel,
    estimate: NestedLogitModel,
    truth_table: np.ndarray | None = None,
) -> float:
    """Root mean squared choice-probability error over all nonempty assortments.

    Each assortment contributes one squared error per offered item, plus one
    for the outside option when present; the mean is over all contributions.
    truth_table, when given, is all_subset_probabilities(truth), computed
    once and shared by every estimate of the same truth; the result is the
    same float either way.
    """
    if truth.n != estimate.n:
        raise ValueError("models must share the item set")
    if truth.outside != estimate.outside:
        raise ValueError("models must agree on the outside option")
    n = truth.n
    if truth_table is None:
        truth_table = all_subset_probabilities(truth)
    diff = all_subset_probabilities(estimate)
    if truth_table.shape != diff.shape:
        raise ValueError(f"truth table shape {truth_table.shape}, expected {diff.shape}")
    diff -= truth_table
    flat = diff.ravel(order="K")  # a view, not a copy
    total = float(np.vdot(flat, flat))
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
    """Fraction of item pairs grouped consistently by both partitions."""
    if first.n != second.n:
        raise ValueError("partitions cover different item sets")
    n = first.n
    if n < 2:
        return 1.0
    a = first.labels()
    b = second.labels()
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    agree = same_a == same_b
    upper = np.triu_indices(n, k=1)
    return float(agree[upper].mean())


def confidence_interval(
    values: list[float] | np.ndarray, level: float = 0.95
) -> tuple[float, float, float]:
    """(mean, low, high) Student-t interval treating values as iid draws."""
    arr = np.asarray(values, dtype=np.float64)
    k = arr.size
    if k < 2:
        raise ValueError("confidence interval needs at least two values")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    mean = float(arr.mean())
    spread = float(arr.std(ddof=1))
    quantile = float(stats.t.ppf(0.5 + level / 2.0, k - 1))
    half = quantile * spread / math.sqrt(k)
    return mean, mean - half, mean + half
