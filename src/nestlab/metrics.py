"""Model and partition quality metrics.

rmse_soft averages squared choice-probability error over every nonempty
assortment (the restricted variant over a fixed list); rand_index scores a
recovered partition by pairwise co-membership agreement; confidence
intervals are Student-t over independent instances.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from .model import ChoiceProbabilities, NestPartition, NestedLogitModel

EXHAUSTIVE_LIMIT = 20  # 2**n probability table; past this use the restricted form


def all_subset_probabilities(model: NestedLogitModel) -> np.ndarray:
    """Choice probabilities for every nonempty assortment, vectorized.

    Row s - 1 (s = 1..2**n - 1) covers the assortment whose bitmask is s,
    with columns 0..n; column 0 is the outside option (all zero when the
    model has none) and column i the probability of item i, zero when not
    offered.
    """
    n = model.n
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_LIMIT}")
    count = (1 << n) - 1
    codes = np.arange(1, count + 1, dtype=np.uint32)
    masks = ((codes[:, None] >> np.arange(n)) & 1).astype(bool)  # column t: item t+1
    weights = np.asarray(model.weights)
    nest_values = np.zeros((count, model.partition.num_nests))
    within_sums = np.zeros((count, model.partition.num_nests))
    for k, nest in enumerate(model.partition.nests):
        cols = np.asarray(nest, dtype=np.int64) - 1
        offered_sum = masks[:, cols] @ weights[cols]
        within_sums[:, k] = offered_sum
        lam = model.lambdas[k]
        present = offered_sum > 0.0
        if lam == 0.0:
            nest_values[present, k] = model.degenerate_weights[k]
        else:
            nest_values[present, k] = np.exp(lam * np.log(offered_sum[present]))
    denom = (1.0 if model.outside else 0.0) + nest_values.sum(axis=1)
    probs = np.zeros((count, n + 1))
    if model.outside:
        probs[:, 0] = 1.0 / denom
    labels = model.partition.labels()
    for i in range(1, n + 1):
        k = labels[i - 1]
        offered = masks[:, i - 1]
        probs[offered, i] = (
            nest_values[offered, k] / denom[offered] * weights[i - 1] / within_sums[offered, k]
        )
    return probs


def rmse_soft(truth: NestedLogitModel, estimate: NestedLogitModel) -> float:
    """Root mean squared choice-probability error over all nonempty assortments.

    Each assortment contributes one squared error per offered item, plus one
    for the outside option when present; the mean is over all contributions.
    """
    if truth.n != estimate.n:
        raise ValueError("models must share the item set")
    if truth.outside != estimate.outside:
        raise ValueError("models must agree on the outside option")
    n = truth.n
    diff = all_subset_probabilities(truth) - all_subset_probabilities(estimate)
    total = float((diff * diff).sum())
    cells = n * (1 << (n - 1))  # sum of |S| over nonempty S
    if truth.outside:
        cells += (1 << n) - 1
    return math.sqrt(total / cells)


def _aligned(true_probs: list[ChoiceProbabilities], est_probs: list[ChoiceProbabilities]):
    if len(true_probs) != len(est_probs):
        raise ValueError("probability lists differ in length")
    for t, e in zip(true_probs, est_probs):
        if t.assortment != e.assortment:
            raise ValueError(
                f"assortment mismatch: {t.assortment} vs {e.assortment}"
            )
        if t.outside != e.outside:
            raise ValueError("outside-option flag mismatch")
        yield t, e


def rmse_soft_restricted(
    true_probs: list[ChoiceProbabilities], est_probs: list[ChoiceProbabilities]
) -> float:
    """rmse_soft over a fixed assortment list instead of all subsets."""
    total = 0.0
    cells = 0
    for t, e in _aligned(true_probs, est_probs):
        support = list(t.assortment) + ([0] if t.outside else [])
        for i in support:
            total += (t.probs[i] - e.probs[i]) ** 2
        cells += len(support)
    if cells == 0:
        raise ValueError("no assortments to score")
    return math.sqrt(total / cells)


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
