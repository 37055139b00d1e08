"""Nest identification from boost factors and finite-sample tests.

An item's boost factor under an experiment S is its choice probability there
divided by its control probability.  Items sharing a nest always share a
boost factor; under general position, items of different nests can only
share one when both nests are fully offered, in which case it equals the
outside option's boost.  One rule engine turns these facts into an edge
matrix of same-nest deductions, fed by either of two comparators: relative
tolerance on exact boost factors, or a |z| cutoff on counts.  The noisy
identifiers replace equality with two-proportion z-tests, one pair kernel
call per chunk of consecutive experiments.  Each support is its row of the
count table's offer mask, led by the outside option as everywhere here: the
first row of its pairs (a < b) tests the items against it, and the rest are
the item pairs that no earlier chunk rejected.  Weights merge by elementwise
minimum into both orientations of each pair, and the symmetric soft evidence
matrix goes to community detection.  A p-value is evaluated only where it
sets an edge weight: pairs clearly past the alpha cutoff are rejected from
|z| alone, and math.erfc decides exactly near the cutoff.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .communities import detect_validated
from .designs import ExperimentDesign
from .model import (
    EXACT_TOLERANCE,
    ChoiceProbabilities,
    NestPartition,
    check_control_row,
    design_probabilities,
    item_position,
    offered_mask,
    relative_differ,
)
from .sampling import ChoiceCountTable, empirical_probabilities

NOISY_NULL = 2.0  # above any attainable p-value, so min() absorbs it
_PAIR_BUDGET = 1 << 10  # consecutive experiments are tested together up to this many pairs
SAMPLE_SIZE_CONSTANT = 25.0  # the absolute constant C of the finite-sample bound


class ZeroEvidenceError(ValueError):
    """Raised when a z-test's pooled counts vanish on either assortment."""


@dataclass(frozen=True, eq=False)
class BoostTable:
    """Boost factors as rows: factors[e, i] for item i in experiment e, NaN where not offered."""

    n: int
    outside: bool
    labels: tuple[str, ...]
    assortments: tuple[tuple[int, ...], ...]
    factors: np.ndarray

    def __post_init__(self):
        factors = np.asarray(self.factors, dtype=np.float64)
        object.__setattr__(self, "factors", factors)
        if not len(self.labels) == len(self.assortments) == len(factors):
            raise ValueError("misaligned boost table")
        offered = offered_mask(self.n, self.outside, self.assortments, self.labels)
        if not np.array_equal(offered, ~np.isnan(factors)):
            raise ValueError("boost rows must cover exactly the offered items")


def boost_factors(
    control: ChoiceProbabilities, experiments: list[ChoiceProbabilities],
    labels: tuple[str, ...] | None = None,
) -> BoostTable:
    """Ratio of each experiment probability to the control probability.

    The control row must pass check_control_row: every item 1..n, each (and
    the outside option) with a positive probability to divide by.
    """
    check_control_row(control)
    n = len(control.assortment)
    if labels is None:
        labels = tuple(f"S{k + 1}" for k in range(len(experiments)))
    if any(cp.outside != control.outside for cp in experiments):
        raise ValueError("outside-option flag differs between assortments")
    assortments = tuple(cp.assortment for cp in experiments)
    offered = offered_mask(n, control.outside, assortments, labels)
    probs = np.array([cp.probs for cp in experiments]).reshape(len(experiments), n + 1)
    factors = np.full(probs.shape, np.nan)
    np.divide(probs, control.probs, out=factors, where=offered)
    return BoostTable(n=n, outside=control.outside, labels=tuple(labels),
                      assortments=assortments, factors=factors)


def _pair_positions(n: int, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """Raveled n x n positions of each pair (rows, cols), broadcast together, and of its mirror."""
    return rows * n + cols, cols * n + rows


@dataclass
class EdgeMatrix:
    """Symmetric same-nest evidence between items; diagonal is unused.

    Exact mode holds {0, 1, null}; noisy mode holds confidence weights in
    [0, 1] once finalized.  inconsistencies records contradictory exact
    deductions (impossible on clean inputs) without failing.
    """

    values: np.ndarray
    inconsistencies: list[tuple[int, int, float, float]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def get(self, i: int, j: int) -> float:
        """Edge value between items i and j; KeyError outside 1..n."""
        return float(self.values[item_position(i, self.n), item_position(j, self.n)])

    def _write(self, rows: np.ndarray, cols: np.ndarray, value) -> None:
        """Set each 0-based pair (rows, cols), broadcast together, listed at most once, to value.

        Pairs already holding the other definite value are recorded, in row-major order.
        """
        flat = self.values.reshape(-1)
        index, mirror = _pair_positions(self.n, rows, cols)
        value = np.broadcast_to(np.asarray(value, dtype=np.float64), index.shape)
        old = flat[index]
        clash = ~np.isnan(old) & (old != value)
        row, col = np.divmod(index[clash], self.n)
        self.inconsistencies.extend(zip(
            (row + 1).tolist(), (col + 1).tolist(), old[clash].tolist(), value[clash].tolist()
        ))
        flat[index] = value
        flat[mirror] = value


def _unoffered_block(n: int, offered, flagged) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) pairing each flagged offered item with every unoffered item, as a block.

    A flagged item has its nest inside the experiment, so it splits from the
    whole block: exact mode writes 0 there, noisy mode merges 1 - p.
    """
    return offered[flagged][:, None], np.delete(np.arange(n), offered)


def _one_hop_transitivity(values: np.ndarray, open_: np.ndarray) -> None:
    """The one-hop rule: an open pair (i, j) with a shared definite-1 neighbour becomes 1.

    A neighbour k has values[i, k] == values[k, j] == 1; only full-confidence
    edges transport membership, and the diagonal stays as it is.  Snapshot
    semantics: all such pairs flip at once.  The product runs in float32 so
    BLAS computes it; path counts stay at most n, far below 2**24, so the
    result is exact.
    """
    ones = (values == 1.0).astype(np.float32)
    promote = open_ & ((ones @ ones) > 0.0)
    np.fill_diagonal(promote, False)
    values[promote] = 1.0


def _identify_missing_pairs_exact(values: np.ndarray) -> None:
    # A null pair with no definite-1 edge anywhere on either side must be a
    # nest that no experiment split; mark it same-nest.
    ones = values == 1.0
    has_one = ones.any(axis=1)
    promote = np.isnan(values) & ~has_one[:, None] & ~has_one[None, :]
    np.fill_diagonal(promote, False)
    values[promote] = 1.0


def _components_of_ones(values: np.ndarray) -> NestPartition:
    """Nests as the connected components of the definite-1 edges.

    Each item's root starts as itself and takes the smallest root across its
    1-edges, then jumps to its root's root, until every edge joins one root.
    Edges are read in both orientations, so the loop ends on any matrix.
    """
    ones = values == 1.0
    i, j = np.nonzero(ones | ones.T)
    root = np.arange(values.shape[0])
    while (root[i] != root[j]).any():
        np.minimum.at(root, i, root[j])
        root = root[root]
    order = np.argsort(root, kind="stable")
    return NestPartition(np.split(order + 1, np.flatnonzero(np.diff(root[order])) + 1))


def _finalize_exact(edges: EdgeMatrix) -> tuple[EdgeMatrix, NestPartition]:
    _one_hop_transitivity(edges.values, np.isnan(edges.values))
    _identify_missing_pairs_exact(edges.values)
    edges.values[np.isnan(edges.values)] = 0.0
    np.fill_diagonal(edges.values, 0.0)
    return edges, _components_of_ones(edges.values)


def _deduce(n: int, comparisons, outside: bool) -> tuple[EdgeMatrix, NestPartition]:
    """The deduction rules of exact identification, fed by either comparator.

    Each comparison (items, differ, boosted) covers one experiment: differ
    is 1.0 where two offered items' boosts differ, 0.0 where they agree and
    NaN where untested; boosted is 1.0 above the reference, 0.0 like it and
    NaN unknown.  Distinct boosts split a pair; a shared boost joins it when
    both items are boosted.  Unboosted items split from everything unoffered
    at once with an outside option.  Without one they form the minimum-boost
    group, resolved after all pair writes: split from the unoffered if two
    members are already split, else joined.  Writes (and inconsistencies)
    keep the order pairs, then splits, experiment by experiment.
    """
    edges = EdgeMatrix(values=np.full((n, n), np.nan))
    low_groups = []
    for items, differ, boosted in comparisons:
        offered = np.asarray(items, dtype=np.intp) - 1
        a, c = _upper_pairs(len(offered))
        pair = differ[a, c]
        join = (pair == 0.0) & (boosted[a] == 1.0) & (boosted[c] == 1.0)
        write = (pair == 1.0) | join
        edges._write(offered[a[write]], offered[c[write]], join[write].astype(np.float64))
        unboosted = boosted == 0.0
        if outside:
            edges._write(*_unoffered_block(n, offered, unboosted), 0.0)
        else:
            low_groups.append((offered, unboosted))
    for offered, low in low_groups:
        group = offered[low]
        if (edges.values[np.ix_(group, group)] == 0.0).any():
            edges._write(*_unoffered_block(n, offered, low), 0.0)
        else:
            a, c = _upper_pairs(len(group))
            edges._write(group[a], group[c], 1.0)
    return _finalize_exact(edges)


def _exact_comparisons(table: BoostTable, tol: float):
    """_deduce comparisons from exact boosts, equal within relative tolerance tol.

    The reference is the outside option's boost or, without one, the minimum;
    an item clearly below it (impossible on exact inputs) counts as unknown.
    """
    skip = int(table.outside)
    for items, bf in zip(table.assortments, table.factors):
        if not items:
            continue
        factors = bf[list(((0,) if table.outside else ()) + items)]
        differ = relative_differ(factors, tol)
        ref = 0 if table.outside else int(np.argmin(factors))
        boosted = np.where(
            differ[:, ref] == 0.0, 0.0, np.where(factors > factors[ref], 1.0, np.nan)
        )
        yield items, differ[skip:, skip:], boosted[skip:]


def exact_identify_with_outside(
    table: BoostTable, design: ExperimentDesign, tol: float = EXACT_TOLERANCE
) -> tuple[EdgeMatrix, NestPartition]:
    """Recover the nest partition from exact boost factors, outside option present.

    Within each experiment: distinct boosts split a pair, a shared boost
    above the outside's joins it, and items boosted like the outside option
    belong to nests inside S, so they split from everything outside S.
    One-hop transitivity and the missing-pair rule then fill what the
    experiments never directly tested.
    """
    if not table.outside:
        raise ValueError("boost table has no outside option")
    return _deduce(table.n, _exact_comparisons(table, tol), outside=True)


def exact_identify_without_outside(
    table: BoostTable, design: ExperimentDesign, tol: float = EXACT_TOLERANCE
) -> tuple[EdgeMatrix, NestPartition]:
    """Recover the nest partition from exact boost factors, no outside option.

    The minimum boost within an experiment stands in for the unobservable
    outside boost: anything above it behaves as before, while the minimum
    group itself is either one nest fully inside S (if its members ever
    split) or a joined group, decided per experiment against the evidence
    accumulated so far.
    """
    if table.outside:
        raise ValueError("boost table carries an outside option")
    return _deduce(table.n, _exact_comparisons(table, tol), outside=False)


@functools.lru_cache(maxsize=16)
def _upper_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair a < b of k positions, in np.triu_indices order; read-only."""
    a, b = np.triu_indices(k, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _pair_z(
    xs: np.ndarray, xc: np.ndarray, m_s: int, m_c: int, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two-proportion z scores for the pairs (a[k], b[k]) of one experiment's support.

    xs and xc count each support item's choices in its experiment and in
    the control, out of m_s (one count, or one per support item) and m_c
    customers; a and b index into them.  Returns z per pair, NaN where a
    pair has no evidence, and the has-evidence mask (pooled counts
    positive on both assortments).  Exactly antisymmetric: the
    numerator is cross-multiplied so swapping a pair negates the same float
    products instead of rounding two different quotients.
    """
    ns, nc = xs[a] + xs[b], xc[a] + xc[b]
    evidence = (ns > 0) & (nc > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ps, pc = xs / m_s, xc / m_c
        ps_a, ps_b, pc_a, pc_b = ps[a], ps[b], pc[a], pc[b]
        share_s, share_c = ps_a + ps_b, pc_a + pc_b
        numerator = (ps_a * pc_b - pc_a * ps_b) / (share_s * share_c)
        total = share_s + share_c  # grouped so swapping a and b sums identically
        pool = ps + pc
        variance = ((pool[a] / total) * (pool[b] / total)) * (1.0 / ns + 1.0 / nc)
        z = numerator / np.sqrt(variance)
    z[numerator == 0.0] = 0.0
    z[~evidence] = np.nan
    return z, evidence


def _counts(table: ChoiceCountTable, rows, cols) -> tuple:
    """_pair_z's xs, xc, m_s and m_c: choices of cols in rows and in the control, and customers."""
    return table.counts[rows, cols], table.counts[0, cols], table.sizes[rows], table.sizes[0]


def _support_z(
    table: ChoiceCountTable, experiment: int, support: tuple[int, ...], a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """_pair_z over the pairs (a, b) of the given items (0: outside option) of one experiment."""
    return _pair_z(*_counts(table, experiment + 1, list(support)), a, b)


def z_statistic(table: ChoiceCountTable, i: int, j: int, experiment: int) -> float:
    """Two-proportion z score for item i's share against j, experiment vs control.

    experiment indexes into the experiment list (0-based, control excluded).
    Works for per-assortment sample sizes; with equal sizes it reduces to
    the classical pooled form.  Exactly antisymmetric in (i, j): swapping
    the arguments negates the same float products (see _pair_z).
    """
    i, j = operator.index(i), operator.index(j)
    if i == j:
        raise ValueError("z statistic needs two distinct choices")
    for row in (0, experiment + 1):
        for item in (i, j):
            if not (table.outside if item == 0 else item in table.assortments[row]):
                raise ValueError(f"item {item} not offered in {table.labels[row]}")
    z, evidence = _support_z(table, experiment, (i, j), *_upper_pairs(2))
    if not evidence[0]:
        raise ZeroEvidenceError(
            f"no observations of items {i},{j} in {table.labels[experiment + 1]} or control"
        )
    return float(z[0])


@dataclass(frozen=True)
class TestConfig:
    """Finite-sample test settings.

    alpha rejects sameness, beta gates the no-boost deduction (1 - alpha by
    default).  z_threshold switches identification to the fixed-cutoff
    regime.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    alpha: float = 0.05
    beta: float | None = None
    z_threshold: float | None = None

    def __post_init__(self):
        if self.beta is None:
            object.__setattr__(self, "beta", 1.0 - self.alpha)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")


def _erfc(x: np.ndarray) -> np.ndarray:
    # math.erfc elementwise: scipy.special.erfc differs from it in the last bit.
    return np.fromiter(map(math.erfc, x.tolist()), np.float64, len(x))


SCREEN_BAND = 1e-3  # relative half-width of the zone where math.erfc decides exactly


@functools.lru_cache(maxsize=16)
def _rejection_band(alpha: float) -> tuple[float, float]:
    """(low, high) in u = |z| / sqrt 2: erfc(u) > alpha below low, <= alpha above high.

    Bisects math.erfc itself for where it crosses alpha (erfc(30) is 0),
    then widens the crossing by SCREEN_BAND relative plus 1e-12 absolute
    (the crossing nears 0 as alpha nears 1), far past erfc's last-bit error.
    """
    lo, hi = 0.0, 30.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid) <= alpha:
            hi = mid
        else:
            lo = mid
    return lo * (1.0 - SCREEN_BAND) - 1e-12, hi * (1.0 + SCREEN_BAND) + 1e-12


def _pair_weights(
    a: np.ndarray, b: np.ndarray, z: np.ndarray, evidence: np.ndarray,
    alpha: float, boosted: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (a, b) with evidence and their edge weights, given each pair's z.

    A pair whose two-sided p-value is at most alpha is rejected (weight 0).
    A kept pair weighs 1 when boosted marks both items, else its p-value.
    The p-value is computed only where it sets the weight or, inside the
    rejection band, decides the rejection.
    """
    a, b = a[evidence], b[evidence]
    u = np.abs(z[evidence]) / math.sqrt(2.0)
    low, high = _rejection_band(alpha)
    kept = u <= high
    near = kept & (u >= low)
    kept[near] = _erfc(u[near]) > alpha
    weight = np.zeros(len(u))
    sure = kept & boosted[a] & boosted[b]
    weight[sure] = 1.0
    kept &= ~sure
    weight[kept] = _erfc(u[kept])
    return a, b, weight


def _merge_min(values: np.ndarray, rows, cols, weight) -> None:
    """values[r, c] = values[c, r] = min(values[r, c], weight), elementwise.

    values stays symmetric, since each unordered pair is listed at most once:
    one gather and two scatters on the raveled matrix.
    """
    flat = values.reshape(-1)
    index, mirror = _pair_positions(values.shape[0], rows, cols)
    merged = np.minimum(flat[index], weight)
    flat[index] = merged
    flat[mirror] = merged


def _chunks(experiments) -> list[range]:
    """Consecutive experiments, in order, with at most _PAIR_BUDGET pairs together.

    An experiment with more pairs than that is a chunk of its own.
    """
    chunks, first, pairs = [], 0, 0
    for s, items in enumerate(experiments):
        count = math.comb(len(items), 2)
        if s > first and pairs + count > _PAIR_BUDGET:
            chunks.append(range(first, s))
            first, pairs = s, 0
        pairs += count
    if experiments:
        chunks.append(range(first, len(experiments)))
    return chunks


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The parts end to end; a single part as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _test_chunk(
    table: ChoiceCountTable, chunk: range, values: np.ndarray, config: TestConfig
) -> None:
    """Merge the noisy tests of consecutive experiments into values by elementwise minimum.

    Each experiment's support is its row of table.offered, the outside
    option (if any) then its items, end to end.  One _pair_z call tests the
    first row of each experiment's pairs, its items against the outside
    option, and the item pairs that values, as it stood before the chunk,
    does not hold at 0.  A pair that an earlier experiment of the chunk
    rejects is tested again to no effect, since 0 absorbs every minimum.
    Each experiment's pairs and unboosted items then merge on their own, so
    no merge lists a pair twice.  A chunk of one experiment runs on that
    experiment's arrays alone.
    """
    rows, cols = np.nonzero(table.offered[1:][chunk.start : chunk.stop])
    starts = np.searchsorted(rows, np.arange(len(chunk) + 1))  # each experiment's first position
    offered = cols - 1  # -1 at an outside option, which is no item: values[-1] is item n's row
    pairs = [_upper_pairs(k) for k in np.diff(starts).tolist()]
    a = _joined([p + start if start else p for (p, _), start in zip(pairs, starts)])
    b = _joined([q + start if start else q for (_, q), start in zip(pairs, starts)])
    # an item pair runs only while values does not hold it at 0; the outside option's
    # tests always run, whatever values[-1] holds
    open_ = (cols[a] == 0) | (values[offered[a], offered[b]] != 0.0)
    a, b = a[open_], b[open_]
    outside = cols[a] == 0
    z, evidence = _pair_z(*_counts(table, rows + (chunk.start + 1), cols), a, b)
    # one-sided p-value of 'no boost over the outside option', at each item; NaN untested.
    # -z is the (item, outside) z bit for bit: _pair_z is exactly antisymmetric.
    tested = outside & evidence
    p_leq = np.full(len(cols), np.nan)
    p_leq[b[tested]] = 0.5 * _erfc(-z[tested] / math.sqrt(2.0))
    a, b, weight = _pair_weights(a, b, z, evidence & ~outside, config.alpha, p_leq <= config.alpha)
    cuts = np.searchsorted(a, starts).tolist()  # each experiment's slice of the tested pairs
    for e, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        _merge_min(values, offered[a[lo:hi]], offered[b[lo:hi]], weight[lo:hi])
        own = slice(starts[e] + table.outside, starts[e + 1])
        unboosted = p_leq[own] > config.beta
        if unboosted.any():
            block = _unoffered_block(table.n, offered[own], unboosted)
            _merge_min(values, *block, (1.0 - p_leq[own][unboosted])[:, None])


def _noisy_identify(
    table: ChoiceCountTable, config: TestConfig
) -> tuple[EdgeMatrix, NestPartition]:
    """Both noisy identifiers; the outside-option tests and one-hop transitivity need one.

    Consecutive experiments are tested in chunks of at most _PAIR_BUDGET
    pairs (_test_chunk); an experiment with more pairs is a chunk of its
    own.  The finished matrix is symmetric, finite and non-negative with a
    zero diagonal, so community detection takes a copy of it unchecked.
    """
    if config.z_threshold is not None:
        return _deduce(table.n, _threshold_comparisons(table, config.z_threshold), table.outside)
    n = table.n
    values = np.full((n, n), NOISY_NULL)
    for chunk in _chunks(table.assortments[1:]):
        _test_chunk(table, chunk, values, config)
    if table.outside:
        _one_hop_transitivity(values, values != 0.0)  # any pair not rejected
    values[values == NOISY_NULL] = 0.0
    np.fill_diagonal(values, 0.0)
    return EdgeMatrix(values=values), detect_validated(values.copy())


def noisy_identify_with_outside(
    table: ChoiceCountTable, design: ExperimentDesign, config: TestConfig | None = None
) -> tuple[EdgeMatrix, NestPartition]:
    """Estimate the nest partition from finite-sample counts, outside option present.

    Pairwise equality tests at level alpha harden edges to 0; confidently
    boosted equal pairs count as full evidence; everything else keeps the
    smallest p-value seen as a soft weight.  Items confidently unboosted
    discount their edges to items outside the experiment.  With alpha = 1
    every pair is rejected; with alpha = 0 nothing is and the matrix stays
    purely soft.  Chunks of consecutive experiments run their tests as
    array computations, and every update is a minimum, so experiments
    combine in any order.
    """
    if not table.outside:
        raise ValueError("count table has no outside option")
    return _noisy_identify(table, config or TestConfig())


def noisy_identify_without_outside(
    table: ChoiceCountTable, design: ExperimentDesign, config: TestConfig | None = None
) -> tuple[EdgeMatrix, NestPartition]:
    """Estimate the nest partition from finite-sample counts, no outside option.

    Without an outside reference only pairwise equality is testable: rejected
    pairs harden to 0 and surviving pairs keep their smallest p-value as soft
    same-nest evidence for community detection.
    """
    if table.outside:
        raise ValueError("count table carries an outside option")
    return _noisy_identify(table, config or TestConfig())


def _threshold_comparisons(table: ChoiceCountTable, threshold: float):
    """_deduce comparisons from counts, boosts differing where |z| > threshold.

    In the large-sample regime the cutoff classifies every comparison
    correctly, so the exact rules apply.  The reference is the outside
    option or, without one, the item with the smallest empirical boost (ties
    to the smaller id); an experiment where no item has one is skipped.
    """
    skip = int(table.outside)
    for s, items in enumerate(table.assortments[1:]):
        support = np.flatnonzero(table.offered[s + 1])
        ref = 0
        if not table.outside:
            xs, xc = table.counts[[s + 1, 0]][:, list(items)]
            m_s, m_c = table.sizes[[s + 1, 0]]
            seen = xc > 0
            if m_s == 0 or not seen.any():
                continue
            ratio = np.full(len(items), np.inf)
            ratio[seen] = (xs[seen] / m_s) / (xc[seen] / m_c)
            ref = int(np.lexsort((items, ratio))[0])
        a, b = _upper_pairs(len(support))
        z = _support_z(table, s, support, a, b)[0]
        differ = np.full((len(support), len(support)), np.nan)
        differ[a, b] = differ[b, a] = np.where(np.isnan(z), np.nan, np.abs(z) > threshold)
        boosted = differ[:, ref].copy()
        boosted[ref] = 0.0
        yield items, differ[skip:, skip:], boosted[skip:]


def boost_factors_from_counts(table: ChoiceCountTable) -> BoostTable:
    """Empirical boost factors, for running the exact algorithms on counts."""
    probs = empirical_probabilities(table)
    return boost_factors(probs[0], probs[1:], labels=table.labels[1:])


def theorem_pair_count(n: int, num_experiments: int) -> int:
    """Number of simultaneously controlled estimates in the sample bound."""
    return (num_experiments + 1) * (n + 1 + math.comb(n + 1, 2))


def theorem_z_threshold(pair_count: int, delta: float) -> float:
    """|z| cutoff below which a pair is declared equal, valid w.p. 1 - delta."""
    return 8.0 * math.sqrt(3.0 * math.log(2.0 * pair_count / delta))


def theorem_sample_size(rho: float, margin: float, pair_count: int, delta: float) -> int:
    """Per-assortment samples sufficient for the cutoff to classify every pair."""
    c2 = SAMPLE_SIZE_CONSTANT**2
    return math.ceil(3.0 * c2 * math.log(2.0 * pair_count / delta) / (rho * margin * margin))


def theorem_margins(model, design: ExperimentDesign) -> tuple[float, float]:
    """(rho, Delta): control floor and smallest detectable share difference.

    rho floors every control probability (outside included).  Delta is the
    smallest |conditional share difference| over experiment pairs whose
    boosts genuinely differ; with no such pair it defaults to 1.
    """
    lead = (0,) if model.outside else ()
    control, *rows = (cp.probs for cp in design_probabilities(model, design))
    rho = float(control[list(lead + design.control)].min())
    delta = 1.0
    for items, probs in zip(design.experiments, rows):
        support = list(lead + tuple(items))
        ps = probs[support]
        pc = control[support]
        a, c = np.nonzero(np.triu(relative_differ(ps / pc) == 1.0, 1))
        if a.size:
            gaps = np.abs(ps[a] / (ps[a] + ps[c]) - pc[a] / (pc[a] + pc[c]))
            delta = min(delta, float(gaps.min()))
    return rho, delta
