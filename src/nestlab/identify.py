"""Nest identification from boost factors and finite-sample tests.

An item's boost factor under an experiment S is its choice probability there
divided by its control probability.  Items sharing a nest always share a
boost factor; under general position, items of different nests can only
share one when both nests are fully offered, in which case it equals the
outside option's boost.  One rule engine turns these facts into an edge
matrix of same-nest deductions, fed by either of two comparators: relative
tolerance on exact boost factors, or a |z| cutoff on counts.  The noisy
identifiers replace equality with two-proportion z-tests, run per experiment
as array operations over every pair of offered items (outside option
included), merge each experiment by elementwise minimum and hand the soft
evidence matrix to community detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .communities import community_detect
from .designs import ExperimentDesign
from .model import ChoiceProbabilities, NestPartition, choice_probabilities, offered_mask
from .sampling import ChoiceCountTable, empirical_probabilities

EXACT_TOLERANCE = 1e-9  # relative; exact inputs only carry roundoff noise
NOISY_NULL = 2.0  # above any attainable p-value, so min() absorbs it
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

    Control must be over the full item set; items (or the outside option)
    with zero control probability have no defined boost and are rejected.
    """
    n = len(control.assortment)
    if control.assortment != tuple(range(1, n + 1)):
        raise ValueError("control probabilities must cover items 1..n")
    if labels is None:
        labels = tuple(f"S{k + 1}" for k in range(len(experiments)))
    if any(cp.outside != control.outside for cp in experiments):
        raise ValueError("outside-option flag differs between assortments")
    assortments = tuple(cp.assortment for cp in experiments)
    offered = offered_mask(n, control.outside, assortments, labels)
    dead = np.argwhere(offered & (control.probs == 0.0))
    if dead.size:
        raise ValueError(f"zero control probability for item {dead[0, 1]}")
    probs = np.array([cp.probs for cp in experiments]).reshape(len(experiments), n + 1)
    factors = np.full(probs.shape, np.nan)
    np.divide(probs, control.probs, out=factors, where=offered)
    return BoostTable(
        n=n,
        outside=control.outside,
        labels=tuple(labels),
        assortments=assortments,
        factors=factors,
    )


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
        return float(self.values[i - 1, j - 1])

    def _write(self, rows: np.ndarray, cols: np.ndarray, value) -> None:
        """Set each 0-based pair (rows[k], cols[k]), listed at most once, to value.

        Pairs already holding the other definite value are recorded, in order.
        """
        value = np.broadcast_to(np.asarray(value, dtype=np.float64), rows.shape)
        old = self.values[rows, cols]
        clash = ~np.isnan(old) & (old != value)
        self.inconsistencies.extend(zip(
            (rows[clash] + 1).tolist(), (cols[clash] + 1).tolist(),
            old[clash].tolist(), value[clash].tolist(),
        ))
        self.values[rows, cols] = value
        self.values[cols, rows] = value


def _shares_definite_one(values: np.ndarray) -> np.ndarray:
    """(i, j) pairs with some k where values[i, k] == values[k, j] == 1.

    The product runs in float64 so BLAS computes it; path counts stay far
    below 2**53, so the result is exact.
    """
    ones = (values == 1.0).astype(np.float64)
    return (ones @ ones) > 0.0


def _one_hop_transitivity_exact(values: np.ndarray) -> None:
    # Snapshot semantics: all (i,j) with a shared definite-1 neighbor flip at once.
    promote = np.isnan(values) & _shares_definite_one(values)
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
    n = values.shape[0]
    ones = values == 1.0
    seen = np.zeros(n, dtype=bool)
    nests = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        group = []
        while stack:
            u = stack.pop()
            group.append(u + 1)
            for v in np.nonzero(ones[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        nests.append(sorted(group))
    return NestPartition(nests)


def _finalize_exact(edges: EdgeMatrix) -> tuple[EdgeMatrix, NestPartition]:
    _one_hop_transitivity_exact(edges.values)
    _identify_missing_pairs_exact(edges.values)
    edges.values[np.isnan(edges.values)] = 0.0
    np.fill_diagonal(edges.values, 0.0)
    return edges, _components_of_ones(edges.values)


def _split_from_unoffered(
    edges: EdgeMatrix, offered: np.ndarray, members: np.ndarray
) -> None:
    # The flagged offered items have their nests inside the experiment, so
    # each splits from every unoffered item.
    unoffered = np.ones(edges.n, dtype=bool)
    unoffered[offered] = False
    rows, cols = np.nonzero(np.logical_and.outer(members, unoffered))
    edges._write(offered[rows], cols, 0.0)


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
        a, c = np.triu_indices(len(offered), 1)
        pair = differ[a, c]
        join = (pair == 0.0) & (boosted[a] == 1.0) & (boosted[c] == 1.0)
        write = (pair == 1.0) | join
        edges._write(offered[a[write]], offered[c[write]], join[write].astype(np.float64))
        unboosted = boosted == 0.0
        if outside:
            _split_from_unoffered(edges, offered, unboosted)
        else:
            low_groups.append((offered, unboosted))
    for offered, low in low_groups:
        group = offered[low]
        if (edges.values[np.ix_(group, group)] == 0.0).any():
            _split_from_unoffered(edges, offered, low)
        else:
            a, c = np.triu_indices(len(group), 1)
            edges._write(group[a], group[c], 1.0)
    return _finalize_exact(edges)


def _boosts_differ(factors: np.ndarray, tol: float) -> np.ndarray:
    """1.0 where two boost factors differ beyond relative tolerance tol, else 0.0."""
    size = np.abs(factors)
    bound = tol * np.maximum(size[:, None], size[None, :])
    return (~(np.abs(factors[:, None] - factors[None, :]) <= bound)).astype(np.float64)


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
        differ = _boosts_differ(factors, tol)
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


def _pairwise_z(
    xs: np.ndarray, xc: np.ndarray, m_s: int, m_c: int
) -> tuple[np.ndarray, np.ndarray]:
    """Two-proportion z scores for every ordered pair of one experiment's support.

    xs and xc count each support item's choices in the experiment and in the
    control, out of m_s and m_c customers.  Returns the z matrix, NaN where
    a pair has no evidence, and the has-evidence mask (pooled counts positive
    on both assortments).  Exactly antisymmetric: the numerator is
    cross-multiplied so swapping a pair negates the same float products
    instead of rounding two different quotients.
    """
    ns = xs[:, None] + xs[None, :]
    nc = xc[:, None] + xc[None, :]
    evidence = (ns > 0) & (nc > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ps, pc = xs / m_s, xc / m_c
        share_s = ps[:, None] + ps[None, :]
        share_c = pc[:, None] + pc[None, :]
        numerator = (ps[:, None] * pc[None, :] - pc[:, None] * ps[None, :]) / (share_s * share_c)
        # grouped so the sum is evaluated identically with i and j swapped
        total = share_s + share_c
        pool = ps + pc
        variance = ((pool[:, None] / total) * (pool[None, :] / total)) * (1.0 / ns + 1.0 / nc)
        z = numerator / np.sqrt(variance)
    z[numerator == 0.0] = 0.0
    z[~evidence] = np.nan
    return z, evidence


def _support_z(
    table: ChoiceCountTable, experiment: int, support: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """_pairwise_z over the given items (0: outside option) of one experiment."""
    row, cols = experiment + 1, list(support)
    return _pairwise_z(
        table.counts[row, cols], table.counts[0, cols], table.sizes[row], table.sizes[0]
    )


def z_statistic(table: ChoiceCountTable, i: int, j: int, experiment: int) -> float:
    """Two-proportion z score for item i's share against j, experiment vs control.

    experiment indexes into the experiment list (0-based, control excluded).
    Works for per-assortment sample sizes; with equal sizes it reduces to
    the classical pooled form.  Exactly antisymmetric in (i, j): swapping
    the arguments negates the same float products (see _pairwise_z).
    """
    if i == j:
        raise ValueError("z statistic needs two distinct choices")
    for row in (0, experiment + 1):
        for item in (i, j):
            if not (table.outside if item == 0 else item in table.assortments[row]):
                raise ValueError(f"item {item} not offered in {table.labels[row]}")
    z, evidence = _support_z(table, experiment, (i, j))
    if not evidence[0, 1]:
        raise ZeroEvidenceError(
            f"no observations of items {i},{j} in {table.labels[experiment + 1]} or control"
        )
    return float(z[0, 1])


def p_value_equal(table: ChoiceCountTable, i: int, j: int, experiment: int) -> float:
    """Two-sided p-value for 'items i and j saw the same boost'."""
    z = z_statistic(table, i, j, experiment)
    return math.erfc(abs(z) / math.sqrt(2.0))


def p_value_leq_outside(table: ChoiceCountTable, i: int, experiment: int) -> float:
    """One-sided p-value for 'item i's boost is at most the outside option's'."""
    z = z_statistic(table, i, 0, experiment)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


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


# math.erfc elementwise: scipy.special.erfc differs from it in the last bit.
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _tested_pairs(
    z: np.ndarray, evidence: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle pairs (a, b) with evidence and their two-sided p-values."""
    a, b = np.triu_indices(z.shape[0], 1)
    keep = evidence[a, b]
    a, b = a[keep], b[keep]
    return a, b, _erfc(np.abs(z[a, b]) / math.sqrt(2.0)).astype(np.float64)


def _merge_min(values: np.ndarray, rows, cols, weight) -> None:
    """values[r, c] = values[c, r] = min(values[r, c], weight), elementwise."""
    merged = np.minimum(values[rows, cols], weight)
    values[rows, cols] = merged
    values[cols, rows] = merged


def _one_hop_transitivity_noisy(values: np.ndarray) -> None:
    # Only full-confidence edges (exactly 1.0) may transport membership.
    promote = (values != 0.0) & _shares_definite_one(values)
    np.fill_diagonal(promote, False)
    values[promote] = 1.0


def noisy_identify_with_outside(
    table: ChoiceCountTable, design: ExperimentDesign, config: TestConfig | None = None
) -> tuple[EdgeMatrix, NestPartition]:
    """Estimate the nest partition from finite-sample counts, outside option present.

    Pairwise equality tests at level alpha harden edges to 0; confidently
    boosted equal pairs count as full evidence; everything else keeps the
    smallest p-value seen as a soft weight.  Items confidently unboosted
    discount their edges to items outside the experiment.  With alpha = 1
    every pair is rejected; with alpha = 0 nothing is and the matrix stays
    purely soft.  Each experiment's tests run as one array computation and
    every update is a minimum, so experiments combine in any order.
    """
    if config is None:
        config = TestConfig()
    if not table.outside:
        raise ValueError("count table has no outside option")
    if config.z_threshold is not None:
        comparisons = _threshold_comparisons(table, config.z_threshold)
        return _deduce(table.n, comparisons, outside=True)
    n = table.n
    values = np.full((n, n), NOISY_NULL)
    for s, items in enumerate(table.assortments[1:]):
        offered = np.asarray(items, dtype=np.intp) - 1
        z, evidence = _support_z(table, s, (0, *items))
        # one-sided p-value of 'no boost over the outside option'; NaN untested
        p_leq = np.full(len(items), np.nan)
        tested = evidence[1:, 0]
        p_leq[tested] = 0.5 * _erfc(z[1:, 0][tested] / math.sqrt(2.0)).astype(np.float64)
        boosted = p_leq <= config.alpha
        a, b, p_eq = _tested_pairs(z[1:, 1:], evidence[1:, 1:])
        weight = np.where(
            p_eq <= config.alpha, 0.0, np.where(boosted[a] & boosted[b], 1.0, p_eq)
        )
        _merge_min(values, offered[a], offered[b], weight)
        unboosted = p_leq > config.beta
        if unboosted.any():
            unoffered = np.setdiff1d(np.arange(n), offered)
            _merge_min(
                values, offered[unboosted][:, None], unoffered[None, :],
                (1.0 - p_leq[unboosted])[:, None],
            )
    _one_hop_transitivity_noisy(values)
    values[values == NOISY_NULL] = 0.0
    np.fill_diagonal(values, 0.0)
    return EdgeMatrix(values=values), community_detect(values)


def noisy_identify_without_outside(
    table: ChoiceCountTable, design: ExperimentDesign, config: TestConfig | None = None
) -> tuple[EdgeMatrix, NestPartition]:
    """Estimate the nest partition from finite-sample counts, no outside option.

    Without an outside reference only pairwise equality is testable: rejected
    pairs harden to 0 and surviving pairs keep their smallest p-value as soft
    same-nest evidence for community detection.
    """
    if config is None:
        config = TestConfig()
    if table.outside:
        raise ValueError("count table carries an outside option")
    if config.z_threshold is not None:
        comparisons = _threshold_comparisons(table, config.z_threshold)
        return _deduce(table.n, comparisons, outside=False)
    n = table.n
    values = np.full((n, n), NOISY_NULL)
    for s, items in enumerate(table.assortments[1:]):
        offered = np.asarray(items, dtype=np.intp) - 1
        a, b, p_eq = _tested_pairs(*_support_z(table, s, items))
        _merge_min(values, offered[a], offered[b], np.where(p_eq <= config.alpha, 0.0, p_eq))
    values[values == NOISY_NULL] = 0.0
    np.fill_diagonal(values, 0.0)
    return EdgeMatrix(values=values), community_detect(values)


def _threshold_comparisons(table: ChoiceCountTable, threshold: float):
    """_deduce comparisons from counts, boosts differing where |z| > threshold.

    In the large-sample regime the cutoff classifies every comparison
    correctly, so the exact rules apply.  The reference is the outside
    option or, without one, the item with the smallest empirical boost (ties
    to the smaller id); an experiment where no item has one is skipped.
    """
    skip = int(table.outside)
    for s, items in enumerate(table.assortments[1:]):
        support = list(((0,) if table.outside else ()) + items)
        xs, xc = table.counts[s + 1, support], table.counts[0, support]
        m_s, m_c = table.sizes[s + 1], table.sizes[0]
        ref = 0
        if not table.outside:
            seen = xc > 0
            if m_s == 0 or not seen.any():
                continue
            ratio = np.full(len(items), np.inf)
            ratio[seen] = (xs[seen] / m_s) / (xc[seen] / m_c)
            ref = int(np.lexsort((items, ratio))[0])
        z = _pairwise_z(xs, xc, m_s, m_c)[0]
        differ = np.where(np.isnan(z), np.nan, np.abs(z) > threshold)
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


def theorem_margins(model, design: ExperimentDesign, tol: float = EXACT_TOLERANCE) -> tuple[float, float]:
    """(rho, Delta): control floor and smallest detectable share difference.

    rho floors every control probability (outside included).  Delta is the
    smallest |conditional share difference| over experiment pairs whose
    boosts genuinely differ; with no such pair it defaults to 1.
    """
    lead = (0,) if model.outside else ()
    control = choice_probabilities(model, design.control).probs
    rho = float(control[list(lead + design.control)].min())
    delta = 1.0
    for items in design.experiments:
        if not items:
            continue
        support = list(lead + tuple(items))
        ps = choice_probabilities(model, items).probs[support]
        pc = control[support]
        a, c = np.nonzero(np.triu(_boosts_differ(ps / pc, tol) == 1.0, 1))
        if a.size:
            gaps = np.abs(ps[a] / (ps[a] + ps[c]) - pc[a] / (pc[a] + pc[c]))
            delta = min(delta, float(gaps.min()))
    return rho, delta
