"""Parameter recovery given a nest partition.

Within-nest weights come straight from control-probability ratios.  Each
nest's dissimilarity and scale then satisfy a log-linear relation against an
anchor nest (the outside option when present, else the first nest, whose
scale is normalized to 1): for any assortment T,

    log(P(anchor|T) / P(N|T)) = lambda_anchor * A_T - lambda_N * B_T - s_N

with A_T, B_T the log within-nest weight sums over the offered members and
s_N = lambda_N * log(c_N) (or log v_N for a degenerate nest).  Exact inputs
solve the control row plus one experiment per free lambda.  On any design,
those experiments are the ones whose system has the largest |determinant|.
Relative to the control row it is a 2x2 minor (or one entry) of the log
fractions of each nest's weight that each experiment offers, so nonzero
means solvable.  Noisy inputs use every usable assortment in one
least-squares fit, solved in closed form: one slope-and-intercept
regression per nest, after a shared anchor lambda is eliminated by one
scalar equation.  Both paths build their rows the same way
(_log_linear_system, whose right-hand side the closed form shares) and
turn each nest's solved (lambda_N, s_N) into parameters by one rule
(_fitted_model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .designs import ExperimentDesign
from .model import (
    LAMBDA_ROUNDOFF,
    ChoiceProbabilities,
    NestPartition,
    NestedLogitModel,
    check_control_row,
    nest_sums,
    offered_mask,
    singleton_partition,
)

SINGULARITY_RTOL = 1e-10  # |det| below this times the row-norm product is singular
ANCHOR_AGREEMENT = 1e-8  # independent estimates of lambda_anchor must agree this well
DEGENERATE_LAMBDA = 1e-9  # solved lambda below this is read as a lambda = 0 nest
COUNT_FLOOR = 0.5  # pseudo-count for empty cells in the noisy path
LOG_CAP = 700.0  # exp() overflow guard for pathological scales


class RecoveryError(ValueError):
    """Raised when exact recovery cannot certify its output."""


class SingularSystemError(RecoveryError):
    """Raised when the recovery system's determinant is numerically zero."""


def within_nest_weights(
    control: ChoiceProbabilities, partition: NestPartition
) -> np.ndarray:
    """Item weights relative to the lowest-index member of each nest.

    Control probabilities of same-nest items have the same nest factor, so
    their ratio is the weight ratio.  Returns an item-indexed vector of
    length n + 1 (entry 0 unused, 0).  The row must pass check_control_row
    over the partition's items: a zero item carries no weight information,
    a zero outside option is the anchor every nest is measured against.
    """
    check_control_row(control, partition)
    first = np.array([nest[0] for nest in partition.nests])
    weights = np.zeros(partition.n + 1)
    weights[1:] = control.probs[1:] / control.probs[first[partition.labels()]]
    return weights


def _check_determinant(matrix: np.ndarray) -> None:
    det = float(np.linalg.det(matrix))
    scale = float(np.prod(np.linalg.norm(matrix, axis=1)))
    if abs(det) < SINGULARITY_RTOL * scale:
        raise SingularSystemError(
            f"recovery system is singular (|det| = {abs(det):.3e})"
        )


def _clamp_lambda(lam: float, context: str, flags: list[str] | None = None) -> float:
    """lam clamped into [0, 1]; beyond LAMBDA_ROUNDOFF of it (or NaN), context is raised
    as a RecoveryError.  With flags given (least squares) a lambda below 0 reads as a
    lambda = 0 nest, and only one above 1 + LAMBDA_ROUNDOFF (or NaN) is flagged."""
    if flags is None and not -LAMBDA_ROUNDOFF <= lam <= 1.0 + LAMBDA_ROUNDOFF:
        raise RecoveryError(f"{context}: lambda = {lam} outside [0, 1]")
    if flags is not None and not lam <= 1.0 + LAMBDA_ROUNDOFF:
        flags.append(context)
    return min(1.0, max(0.0, lam))


def _log_linear_rhs(
    a: np.ndarray, b: np.ndarray, y: np.ndarray, lam_col: np.ndarray, anchor_free: bool
) -> np.ndarray:
    """The right-hand side of _log_linear_system's rows, pinned terms moved across."""
    rhs = np.array(y, dtype=float)
    if not anchor_free:
        rhs -= a
    pinned = lam_col < 0
    rhs[pinned] += b[pinned]
    return rhs


def _log_linear_system(
    a: np.ndarray, b: np.ndarray, y: np.ndarray,
    lam_col: np.ndarray, scale_col: np.ndarray, anchor_free: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, rhs) of the rows lambda_anchor * A - lambda_N * B - s_N = y.

    Column 0 is lambda_anchor when anchor_free; otherwise that lambda is 1
    and A moves to the right-hand side.  Row r puts lambda_N in column
    lam_col[r], or moves B to the right-hand side where lam_col[r] = -1
    (lambda_N pinned at 1), and s_N in column scale_col[r]; the scale
    columns come last.
    """
    rows = np.arange(len(y))
    matrix = np.zeros((len(y), int(scale_col.max()) + 1))
    if anchor_free:
        matrix[:, 0] = a
    free = lam_col >= 0
    matrix[rows[free], lam_col[free]] = -b[free]
    matrix[rows, scale_col] = -1.0
    return matrix, _log_linear_rhs(a, b, y, lam_col, anchor_free)


def _solve_log_linear(
    a: np.ndarray, b: np.ndarray, y: np.ndarray,
    lam_col: np.ndarray, scale_col: np.ndarray, anchor_free: bool,
) -> tuple[np.ndarray, bool]:
    """The least-squares solution of _log_linear_system's rows, in its column layout.

    Returns the solution of least norm, as numpy's SVD-based lstsq does, and
    whether it is the only one.  The rows of one s_N column share one lambda
    column (or all pin it), so the fit splits by nest: s_N is the intercept
    and lambda_N the slope on -B of that nest's rows.  Centring each nest's
    rows removes s_N and regressing out the centred -B removes lambda_N; a
    free lambda_anchor then solves one scalar equation over all rows, and
    each nest's slope and intercept follow from its own sums.  A reduced
    sum of squares at or below lstsq's rank cutoff, (eps * max(rows,
    columns))**2 times the unreduced one, leaves its unknown undetermined:
    that unknown is set to 0 and the solution is then projected off every
    undetermined direction.
    """
    free = lam_col >= 0
    rhs = _log_linear_rhs(a, b, y, lam_col, anchor_free)
    slope = np.where(free, -b, 0.0)  # the lambda_N column's entries
    count = np.bincount(scale_col)
    width = len(count)
    cutoff = (np.finfo(float).eps * max(len(y), width)) ** 2
    nest_lam = np.full(width, -1)  # each s_N column's lambda column
    nest_lam[scale_col] = lam_col

    def nest_sum(x: np.ndarray) -> np.ndarray:
        return np.bincount(scale_col, x, width)

    def nest_mean(x: np.ndarray) -> np.ndarray:
        return nest_sum(x) / np.maximum(count, 1)  # columns without rows read 0

    def centred(x: np.ndarray) -> np.ndarray:
        return x - nest_mean(x)[scale_col]

    u = centred(slope)
    suu = nest_sum(u * u)
    sloped = suu > cutoff * nest_sum(slope * slope)  # False on pinned nests' 0 > 0
    inv_suu = np.divide(1.0, suu, out=np.zeros(width), where=sloped)
    mean_slope = nest_mean(slope)
    # Undetermined directions: changes of the unknowns that leave every
    # row's residual unchanged (to the cutoff).  A free nest whose -B does
    # not vary has lambda_N = 1, s_N = mean -B.
    undetermined = []
    for k in np.flatnonzero((nest_lam >= 0) & ~sloped).tolist():
        direction = np.zeros(width)
        direction[[nest_lam[k], k]] = 1.0, mean_slope[k]
        undetermined.append(direction)
    sol = np.zeros(width)
    if anchor_free:
        beta = nest_sum(u * a) * inv_suu  # A's slope on -B in each nest
        ra = centred(a) - beta[scale_col] * u  # A reduced; orthogonal to each nest's -B
        saa = float(ra @ ra)
        if saa > cutoff * float(a @ a):
            sol[0] = float(ra @ centred(rhs)) / saa
            rhs = rhs - sol[0] * a
        else:  # A is each nest's line in -B: lambda_anchor = 1, lambda_N = -beta_N
            direction = nest_mean(a) - beta * mean_slope
            direction[0] = 1.0
            direction[nest_lam[sloped]] = -beta[sloped]
            undetermined.append(direction)
    lam = nest_sum(u * rhs) * inv_suu
    sol[nest_lam[sloped]] = lam[sloped]
    has_rows = count > 0
    sol[has_rows] = (lam * mean_slope - nest_mean(rhs))[has_rows]
    if undetermined:
        basis = np.array(undetermined).T
        sol -= basis @ np.linalg.solve(basis.T @ basis, basis.T @ sol)
    return sol, not undetermined


def _row_terms(
    probs: np.ndarray, offered: np.ndarray, weights: np.ndarray, partition: NestPartition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, Y): the system terms of every assortment t (rows, control first) at once.

    B[k, t] is nest k's log offered weight, A[t] the anchor's (0 for the
    outside option, else nest 0's) and Y[k, t] = log(P(anchor|t) / P(k|t));
    Y is NaN where either side is missing.
    """
    outside = bool(offered[0, 0])
    nest_probs = nest_sums(partition, probs[:, 1:].T)
    with np.errstate(divide="ignore", invalid="ignore"):
        offered_weight = nest_sums(partition, (offered[:, 1:] * weights[1:]).T)
        b = np.where(offered_weight > 0.0, np.log(offered_weight), np.nan)
        if outside:
            a, p_anchor = np.zeros(len(probs)), probs[:, 0]
        else:
            a, p_anchor = b[0], nest_probs[0]
        usable = (p_anchor > 0.0) & (nest_probs > 0.0) & ~np.isnan(a) & ~np.isnan(b)
        y = np.where(usable, np.log(p_anchor / nest_probs), np.nan)
    return a, b, y


def _system_rows(
    terms, k: int, chosen: list[int], labels: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, y) of nest k on the chosen experiments (-1: the control), labels control first."""
    a, b, y = terms
    cols = np.array(chosen) + 1
    missing = [labels[c] for c in cols.tolist() if np.isnan(y[k, c])]
    if missing:
        raise RecoveryError(f"{missing[0]} misses the anchor or nest {k}")
    return a[cols], b[k, cols], y[k, cols]


def _mnl_from_control(control: ChoiceProbabilities, n: int) -> NestedLogitModel:
    # A lone nest covering [n] with no outside option leaves lambda free;
    # any value induces the same choices, so report the flat-logit form.
    weights = control.probs / control.probs[1]
    return _fitted_model(singleton_partition(n), weights, [1.0] * n, [0.0] * n, False)[0]


def _fitted_model(
    partition: NestPartition, weights: np.ndarray, lambdas: list[float],
    s: list[float], outside: bool,
) -> tuple[NestedLogitModel, list[int]]:
    """The one rule from each nest's solved (lambda_N in [0, 1], s_N) to model parameters.

    Item weights are within-nest weights times their nest's scale
    c_N = exp(s_N / lambda_N).  A lambda below DEGENERATE_LAMBDA, or one so
    small that |log c_N| would pass LOG_CAP, makes a lambda = 0 nest of
    fixed weight exp(s_N) instead: its log is capped at LOG_CAP in size, and
    the capped nests are returned with the model.  The anchor (nest 0
    without an outside option) keeps scale 1, and a fixed weight of 1 (its
    nest value W^0) if its lambda is exactly 0.
    """
    lambdas, scales = list(lambdas), np.ones(len(lambdas))
    degenerate: dict[int, float] = {}
    capped: list[int] = []
    for k in range(0 if outside else 1, len(lambdas)):
        if lambdas[k] >= DEGENERATE_LAMBDA and abs(s[k]) <= LOG_CAP * lambdas[k]:
            scales[k] = math.exp(s[k] / lambdas[k])
            continue
        if abs(s[k]) > LOG_CAP:
            capped.append(k)
        lambdas[k], degenerate[k] = 0.0, math.exp(min(max(s[k], -LOG_CAP), LOG_CAP))
    if not outside and lambdas[0] == 0.0:
        degenerate[0] = 1.0
    return NestedLogitModel(
        partition=partition,
        weights=tuple(scales[partition.labels()] * weights[1:]),
        lambdas=tuple(lambdas),
        outside=outside,
        degenerate_weights=degenerate,
    ), capped


def recover_all(
    probs: list[ChoiceProbabilities],
    partition: NestPartition,
    design: ExperimentDesign,
) -> NestedLogitModel:
    """Recover every nest's parameters from exact probabilities.

    probs lists the control distribution first, then one per experiment in
    design order.  With an outside option each nest solves independently
    against it; without one, the first nest anchors the scale and all
    independent estimates of its lambda must agree to 1e-8.  Each nest's
    system uses the control plus the experiments that maximize its |det|,
    read off the log offered-weight fractions, on any design.
    """
    if len(probs) != design.num_experiments + 1:
        raise ValueError("need control plus one probability row per experiment")
    control = probs[0]
    outside = control.outside
    n = partition.n
    weights = within_nest_weights(control, partition)
    nests = partition.nests

    if not outside and len(nests) == 1:
        return _mnl_from_control(control, n)

    labels = ("control", *design.labels)
    offered = offered_mask(n, outside, [cp.assortment for cp in probs], labels)
    terms = _row_terms(np.array([cp.probs for cp in probs]), offered, weights, partition)
    anchor_idx = None if outside else 0
    anchor_free = anchor_idx is not None and len(nests[anchor_idx]) > 1
    anchor_estimates: list[float] = []
    lambdas = [1.0] * len(nests)
    s = [0.0] * len(nests)
    # F[k, e]: log of the share of nest k's weight that experiment e offers
    # (B minus the control's B, which offers every item); NaN where e offers
    # no member, exactly 0 where it offers all.  Relative to the control
    # row, each nest's recovery determinant is a 2x2 minor or one entry of F.
    fractions = terms[1][:, 1:] - terms[1][:, :1]
    offers_anchor = np.isfinite(terms[0][1:])  # A: 0 for the outside option

    for k, nest in enumerate(nests):
        if k == anchor_idx:
            continue
        target_free = len(nest) > 1
        # Experiments offering both sides; each case keeps the one(s) that
        # maximize |det| of its own system, ties to the first in design order.
        both = np.flatnonzero(offers_anchor & np.isfinite(fractions[k]))
        if anchor_free and target_free:
            if both.size < 2:
                raise RecoveryError(
                    f"no experiment pair jointly splits the anchor and nest {k}"
                )
            cross = np.outer(fractions[anchor_idx, both], fractions[k, both])
            i, j = np.unravel_index(np.argmax(np.abs(cross - cross.T)), cross.shape)
            chosen = [-1, int(both[i]), int(both[j])]
        elif anchor_free or target_free:
            if both.size == 0:
                raise RecoveryError(
                    f"no experiment splits the anchor while offering nest {k}"
                    if anchor_free else f"no experiment splits nest {k}"
                )
            free = anchor_idx if anchor_free else k
            chosen = [-1, int(both[np.argmax(np.abs(fractions[free, both]))])]
        else:
            chosen = [-1]
        # One row per chosen assortment, one unknown each: lambda_anchor
        # (if free), lambda_N (if free), then s_N.
        last = len(chosen) - 1
        matrix, rhs = _log_linear_system(
            *_system_rows(terms, k, chosen, labels),
            lam_col=np.full(len(chosen), last - 1 if target_free else -1),
            scale_col=np.full(len(chosen), last),
            anchor_free=anchor_free,
        )
        _check_determinant(matrix)
        sol = np.linalg.solve(matrix, rhs)
        if anchor_free:
            anchor_estimates.append(_clamp_lambda(float(sol[0]), f"nest {k} anchor"))
        if target_free:
            lambdas[k] = _clamp_lambda(float(sol[-2]), f"nest {k}")
        s[k] = float(sol[-1])

    if anchor_estimates:
        spread = max(anchor_estimates) - min(anchor_estimates)
        if spread > ANCHOR_AGREEMENT:
            raise RecoveryError(
                f"anchor lambda estimates disagree by {spread:.3e}"
            )
        lambdas[anchor_idx] = float(np.mean(anchor_estimates))
    return _fitted_model(partition, weights, lambdas, s, outside)[0]


@dataclass
class LeastSquaresRecovery:
    model: NestedLogitModel
    flags: list[str] = field(default_factory=list)


def recover_least_squares(
    table, partition: NestPartition, design: ExperimentDesign
) -> LeastSquaresRecovery:
    """Fit nest parameters to noisy counts by least squares over all assortments.

    Every assortment with customers contributes a row to each nest it offers
    (alongside the anchor).  Lambdas come from one joint least-squares fit,
    solved in closed form nest by nest (_solve_log_linear), get clamped to
    [0, 1], and scales are re-fit given the clamped values, so the result is
    always a valid model; flags record any degraded step, a lambda solved
    above 1 + LAMBDA_ROUNDOFF included (nest-k- or anchor-lambda-clamped).
    """
    sizes = table.sizes[:, None]  # an assortment nobody saw offers nothing: not run
    offered = table.offered & (sizes > 0)
    # Zero cells get a half-count so logs and ratios stay finite; the small
    # bias washes out at the sample sizes where recovery is meaningful.
    probs = np.where(offered, np.maximum(table.counts, COUNT_FLOOR), 0.0) / np.maximum(sizes, 1)
    outside = table.outside
    control = ChoiceProbabilities(assortment=table.assortments[0], probs=probs[0], outside=outside)
    flags: list[str] = []
    weights = within_nest_weights(control, partition)
    nests = partition.nests

    if not outside and len(nests) == 1:
        return LeastSquaresRecovery(_mnl_from_control(control, partition.n), ["single-nest-mnl"])

    anchor_idx = None if outside else 0
    anchor_free = anchor_idx is not None and len(nests[anchor_idx]) > 1

    # One row per (nest, assortment) with both sides present, nest-major.
    a_all, b_all, y_all = _row_terms(probs, offered, weights, partition)
    usable = ~np.isnan(y_all)
    if anchor_idx is not None:
        usable[anchor_idx] = False
    kk, tt = np.nonzero(usable)
    a_t, b_t, y_t = a_all[tt], b_all[kk, tt], y_all[kk, tt]

    # The control offers every item and empty cells are floored, so every
    # nest but the anchor has rows, starting with its control row.
    targets = np.unique(kk)
    starts = np.searchsorted(kk, targets)
    spread = np.maximum.reduceat(b_t, starts) - np.minimum.reduceat(b_t, starts)

    # Free lambda columns: the shared anchor (if multi-item) plus each
    # multi-item target whose offered-weight sums actually vary.
    lam_col = np.full(len(nests), -1)
    col = 1 if anchor_free else 0
    for k, varies in zip(targets.tolist(), (spread > 1e-12).tolist()):
        if len(nests[k]) > 1 and varies:
            lam_col[k] = col
            col += 1
        elif len(nests[k]) > 1:
            flags.append(f"nest-{k}-lambda-defaulted")

    anchor_varies = anchor_free and bool((np.abs(a_t - a_t[0]) > 1e-12).any())
    if anchor_free and not anchor_varies:
        flags.append("anchor-lambda-defaulted")
    # Each target's s_N column follows the lambda columns, in nest order.
    sol, unique = _solve_log_linear(
        a_t, b_t, y_t, lam_col[kk], col + np.searchsorted(targets, kk), anchor_free
    )
    if not unique:
        flags.append("rank-deficient")

    lambdas = [1.0] * len(nests)
    if anchor_free:
        raw = float(sol[0]) if anchor_varies else 1.0
        lambdas[anchor_idx] = _clamp_lambda(raw, "anchor-lambda-clamped", flags)
    for k in np.flatnonzero(lam_col >= 0).tolist():
        lambdas[k] = _clamp_lambda(float(sol[lam_col[k]]), f"nest-{k}-lambda-clamped", flags)

    # Re-fit each s_N as the mean residual under the final lambdas.
    lam_anchor_eff = lambdas[anchor_idx] if anchor_idx is not None else 0.0
    residual = lam_anchor_eff * a_t - np.array(lambdas)[kk] * b_t - y_t
    s = np.zeros(len(nests))
    s[targets] = np.add.reduceat(residual, starts) / np.diff(starts, append=len(kk))
    model, capped = _fitted_model(partition, weights, lambdas, s.tolist(), outside)
    return LeastSquaresRecovery(model, flags + [f"nest-{k}-scale-capped" for k in capped])
