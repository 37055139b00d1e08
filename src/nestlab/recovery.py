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
least-squares fit.
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
    nest_sums,
    offered_mask,
    singleton_partition,
)

SINGULARITY_RTOL = 1e-10  # |det| below this times the row-norm product is singular
ANCHOR_AGREEMENT = 1e-8  # independent estimates of lambda_anchor must agree this well
DEGENERATE_LAMBDA = 1e-9  # solved lambda below this is read as a lambda = 0 nest
COUNT_FLOOR = 0.5  # pseudo-count for empty cells in the noisy path
LOG_CAP = 700.0  # exp() overflow guard for pathological least-squares scales


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
    length n + 1 (entry 0 unused, 0).  Items with zero control probability
    are rejected; they carry no weight information.
    """
    n = partition.n
    if control.assortment != tuple(range(1, n + 1)):
        raise ValueError("control probabilities must cover items 1..n")
    probs = control.probs
    dead = (np.flatnonzero(probs[1:] == 0.0) + 1).tolist()
    if dead:
        raise ValueError(f"zero control probability for items {dead}")
    first = np.array([nest[0] for nest in partition.nests])
    weights = np.zeros(n + 1)
    weights[1:] = probs[1:] / probs[first[partition.labels()]]
    return weights


@dataclass
class NestSolution:
    lambda_anchor: float | None
    lam: float
    scale: float  # c_N, or v_N for a degenerate nest
    degenerate: bool


def _check_determinant(matrix: np.ndarray) -> None:
    det = float(np.linalg.det(matrix))
    scale = float(np.prod(np.linalg.norm(matrix, axis=1)))
    if abs(det) < SINGULARITY_RTOL * scale:
        raise SingularSystemError(
            f"recovery system is singular (|det| = {abs(det):.3e})"
        )


def _clamp_lambda(lam: float, context: str) -> float:
    if lam < 0.0:
        if lam < -LAMBDA_ROUNDOFF:
            raise RecoveryError(f"{context}: lambda = {lam} outside [0, 1]")
        return 0.0
    if lam > 1.0:
        if lam > 1.0 + LAMBDA_ROUNDOFF:
            raise RecoveryError(f"{context}: lambda = {lam} outside [0, 1]")
        return 1.0
    return lam


def solve_nest_params(
    rows: list[tuple[float, float, float]],
    anchor_free: bool,
    target_free: bool,
    context: str = "nest",
) -> NestSolution:
    """Solve rows of (A_T, B_T, y_T) for the free parameters by elimination.

    anchor_free and target_free say whether lambda_anchor and the target's
    lambda are unknown (multi-item nests) or pinned at 1 (singletons or the
    outside option).  Uses as many leading rows as there are unknowns and
    rejects numerically singular systems.
    """
    columns = []
    if anchor_free:
        columns.append(0)
    if target_free:
        columns.append(1)
    unknowns = len(columns) + 1
    if len(rows) < unknowns:
        raise RecoveryError(f"{context}: {len(rows)} rows cannot pin {unknowns} unknowns")
    used = rows[:unknowns]
    mat = np.zeros((unknowns, unknowns))
    rhs = np.zeros(unknowns)
    for r, (a_t, b_t, y_t) in enumerate(used):
        y = y_t
        col = 0
        if anchor_free:
            mat[r, col] = a_t
            col += 1
        else:
            y -= a_t  # lambda_anchor = 1 contributes directly
        if target_free:
            mat[r, col] = -b_t
            col += 1
        else:
            y += b_t  # lambda_N = 1
        mat[r, col] = -1.0
        rhs[r] = y
    _check_determinant(mat)
    sol = np.linalg.solve(mat, rhs)
    col = 0
    lambda_anchor = None
    if anchor_free:
        lambda_anchor = _clamp_lambda(float(sol[col]), context + " anchor")
        col += 1
    lam = 1.0
    if target_free:
        lam = _clamp_lambda(float(sol[col]), context)
        col += 1
    s_n = float(sol[col])
    if target_free and lam < DEGENERATE_LAMBDA:
        # Heuristic: a vanishing exponent reads as a fixed-weight nest.
        return NestSolution(lambda_anchor, 0.0, math.exp(s_n), True)
    return NestSolution(lambda_anchor, lam, math.exp(s_n / lam), False)


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


def _system_rows(terms, k: int, chosen: list[int]) -> list[tuple[float, float, float]]:
    """(A_T, B_T, y_T) of nest k on the chosen experiments (-1: the control)."""
    a, b, y = terms
    missing = [e for e in chosen if np.isnan(y[k, e + 1])]
    if missing:
        raise RecoveryError(f"assortment {missing[0]} misses the anchor or nest {k}")
    return [(float(a[e + 1]), float(b[k, e + 1]), float(y[k, e + 1])) for e in chosen]


def _mnl_from_control(control: ChoiceProbabilities, n: int, outside: bool) -> NestedLogitModel:
    # A lone nest covering [n] with no outside option leaves lambda free;
    # any value induces the same choices, so report the flat-logit form.
    return NestedLogitModel(
        partition=singleton_partition(n),
        weights=tuple(control.probs[1:] / control.probs[1]),
        lambdas=tuple([1.0] * n),
        outside=outside,
    )


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
        return _mnl_from_control(control, n, outside)

    offered = offered_mask(n, outside, [cp.assortment for cp in probs], ("control", *design.labels))
    terms = _row_terms(np.array([cp.probs for cp in probs]), offered, weights, partition)
    solutions: dict[int, NestSolution] = {}
    anchor_idx = None if outside else 0
    anchor_free = anchor_idx is not None and len(nests[anchor_idx]) > 1
    anchor_estimates: list[float] = []
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
            s, s2 = np.unravel_index(np.argmax(np.abs(cross - cross.T)), cross.shape)
            chosen = [-1, int(both[s]), int(both[s2])]
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
        sol = solve_nest_params(
            _system_rows(terms, k, chosen),
            anchor_free=anchor_free,
            target_free=target_free,
            context=f"nest {k}",
        )
        solutions[k] = sol
        if sol.lambda_anchor is not None:
            anchor_estimates.append(sol.lambda_anchor)

    if anchor_estimates:
        spread = max(anchor_estimates) - min(anchor_estimates)
        if spread > ANCHOR_AGREEMENT:
            raise RecoveryError(
                f"anchor lambda estimates disagree by {spread:.3e}"
            )

    lambdas = [1.0] * len(nests)
    scales = np.ones(len(nests))  # c_N; the anchor and degenerate nests keep 1
    degenerate: dict[int, float] = {}
    if anchor_free:
        lambdas[anchor_idx] = float(np.mean(anchor_estimates))
    for k, sol in solutions.items():
        if sol.degenerate:
            lambdas[k] = 0.0
            degenerate[k] = sol.scale
        else:
            lambdas[k], scales[k] = sol.lam, sol.scale
    return NestedLogitModel(
        partition=partition,
        weights=tuple(scales[partition.labels()] * weights[1:]),
        lambdas=tuple(lambdas),
        outside=outside,
        degenerate_weights=degenerate,
    )


@dataclass
class LeastSquaresRecovery:
    model: NestedLogitModel
    flags: list[str] = field(default_factory=list)


def recover_least_squares(
    table, partition: NestPartition, design: ExperimentDesign
) -> LeastSquaresRecovery:
    """Fit nest parameters to noisy counts by least squares over all assortments.

    Every assortment contributes a row to each nest it offers (alongside the
    anchor).  Lambdas come from one joint solve, get clamped to [0, 1], and
    scales are re-fit given the clamped values, so the result is always a
    valid model; flags record any degraded step.
    """
    if (table.sizes == 0).any():
        raise ValueError("assortment with no customers")
    offered = offered_mask(table.n, table.outside, table.assortments, table.labels)
    # Zero cells get a half-count so logs and ratios stay finite; the small
    # bias washes out at the sample sizes where recovery is meaningful.
    probs = np.where(offered, np.maximum(table.counts, COUNT_FLOOR), 0.0) / table.sizes[:, None]
    outside = table.outside
    control = ChoiceProbabilities(assortment=table.assortments[0], probs=probs[0], outside=outside)
    n = partition.n
    flags: list[str] = []
    weights = within_nest_weights(control, partition)
    nests = partition.nests

    if not outside and len(nests) == 1:
        return LeastSquaresRecovery(_mnl_from_control(control, n, outside), ["single-nest-mnl"])

    anchor_idx = None if outside else 0
    anchor_free = anchor_idx is not None and len(nests[anchor_idx]) > 1

    # One row per (nest, assortment) with both sides present, nest-major.
    a_all, b_all, y_all = _row_terms(probs, offered, weights, partition)
    usable = ~np.isnan(y_all)
    if anchor_idx is not None:
        usable[anchor_idx] = False
    kk, tt = np.nonzero(usable)
    a_t, b_t, y_t = a_all[tt], b_all[kk, tt], y_all[kk, tt]

    targets = np.unique(kk).tolist()
    missing = [k for k in range(len(nests)) if k != anchor_idx and k not in targets]
    if missing:
        raise RecoveryError(f"no usable assortment rows for nests {missing}")

    # Free lambda columns: the shared anchor (if multi-item) plus each
    # multi-item target whose offered-weight sums actually vary.
    lam_free: dict[int, int] = {}
    col = 1 if anchor_free else 0
    for k in targets:
        b_vals = b_t[kk == k]
        varies = b_vals.size >= 2 and b_vals.max() - b_vals.min() > 1e-12
        if len(nests[k]) > 1 and varies:
            lam_free[k] = col
            col += 1
        elif len(nests[k]) > 1:
            flags.append(f"nest-{k}-lambda-defaulted")
    num_lam = col
    scale_col = {k: num_lam + pos for pos, k in enumerate(targets)}

    design_mat = np.zeros((kk.size, num_lam + len(targets)))
    rhs = y_t.copy()
    anchor_varies = False
    if anchor_free:
        design_mat[:, 0] = a_t
        anchor_varies = bool((np.abs(a_t - a_t[0]) > 1e-12).any())
    else:
        rhs -= a_t
    lam_col = np.array([lam_free.get(k, -1) for k in kk.tolist()], dtype=np.intp)
    free = lam_col >= 0
    design_mat[np.flatnonzero(free), lam_col[free]] = -b_t[free]
    rhs[~free] += b_t[~free]  # lambda = 1: a singleton, or a defaulted nest
    design_mat[np.arange(kk.size), [scale_col[k] for k in kk.tolist()]] = -1.0

    if anchor_free and not anchor_varies:
        flags.append("anchor-lambda-defaulted")
    sol, _, rank, _ = np.linalg.lstsq(design_mat, rhs, rcond=None)
    if rank < design_mat.shape[1]:
        flags.append("rank-deficient")

    lambdas = [1.0] * len(nests)
    if anchor_free:
        raw = float(sol[0]) if anchor_varies else 1.0
        lambdas[anchor_idx] = min(1.0, max(0.0, raw))
    for k, c in lam_free.items():
        lambdas[k] = min(1.0, max(0.0, float(sol[c])))

    # Re-fit each scale as the mean residual under the final lambdas.
    scales = np.ones(len(nests))  # the anchor and degenerate nests keep 1
    degenerate: dict[int, float] = {}
    lam_anchor_eff = lambdas[anchor_idx] if anchor_idx is not None else 0.0
    for k in targets:
        sel = kk == k
        s_n = float(np.mean(lam_anchor_eff * a_t[sel] - lambdas[k] * b_t[sel] - y_t[sel]))
        if lambdas[k] == 0.0:
            degenerate[k] = math.exp(min(s_n, LOG_CAP))
        else:
            log_c = s_n / lambdas[k]
            if abs(log_c) > LOG_CAP:
                flags.append(f"nest-{k}-scale-capped")
                log_c = math.copysign(LOG_CAP, log_c)
            scales[k] = math.exp(log_c)
    model = NestedLogitModel(
        partition=partition,
        weights=tuple(scales[partition.labels()] * weights[1:]),
        lambdas=tuple(lambdas),
        outside=outside,
        degenerate_weights=degenerate,
    )
    return LeastSquaresRecovery(model=model, flags=flags)
