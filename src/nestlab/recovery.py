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
) -> dict[int, float]:
    """Item weights relative to the lowest-index member of each nest.

    Control probabilities of same-nest items have the same nest factor, so
    their ratio is the weight ratio.  Items with zero control probability
    are rejected; they carry no weight information.
    """
    n = partition.n
    if control.assortment != tuple(range(1, n + 1)):
        raise ValueError("control probabilities must cover items 1..n")
    dead = [i for i in range(1, n + 1) if control.probs[i] == 0.0]
    if dead:
        raise ValueError(f"zero control probability for items {dead}")
    weights = {}
    for nest in partition.nests:
        base = control.probs[nest[0]]
        for i in nest:
            weights[i] = control.probs[i] / base
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


def _nest_prob(cp: ChoiceProbabilities, nest: tuple[int, ...]) -> float:
    return sum(cp.probs.get(i, 0.0) for i in nest)


def _log_weight_sum(weights: dict[int, float], nest: tuple[int, ...], items: set[int]) -> float:
    total = sum(weights[i] for i in nest if i in items)
    return math.log(total) if total > 0.0 else math.nan


def _log_fractions(
    weights: dict[int, float], nests: tuple[tuple[int, ...], ...], design: ExperimentDesign
) -> np.ndarray:
    """F[k, e]: log of the share of nest k's weight that experiment e offers.

    -inf where e offers no member of nest k, exactly 0 where it offers all.
    Relative to the control row, each nest's recovery determinant is a 2x2
    minor or a single entry of F.
    """
    offered = design.membership_matrix()
    fractions = np.empty((len(nests), design.num_experiments))
    for k, nest in enumerate(nests):
        inside = offered[:, np.asarray(nest) - 1]
        w = np.array([weights[i] for i in nest])
        with np.errstate(divide="ignore"):
            fractions[k] = np.log(inside @ w / w.sum())
        fractions[k, inside.all(axis=1)] = 0.0
    return fractions


def _row(
    cp: ChoiceProbabilities,
    weights: dict[int, float],
    anchor: tuple[int, ...] | None,
    target: tuple[int, ...],
) -> tuple[float, float, float] | None:
    """(A_T, B_T, y_T) for one assortment, or None if either side is missing."""
    items = set(cp.assortment)
    if anchor is None:
        p_anchor = cp.probs.get(0, 0.0)
        a_t = 0.0
    else:
        p_anchor = _nest_prob(cp, anchor)
        a_t = _log_weight_sum(weights, anchor, items)
    p_target = _nest_prob(cp, target)
    if p_anchor <= 0.0 or p_target <= 0.0 or math.isnan(a_t):
        return None
    b_t = _log_weight_sum(weights, target, items)
    if math.isnan(b_t):
        return None
    return a_t, b_t, math.log(p_anchor / p_target)


def _mnl_from_control(control: ChoiceProbabilities, n: int, outside: bool) -> NestedLogitModel:
    # A lone nest covering [n] with no outside option leaves lambda free;
    # any value induces the same choices, so report the flat-logit form.
    weights = [control.probs[i] / control.probs[1] for i in range(1, n + 1)]
    return NestedLogitModel(
        partition=singleton_partition(n),
        weights=tuple(weights),
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

    def rows_for(target_idx: int, assortment_indices: list[int], anchor_items):
        out = []
        for t in assortment_indices:
            cp = control if t < 0 else probs[t + 1]
            row = _row(cp, weights, anchor_items, nests[target_idx])
            if row is None:
                raise RecoveryError(
                    f"assortment {t} misses the anchor or nest {target_idx}"
                )
            out.append(row)
        return out

    solutions: dict[int, NestSolution] = {}
    anchor_idx: int | None = None
    anchor_items: tuple[int, ...] | None = None
    if not outside:
        anchor_idx = 0
        anchor_items = nests[0]
    anchor_free = anchor_items is not None and len(anchor_items) > 1
    anchor_estimates: list[float] = []
    fractions = _log_fractions(weights, nests, design)
    offers_anchor = np.ones(design.num_experiments, dtype=bool)
    if anchor_idx is not None:
        offers_anchor = np.isfinite(fractions[anchor_idx])

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
            rows_for(k, chosen, anchor_items),
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
    item_weights = [0.0] * n
    degenerate: dict[int, float] = {}
    if anchor_idx is not None:
        if anchor_free:
            lambdas[anchor_idx] = float(np.mean(anchor_estimates))
        for i in nests[anchor_idx]:
            item_weights[i - 1] = weights[i]
    for k, sol in solutions.items():
        if sol.degenerate:
            lambdas[k] = 0.0
            degenerate[k] = sol.scale
            for i in nests[k]:
                item_weights[i - 1] = weights[i]
        else:
            lambdas[k] = sol.lam
            for i in nests[k]:
                item_weights[i - 1] = sol.scale * weights[i]
    return NestedLogitModel(
        partition=partition,
        weights=tuple(item_weights),
        lambdas=tuple(lambdas),
        outside=outside,
        degenerate_weights=degenerate,
    )


@dataclass
class LeastSquaresRecovery:
    model: NestedLogitModel
    flags: list[str] = field(default_factory=list)


def _floored_probabilities(table) -> list[ChoiceProbabilities]:
    # Zero cells get a half-count so logs and ratios stay finite; the small
    # bias washes out at the sample sizes where recovery is meaningful.
    out = []
    for items, cnt, m in zip(table.assortments, table.counts, table.sizes):
        if m == 0:
            raise ValueError("assortment with no customers")
        probs = {i: max(c, COUNT_FLOOR) / m for i, c in cnt.items()}
        out.append(ChoiceProbabilities(assortment=items, probs=probs, outside=table.outside))
    return out


def recover_least_squares(
    table, partition: NestPartition, design: ExperimentDesign
) -> LeastSquaresRecovery:
    """Fit nest parameters to noisy counts by least squares over all assortments.

    Every assortment contributes a row to each nest it offers (alongside the
    anchor).  Lambdas come from one joint solve, get clamped to [0, 1], and
    scales are re-fit given the clamped values, so the result is always a
    valid model; flags record any degraded step.
    """
    probs = _floored_probabilities(table)
    control = probs[0]
    outside = table.outside
    n = partition.n
    flags: list[str] = []
    weights = within_nest_weights(control, partition)
    nests = partition.nests

    if not outside and len(nests) == 1:
        return LeastSquaresRecovery(_mnl_from_control(control, n, outside), ["single-nest-mnl"])

    anchor_idx: int | None = None
    anchor_items: tuple[int, ...] | None = None
    if not outside:
        anchor_idx = 0
        anchor_items = nests[0]
    anchor_free = anchor_items is not None and len(anchor_items) > 1

    rows: list[tuple[int, float, float, float]] = []
    for k, nest in enumerate(nests):
        if k == anchor_idx:
            continue
        for cp in probs:
            row = _row(cp, weights, anchor_items, nest)
            if row is not None:
                rows.append((k, *row))

    targets = sorted({k for k, *_ in rows})
    missing = [k for k in range(len(nests)) if k != anchor_idx and k not in targets]
    if missing:
        raise RecoveryError(f"no usable assortment rows for nests {missing}")

    # Free lambda columns: the shared anchor (if multi-item) plus each
    # multi-item target whose offered-weight sums actually vary.
    lam_free: dict[int, int] = {}
    col = 1 if anchor_free else 0
    for k in targets:
        b_vals = [b for kk, _, b, _ in rows if kk == k]
        varies = len(b_vals) >= 2 and max(b_vals) - min(b_vals) > 1e-12
        if len(nests[k]) > 1 and varies:
            lam_free[k] = col
            col += 1
        elif len(nests[k]) > 1:
            flags.append(f"nest-{k}-lambda-defaulted")
    num_lam = col
    scale_col = {k: num_lam + pos for pos, k in enumerate(targets)}

    design_mat = np.zeros((len(rows), num_lam + len(targets)))
    rhs = np.zeros(len(rows))
    anchor_varies = False
    for r, (k, a_t, b_t, y_t) in enumerate(rows):
        y = y_t
        if anchor_free:
            design_mat[r, 0] = a_t
            if abs(a_t - rows[0][1]) > 1e-12:
                anchor_varies = True
        else:
            y -= a_t
        if k in lam_free:
            design_mat[r, lam_free[k]] = -b_t
        elif len(nests[k]) > 1:
            y += b_t  # defaulted lambda = 1
        else:
            y += b_t  # singleton: lambda = 1, B_T = log w_i
        design_mat[r, scale_col[k]] = -1.0
        rhs[r] = y

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
    item_weights = [0.0] * n
    degenerate: dict[int, float] = {}
    if anchor_idx is not None:
        for i in nests[anchor_idx]:
            item_weights[i - 1] = weights[i]
    lam_anchor_eff = lambdas[anchor_idx] if anchor_idx is not None else 0.0
    for k in targets:
        resid = [
            lam_anchor_eff * a_t - lambdas[k] * b_t - y_t
            for kk, a_t, b_t, y_t in rows
            if kk == k
        ]
        s_n = float(np.mean(resid))
        if lambdas[k] == 0.0:
            degenerate[k] = math.exp(min(s_n, LOG_CAP))
            scale = 1.0
        else:
            log_c = s_n / lambdas[k]
            if abs(log_c) > LOG_CAP:
                flags.append(f"nest-{k}-scale-capped")
                log_c = math.copysign(LOG_CAP, log_c)
            scale = math.exp(log_c)
        for i in nests[k]:
            item_weights[i - 1] = scale * weights[i]
    model = NestedLogitModel(
        partition=partition,
        weights=tuple(item_weights),
        lambdas=tuple(lambdas),
        outside=outside,
        degenerate_weights=degenerate,
    )
    return LeastSquaresRecovery(model=model, flags=flags)
