"""Tests for parameter recovery from choice probabilities and counts."""

import contextlib
import itertools
import math
import re

import numpy as np
import pytest

from nestlab import recovery
from nestlab.designs import (
    ExperimentDesign,
    balanced_enumeration,
    code_length,
    incremental_design,
    leave_one_out_design,
    randomized_design,
    slice_design,
)
from nestlab.metrics import rmse_soft
from nestlab.model import (
    ChoiceProbabilities,
    NestPartition,
    NestedLogitModel,
    choice_probabilities,
    design_probabilities,
    generate_ground_truth,
    normalize_identifiable,
)
from nestlab.recovery import (
    RecoveryError,
    SingularSystemError,
    recover_all,
    recover_least_squares,
    within_nest_weights,
)
from nestlab.sampling import (
    ChoiceCountTable, allocate_customers, empirical_probabilities, sample_choices,
)


def test_within_nest_weights_normalizes_lowest_index():
    control = choice_probabilities(
        NestedLogitModel(
            partition=NestPartition([(1, 3), (2,)]),
            weights=(2.0, 5.0, 6.0),
            lambdas=(0.5, 1.0),
            outside=True,
        ),
        (1, 2, 3),
    )
    weights = within_nest_weights(control, NestPartition([(1, 3), (2,)]))
    assert weights[1] == pytest.approx(1.0)
    assert weights[3] == pytest.approx(3.0)  # 6 / 2 within the nest
    assert weights[2] == pytest.approx(1.0)  # its own nest's base


def test_round_trip_exact_probabilities():
    """Recovered parameters reproduce the choice function everywhere"""
    rng = np.random.default_rng(50)
    for outside in (True, False):
        for _ in range(15):
            n = int(rng.integers(2, 11))
            model = generate_ground_truth(n, rng, outside=outside)
            enc = balanced_enumeration(n, 2)
            design = slice_design(enc)
            rows = design_probabilities(model, design)
            recovered = recover_all(rows, model.partition, design)
            assert rmse_soft(model, recovered) < 1e-10, (n, outside)


def test_round_trip_recovers_parameters_up_to_normalization():
    rng = np.random.default_rng(51)
    model = generate_ground_truth(9, rng)
    enc = balanced_enumeration(9, 2)
    design = slice_design(enc)
    rows = design_probabilities(model, design)
    recovered = recover_all(rows, model.partition, design)
    norm = normalize_identifiable(model)
    assert recovered.partition == norm.partition
    for i in range(1, 10):
        assert recovered.weight(i) == pytest.approx(norm.weight(i), rel=1e-7)
    for lam_a, lam_b in zip(recovered.lambdas, norm.lambdas):
        assert lam_a == pytest.approx(lam_b, abs=1e-7)


def test_degenerate_nest_round_trip():
    """A zero-dissimilarity nest carries its own weight parameter"""
    model = NestedLogitModel(
        partition=NestPartition([(1, 2, 3), (4,), (5, 6)]),
        weights=(1.0, 2.0, 1.5, 3.0, 0.5, 1.0),
        lambdas=(0.0, 1.0, 0.4),
        outside=True,
        degenerate_weights={0: 3.7},
    )
    enc = balanced_enumeration(6, 2)
    design = slice_design(enc)
    rows = design_probabilities(model, design)
    recovered = recover_all(rows, model.partition, design)
    k = recovered.partition.nest_of(1)
    assert recovered.lambdas[k] == 0.0
    assert recovered.degenerate_weights[k] == pytest.approx(3.7, rel=1e-7)
    assert rmse_soft(model, recovered) < 1e-10


def test_single_nest_without_outside_falls_back_to_flat_weights():
    """One all-item nest leaves lambda unobservable; shares pin the weights"""
    model = NestedLogitModel(
        partition=NestPartition([(1, 2, 3)]),
        weights=(1.0, 2.0, 3.0),
        lambdas=(0.7,),
        outside=False,
    )
    enc = balanced_enumeration(3, 2)
    design = slice_design(enc)
    rows = design_probabilities(model, design)
    recovered = recover_all(rows, NestPartition([(1, 2, 3)]), design)
    got = choice_probabilities(recovered, (1, 2, 3))
    want = choice_probabilities(model, (1, 2, 3))
    for i in (1, 2, 3):
        assert got.probs[i] == pytest.approx(want.probs[i], abs=1e-12)


@pytest.mark.parametrize(
    "scheme, n, first_seed", [("slice", 16, 1000), ("slice", 32, 1000), ("loo", 8, 2000)]
)
def test_true_partition_recovers_without_outside(scheme, n, first_seed):
    """Every no-outside truth here has a nonsingular system; the chooser finds it"""
    if scheme == "slice":
        design = slice_design(balanced_enumeration(n, 2))
    else:
        design = leave_one_out_design(n)
    for seed in range(first_seed, first_seed + 30):
        truth = generate_ground_truth(n, seed, outside=False)
        rows = design_probabilities(truth, design)
        fitted = recover_all(rows, truth.partition, design)
        for want, got in zip(rows, design_probabilities(fitted, design)):
            for item in want.assortment:
                error = abs(want.probs[item] - got.probs[item])
                assert error <= 1e-12, (seed, want.assortment, item)


def reference_pair_is_usable(anchor, target, s_items, sp_items):
    """Both experiments offer both nests, cut them differently, and the second
    does not offer both whole."""
    s, sp = set(s_items), set(sp_items)
    cuts = (
        tuple(sorted(set(anchor) & s)),
        tuple(sorted(set(target) & s)),
        tuple(sorted(set(anchor) & sp)),
        tuple(sorted(set(target) & sp)),
    )
    if any(len(c) == 0 for c in cuts):
        return False
    if (cuts[0], cuts[1]) == (cuts[2], cuts[3]):
        return False
    if (cuts[2], cuts[3]) == (anchor, target):
        return False
    return True


def reference_log_fraction(weights, nest, items):
    inside = sum(weights[i] for i in nest if i in set(items))
    return math.log(inside / sum(weights[i] for i in nest))


def reference_log_determinant(weights, anchor, target, s_items, sp_items):
    """Scalar 2x2 minor of log offered-weight fractions, the 3-row system's |det|."""
    return reference_log_fraction(weights, anchor, s_items) * reference_log_fraction(
        weights, target, sp_items
    ) - reference_log_fraction(weights, anchor, sp_items) * reference_log_fraction(
        weights, target, s_items
    )


def recover_recording_reads(monkeypatch, rows, partition, design):
    """Experiments (-1 for the control) whose rows each nest's system reads."""
    reads: dict[tuple[int, ...], list[int]] = {}
    real_rows = recovery._system_rows

    def spy(terms, k, chosen, labels):
        reads.setdefault(partition.nests[k], []).extend(chosen)
        return real_rows(terms, k, chosen, labels)

    monkeypatch.setattr(recovery, "_system_rows", spy)
    with contextlib.suppress(RecoveryError):
        recover_all(rows, partition, design)
    monkeypatch.undo()
    return reads


@pytest.mark.parametrize("scheme", ["slice", "random", "loo"])
def test_chosen_experiments_reach_the_largest_determinant(monkeypatch, scheme):
    """Each nest's experiments reach the reference maximum |det| of its system"""
    checked = {"pair": 0, "single": 0}
    for seed in range(3000, 3020):
        n = 8 + seed % 9
        truth = generate_ground_truth(n, seed, outside=False)
        if scheme == "slice":
            design = slice_design(balanced_enumeration(n, 2))
        elif scheme == "random":
            design = randomized_design(n, 2 * code_length(n, 2), size_rule="half", rng=seed)
        else:
            design = leave_one_out_design(n)
        exps = design.experiments
        rows = design_probabilities(truth, design)
        weights = within_nest_weights(rows[0], truth.partition)
        anchor = truth.partition.nests[0]
        for target, chosen in recover_recording_reads(
            monkeypatch, rows, truth.partition, design
        ).items():
            assert chosen[0] == -1
            if len(anchor) > 1 and len(target) > 1:
                best = max(
                    (
                        abs(reference_log_determinant(weights, anchor, target, exps[a], exps[c]))
                        for a, c in itertools.permutations(range(len(exps)), 2)
                        if reference_pair_is_usable(anchor, target, exps[a], exps[c])
                    ),
                    default=0.0,
                )
                got = abs(reference_log_determinant(
                    weights, anchor, target, exps[chosen[1]], exps[chosen[2]]
                ))
                checked["pair"] += 1
            elif len(anchor) > 1 or len(target) > 1:
                free = anchor if len(anchor) > 1 else target
                best = max(
                    abs(reference_log_fraction(weights, free, items))
                    for items in exps
                    if set(anchor) & set(items) and set(target) & set(items)
                )
                got = abs(reference_log_fraction(weights, free, exps[chosen[1]]))
                checked["single"] += 1
            else:
                assert chosen == [-1]
                continue
            assert got >= best * (1.0 - 1e-12), (seed, target, chosen)
    assert checked["pair"] >= 10 and checked["single"] >= 10, checked


@pytest.mark.parametrize("seed, nests, message", [
    (3, [(1, 2, 3), (4, 5, 6)], r"nest 1 anchor: lambda = 1\.27415905257\d* outside \[0, 1\]$"),
    (3, [(1, 3, 5), (2, 4, 6)], r"nest 1: lambda = 1\.08895330063\d* outside \[0, 1\]$"),
    (1, [(1, 2, 3), (4, 5), (6,)], r"anchor lambda estimates disagree by 3\.237e-01$"),
])
def test_wrong_partition_fails_certification(seed, nests, message):
    """Exact no-outside probabilities fit to a wrong partition give no valid lambdas"""
    truth = generate_ground_truth(6, seed, outside=False)
    design = slice_design(balanced_enumeration(6, 2))
    rows = design_probabilities(truth, design)
    with pytest.raises(RecoveryError, match=message) as exc:
        recover_all(rows, NestPartition(nests), design)
    assert type(exc.value) is RecoveryError


def reference_solve_nest_params(rows, anchor_free, target_free, context):
    """Scalar elimination of rows (A_T, B_T, y_T): (lambda_anchor, lambda_N, scale, degenerate)."""
    unknowns = anchor_free + target_free + 1
    mat = np.zeros((unknowns, unknowns))
    rhs = np.zeros(unknowns)
    for r, (a_t, b_t, y_t) in enumerate(rows[:unknowns]):
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
    recovery._check_determinant(mat)
    sol = np.linalg.solve(mat, rhs)
    col = 0
    lambda_anchor = None
    if anchor_free:
        lambda_anchor = recovery._clamp_lambda(float(sol[col]), context + " anchor")
        col += 1
    lam = 1.0
    if target_free:
        lam = recovery._clamp_lambda(float(sol[col]), context)
        col += 1
    s_n = float(sol[col])
    if target_free and lam < recovery.DEGENERATE_LAMBDA:
        return lambda_anchor, 0.0, math.exp(s_n), True
    return lambda_anchor, lam, math.exp(s_n / lam), False


def reference_recover_from_rows(calls, control, partition):
    """The model recover_all assembles from each nest's recorded system rows."""
    nests = partition.nests
    anchor_free = not control.outside and len(nests[0]) > 1
    lambdas = [1.0] * len(nests)
    scales = np.ones(len(nests))
    degenerate = {}
    anchor_estimates = []
    for k, rows in calls:
        lambda_anchor, lam, scale, is_degenerate = reference_solve_nest_params(
            rows, anchor_free, len(nests[k]) > 1, f"nest {k}"
        )
        if lambda_anchor is not None:
            anchor_estimates.append(lambda_anchor)
        if is_degenerate:
            lambdas[k], degenerate[k] = 0.0, scale
        else:
            lambdas[k], scales[k] = lam, scale
    if anchor_estimates:
        spread = max(anchor_estimates) - min(anchor_estimates)
        if spread > recovery.ANCHOR_AGREEMENT:
            raise RecoveryError(f"anchor lambda estimates disagree by {spread:.3e}")
        lambdas[0] = float(np.mean(anchor_estimates))
    weights = within_nest_weights(control, partition)
    return NestedLogitModel(
        partition=partition,
        weights=tuple(scales[partition.labels()] * weights[1:]),
        lambdas=tuple(lambdas),
        outside=control.outside,
        degenerate_weights=degenerate,
    )


def outcome(fit, *args):
    try:
        return fit(*args)
    except RecoveryError as exc:
        return type(exc), str(exc)


def test_recover_all_matches_scalar_elimination_bitwise(monkeypatch):
    """The shared log-linear system solves exactly as a scalar row-by-row fill does"""
    calls = []
    real_rows = recovery._system_rows

    def spy(terms, k, chosen, labels):
        rows = real_rows(terms, k, chosen, labels)
        calls.append((k, [tuple(float(v[r]) for v in rows) for r in range(len(chosen))]))
        return rows

    monkeypatch.setattr(recovery, "_system_rows", spy)
    compared = {"model": 0, "error": 0}
    for n in (6, 9, 16, 32):
        for outside in (True, False):
            for seed in range(5):
                truth = generate_ground_truth(n, seed, outside=outside)
                wrong = NestPartition([tuple(range(1, n // 2 + 1)), tuple(range(n // 2 + 1, n + 1))])
                for design in (
                    slice_design(balanced_enumeration(n, 2)),
                    leave_one_out_design(n),
                    randomized_design(n, 2 * code_length(n, 2), size_rule="half", rng=seed),
                    incremental_design(n, rng=seed),
                ):
                    rows = design_probabilities(truth, design)
                    for partition in (truth.partition, wrong):
                        if not outside and partition.num_nests == 1:
                            continue  # the flat-logit fallback solves no system
                        calls.clear()
                        got = outcome(recover_all, rows, partition, design)
                        if isinstance(got, tuple) and got[1].startswith(("no experiment", "assortment")):
                            continue  # the chooser failed before the nest's solve
                        want = outcome(reference_recover_from_rows, calls, rows[0], partition)
                        assert got == want, (n, outside, seed, design.labels[0], partition)
                        compared["error" if isinstance(got, tuple) else "model"] += 1
    assert compared["model"] >= 200 and compared["error"] >= 40, compared


def test_least_squares_anchor_at_lambda_zero_keeps_unit_weight():
    """A multi-item anchor clamped to lambda = 0 gets nest value W^0 = 1, not an invalid model"""
    truth = generate_ground_truth(6, 7, outside=False)
    design = incremental_design(6, 7)
    table = sample_choices(truth, design, allocate_customers(3000, 7), seed=7)
    fit = recover_least_squares(table, truth.partition, design)
    assert len(fit.model.partition.nests[0]) > 1
    assert fit.model.lambdas[0] == 0.0
    assert fit.model.degenerate_weights[0] == 1.0
    assert rmse_soft(truth, fit.model) < 0.2


def test_recovery_raises_on_degenerate_geometry():
    """Equal weights across twin nests collapse the linear system"""
    model = NestedLogitModel(
        partition=NestPartition([(1, 2), (3, 4)]),
        weights=(1.0, 1.0, 1.0, 1.0),
        lambdas=(0.4, 0.7),
        outside=False,
    )
    enc = balanced_enumeration(4, 2)
    design = slice_design(enc)
    rows = design_probabilities(model, design)
    with pytest.raises(SingularSystemError):
        recover_all(rows, model.partition, design)


def test_recover_all_validates_row_count():
    model = generate_ground_truth(4, np.random.default_rng(3))
    enc = balanced_enumeration(4, 2)
    design = slice_design(enc)
    rows = design_probabilities(model, design)
    with pytest.raises(ValueError):
        recover_all(rows[:-1], model.partition, design)


def test_least_squares_recovery_approaches_truth():
    rng = np.random.default_rng(54)
    model = generate_ground_truth(8, rng)
    enc = balanced_enumeration(8, 2)
    design = slice_design(enc)
    m = 300000
    table = sample_choices(model, design, [m] * (design.num_experiments + 1), seed=11)
    fit = recover_least_squares(table, model.partition, design)
    assert rmse_soft(model, fit.model) < 0.01
    assert "rank-deficient" not in fit.flags


def test_least_squares_clamps_lambda_into_range():
    rng = np.random.default_rng(55)
    model = generate_ground_truth(6, rng)
    enc = balanced_enumeration(6, 2)
    design = slice_design(enc)
    # tiny samples push raw estimates outside [0, 1]; the fit must not
    table = sample_choices(model, design, [40] * (design.num_experiments + 1), seed=12)
    fit = recover_least_squares(table, model.partition, design)
    for lam in fit.model.lambdas:
        assert 0.0 <= lam <= 1.0


def test_least_squares_flags_unobservable_lambda():
    """A nest never split by the design leaves its lambda defaulted"""
    rng = np.random.default_rng(56)
    model = NestedLogitModel(
        partition=NestPartition([(1, 2), (3,), (4,)]),
        weights=(1.0, 2.0, 1.5, 0.5),
        lambdas=(0.5, 1.0, 1.0),
        outside=True,
    )
    from nestlab.designs import ExperimentDesign

    design = ExperimentDesign(
        n=4,
        experiments=[(1, 2, 3), (1, 2, 4)],  # nest {1,2} always offered whole
        labels=("A", "B"),
    )
    table = sample_choices(model, design, [5000] * 3, seed=13)
    fit = recover_least_squares(table, model.partition, design)
    assert any(flag.endswith("lambda-defaulted") for flag in fit.flags)


def test_least_squares_single_nest_without_outside_is_flagged_mnl():
    """One all-item nest and no outside option: the fit is the control's shares, flagged"""
    model = NestedLogitModel(
        partition=NestPartition([(1, 2, 3, 4)]),
        weights=(1.0, 2.0, 3.0, 4.0),
        lambdas=(0.6,),
        outside=False,
    )
    design = slice_design(balanced_enumeration(4, 2))
    table = sample_choices(model, design, [5000] * (design.num_experiments + 1), seed=14)
    fit = recover_least_squares(table, model.partition, design)
    assert fit.flags == ["single-nest-mnl"]
    assert fit.model.partition == NestPartition([(1,), (2,), (3,), (4,)])
    shares = table.counts[0, 1:] / table.sizes[0]
    got = choice_probabilities(fit.model, (1, 2, 3, 4)).probs[1:]
    np.testing.assert_allclose(got, shares, rtol=1e-12)


def test_least_squares_flags_anchor_offered_whole():
    """No outside option and every row offers the multi-item anchor nest whole"""
    from nestlab.designs import ExperimentDesign

    model = NestedLogitModel(
        partition=NestPartition([(1, 2), (3,), (4,)]),
        weights=(1.0, 2.0, 1.5, 0.5),
        lambdas=(0.5, 1.0, 1.0),
        outside=False,
    )
    design = ExperimentDesign(n=4, experiments=[(1, 2, 3), (1, 2, 4)], labels=("A", "B"))
    table = sample_choices(model, design, [5000] * 3, seed=15)
    fit = recover_least_squares(table, model.partition, design)
    assert "anchor-lambda-defaulted" in fit.flags
    assert fit.model.lambdas[0] == 1.0


def _least_squares_case(case):
    """(table, partition, design) whose least-squares system has the named shape."""
    slice_8 = slice_design(balanced_enumeration(8, 2))
    whole_12 = ExperimentDesign(n=4, experiments=[(1, 2, 3), (1, 2, 4)], labels=("A", "B"))
    weights = (1.0, 2.0, 1.5, 0.5, 3.0, 1.2, 2.2, 0.8)
    truth, design = {
        "outside option": (generate_ground_truth(8, 40), slice_8),
        "free anchor": (NestedLogitModel(
            partition=NestPartition([(1, 2, 3), (4, 5), (6,), (7, 8)]), weights=weights,
            lambdas=(0.4, 0.7, 1.0, 0.5), outside=False), slice_8),
        "singleton anchor": (NestedLogitModel(
            partition=NestPartition([(1,), (2, 3), (4, 5, 6), (7, 8)]), weights=weights,
            lambdas=(1.0, 0.6, 0.3, 0.8), outside=False), slice_8),
        "defaulted lambda": (NestedLogitModel(
            partition=NestPartition([(1, 2), (3,), (4,)]), weights=weights[:4],
            lambdas=(0.5, 1.0, 1.0), outside=True), whole_12),
        "anchor offered whole": (NestedLogitModel(
            partition=NestPartition([(1, 2), (3,), (4,)]), weights=weights[:4],
            lambdas=(0.5, 1.0, 1.0), outside=False), whole_12),
    }[case]
    table = sample_choices(truth, design, allocate_customers(10**6, design.num_experiments + 1), 16)
    return table, truth.partition, design


@pytest.mark.parametrize("case, flags", [
    ("outside option", []),
    ("free anchor", []),
    ("singleton anchor", []),
    ("defaulted lambda", ["nest-0-lambda-defaulted"]),
    ("anchor offered whole", ["anchor-lambda-defaulted", "rank-deficient"]),
])
def test_least_squares_closed_form_matches_lstsq(monkeypatch, case, flags):
    """The closed form is lstsq's (least-norm) solution of the same _log_linear_system rows"""
    systems = []
    closed_form = recovery._solve_log_linear

    def solve(*rows):
        systems.append((rows, closed_form(*rows)))
        return systems[-1][1]

    monkeypatch.setattr(recovery, "_solve_log_linear", solve)
    fit = recover_least_squares(*_least_squares_case(case))
    assert fit.flags == flags
    [(rows, (sol, unique))] = systems
    assert rows[-1] == (case in ("free anchor", "anchor offered whole"))  # lambda_anchor is a column
    matrix, rhs = recovery._log_linear_system(*rows)
    want, _, rank, _ = np.linalg.lstsq(matrix, rhs, rcond=None)
    assert unique == (rank == matrix.shape[1]) == ("rank-deficient" not in flags)
    assert np.abs(sol - want).max() <= 1e-10 * np.abs(want).max(), case


def test_closed_form_flags_a_nest_whose_weight_never_varies():
    """A free lambda column whose -B is constant leaves the system rank-deficient"""
    rng = np.random.default_rng(57)
    nest = np.repeat([0, 1, 2], 6)
    a, b, y = rng.normal(size=(3, len(nest)))
    b[nest == 1] = 0.75
    lam_col = np.array([1, 2, -1])[nest]
    rows = (a, b, y, lam_col, 3 + nest, True)
    sol, unique = recovery._solve_log_linear(*rows)
    matrix, rhs = recovery._log_linear_system(*rows)
    want, _, rank, _ = np.linalg.lstsq(matrix, rhs, rcond=None)
    assert not unique and rank == matrix.shape[1] - 1
    np.testing.assert_allclose(sol, want, rtol=0, atol=1e-12 * np.abs(want).max())


SLICE_4 = slice_design(balanced_enumeration(4, 2))


def _anchor_never_split():
    """recover_all's inputs for nests {1, 2}, {3} without outside option; S offers item 3 alone."""
    truth = NestedLogitModel(
        partition=NestPartition([(1, 2), (3,)]), weights=(1.0, 2.0, 3.0), lambdas=(0.5, 1.0),
        outside=False,
    )
    design = ExperimentDesign(n=3, experiments=[(3,)], labels=("S",))
    return design_probabilities(truth, design), truth.partition, design


def _outside_share_moved(row):
    """recover_all's inputs for nests {1, 2}, {3} with outside option, experiment S offering
    items 1 and 3; row's outside probability (0: the control) is moved to item 1."""
    truth = NestedLogitModel(
        partition=NestPartition([(1, 2), (3,)]), weights=(1.0, 2.0, 3.0), lambdas=(0.5, 1.0),
        outside=True,
    )
    design = ExperimentDesign(n=3, experiments=[(1, 3)], labels=("S",))
    probs = design_probabilities(truth, design)
    moved = probs[row].probs.copy()
    moved[[0, 1]] = 0.0, moved[0] + moved[1]
    probs[row] = ChoiceProbabilities(assortment=probs[row].assortment, probs=moved, outside=True)
    return probs, truth.partition, design


@pytest.mark.parametrize("call, message", [
    (lambda: within_nest_weights(
        ChoiceProbabilities(assortment=(1, 3), probs=np.array([0.0, 0.5, 0.0, 0.5]), outside=False),
        NestPartition([(1, 2, 3)])),
     "control row offers items [1, 3], partition covers items 1..3"),
    (lambda: recover_all(  # least squares fits without S; exact recovery refuses it
        empirical_probabilities(
            ChoiceCountTable(n=2, outside=True, labels=("control", "S"), assortments=((1, 2), (1,)),
                             counts=([1, 2, 2], [0, 0, 0]))),
        NestPartition([(1,), (2,)]), ExperimentDesign(n=2, experiments=[(1,)], labels=("S",))),
     "assortments with no customers: S"),
    (lambda: recover_all(*_outside_share_moved(0)),
     "zero control probability for the outside option"),
    (lambda: recover_all(*_outside_share_moved(1)), "S misses the anchor or nest 0"),
    (lambda: recover_all(*_anchor_never_split()),
     "no experiment splits the anchor while offering nest 1"),
    (lambda: recover_all(
        design_probabilities(generate_ground_truth(4, 20), SLICE_4),
        NestPartition([(1, 2), (3, 4)]), SLICE_4),
     "nest 1: lambda = -0.0338"),
])
def test_recovery_boundary_checks(call, message):
    """Each message starts with its text; a fitted lambda's digits past the fourth are not pinned"""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


def test_clamp_lambda_absorbs_roundoff_only():
    """Within LAMBDA_ROUNDOFF of [0, 1] a solved lambda is clamped; beyond it, refused"""
    roundoff = recovery.LAMBDA_ROUNDOFF
    assert recovery._clamp_lambda(-1e-16, "nest 1") == 0.0
    assert recovery._clamp_lambda(-roundoff, "nest 1") == 0.0
    assert recovery._clamp_lambda(1.0 + roundoff, "nest 1") == 1.0
    assert recovery._clamp_lambda(0.25, "nest 1") == 0.25
    for lam in (-2 * roundoff, 1.0 + 2 * roundoff):
        with pytest.raises(RecoveryError, match="^nest 1: lambda = "):
            recovery._clamp_lambda(lam, "nest 1")
    # With flags (least squares) nothing is raised, and a lambda below 0 reads as lambda = 0
    flags = []
    assert recovery._clamp_lambda(-0.5, "below", flags) == 0.0
    assert recovery._clamp_lambda(1.0 + roundoff, "roundoff", flags) == 1.0
    assert recovery._clamp_lambda(1.0 + 2 * roundoff, "above", flags) == 1.0
    assert flags == ["above"]


def test_exact_recovery_reads_a_roundoff_lambda_as_a_fixed_weight_nest():
    """A lambda = 0 nest solves to about +-1e-16; both signs recover lambda 0 and its weight"""
    for w in ((1.0, 2.0, 3.0, 4.0), (2.0, 5.0, 3.0, 7.0), (4.0, 1.0, 2.0, 6.0)):
        for outside in (True, False):
            truth = NestedLogitModel(
                partition=NestPartition([(1, 2), (3, 4)]), weights=w, lambdas=(0.5, 0.0),
                outside=outside, degenerate_weights={1: 3.0},
            )
            probs = design_probabilities(truth, SLICE_4)
            fitted = recover_all(probs, truth.partition, SLICE_4)
            assert fitted.lambdas[1] == 0.0
            assert rmse_soft(truth, fitted) < 1e-12


def _fit_rounded_counts(scale: float) -> tuple[NestedLogitModel, recovery.LeastSquaresRecovery]:
    """Least squares on scale times the exact probabilities of a lambda = 0 nest's model, rounded"""
    truth = NestedLogitModel(
        partition=NestPartition([(1, 2), (3, 4)]), weights=(2.0, 5.0, 3.0, 7.0),
        lambdas=(0.5, 0.0), degenerate_weights={1: 3.0},
    )
    probs = design_probabilities(truth, SLICE_4)
    counts = np.array([np.round(cp.probs * scale) for cp in probs]).astype(np.int64)
    table = ChoiceCountTable(
        n=4, outside=True, labels=("control", *SLICE_4.labels),
        assortments=(SLICE_4.control, *SLICE_4.experiments), counts=counts,
    )
    return truth, recover_least_squares(table, truth.partition, SLICE_4)


def test_least_squares_reads_a_vanishing_lambda_as_a_fixed_weight_nest():
    """A lambda = 0 nest fitted as lambda ~ 3e-10 at 1e10 counts becomes lambda 0, weight 3"""
    truth, fit = _fit_rounded_counts(1e10)
    assert fit.flags == []
    assert fit.model.lambdas[1] == 0.0
    assert fit.model.degenerate_weights[1] == pytest.approx(3.0, abs=1e-6)
    score = rmse_soft(truth, fit.model)
    assert score < 1e-9
    assert score < rmse_soft(truth, _fit_rounded_counts(1e9)[1].model)  # more data, better fit


def test_least_squares_fixes_a_lambda_whose_scale_would_pass_the_cap():
    """At 1e7 counts the lambda = 0 nest fits lambda ~ 7e-9, above DEGENERATE_LAMBDA, but
    exp(s_N / lambda) would pass exp(LOG_CAP): it becomes lambda 0, weight exp(s_N) ~ 3, uncapped"""
    fit = _fit_rounded_counts(1e7)[1]
    assert fit.flags == []
    assert fit.model.lambdas[1] == 0.0
    assert fit.model.weights[2] == 1.0  # a fixed-weight nest keeps scale 1
    assert fit.model.degenerate_weights[1] == pytest.approx(3.0, rel=1e-4)


def test_least_squares_fits_a_lambda_0_nest_better_with_more_data():
    """rmse_soft falls at every tenfold step of the counts from 1e3 to 1e10; no fit is
    flagged, also where rounding solves the lambda = 0 nest's lambda below -LAMBDA_ROUNDOFF"""
    scores = []
    for exponent in range(3, 11):
        truth, fit = _fit_rounded_counts(10.0**exponent)
        assert fit.flags == []
        assert fit.model.lambdas[1] == 0.0
        scores.append(rmse_soft(truth, fit.model))
    assert all(later < earlier for earlier, later in zip(scores, scores[1:])), scores


@pytest.mark.parametrize("outside, seed, flags, lambdas", [
    (True, 44, ["nest-1-lambda-clamped"], (0.3161629384316399, 1.0)),  # solved 1.21
    (False, 71, ["anchor-lambda-clamped", "nest-1-lambda-clamped"], (1.0, 1.0)),  # 1.58, 1.30
], ids=["outside", "no-outside"])
def test_least_squares_flags_a_lambda_solved_outside_0_1(outside, seed, flags, lambdas):
    """400 customers on n=4: least squares clamps and flags a lambda solved above 1 that
    exact recovery, by the same LAMBDA_ROUNDOFF, refuses"""
    truth = generate_ground_truth(4, seed, outside=outside)
    alloc = allocate_customers(400, SLICE_4.num_experiments + 1)
    table = sample_choices(truth, SLICE_4, alloc, seed=seed)
    fit = recover_least_squares(table, truth.partition, SLICE_4)
    assert fit.flags == flags
    assert fit.model.lambdas == pytest.approx(lambdas, rel=1e-12)
    with pytest.raises(recovery.RecoveryError, match=r"lambda = .* outside \[0, 1\]$"):
        recover_all(empirical_probabilities(table), truth.partition, SLICE_4)


def test_fitted_model_is_the_one_nest_rule():
    """(lambda_N, s_N) to a scale, a fixed weight or a capped scale; the anchor keeps scale 1"""
    partition = NestPartition([(1, 2), (3, 4), (5,), (6, 7)])
    weights = np.array([0.0, 1.0, 2.0, 1.0, 3.0, 1.0, 1.0, 4.0])
    s = [math.log(5.0), math.log(2.0), 2.0, -1.0]
    for outside in (True, False):
        model, capped = recovery._fitted_model(partition, weights, [0.0, 0.5, 1.0, 1e-3], s, outside)
        # |s_N| = 1 > LOG_CAP * 1e-3: exp(s_N / lambda) would pass the cap, so nest 3 is fixed
        assert model.lambdas == (0.0, 0.5, 1.0, 0.0)
        # a fixed-weight nest, like the anchor, keeps scale 1
        assert model.weights == pytest.approx((1.0, 2.0, 4.0, 12.0, math.exp(2.0), 1.0, 4.0))
        assert capped == []
        # exp(s_N) for a lambda = 0 nest; an anchor with lambda exactly 0 has nest value 1
        assert model.degenerate_weights == {
            0: pytest.approx(5.0 if outside else 1.0), 3: pytest.approx(math.exp(-1.0))
        }
    # Only a fixed weight's own log can pass LOG_CAP; it is capped and reported
    model, capped = recovery._fitted_model(partition, weights, [0.5, 0.0, 1.0, 0.5], [0, -800, 0, 0], True)
    assert model.degenerate_weights == {1: math.exp(-recovery.LOG_CAP)}
    assert capped == [1]
    # Below DEGENERATE_LAMBDA a nest reads as lambda = 0 with fixed weight exp(s_N);
    # an anchor keeps its own lambda unless it is exactly 0.
    model, capped = recovery._fitted_model(partition, weights, [1e-10, 1e-10, 1.0, 0.5], s, False)
    assert model.lambdas == (1e-10, 0.0, 1.0, 0.5)
    assert model.degenerate_weights == {1: pytest.approx(2.0)}
    assert capped == []
