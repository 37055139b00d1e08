"""Two-level Nested Logit choice model.

Items 1..n are partitioned into nests.  Nest N with dissimilarity lambda_N
contributes weight (sum of member item weights in the assortment)**lambda_N,
except lambda_N = 0 nests, which contribute a fixed weight v_N whenever any
member is offered.  An optional outside option (id 0) sits in its own nest
with weight 1.  Every assortment, nest and 1-based lookup takes its item
ids through one rule: item_ids (item_position for lookups); every control
row that boosts or recovery read, through check_control_row.

Per-assortment values share one row format: an item-indexed vector of
length n + 1, column 0 the outside option and column i item i, 0 where
absent.  Every choice probability comes from one kernel in two steps that
both callers share: nest_values turns per-nest offered weights into nest
values W ** lambda, and nest_factors turns those into the denominator and
the per-nest factors; item i's probability is its nest's factor times v_i.
probability_table runs both steps on the offered weights of designs and
single assortments (from offer masks) and spreads the factors into rows.
metrics runs the value step once per model, on per-nest tables of the
weight of every subset of a nest's items, and the factor step on each
all-subset block's gathered values, reading the offered entries straight
from the factors.  A row never depends on the rows computed with it.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

LAMBDA_ROUNDOFF = 1e-9  # slack for clamping lambda back into [0, 1]
EXACT_TOLERANCE = 1e-9  # relative; exact inputs only carry roundoff noise
_MODEL_KEYS = ("nests", "v", "lambda", "outside_option")  # the keys a model file must hold


def item_ids(items: Iterable[int], n: int | None = None, what: str = "") -> tuple[int, ...]:
    """The one item-id rule: the distinct items of a set, sorted.

    Each id must be an integer (operator.index raises TypeError otherwise);
    given n, an id outside 1..n is a ValueError naming the first such id of what.
    """
    ids = list(map(operator.index, items))
    out = sorted(set(ids))
    if n is not None and out and (out[0] < 1 or out[-1] > n):
        bad = next(i for i in ids if not 1 <= i <= n)
        raise ValueError(f"item {bad} of {what} lies outside 1..{n}")
    return tuple(out)


def item_position(item: int, n: int) -> int:
    """0-based position of a 1-based id; KeyError unless item_ids takes it in 1..n."""
    try:
        return item_ids((item,), n)[0] - 1
    except (TypeError, ValueError):
        raise KeyError(item) from None


def integer(value, what: str) -> int:
    """operator.index(value), or one ValueError naming what the value is."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def check_control_row(control: ChoiceProbabilities, partition: NestPartition | None = None) -> None:
    """The one control-row rule, for boosts and both recoveries.

    The row must offer exactly items 1..n (the partition's n, else the row's
    own length), each with positive probability, as must the outside option
    when the row has one.  A mismatch names both item sets.
    """
    items = control.assortment
    n = len(items) if partition is None else partition.n
    if items != tuple(range(1, n + 1)):
        offered = f"1..{len(items)}" if items == tuple(range(1, len(items) + 1)) else list(items)
        expected = "not" if partition is None else "partition covers"
        raise ValueError(f"control row offers items {offered}, {expected} items 1..{n}")
    dead = (np.flatnonzero(control.probs[1:] == 0.0) + 1).tolist()
    if dead:
        raise ValueError(f"zero control probability for items {dead}")
    if control.outside and control.probs[0] == 0.0:
        raise ValueError("zero control probability for the outside option")


@dataclass(frozen=True)
class NestPartition:
    """Partition of items 1..n into nonempty nests.

    Nests are stored sorted, ordered by their smallest member, so two
    partitions are equal iff they group items identically.
    """

    nests: tuple[tuple[int, ...], ...]

    def __init__(self, nests: Iterable[Iterable[int]]):
        canon = sorted(map(item_ids, nests), key=lambda t: t[0] if t else 0)
        if any(len(nest) == 0 for nest in canon):
            raise ValueError("empty nest")
        object.__setattr__(self, "nests", tuple(canon))
        items = [i for nest in self.nests for i in nest]
        n = len(items)
        if sorted(items) != list(range(1, n + 1)):
            raise ValueError("nests must partition 1..n exactly")
        labels = np.empty(n, dtype=np.int64)
        labels[np.array(items, dtype=np.intp) - 1] = np.repeat(
            np.arange(len(self.nests)), [len(nest) for nest in self.nests]
        )
        labels.flags.writeable = False
        object.__setattr__(self, "_labels", labels)

    def __reduce__(self):
        # rebuilt from the nests, so an unpickled copy's labels stay read-only
        return NestPartition, (self.nests,)

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def num_nests(self) -> int:
        return len(self.nests)

    def nest_of(self, item: int) -> int:
        """Index of the nest containing an item; KeyError outside 1..n."""
        return int(self._labels[item_position(item, self.n)])

    def labels(self) -> np.ndarray:
        """Per-item nest indices, position i-1 for item i; read-only."""
        return self._labels


def singleton_partition(n: int) -> NestPartition:
    return NestPartition([(i,) for i in range(1, n + 1)])


@dataclass(frozen=True)
class NestedLogitModel:
    """Model parameters: partition, item weights, per-nest dissimilarities.

    degenerate_weights maps nest index -> v_N for nests with lambda_N = 0;
    it must cover exactly those nests.
    """

    partition: NestPartition
    weights: tuple[float, ...]  # item weights v_1..v_n, all > 0
    lambdas: tuple[float, ...]  # one per nest, in [0, 1]
    outside: bool = True
    degenerate_weights: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        n = self.partition.n
        object.__setattr__(self, "weights", tuple(float(v) for v in self.weights))
        object.__setattr__(self, "lambdas", tuple(float(l) for l in self.lambdas))
        object.__setattr__(
            self,
            "degenerate_weights",
            {int(k): float(v) for k, v in dict(self.degenerate_weights).items()},
        )
        if len(self.weights) != n:
            raise ValueError("one weight per item required")
        if not all(0.0 < v < math.inf for v in self.weights):
            raise ValueError("item weights must be positive and finite")
        if len(self.lambdas) != self.partition.num_nests:
            raise ValueError("one lambda per nest required")
        if any(not 0.0 <= l <= 1.0 for l in self.lambdas):
            raise ValueError("lambda values must lie in [0, 1]")
        degenerate = {k for k, l in enumerate(self.lambdas) if l == 0.0}
        if set(self.degenerate_weights) != degenerate:
            raise ValueError(
                "degenerate_weights must cover exactly the nests with lambda = 0"
            )
        if not all(0.0 < v < math.inf for v in self.degenerate_weights.values()):
            raise ValueError("degenerate nest weights must be positive and finite")

    @property
    def n(self) -> int:
        return self.partition.n

    def weight(self, item: int) -> float:
        """Weight v_i of an item; KeyError outside 1..n."""
        return self.weights[item_position(item, self.n)]


def _model_from_nests(
    nests: Sequence[Sequence[int]], weights: Sequence[float], lambdas: Sequence[float],
    outside: bool, degenerate_weights: Mapping[int, float],
) -> NestedLogitModel:
    """The model whose k-th lambda and fixed weight belong to nests[k], in any nest order."""
    nests, lambdas = list(nests), list(lambdas)
    partition = NestPartition(nests)  # which sorts the nests by smallest member
    moved = dict(enumerate(partition.labels()[[nest[0] - 1 for nest in nests]].tolist()))
    # an index past the last nest stays put, for NestedLogitModel to refuse
    order = sorted(range(len(lambdas)), key=lambda k: moved.get(k, k))
    return NestedLogitModel(
        partition, weights, [lambdas[k] for k in order], outside,
        {moved.get(k, k): v for k, v in degenerate_weights.items()},
    )


@dataclass(frozen=True, eq=False)
class ChoiceProbabilities:
    """Choice distribution over one assortment as a row of length n + 1.

    probs[i] is item i's probability (0 if not offered), probs[0] the outside option's.
    """

    assortment: tuple[int, ...]
    probs: np.ndarray
    outside: bool


def offered_mask(
    n: int, outside: bool, assortments: Sequence[Sequence[int]], labels: Sequence[str]
) -> np.ndarray:
    """Bool (len(assortments), n + 1) mask of the offered entries of each row.

    Column 0, the outside option, is set on every row when present.  Each
    row's items go through item_ids, which names the row's label.
    """
    mask = np.zeros((len(assortments), n + 1), dtype=bool)
    for label, row, items in zip(labels, mask, assortments):
        row[np.fromiter(item_ids(items, n, label), np.intp)] = True
    mask[:, 0] = outside
    return mask


def nest_sums(partition: NestPartition, values: np.ndarray) -> np.ndarray:
    """Per-nest column sums: out[k, r] sums values[t, r] over the items t + 1 of nest k.

    values is item-major, shape (n, R).  Each sum adds the nest's items in
    increasing order, as a scalar loop over the nest would.
    """
    rows = values.shape[1]
    bins = partition.labels()[:, None] * rows + np.arange(rows)
    sums = np.bincount(bins.ravel(), values.ravel(), partition.num_nests * rows)
    return sums.reshape(partition.num_nests, rows)


def nest_values(model: NestedLogitModel, within: np.ndarray) -> np.ndarray:
    """The kernel's value step: nest values V_N = W_N ** lambda_N, shape (K, R).

    within[k, r] is nest k's offered weight W_N(S_r).  The power is taken
    in log space; a lambda_N = 0 nest has its fixed weight, and an absent
    nest (W = 0) the value 0.  Absent entries of within are set to 1 in
    place, so every log, exp and division of the kernel is plain.  R may
    count assortments (designs, single assortments) or, in metrics, the
    entries of each nest's table of offered weights.
    """
    present = within > 0.0
    within += ~present
    values = np.log(within)
    values *= np.asarray(model.lambdas)[:, None]
    np.exp(values, out=values)
    values *= present
    for k, v in model.degenerate_weights.items():
        values[k] = present[k] * v
    return values


def nest_factors(
    model: NestedLogitModel, values: np.ndarray, within: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's factor step: (factor, denom) of R assortments, shapes (K, R) and (R,).

    values and within are nest_values' output and its in-place rewrite of
    the offered weights (1 for an absent nest), gathered per assortment.
    The per-nest factor v_N / denom / W_N is computed in place on values:
    item i's probability is factor[nest(i)] * v_i where offered, the
    outside option's 1 / denom.  The denominator adds the nests in index
    order, so no assortment depends on the others: with fewer assortments
    than items (designs, single assortments) as one cumulative sum, with at
    least as many (the all-subset blocks) as a loop that allocates no
    (K, R) temporary.
    """
    rows = values.shape[1]
    if rows >= model.n:
        denom = np.zeros(rows)
        for row in values:
            denom += row
    else:
        denom = np.cumsum(values, axis=0)[-1]  # the same nest-by-nest order
    if model.outside:
        denom += 1.0
    # absent nests stay 0
    values /= denom
    values /= within
    return values, denom


def probability_table(
    model: NestedLogitModel, within: np.ndarray, offered: np.ndarray
) -> np.ndarray:
    """Probability rows of R assortments from their per-nest offered weights.

    within is as in nest_values, which rewrites it, and offered[t, r]
    whether assortment r offers item t + 1.  Returns the (R, n + 1)
    row-format table, column-major.
    """
    factor, denom = nest_factors(model, nest_values(model, within), within)
    probs = np.empty((model.n + 1, within.shape[1]))  # one contiguous row per column
    if model.outside:
        np.divide(1.0, denom, out=probs[0])
    else:
        probs[0] = 0.0
    # mode="clip" writes straight into out; the default "raise" buffers it
    np.take(factor, model.partition.labels(), axis=0, out=probs[1:], mode="clip")
    probs[1:] *= np.asarray(model.weights)[:, None]
    probs[1:] *= offered
    return probs.T


def _assortment_probabilities(
    model: NestedLogitModel, assortments: Sequence[Sequence[int]]
) -> list[ChoiceProbabilities]:
    mask = offered_mask(model.n, False, assortments, ["assortment"] * len(assortments))
    if not mask.any(axis=1).all():
        raise ValueError("assortment must be nonempty")
    offered = mask[:, 1:].T  # item-major
    within = nest_sums(model.partition, offered * np.asarray(model.weights)[:, None])
    table = probability_table(model, within, offered)
    return [  # each row's items as item_ids gives them: its mask's columns
        ChoiceProbabilities(tuple(np.flatnonzero(items).tolist()), row, model.outside)
        for items, row in zip(mask, table)
    ]


def choice_probabilities(
    model: NestedLogitModel, assortment: Sequence[int]
) -> ChoiceProbabilities:
    """Choice probability of every offered item (and the outside option if present)."""
    return _assortment_probabilities(model, [assortment])[0]


def design_probabilities(model: NestedLogitModel, design) -> list[ChoiceProbabilities]:
    """Exact choice probabilities for the control and every experiment, in one kernel call."""
    if design.n != model.n:
        raise ValueError(f"design has {design.n} items, model has {model.n}")
    return _assortment_probabilities(model, (design.control, *design.experiments))


def normalize_identifiable(model: NestedLogitModel) -> NestedLogitModel:
    """Rewrite the model so lambda_N = 1 holds exactly for singleton nests.

    A multi-item nest with lambda = 1 splits into singletons; a singleton
    with lambda < 1 folds the dissimilarity into its weight (v_i**lambda, or
    the degenerate nest weight when lambda = 0).  Choice probabilities are
    unchanged.
    """
    nests: list[tuple[int, ...]] = []
    lambdas: list[float] = []
    weights = list(model.weights)
    degenerate: dict[int, float] = {}
    for k, nest in enumerate(model.partition.nests):
        lam = model.lambdas[k]
        if lam == 1.0 and len(nest) > 1:
            for i in nest:
                nests.append((i,))
                lambdas.append(1.0)
        elif lam < 1.0 and len(nest) == 1:
            i = nest[0]
            if lam == 0.0:
                weights[i - 1] = model.degenerate_weights[k]
            else:
                weights[i - 1] = math.exp(lam * math.log(weights[i - 1]))
            nests.append(nest)
            lambdas.append(1.0)
        else:
            if lam == 0.0:
                degenerate[len(nests)] = model.degenerate_weights[k]
            nests.append(nest)
            lambdas.append(lam)
    return _model_from_nests(nests, weights, lambdas, model.outside, degenerate)


def generate_ground_truth(
    n: int, rng: np.random.Generator | int | None = None, outside: bool = True
) -> NestedLogitModel:
    """Random identifiable instance for simulation studies.

    A uniform permutation of the items is cut by K - 1 dividers at distinct
    uniform positions, K itself uniform on {1..floor(n/2)}, so every nest is
    nonempty.  Item weights are uniform on [1, 10] (ratio at most 10) and
    each nest's lambda is uniform on [0.3, 0.6]; singleton nests then get
    reparameterized to lambda = 1.
    """
    n = integer(n, "item count")
    if n < 2:
        raise ValueError("ground truth generation needs n >= 2")
    rng = np.random.default_rng(rng)
    perm = rng.permutation(n) + 1
    k = int(rng.integers(1, n // 2 + 1))
    cuts = np.sort(rng.choice(n - 1, size=k - 1, replace=False)) + 1
    nests = np.split(perm, cuts)
    weights = rng.uniform(1.0, 10.0, size=n).tolist()
    lambdas = rng.uniform(0.3, 0.6, size=k).tolist()
    return normalize_identifiable(_model_from_nests(nests, weights, lambdas, outside, {}))


def relative_differ(values: np.ndarray, tol: float = EXACT_TOLERANCE) -> np.ndarray:
    """The equality rule: 1.0 where two values differ beyond relative tolerance tol, else 0.0.

    Returns the (R, R) array over every pair of the R values; NaN differs
    from everything, itself included.
    """
    size = np.abs(values)
    bound = tol * np.maximum(size[:, None], size[None, :])
    return (~(np.abs(values[:, None] - values[None, :]) <= bound)).astype(np.float64)


def nest_multipliers(model: NestedLogitModel, assortments: Sequence[Sequence[int]]) -> np.ndarray:
    """Mult(N, S) = (full nest weight / offered nest weight)**(1 - lambda_N), shape (K, R).

    1 where the nest is fully offered, above 1 where partly offered (exactly
    1 for lambda_N = 1), NaN where the assortment offers no member.
    """
    offered = offered_mask(model.n, False, assortments, assortments)[:, 1:].T  # item-major
    weights = np.asarray(model.weights)[:, None]
    inside = nest_sums(model.partition, offered * weights)
    log_inside = np.full(inside.shape, np.nan)
    np.log(inside, out=log_inside, where=inside > 0.0)
    log_total = np.log(nest_sums(model.partition, weights))
    return np.exp((1.0 - np.asarray(model.lambdas))[:, None] * (log_total - log_inside))


def check_general_position(model: NestedLogitModel, design) -> list[tuple[str, int, int]]:
    """Flag experiments where two partially offered nests share a multiplier.

    Multipliers are equal under exact identification's rule, relative_differ.
    Returns (experiment label, nest index, nest index) triples, nest indices
    increasing, experiment by experiment; empty means the design can tell all
    partially offered nests apart.
    """
    offered = offered_mask(model.n, False, design.experiments, design.labels)[:, 1:].T
    counts = nest_sums(model.partition, offered.astype(np.float64))
    sizes = nest_sums(model.partition, np.ones((model.n, 1)))
    partial = (counts > 0.0) & (counts < sizes)
    multipliers = nest_multipliers(model, design.experiments)
    violations = []
    for label, mult, nests in zip(design.labels, multipliers.T, partial.T):
        nests = np.flatnonzero(nests)
        a, c = np.nonzero(np.triu(relative_differ(mult[nests]) == 0.0, 1))
        violations += [(label, i, j) for i, j in zip(nests[a].tolist(), nests[c].tolist())]
    return violations


def partition_to_dict(partition: NestPartition) -> dict:
    return {"n": partition.n, "nests": [list(nest) for nest in partition.nests]}


def model_to_dict(model: NestedLogitModel) -> dict:
    return {
        **partition_to_dict(model.partition),
        "v": list(model.weights),
        "lambda": list(model.lambdas),
        "v_nest_degenerate": {str(k): v for k, v in model.degenerate_weights.items()},
        "outside_option": model.outside,
    }


_Built = TypeVar("_Built")


def from_json_object(
    data, kind: str, keys: Sequence[str], build: Callable[[dict], _Built]
) -> _Built:
    """build(data) for a JSON object that holds every key; else one ValueError naming the kind.

    A field of the wrong type (a number where a list belongs, null for a
    list) surfaces in build as a TypeError and is reported the same way.
    An "n" key must be the n of what build returns (the items that a model's or
    partition's nests cover; a design or config takes its n from that key).
    """
    if not isinstance(data, dict):
        raise ValueError(f"{kind} file must hold a JSON object")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{kind} has no {missing[0]!r} key")
    try:
        built = build(data)
    except TypeError as exc:
        raise ValueError(f"{kind} has a field of the wrong type: {exc}") from None
    if data.get("n", built.n) != built.n:
        raise ValueError(f"{kind} n is {data['n']!r} but its nests cover items 1..{built.n}")
    return built


def read_json(path: str, kind: str, keys: Sequence[str], build: Callable[[dict], _Built]) -> _Built:
    """The one JSON reader: from_json_object on the file's contents."""
    with open(path) as fh:
        return from_json_object(json.load(fh), kind, keys, build)


def write_json(data: dict, path: str) -> None:
    """The one JSON writer: data indented by two spaces, then a final newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_partition(path: str) -> NestPartition:
    return read_json(path, "partition", ("nests",), lambda data: NestPartition(data["nests"]))


def _model_from_object(data: dict) -> NestedLogitModel:
    degenerate = {int(k): v for k, v in dict(data.get("v_nest_degenerate", {})).items()}
    return _model_from_nests(
        data["nests"], data["v"], data["lambda"], bool(data["outside_option"]), degenerate
    )


def model_from_dict(data: dict) -> NestedLogitModel:
    return from_json_object(data, "model", _MODEL_KEYS, _model_from_object)


def save_model(model: NestedLogitModel, path: str) -> None:
    write_json(model_to_dict(model), path)


def load_model(path: str) -> NestedLogitModel:
    return read_json(path, "model", _MODEL_KEYS, _model_from_object)
