"""Two-level Nested Logit choice model.

Items 1..n are partitioned into nests.  Nest N with dissimilarity lambda_N
contributes weight (sum of member item weights in the assortment)**lambda_N,
except lambda_N = 0 nests, which contribute a fixed weight v_N whenever any
member is offered.  An optional outside option (id 0) sits in its own nest
with weight 1.

Per-assortment values share one row format: an item-indexed vector of
length n + 1, column 0 the outside option and column i item i, 0 where
absent.  Every choice probability comes from one kernel, probability_table,
fed per-nest offered weights (from offer masks here, by doubling over all
subsets in metrics).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

LAMBDA_ROUNDOFF = 1e-9  # slack for clamping lambda back into [0, 1]


@dataclass(frozen=True)
class NestPartition:
    """Partition of items 1..n into nonempty nests.

    Nests are stored sorted, ordered by their smallest member, so two
    partitions are equal iff they group items identically.
    """

    nests: tuple[tuple[int, ...], ...]

    def __init__(self, nests: Iterable[Iterable[int]]):
        canon = sorted(
            (tuple(sorted(set(int(i) for i in nest))) for nest in nests),
            key=lambda t: t[0] if t else 0,
        )
        if any(len(nest) == 0 for nest in canon):
            raise ValueError("empty nest")
        object.__setattr__(self, "nests", tuple(canon))
        items = [i for nest in self.nests for i in nest]
        n = len(items)
        if sorted(items) != list(range(1, n + 1)):
            raise ValueError("nests must partition 1..n exactly")
        lookup = {}
        for idx, nest in enumerate(self.nests):
            for i in nest:
                lookup[i] = idx
        object.__setattr__(self, "_nest_of", lookup)

    @property
    def n(self) -> int:
        return sum(len(nest) for nest in self.nests)

    @property
    def num_nests(self) -> int:
        return len(self.nests)

    def nest_of(self, item: int) -> int:
        """Index of the nest containing an item."""
        return self._nest_of[item]

    def labels(self) -> np.ndarray:
        """Per-item nest indices, position i-1 for item i."""
        out = np.empty(self.n, dtype=np.int64)
        for idx, nest in enumerate(self.nests):
            for i in nest:
                out[i - 1] = idx
        return out


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
        if any(v <= 0 for v in self.weights):
            raise ValueError("item weights must be positive")
        if len(self.lambdas) != self.partition.num_nests:
            raise ValueError("one lambda per nest required")
        if any(not 0.0 <= l <= 1.0 for l in self.lambdas):
            raise ValueError("lambda values must lie in [0, 1]")
        degenerate = {k for k, l in enumerate(self.lambdas) if l == 0.0}
        if set(self.degenerate_weights) != degenerate:
            raise ValueError(
                "degenerate_weights must cover exactly the nests with lambda = 0"
            )
        if any(v <= 0 for v in self.degenerate_weights.values()):
            raise ValueError("degenerate nest weights must be positive")

    @property
    def n(self) -> int:
        return self.partition.n

    def weight(self, item: int) -> float:
        return self.weights[item - 1]


@dataclass(frozen=True, eq=False)
class ChoiceProbabilities:
    """Choice distribution over one assortment as a row of length n + 1.

    probs[i] is item i's probability (0 if not offered), probs[0] the outside option's.
    """

    assortment: tuple[int, ...]
    probs: np.ndarray
    outside: bool

    def prob(self, item: int) -> float:
        return float(self.probs[item])


def offered_mask(
    n: int, outside: bool, assortments: Sequence[Sequence[int]], labels: Sequence[str]
) -> np.ndarray:
    """Bool (len(assortments), n + 1) mask of the offered entries of each row.

    Column 0, the outside option, is set on every row when present.  Items
    outside 1..n are rejected, naming the row's label.
    """
    mask = np.zeros((len(assortments), n + 1), dtype=bool)
    for label, row, items in zip(labels, mask, assortments):
        cols = np.asarray(items, dtype=np.int64)
        bad = cols[(cols < 1) | (cols > n)]
        if bad.size:
            raise ValueError(f"item {bad[0]} of {label} lies outside 1..{n}")
        row[cols] = True
    mask[:, 0] = outside
    return mask


def nest_sums(partition: NestPartition, values: np.ndarray) -> np.ndarray:
    """Per-nest column sums: out[k, r] sums values[t, r] over the items t + 1 of nest k.

    values is item-major, shape (n, R).  Each sum adds the nest's items in
    increasing order, as a scalar loop over the nest would.
    """
    rows = values.shape[1]
    bins = partition.labels()[:, None] * rows + np.arange(rows)
    return np.bincount(bins.ravel(), values.ravel(), partition.num_nests * rows).reshape(-1, rows)


def probability_table(
    model: NestedLogitModel, within: np.ndarray, offered: np.ndarray
) -> np.ndarray:
    """The one probability kernel: R assortments from their per-nest offered weights.

    within[k, r] is nest k's offered weight W_N(S_r), offered[t, r] whether
    assortment r offers item t + 1.  Nest values W_N ** lambda_N (in log
    space; the fixed weight when lambda_N = 0, 0 for an absent nest), the
    denominator (summed nest by nest, so no row depends on the others) and
    one per-nest factor v_N / denom / W_N are whole-array operations; item
    column i is factor[nest(i)] * v_i, zeroed where not offered.  Returns
    the (R, n + 1) row-format table, column-major, allocated only after
    within is dropped, so a temporary passed in is freed first.
    """
    present = within > 0.0
    factor = np.zeros_like(within)
    np.log(within, out=factor, where=present)
    factor *= np.asarray(model.lambdas)[:, None]
    np.exp(factor, out=factor, where=present)
    for k, v in model.degenerate_weights.items():
        factor[k] = present[k] * v
    denom = np.zeros(within.shape[1])
    for values in factor:
        denom += values
    if model.outside:
        denom += 1.0
    # per-nest factor v_N(S) / (denom(S) * W_N(S)), in place; absent nests stay 0
    factor /= denom
    np.divide(factor, within, out=factor, where=present)
    del within, present  # free before the table is allocated
    probs = np.empty((model.n + 1, offered.shape[1]))  # one contiguous row per column
    if model.outside:
        np.divide(1.0, denom, out=probs[0])
    else:
        probs[0] = 0.0
    for i, k in enumerate(model.partition.labels().tolist(), start=1):
        np.multiply(factor[k], model.weights[i - 1], out=probs[i])
    probs[1:] *= offered
    return probs.T


def _check_assortment(model: NestedLogitModel, assortment: Sequence[int]) -> tuple[int, ...]:
    items = tuple(sorted(set(int(i) for i in assortment)))
    if not items:
        raise ValueError("assortment must be nonempty")
    return items


def _assortment_probabilities(
    model: NestedLogitModel, assortments: Sequence[Sequence[int]]
) -> list[ChoiceProbabilities]:
    rows = [_check_assortment(model, items) for items in assortments]
    offered = offered_mask(model.n, False, rows, rows)[:, 1:].T  # item-major
    within = nest_sums(model.partition, offered * np.asarray(model.weights)[:, None])
    table = probability_table(model, within, offered)
    return [
        ChoiceProbabilities(assortment=items, probs=row, outside=model.outside)
        for items, row in zip(rows, table)
    ]


def choice_probabilities(
    model: NestedLogitModel, assortment: Sequence[int]
) -> ChoiceProbabilities:
    """Choice probability of every offered item (and the outside option if present)."""
    return _assortment_probabilities(model, [assortment])[0]


def design_probabilities(model: NestedLogitModel, design) -> list[ChoiceProbabilities]:
    """Exact choice probabilities for the control and every experiment, in one kernel call."""
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
    order = sorted(range(len(nests)), key=lambda k: nests[k][0])
    remap = {old: new for new, old in enumerate(order)}
    return NestedLogitModel(
        partition=NestPartition([nests[k] for k in order]),
        weights=tuple(weights),
        lambdas=tuple(lambdas[k] for k in order),
        outside=model.outside,
        degenerate_weights={remap[k]: v for k, v in degenerate.items()},
    )


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
    if n < 2:
        raise ValueError("ground truth generation needs n >= 2")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    perm = rng.permutation(n) + 1
    k = int(rng.integers(1, n // 2 + 1))
    cuts = np.sort(rng.choice(n - 1, size=k - 1, replace=False)) + 1
    bounds = [0, *cuts.tolist(), n]
    nests = [
        tuple(sorted(int(x) for x in perm[bounds[j]:bounds[j + 1]]))
        for j in range(k)
    ]
    partition = NestPartition(nests)
    weights = tuple(float(w) for w in rng.uniform(1.0, 10.0, size=n))
    lambdas = tuple(float(l) for l in rng.uniform(0.3, 0.6, size=k))
    # Dataclass canonicalizes nest order; realign lambdas before constructing.
    order = sorted(range(k), key=lambda j: min(nests[j]))
    model = NestedLogitModel(
        partition=partition,
        weights=weights,
        lambdas=tuple(lambdas[j] for j in order),
        outside=outside,
    )
    return normalize_identifiable(model)


def nest_multiplier(model: NestedLogitModel, nest_index: int, assortment: Sequence[int]) -> float:
    """Mult(N, S) = (full nest weight / offered nest weight)**(1 - lambda_N).

    Equals 1 iff the nest is fully offered; undefined (raises) when the nest
    misses the assortment entirely.
    """
    nest = model.partition.nests[nest_index]
    offered = set(assortment)
    total = sum(model.weight(i) for i in nest)
    inside = sum(model.weight(i) for i in nest if i in offered)
    if inside == 0.0:
        raise ValueError("nest does not intersect the assortment")
    lam = model.lambdas[nest_index]
    return math.exp((1.0 - lam) * (math.log(total) - math.log(inside)))


def check_general_position(
    model: NestedLogitModel,
    design,
    tolerance: float = 1e-9,
) -> list[tuple[str, int, int]]:
    """Flag experiments where two partially offered nests share a multiplier.

    Returns (experiment label, nest index, nest index) triples; empty means
    the design can tell all partially offered nests apart.
    """
    violations = []
    for label, items in zip(design.labels, design.experiments):
        offered = set(items)
        partial = []
        for k, nest in enumerate(model.partition.nests):
            inside = sum(1 for i in nest if i in offered)
            if 0 < inside < len(nest):
                partial.append((k, nest_multiplier(model, k, items)))
        for a in range(len(partial)):
            for c in range(a + 1, len(partial)):
                ka, ma = partial[a]
                kc, mc = partial[c]
                if abs(ma - mc) <= tolerance * max(abs(ma), abs(mc)):
                    violations.append((label, ka, kc))
    return violations


def model_to_dict(model: NestedLogitModel) -> dict:
    return {
        "n": model.n,
        "nests": [list(nest) for nest in model.partition.nests],
        "v": list(model.weights),
        "lambda": list(model.lambdas),
        "v_nest_degenerate": {str(k): v for k, v in model.degenerate_weights.items()},
        "outside_option": model.outside,
    }


def model_from_dict(data: dict) -> NestedLogitModel:
    return NestedLogitModel(
        partition=NestPartition(data["nests"]),
        weights=tuple(data["v"]),
        lambdas=tuple(data["lambda"]),
        outside=bool(data["outside_option"]),
        degenerate_weights={int(k): v for k, v in data.get("v_nest_degenerate", {}).items()},
    )


def save_model(model: NestedLogitModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path: str) -> NestedLogitModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
