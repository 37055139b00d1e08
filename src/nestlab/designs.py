"""Item encodings and assortment experiment designs.

Items are labeled 1..n at every public interface.  An encoding assigns each
item a length-L string of base-b digits; a slice design then runs one
experiment per (position, digit) pair, offering every item whose digit at
that position differs from the given one.  With a balanced encoding this
takes b*L = O(b log n / log b) experiments plus one control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    from_json_object, integer, item_ids, item_position, offered_mask, read_json, write_json,
)

SIZE_RULES = ("uniform_3_6", "half")  # randomized_design's assortment size rules


def _check_items(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"number of items must be a positive integer, got {n!r}")


def _check_base(b: int) -> None:
    if not isinstance(b, (int, np.integer)) or b < 2:
        raise ValueError(f"encoding base must be an integer >= 2, got {b!r}")


def code_length(n: int, b: int) -> int:
    """Smallest L >= 1 with b**L >= n."""
    _check_items(n)
    _check_base(b)
    length = 1
    capacity = b
    while capacity < n:
        capacity *= b
        length += 1
    return length


def _base_b_digits(values: np.ndarray, b: int, width: int) -> np.ndarray:
    """Base-b digits of each value, most significant first, shape (len, width)."""
    out = np.zeros((len(values), width), dtype=np.int64)
    rest = values.astype(np.int64)
    for pos in range(width - 1, -1, -1):
        out[:, pos] = rest % b
        rest //= b
    return out


def _one_based(what: str, value: int, size: int) -> int:
    """0-based index of a 1-based item or position; ValueError unless an integer in 1..size."""
    try:
        return item_position(value, size)
    except KeyError:
        raise ValueError(f"{what} {value} out of range 1..{size}") from None


@dataclass(frozen=True, eq=False)
class BaseBEncoding:
    """Assignment of base-b digit strings to items 1..n.

    digits[i-1] holds the code of item i, most significant digit first.
    """

    n: int
    b: int
    digits: np.ndarray  # shape (n, L), entries in 0..b-1

    def __post_init__(self):
        if self.digits.shape[0] != self.n:
            raise ValueError("digit matrix does not cover all items")

    @property
    def length(self) -> int:
        return self.digits.shape[1]

    def _item_index(self, item: int) -> int:
        return _one_based("item", item, self.n)

    def _position_index(self, position: int) -> int:
        return _one_based("position", position, self.length)

    def sigma(self, item: int) -> tuple[int, ...]:
        """Code of an item as a digit tuple."""
        return tuple(int(d) for d in self.digits[self._item_index(item)])

    def sigma_digit(self, item: int, position: int) -> int:
        """Digit of an item at a 1-based position."""
        return int(self.digits[self._item_index(item), self._position_index(position)])

    def position_counts(self, position: int) -> np.ndarray:
        """How many items carry each digit 0..b-1 at a 1-based position."""
        return np.bincount(self.digits[:, self._position_index(position)], minlength=self.b)


def naive_encoding(n: int, b: int) -> BaseBEncoding:
    """Encode item i as the base-b representation of i-1, left-padded to L digits."""
    length = code_length(n, b)
    digits = _base_b_digits(np.arange(n), b, length)
    return BaseBEncoding(n=n, b=b, digits=digits)


def balanced_enumeration(n: int, b: int) -> BaseBEncoding:
    """Encode items so that every position's digit counts differ by at most 1.

    The k-th codeword (k = 0..n-1) is built from t = k // b and i = k % b as
    (i, i + j_2, ..., i + j_L) mod b, where (j_2..j_L) are the base-b digits
    of t.  Codewords stay pairwise distinct because t is injective in the last
    L-1 coordinates once the first is subtracted out, and each position cycles
    through all b digits before t advances, which caps the count spread at 1.
    """
    length = code_length(n, b)
    k = np.arange(n)
    t = k // b
    i = k % b
    offsets = np.zeros((n, length), dtype=np.int64)
    if length > 1:
        offsets[:, 1:] = _base_b_digits(t, b, length - 1)
    digits = (i[:, None] + offsets) % b
    return BaseBEncoding(n=n, b=b, digits=digits)


@dataclass(frozen=True)
class ExperimentDesign:
    """Labeled experimental assortments, compared against a control that offers every item."""

    n: int
    experiments: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        _check_items(self.n)
        rows = (item_ids(s, self.n, f"experiment {k}") for k, s in enumerate(self.experiments))
        object.__setattr__(self, "experiments", tuple(rows))
        if len(self.labels) != len(self.experiments):
            raise ValueError("one label per experiment required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("experiment labels must be unique")

    @property
    def control(self) -> tuple[int, ...]:
        """The control assortment: every item 1..n."""
        return tuple(range(1, self.n + 1))

    @property
    def num_experiments(self) -> int:
        return len(self.experiments)

    def membership_matrix(self) -> np.ndarray:
        """Boolean (num_experiments, n) matrix; row e marks items offered in experiment e."""
        return offered_mask(self.n, False, self.experiments, self.labels)[:, 1:]


def slice_design(encoding: BaseBEncoding) -> ExperimentDesign:
    """One experiment per (position, digit): offer items whose digit there differs.

    Experiments are ordered row-major over positions 1..L and digits 0..b-1.
    For n = 1 some slices are empty; they are kept so the (position, digit)
    grid stays complete.
    """
    experiments = []
    labels = []
    for pos in range(1, encoding.length + 1):
        col = encoding.digits[:, pos - 1]
        for d in range(encoding.b):
            experiments.append((np.flatnonzero(col != d) + 1).tolist())
            labels.append(f"S({pos},-{d})")
    return ExperimentDesign(n=encoding.n, experiments=experiments, labels=tuple(labels))


def randomized_design(
    n: int,
    num_assortments: int,
    size_rule: str = "uniform_3_6",
    rng: np.random.Generator | int | None = None,
) -> ExperimentDesign:
    """Assortments drawn uniformly without replacement, sizes per a fixed rule.

    size_rule "uniform_3_6" draws each size uniformly from {3,4,5,6} and
    needs n >= 6 so every drawable size is feasible; "half" uses floor(n/2)
    and needs n >= 2.  Duplicate assortments across draws are kept.
    """
    _check_items(n)
    num_assortments = integer(num_assortments, "assortment count")
    if num_assortments < 1:
        raise ValueError("need at least one assortment")
    rng = np.random.default_rng(rng)
    if size_rule == "uniform_3_6":
        if n < 6:
            raise ValueError("size rule uniform_3_6 needs n >= 6")
        sizes = rng.integers(3, 7, size=num_assortments)
    elif size_rule == "half":
        if n < 2:
            raise ValueError("size rule half needs n >= 2")
        sizes = np.full(num_assortments, n // 2, dtype=np.int64)
    else:
        raise ValueError(f"unknown size rule {size_rule!r}")
    experiments = [(rng.choice(n, size=int(s), replace=False) + 1).tolist() for s in sizes]
    labels = tuple(f"RAND({k + 1})" for k in range(num_assortments))
    return ExperimentDesign(n=n, experiments=experiments, labels=labels)


def leave_one_out_design(n: int) -> ExperimentDesign:
    """n experiments, the k-th offering every item except k."""
    _check_items(n)
    if n < 2:
        raise ValueError("leave-one-out needs n >= 2")
    full = range(1, n + 1)
    experiments = tuple(tuple(i for i in full if i != k) for k in range(1, n + 1))
    labels = tuple(f"LOO({k})" for k in range(1, n + 1))
    return ExperimentDesign(n=n, experiments=experiments, labels=labels)


def incremental_design(
    n: int, rng: np.random.Generator | int | None = None
) -> ExperimentDesign:
    """Prefixes of a random permutation: {pi_1}, {pi_1,pi_2}, ..., [n].

    The final experiment duplicates the control assortment; it is kept so the
    design has exactly n experiments.
    """
    _check_items(n)
    rng = np.random.default_rng(rng)
    perm = (rng.permutation(n) + 1).tolist()
    experiments = [perm[:k] for k in range(1, n + 1)]
    labels = tuple(f"INC({k})" for k in range(1, n + 1))
    return ExperimentDesign(n=n, experiments=experiments, labels=labels)


def verify_separation(design: ExperimentDesign) -> list[tuple[int, int]]:
    """Ordered item pairs (i, j) with no experiment offering i but not j.

    Empty means every ordered pair is separated, which is what downstream
    identification needs.  The control assortment never separates anything.
    """
    n = design.n
    member = design.membership_matrix()
    separated = np.zeros((n, n), dtype=bool)
    for row in member:
        separated |= row[:, None] & ~row[None, :]
    np.fill_diagonal(separated, True)
    bad = np.argwhere(~separated)
    return [(int(i) + 1, int(j) + 1) for i, j in bad]


def design_to_dict(design: ExperimentDesign) -> dict:
    return {
        "n": design.n,
        "control": list(design.control),
        "experiments": [
            {"label": label, "items": list(items)}
            for label, items in zip(design.labels, design.experiments)
        ],
    }


_DESIGN_KEYS = ("n", "control", "experiments")


def _design_from_object(data: dict) -> ExperimentDesign:
    missing = [key for e in data["experiments"] for key in ("label", "items") if key not in e]
    if missing:
        raise ValueError(f"design has no {missing[0]!r} key")
    design = ExperimentDesign(
        n=data["n"],
        experiments=tuple(tuple(e["items"]) for e in data["experiments"]),
        labels=tuple(e["label"] for e in data["experiments"]),
    )
    if data["control"] != list(design.control):
        raise ValueError(f"design control must list every item 1..{design.n}")
    return design


def design_from_dict(data: dict) -> ExperimentDesign:
    """The design of a JSON object; a "b" key that older files carry is ignored."""
    return from_json_object(data, "design", _DESIGN_KEYS, _design_from_object)


def save_design(design: ExperimentDesign, path: str) -> None:
    write_json(design_to_dict(design), path)


def load_design(path: str) -> ExperimentDesign:
    return read_json(path, "design", _DESIGN_KEYS, _design_from_object)
