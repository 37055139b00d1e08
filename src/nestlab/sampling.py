"""Customer allocation and multinomial choice sampling.

Observed data is a count table: for the control assortment and each
experiment, how many of its m customers picked each offered item: one
int64 (assortments x (n+1)) matrix in the model's row format, so sample
sizes in the hundreds of billions stay exact.  Sampling draws from given
design probabilities, so a caller that has them does not compute them again.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass

import numpy as np

from .designs import ExperimentDesign
from .model import ChoiceProbabilities, NestedLogitModel, design_probabilities, offered_mask


def allocate_customers(total: int, num_assortments: int) -> list[int]:
    """Split a customer budget across assortments as evenly as possible.

    Remainder seats go round-robin starting from the first assortment, so
    sizes differ by at most 1.
    """
    if num_assortments < 1:
        raise ValueError("need at least one assortment")
    if total < num_assortments:
        raise ValueError(
            f"budget {total} cannot give each of {num_assortments} assortments a customer"
        )
    base, rem = divmod(total, num_assortments)
    return [base + (1 if k < rem else 0) for k in range(num_assortments)]


@dataclass(frozen=True, eq=False)
class ChoiceCountTable:
    """Choice counts per assortment, control first.

    assortments[0] is the control; labels align one to one.  counts[r, i] is
    how many of the sizes[r] customers of assortment r chose item i (0: the
    outside option).  Items lie in 1..n, counts are non-negative, zero on
    items the assortment does not offer and sum to the sample size;
    construction rejects anything else.  Tables compare equal by value.
    """

    n: int
    outside: bool
    labels: tuple[str, ...]
    assortments: tuple[tuple[int, ...], ...]
    counts: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        sizes = np.asarray(self.sizes, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "sizes", sizes)
        if counts.ndim != 2 or counts.shape[1] != self.n + 1:
            raise ValueError(f"count matrix has shape {counts.shape}, not (rows, {self.n + 1})")
        if not (len(self.labels) == len(self.assortments) == len(counts) == len(sizes)):
            raise ValueError("misaligned count table")
        offered = offered_mask(self.n, self.outside, self.assortments, self.labels)
        if counts[~offered].any():
            raise ValueError("count rows must cover exactly the offered items")
        negative = np.argwhere(counts < 0)
        if negative.size:
            r, i = negative[0]
            raise ValueError(f"negative count {counts[r, i]} for item {i} in {self.labels[r]}")
        if (counts.sum(axis=1) != sizes).any():
            raise ValueError("counts must sum to the sample size")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChoiceCountTable)
            and (self.n, self.outside, self.labels, self.assortments)
            == (other.n, other.outside, other.labels, other.assortments)
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.sizes, other.sizes)
        )


def draw_counts(
    probs: list[ChoiceProbabilities],
    design: ExperimentDesign,
    allocation: list[int],
    seed: int,
) -> ChoiceCountTable:
    """Draw multinomial choice counts from given design probabilities.

    probs is design_probabilities(model, design): the control first, then
    one row per experiment; allocation[0] is the control's sample size.
    Each assortment gets an independent stream derived from (seed,
    assortment index), so per-assortment results do not shift when other
    assortments change.
    """
    if len(allocation) != design.num_experiments + 1:
        raise ValueError("allocation must cover control plus every experiment")
    labels = ("control", *design.labels)
    assortments = (design.control, *design.experiments)
    if tuple(cp.assortment for cp in probs) != assortments:
        raise ValueError("probabilities must cover the control and every experiment, in order")
    outside = probs[0].outside
    counts = np.zeros((len(assortments), design.n + 1), dtype=np.int64)
    for idx, (items, cp, m) in enumerate(zip(assortments, probs, allocation)):
        if m < 0:
            raise ValueError("negative sample size")
        support = ([0] if outside else []) + list(items)
        p = cp.probs[support]
        p = p / p.sum()  # guard against accumulated roundoff
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, idx))))
        counts[idx, support] = rng.multinomial(m, p)
    return ChoiceCountTable(
        n=design.n,
        outside=outside,
        labels=labels,
        assortments=assortments,
        counts=counts,
        sizes=allocation,
    )


def sample_choices(
    model: NestedLogitModel,
    design: ExperimentDesign,
    allocation: list[int],
    seed: int,
) -> ChoiceCountTable:
    """Draw multinomial choice counts for the control and every experiment.

    draw_counts applied to design_probabilities(model, design).
    """
    return draw_counts(design_probabilities(model, design), design, allocation, seed)


def empirical_probabilities(table: ChoiceCountTable) -> list[ChoiceProbabilities]:
    """Per-assortment empirical choice frequencies X(i, S) / m_S, control first."""
    starved = [lab for lab, m in zip(table.labels, table.sizes) if m == 0]
    if starved:
        raise ValueError(f"assortments with no customers: {', '.join(starved)}")
    freqs = table.counts / table.sizes[:, None]
    return [
        ChoiceProbabilities(assortment=items, probs=row, outside=table.outside)
        for items, row in zip(table.assortments, freqs)
    ]


COUNT_COLUMNS = ("assortment_label", "item_id", "count", "sample_size")


def save_counts(table: ChoiceCountTable, path: str) -> None:
    lead = (0,) if table.outside else ()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNT_COLUMNS)
        for label, items, row, m in zip(
            table.labels, table.assortments, table.counts.tolist(), table.sizes.tolist()
        ):
            for item in sorted(lead + tuple(items)):
                writer.writerow([label, item, row[item], m])


def load_counts(path: str, n: int) -> ChoiceCountTable:
    index: dict[str, int] = {}  # label -> row, in file order
    sizes: list[int] = []
    listed: list[set[int]] = []  # items listed per row
    entries: list[tuple[int, int, int]] = []  # (row, item, count)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, COUNT_COLUMNS)  # an empty file fails the control check below
        missing = [name for name in COUNT_COLUMNS if name not in header]
        if missing:
            raise ValueError(f"count file has no {missing[0]} column")
        fields = operator.itemgetter(*(header.index(name) for name in COUNT_COLUMNS))
        for rec in reader:
            if not rec:  # blank line
                continue
            if len(rec) < len(header):
                raise ValueError(
                    f"count file line {reader.line_num} has {len(rec)} fields, not {len(header)}"
                )
            label, item, count, size = fields(rec)
            try:
                item, count, size = int(item), int(count), int(size)
            except ValueError:  # name the first field that is not an integer
                for name, text in zip(COUNT_COLUMNS[1:], (item, count, size)):
                    try:
                        int(text)
                    except ValueError:
                        raise ValueError(
                            f"count file line {reader.line_num}: {name} {text!r} is not an integer"
                        ) from None
            r = index.setdefault(label, len(index))
            if r == len(sizes):
                sizes.append(size)
                listed.append(set())
            elif sizes[r] != size:
                raise ValueError(f"{label} lists sample sizes {sizes[r]} and {size}")
            if item in listed[r]:
                raise ValueError(f"{label} lists item {item} twice")
            listed[r].add(item)
            entries.append((r, item, count))
    labels = tuple(index)
    if not labels or labels[0] != "control":
        raise ValueError("count file must start with the control assortment")
    outside = 0 in listed[0]
    if any((0 in items) != outside for items in listed):
        raise ValueError("count rows must cover exactly the offered items")
    counts = np.zeros((len(labels), n + 1), dtype=np.int64)
    for r, item, count in entries:
        if 0 <= item <= n:  # the table rejects items outside 1..n, naming the label
            counts[r, item] = count
    return ChoiceCountTable(
        n=n,
        outside=outside,
        labels=labels,
        assortments=tuple(tuple(sorted(items - {0})) for items in listed),
        counts=counts,
        sizes=sizes,
    )
