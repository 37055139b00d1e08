"""Customer allocation and multinomial choice sampling.

Observed data is a count table: how many of each assortment's m customers
picked each offered item, control first, in one int64 (assortments x (n+1))
matrix in the model's row format (exact for sample sizes in the hundreds of
billions), with the sorted assortments and the offer mask later stages read.
Sampling draws from given design probabilities, so callers compute them once.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .designs import ExperimentDesign
from .model import (
    ChoiceProbabilities, NestedLogitModel, design_probabilities, integer, offered_mask,
)

INT64 = np.iinfo(np.int64)


def allocate_customers(total: int, num_assortments: int) -> list[int]:
    """Split a customer budget across assortments as evenly as possible.

    Remainder seats go round-robin starting from the first assortment, so
    sizes differ by at most 1.
    """
    total, num_assortments = integer(total, "budget"), integer(num_assortments, "assortment count")
    if num_assortments < 1:
        raise ValueError("need at least one assortment")
    if total > INT64.max:
        raise ValueError(f"budget {total} does not fit in int64")
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
    outside option); sizes are the row sums.  Items lie in 1..n, counts are
    non-negative, zero on items the assortment does not offer and sum within
    int64, and the control has customers; construction rejects anything
    else.  Assortments are stored as item_ids gives them; offered is the
    read-only mask of offered entries, column 0 the outside option, so
    np.flatnonzero(offered[r]) is row r's support.  Tables compare by value.
    """

    n: int
    outside: bool
    labels: tuple[str, ...]
    assortments: tuple[tuple[int, ...], ...]
    counts: np.ndarray
    sizes: np.ndarray = field(init=False)
    offered: np.ndarray = field(init=False)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2 or counts.shape[1] != self.n + 1:
            raise ValueError(f"count matrix has shape {counts.shape}, not (rows, {self.n + 1})")
        if not (len(self.labels) == len(self.assortments) == len(counts)):
            raise ValueError("misaligned count table")
        offered = offered_mask(self.n, self.outside, self.assortments, self.labels)
        offered.flags.writeable = False
        object.__setattr__(self, "offered", offered)
        rows = (tuple((np.flatnonzero(items) + 1).tolist()) for items in offered[:, 1:])
        object.__setattr__(self, "assortments", tuple(rows))  # each row's item columns
        if counts[~offered].any():
            raise ValueError("count rows must cover exactly the offered items")
        negative = np.argwhere(counts < 0)
        if negative.size:
            r, i = negative[0]
            raise ValueError(f"negative count {counts[r, i]} for item {i} in {self.labels[r]}")
        totals = counts.cumsum(axis=1)  # of non-negative terms: a wrap first shows as negative
        wrapped = np.flatnonzero((totals < 0).any(axis=1))
        if wrapped.size:
            raise ValueError(f"counts of {self.labels[wrapped[0]]} do not fit in int64")
        object.__setattr__(self, "sizes", totals[:, -1].copy())
        if not self.sizes[:1].any():  # a table without rows has no control either
            raise ValueError("control has no customers")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChoiceCountTable)
            and (self.n, self.outside, self.labels, self.assortments)
            == (other.n, other.outside, other.labels, other.assortments)
            and np.array_equal(self.counts, other.counts)
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


def _csv_lead(label: str) -> str:
    """label as csv.writer writes it as a line's first field, with the delimiter after."""
    line = io.StringIO()
    csv.writer(line).writerow([label, ""])
    return line.getvalue()[: -len(csv.excel.lineterminator)]


def save_counts(table: ChoiceCountTable, path: str) -> None:
    """Write one line per offered item of each assortment, control first, items in order.

    The bytes are csv.writer's: only a label can need quoting, so csv.writer
    writes each label once and the integer fields are formatted directly.
    """
    end = csv.excel.lineterminator
    per_assortment = zip(map(_csv_lead, table.labels), table.offered,
                         table.counts.tolist(), table.sizes.tolist())
    lines = (
        f"{head}{item},{row[item]},{m}{end}"
        for head, offered, row, m in per_assortment
        for item in np.flatnonzero(offered).tolist()
    )
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(COUNT_COLUMNS)
        fh.write("".join(lines))


def _integer_fault(text: str) -> str | None:
    """Why an int64 field cannot hold text, or None when it can."""
    try:
        return None if INT64.min <= int(text) <= INT64.max else "does not fit in int64"
    except ValueError:
        return "is not an integer"


def _count_reader(fh) -> tuple[list[str], Any]:
    """(header, csv reader past it) of an open count file."""
    reader = csv.reader(fh)
    return next(reader, list(COUNT_COLUMNS)), reader  # an empty file fails the control check


def _record_line(path: str, index: int) -> int:
    """The line on which a count file's non-blank record index (0: first after the header) ends."""
    with open(path, newline="") as fh:
        _, reader = _count_reader(fh)
        for _ in itertools.islice(filter(None, reader), index + 1):
            pass
        return reader.line_num


def load_counts(path: str, n: int) -> ChoiceCountTable:
    """Read save_counts' format: columns found by header name, in any order.

    Extra columns and blank lines are ignored.  The file is parsed once and
    checked column by column in a fixed rule order: field count, int64
    fields, one sample size per label, no repeated item, control first, one
    outside-option setting, the table's rules, then each listed sample size
    against its counts' sum.  Each rule raises at its first offending record,
    naming its line (and field) or its label.
    """
    with open(path, newline="") as fh:
        header, reader = _count_reader(fh)
        missing = [name for name in COUNT_COLUMNS if name not in header]
        if missing:
            raise ValueError(f"count file has no {missing[0]} column")
        records = list(filter(None, reader))  # blank lines dropped
    widths = np.fromiter(map(len, records), np.int64, len(records))
    short = np.flatnonzero(widths < len(header))
    if short.size:
        r = int(short[0])
        raise ValueError(
            f"count file line {_record_line(path, r)} has {widths[r]} fields, not {len(header)}"
        )
    columns = list(zip(*records)) or [()] * len(header)
    labels_col, *numbers = (columns[header.index(name)] for name in COUNT_COLUMNS)
    try:
        item, count, size = (np.array(list(map(int, texts)), dtype=np.int64) for texts in numbers)
    except (ValueError, OverflowError):  # name the first field that is not an int64
        r, c, fault = min(
            (r, c, fault) for c, texts in enumerate(numbers)
            for r, fault in enumerate(map(_integer_fault, texts)) if fault
        )
        raise ValueError(
            f"count file line {_record_line(path, r)}: {COUNT_COLUMNS[c + 1]} "
            f"{numbers[c][r]!r} {fault}"
        ) from None
    index = {label: r for r, label in enumerate(dict.fromkeys(labels_col))}  # in file order
    rows = np.fromiter(map(index.__getitem__, labels_col), np.int64, len(labels_col))
    sizes = size[np.unique(rows, return_index=True)[1]]  # each label's first record
    conflicting = np.flatnonzero(size != sizes[rows])
    if conflicting.size:
        r = conflicting[0]
        raise ValueError(f"{labels_col[r]} lists sample sizes {sizes[rows[r]]} and {size[r]}")
    order = np.lexsort((item, rows))  # stable: a repeat follows its first listing
    repeats = order[1:][(np.diff(rows[order]) == 0) & (np.diff(item[order]) == 0)]
    if repeats.size:
        r = repeats.min()
        raise ValueError(f"{labels_col[r]} lists item {item[r]} twice")

    labels = tuple(index)
    if not labels or labels[0] != "control":
        raise ValueError("count file must start with the control assortment")
    lists_outside = np.bincount(rows, item == 0, len(labels)) > 0
    outside = bool(lists_outside[0])
    if (lists_outside != outside).any():
        raise ValueError("count rows must cover exactly the offered items")
    counts = np.zeros((len(labels), n + 1), dtype=np.int64)
    kept = (item >= 0) & (item <= n)  # the table rejects items outside 1..n, naming the label
    counts[rows[kept], item[kept]] = count[kept]
    listed = np.split(item[order], np.cumsum(np.bincount(rows, minlength=len(labels)))[:-1])
    table = ChoiceCountTable(
        n=n,
        outside=outside,
        labels=labels,
        assortments=tuple(tuple(items[items != 0].tolist()) for items in listed),
        counts=counts,
    )
    for label, m, total in zip(labels, sizes.tolist(), table.sizes.tolist()):
        if m != total:
            raise ValueError(f"{label} lists sample size {m} but its counts sum to {total}")
    return table
