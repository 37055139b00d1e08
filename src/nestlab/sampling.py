"""Customer allocation and multinomial choice sampling.

Observed data is a count table: for the control assortment and each
experiment, how many of its m customers picked each offered item (id 0 is
the outside option).  Counts are int64 end to end; sample sizes in the
hundreds of billions stay exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .designs import ExperimentDesign
from .model import ChoiceProbabilities, NestedLogitModel, choice_probabilities


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


@dataclass(frozen=True)
class ChoiceCountTable:
    """Choice counts per assortment, control first.

    assortments[0] is the control; labels align one to one.  Every offered
    item appears in its count dict, zeros included, so the assortment is
    recoverable from the table alone.  Items lie in 1..n and counts are
    non-negative; construction rejects anything else.
    """

    n: int
    outside: bool
    labels: tuple[str, ...]
    assortments: tuple[tuple[int, ...], ...]
    counts: tuple[dict[int, int], ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        if not (
            len(self.labels) == len(self.assortments) == len(self.counts) == len(self.sizes)
        ):
            raise ValueError("misaligned count table")
        for label, items, cnt, m in zip(self.labels, self.assortments, self.counts, self.sizes):
            for i in items:
                if not 1 <= i <= self.n:
                    raise ValueError(f"item {i} of {label} lies outside 1..{self.n}")
            expect = set(items) | ({0} if self.outside else set())
            if set(cnt) != expect:
                raise ValueError("count rows must cover exactly the offered items")
            for i, c in cnt.items():
                if c < 0:
                    raise ValueError(f"negative count {c} for item {i} in {label}")
            if sum(cnt.values()) != m:
                raise ValueError("counts must sum to the sample size")

    @property
    def num_assortments(self) -> int:
        return len(self.assortments)


def sample_choices(
    model: NestedLogitModel,
    design: ExperimentDesign,
    allocation: list[int],
    seed: np.random.Generator | int,
) -> ChoiceCountTable:
    """Draw multinomial choice counts for the control and every experiment.

    allocation[0] is the control's sample size.  Each assortment gets an
    independent stream derived from (master seed, assortment index), so
    per-assortment results do not shift when other assortments change.
    """
    if len(allocation) != design.num_experiments + 1:
        raise ValueError("allocation must cover control plus every experiment")
    if isinstance(seed, np.random.Generator):
        master = int(seed.integers(0, 2**63))
    else:
        master = int(seed)
    labels = ("control", *design.labels)
    assortments = (design.control, *design.experiments)
    counts = []
    for idx, (items, m) in enumerate(zip(assortments, allocation)):
        if m < 0:
            raise ValueError("negative sample size")
        cp = choice_probabilities(model, items)
        support = ([0] if model.outside else []) + list(items)
        p = np.array([cp.prob(i) for i in support], dtype=np.float64)
        p = p / p.sum()  # guard against accumulated roundoff
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((master, idx))))
        draw = rng.multinomial(m, p)
        counts.append({i: int(c) for i, c in zip(support, draw)})
    return ChoiceCountTable(
        n=design.n,
        outside=model.outside,
        labels=labels,
        assortments=assortments,
        counts=tuple(counts),
        sizes=tuple(int(m) for m in allocation),
    )


def empirical_probabilities(table: ChoiceCountTable) -> list[ChoiceProbabilities]:
    """Per-assortment empirical choice frequencies X(i, S) / m_S, control first."""
    starved = [lab for lab, m in zip(table.labels, table.sizes) if m == 0]
    if starved:
        raise ValueError(f"assortments with no customers: {', '.join(starved)}")
    out = []
    for items, cnt, m in zip(table.assortments, table.counts, table.sizes):
        probs = {i: c / m for i, c in cnt.items()}
        out.append(ChoiceProbabilities(assortment=items, probs=probs, outside=table.outside))
    return out


def exact_count_table(
    model: NestedLogitModel, design: ExperimentDesign
) -> list[ChoiceProbabilities]:
    """Exact choice probabilities for the control and every experiment."""
    return [
        choice_probabilities(model, items)
        for items in (design.control, *design.experiments)
    ]


def save_counts(table: ChoiceCountTable, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["assortment_label", "item_id", "count", "sample_size"])
        for label, cnt, m in zip(table.labels, table.counts, table.sizes):
            for item in sorted(cnt):
                writer.writerow([label, item, cnt[item], m])


def load_counts(path: str, n: int) -> ChoiceCountTable:
    rows: dict[str, dict[int, int]] = {}
    sizes: dict[str, int] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            label = rec["assortment_label"]
            if label not in rows:
                rows[label] = {}
                order.append(label)
            rows[label][int(rec["item_id"])] = int(rec["count"])
            size = int(rec["sample_size"])
            if sizes.setdefault(label, size) != size:
                raise ValueError(f"{label} lists sample sizes {sizes[label]} and {size}")
    if not order or order[0] != "control":
        raise ValueError("count file must start with the control assortment")
    outside = 0 in rows["control"]
    assortments = tuple(
        tuple(sorted(i for i in rows[lab] if i != 0)) for lab in order
    )
    return ChoiceCountTable(
        n=n,
        outside=outside,
        labels=tuple(order),
        assortments=assortments,
        counts=tuple(rows[lab] for lab in order),
        sizes=tuple(sizes[lab] for lab in order),
    )
