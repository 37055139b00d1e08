"""Recover the hidden nest structure of a synthetic store from sales counts.

First pass uses exact choice probabilities, where boost-factor ties pin the
partition down completely.  Second pass replays the same store with a finite
customer stream and runs the test-based variant.
"""

import numpy as np

from nestlab.designs import balanced_enumeration, slice_design
from nestlab.identify import (
    TestConfig,
    boost_factors,
    exact_identify_with_outside,
    noisy_identify_with_outside,
)
from nestlab.metrics import rand_index
from nestlab.model import design_probabilities, generate_ground_truth
from nestlab.sampling import allocate_customers, sample_choices

n = 8
rng = np.random.default_rng(6)

truth = generate_ground_truth(n, rng)
print(f"true nests: {truth.partition.nests}")

design = slice_design(balanced_enumeration(n, 2))

# --- exact probabilities

rows = design_probabilities(truth, design)
table = boost_factors(rows[0], rows[1:], labels=design.labels)
for label, items, factors in zip(table.labels, table.assortments, table.factors):
    boosted = [i for i in items if factors[i] > factors[0] + 1e-12]
    print(f"  {label}: boosted items {boosted}")

edges, partition = exact_identify_with_outside(table, design)
print(f"exact identification: {partition.nests}")
print(f"rand index vs truth: {rand_index(partition, truth.partition):.3f}")

# --- finite samples

for customers in (20_000, 200_000, 2_000_000):
    allocation = allocate_customers(customers, design.num_experiments + 1)
    counts = sample_choices(truth, design, allocation, seed=11)
    _, estimate = noisy_identify_with_outside(counts, design, TestConfig(alpha=0.05))
    score = rand_index(estimate, truth.partition)
    print(f"{customers:>9} customers: rand index {score:.3f}  nests {estimate.nests}")
