"""Fit nest weights and dissimilarity parameters once the partition is known."""

import numpy as np

from nestlab.designs import balanced_enumeration, slice_design
from nestlab.metrics import rmse_soft
from nestlab.model import design_probabilities, generate_ground_truth, normalize_identifiable
from nestlab.recovery import recover_all, recover_least_squares
from nestlab.sampling import allocate_customers, sample_choices

n = 8
rng = np.random.default_rng(42)

truth = generate_ground_truth(n, rng)
encoding = balanced_enumeration(n, 2)
design = slice_design(encoding)

# From exact probabilities the log-linear systems solve to machine precision.
rows = design_probabilities(truth, design)
fitted = recover_all(rows, truth.partition, design)
print(f"round trip from exact probabilities: rmse_soft {rmse_soft(truth, fitted):.2e}")

# Only the identifiable reparameterization can be compared coordinate-wise;
# a singleton nest's (v, lambda) pair collapses to the single number v^lambda.
canon = normalize_identifiable(truth)
print("\nnest      true lambda   fitted lambda")
for nest in canon.partition.nests:
    k_true = canon.partition.nest_of(nest[0])
    k_fit = fitted.partition.nest_of(nest[0])
    print(f"{str(nest):12s}  {canon.lambdas[k_true]:.4f}       {fitted.lambdas[k_fit]:.4f}")

# --- the same fit from finite counts

print("\nleast-squares fit from sampled counts:")
for customers in (10_000, 100_000, 1_000_000):
    allocation = allocate_customers(customers, design.num_experiments + 1)
    counts = sample_choices(truth, design, allocation, seed=7)
    fit = recover_least_squares(counts, truth.partition, design)
    note = f"  ({'; '.join(fit.flags)})" if fit.flags else ""
    print(f"  {customers:>9} customers: rmse_soft {rmse_soft(truth, fit.model):.5f}{note}")
