"""How many customers before the pairwise z-tests become trustworthy?

The finite-sample bound prescribes a per-assortment count m and a cutoff tau
from the instance's two margins: rho, the smallest control-assortment
probability, and the smallest conditional-share gap among pairs whose boosts
truly differ.  Sampling at the prescribed m should classify every pair
correctly in at least 90% of runs; the bound is loose, so in practice the
success rate is higher and far smaller samples already do well.
"""

import itertools

import numpy as np

from nestlab.designs import balanced_enumeration, slice_design
from nestlab.identify import (
    boost_factors,
    theorem_margins,
    theorem_pair_count,
    theorem_sample_size,
    theorem_z_threshold,
    z_statistic,
)
from nestlab.model import design_probabilities, generate_ground_truth
from nestlab.sampling import sample_choices

n = 8
truth = generate_ground_truth(n, np.random.default_rng(5))
design = slice_design(balanced_enumeration(n, 2))

rho, gap = theorem_margins(truth, design)
pairs = theorem_pair_count(n, design.num_experiments)
tau = theorem_z_threshold(pairs, delta=0.1)
m = theorem_sample_size(rho, gap, pairs, delta=0.1)
print(f"control probability floor (rho):    {rho:.4f}")
print(f"smallest conditional-share gap:     {gap:.4f}")
print(f"union bound over {pairs} statistics: tau = {tau:.2f}")
print(f"prescribed customers per assortment: m = {m:.2e}")

rows = design_probabilities(truth, design)
bf = boost_factors(rows[0], rows[1:], labels=design.labels)


def trial_is_clean(customers, seed):
    counts = sample_choices(
        truth, design, [customers] * (design.num_experiments + 1), seed=seed
    )
    for e, items in enumerate(design.experiments):
        factors = bf.factors[e]
        for i, j in itertools.combinations((*items, 0), 2):
            same = abs(factors[i] - factors[j]) <= 1e-9 * max(factors[i], factors[j])
            if (abs(z_statistic(counts, i, j, e)) <= tau) != same:
                return False
    return True


trials = 50
for scale, customers in [("m", m), ("m/100", m // 100), ("m/10000", m // 10000)]:
    clean = sum(trial_is_clean(customers, seed) for seed in range(trials))
    print(f"at {scale:7s} ({customers:.1e}): {clean}/{trials} trials fully correct")
