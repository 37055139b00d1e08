"""nestlab: assortment experiment design and Nested Logit identification.

The pipeline: encode items and build an O(log n)-experiment slice design,
simulate (or collect) per-assortment choice counts, deduce the nest
partition from boost factors, recover item weights and nest dissimilarities,
and score everything against ground truth.
"""

__version__ = "0.1.0"
