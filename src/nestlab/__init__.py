"""nestlab: assortment experiment design and Nested Logit identification.

The pipeline: encode items and build an O(log n)-experiment slice design,
simulate (or collect) per-assortment choice counts, deduce the nest
partition from boost factors, recover item weights and nest dissimilarities,
and score everything against ground truth.
"""

from .communities import community_detect, modularity
from .designs import (
    BaseBEncoding,
    ExperimentDesign,
    balanced_enumeration,
    incremental_design,
    leave_one_out_design,
    load_design,
    naive_encoding,
    randomized_design,
    save_design,
    slice_design,
    verify_separation,
)
from .identify import (
    BoostTable,
    EdgeMatrix,
    TestConfig,
    boost_factors,
    exact_identify_with_outside,
    exact_identify_without_outside,
    noisy_identify_with_outside,
    noisy_identify_without_outside,
    p_value_equal,
    p_value_leq_outside,
    z_statistic,
)
from .harness import (
    ExperimentConfig,
    compare_designs,
    default_two_nest_partition,
    run_pipeline,
)
from .metrics import (
    confidence_interval,
    rand_index,
    rmse_soft,
    rmse_soft_restricted,
)
from .model import (
    ChoiceProbabilities,
    NestPartition,
    NestedLogitModel,
    check_general_position,
    choice_probabilities,
    design_probabilities,
    generate_ground_truth,
    load_model,
    normalize_identifiable,
    save_model,
)
from .recovery import (
    recover_all,
    recover_least_squares,
    solve_nest_params,
    within_nest_weights,
)
from .sampling import (
    ChoiceCountTable,
    allocate_customers,
    draw_counts,
    empirical_probabilities,
    load_counts,
    sample_choices,
    save_counts,
)

__version__ = "0.1.0"
