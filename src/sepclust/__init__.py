"""sepclust: large sigma-separated clusters in point sets.

Library surface: metric primitives and dense-ball extraction (geometry),
separation predicates and quality (separation), quorum clustering and epochs
(quorum), the four extraction algorithms (algorithms), instance generators
(generators), exact desk-scale baselines (oracle), and text formats (files).
The CLI lives in sepclust.cli.
"""

from ._version import __version__
from .algorithms import (
    ColorExhausted,
    ColoredInstance,
    ExtractionConfig,
    InsufficientPoints,
    VerificationFailed,
    semi_separated_k,
    semi_separated_k_colored,
    strong_separated_k,
    well_separated_k_colored,
)
from .generators import (
    EmbeddingFailed,
    gen_exponential_line,
    gen_exponential_ring_grid,
    gen_grid,
    gen_k_copies,
    gen_near_uniform_highdim,
    gen_random_uniform,
    gen_three_color_line,
)
from .geometry import (
    REL_TOL,
    Ball,
    PointSet,
    approx_min_ball_alpha,
    closest_pair,
    diameter,
    distance,
    pairwise_distances,
    set_distance,
    spread,
)
from .oracle import (
    OracleBudgetExceeded,
    best_separated_pair,
    check_three_color_hopeless,
    exact_min_ball_all,
    exact_min_ball_alpha,
)
from .quorum import (
    QuorumClustering,
    epochs,
    max_epoch_depth,
    quorum_clustering,
)
from .separation import (
    Clustering,
    SeparationKind,
    check_separation,
    cluster_diameters,
    pair_margins,
    quality,
)

