"""Graph-mining algorithms (exact and PG-enhanced): the workloads of §III / §VIII."""

from .clique_count import CliqueCountResult, four_clique_count, four_clique_count_exact
from .clustering import ClusteringResult, default_threshold, jarvis_patrick_clustering
from .cohesion import (
    clustering_coefficient,
    global_transitivity,
    local_clustering_coefficients,
    network_cohesion,
)
from .knn import KNNGraphResult, knn_graph
from .link_prediction import (
    LinkPredictionResult,
    candidate_pairs,
    evaluate_link_prediction,
    split_edges,
)
from .neighborhood_size import (
    MultiHopResult,
    exact_multihop_cardinalities,
    multihop_cardinalities,
)
from .similarity import CARDINALITY_MEASURES, SimilarityMeasure, similarity, similarity_scores
from .triangle_count import (
    TriangleCountResult,
    local_triangle_counts,
    triangle_count,
    triangle_count_exact,
)

__all__ = [
    "TriangleCountResult",
    "triangle_count",
    "triangle_count_exact",
    "local_triangle_counts",
    "CliqueCountResult",
    "four_clique_count",
    "four_clique_count_exact",
    "SimilarityMeasure",
    "CARDINALITY_MEASURES",
    "similarity",
    "similarity_scores",
    "MultiHopResult",
    "multihop_cardinalities",
    "exact_multihop_cardinalities",
    "ClusteringResult",
    "jarvis_patrick_clustering",
    "default_threshold",
    "LinkPredictionResult",
    "evaluate_link_prediction",
    "split_edges",
    "candidate_pairs",
    "KNNGraphResult",
    "knn_graph",
    "network_cohesion",
    "clustering_coefficient",
    "global_transitivity",
    "local_clustering_coefficients",
]
