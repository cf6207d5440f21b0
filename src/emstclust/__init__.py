"""Two-stage clustering on Euclidean minimum spanning trees.

The divisive stage (emstrd) splits a point set into k clusters by removing
long EMST edges one at a time and reports each cluster's tree center,
radius, diameter, and variance. The agglomerative stage (emstucc) builds a
second EMST over the cluster centers, merges it into a dendrogram, and
designates the central cluster. A batch CLI drives both stages from CSV
input to JSON, CSV, Newick, and optional SVG outputs.
"""

from .divisive import (
    CRITERION_LONGEST,
    CRITERION_THRESHOLD,
    CRITERION_ZAHN,
    ClusteringResult,
    emstrd,
    select_edge_to_remove,
    zahn_inconsistent,
)
from .emst import build_emst
from .errors import ConfigError, DegenerateInputError, InputError
from .io import RunConfig, newick_string, read_points_csv, run_pipeline, write_outputs
from .meta import MetaResult, central_cluster, emstucc
from .metrics import (
    Compactness,
    DistanceTable,
    EdgeStats,
    TreeEccentricities,
    center_and_radius,
    cluster_compactness,
    cluster_variance,
    diameter_and_set,
    edge_statistics,
    path_distance_table,
    tree_eccentricities,
)
from .model import (
    MODE_STD,
    MODE_ZAHN,
    Cluster,
    CriterionConfig,
    Dataset,
    Dendrogram,
    Edge,
    Point,
    SpanningForest,
)

__version__ = "0.1.0"

__all__ = [
    "CRITERION_LONGEST",
    "CRITERION_THRESHOLD",
    "CRITERION_ZAHN",
    "Cluster",
    "ClusteringResult",
    "Compactness",
    "ConfigError",
    "CriterionConfig",
    "Dataset",
    "DegenerateInputError",
    "Dendrogram",
    "DistanceTable",
    "Edge",
    "EdgeStats",
    "InputError",
    "MODE_STD",
    "MODE_ZAHN",
    "MetaResult",
    "Point",
    "RunConfig",
    "SpanningForest",
    "TreeEccentricities",
    "build_emst",
    "center_and_radius",
    "central_cluster",
    "cluster_compactness",
    "cluster_variance",
    "diameter_and_set",
    "edge_statistics",
    "emstrd",
    "emstucc",
    "newick_string",
    "path_distance_table",
    "read_points_csv",
    "run_pipeline",
    "select_edge_to_remove",
    "tree_eccentricities",
    "write_outputs",
    "zahn_inconsistent",
]
