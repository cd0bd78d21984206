"""Conjunctive query answering over incomplete knowledge graphs with boxes.

Queries and entities are both embedded as axis-aligned hyper-rectangles;
an entity answers a query when the two boxes intersect, which turns query
answering into binary classification instead of ranking.  The package
covers the whole pipeline: graph loading, exact query execution, dataset
sampling with edge-removal splits, a small reverse-mode autodiff engine,
the message-passing box encoder, training, and dual-mode evaluation.
"""

from .boxes import (
    Box,
    contains,
    contains_box,
    distance,
    distance_inside,
    distance_outside,
    intersects,
    materialize,
)
from .encoder import (
    AGGREGATIONS,
    ConfigurationError,
    ParameterStore,
    QueryEncoding,
    encode,
    encode_many,
    init_parameters,
)
from .evaluation import (
    ConfusionMatrix,
    EvalReport,
    classify,
    confusion,
    emit_report,
    evaluate,
    load_report,
    pairwise_accuracy,
)
from .graphs import (
    KnowledgeGraph,
    build_graph,
    graph_stats,
    load_graph,
    neighbors,
    save_graph,
)
from .queries import (
    TEMPLATE_NAMES,
    TEMPLATES,
    QueryGraph,
    QueryInstance,
    QueryTemplate,
    execute,
    execute_by_enumeration,
    execute_relaxed,
    instantiate,
)
from .sampling import (
    EdgeSplit,
    Rejection,
    SamplerConfig,
    assign_split,
    generate_datasets,
    load_datasets,
    sample_negatives,
    sample_query,
    split_edges,
    write_datasets,
)
from .training import (
    CheckpointError,
    NonFiniteLossError,
    TrainConfig,
    TrainResult,
    load_checkpoint,
    loss,
    save_checkpoint,
    train,
    write_training_log,
)

__all__ = [
    "Box",
    "contains",
    "contains_box",
    "distance",
    "distance_inside",
    "distance_outside",
    "intersects",
    "materialize",
    "AGGREGATIONS",
    "ConfigurationError",
    "ParameterStore",
    "QueryEncoding",
    "encode",
    "encode_many",
    "init_parameters",
    "ConfusionMatrix",
    "EvalReport",
    "classify",
    "confusion",
    "emit_report",
    "evaluate",
    "load_report",
    "pairwise_accuracy",
    "KnowledgeGraph",
    "build_graph",
    "graph_stats",
    "load_graph",
    "neighbors",
    "save_graph",
    "TEMPLATE_NAMES",
    "TEMPLATES",
    "QueryGraph",
    "QueryInstance",
    "QueryTemplate",
    "execute",
    "execute_by_enumeration",
    "execute_relaxed",
    "instantiate",
    "EdgeSplit",
    "Rejection",
    "SamplerConfig",
    "assign_split",
    "generate_datasets",
    "load_datasets",
    "sample_negatives",
    "sample_query",
    "split_edges",
    "write_datasets",
    "CheckpointError",
    "NonFiniteLossError",
    "TrainConfig",
    "TrainResult",
    "load_checkpoint",
    "loss",
    "save_checkpoint",
    "train",
    "write_training_log",
]

__version__ = "0.1.0"
