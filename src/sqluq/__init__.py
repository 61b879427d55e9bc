"""Node-level error labeling and uncertainty estimation for generated SQL."""

from sqluq.ast_core import (
    NodeKind,
    ParseError,
    SqlNode,
    UnsupportedConstruct,
    build_alias_map,
    parse_sql,
    preorder,
)
from sqluq.featurizer import MANIFEST, NodeRecord, featurize_tree
from sqluq.gbdt import (
    GbdtConfig,
    GbdtModel,
    eval_by_kind,
    predict_proba,
    roc_auc,
    train,
)
from sqluq.labeler import LabelMap, label_with_context
from sqluq.pipeline import (
    CrossDatabase,
    DatasetRecord,
    WithinDatabase,
    load_dataset,
    make_split,
    run_experiment,
)
from sqluq.schema import Schema, load_schema

__all__ = [
    "CrossDatabase",
    "DatasetRecord",
    "GbdtConfig",
    "GbdtModel",
    "LabelMap",
    "MANIFEST",
    "NodeKind",
    "NodeRecord",
    "ParseError",
    "Schema",
    "SqlNode",
    "UnsupportedConstruct",
    "WithinDatabase",
    "build_alias_map",
    "eval_by_kind",
    "featurize_tree",
    "label_with_context",
    "load_dataset",
    "load_schema",
    "make_split",
    "parse_sql",
    "predict_proba",
    "preorder",
    "roc_auc",
    "run_experiment",
    "train",
]

__version__ = "0.1.0"
