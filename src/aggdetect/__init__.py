"""Aggression classification (NAG/CAG/OAG) for English and code-mixed
Hindi social-media comments: preprocessing, lexical/semantic features,
one-vs-rest logistic regression, and an evaluation harness."""

from .corpus_io import Corpus, Document, Label, LABELS, load_corpus, parse_label, write_predictions
from .featurize import FeatureBlockSpec, FeaturePipeline, Vocabulary
from .kernels import SparseMatrix, SparseVector
from .model import OvRModel, TrainConfig, load_model, predict, predict_proba, save_model, train_ovr
from .evaluate import ConfusionMatrix, EvalReport, build_report, weighted_f1

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "Document",
    "Label",
    "LABELS",
    "load_corpus",
    "parse_label",
    "write_predictions",
    "FeatureBlockSpec",
    "FeaturePipeline",
    "SparseMatrix",
    "SparseVector",
    "Vocabulary",
    "OvRModel",
    "TrainConfig",
    "load_model",
    "predict",
    "predict_proba",
    "save_model",
    "train_ovr",
    "ConfusionMatrix",
    "EvalReport",
    "build_report",
    "weighted_f1",
    "__version__",
]
