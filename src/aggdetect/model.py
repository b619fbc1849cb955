"""One-vs-rest L2-regularized logistic regression.

Each class gets its own binary classifier, trained by full-batch L-BFGS
with Armijo backtracking on the training SparseMatrix, shared as it is by
all classes (and wrapped for scipy's products once).  Each solve starts at
the intercept-only optimum, zero weights and the bias that fits the class
prior, like glmnet's null model (Friedman, Hastie & Tibshirani 2010), so
no iterations go to finding the prior; nothing is random, so training is
fully deterministic.
The objective per binary problem is

    J(w, b) = (1/m) * sum_i xent(sigmoid(w.x_i + b), y_i)
              + (lambda / 2m) * ||w||^2

with the bias unregularized; :func:`objective` and :func:`gradient`
compute J and its gradient on a SparseMatrix.  Prediction takes the class
with the highest decision value w.x + b; exact ties resolve to the
earlier label in NAG < CAG < OAG order.  A single document is scored as
the one-row SparseMatrix of its ``csr()``, by the kernel that scores a
batch, so both get bit-identical scores.

Model files are sectioned UTF-8 text of one format, named by the first
line; a file with any other first line is refused.  Vocabularies and all
weights are embedded; embeddings and lexicons are referenced by path plus
SHA-256 and re-verified on load, so a loaded model reproduces
bit-identical predictions or fails loudly.  :func:`save_model` writes each
path relative to the model file's directory, so the file's bytes do not
depend on where the tree that holds it sits, and a model moved together
with its resources still loads; :func:`load_model` resolves a relative
path against that directory and takes an absolute one as it is (files
written before paths were relative hold absolute ones).  Training is
deterministic, and so are the file's bytes at a fixed OpenBLAS thread
count: the BLAS sums in the solver round differently with the number of
threads.

:func:`save_model` writes ``aggdetect-model 2``.  Each ``[weights:*]``
section holds ``key = value`` lines (``bias``, ``reg_lambda``,
``iterations``, ``final_grad_norm``, and ``stop_reason`` and
``final_loss`` when they are known) and then the class's whole weight
vector, ``total_dimension`` values with its zeros, as little-endian
float64 bytes in base64 lines of 76 characters, which load back bit for
bit.  It writes each section as soon as it is formatted, so it never
holds the whole file.

:func:`load_model` finds the section headers with one regex over the
file, splits each ``[vocab:*]`` body once and parses its document
frequencies with one ``int`` map.  A weights block is decoded by one
strict base64 call.  The checks run on the whole section: block entries
as :class:`FeaturePipeline` takes them; ``0 <= total_dimension < 2**31``;
``0 <= n_documents < 2**63`` and terms strictly increasing with
``1 <= df <= n_documents``; a weights block of exactly
``total_dimension`` float64 values; weights, ``bias``,
``final_grad_norm`` and ``final_loss`` finite; ``reg_lambda`` and
``final_loss`` >= 0; ``stop_reason`` one of ``STOP_REASONS``; with
``transliterate = true``, ``translit_table_version`` equal to
:data:`translit.TABLE_VERSION`.  A fault raises ResourceError naming the
section and, for a line-based fault, its first offending line.
"""

from __future__ import annotations

import base64
import json
import math
import operator
import os
import re
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from . import kernels, lexfeatures, translit
from .kernels import SparseMatrix, SparseVector
from .corpus_io import LABELS, Label, escape_field, unescape_field
from .errors import DataError, ResourceError, UsageError, read_utf8
from .featurize import FeatureBlockSpec, FeaturePipeline, LEXICAL_KINDS, Vocabulary
from .preprocess import CLEAN_SWITCHES, CleanConfig, PreprocessSettings

MODEL_FORMAT = "aggdetect-model 2"
# why train_binary stopped: the gradient's sup-norm reached grad_tol,
# max_iters steps were taken, or no step decreased J
GRAD_TOL, MAX_ITERS, LINE_SEARCH = STOP_REASONS = ("grad_tol", "max_iters", "line_search")

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60
_HISTORY = 10  # L-BFGS curvature pairs kept


@dataclass
class TrainConfig:
    reg_lambda: float = 1.0
    max_iters: int = 1000
    grad_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not (math.isfinite(self.reg_lambda) and self.reg_lambda >= 0):
            raise ValueError(f"reg_lambda must be finite and >= 0, got {self.reg_lambda}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError(f"grad_tol must be finite and > 0, got {self.grad_tol}")


@dataclass
class BinaryLogReg:
    weights: np.ndarray
    bias: float
    reg_lambda: float
    iterations: int = 0
    final_grad_norm: float = 0.0
    # one of STOP_REASONS, and J at the returned weights; None where not
    # known, as on a classifier built by hand
    stop_reason: str | None = None
    final_loss: float | None = None


def objective(
    X: SparseMatrix, y: np.ndarray, w: np.ndarray, b: float, reg_lambda: float
) -> tuple[float, np.ndarray]:
    """J(w, b) on the examples ``X``, and the scores z = Xw + b it was
    computed from."""
    z = kernels.csr_matvec(X, w) + b
    m = y.shape[0]
    return kernels.logistic_loss_sum(z, y) / m + 0.5 * reg_lambda * float(w @ w) / m, z


def gradient(
    X: SparseMatrix, y: np.ndarray, w: np.ndarray, z: np.ndarray, reg_lambda: float
) -> tuple[np.ndarray, float]:
    """Gradient of J at (w, b), from the scores z that :func:`objective`
    returned there."""
    m = y.shape[0]
    r = kernels.sigmoid(z) - y
    rmatvec = kernels.csr_rmatvec(X, r)
    gw = rmatvec / m + (reg_lambda / m) * w
    return gw, float(r.mean())


def _lbfgs_direction(
    g: np.ndarray, S: np.ndarray, Y: np.ndarray, rho: np.ndarray, slots: list[int], gamma: float
) -> np.ndarray:
    """-H g by the two-loop recursion over the curvature pairs (S[i], Y[i])
    with rho[i] = 1 / S[i].Y[i], for i in ``slots`` newest first; the
    initial Hessian is ``gamma`` = s.y / y.y of the newest pair."""
    q = -g
    alpha = np.empty(len(slots))
    for k, i in enumerate(slots):
        alpha[k] = rho[i] * float(S[i] @ q)
        q -= alpha[k] * Y[i]
    q *= gamma
    for k in reversed(range(len(slots))):
        i = slots[k]
        q += (alpha[k] - rho[i] * float(Y[i] @ q)) * S[i]
    return q


def train_binary(X: SparseMatrix, y: Sequence[float],
                 config: TrainConfig | None = None) -> BinaryLogReg:
    """Train one binary classifier on its examples ``X`` by
    L-BFGS (Liu & Nocedal 1989) over the vector (w, b).

    Deterministic: starts at w = 0 and b = log(S / (m - S)), S the sum of
    the targets over m examples, which minimizes J over b at w = 0 (the
    intercept-only, or null, model; b = 0 when every target is 0 or every
    target is 1), then takes full-batch gradients, the last
    ``_HISTORY`` curvature pairs with s.y > 0 (others are skipped, so
    ``reg_lambda = 0`` works), and Armijo backtracking by halving from a
    unit step; the first direction, and any taken while no pair is stored,
    is the steepest descent direction scaled to length 1. Each trial step
    costs one matvec and each accepted step one rmatvec. Stops when the
    sup-norm of the gradient is at most ``grad_tol`` (``stop_reason``
    "grad_tol"), after ``max_iters`` accepted steps ("max_iters"), or
    when no step achieves Armijo decrease ("line_search"). The decrease
    must be strict in float64, so once J's values stop resolving descent
    (near a gradient of 1e-8 on unit-scale features) the solver stops by
    "line_search" instead of taking steps that do not move.

    Targets must be finite numbers in [0, 1], where J is defined and
    non-negative; soft targets inside it train too.
    """
    config = config or TrainConfig()
    dim = X.dimension
    y_arr = np.asarray(y, dtype=np.float64)
    m = len(X)
    if m != y_arr.shape[0]:
        raise DataError(f"got {m} rows but {y_arr.shape[0]} targets")
    if m == 0:
        raise DataError("cannot train on an empty example set")
    if X.data.size and not np.isfinite(X.data).all():
        raise DataError("non-finite feature values in training data")
    bad = np.flatnonzero(~((y_arr >= 0) & (y_arr <= 1)))  # NaN fails both
    if bad.size:
        raise DataError(f"target {bad[0]} is {float(y_arr[bad[0]])!r}, "
                        f"not a finite number in [0, 1]")
    lam = config.reg_lambda

    def flat_gradient(theta: np.ndarray, z: np.ndarray) -> np.ndarray:
        g = np.empty(dim + 1)
        g[:dim], g[dim] = gradient(X, y_arr, theta[:dim], z, lam)
        return g

    S = np.empty((_HISTORY, dim + 1))
    Y = np.empty((_HISTORY, dim + 1))
    rho = np.empty(_HISTORY)
    newest, n_pairs, gamma = -1, 0, 1.0
    theta = np.zeros(dim + 1)  # (w, b)
    # the intercept-only optimum: b with sigmoid(b) the mean target
    positives = float(y_arr.sum())
    odds = positives / (m - positives) if positives < m else 0.0
    if odds > 0:  # else every target is 0 or 1 (or the odds underflow): b = 0
        theta[dim] = math.log(odds)
    loss, z = objective(X, y_arr, theta[:dim], float(theta[dim]), lam)
    g = flat_gradient(theta, z)
    iterations = 0
    while True:
        grad_norm = float(np.abs(g).max())
        if grad_norm <= config.grad_tol:
            stop_reason = GRAD_TOL
            break
        if iterations >= config.max_iters:
            stop_reason = MAX_ITERS
            break
        if n_pairs:
            slots = [(newest - k) % _HISTORY for k in range(n_pairs)]
            direction = _lbfgs_direction(g, S, Y, rho, slots, gamma)
        if not n_pairs or float(g @ direction) >= 0:
            # no pair stored yet, or rounding broke descent: restart from
            # the steepest descent direction, scaled to length 1
            n_pairs = 0
            direction = -g / math.sqrt(float(g @ g))
        slope = float(g @ direction)
        step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            trial = theta + step * direction
            new_loss, new_z = objective(X, y_arr, trial[:dim], float(trial[dim]), lam)
            if new_loss < loss + _ARMIJO_C1 * step * slope:
                break
            step *= 0.5
        else:
            stop_reason = LINE_SEARCH
            break
        assert new_loss <= loss, "line search accepted an increasing step"
        new_g = flat_gradient(trial, new_z)
        s, y_diff = trial - theta, new_g - g
        sy, yy = float(s @ y_diff), float(y_diff @ y_diff)
        # keep a pair only with positive curvature and with 1/s.y and
        # s.y/y.y representable, which fails only far out on separable data
        if sy > 0 and yy > 0 and math.isfinite(1.0 / sy) and math.isfinite(sy / yy):
            newest = (newest + 1) % _HISTORY
            S[newest], Y[newest], rho[newest], gamma = s, y_diff, 1.0 / sy, sy / yy
            n_pairs = min(n_pairs + 1, _HISTORY)
        theta, loss, z, g = trial, new_loss, new_z, new_g
        iterations += 1

    return BinaryLogReg(
        weights=theta[:dim].copy(),
        bias=float(theta[dim]),
        reg_lambda=lam,
        iterations=iterations,
        final_grad_norm=grad_norm,
        stop_reason=stop_reason,
        final_loss=loss,
    )


@dataclass
class OvRModel:
    """Three binary classifiers over a shared feature space."""

    classifiers: list[BinaryLogReg]  # in NAG, CAG, OAG order
    pipeline: FeaturePipeline | None = None
    preprocess: PreprocessSettings | None = None
    language: str = "english"
    n_train_documents: int = 0
    merged_validation: bool = False
    single_class_warning: bool = False
    # the classifiers' weights as the columns of one (dim, n_classes)
    # array and their biases as one vector, built once so that scoring is
    # one CSR product; classifiers are not changed after construction
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _biases: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._weights = np.column_stack([clf.weights for clf in self.classifiers])
        self._biases = np.array([clf.bias for clf in self.classifiers])

    @property
    def dimension(self) -> int:
        return self._weights.shape[0]


def train_ovr(
    X: SparseMatrix,
    labels: Sequence[Label],
    config: TrainConfig | None = None,
    pipeline: FeaturePipeline | None = None,
    preprocess: PreprocessSettings | None = None,
    language: str = "english",
) -> OvRModel:
    """Train one classifier per label (class versus rest) on ``X``, such
    as ``fit_transform``'s result, which every solve uses as it is.

    A class with no positive examples still gets a classifier (trained on
    all-negative targets); a corpus containing a single distinct class is
    accepted but flagged via ``single_class_warning``.
    """
    if len(X) != len(labels):
        raise DataError(f"got {len(X)} rows but {len(labels)} labels")
    if len(X) == 0:
        raise DataError("cannot train on an empty corpus")
    classifiers = [
        train_binary(X, [1 if lab == target else 0 for lab in labels], config)
        for target in LABELS
    ]
    return OvRModel(
        classifiers=classifiers,
        pipeline=pipeline,
        preprocess=preprocess,
        language=language,
        n_train_documents=len(X),
        single_class_warning=len(set(labels)) < 2,
    )


def _scores(model: OvRModel, X: SparseMatrix) -> np.ndarray:
    """Decision values w.x + b, one row per row of ``X`` and one column per class."""
    if X.dimension != model.dimension:
        raise DataError(
            f"feature dimension {X.dimension} does not match model dimension {model.dimension}"
        )
    return kernels.csr_matvec(X, model._weights) + model._biases


def predict_proba(model: OvRModel, x: SparseVector) -> np.ndarray:
    """Per-class sigmoid scores; not normalized across classes."""
    return kernels.sigmoid(_scores(model, x.csr())[0])


def predict(model: OvRModel, x: SparseVector) -> Label:
    """Class with the highest score; ties go to the earlier label."""
    return LABELS[int(np.argmax(_scores(model, x.csr())[0]))]


def predict_many(model: OvRModel, X: SparseMatrix) -> list[Label]:
    """:func:`predict` for each row of ``X``, scored as one batch."""
    if not X:
        return []
    return [LABELS[int(i)] for i in np.argmax(_scores(model, X), axis=1)]


def top_features(model: OvRModel, label: Label, k: int) -> list[tuple[str, float]]:
    """The k largest-weight nonzero features of one class, descending."""
    if model.pipeline is None:
        raise DataError("model has no feature pipeline attached")
    weights = model.classifiers[int(label)].weights
    nonzero = [(int(i), float(weights[i])) for i in np.nonzero(weights)[0]]
    nonzero.sort(key=lambda item: (-item[1], item[0]))
    return [(model.pipeline.feature_name(i), w) for i, w in nonzero[: max(k, 0)]]


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _parse_bool(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError(f"bad boolean {value!r}")
    return value == "true"


def _model_directory(path: str | Path) -> str:
    """The directory that holds the model file at ``path``, symlinks
    resolved: the base of the file's relative resource paths."""
    return os.path.dirname(os.path.realpath(path))


def _resource_lines(resources: lexfeatures.Resources, key: str, base: str,
                    prefix: str = "") -> list[str]:
    """The ``path`` and ``sha256`` lines, keys prefixed by ``prefix``, of
    the file that resource ``key`` was loaded from; the path is relative to
    the directory ``base``."""
    ref = resources.provenance.get(key)
    if ref is None:
        raise ResourceError(
            f"cannot serialize pipeline: resource {key!r} has no file provenance"
        )
    return [f"{prefix}path = {os.path.relpath(ref[0], base)}", f"{prefix}sha256 = {ref[1]}"]


def _block_lines(pipe: FeaturePipeline, spec: FeatureBlockSpec, base: str) -> list[str]:
    """The ``[block:*]`` section of one block, and the ``[vocab:*]`` header
    line that follows it on a lexical block."""
    out = [f"[block:{spec.name}]", f"kind = {spec.kind}"]
    for key in ("n", "k", "min_df"):
        if key in spec.params:
            out.append(f"{key} = {spec.params[key]}")
    if spec.kind in LEXICAL_KINDS:
        out.append(f"n_documents = {pipe.vocabularies[spec.name].n_documents}")
        out.append(f"[vocab:{spec.name}]")
    elif spec.kind in lexfeatures.RESOURCE_FILES:  # a dense block that reads one file
        out.extend(_resource_lines(pipe.resources, spec.kind, base))
    elif spec.kind == "sentiment":
        provider = pipe.resources.sentiment_provider
        out.append(f"provider = {provider.kind}")
        if provider.kind == "builtin":
            out.append(f"intensity_split = {_fmt(provider.intensity_split)}")
            for side in ("pos", "neg"):
                out.extend(_resource_lines(pipe.resources, f"sentiment_{side}", base,
                                           f"{side}_"))
    return out


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _vocab_rows(vocab: Vocabulary) -> str:
    """A ``[vocab:*]`` section's ``term<TAB>df`` rows. The terms are
    escaped one by one only when their joined text holds a character that
    ``escape_field`` changes, which no term of most vocabularies does."""
    terms = vocab.terms
    joined = "".join(terms)
    if any(ch in joined for ch in "\\\t\n\r"):
        terms = list(map(escape_field, terms))
    return "".join(map("{}\t{}\n".format, terms, vocab.document_frequency.tolist()))


def save_model(model: OvRModel, path: str | Path) -> None:
    """Write the sectioned text serialization, :data:`MODEL_FORMAT`. Fully
    deterministic.

    Each class's weights are one base64 block of its float64 values; a
    ``stop_reason`` or ``final_loss`` that is None is left out. Every line
    that can raise, a referenced file's provenance, is formatted before the
    file is opened, so a failed save leaves the path as it was.
    The header and then each ``[vocab:*]`` and ``[weights:*]`` section are
    written as soon as they are formatted, so at most one section's lines
    are held at a time, never the whole file."""
    if model.pipeline is None or not model.pipeline.fitted:
        raise DataError("cannot save a model without a fitted pipeline")
    if model.preprocess is None:
        raise DataError("cannot save a model without preprocessing settings")
    pipe = model.pipeline
    prep = model.preprocess
    clean = prep.clean
    base = _model_directory(path)
    head = [
        MODEL_FORMAT,
        "[meta]",
        f"language = {model.language}",
        "labels = " + ",".join(label.name for label in LABELS),
        f"n_train_documents = {model.n_train_documents}",
        f"merged_validation = {_bool(model.merged_validation)}",
        f"single_class_warning = {_bool(model.single_class_warning)}",
        f"total_dimension = {pipe.total_dimension}",
        "[preprocess]",
        *(f"{name} = {_bool(getattr(clean, name))}" for name in CLEAN_SWITCHES),
        "expansions = " + json.dumps(clean.expansions, sort_keys=True, ensure_ascii=False),
        f"transliterate = {_bool(prep.transliterate)}",
        f"translit_table_version = {translit.TABLE_VERSION}",
        f"spell_correct = {_bool(prep.spell_dictionary is not None)}",
    ]
    if prep.spell_dictionary is not None:
        head.extend(_resource_lines(pipe.resources, "spell_dict", base, "spell_dict_"))
    head.append("[pipeline]")
    head.append("blocks = " + ",".join(spec.name for spec in pipe.blocks))
    blocks = [_block_lines(pipe, spec, base) for spec in pipe.blocks]

    with open(path, "w", encoding="utf-8") as f:
        f.write(_text(head))
        for spec, lines in zip(pipe.blocks, blocks):
            f.write(_text(lines))
            if spec.kind in LEXICAL_KINDS:
                f.write(_vocab_rows(pipe.vocabularies[spec.name]))
        for label, clf in zip(LABELS, model.classifiers):
            lines = [
                f"[weights:{label.name}]",
                f"bias = {_fmt(clf.bias)}",
                f"reg_lambda = {_fmt(clf.reg_lambda)}",
                f"iterations = {clf.iterations}",
                f"final_grad_norm = {_fmt(clf.final_grad_norm)}",
            ]
            if clf.stop_reason is not None:
                lines.append(f"stop_reason = {clf.stop_reason}")
            if clf.final_loss is not None:
                lines.append(f"final_loss = {_fmt(clf.final_loss)}")
            f.write(_text(lines))
            weights = clf.weights.astype("<f8", copy=False).tobytes()
            f.write(base64.encodebytes(weights).decode("ascii"))


class _SidecarRequired(lexfeatures.SentimentProvider):
    """Placeholder installed when a model was trained with sidecar
    sentiment; prediction must attach a sidecar for the new corpus."""

    kind = "sidecar"

    def document_features(self, doc) -> np.ndarray:
        raise ResourceError(
            "this model uses sidecar sentiment; supply a sidecar file for the corpus"
        )


# A section header is a whole line in brackets, matched with the line
# break before it. The key = value lines that open a section come before
# its rows.
_HEADER_RE = re.compile(r"\n\[(.*)\]$", re.M)
_KV_LINES_RE = re.compile(r"(?:.* = .*(?:\n|\Z)|\n)*")


def _split_sections(raw: str, path: Path) -> dict[str, str]:
    """Each section's body by name: the text between its header line and
    the next header, after a first line of :data:`MODEL_FORMAT`. A
    repeated section name keeps the last body."""
    first = raw.partition("\n")[0]
    if first != MODEL_FORMAT:
        raise ResourceError(
            f"{path}: not a recognized model file (expected header {MODEL_FORMAT!r})"
        )
    headers = list(_HEADER_RE.finditer(raw, len(first)))
    if raw[len(first) : headers[0].start() if headers else len(raw)].strip("\n"):
        raise ResourceError(f"{path}: content before first section")
    ends = [m.start() for m in headers[1:]] + [len(raw)]
    return {m[1]: raw[m.end() + 1 : end] for m, end in zip(headers, ends)}


def _lines(body: str) -> list[str]:
    """The non-blank lines of a section body."""
    return list(filter(None, body.split("\n")))


def _kv(body: str, section: str, path: Path) -> dict[str, str]:
    result = {}
    for line in _lines(body):
        if " = " not in line:
            raise ResourceError(f"{path}: malformed line in [{section}]: {line!r}")
        key, value = line.split(" = ", 1)
        result[key] = value
    return result


def _parse(parse, text: str, section: str, line: str, path: Path):
    """``parse(text)``, or a ResourceError naming the section and the line."""
    try:
        return parse(text)
    except ValueError:
        raise ResourceError(f"{path}: bad value in [{section}]: {line!r}") from None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _non_negative(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise ValueError(f"negative value {text!r}")
    return value


def _document_count(text: str) -> int:
    """``n_documents``, which bounds a vocabulary's int64 document frequencies."""
    value = int(text)
    if not 0 <= value < 1 << 63:
        raise ValueError(f"document count outside int64: {text!r}")
    return value


def _dimension(text: str) -> int:
    """``total_dimension``, below 2**31 as the int32 indices of the
    model's rows require (:func:`kernels.check_int32`)."""
    value = int(text)
    kernels.check_int32(value, 0)
    return value


def _unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"value outside [0, 1]: {text!r}")
    return value


def _vocabulary(
    rows: list[str], n_documents: int, section: str, path: Path, length: int | None
) -> Vocabulary:
    """A ``[vocab:*]`` section's ``term<TAB>df`` rows, split in one pass;
    each term once, in increasing order, with ``1 <= df <= n_documents``,
    as :func:`save_model` writes them, and of ``length`` characters unless
    that is None (a char n-gram block's terms are exactly n characters)."""
    joined = "\t".join(rows)
    fields = joined.split("\t") if rows else []
    # every row holds a tab, and there is one tab per row
    if len(fields) == 2 * len(rows) and all(map(str.__contains__, rows, repeat("\t"))):
        terms = fields[0::2]
        if "\\" in joined:
            terms = list(map(unescape_field, terms))
        try:
            df = list(map(int, fields[1::2]))
        except ValueError:
            df = None
        if (
            df is not None
            and all(map(operator.lt, terms, islice(terms, 1, None)))
            and (not df or (min(df) >= 1 and max(df) <= n_documents))
            and (length is None or set(map(len, terms)) <= {length})
        ):
            return Vocabulary(terms, np.array(df, dtype=np.int64), n_documents)
    # name the first row that the checks above refuse
    previous = None
    for row in rows:
        parts = row.split("\t")
        if len(parts) != 2:
            raise ResourceError(f"{path}: malformed row in [{section}]: {row!r}")
        term = unescape_field(parts[0])
        if previous is not None and term <= previous:
            raise ResourceError(
                f"{path}: terms not strictly increasing in [{section}]: {row!r}"
            )
        if not 1 <= _parse(int, parts[1], section, row, path) <= n_documents:
            raise ResourceError(
                f"{path}: document frequency outside 1..{n_documents} in [{section}]: {row!r}"
            )
        if length is not None and len(term) != length:
            raise ResourceError(
                f"{path}: term of {len(term)} characters, not {length}, in [{section}]: {row!r}"
            )
        previous = term
    raise AssertionError(f"no faulty row in [{section}]")


def _weights_v2(block: str, dimension: int, section: str, path: Path) -> np.ndarray:
    """A weight vector: base64 lines of exactly ``dimension`` finite
    little-endian float64 values, as a writable native array."""
    try:
        raw = base64.b64decode(block.replace("\n", ""), validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ResourceError(f"{path}: weights block in [{section}] is not base64: {exc}") from None
    if len(raw) != 8 * dimension:
        raise ResourceError(
            f"{path}: weights block in [{section}] holds {len(raw)} bytes, not the "
            f"{8 * dimension} of {dimension} float64 values"
        )
    weights = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        raise ResourceError(f"{path}: non-finite weight at index {bad[0]} in [{section}]")
    return weights


def _stop_reason(text: str) -> str:
    if text not in STOP_REASONS:
        raise ValueError(f"unknown stop reason {text!r}")
    return text


def _need(kv: dict[str, str], key: str, section: str, path: Path, parse=str):
    if key not in kv:
        raise ResourceError(f"{path}: missing key {key!r} in section [{section}]")
    return _parse(parse, kv[key], section, f"{key} = {kv[key]}", path)


def _optional(kv: dict[str, str], key: str, section: str, path: Path, parse):
    """:func:`_need`, or None when the section has no ``key``."""
    return _need(kv, key, section, path, parse) if key in kv else None


def _load_resource(
    resources: lexfeatures.Resources, key: str, kv: dict[str, str], prefix: str,
    section: str, path: Path,
):
    """Resource ``key``, loaded from the file that the section's
    ``{prefix}path`` names, relative to the model file's directory unless
    it is absolute, and checked against its ``{prefix}sha256``."""
    file = _need(kv, prefix + "path", section, path)
    if not os.path.isabs(file):
        # lexically, as save_model's relpath made it
        file = os.path.normpath(os.path.join(_model_directory(path), file))
    return resources.load(key, file, _need(kv, prefix + "sha256", section, path))


def load_model(path: str | Path) -> OvRModel:
    """Load a model file of :data:`MODEL_FORMAT`, re-reading referenced
    resources and verifying their checksums. Predictions after a round
    trip are bit-identical."""
    path = Path(path)
    if not path.is_file():
        raise ResourceError(f"model file not found: {path}")
    by_name = _split_sections(read_utf8(path, ResourceError), path)
    for required in ("meta", "preprocess", "pipeline"):
        if required not in by_name:
            raise ResourceError(f"{path}: missing section [{required}]")

    meta = _kv(by_name["meta"], "meta", path)
    labels_str = _need(meta, "labels", "meta", path)
    if labels_str != ",".join(label.name for label in LABELS):
        raise ResourceError(f"{path}: unsupported label order {labels_str!r}")
    total_dimension = _need(meta, "total_dimension", "meta", path, _dimension)

    prep_kv = _kv(by_name["preprocess"], "preprocess", path)
    try:
        clean = CleanConfig(
            **{name: _need(prep_kv, name, "preprocess", path, _parse_bool)
               for name in CLEAN_SWITCHES},
            expansions=_need(prep_kv, "expansions", "preprocess", path, json.loads),
        )
    except UsageError as exc:
        raise ResourceError(f"{path}: bad entry in [preprocess]: {exc}") from None
    resources = lexfeatures.Resources()
    spell_dictionary = None
    if _need(prep_kv, "spell_correct", "preprocess", path, _parse_bool):
        spell_dictionary = _load_resource(
            resources, "spell_dict", prep_kv, "spell_dict_", "preprocess", path
        )
    transliterate = _need(prep_kv, "transliterate", "preprocess", path, _parse_bool)
    table_version = _need(prep_kv, "translit_table_version", "preprocess", path, int)
    if transliterate and table_version != translit.TABLE_VERSION:
        raise ResourceError(f"{path}: bad value in [preprocess]: 'translit_table_version = "
                            f"{table_version}' (this build has {translit.TABLE_VERSION})")
    preprocess = PreprocessSettings(clean, transliterate, spell_dictionary)

    pipe_kv = _kv(by_name["pipeline"], "pipeline", path)
    block_names = [n for n in _need(pipe_kv, "blocks", "pipeline", path).split(",") if n]

    blocks: list[FeatureBlockSpec] = []
    vocabularies: dict[str, Vocabulary] = {}
    for name in block_names:
        section = f"block:{name}"
        if section not in by_name:
            raise ResourceError(f"{path}: missing section [{section}]")
        # Key/value entries describe the block; a vocab section follows for
        # lexical blocks.
        kv = _kv(by_name[section], section, path)
        kind = _need(kv, "kind", section, path)
        params = {}
        for key in ("n", "k", "min_df"):
            if key in kv:
                params[key] = _need(kv, key, section, path, int)
        try:
            blocks.append(FeatureBlockSpec(name=name, kind=kind, params=params))
        except UsageError as exc:
            raise ResourceError(f"{path}: bad entry in [{section}]: {exc}") from None
        if kind in LEXICAL_KINDS:
            vocab_section = f"vocab:{name}"
            if vocab_section not in by_name:
                raise ResourceError(f"{path}: missing section [{vocab_section}]")
            vocabularies[name] = _vocabulary(
                _lines(by_name[vocab_section]),
                _need(kv, "n_documents", section, path, _document_count),
                vocab_section,
                path,
                params.get("n") if kind == "char_ngram" else None,
            )
        elif kind in lexfeatures.RESOURCE_FILES:
            _load_resource(resources, kind, kv, "", section, path)
        elif kind == "sentiment":
            provider_kind = _need(kv, "provider", section, path)
            if provider_kind == "builtin":
                pos, neg = (
                    _load_resource(resources, f"sentiment_{side}", kv, f"{side}_", section, path)
                    for side in ("pos", "neg")
                )
                resources.sentiment_provider = lexfeatures.BuiltinSentimentProvider(
                    pos, neg, _need(kv, "intensity_split", section, path, _unit_interval)
                )
            elif provider_kind == "sidecar":
                resources.sentiment_provider = _SidecarRequired()
            else:
                raise ResourceError(f"{path}: unknown sentiment provider {provider_kind!r}")

    try:
        pipeline = FeaturePipeline(blocks, resources).restore(vocabularies)
    except UsageError as exc:
        raise ResourceError(f"{path}: bad entry in [pipeline]: {exc}") from None
    if pipeline.total_dimension != total_dimension:
        raise ResourceError(
            f"{path}: restored dimension {pipeline.total_dimension} does not match "
            f"recorded total_dimension {total_dimension}"
        )

    classifiers = []
    for label in LABELS:
        section = f"weights:{label.name}"
        if section not in by_name:
            raise ResourceError(f"{path}: missing section [{section}]")
        body = by_name[section]
        kv_end = _KV_LINES_RE.match(body).end()
        kv = _kv(body[:kv_end], section, path)
        classifiers.append(
            BinaryLogReg(
                weights=_weights_v2(body[kv_end:], total_dimension, section, path),
                bias=_need(kv, "bias", section, path, _finite),
                reg_lambda=_need(kv, "reg_lambda", section, path, _non_negative),
                iterations=_need(kv, "iterations", section, path, int),
                final_grad_norm=_need(kv, "final_grad_norm", section, path, _finite),
                stop_reason=_optional(kv, "stop_reason", section, path, _stop_reason),
                final_loss=_optional(kv, "final_loss", section, path, _non_negative),
            )
        )

    return OvRModel(
        classifiers=classifiers,
        pipeline=pipeline,
        preprocess=preprocess,
        language=_need(meta, "language", "meta", path),
        n_train_documents=_need(meta, "n_train_documents", "meta", path, int),
        merged_validation=_need(meta, "merged_validation", "meta", path, _parse_bool),
        single_class_warning=_need(meta, "single_class_warning", "meta", path, _parse_bool),
    )
