"""One-vs-rest L2-regularized logistic regression.

Each class gets its own binary classifier, trained by full-batch L-BFGS
with Armijo backtracking from zero initialization on one CSR stack of the
training vectors shared by all classes; nothing is random, so training
is fully deterministic.  The objective per binary problem is

    J(w, b) = (1/m) * sum_i xent(sigmoid(w.x_i + b), y_i)
              + (lambda / 2m) * ||w||^2

with the bias unregularized; :func:`objective` and :func:`gradient`
compute J and its gradient on CSR arrays.  Prediction takes the class
with the highest decision value w.x + b; exact ties resolve to the
earlier label in NAG < CAG < OAG order.  Single documents and batches
are scored by the same kernel, so they get bit-identical scores.

Model files are versioned, sectioned UTF-8 text.  Vocabularies and all
weights are embedded; embeddings and lexicons are referenced by absolute
path plus SHA-256 and re-verified on load, so a loaded model reproduces
bit-identical predictions or fails loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import kernels, lexfeatures
from .kernels import CSR, SparseMatrix, SparseVector
from .corpus_io import LABELS, Label, escape_field, unescape_field
from .errors import DataError, ResourceError
from .featurize import (
    DENSE_KINDS,
    FeatureBlockSpec,
    FeaturePipeline,
    LEXICAL_KINDS,
    Vocabulary,
)
from .preprocess import (
    CleanConfig,
    PreprocessSettings,
    file_sha256,
    load_spell_dictionary,
)

MODEL_FORMAT = "aggdetect-model 1"

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
    # "grad_tol", "max_iters" or "line_search"; None on a loaded model,
    # because the model file does not record it
    stop_reason: str | None = None


def objective(
    csr: CSR, y: np.ndarray, w: np.ndarray, b: float, reg_lambda: float
) -> tuple[float, np.ndarray]:
    """J(w, b) on the CSR stack of the examples, and the scores
    z = Xw + b it was computed from."""
    indptr, indices, data, _dim = csr
    z = kernels.csr_matvec(indptr, indices, data, w) + b
    m = y.shape[0]
    return kernels.logistic_loss_sum(z, y) / m + 0.5 * reg_lambda * float(w @ w) / m, z


def gradient(
    csr: CSR, y: np.ndarray, w: np.ndarray, z: np.ndarray, reg_lambda: float
) -> tuple[np.ndarray, float]:
    """Gradient of J at (w, b), from the scores z that :func:`objective`
    returned there."""
    indptr, indices, data, dim = csr
    m = y.shape[0]
    r = kernels.sigmoid(z) - y
    gw = kernels.csr_rmatvec(indptr, indices, data, r, dim) / m + (reg_lambda / m) * w
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


def train_binary(csr: CSR, y: Sequence[int], config: TrainConfig | None = None) -> BinaryLogReg:
    """Train one binary classifier on the CSR stack of its examples by
    L-BFGS (Liu & Nocedal 1989) over the vector (w, b).

    Deterministic: zero initialization, full-batch gradients, the last
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
    """
    config = config or TrainConfig()
    indptr, _indices, data, dim = csr
    y_arr = np.asarray(y, dtype=np.float64)
    m = indptr.shape[0] - 1
    if m != y_arr.shape[0]:
        raise DataError(f"got {m} vectors but {y_arr.shape[0]} targets")
    if m == 0:
        raise DataError("cannot train on an empty example set")
    if data.size and not np.isfinite(data).all():
        raise DataError("non-finite feature values in training data")
    lam = config.reg_lambda

    def flat_gradient(theta: np.ndarray, z: np.ndarray) -> np.ndarray:
        gw, gb = gradient(csr, y_arr, theta[:dim], z, lam)
        return np.append(gw, gb)

    S = np.empty((_HISTORY, dim + 1))
    Y = np.empty((_HISTORY, dim + 1))
    rho = np.empty(_HISTORY)
    newest, n_pairs, gamma = -1, 0, 1.0
    theta = np.zeros(dim + 1)  # (w, b)
    loss, z = objective(csr, y_arr, theta[:dim], 0.0, lam)
    g = flat_gradient(theta, z)
    iterations = 0
    while True:
        grad_norm = float(np.abs(g).max())
        if grad_norm <= config.grad_tol:
            stop_reason = "grad_tol"
            break
        if iterations >= config.max_iters:
            stop_reason = "max_iters"
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
            new_loss, new_z = objective(csr, y_arr, trial[:dim], float(trial[dim]), lam)
            if new_loss < loss + _ARMIJO_C1 * step * slope:
                break
            step *= 0.5
        else:
            stop_reason = "line_search"
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
    X: SparseMatrix | Sequence[SparseVector],
    labels: Sequence[Label],
    config: TrainConfig | None = None,
    pipeline: FeaturePipeline | None = None,
    preprocess: PreprocessSettings | None = None,
    language: str = "english",
) -> OvRModel:
    """Train one classifier per label (class versus rest) on one CSR stack
    of ``X``; a SparseMatrix (``fit_transform``'s result) is used in place.

    A class with no positive examples still gets a classifier (trained on
    all-negative targets); a corpus containing a single distinct class is
    accepted but flagged via ``single_class_warning``.
    """
    if len(X) != len(labels):
        raise DataError(f"got {len(X)} vectors but {len(labels)} labels")
    if len(X) == 0:
        raise DataError("cannot train on an empty corpus")
    csr = kernels.stack_csr(X)
    classifiers = [
        train_binary(csr, [1 if lab == target else 0 for lab in labels], config)
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


def _scores(model: OvRModel, csr: CSR) -> np.ndarray:
    """Decision values w.x + b, one row per CSR row and one column per class."""
    indptr, indices, data, dim = csr
    if dim != model.dimension:
        raise DataError(
            f"feature dimension {dim} does not match model dimension {model.dimension}"
        )
    return kernels.csr_matvec(indptr, indices, data, model._weights) + model._biases


def predict_proba(model: OvRModel, x: SparseVector) -> np.ndarray:
    """Per-class sigmoid scores; not normalized across classes."""
    return kernels.sigmoid(_scores(model, x.csr())[0])


def predict(model: OvRModel, x: SparseVector) -> Label:
    """Class with the highest score; ties go to the earlier label."""
    return LABELS[int(np.argmax(_scores(model, x.csr())[0]))]


def predict_many(model: OvRModel, X: SparseMatrix | Sequence[SparseVector]) -> list[Label]:
    """:func:`predict` for each vector, scored as one batch."""
    if not X:
        return []
    return [LABELS[int(i)] for i in np.argmax(_scores(model, kernels.stack_csr(X)), axis=1)]


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


def _resource_ref(resources: lexfeatures.Resources, key: str) -> tuple[str, str]:
    ref = resources.provenance.get(key)
    if ref is None:
        raise ResourceError(
            f"cannot serialize pipeline: resource {key!r} has no file provenance"
        )
    return ref


def save_model(model: OvRModel, path: str | Path) -> None:
    """Write the sectioned text serialization. Fully deterministic."""
    if model.pipeline is None or not model.pipeline.fitted:
        raise DataError("cannot save a model without a fitted pipeline")
    if model.preprocess is None:
        raise DataError("cannot save a model without preprocessing settings")
    pipe = model.pipeline
    prep = model.preprocess
    out: list[str] = [MODEL_FORMAT]

    out.append("[meta]")
    out.append(f"language = {model.language}")
    out.append("labels = " + ",".join(label.name for label in LABELS))
    out.append(f"n_train_documents = {model.n_train_documents}")
    out.append(f"merged_validation = {_bool(model.merged_validation)}")
    out.append(f"single_class_warning = {_bool(model.single_class_warning)}")
    out.append(f"total_dimension = {pipe.total_dimension}")

    out.append("[preprocess]")
    clean = prep.clean
    out.append(f"lowercase = {_bool(clean.lowercase)}")
    out.append(f"strip_urls = {_bool(clean.strip_urls)}")
    out.append(f"strip_emails = {_bool(clean.strip_emails)}")
    out.append(f"strip_numbers = {_bool(clean.strip_numbers)}")
    out.append(f"minor_stemming = {_bool(clean.minor_stemming)}")
    out.append("expansions = " + json.dumps(clean.expansions, sort_keys=True, ensure_ascii=False))
    out.append(f"transliterate = {_bool(prep.transliterate)}")
    out.append(f"translit_table_version = {prep.translit_table_version}")
    out.append(f"spell_correct = {_bool(prep.spell_dictionary is not None)}")
    if prep.spell_dictionary is not None:
        ref = _resource_ref(pipe.resources, "spell_dict")
        out.append(f"spell_dict_path = {ref[0]}")
        out.append(f"spell_dict_sha256 = {ref[1]}")

    out.append("[pipeline]")
    out.append("blocks = " + ",".join(spec.name for spec in pipe.blocks))

    for spec in pipe.blocks:
        out.append(f"[block:{spec.name}]")
        out.append(f"kind = {spec.kind}")
        for key in ("n", "k", "min_df"):
            if key in spec.params:
                out.append(f"{key} = {spec.params[key]}")
        out.append(f"offset = {pipe.offsets[spec.name]}")
        out.append(f"dimension = {pipe.dimensions[spec.name]}")
        if spec.kind in LEXICAL_KINDS:
            vocab = pipe.vocabularies[spec.name]
            out.append(f"n_documents = {vocab.n_documents}")
        elif spec.kind in ("embedding", "liwc", "gender"):
            ref = _resource_ref(pipe.resources, spec.kind)
            out.append(f"path = {ref[0]}")
            out.append(f"sha256 = {ref[1]}")
        elif spec.kind == "sentiment":
            provider = pipe.resources.sentiment_provider
            out.append(f"provider = {provider.kind}")
            if provider.kind == "builtin":
                out.append(f"intensity_split = {_fmt(provider.intensity_split)}")
                for side in ("pos", "neg"):
                    ref = _resource_ref(pipe.resources, f"sentiment_{side}")
                    out.append(f"{side}_path = {ref[0]}")
                    out.append(f"{side}_sha256 = {ref[1]}")
        if spec.kind in LEXICAL_KINDS:
            out.append(f"[vocab:{spec.name}]")
            vocab = pipe.vocabularies[spec.name]
            for term in vocab.terms:
                out.append(f"{escape_field(term)}\t{vocab.document_frequency[term]}")

    for label, clf in zip(LABELS, model.classifiers):
        out.append(f"[weights:{label.name}]")
        out.append(f"bias = {_fmt(clf.bias)}")
        out.append(f"reg_lambda = {_fmt(clf.reg_lambda)}")
        out.append(f"iterations = {clf.iterations}")
        out.append(f"final_grad_norm = {_fmt(clf.final_grad_norm)}")
        nonzero = np.nonzero(clf.weights)[0]
        out.append(f"nnz = {nonzero.shape[0]}")
        for i in nonzero:
            out.append(f"{int(i)}\t{_fmt(clf.weights[i])}")

    Path(path).write_text("".join(line + "\n" for line in out), encoding="utf-8")


class _SidecarRequired(lexfeatures.SentimentProvider):
    """Placeholder installed when a model was trained with sidecar
    sentiment; prediction must attach a sidecar for the new corpus."""

    kind = "sidecar"

    def document_features(self, doc) -> np.ndarray:
        raise ResourceError(
            "this model uses sidecar sentiment; supply a sidecar file for the corpus"
        )


def _split_sections(raw: str, path: Path) -> list[tuple[str, list[str]]]:
    lines = raw.split("\n")
    if not lines or lines[0] != MODEL_FORMAT:
        raise ResourceError(
            f"{path}: not a recognized model file (expected header {MODEL_FORMAT!r})"
        )
    sections: list[tuple[str, list[str]]] = []
    current: list[str] | None = None
    for line in lines[1:]:
        if line.startswith("[") and line.endswith("]"):
            current = []
            sections.append((line[1:-1], current))
        elif line:
            if current is None:
                raise ResourceError(f"{path}: content before first section")
            current.append(line)
    return sections


def _kv(lines: list[str], section: str, path: Path) -> dict[str, str]:
    result = {}
    for line in lines:
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


def _need(kv: dict[str, str], key: str, section: str, path: Path, parse=str):
    if key not in kv:
        raise ResourceError(f"{path}: missing key {key!r} in section [{section}]")
    return _parse(parse, kv[key], section, f"{key} = {kv[key]}", path)


def _verify_checksum(file_path: str, expected: str, what: str) -> None:
    p = Path(file_path)
    if not p.is_file():
        raise ResourceError(f"referenced {what} not found: {file_path}")
    actual = file_sha256(p)
    if actual != expected:
        raise ResourceError(
            f"checksum mismatch for {what} {file_path}: expected {expected}, got {actual}"
        )


def load_model(path: str | Path) -> OvRModel:
    """Load a model file, re-reading referenced resources and verifying
    their checksums. Predictions after a round trip are bit-identical."""
    path = Path(path)
    if not path.is_file():
        raise ResourceError(f"model file not found: {path}")
    sections = _split_sections(path.read_text(encoding="utf-8"), path)
    by_name = dict(sections)
    for required in ("meta", "preprocess", "pipeline"):
        if required not in by_name:
            raise ResourceError(f"{path}: missing section [{required}]")

    meta = _kv(by_name["meta"], "meta", path)
    labels_str = _need(meta, "labels", "meta", path)
    if labels_str != ",".join(label.name for label in LABELS):
        raise ResourceError(f"{path}: unsupported label order {labels_str!r}")
    total_dimension = _need(meta, "total_dimension", "meta", path, int)

    prep_kv = _kv(by_name["preprocess"], "preprocess", path)
    flags = ("lowercase", "strip_urls", "strip_emails", "strip_numbers", "minor_stemming")
    clean = CleanConfig(
        **{flag: _need(prep_kv, flag, "preprocess", path, _parse_bool) for flag in flags},
        expansions=_need(prep_kv, "expansions", "preprocess", path, json.loads),
    )
    resources = lexfeatures.Resources()
    spell_dictionary = None
    if _need(prep_kv, "spell_correct", "preprocess", path, _parse_bool):
        dict_path = _need(prep_kv, "spell_dict_path", "preprocess", path)
        dict_sha = _need(prep_kv, "spell_dict_sha256", "preprocess", path)
        _verify_checksum(dict_path, dict_sha, "spell dictionary")
        spell_dictionary = load_spell_dictionary(dict_path)
        resources.provenance["spell_dict"] = (dict_path, dict_sha)
    preprocess = PreprocessSettings(
        clean=clean,
        transliterate=_need(prep_kv, "transliterate", "preprocess", path, _parse_bool),
        spell_dictionary=spell_dictionary,
        translit_table_version=_need(prep_kv, "translit_table_version", "preprocess", path, int),
    )

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
        blocks.append(FeatureBlockSpec(name=name, kind=kind, params=params))
        if kind in LEXICAL_KINDS:
            vocab_section = f"vocab:{name}"
            if vocab_section not in by_name:
                raise ResourceError(f"{path}: missing section [{vocab_section}]")
            terms: list[str] = []
            df: dict[str, int] = {}
            for line in by_name[vocab_section]:
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ResourceError(f"{path}: malformed row in [{vocab_section}]: {line!r}")
                term = unescape_field(parts[0])
                # save_model writes each term once, in sorted order
                if terms and term <= terms[-1]:
                    raise ResourceError(
                        f"{path}: terms not strictly increasing in [{vocab_section}]: {line!r}"
                    )
                terms.append(term)
                df[term] = _parse(int, parts[1], vocab_section, line, path)
            vocabularies[name] = Vocabulary(
                terms=terms,
                index={t: i for i, t in enumerate(terms)},
                document_frequency=df,
                n_documents=_need(kv, "n_documents", section, path, int),
            )
        elif kind == "embedding":
            ref = (_need(kv, "path", section, path), _need(kv, "sha256", section, path))
            _verify_checksum(ref[0], ref[1], "embedding table")
            resources.embeddings = lexfeatures.load_embeddings(ref[0])
            resources.provenance["embedding"] = ref
        elif kind == "sentiment":
            provider_kind = _need(kv, "provider", section, path)
            if provider_kind == "builtin":
                refs = {}
                for side in ("pos", "neg"):
                    refs[side] = (
                        _need(kv, f"{side}_path", section, path),
                        _need(kv, f"{side}_sha256", section, path),
                    )
                    _verify_checksum(refs[side][0], refs[side][1], f"{side} sentiment lexicon")
                    resources.provenance[f"sentiment_{side}"] = refs[side]
                resources.sentiment_provider = lexfeatures.BuiltinSentimentProvider(
                    pos_lexicon=lexfeatures.load_word_set(refs["pos"][0]),
                    neg_lexicon=lexfeatures.load_word_set(refs["neg"][0]),
                    intensity_split=_need(kv, "intensity_split", section, path, float),
                )
            elif provider_kind == "sidecar":
                resources.sentiment_provider = _SidecarRequired()
            else:
                raise ResourceError(f"{path}: unknown sentiment provider {provider_kind!r}")
        elif kind == "liwc":
            ref = (_need(kv, "path", section, path), _need(kv, "sha256", section, path))
            _verify_checksum(ref[0], ref[1], "category lexicon")
            resources.category_lexicon = lexfeatures.load_category_lexicon(ref[0])
            resources.provenance["liwc"] = ref
        elif kind == "gender":
            ref = (_need(kv, "path", section, path), _need(kv, "sha256", section, path))
            _verify_checksum(ref[0], ref[1], "gender lexicon")
            resources.gender_lexicon = lexfeatures.load_weighted_lexicon(ref[0])
            resources.provenance["gender"] = ref

    pipeline = FeaturePipeline(blocks, resources).restore(vocabularies)
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
        lines = by_name[section]
        kv_lines = [ln for ln in lines if " = " in ln]
        weight_lines = [ln for ln in lines if " = " not in ln]
        kv = _kv(kv_lines, section, path)
        weights = np.zeros(total_dimension)
        declared_nnz = _need(kv, "nnz", section, path, int)
        if declared_nnz != len(weight_lines):
            raise ResourceError(
                f"{path}: [{section}] declares {declared_nnz} weights but has "
                f"{len(weight_lines)}"
            )
        previous = -1
        for line in weight_lines:
            parts = line.split("\t")
            if len(parts) != 2:
                raise ResourceError(f"{path}: malformed row in [{section}]: {line!r}")
            index = _parse(int, parts[0], section, line, path)
            if not 0 <= index < total_dimension:
                raise ResourceError(
                    f"{path}: weight index {index} out of range in [{section}]"
                )
            # save_model writes each nonzero weight once, by increasing index
            if index <= previous:
                raise ResourceError(
                    f"{path}: weight indices not strictly increasing in [{section}]: {line!r}"
                )
            previous = index
            weights[index] = _parse(float, parts[1], section, line, path)
        classifiers.append(
            BinaryLogReg(
                weights=weights,
                bias=_need(kv, "bias", section, path, float),
                reg_lambda=_need(kv, "reg_lambda", section, path, float),
                iterations=_need(kv, "iterations", section, path, int),
                final_grad_norm=_need(kv, "final_grad_norm", section, path, float),
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
