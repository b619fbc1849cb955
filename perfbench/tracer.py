"""Span tracer for the benchmark's traced run.

:meth:`Tracer.install` replaces public functions and methods of the
``aggdetect`` modules with timing wrappers at run time; :meth:`uninstall`
puts the originals back. Nothing under ``src/`` changes, and untraced runs
never install the wrappers. A function imported by name into another
module (``from .model import train_ovr`` in the CLI) is replaced there
too, so every call path is seen.

Spans are kept in memory as ``[name, start, end, parent, note]`` lists,
where ``parent`` is the index of the enclosing span (-1 at the root) and
``note`` is a per-call value taken from the arguments or the result (array
bytes, nonzero count, iterations). :func:`layer_metrics` turns them into
the per-layer metrics; :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np


def _array_bytes(args, result) -> int:
    items = list(args) + (list(result) if isinstance(result, tuple) else [result])
    return sum(item.nbytes for item in items if isinstance(item, np.ndarray))


# (module, attribute, note) for every call the traced run records. The span
# name is ``<module>.<attribute>``; a dotted attribute names a method.
TARGETS = (
    ("corpus_io", "load_corpus", None),
    ("corpus_io", "load_predictions", None),
    ("corpus_io", "write_predictions", None),
    ("preprocess", "PreprocessSettings.apply", None),
    ("preprocess", "PreprocessSettings.apply_with_stats", None),
    ("preprocess", "load_spell_dictionary", None),
    ("preprocess", "spell_correct", None),
    ("translit", "transliterate", None),
    ("translit", "transliterate_with_count", lambda args, result: result[1]),
    ("featurize", "tokenize", None),
    ("featurize", "FeaturePipeline.fit", None),
    ("featurize", "FeaturePipeline.transform_many", None),
    ("featurize", "FeaturePipeline.transform",
     lambda args, result: (result.dimension, len(result))),
    ("lexfeatures", "load_embeddings", None),
    ("lexfeatures", "embed_average", None),
    ("kernels", "stack_csr", _array_bytes),
    ("kernels", "csr_matvec", _array_bytes),
    ("kernels", "csr_rmatvec", _array_bytes),
    ("model", "train_ovr", None),
    ("model", "train_binary",
     lambda args, result: (result.iterations, result.final_grad_norm)),
    ("model", "save_model", None),
    ("model", "load_model", None),
    ("model", "predict_many", None),
    ("model", "predict", None),
    ("evaluate", "random_baseline", None),
    ("evaluate", "build_report", None),
    ("evaluate", "render_report", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one operation."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if note is not None:
                record[4] = note(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "aggdetect" or key.startswith("aggdetect.")]
        for module_name, attr, note in TARGETS:
            name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            module = sys.modules[f"aggdetect.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(name, original, note))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, _note in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


def _outermost(spans: list[list], names: set[str]) -> float:
    """Time covered by spans in ``names`` that have no ancestor in ``names``."""
    total = 0.0
    for span in spans:
        if span[0] in names:
            parent = span[3]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
    return total


def _ancestor(spans: list[list], span: list, indices: set[int]) -> bool:
    parent = span[3]
    while parent >= 0 and parent not in indices:
        parent = spans[parent][3]
    return parent >= 0


def _self_time(spans: list[list], names: set[str]) -> float:
    """Time inside spans in ``names`` not covered by a child span of
    another name (children with a name in ``names`` stay included)."""
    total = _outermost(spans, names)
    for span in spans:
        parent = span[3]
        if span[0] not in names and parent >= 0 and spans[parent][0] in names:
            total -= span[2] - span[1]
    return total


def layer_metrics(spans: list[list], op_name: str) -> dict[str, float]:
    """Per-layer metrics, each a total per benchmark operation ``op_name``
    (one train run, or one predict + evaluate with one pass of the stream)."""
    ops = sum(1 for s in spans if s[0] == op_name)
    if ops == 0:
        raise ValueError(f"no {op_name} spans recorded")

    def dur(*names: str) -> float:
        return _outermost(spans, set(names)) / ops

    def calls(name: str) -> float:
        return sum(1 for s in spans if s[0] == name) / ops

    def notes(name: str) -> list:
        return [s[4] for s in spans if s[0] == name]

    binaries = {i for i, s in enumerate(spans) if s[0] == "model.train_binary"}
    fits = notes("model.train_binary")
    iterations = [fit[0] for fit in fits]
    # Each line-search trial and the initial loss are one matvec inside
    # train_binary; the initial one is not a trial.
    trials = sum(1 for s in spans if s[0] == "kernels.csr_matvec"
                 and _ancestor(spans, s, binaries)) - len(binaries)
    transforms = notes("featurize.transform")
    preprocess_calls = (calls("preprocess.apply") + calls("preprocess.apply_with_stats"))
    metrics = {
        "model.train_s": dur("model.train_ovr"),
        "model.final_grad_norm_max": max((fit[1] for fit in fits), default=0.0),
        "model.ls_accept_ratio": sum(iterations) / trials if trials > 0 else 0.0,
        "model.save_s": dur("model.save_model"),
        "model.load_s": dur("model.load_model"),
        "model.predict_many_s": dur("model.predict_many"),
        "model.predict_s": dur("model.predict"),
        "kernels.stack_csr_calls": calls("kernels.stack_csr"),
        "kernels.stack_csr_s": dur("kernels.stack_csr"),
        "kernels.matvec_calls": calls("kernels.csr_matvec"),
        "kernels.rmatvec_calls": calls("kernels.csr_rmatvec"),
        "kernels.matvec_s": dur("kernels.csr_matvec"),
        "kernels.rmatvec_s": dur("kernels.csr_rmatvec"),
        "kernels.bytes_moved": sum(
            sum(notes(n)) for n in ("kernels.stack_csr", "kernels.csr_matvec",
                                    "kernels.csr_rmatvec")) / ops,
        "featurize.fit_s": dur("featurize.fit"),
        "featurize.transform_s": dur("featurize.transform_many", "featurize.transform"),
        "featurize.dim": max((t[0] for t in transforms), default=0),
        "featurize.nnz": sum(t[1] for t in transforms) / ops,
        "featurize.tokenize_per_doc": (calls("featurize.tokenize") / preprocess_calls
                                       if preprocess_calls else 0.0),
        "preprocess.s": _self_time(spans, {"preprocess.apply", "preprocess.apply_with_stats",
                                           "preprocess.load_spell_dictionary"}) / ops,
        "preprocess.spell_s": dur("preprocess.spell_correct"),
        "preprocess.spell_calls": calls("preprocess.spell_correct"),
        "translit.s": dur("translit.transliterate", "translit.transliterate_with_count"),
        "translit.unknown": sum(notes("translit.transliterate_with_count")) / ops,
        "lexfeatures.load_embeddings_s": dur("lexfeatures.load_embeddings"),
        "lexfeatures.embed_s": dur("lexfeatures.embed_average"),
        "corpus_io.load_s": dur("corpus_io.load_corpus", "corpus_io.load_predictions"),
        "corpus_io.write_s": dur("corpus_io.write_predictions"),
        "evaluate.s": dur("evaluate.build_report", "evaluate.render_report"),
        "evaluate.baseline_s": dur("evaluate.random_baseline"),
        "cli.other_s": _self_time(spans, {"cli.main"}) / ops,
    }
    # Classes train in NAG, CAG, OAG order inside each train_ovr call.
    for k, label in enumerate(("NAG", "CAG", "OAG")):
        metrics[f"model.iterations.{label}"] = (sum(iterations[k::3]) / ops
                                                if iterations else 0.0)
    return metrics
