"""The benchmark's hooks into the program.

``perfbench/tracer.py`` wraps program functions by module and name, and
``perfbench/run.py`` reads the rows ``transform_many`` returns. A rename
or a changed return type would break the benchmark without failing any
other test, so these tests run its tracer against the package.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import aggdetect.cli  # imports every module the tracer wraps
from aggdetect import featurize, kernels, model
from aggdetect.corpus_io import Document
from aggdetect.featurize import FeatureBlockSpec, FeaturePipeline
from aggdetect.lexfeatures import EmbeddingTable, Resources

from helpers import synthetic_documents, write_corpus_tsv, write_embeddings, write_lines

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _target(module_name, attr):
    """What the tracer replaces for one TARGETS entry: a module function,
    or a function in a class's own namespace."""
    owner = sys.modules[f"aggdetect.{module_name}"]
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def _pipeline():
    docs = [Document(id=f"d{i}", text=t) for i, t in enumerate(["ab cd ab", "cd ef", "ab"])]
    return FeaturePipeline(
        [FeatureBlockSpec.from_name("U", min_df=1), FeatureBlockSpec.from_name("C3", min_df=1)]
    ).fit(docs), docs


def test_tracer_wraps_every_target_and_uninstalls():
    originals = {(m, a): _target(m, a) for m, a, _note in tracer.TARGETS}
    spans = tracer.Tracer()
    spans.install()
    try:
        for (module_name, attr), original in originals.items():
            wrapped = _target(module_name, attr)
            assert wrapped is not original, f"{module_name}.{attr} not wrapped"
            assert wrapped.__wrapped__ is original
    finally:
        spans.uninstall()
    for (module_name, attr), original in originals.items():
        assert _target(module_name, attr) is original


def test_names_run_py_reads_outside_the_tracer_exist():
    """run.py calls these directly, so deleting one that looks unused in
    the package breaks the benchmark."""
    from aggdetect.cli import main
    from aggdetect.corpus_io import Document, parse_label
    from aggdetect.evaluate import random_baseline
    from aggdetect.model import load_model, predict

    assert all(callable(f) for f in (main, Document, parse_label, random_baseline,
                                     load_model, predict))
    backend = kernels.active_backend()
    assert isinstance(backend, str) and backend


def test_traced_transform_and_stack_record_their_notes():
    pipeline, docs = _pipeline()
    spans = tracer.Tracer()
    spans.install()
    try:
        row = pipeline.transform(docs[0])
        matrix = pipeline.transform_many(docs)
        csr = kernels.stack_csr(matrix)
    finally:
        spans.uninstall()
    notes = {name: note for name, _start, _end, _parent, note in spans.spans}
    assert len(row) > 0
    assert notes["featurize.transform"] == (pipeline.total_dimension, len(row))
    assert "featurize.transform_many" in notes
    assert notes["kernels.stack_csr"] == sum(array.nbytes for array in csr[:3])


def test_traced_transform_many_records_one_embed_average_per_nonblank_document():
    """lexfeatures.embed_s is the time of these spans: a W2V batch over
    two chunks must record one per document that is not blank, each inside
    the transform_many span."""
    table = EmbeddingTable({"ab": [1.0, 0.0], "cd": [0.0, 2.0]}, 2)
    texts = ["ab cd ab", "   ", "zz", "", "cd ab", "\t"] * 30
    docs = [Document(id=f"d{i}", text=t) for i, t in enumerate(texts)]
    pipeline = FeaturePipeline(
        [FeatureBlockSpec.from_name("U", min_df=1), FeatureBlockSpec.from_name("W2V")],
        Resources(embeddings=table),
    ).fit(docs)
    spans = tracer.Tracer()
    spans.install()
    try:
        with spans.span("op"):
            pipeline.transform_many(docs)
    finally:
        spans.uninstall()
    names = [span[0] for span in spans.spans]
    batch = names.index("featurize.transform_many")
    averages = [span for span in spans.spans if span[0] == "lexfeatures.embed_average"]
    assert len(texts) > featurize._CHUNK_ROWS
    assert len(averages) == sum(1 for t in texts if t.strip()) == 90
    assert all(span[3] == batch for span in averages)
    assert tracer.layer_metrics(spans.spans, "op")["lexfeatures.embed_s"] > 0


def test_transform_many_rows_read_as_the_objective_reads_them():
    """run.py's train_objective rebuilds the matrix from each row's len()
    and to_arrays(); that must give the CSR arrays themselves."""
    pipeline, docs = _pipeline()
    vectors = pipeline.transform_many(docs + [Document(id="blank", text="  ")])
    row_ids = np.repeat(np.arange(len(vectors)), [len(v) for v in vectors])
    arrays = [v.to_arrays() for v in vectors]
    indices = np.concatenate([a[0] for a in arrays])
    values = np.concatenate([a[1] for a in arrays])
    indptr, csr_indices, data, dim = kernels.stack_csr(vectors)
    assert dim == pipeline.total_dimension == vectors[0].dimension
    assert row_ids.tolist() == np.repeat(np.arange(len(vectors)), np.diff(indptr)).tolist()
    assert indices.tolist() == csr_indices.tolist()
    assert values.tobytes() == data.tobytes()


def test_traced_train_and_predict_time_saving_and_loading(tmp_path):
    """The per-layer metrics model.save_s, model.load_s and
    lexfeatures.load_embeddings_s come from spans of these three functions,
    and preprocess.s counts the spell dictionary's load; a traced CLI train
    then predict of a spell-corrected W2V model must record each."""
    corpus = write_corpus_tsv(tmp_path / "train.tsv", synthetic_documents(n_per_class=4))
    words = ["calm0", "sly0", "rage0", "word0", "word1"]
    embeddings = write_embeddings(tmp_path / "e.vec", {w: [float(i), 1.0] for i, w in
                                                       enumerate(words)})
    spell_dict = write_lines(tmp_path / "dict.tsv", [f"{w}\t3" for w in words])
    config = write_lines(tmp_path / "run.cfg", [
        "language = english", "blocks = U+W2V", "min_df = 1", "max_iters = 5",
        f"embeddings = {embeddings.name}", "spell_correct = true",
        f"spell_dict = {spell_dict.name}",
    ])
    model = tmp_path / "model.txt"
    spans = tracer.Tracer()
    spans.install()
    try:
        with spans.span("op"):
            assert aggdetect.cli.main(["--quiet", "train", str(corpus), str(model),
                                       "--config", str(config)]) == 0
            assert aggdetect.cli.main(["--quiet", "predict", str(model), str(corpus),
                                       str(tmp_path / "pred.tsv")]) == 0
    finally:
        spans.uninstall()
    names = [span[0] for span in spans.spans]
    # train loads each file for its features, predict through the model
    assert names.count("lexfeatures.load_embeddings") == 2
    assert names.count("preprocess.load_spell_dictionary") == 2
    assert names.count("model.save_model") == names.count("model.load_model") == 1
    metrics = tracer.layer_metrics(spans.spans, "op")
    for key in ("model.save_s", "model.load_s", "lexfeatures.load_embeddings_s"):
        assert metrics[key] > 0, key


def test_traced_train_ovr_records_one_product_per_loss_and_gradient(monkeypatch):
    """model.ls_accept_ratio, kernels.matvec_calls and kernels.rmatvec_calls
    read these spans: inside each traced train_binary, one csr_matvec per
    line-search trial plus the initial loss, and one csr_rmatvec per
    gradient, the initial one and one per accepted step."""
    spans = tracer.Tracer()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            binary = max(i for i, s in enumerate(spans.spans) if s[0] == "model.train_binary")
            calls[name, binary] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(model, "objective", counted("objective", model.objective))
    monkeypatch.setattr(model, "gradient", counted("gradient", model.gradient))
    rows = synthetic_documents(n_per_class=6)
    docs = [Document(id=doc_id, text=text) for doc_id, text, _label in rows]
    X = FeaturePipeline([FeatureBlockSpec.from_name("U", min_df=1)]).fit_transform(docs)
    spans.install()
    try:
        with spans.span("op"):
            model.train_ovr(X, [label for _, _, label in rows], model.TrainConfig(max_iters=8))
    finally:
        spans.uninstall()
    binaries = [i for i, s in enumerate(spans.spans) if s[0] == "model.train_binary"]
    assert len(binaries) == 3
    iterations = [spans.spans[b][4][0] for b in binaries]
    for b, steps in zip(binaries, iterations):
        children = Counter(s[0] for s in spans.spans if s[3] == b)
        assert children["kernels.csr_matvec"] == calls["objective", b] > steps
        assert children["kernels.csr_rmatvec"] == calls["gradient", b] == steps + 1
    products = Counter(s[0] for s in spans.spans if s[0].startswith("kernels.csr_"))
    assert products["kernels.csr_matvec"] == sum(calls[k] for k in calls if k[0] == "objective")
    metrics = tracer.layer_metrics(spans.spans, "op")
    trials = products["kernels.csr_matvec"] - len(binaries)
    assert metrics["model.ls_accept_ratio"] == sum(iterations) / trials
    assert metrics["kernels.matvec_calls"] == products["kernels.csr_matvec"]
    assert metrics["kernels.rmatvec_calls"] == products["kernels.csr_rmatvec"]
    assert products["kernels.csr_rmatvec"] == sum(iterations) + len(binaries)
