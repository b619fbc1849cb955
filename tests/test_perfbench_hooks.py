"""The benchmark's hooks into the program.

``perfbench/tracer.py`` wraps program functions by module and name, and
``perfbench/run.py`` reads the rows ``transform_many`` returns. A rename
or a changed return type would break the benchmark without failing any
other test, so these tests run its tracer against the package.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import aggdetect.cli  # noqa: F401  (imports every module the tracer wraps)
from aggdetect import kernels
from aggdetect.corpus_io import Document
from aggdetect.featurize import FeatureBlockSpec, FeaturePipeline

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
