"""Property tests over the pipeline's configuration space, each
configuration run through train, save, load and predict on a tiny corpus:
on English, block sets (lexical blocks, optionally with the dense W2V, S,
LIWC and GP), ``min_df``, a cleaning switch and spell correction; on
code-mixed Hindi, lexical block sets and ``min_df`` with transliteration;
and two models that share their resource files in one process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import aggdetect
from aggdetect import cli
from aggdetect.corpus_io import Document, Label, load_corpus, write_predictions
from aggdetect.model import load_model, predict, predict_many, predict_proba, save_model
from aggdetect.preprocess import CLEAN_SWITCHES

from helpers import (synthetic_documents, train_library, write_corpus_tsv, write_lines,
                     write_resource_run)

LEXICAL_BLOCKS = ["U", "B", "BU", "C3", "C4", "C5", "SK2"]
DENSE_BLOCKS = ["W2V", "S", "LIWC", "GP"]

# Text that each cleaning switch changes: capitals, a URL, an email
# address, standalone numbers and inflected forms.
DECORATIONS = [
    "Calm0 RAGE1 Sly2",
    "see http://example.org/rage0 now",
    "mail sly1@example.com",
    "42 calm1 7",
    "calms raging slys",
    "",
]


# Devanagari phrases to mix into roman text. U+0973 is outside the
# transliteration table, so it passes through and the run logs a warning.
HINDI_DECORATIONS = [
    "शांत रहो भाई",
    "तुम पागल हो!!",
    "गुस्सा \u0973 मत करो",
    "bhai दोस्त है",
    "",
]


def decorated(rows, decorations=DECORATIONS):
    return [(doc_id, f"{text} {decorations[i % len(decorations)]}".strip(), label)
            for i, (doc_id, text, label) in enumerate(rows)]


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """A directory for the runs, a training corpus and a corpus to
    predict, which holds unseen words and one document of nothing else."""
    root = tmp_path_factory.mktemp("pipeline")
    train = write_corpus_tsv(root / "mixed.tsv", decorated(synthetic_documents(8, seed=17)))
    rows = decorated(synthetic_documents(3, seed=29)) + [("unseen", "zzz Qqq 99", Label.NAG)]
    return root, train, write_corpus_tsv(root / "test.tsv", rows)


@pytest.fixture(scope="module")
def hindi_corpora(tmp_path_factory):
    """As ``corpora``, with Devanagari phrases mixed into the documents."""
    root = tmp_path_factory.mktemp("hindi")
    train = write_corpus_tsv(root / "mixed.tsv",
                             decorated(synthetic_documents(8, seed=17), HINDI_DECORATIONS))
    rows = decorated(synthetic_documents(3, seed=29), HINDI_DECORATIONS)
    rows.append(("unseen", "ऑ\u0973ठ zzz क्षमा", Label.NAG))
    return root, train, write_corpus_tsv(root / "test.tsv", rows)


def assert_train_save_load_predict_agree(root, train_path, test_path, config):
    """``train`` and the library write the same bytes; the loaded model
    predicts what the in-memory one does, and one document at a time
    what the batch does."""
    cli_path, library_path = root / "cli.txt", root / "library.txt"
    assert cli.main(["--quiet", "train", str(train_path), str(cli_path),
                     "--config", str(config)]) == 0
    model = train_library(train_path, config)
    save_model(model, library_path)
    assert cli_path.read_bytes() == library_path.read_bytes()

    loaded = load_model(cli_path)
    corpus = load_corpus(test_path, has_labels=True)
    rows = {}
    for name, m in (("memory", model), ("loaded", loaded)):
        docs = cli.preprocess_corpus(corpus, m.preprocess)
        labels = predict_many(m, m.pipeline.transform_many(docs))
        vectors = [m.pipeline.transform(doc) for doc in docs]
        assert [predict(m, x) for x in vectors] == labels
        rows[name] = labels, [predict_proba(m, x).tolist() for x in vectors]
    assert rows["loaded"] == rows["memory"]


@settings(max_examples=60, deadline=None)
@given(
    lexical=st.lists(st.sampled_from(LEXICAL_BLOCKS), min_size=1, unique=True),
    dense=st.lists(st.sampled_from(DENSE_BLOCKS), unique=True),
    min_df=st.sampled_from([1, 2]),
    switch=st.sampled_from(CLEAN_SWITCHES),
    on=st.booleans(),
    spell_correct=st.booleans(),
)
def test_train_save_load_predict_agree(corpora, lexical, dense, min_df, switch, on,
                                       spell_correct):
    root, train_path, test_path = corpora
    _corpus, config, _files = write_resource_run(
        root, "+".join(lexical + dense), spell_correct, min_df,
        extra=[f"{switch} = {str(on).lower()}"],
    )
    assert_train_save_load_predict_agree(root, train_path, test_path, config)


@settings(max_examples=30, deadline=None)
@given(
    lexical=st.lists(st.sampled_from(LEXICAL_BLOCKS), min_size=1, unique=True),
    min_df=st.sampled_from([1, 2]),
)
def test_hindi_train_save_load_predict_agree(hindi_corpora, lexical, min_df):
    """The same agreement on code-mixed Hindi, transliterated."""
    root, train_path, test_path = hindi_corpora
    config = write_lines(root / "hindi.cfg", [
        "language = hindi", f"blocks = {'+'.join(lexical)}", f"min_df = {min_df}",
        "max_iters = 30",
    ])
    assert_train_save_load_predict_agree(root, train_path, test_path, config)


def test_two_models_sharing_resources_predict_as_each_does_alone(corpora):
    """Two English models trained in one process from one embedding table
    and one spell dictionary share one parse of each, so one memo of spell
    corrections too. Predicting with them in turn, one document at a
    time, writes what each model's ``predict`` writes alone in a fresh
    process."""
    root, train_path, test_path = corpora
    root = root / "shared"
    root.mkdir()
    _corpus, config, _files = write_resource_run(root, "U+W2V")
    lines = config.read_text(encoding="utf-8").splitlines()
    other = write_lines(root / "other.cfg", [
        "blocks = BU+C4+W2V" if line.startswith("blocks = ") else line for line in lines])
    models = [train_library(train_path, path) for path in (config, other)]
    a, b = models
    assert a.pipeline.resources.embeddings is b.pipeline.resources.embeddings
    assert a.preprocess.spell_dictionary is b.preprocess.spell_dictionary

    corpus = load_corpus(test_path, has_labels=True)
    labels = [[], []]
    for doc in corpus.documents:
        for m, out in zip(models, labels):
            prepped = Document(id=doc.id, text=m.preprocess.apply(doc.text))
            out.append(predict(m, m.pipeline.transform(prepped)))
    package_root = str(Path(aggdetect.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    for name, m, out in zip("ab", models, labels):
        model_path, interleaved, alone = (root / f"{name}{suffix}"
                                          for suffix in (".txt", ".tsv", "-alone.tsv"))
        save_model(m, model_path)
        write_predictions(corpus, out, interleaved)
        subprocess.run([sys.executable, "-m", "aggdetect", "--quiet", "predict",
                        str(model_path), str(test_path), str(alone)], env=env, check=True)
        assert interleaved.read_bytes() == alone.read_bytes()
