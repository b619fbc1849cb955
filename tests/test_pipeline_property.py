"""A property test over the pipeline's configuration space: block sets,
``min_df``, a cleaning switch and spell correction, each run through
train, save, load and predict on a tiny corpus."""

import pytest
from hypothesis import given, settings, strategies as st

from aggdetect import cli
from aggdetect.corpus_io import Label, load_corpus
from aggdetect.model import load_model, predict, predict_many, predict_proba, save_model
from aggdetect.preprocess import CLEAN_SWITCHES

from helpers import synthetic_documents, train_library, write_corpus_tsv, write_resource_run

LEXICAL_BLOCKS = ["U", "B", "BU", "C3", "C4", "C5", "SK2"]

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


def decorated(rows):
    return [(doc_id, f"{text} {DECORATIONS[i % len(DECORATIONS)]}".strip(), label)
            for i, (doc_id, text, label) in enumerate(rows)]


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """A directory for the runs, a training corpus and a corpus to
    predict, which holds unseen words and one document of nothing else."""
    root = tmp_path_factory.mktemp("pipeline")
    train = write_corpus_tsv(root / "mixed.tsv", decorated(synthetic_documents(8, seed=17)))
    rows = decorated(synthetic_documents(3, seed=29)) + [("unseen", "zzz Qqq 99", Label.NAG)]
    return root, train, write_corpus_tsv(root / "test.tsv", rows)


@settings(max_examples=60, deadline=None)
@given(
    lexical=st.lists(st.sampled_from(LEXICAL_BLOCKS), min_size=1, unique=True),
    w2v=st.booleans(),
    min_df=st.sampled_from([1, 2]),
    switch=st.sampled_from(CLEAN_SWITCHES),
    on=st.booleans(),
    spell_correct=st.booleans(),
)
def test_train_save_load_predict_agree(corpora, lexical, w2v, min_df, switch, on,
                                       spell_correct):
    """``train`` and the library write the same bytes; the loaded model
    predicts what the in-memory one does, and one document at a time
    what the batch does."""
    root, train_path, test_path = corpora
    _corpus, config, _files = write_resource_run(
        root, "+".join(lexical + ["W2V"] * w2v), spell_correct, min_df,
        extra=[f"{switch} = {str(on).lower()}"],
    )
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
