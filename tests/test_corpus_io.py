import pytest

from aggdetect.corpus_io import (
    Corpus,
    Document,
    Label,
    escape_field,
    load_corpus,
    load_predictions,
    parse_label,
    unescape_field,
    write_predictions,
)
from aggdetect.errors import DataError

from helpers import write_corpus

from hypothesis import given, strategies as st


def test_parse_label_variants():
    assert parse_label("OAG") is Label.OAG
    assert parse_label("nag") is Label.NAG
    assert parse_label("Cag") is Label.CAG


def test_parse_label_rejects_unknown():
    with pytest.raises(DataError, match="aggressive"):
        parse_label("aggressive")


def test_label_order_is_fixed():
    assert Label.NAG < Label.CAG < Label.OAG


def test_load_simple_corpus(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("fb1\thello world\tNAG\n", encoding="utf-8")
    corpus = load_corpus(path)
    assert len(corpus) == 1
    assert corpus.documents[0] == Document(id="fb1", text="hello world", gold=Label.NAG)


def test_unknown_label_reports_line(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("fb2\ttext\tXYZ\n", encoding="utf-8")
    with pytest.raises(DataError, match="'XYZ' at line 1"):
        load_corpus(path)


def test_duplicate_id_names_offender(tmp_path):
    path = tmp_path / "c.tsv"
    rows = [("a", "t1"), ("b", "t2"), ("c", "t3"), ("a", "t4")]
    path.write_text("".join(f"{i}\t{t}\tNAG\n" for i, t in rows), encoding="utf-8")
    with pytest.raises(DataError, match="'a'"):
        load_corpus(path)


def test_missing_file():
    with pytest.raises(DataError, match="not found"):
        load_corpus("/nonexistent/corpus.tsv")


def test_malformed_record_reports_line(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("a\ttext\tNAG\nb\tonly-two-fields\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        load_corpus(path)


def test_unlabeled_corpus(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("a\tsome text\nb\t\n", encoding="utf-8")
    corpus = load_corpus(path, has_labels=False)
    assert [d.gold for d in corpus] == [None, None]
    assert corpus.documents[1].text == ""  # empty text is legal


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("a\tx\tNAG\n\n\nb\ty\tOAG\n", encoding="utf-8")
    assert len(load_corpus(path)) == 2


def test_csv_format(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text('a,"hello, there",NAG\nb,plain,OAG\n', encoding="utf-8")
    corpus = load_corpus(path, format="csv")
    assert corpus.documents[0].text == "hello, there"
    assert corpus.documents[1].gold is Label.OAG


def test_escaping_round_trips_tabs_and_newlines(tmp_path):
    docs = [Document(id="a", text="line1\nline2\twith tab \\ and slash", gold=Label.CAG)]
    path = tmp_path / "c.tsv"
    write_corpus(Corpus(docs), path)
    loaded = load_corpus(path)
    assert loaded.documents[0].text == docs[0].text


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
def test_escape_unescape_is_identity(value):
    escaped = escape_field(value)
    assert "\t" not in escaped and "\n" not in escaped and "\r" not in escaped
    assert unescape_field(escaped) == value


@pytest.mark.parametrize("field, value", [
    ("a\\tb\\nc\\rd", "a\tb\nc\rd"),
    ("\\x", "\\x"),  # not an escape: kept
    ("end\\", "end\\"),  # a trailing lone backslash: kept
    ("\\\\t", "\\t"),  # an escaped backslash, then a literal t
    ("\\\\\\t", "\\\t"),
])
def test_unescape_field(field, value):
    assert unescape_field(field) == value


def test_write_predictions_round_trip(tmp_path):
    corpus = Corpus([Document("a", "x"), Document("b", "y")])
    out = tmp_path / "pred.tsv"
    write_predictions(corpus, [Label.NAG, Label.OAG], out)
    assert out.read_text(encoding="utf-8") == "a\tNAG\nb\tOAG\n"
    assert load_predictions(out) == {"a": Label.NAG, "b": Label.OAG}


def test_write_predictions_length_mismatch(tmp_path):
    corpus = Corpus([Document("a", "x"), Document("b", "y")])
    with pytest.raises(DataError, match="does not match"):
        write_predictions(corpus, [Label.NAG, Label.OAG, Label.CAG], tmp_path / "p.tsv")


def test_write_predictions_empty(tmp_path):
    out = tmp_path / "pred.tsv"
    write_predictions(Corpus([]), [], out)
    assert out.read_text(encoding="utf-8") == ""


def test_gold_projection_round_trip(tmp_path):
    """Loading then writing gold labels reproduces the (id, label) rows."""
    path = tmp_path / "c.tsv"
    rows = [("a", "one", "NAG"), ("b", "two", "OAG"), ("c", "three", "CAG")]
    path.write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")
    corpus = load_corpus(path)
    out = tmp_path / "pred.tsv"
    write_predictions(corpus, corpus.gold_labels(), out)
    expected = "".join(f"{i}\t{lab}\n" for i, _t, lab in rows)
    assert out.read_text(encoding="utf-8") == expected


@given(
    st.lists(
        st.tuples(
            st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30),
            st.sampled_from([Label.NAG, Label.CAG, Label.OAG]),
        ),
        max_size=20,
    )
)
def test_corpus_round_trip_any_text(tmp_path_factory, rows):
    """Document count equals non-empty record count and text survives."""
    docs = [Document(id=f"d{i}", text=text, gold=label) for i, (text, label) in enumerate(rows)]
    path = tmp_path_factory.mktemp("rt") / "c.tsv"
    write_corpus(Corpus(docs), path)
    loaded = load_corpus(path)
    assert len(loaded) == len(docs)
    assert [d.text for d in loaded] == [d.text for d in docs]
    assert [d.gold for d in loaded] == [d.gold for d in docs]
