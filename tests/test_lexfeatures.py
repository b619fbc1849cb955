import gc
import hashlib
import math
import re
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from aggdetect import lexfeatures

from aggdetect.corpus_io import Document
from aggdetect.errors import DataError, ResourceError
from aggdetect.lexfeatures import (
    BuiltinSentimentProvider,
    CategoryLexicon,
    EmbeddingTable,
    RESOURCE_FILES,
    Resources,
    SidecarSentimentProvider,
    WeightedLexicon,
    builtin_sentence_sentiment,
    embed_average,
    gender_features,
    liwc_features,
    load_category_lexicon,
    load_embeddings,
    load_sentiment_sidecar,
    load_weighted_lexicon,
    load_word_set,
    sentiment_features,
    split_sentences,
)

from helpers import write_embeddings, write_lines


def load_file(key, path):
    """Resource ``key`` read from ``path`` as a model reads it."""
    return Resources().load(key, str(path))


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestEmbeddings:
    def test_load(self, tmp_path):
        path = write_embeddings(tmp_path / "e.vec", {"a": [1, 2, 3], "b": [0, 0, 1]})
        table = load_file("embedding", path)
        assert len(table) == 2
        assert table.dimension == 3

    def test_arity_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "e.vec"
        path.write_text("2 3\na 1 2 3\nb 1 2\n", encoding="utf-8")
        with pytest.raises(ResourceError, match="line 3"):
            load_file("embedding", path)

    def test_duplicate_word(self, tmp_path):
        path = tmp_path / "e.vec"
        path.write_text("2 2\na 1 2\na 3 4\n", encoding="utf-8")
        with pytest.raises(ResourceError, match="duplicate"):
            load_file("embedding", path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "e.vec"
        path.write_text("not a header\n", encoding="utf-8")
        with pytest.raises(ResourceError, match="header"):
            load_file("embedding", path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "e.vec"
        path.write_text("3 2\na 1 2\n", encoding="utf-8")
        with pytest.raises(ResourceError, match="declares 3"):
            load_file("embedding", path)


    @pytest.mark.parametrize("value", ["nan", "-inf", "inf", "1e400", "NaN"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "e.vec"
        path.write_text(f"3 2\nb 0 1\n\na {value} 1\nc 1 2\n", encoding="utf-8")
        with pytest.raises(ResourceError, match="non-finite value at line 4"):
            load_file("embedding", path)

    def test_rows_fill_one_matrix(self, tmp_path):
        path = write_embeddings(tmp_path / "e.vec", {"a": [1, 2, 3], "b": [0, 0, 1]})
        with patch.object(lexfeatures, "_EMBEDDING_CHUNK", 1):  # one line per parse
            table = load_file("embedding", path)
        matrix = table.vectors["a"].base
        assert matrix.shape == (2, 3) and table.vectors["b"].base is matrix
        assert matrix.tolist() == [[1.0, 2.0, 3.0], [0.0, 0.0, 1.0]]


# Rows with a signed zero, subnormals and values near +-1e300.
_ROWS = {"neg0": [-0.0, 5e-324, 1e300], "tiny": [-5e-324, 2.5e-310, -1e300],
         "big": [9.99e299, -0.0, 1.5], "zero": [0.0, 0.0, 0.0]}


class TestEmbeddingTable:
    def test_loaded_rows_are_read_only_views_of_one_matrix(self, tmp_path):
        path = write_embeddings(tmp_path / "e.vec", _ROWS)
        with patch.object(lexfeatures, "_EMBEDDING_CHUNK", 1):  # one line per parse
            table = load_file("embedding", path)
        assert table.matrix.shape == (4, 3) and not table.matrix.flags.writeable
        assert table.index == {word: row for row, word in enumerate(_ROWS)}
        assert list(table.vectors) == list(_ROWS)
        for word, row in table.index.items():
            vector = table.vectors[word]
            assert vector.base is table.matrix and not vector.flags.writeable
            assert vector.tobytes() == table.matrix[row].tobytes() == np.array(_ROWS[word]).tobytes()

    def test_hand_built_table(self):
        rows = {word: np.array(values) for word, values in _ROWS.items()}
        table = EmbeddingTable(rows, 3)
        assert table.dimension == 3 and len(table) == 4 and "big" in table and "x" not in table
        assert table.index == {word: row for row, word in enumerate(_ROWS)}
        assert table.matrix.tobytes() == np.array(list(_ROWS.values())).tobytes()
        assert not table.matrix.flags.writeable
        assert EmbeddingTable({}, 5).matrix.shape == (0, 5)

    def test_hand_built_and_loaded_tables_average_alike(self, tmp_path):
        loaded = load_file("embedding", write_embeddings(tmp_path / "e.vec", _ROWS))
        built = EmbeddingTable({word: np.array(values) for word, values in _ROWS.items()}, 3)
        for tokens in (["neg0"], ["big", "x", "tiny", "big"], ["zero", "neg0", "tiny"], ["x"]):
            (left, left_cov), (right, right_cov) = (embed_average(tokens, loaded),
                                                    embed_average(tokens, built))
            assert left.tobytes() == right.tobytes() and left_cov == right_cov

    def test_cold_load_peak_is_below_a_table_of_row_views(self, tmp_path):
        """The tracemalloc peak of a cold load is at most what a loader
        that kept a dict of row views held once it was done: the decoded
        text, the matrix, the words and a view per row. The parse runs in
        small chunks, so that its temporaries do not set the peak."""
        rng = np.random.default_rng(3)
        rows = {f"w{i}": rng.standard_normal(100).round(4).tolist() for i in range(2000)}
        path = write_embeddings(tmp_path / "cold.vec", rows)
        del rows
        gc.collect()
        with patch.object(lexfeatures, "_EMBEDDING_CHUNK", 1 << 12):
            tracemalloc.start()
            try:
                table = load_file("embedding", path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(table) == 2000
        del table
        gc.collect()
        tracemalloc.start()
        try:
            text = path.read_text(encoding="utf-8")
            matrix = np.empty((2000, 100))
            words = dict.fromkeys(line.partition(" ")[0] for line in text.splitlines()[1:])
            views = dict(zip(words, matrix))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(views) == 2000
        assert peak <= held


def reference_load_embeddings(path):
    """The per-value loader that load_embeddings' chunked numpy parse
    replaced."""
    with path.open(encoding="utf-8") as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise ResourceError(f"{path}: malformed embedding header (expected 'V d')")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ResourceError(f"{path}: malformed embedding header (expected 'V d')") from None
        if count < 0 or dim < 1:
            raise ResourceError(f"{path}: bad embedding header values {count} {dim}")
        vectors = {}
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise ResourceError(
                    f"{path}: row arity mismatch at line {lineno}: expected "
                    f"{dim + 1} fields, got {len(parts)}"
                )
            word = parts[0]
            if word in vectors:
                raise ResourceError(f"{path}: duplicate word {word!r} at line {lineno}")
            try:
                vectors[word] = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError:
                raise ResourceError(f"{path}: non-numeric value at line {lineno}") from None
    if len(vectors) != count:
        raise ResourceError(
            f"{path}: header declares {count} vectors but file has {len(vectors)}"
        )
    return EmbeddingTable(vectors=vectors, dimension=dim)


# words hold no space and no line break; values are finite, subnormals and
# extremes included, written as repr() or with four decimals
_WORDS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters=" \n\r"),
    min_size=1, max_size=6,
)
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-3, 3).map("{:.4f}".format),
    st.sampled_from(["5e-324", "-1e-310", "1e300", "-0.0", "0", "+2", ".5", "7."]),
)
_FAULTS = st.sampled_from([None, "arity_short", "arity_long", "duplicate", "count",
                           "non_numeric"])


@st.composite
def embedding_files(draw):
    """The text of a table, well formed or with one fault, with blank and
    whitespace-only lines and a mix of LF and CRLF endings."""
    dim = draw(st.integers(1, 4))
    words = draw(st.lists(_WORDS, unique=True, max_size=8))
    rows = [[w] + draw(st.lists(_VALUES, min_size=dim, max_size=dim)) for w in words]
    count = len(rows)
    fault = draw(_FAULTS)
    if rows and fault is not None:
        k = draw(st.integers(0, len(rows) - 1))
        if fault == "arity_short":
            rows[k] = rows[k][:-1]
        elif fault == "arity_long":
            rows[k] = rows[k] + ["1"]
        elif fault == "duplicate":
            rows.insert(k + 1, [rows[k][0]] + rows[k][1:])
            count += 1
        elif fault == "count":
            count += draw(st.sampled_from([-1, 1]))
        else:
            rows[k][draw(st.integers(1, dim))] = draw(st.sampled_from(["x", "1.2.3", "", "--1"]))
    lines = [f"{count} {dim}"] + [" ".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(load, path):
    try:
        table = load(path)
    except ResourceError as exc:
        return "error", str(exc)
    return "table", table.dimension, [(w, v.dtype, v.shape, v.tobytes())
                                      for w, v in table.vectors.items()]


@given(embedding_files(), st.sampled_from([1, 64, 1 << 17]))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_embeddings_matches_the_per_value_loader(tmp_path, text, chunk):
    """The same table bit for bit, or the same error and line, whatever
    the chunk size."""
    path = tmp_path / "e.vec"
    path.write_bytes(text.encode("utf-8"))
    with patch.object(lexfeatures, "_EMBEDDING_CHUNK", chunk):
        parse = lambda path: load_embeddings(path.read_bytes().decode("utf-8"), path)
        assert _outcome(parse, path) == _outcome(reference_load_embeddings, path)


class TestEmbedAverage:
    def test_single_hit(self):
        table = EmbeddingTable({"a": np.array([1.0, 2.0, 3.0])}, 3)
        vec, coverage = embed_average(["a"], table)
        assert vec.tolist() == [1.0, 2.0, 3.0]
        assert coverage == 1.0

    def test_oov_skipped(self):
        table = EmbeddingTable({"a": np.array([2.0, 0.0, 0.0])}, 3)
        vec, coverage = embed_average(["a", "zz"], table)
        assert vec.tolist() == [2.0, 0.0, 0.0]
        assert coverage == 0.5

    def test_mean(self):
        table = EmbeddingTable({"a": np.array([1.0, 0.0]), "b": np.array([3.0, 2.0])}, 2)
        vec, coverage = embed_average(["a", "b"], table)
        assert vec.tolist() == [2.0, 1.0]
        assert coverage == 1.0

    def test_no_hits(self):
        table = EmbeddingTable({"a": np.array([1.0])}, 1)
        vec, coverage = embed_average(["x", "y"], table)
        assert vec.tolist() == [0.0]
        assert coverage == 0.0

    def test_empty_tokens(self):
        table = EmbeddingTable({"a": np.array([1.0])}, 1)
        assert embed_average([], table)[1] == 0.0

    @given(st.permutations(["a", "b", "c"]))
    def test_permutation_invariant(self, tokens):
        table = EmbeddingTable(
            {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 2.0]), "c": np.array([5.0, 5.0])}, 2
        )
        baseline, _cov = embed_average(["a", "b", "c"], table)
        vec, _cov = embed_average(list(tokens), table)
        assert np.allclose(vec, baseline)

    @given(st.data())
    @settings(max_examples=300)
    def test_equals_the_mean_of_the_stacked_hits_bit_for_bit(self, data):
        """The sum runs in token order, as np.mean's does, over repeated
        and out-of-table tokens, signed zeros, subnormals and values near
        +-1e300."""
        dim = data.draw(st.integers(1, 6))
        values = st.one_of(
            st.floats(min_value=-1e301, max_value=1e301),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 9.99e299]),
        )
        rows = data.draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                                  min_size=1, max_size=8))
        vectors = {f"w{i}": np.array(row) for i, row in enumerate(rows)}
        hits = data.draw(st.lists(st.sampled_from(list(vectors)), min_size=1, max_size=60))
        misses = data.draw(st.lists(st.sampled_from(["zz", "", "W0"]), max_size=20))
        tokens = data.draw(st.permutations(hits + misses))
        vec, coverage = embed_average(tokens, EmbeddingTable(vectors, dim))
        reference = np.mean(np.stack([vectors[t] for t in tokens if t in vectors]), axis=0)
        assert vec.dtype == np.float64 and vec.tobytes() == reference.tobytes()
        assert coverage == len(hits) / len(tokens)

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_scale_equivariant(self, c):
        base = {"a": np.array([1.0, 2.0]), "b": np.array([-1.0, 0.5])}
        scaled = EmbeddingTable({w: c * v for w, v in base.items()}, 2)
        plain = EmbeddingTable(base, 2)
        v1, _ = embed_average(["a", "b"], plain)
        v2, _ = embed_average(["a", "b"], scaled)
        assert np.allclose(v2, c * v1, atol=1e-12)


class TestSentimentFeatures:
    def test_single_sentence(self):
        out = sentiment_features([np.array([0, 0, 1, 0, 0.0])])
        assert out[:5].tolist() == [0, 0, 1, 0, 0]
        assert out[5:].tolist() == [0, 0, 0, 0, 0]

    def test_population_std(self):
        sents = [np.array([1, 0, 0, 0, 0.0]), np.array([0, 0, 0, 0, 1.0])]
        out = sentiment_features(sents)
        assert out[:5].tolist() == [0.5, 0, 0, 0, 0.5]
        assert out[5:].tolist() == [0.5, 0, 0, 0, 0.5]

    def test_empty_default(self):
        out = sentiment_features([])
        assert out.tolist() == [0.2] * 5 + [0.0] * 5

    @given(
        st.lists(
            st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5).map(
                lambda v: np.array(v) / np.sum(v)
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_mean_is_distribution(self, sentences):
        out = sentiment_features(sentences)
        assert all(0.0 <= v <= 1.0 for v in out[:5])
        assert math.isclose(float(out[:5].sum()), 1.0, abs_tol=1e-9)


class TestBuiltinSentiment:
    POS = {"good", "great"}
    NEG = {"bad", "awful"}

    def test_neutral(self):
        out = builtin_sentence_sentiment([], self.POS, self.NEG)
        assert out.tolist() == [0, 0, 1, 0, 0]

    def test_one_positive(self):
        out = builtin_sentence_sentiment(["good"], self.POS, self.NEG)
        assert np.allclose(out, [0, 0, 0.5, 0.35, 0.15])

    def test_balanced(self):
        out = builtin_sentence_sentiment(["good", "bad"], self.POS, self.NEG)
        assert np.allclose(out, [0.1, 0.7 / 3, 1 / 3, 0.7 / 3, 0.1])
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.sampled_from(["good", "bad", "meh", "great", "awful"]), max_size=20))
    def test_always_a_distribution(self, tokens):
        out = builtin_sentence_sentiment(tokens, self.POS, self.NEG)
        assert (out >= 0).all()
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_split_is_configurable(self):
        out = builtin_sentence_sentiment(["good"], self.POS, self.NEG, intensity_split=0.5)
        assert np.allclose(out, [0, 0, 0.5, 0.25, 0.25])


class TestSentenceSplitting:
    def test_split_on_terminators(self):
        assert split_sentences("one. two! three?") == ["one", "two", "three"]

    def test_newlines_split(self):
        assert split_sentences("a\nb") == ["a", "b"]

    def test_empty_segments_dropped(self):
        assert split_sentences("..!?") == []


class TestSidecar:
    def test_round_trip(self, tmp_path):
        path = write_lines(
            tmp_path / "side.tsv",
            ["d1\t0\t0 0 1 0 0", "d1\t1\t0.5 0.5 0 0 0"],
        )
        table = load_sentiment_sidecar(path)
        provider = SidecarSentimentProvider(table)
        doc = Document(id="d1", text="hello. bye.")
        out = provider.document_features(doc)
        assert out[:5].tolist() == [0.25, 0.25, 0.5, 0, 0]

    def test_missing_row_is_an_error(self, tmp_path):
        path = write_lines(tmp_path / "side.tsv", ["d1\t0\t0 0 1 0 0"])
        provider = SidecarSentimentProvider(load_sentiment_sidecar(path))
        with pytest.raises(DataError, match="sentence 1"):
            provider.document_features(Document(id="d1", text="a. b."))

    def test_invalid_distribution_rejected(self, tmp_path):
        path = write_lines(tmp_path / "side.tsv", ["d1\t0\t0.9 0.9 0 0 0"])
        with pytest.raises(ResourceError, match="summing to 1"):
            load_sentiment_sidecar(path)


class TestLiwc:
    def test_category_counts(self):
        lex = CategoryLexicon([("self", ["i", "me", "my"]), ("negemo", ["hate", "hat*"])])
        out = liwc_features(["i", "hate", "this"], lex)
        assert np.allclose(out, [1 / 3, 1 / 3])

    def test_empty_tokens(self):
        lex = CategoryLexicon([("self", ["i"])])
        assert liwc_features([], lex).tolist() == [0.0]

    def test_token_counts_once_per_category(self):
        lex = CategoryLexicon([("negemo", ["hate", "hat*"])])
        assert liwc_features(["hate"], lex).tolist() == [1.0]

    def test_prefix_wildcard(self):
        lex = CategoryLexicon([("ador", ["ador*"])])
        assert liwc_features(["adorable", "adored", "bored"], lex)[0] == pytest.approx(2 / 3)

    def test_file_order_preserved(self):
        lex = load_category_lexicon("zeta\tz*\nalpha\ta*\n", Path("liwc.tsv"))
        assert [name for name, _p in lex.categories] == ["zeta", "alpha"]

    @given(st.lists(st.sampled_from(["i", "hate", "x", "hatred"]), max_size=12))
    def test_values_in_unit_interval_and_duplication_invariant(self, tokens):
        lex = CategoryLexicon([("self", ["i"]), ("negemo", ["hate", "hat*"])])
        out = liwc_features(tokens, lex)
        assert ((out >= 0) & (out <= 1)).all()
        assert np.allclose(liwc_features(tokens + tokens, lex), out)


class TestGender:
    def test_no_matches_neutral(self):
        lex = WeightedLexicon(weights={}, intercept=0.0)
        out = gender_features(["x"], lex)
        assert out.tolist() == [0.5, 0.0]  # exact 0.5 resolves to 0

    def test_ln3_gives_three_quarters(self):
        lex = WeightedLexicon(weights={"she": math.log(3)}, intercept=0.0)
        out = gender_features(["she"], lex)
        assert out[0] == pytest.approx(0.75)
        assert out[1] == 1.0

    def test_saturated_negative(self):
        lex = WeightedLexicon(weights={}, intercept=-1000.0)
        out = gender_features([], lex)
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == 0.0

    def test_counts_multiply_weights(self):
        lex = WeightedLexicon(weights={"a": 0.5}, intercept=0.0)
        single = gender_features(["a"], lex)[0]
        double = gender_features(["a", "a"], lex)[0]
        assert double > single

    @given(st.floats(min_value=0.1, max_value=5.0))
    def test_probability_increases_with_weight(self, delta):
        base = WeightedLexicon(weights={"w": 1.0}, intercept=-0.3)
        bumped = WeightedLexicon(weights={"w": 1.0 + delta}, intercept=-0.3)
        assert gender_features(["w"], bumped)[0] > gender_features(["w"], base)[0]

    def test_load_weighted_lexicon(self):
        text = "_intercept\t-0.06\nshe\t2.5\nhe\t-1.0\n"
        lex = load_weighted_lexicon(text, Path("g.tsv"))
        assert lex.intercept == -0.06
        assert lex.weights == {"she": 2.5, "he": -1.0}


class TestWordSets:
    def test_load_skips_comments(self):
        text = "# header\ngood\n\nGreat\n"
        assert load_word_set(text, Path("pos.txt")) == {"good", "great"}


class TestBuiltinProvider:
    def test_document_features(self):
        provider = BuiltinSentimentProvider({"good"}, {"bad"})
        doc = Document(id="d", text="good day. bad day.")
        out = provider.document_features(doc)
        # sentence 1: p=1 -> (0,0,.5,.35,.15); sentence 2: q=1 mirrored
        assert out[:5] == pytest.approx([0.075, 0.175, 0.5, 0.175, 0.075])


class TestResourcesLoad:
    def test_records_provenance_and_fills_the_block_field(self, tmp_path):
        path = str(write_embeddings(tmp_path / "e.vec", {"a": [1.0, 2.0]}))
        resources = Resources()
        table = resources.load("embedding", path, sha256_of(path))
        assert resources.embeddings is table
        assert table.dimension == 2
        assert resources.provenance == {"embedding": (path, sha256_of(path))}

    def test_checksum_is_checked_before_parsing(self, tmp_path):
        path = tmp_path / "e.vec"
        path.write_text("not an embedding table\n", encoding="utf-8")
        resources = Resources()
        message = re.escape(f"checksum mismatch for embedding table {path}")
        with pytest.raises(ResourceError, match=message):
            resources.load("embedding", str(path), "0" * 64)
        assert resources.provenance == {}
        with pytest.raises(ResourceError, match="malformed embedding header"):
            resources.load("embedding", str(path))

    # Per resource key, two texts its loader accepts.
    TEXTS = {
        "embedding": ("1 2\na 1 2\n", "1 2\nb 3 4\n"),
        "sentiment_pos": ("good\n", "bad\n"),
        "sentiment_neg": ("bad\n", "good\n"),
        "liwc": ("anger\trage*\n", "calm\tcalm*\n"),
        "gender": ("she\t1.0\n", "he\t-1.0\n"),
        "spell_dict": ("dog\t3\n", "cat\t2\n"),
    }

    @pytest.mark.parametrize("key", RESOURCE_FILES)
    def test_parses_the_bytes_it_hashed(self, tmp_path, monkeypatch, key):
        """A file rewritten between its hash and its parse: the load
        returns what the recorded hash covers, never the new text."""
        old, new = self.TEXTS[key]
        (tmp_path / "old").write_text(old, encoding="utf-8")
        expected = _content(load_file(key, tmp_path / "old"))  # released: parsed below
        path = tmp_path / "resource"
        path.write_text(old, encoding="utf-8")

        def hash_then_rewrite(data):
            digest = hashlib.sha256(data)
            path.write_text(new, encoding="utf-8")
            return digest

        monkeypatch.setattr(lexfeatures, "hashlib", SimpleNamespace(sha256=hash_then_rewrite))
        resources = Resources()
        loaded = resources.load(key, str(path))
        assert _content(loaded) == expected
        assert resources.provenance[key] == (str(path), hashlib.sha256(old.encode()).hexdigest())
        assert path.read_text(encoding="utf-8") == new


class TestParsedOnce:
    """Resources.load parses a file's bytes once while the parse is alive."""

    # Per resource key, two texts its loader accepts, none of them used by
    # another test.
    TEXTS = {
        "embedding": ("1 2\nonce 1 2\n", "1 2\nonce 3 4\n"),
        "sentiment_pos": ("once\n", "twice\n"),
        "sentiment_neg": ("twice\n", "once\n"),
        "liwc": ("once\tonce*\n", "twice\ttwice*\n"),
        "gender": ("once\t1.0\n", "once\t-1.0\n"),
        "spell_dict": ("once\t3\n", "once\t2\n"),
    }
    # Per resource key whose loader can refuse a text, one it refuses.
    MALFORMED = {
        "embedding": "1 2\nonce 1\n",
        "liwc": "once\n",
        "gender": "once\tx\n",
        "spell_dict": "once\t0\n",
    }

    @pytest.fixture
    def calls(self, monkeypatch):
        """Each loader call's resource text, in order."""
        calls = []
        for name in {loader for _what, loader in RESOURCE_FILES.values()}:

            def counted(text, path, loader=getattr(lexfeatures, name)):
                calls.append(text)
                return loader(text, path)

            monkeypatch.setattr(lexfeatures, name, counted)
        gc.collect()
        return calls

    def write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return path

    @pytest.mark.parametrize("key", RESOURCE_FILES)
    def test_same_bytes_give_the_live_object(self, tmp_path, calls, key):
        old, _new = self.TEXTS[key]
        loaded = load_file(key, self.write(tmp_path / "first", old))
        second = self.write(tmp_path / "second", old)
        resources = Resources()
        assert resources.load(key, str(second), sha256_of(second)) is loaded
        assert calls == [old]
        assert resources.provenance == {key: (str(second), sha256_of(second))}

    @pytest.mark.parametrize("key", RESOURCE_FILES)
    def test_parsed_again_once_released(self, tmp_path, calls, key):
        old, _new = self.TEXTS[key]
        path = self.write(tmp_path / "resource", old)
        released = weakref.ref(load_file(key, path))
        gc.collect()
        assert released() is None
        load_file(key, path)
        assert calls == [old, old]

    @pytest.mark.parametrize("key", RESOURCE_FILES)
    def test_changed_bytes_give_a_new_object(self, tmp_path, calls, key):
        old, new = self.TEXTS[key]
        path = self.write(tmp_path / "resource", old)
        before = load_file(key, path)
        after = load_file(key, self.write(path, new))
        assert after is not before and _content(after) != _content(before)
        assert calls == [old, new]

    @pytest.mark.parametrize("key", RESOURCE_FILES)
    def test_checksum_is_checked_before_the_lookup(self, tmp_path, monkeypatch, calls, key):
        old, _new = self.TEXTS[key]
        path = self.write(tmp_path / "resource", old)
        loaded = load_file(key, path)  # alive, so a lookup would find it

        def lookup(_key):
            raise AssertionError("looked up a file with the wrong checksum")

        monkeypatch.setattr(lexfeatures, "_PARSED", SimpleNamespace(get=lookup))
        resources = Resources()
        with pytest.raises(ResourceError, match="checksum mismatch"):
            resources.load(key, str(path), "0" * 64)
        assert resources.provenance == {} and calls == [old]
        del loaded

    @pytest.mark.parametrize("key", MALFORMED)
    def test_malformed_file_raises_on_every_load(self, tmp_path, calls, key):
        path = self.write(tmp_path / "resource", self.MALFORMED[key])
        for _ in range(2):
            with pytest.raises(ResourceError, match=re.escape(str(path))):
                load_file(key, path)
        assert calls == [self.MALFORMED[key]] * 2

    def test_one_word_list_as_both_sentiment_sides(self, tmp_path, calls):
        path = write_lines(tmp_path / "words.txt", ["# words", "Good", "fine"])
        resources = Resources()
        pos = resources.load("sentiment_pos", str(path))
        neg = resources.load("sentiment_neg", str(path))
        assert pos is neg and pos == {"good", "fine"}
        assert len(calls) == 1
        assert resources.provenance == {"sentiment_pos": (str(path), sha256_of(path)),
                                        "sentiment_neg": (str(path), sha256_of(path))}

    def test_embedding_rows_are_read_only(self, tmp_path):
        path = write_embeddings(tmp_path / "e.vec", {"ro": [1.0, 2.0], "rw": [3.0, 4.0]})
        table = load_file("embedding", path)
        for word in ("ro", "rw"):
            with pytest.raises(ValueError, match="read-only"):
                table.vectors[word][0] = 1.0
        assert table.vectors["ro"].tolist() == [1.0, 2.0]


def _content(loaded):
    """What a loaded resource holds, in a form ``==`` compares that does
    not keep the resource alive."""
    if isinstance(loaded, EmbeddingTable):
        return {word: vector.tolist() for word, vector in loaded.vectors.items()}
    if isinstance(loaded, CategoryLexicon):
        return loaded.categories
    if isinstance(loaded, WeightedLexicon):
        return loaded.weights, loaded.intercept
    if isinstance(loaded, set):
        return set(loaded)
    return loaded.entries
