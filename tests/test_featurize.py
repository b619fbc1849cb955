import itertools
import math
import sys
import unicodedata
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggdetect import featurize
from aggdetect.corpus_io import Document
from aggdetect.errors import DataError, UsageError
from aggdetect.featurize import (
    DENSE_KINDS,
    FeatureBlockSpec,
    FeaturePipeline,
    Vocabulary,
    _segment_norms,
    skip_grams,
    tokenize,
    word_ngrams,
)
from aggdetect.kernels import SparseMatrix, SparseVector
from aggdetect.lexfeatures import (
    EmbeddingTable,
    Resources,
    WeightedLexicon,
    embed_average,
    gender_features,
)

from helpers import block_row, char_ngrams, fit_vocabulary, sparse, terms_and_dfs


def tfidf_row(terms, vocab):
    return block_row("U", terms, vocab)


def binary_row(terms, vocab):
    return block_row("BU", terms, vocab)


def brute_force_skip_grams(tokens, k, n):
    """Independent oracle: enumerate position subsequences directly."""
    out = []
    for positions in itertools.combinations(range(len(tokens)), n):
        if all(b - a <= k + 1 for a, b in zip(positions, positions[1:])):
            out.append(" ".join(tokens[i] for i in positions))
    return out


def reference_tokenize(text):
    """tokenize without the alphanumeric fast path or the per-character
    memo: every chunk goes through the peeling loop."""

    def is_punct(ch):
        return unicodedata.category(ch)[0] in ("P", "S")

    def runs(part):
        out = []
        for ch in part:
            if out and out[-1][0] == ch:
                out[-1] += ch
            else:
                out.append(ch)
        return out

    tokens = []
    for chunk in text.split():
        if all(is_punct(ch) for ch in chunk):
            tokens.append(chunk)
            continue
        start, end = 0, len(chunk)
        while start < end and is_punct(chunk[start]):
            start += 1
        while end > start and is_punct(chunk[end - 1]):
            end -= 1
        tokens.extend(runs(chunk[:start]))
        tokens.append(chunk[start:end])
        tokens.extend(runs(chunk[end:]))
    return tokens


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("hello, world!") == ["hello", ",", "world", "!"]

    def test_punctuation_runs_stay_joined(self):
        assert tokenize("wow!!!") == ["wow", "!!!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_emoticon_kept_whole(self):
        assert tokenize("nice :) day") == ["nice", ":)", "day"]

    def test_internal_punctuation_kept(self):
        assert tokenize("don't stop-me") == ["don't", "stop-me"]

    def test_mixed_trailing_runs(self):
        assert tokenize("what?!") == ["what", "?", "!"]

    def test_no_alphanumeric_character_is_punctuation_or_symbol(self):
        """The invariant behind tokenize's fast path for alphanumeric chunks."""
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            if ch.isalnum():
                assert unicodedata.category(ch)[0] not in ("P", "S"), hex(code)

    @given(
        st.text(
            alphabet=st.sampled_from(
                "abcXYZ019 \t\n"  # Latin, digits, whitespace
                "अआकखगमरहािीुे्ंँ।॥०५"  # Devanagari letters, signs, danda, digits
                "😀😡👍🏽"  # emoji and a skin-tone modifier
                "!?.,:;'-_()@#$%&*+=<>/\\|~^`\"₹©®™…—"  # punctuation and symbols
            )
            | st.characters(),
            max_size=60,
        )
    )
    @settings(max_examples=300)
    def test_matches_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)


class TestNgrams:
    def test_word_bigrams(self):
        assert word_ngrams(["a", "b", "c"], 2) == ["a b", "b c"]

    def test_word_unigrams_identity(self):
        assert word_ngrams(["a", "b", "c"], 1) == ["a", "b", "c"]

    def test_too_few_tokens(self):
        assert word_ngrams(["a", "b"], 3) == []

    @given(st.lists(st.text(alphabet="xy z", max_size=3), max_size=12))
    def test_word_unigrams_equal_the_joined_windows(self, tokens):
        unigrams = word_ngrams(tokens, 1)
        assert unigrams == [" ".join(tokens[i : i + 1]) for i in range(len(tokens))]
        assert unigrams is not tokens

    @given(st.lists(st.sampled_from("xyz"), max_size=12), st.sampled_from([1, 2, 3]))
    def test_word_ngram_count(self, tokens, n):
        assert len(word_ngrams(tokens, n)) == max(0, len(tokens) - n + 1)

    def test_char_trigrams(self):
        assert char_ngrams("abcd", 3) == ["abc", "bcd"]

    def test_char_ngrams_include_spaces(self):
        assert char_ngrams("ab cd", 3) == ["ab ", "b c", " cd"]

    def test_char_ngrams_short_text(self):
        assert char_ngrams("ab", 3) == []


class TestSkipGrams:
    def test_spec_example(self):
        assert skip_grams(["a", "b", "c", "d"], k=2, n=2) == [
            "a b", "a c", "a d", "b c", "b d", "c d",
        ]

    def test_k0_reduces_to_bigrams(self):
        assert skip_grams(["a", "b"], k=0, n=2) == ["a b"]

    def test_single_token(self):
        assert skip_grams(["a"], k=2, n=2) == []

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("length", range(9))
    def test_matches_brute_force_all_lengths(self, length, n):
        tokens = [f"t{i}" for i in range(length)]
        assert skip_grams(tokens, 2, n) == brute_force_skip_grams(tokens, 2, n)

    @given(
        st.lists(st.sampled_from(["a", "b", "c"]), max_size=8),
        st.integers(0, 3),
        st.sampled_from([2, 3]),
    )
    def test_matches_brute_force_random(self, tokens, k, n):
        assert skip_grams(tokens, k, n) == brute_force_skip_grams(tokens, k, n)

    @given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=10))
    def test_k0_equals_word_ngrams(self, tokens):
        assert skip_grams(tokens, 0, 2) == word_ngrams(tokens, 2)
        assert skip_grams(tokens, 0, 3) == word_ngrams(tokens, 3)


class TestVocabulary:
    def test_fit_and_indices(self):
        vocab = fit_vocabulary([["a", "b"], ["a"]], min_df=1)
        assert vocab.terms == ["a", "b"]
        assert vocab.document_frequency.dtype == np.int64
        assert vocab.document_frequency.tolist() == [2, 1]
        assert vocab.n_documents == 2

    def test_min_df_prunes(self):
        vocab = fit_vocabulary([["a", "b"], ["a"]], min_df=2)
        assert vocab.terms == ["a"]
        assert vocab.document_frequency.tolist() == [2]

    def test_empty(self):
        vocab = fit_vocabulary([], min_df=1)
        assert len(vocab) == 0

    def test_indices_lexicographic(self):
        vocab = fit_vocabulary([["zebra", "apple", "mango"]], min_df=1)
        assert vocab.terms == ["apple", "mango", "zebra"]

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 999, 4096])
    def test_idf_equals_one_log_per_term(self, n):
        """Every df in 1..n, each on two terms, in no particular order: the
        idf computed once per distinct df is bit-equal to math.log per term."""
        dfs = np.random.default_rng(n).permutation(np.repeat(np.arange(1, n + 1), 2)).tolist()
        terms = [f"t{i:05d}" for i in range(len(dfs))]
        vocab = Vocabulary(terms=terms, document_frequency=dfs, n_documents=n)
        assert vocab.document_frequency.dtype == np.int64
        assert vocab.document_frequency.tolist() == dfs
        reference = np.array([math.log((1 + n) / (1 + df)) + 1.0 for df in dfs])
        assert vocab.idf.dtype == np.float64
        assert np.array_equal(vocab.idf, reference)
        assert vocab.idf.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("dfs", [[], [1], [1, 2, 3], [[1, 2]]])
    def test_document_frequencies_not_aligned_with_terms_are_refused(self, dfs):
        with pytest.raises(ValueError, match="2 terms but document frequencies"):
            Vocabulary(terms=["a", "b"], document_frequency=dfs, n_documents=3)


def as_dict(indices, values):
    return dict(zip(indices.tolist(), values.tolist()))


class TestSparseVector:
    def test_zero_weights_dropped(self):
        v = SparseVector(4, [0, 2], [1.0, 0.0])
        assert as_dict(*v.to_arrays()) == {0: 1.0}
        assert len(v) == 1

    def test_index_bounds_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseVector(2, [5], [1.0])
        with pytest.raises(ValueError, match="out of range"):
            SparseVector(2, [-1], [1.0])

    def test_indices_sorted_and_typed(self):
        v = sparse(5, {3: 1.0, 1: 2.0})
        assert v.indices.tolist() == [1, 3] and v.values.tolist() == [2.0, 1.0]
        assert v.indices.dtype == np.int64 and v.values.dtype == np.float64
        for unsorted in ([3, 1], [1, 1]):
            with pytest.raises(ValueError, match="strictly increasing"):
                SparseVector(5, unsorted, [1.0, 2.0])

    def test_refuses_float_indices_and_mismatched_lengths(self):
        for floats in ([1.7], np.array([1.0])):
            with pytest.raises(ValueError, match="integers"):
                SparseVector(4, floats, [1.0])
        with pytest.raises(ValueError, match="one length"):
            SparseVector(4, [1, 2], [1.0])
        assert len(SparseVector(4, [], [])) == 0


def dense_tfidf_oracle(doc_terms, all_docs_terms, min_df=1):
    """Independent dense-matrix TF-IDF: counts matrix, smoothed idf,
    row L2 normalization."""
    n_docs = len(all_docs_terms)
    df = {}
    for terms in all_docs_terms:
        for term in set(terms):
            df[term] = df.get(term, 0) + 1
    vocab_terms = sorted(t for t, c in df.items() if c >= min_df)
    row = np.zeros(len(vocab_terms))
    for j, term in enumerate(vocab_terms):
        tf = doc_terms.count(term)
        idf = math.log((1 + n_docs) / (1 + df[term])) + 1.0
        row[j] = tf * idf
    norm = np.linalg.norm(row)
    if norm > 0:
        row = row / norm
    return vocab_terms, row


class TestTfidf:
    def test_single_term_normalizes_to_one(self):
        vocab = fit_vocabulary([["a"], ["a", "b"]], min_df=1)
        assert as_dict(*tfidf_row(["a", "a"], vocab)) == {0: 1.0}

    def test_hand_computed_weights(self):
        vocab = fit_vocabulary([["a"], ["a", "b"]], min_df=1)
        vec = as_dict(*tfidf_row(["a", "b"], vocab))
        idf_b = math.log(3 / 2) + 1.0
        norm = math.sqrt(1.0 + idf_b**2)
        assert vec[0] == pytest.approx(1.0 / norm, abs=1e-12)
        assert vec[1] == pytest.approx(idf_b / norm, abs=1e-12)

    def test_oov_terms_ignored(self):
        vocab = fit_vocabulary([["a"]], min_df=1)
        assert as_dict(*tfidf_row(["zz", "qq"], vocab)) == {}

    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=10),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=100)
    def test_matches_dense_oracle(self, docs):
        vocab = fit_vocabulary(docs, min_df=1)
        for terms in docs:
            indices, values = tfidf_row(terms, vocab)
            oracle_terms, oracle_row = dense_tfidf_oracle(terms, docs)
            assert oracle_terms == vocab.terms
            dense = np.zeros(len(vocab))
            dense[indices] = values
            assert np.abs(dense - oracle_row).max(initial=0.0) <= 1e-9

    @given(st.data())
    def test_norm_summed_sequentially_in_first_occurrence_order(self, data):
        """The squares of each segment are added one at a time in the order
        the terms first occur, as an explicit loop does, whatever other
        segments share the arrays; Python's ``sum`` compensates on 3.12+ and
        is no reference."""
        lengths = data.draw(st.lists(st.integers(0, 12), max_size=5))
        size = sum(lengths)
        idf = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=size, max_size=size)))
        counts = np.array(data.draw(st.lists(st.integers(1, 10**6), min_size=size, max_size=size)),
                          dtype=np.int32)
        scaled = np.array(data.draw(st.lists(st.booleans(), min_size=len(lengths),
                                             max_size=len(lengths))), dtype=bool)
        seg = np.repeat(np.arange(len(lengths)), lengths)
        expected = []
        for k in range(len(lengths)):
            weights = (counts * idf)[seg == k]
            total = 0.0
            for v in weights.tolist():
                total += v * v
            expected.extend((weights / math.sqrt(total) if scaled[k] else weights).tolist())
        values = counts * idf
        norms = _segment_norms(values, seg, len(lengths))
        norms[~scaled] = 1.0
        values /= norms[seg]
        assert values.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=15))
    def test_l2_norm_is_one_when_in_vocab(self, terms):
        vocab = fit_vocabulary([["a", "b", "c"]], min_df=1)
        _indices, values = tfidf_row(terms, vocab)
        assert np.linalg.norm(values) == pytest.approx(1.0, abs=1e-9)


class TestBinaryTransform:
    def test_presence_only(self):
        vocab = fit_vocabulary([["a", "b"]], min_df=1)
        assert as_dict(*binary_row(["a", "a", "b"], vocab)) == {0: 1.0, 1: 1.0}

    def test_repetition_ignored(self):
        vocab = fit_vocabulary([["a"]], min_df=1)
        assert as_dict(*binary_row(["a"] * 100, vocab)) == {0: 1.0}

    def test_all_oov(self):
        vocab = fit_vocabulary([["a"]], min_df=1)
        assert as_dict(*binary_row(["z"], vocab)) == {}


class TestBlockSpecs:
    def test_invalid_word_ngram_n(self):
        with pytest.raises(UsageError):
            FeatureBlockSpec(name="X", kind="word_ngram", params={"n": 4})

    def test_invalid_char_ngram_n(self):
        with pytest.raises(UsageError):
            FeatureBlockSpec(name="X", kind="char_ngram", params={"n": 2})

    def test_skip_gram_requires_k2(self):
        with pytest.raises(UsageError):
            FeatureBlockSpec(name="X", kind="skip_gram", params={"k": 1, "n": 2})

    def test_from_name(self):
        spec = FeatureBlockSpec.from_name("C4", min_df=3)
        assert spec.kind == "char_ngram"
        assert spec.params == {"n": 4, "min_df": 3}


def _docs(*texts):
    return [Document(id=f"d{i}", text=t) for i, t in enumerate(texts)]


class TestPipeline:
    def test_single_block_equals_tfidf(self):
        docs = _docs("a b", "a")
        pipeline = FeaturePipeline([FeatureBlockSpec.from_name("U", min_df=1)]).fit(docs)
        vec = pipeline.transform(docs[0])
        vocab = pipeline.vocabularies["U"]
        assert as_dict(*vec.to_arrays()) == as_dict(*tfidf_row(["a", "b"], vocab))

    def test_second_block_offset(self):
        docs = _docs("ab cd", "ab")
        pipeline = FeaturePipeline(
            [FeatureBlockSpec.from_name("U", min_df=1), FeatureBlockSpec.from_name("C3", min_df=1)]
        ).fit(docs)
        u_dim = pipeline.dimensions["U"]
        assert pipeline.offsets["C3"] == u_dim
        vec = pipeline.transform(docs[0])
        assert (vec.indices >= u_dim).any()

    def test_empty_text_gives_zero_vector(self):
        docs = _docs("a b", "c")
        pipeline = FeaturePipeline([FeatureBlockSpec.from_name("U", min_df=1)]).fit(docs)
        vec = pipeline.transform(Document(id="e", text=""))
        assert len(vec) == 0
        assert vec.dimension == pipeline.total_dimension

    def test_unfitted_pipeline_raises(self):
        pipeline = FeaturePipeline([FeatureBlockSpec.from_name("U")])
        with pytest.raises(DataError, match="before fitting"):
            pipeline.transform(Document(id="x", text="a"))

    def test_blocks_never_overlap(self):
        docs = _docs("ab cd ef", "ab cd", "ab xy zq")
        names = ["U", "B", "BU", "C3", "SK2"]
        pipeline = FeaturePipeline(
            [FeatureBlockSpec.from_name(n, min_df=1) for n in names]
        ).fit(docs)
        ranges = [
            range(pipeline.offsets[n], pipeline.offsets[n] + pipeline.dimensions[n])
            for n in names
        ]
        seen = set()
        for r in ranges:
            assert not (seen & set(r))
            seen.update(r)
        assert max(seen, default=-1) == pipeline.total_dimension - 1

    def test_deterministic_fitting(self):
        docs = _docs("b a c a", "c b", "a a a")
        p1 = FeaturePipeline([FeatureBlockSpec.from_name("U", min_df=1)]).fit(docs)
        p2 = FeaturePipeline([FeatureBlockSpec.from_name("U", min_df=1)]).fit(docs)
        assert p1.vocabularies["U"].terms == p2.vocabularies["U"].terms
        for doc in docs:
            v1, v2 = p1.transform(doc), p2.transform(doc)
            assert as_dict(*v1.to_arrays()) == as_dict(*v2.to_arrays())

    def test_feature_names(self):
        docs = _docs("abc def", "abc")
        pipeline = FeaturePipeline(
            [FeatureBlockSpec.from_name("U", min_df=1), FeatureBlockSpec.from_name("C3", min_df=1)]
        ).fit(docs)
        names = [pipeline.feature_name(i) for i in range(pipeline.total_dimension)]
        assert "unigram_abc" in names
        assert "char_tri_gram_abc" in names

    def test_binary_unigram_block_is_unnormalized(self):
        docs = _docs("a a b", "a")
        pipeline = FeaturePipeline([FeatureBlockSpec.from_name("BU", min_df=1)]).fit(docs)
        vec = pipeline.transform(docs[0])
        assert set(vec.values.tolist()) == {1.0}


def reference_transform(pipeline, doc):
    """The dict algorithm features were computed by before they became
    arrays: per lexical block a Counter, count * idf, the L2 norm summed
    left to right in first-occurrence order, then offsets and one sort."""
    if not doc.text.strip():
        return []
    tokens = tokenize(doc.text)
    entries = {}
    for spec in pipeline.blocks:
        if spec.kind in DENSE_KINDS:
            continue
        n = spec.params["n"]
        if spec.kind == "char_ngram":
            terms = char_ngrams(doc.text, n)
        elif spec.kind == "skip_gram":
            terms = skip_grams(tokens, spec.params["k"], n)
        else:
            terms = word_ngrams(tokens, n)
        vocab = pipeline.vocabularies[spec.name]
        index = {term: i for i, term in enumerate(vocab.terms)}
        dfs = dict(terms_and_dfs(vocab))
        block = {}
        if spec.kind == "binary_word_ngram":
            block = {index[t]: 1.0 for t in set(terms) if t in index}
        else:
            for term, count in Counter(terms).items():
                if term in index:
                    df = dfs[term]
                    idf = math.log((1 + vocab.n_documents) / (1 + df)) + 1.0
                    block[index[term]] = count * idf
            squares = 0.0
            for w in block.values():
                squares += w * w
            norm = math.sqrt(squares)
            if norm > 0.0:
                block = {i: w / norm for i, w in block.items()}
        for i, w in block.items():
            entries[pipeline.offsets[spec.name] + i] = w
    return sorted(entries.items())


_TEXTS = st.text(alphabet="ab c.", max_size=40)
# NUL, an astral emoji, Devanagari and a lone surrogate beside ASCII: the
# char blocks count code points, as Python slices strings
_WIDE_CHARS = "ab c.!\x00\U0001f600\u0915\u094d\ud800"
_WIDE_TEXTS = st.text(alphabet=st.sampled_from(_WIDE_CHARS), max_size=40)


@given(
    fit_texts=st.lists(_WIDE_TEXTS, min_size=1, max_size=6),
    extra_texts=st.lists(_WIDE_TEXTS, max_size=3),
    names=st.lists(st.sampled_from(["U", "B", "BU", "C3", "C4", "C5", "SK2"]), min_size=1,
                   max_size=7, unique=True),
    min_df=st.integers(1, 2),
)
@settings(max_examples=200, deadline=None)
def test_transform_matches_dict_reference(fit_texts, extra_texts, names, min_df):
    """Sorted in-range indices, no zeros, and every value bit-equal to the
    dict algorithm."""
    pipeline = FeaturePipeline(
        [FeatureBlockSpec.from_name(n, min_df=min_df) for n in names]
    ).fit(_docs(*fit_texts))
    for doc in _docs(*fit_texts, *extra_texts):
        vec = pipeline.transform(doc)
        assert vec.dimension == pipeline.total_dimension
        assert (np.diff(vec.indices) > 0).all()
        assert vec.indices.size == 0 or 0 <= vec.indices[0] <= vec.indices[-1] < vec.dimension
        assert (vec.values != 0.0).all()
        reference = reference_transform(pipeline, doc)
        assert vec.indices.tolist() == [i for i, _ in reference]
        assert vec.values.tobytes() == np.array([w for _, w in reference]).tobytes()


_FIT_TEXTS = st.one_of(
    st.sampled_from(["", "   ", "!!", "?! ...", ":) :)", "a a a a", "ab ab ab c", "c. c. c."]),
    _WIDE_TEXTS,
)


def reference_vocabulary(spec, documents):
    """Document frequencies and document count by a plain set-per-document
    count over every document, whitespace-only ones included."""
    df = Counter()
    for doc in documents:
        tokens = tokenize(doc.text)
        if spec.kind == "char_ngram":
            terms = char_ngrams(doc.text, spec.params["n"])
        elif spec.kind == "skip_gram":
            terms = skip_grams(tokens, spec.params["k"], spec.params["n"])
        else:
            terms = word_ngrams(tokens, spec.params["n"])
        df.update(set(terms))
    min_df = spec.params["min_df"]
    return {t: c for t, c in sorted(df.items()) if c >= min_df}, len(documents)


@given(
    texts=st.lists(_FIT_TEXTS, min_size=1, max_size=8),
    names=st.lists(st.sampled_from(["U", "B", "T", "BU", "C3", "C4", "C5", "SK2"]),
                   min_size=1, max_size=8, unique=True),
    min_df=st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_fit_transform_matches_fit_then_transform_many(texts, names, min_df):
    """Same vocabularies, offsets and rows, bit for bit, as fit followed by
    transform_many, and both equal to the dict references."""
    blocks = [FeatureBlockSpec.from_name(n, min_df=min_df) for n in names]
    docs = _docs(*texts)
    fitted = FeaturePipeline(blocks).fit(docs)
    expected = fitted.transform_many(docs)
    pipeline = FeaturePipeline(blocks)
    rows = pipeline.fit_transform(docs)

    assert pipeline.offsets == fitted.offsets
    assert pipeline.total_dimension == fitted.total_dimension
    for spec in blocks:
        vocab, other = pipeline.vocabularies[spec.name], fitted.vocabularies[spec.name]
        assert vocab.terms == other.terms
        assert vocab.document_frequency.dtype == other.document_frequency.dtype == np.int64
        assert np.array_equal(vocab.document_frequency, other.document_frequency)
        assert vocab.n_documents == other.n_documents
        assert vocab.idf.tobytes() == other.idf.tobytes()
        df, n_documents = reference_vocabulary(spec, docs)
        assert terms_and_dfs(vocab) == list(df.items())
        assert vocab.n_documents == n_documents
    assert len(rows) == len(expected) == len(docs)
    for doc, row, want in zip(docs, rows, expected):
        assert row.dimension == want.dimension
        assert row.indices.dtype == want.indices.dtype and row.values.dtype == want.values.dtype
        assert row.indices.tobytes() == want.indices.tobytes()
        assert row.values.tobytes() == want.values.tobytes()
        reference = reference_transform(pipeline, doc)
        assert row.indices.tolist() == [i for i, _ in reference]
        assert row.values.tobytes() == np.array([w for _, w in reference]).tobytes()


def test_char_codes_past_4095_characters_match_references():
    """With over 4,095 distinct characters a C5 code needs 5 x 13 bits, so
    its codes are UTF-32-BE byte strings while C3's and C4's still pack
    into int64; fitted two documents a chunk, every block equals the
    references bit for bit."""
    chars = [chr(0x4E00 + i) for i in range(4200)]
    texts = ["".join(chars[i : i + 70]) + " ab ab ab" for i in range(0, 4200, 60)]
    docs = _docs(*texts, "\x00 ab \U0001f600 ab", "   ", "")
    extra = _docs("".join(chars[::-7]), "\u0915\u094d ab ab" + chars[0] * 6)
    blocks = [FeatureBlockSpec.from_name(n, min_df=1) for n in ("C3", "C4", "C5", "U")]
    with mock.patch.object(featurize, "_CHUNK_ROWS", 2):
        pipeline = FeaturePipeline(blocks)
        rows = pipeline.fit_transform(docs)
        batch = pipeline.transform_many(docs + extra)
    assert pipeline._alphabet.bits == 13
    for spec in blocks:
        df, n_documents = reference_vocabulary(spec, docs)
        vocab = pipeline.vocabularies[spec.name]
        assert terms_and_dfs(vocab) == list(df.items())
        assert vocab.n_documents == n_documents
    fitted = list(rows)
    for i, doc in enumerate(docs + extra):
        reference = reference_transform(pipeline, doc)
        for vec in [batch[i]] + fitted[i : i + 1]:
            assert vec.indices.tolist() == [i for i, _ in reference]
            assert vec.values.tobytes() == np.array([w for _, w in reference]).tobytes()


def assert_sorts_as_stable_argsort(keys, ranked):
    """``_sort_with_positions`` gives the keys in stable argsort order and
    that order, through the ranked branch (``np.unique``) exactly when
    ``ranked``."""
    with mock.patch("numpy.unique", wraps=np.unique) as unique:
        got, order = featurize._sort_with_positions(keys)
    assert unique.called == ranked
    want = keys.argsort(kind="stable")
    assert order.tolist() == want.tolist()
    assert got.dtype == keys.dtype
    assert got.tobytes() == keys[want].tobytes()


class TestSortWithPositions:
    @given(st.lists(st.integers(0, 2**20), max_size=300))
    def test_small_keys_are_packed(self, keys):
        assert_sorts_as_stable_argsort(np.array(keys, dtype=np.int64), ranked=False)

    @given(st.lists(st.integers(2**62, 2**62 + 8), min_size=2, max_size=50))
    def test_keys_too_wide_for_their_positions_are_ranked(self, keys):
        assert_sorts_as_stable_argsort(np.array(keys, dtype=np.int64), ranked=True)

    @given(st.lists(st.integers(-(2**63), -1), min_size=1).flatmap(
        lambda negative: st.permutations(negative + [0, 2**63 - 1])))
    def test_negative_keys_are_ranked(self, keys):
        assert_sorts_as_stable_argsort(np.array(keys, dtype=np.int64), ranked=True)

    @given(st.lists(st.binary(max_size=8), max_size=60))
    def test_byte_string_codes_are_ranked(self, keys):
        assert_sorts_as_stable_argsort(np.array(keys, dtype="S8"), ranked=True)

    @pytest.mark.parametrize("keys, ranked", [
        (np.zeros(0, dtype=np.int64), False),
        (np.zeros(0, dtype="S20"), True),
        (np.array([7]), False),
        (np.array([2**63 - 1]), False),
        (np.array([b"\x00\x00\x00a"], dtype="S4"), True),
        (np.full(9, 5), False),
        (np.full(9, 2**62), True),
        (np.full(9, b"ab", dtype="S4"), True),
    ])
    def test_empty_one_and_all_equal_keys(self, keys, ranked):
        assert_sorts_as_stable_argsort(keys, ranked)


def test_char_codes_too_wide_for_their_positions_match_references():
    """Over about 2,000 distinct characters a C5 code takes 5 x 11 bits, so
    a chunk of more than 256 windows is sorted by rank; C3's codes still
    pack beside their positions. Fitted and transformed, every block
    equals the references bit for bit."""
    chars = [chr(0x4E00 + i) for i in range(2000)]
    texts = ["".join(chars[i : i + 100]) + " " + "".join(chars[i : i + 7]) * 3
             for i in range(0, 2000, 80)]
    docs = _docs(*texts, "   ", "\x00 ab")
    blocks = [FeatureBlockSpec.from_name(n, min_df=1) for n in ("C3", "C5")]
    sort = featurize._sort_with_positions
    with mock.patch.object(featurize, "_sort_with_positions", wraps=sort) as spy:
        pipeline = FeaturePipeline(blocks)
        rows = list(pipeline.fit_transform(docs))
        batch = pipeline.transform_many(docs)
    assert pipeline._alphabet.bits == 11
    widths = [int(keys.max()).bit_length() + (len(keys) - 1).bit_length()
              for (keys,), _ in spy.call_args_list if keys.dtype == np.int64 and len(keys)]
    assert sum(width > 63 for width in widths) == 2  # C5, in fit and in transform
    for spec in blocks:
        df, _ = reference_vocabulary(spec, docs)
        assert terms_and_dfs(pipeline.vocabularies[spec.name]) == list(df.items())
    for doc, row, vec in zip(docs, rows, batch):
        reference = reference_transform(pipeline, doc)
        for got in (row, vec):
            assert got.indices.tolist() == [i for i, _ in reference]
            assert got.values.tobytes() == np.array([w for _, w in reference]).tobytes()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_weigh_rows_orders_each_row_by_index(data):
    """With every weight left as its value, the indices and data that
    ``_weigh_rows`` gives are the entries in the order of a stable argsort
    by (row, index)."""
    pipeline = FeaturePipeline([FeatureBlockSpec.from_name(n, min_df=1) for n in ("U", "C3", "BU")])
    pipeline.fit(_docs("ab cd ef gh", "ab ab cd", "x y z"))
    pipeline._idf = np.ones(pipeline.total_dimension)
    pipeline._unnormalized[:] = True
    m = data.draw(st.integers(1, 5))
    ids, lengths = [], np.zeros((3, m), dtype=np.int64)
    for k, spec in enumerate(pipeline.blocks):
        for r in range(m):
            run = data.draw(st.lists(st.integers(0, pipeline.dimensions[spec.name] - 1),
                                     unique=True))
            ids += run
            lengths[k, r] = len(run)
    ids = np.array(ids, dtype=np.int32)
    values = np.arange(1.0, len(ids) + 1)
    indices, weights = pipeline._weigh_rows(ids, values.copy(), lengths)
    seg = np.repeat(np.arange(3 * m), lengths.ravel())
    cols = ids + pipeline._block_offsets[seg // m]
    order = (seg % m * pipeline.total_dimension + cols).argsort(kind="stable")
    assert indices.tolist() == cols[order].tolist()
    assert weights.tolist() == values[order].tolist()


def test_char_only_pipeline_never_tokenizes():
    """No block reads tokens, so neither fitting nor transforming
    tokenizes, and the rows equal the references."""
    docs = _docs("ab ab. c", "  ", "", "c.c. ab!", "\U0001f600 ab")
    blocks = [FeatureBlockSpec.from_name(n, min_df=1) for n in ("C3", "C4")]
    with mock.patch.object(featurize, "tokenize", side_effect=AssertionError("tokenized")):
        pipeline = FeaturePipeline(blocks)
        rows = list(pipeline.fit_transform(docs))
        batch = FeaturePipeline(blocks).fit(docs).transform_many(docs)
    for doc, row, vec in zip(docs, rows, batch):
        reference = reference_transform(pipeline, doc)
        for got in (row, vec):
            assert got.indices.tolist() == [i for i, _ in reference]
            assert got.values.tobytes() == np.array([w for _, w in reference]).tobytes()


# Tiny dense resources. Some embedding coordinates are 0, so the W2V block
# has zeros to drop; "zz" and "qq" are in no vocabulary fitted from _TEXTS
# and not in the table; the gender block is nonzero on every document, so
# only the blank-document rule keeps it off whitespace-only ones.
_TABLE = EmbeddingTable(
    vectors={"a": np.array([0.5, 0.0, -1.25]), "b": np.array([0.0, 0.0, 3.0]),
             "ab": np.array([-0.5, 2.0, 0.0])},
    dimension=3,
)
_LEXICON = WeightedLexicon(weights={"a": 1.5, "zz": -2.0}, intercept=-0.25)
_RESOURCES = Resources(embeddings=_TABLE, gender_lexicon=_LEXICON)
_BATCH_TEXTS = st.one_of(
    st.sampled_from(["", "   ", "\t\n ", "zz", "zz qq zz", "a a a", "ab ab c.", "b"]),
    st.text(alphabet="ab cz.", max_size=30),
)


@given(
    fit_texts=st.lists(_TEXTS, min_size=1, max_size=6),
    batch=st.lists(_BATCH_TEXTS, max_size=8),
    names=st.lists(st.sampled_from(["U", "B", "BU", "C3", "SK2", "W2V", "GP"]), min_size=1,
                   max_size=7, unique=True),
    min_df=st.integers(1, 2),
)
@settings(max_examples=200, deadline=None)
def test_batch_rows_equal_single_rows_and_references(fit_texts, batch, names, min_df):
    """Over mixed batches (empty, whitespace-only, out-of-vocabulary-only
    and repeated documents), every transform_many row equals transform of
    its document alone bit for bit; lexical entries equal the dict
    reference and dense entries the nonzeros of embed_average and
    gender_features, on documents that are not blank. fit_transform's
    matrix equals transform_many of the same documents, and weighting two
    rows at a time changes no bit of either."""
    blocks = [FeatureBlockSpec.from_name(n, min_df=min_df) for n in names]
    fit_docs = _docs(*fit_texts)
    pipeline = FeaturePipeline(blocks, _RESOURCES).fit(fit_docs)
    docs = _docs(*batch, *batch[:2])
    matrix = pipeline.transform_many(docs)
    fitted = FeaturePipeline(blocks, _RESOURCES).fit_transform(fit_docs)
    with mock.patch.object(featurize, "_CHUNK_ROWS", 2):
        chunked = FeaturePipeline(blocks, _RESOURCES).fit_transform(fit_docs)
        chunked_batch = FeaturePipeline(blocks, _RESOURCES).fit(fit_docs).transform_many(docs)
    for name in ("indptr", "indices", "data"):
        assert getattr(chunked, name).tobytes() == getattr(fitted, name).tobytes()
        assert getattr(chunked_batch, name).tobytes() == getattr(matrix, name).tobytes()

    assert isinstance(matrix, SparseMatrix) and len(matrix) == len(docs)
    assert matrix.dimension == pipeline.total_dimension
    assert matrix.indptr.dtype == matrix.indices.dtype == np.int64
    assert matrix.data.dtype == np.float64
    assert matrix.indptr[0] == 0 and matrix.indptr[-1] == matrix.indices.size == matrix.data.size
    for doc, row in zip(docs, matrix):
        single = pipeline.transform(doc)
        assert single.dimension == row.dimension == pipeline.total_dimension
        assert single.indices.dtype == np.int64 and single.values.dtype == np.float64
        assert row.indices.tobytes() == single.indices.tobytes()
        assert row.values.tobytes() == single.values.tobytes()
        assert (np.diff(row.indices) > 0).all() and (row.values != 0.0).all()

        lexical = dict(reference_transform(pipeline, doc))
        dense = {}
        tokens = tokenize(doc.text)
        for name in ("W2V", "GP") if doc.text.strip() else ():
            if name in names:
                if name == "W2V":
                    vector = embed_average(tokens, _TABLE)[0]
                else:
                    vector = gender_features(tokens, _LEXICON)
                offset = pipeline.offsets[name]
                dense.update({offset + int(i): float(vector[i]) for i in np.flatnonzero(vector)})
        expected = sorted({**lexical, **dense}.items())
        assert row.indices.tolist() == [i for i, _ in expected]
        assert row.values.tobytes() == np.array([w for _, w in expected]).tobytes()

    again = pipeline.transform_many(fit_docs)
    for name in ("indptr", "indices", "data"):
        assert getattr(fitted, name).tobytes() == getattr(again, name).tobytes()


class TestSparseMatrix:
    def test_rows_are_views_and_indexing_matches_iteration(self):
        pipeline = FeaturePipeline([FeatureBlockSpec.from_name("U", min_df=1)]).fit(
            _docs("a b", "b c", "c")
        )
        matrix = pipeline.transform_many(_docs("a b", "   ", "c c b"))
        rows = list(matrix)
        assert [len(row) for row in rows] == [2, 0, 2]
        for i, row in enumerate(rows):
            for other in (matrix[i], matrix[i - len(matrix)]):
                assert other.indices.tolist() == row.indices.tolist()
                assert other.values.tobytes() == row.values.tobytes()
        assert np.shares_memory(rows[2].values, matrix.data)
        for bad in (3, -4):
            with pytest.raises(IndexError):
                matrix[bad]

    def test_empty_batch(self):
        pipeline = FeaturePipeline([FeatureBlockSpec.from_name("U", min_df=1)]).fit(_docs("a"))
        matrix = pipeline.transform_many([])
        assert len(matrix) == 0 and list(matrix) == []
        assert matrix.indptr.tolist() == [0] and matrix.indices.size == 0
