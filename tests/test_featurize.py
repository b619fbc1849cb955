import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggdetect.corpus_io import Document
from aggdetect.errors import DataError, UsageError
from aggdetect.featurize import (
    FeatureBlockSpec,
    FeaturePipeline,
    SparseVector,
    binary_transform,
    char_ngrams,
    fit_vocabulary,
    skip_grams,
    tfidf_transform,
    tokenize,
    word_ngrams,
)

from helpers import sparse


def brute_force_skip_grams(tokens, k, n):
    """Independent oracle: enumerate position subsequences directly."""
    out = []
    for positions in itertools.combinations(range(len(tokens)), n):
        if all(b - a <= k + 1 for a, b in zip(positions, positions[1:])):
            out.append(" ".join(tokens[i] for i in positions))
    return out


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


class TestNgrams:
    def test_word_bigrams(self):
        assert word_ngrams(["a", "b", "c"], 2) == ["a b", "b c"]

    def test_word_unigrams_identity(self):
        assert word_ngrams(["a", "b", "c"], 1) == ["a", "b", "c"]

    def test_too_few_tokens(self):
        assert word_ngrams(["a", "b"], 3) == []

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
        assert vocab.index == {"a": 0, "b": 1}
        assert vocab.document_frequency == {"a": 2, "b": 1}
        assert vocab.n_documents == 2

    def test_min_df_prunes(self):
        vocab = fit_vocabulary([["a", "b"], ["a"]], min_df=2)
        assert vocab.index == {"a": 0}

    def test_empty(self):
        vocab = fit_vocabulary([], min_df=1)
        assert len(vocab) == 0

    def test_indices_lexicographic(self):
        vocab = fit_vocabulary([["zebra", "apple", "mango"]], min_df=1)
        assert vocab.terms == ["apple", "mango", "zebra"]


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
        assert as_dict(*tfidf_transform(["a", "a"], vocab)) == {0: 1.0}

    def test_hand_computed_weights(self):
        vocab = fit_vocabulary([["a"], ["a", "b"]], min_df=1)
        vec = as_dict(*tfidf_transform(["a", "b"], vocab))
        idf_b = math.log(3 / 2) + 1.0
        norm = math.sqrt(1.0 + idf_b**2)
        assert vec[0] == pytest.approx(1.0 / norm, abs=1e-12)
        assert vec[1] == pytest.approx(idf_b / norm, abs=1e-12)

    def test_oov_terms_ignored(self):
        vocab = fit_vocabulary([["a"]], min_df=1)
        assert as_dict(*tfidf_transform(["zz", "qq"], vocab)) == {}

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
            indices, values = tfidf_transform(terms, vocab)
            oracle_terms, oracle_row = dense_tfidf_oracle(terms, docs)
            assert oracle_terms == vocab.terms
            dense = np.zeros(len(vocab))
            dense[indices] = values
            assert np.abs(dense - oracle_row).max(initial=0.0) <= 1e-9

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=15))
    def test_l2_norm_is_one_when_in_vocab(self, terms):
        vocab = fit_vocabulary([["a", "b", "c"]], min_df=1)
        _indices, values = tfidf_transform(terms, vocab)
        assert np.linalg.norm(values) == pytest.approx(1.0, abs=1e-9)


class TestBinaryTransform:
    def test_presence_only(self):
        vocab = fit_vocabulary([["a", "b"]], min_df=1)
        assert as_dict(*binary_transform(["a", "a", "b"], vocab)) == {0: 1.0, 1: 1.0}

    def test_repetition_ignored(self):
        vocab = fit_vocabulary([["a"]], min_df=1)
        assert as_dict(*binary_transform(["a"] * 100, vocab)) == {0: 1.0}

    def test_all_oov(self):
        vocab = fit_vocabulary([["a"]], min_df=1)
        assert as_dict(*binary_transform(["z"], vocab)) == {}


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
        assert as_dict(*vec.to_arrays()) == as_dict(*tfidf_transform(["a", "b"], vocab))

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
        n = spec.params["n"]
        if spec.kind == "char_ngram":
            terms = char_ngrams(doc.text, n)
        elif spec.kind == "skip_gram":
            terms = skip_grams(tokens, spec.params["k"], n)
        else:
            terms = word_ngrams(tokens, n)
        vocab = pipeline.vocabularies[spec.name]
        block = {}
        if spec.kind == "binary_word_ngram":
            block = {vocab.index[t]: 1.0 for t in set(terms) if t in vocab.index}
        else:
            for term, count in Counter(terms).items():
                if term in vocab.index:
                    df = vocab.document_frequency[term]
                    idf = math.log((1 + vocab.n_documents) / (1 + df)) + 1.0
                    block[vocab.index[term]] = count * idf
            norm = math.sqrt(sum(w * w for w in block.values()))
            if norm > 0.0:
                block = {i: w / norm for i, w in block.items()}
        for i, w in block.items():
            entries[pipeline.offsets[spec.name] + i] = w
    return sorted(entries.items())


_TEXTS = st.text(alphabet="ab c.", max_size=40)


@given(
    fit_texts=st.lists(_TEXTS, min_size=1, max_size=6),
    extra_texts=st.lists(_TEXTS, max_size=3),
    names=st.lists(st.sampled_from(["U", "B", "BU", "C3", "SK2"]), min_size=1, max_size=5,
                   unique=True),
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
