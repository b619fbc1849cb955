import re
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from aggdetect import preprocess, translit
from aggdetect.errors import ResourceError, UsageError
from aggdetect.lexfeatures import Resources
from aggdetect.preprocess import (
    DEFAULT_EXPANSIONS,
    CleanConfig,
    PreprocessSettings,
    SpellDictionary,
    clean_text,
    load_spell_dictionary,
    save_spell_dictionary,
    spell_correct,
)

from helpers import (
    edits1,
    reference_candidates,
    reference_clean_text,
    reference_spell_correct,
)

FLAGS = ("lowercase", "strip_urls", "strip_emails", "strip_numbers", "minor_stemming")
# Pieces of tokens that reach every stage: case, URL and email markers,
# decimal and non-decimal digits, suffixes the stemmer strips, and default
# expansion keys.
PIECES = ["a", "b", "s", "'s", "ing", "u", "dog", "X", "Dogs", "www.", "http://", "@b.de",
          "4", "\u0663", "\u00b2", "."]
piece_words = st.lists(st.sampled_from(PIECES), max_size=3).map("".join)


@st.composite
def clean_configs(draw):
    """Every flag combination, with the default expansions, none, or
    random ones that CleanConfig accepts."""
    flags = {flag: draw(st.booleans()) for flag in FLAGS}
    expansions = draw(st.one_of(
        st.just(DEFAULT_EXPANSIONS),
        st.dictionaries(piece_words, st.lists(piece_words, max_size=3).map(" ".join),
                        max_size=5),
    ))
    try:
        return CleanConfig(**flags, expansions=dict(expansions))
    except UsageError:
        reject()


@st.composite
def comments(draw, config=None):
    """Text of pieces, expansion keys and random characters, split by
    assorted whitespace."""
    keys = sorted(config.expansions) if config is not None and config.expansions else ["u"]
    word = st.one_of(piece_words, st.sampled_from(keys), st.text(max_size=4))
    gaps = st.sampled_from([" ", "  ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2009", "\u3000"])
    parts = draw(st.lists(st.tuples(word, gaps), max_size=8))
    return "".join(w + gap for w, gap in parts)


class TestCleanText:
    def test_url_removal_and_lowercase(self):
        assert clean_text("Visit http://x.co NOW") == "visit now"

    def test_minor_stemming(self):
        # "running" loses "ing", "dogs" its plural s, "John's" the possessive
        assert clean_text("running dogs John's") == "runn dog john"

    def test_empty(self):
        assert clean_text("") == ""

    def test_email_removal(self):
        assert clean_text("mail me at bob@example.com ok") == "mail me at ok"

    def test_standalone_numbers_removed_embedded_kept(self):
        assert clean_text("call 911 b4 noon") == "call b4 noon"

    def test_expansions(self):
        assert clean_text("u r great") == "you are great"

    def test_exception_list_blocks_plural_strip(self):
        assert clean_text("this is his") == "this is his"

    def test_whitespace_collapsed(self):
        assert clean_text("a\t\tb\n c  ") == "a b c"

    def test_flags_can_disable_stages(self):
        config = CleanConfig(lowercase=False, minor_stemming=False, expansions={})
        assert clean_text("Running DOGS u", config) == "Running DOGS u"

    def test_stem_cascades_to_fixed_point(self):
        # one pass must land on a stemming fixed point
        assert clean_text("passings") == clean_text(clean_text("passings"))

    @pytest.mark.parametrize("token, cleaned", [
        ("passings", "pas"), ("dogs", "dog"), ("this", "this"), ("hello", "hello"),
    ])
    def test_a_token_no_expansion_rewrites_is_stemmed_once(self, monkeypatch, token, cleaned):
        stemmed = []

        def counted(word, stem=preprocess._stem_token):
            stemmed.append(word)
            return stem(word)

        monkeypatch.setattr(preprocess, "_stem_token", counted)
        assert clean_text(token) == cleaned
        assert stemmed == [token]

    @given(st.text(max_size=120))
    @settings(max_examples=300)
    def test_idempotent(self, text):
        once = clean_text(text)
        assert clean_text(once) == once

    @given(st.text(alphabet="abs4u'i ngdo.", max_size=40))
    @settings(max_examples=300)
    def test_idempotent_on_suffix_heavy_text(self, text):
        once = clean_text(text)
        assert clean_text(once) == once

    @given(st.data())
    @settings(max_examples=300)
    def test_idempotent_under_every_accepted_config(self, data):
        config = data.draw(clean_configs())
        once = clean_text(data.draw(comments(config)), config)
        assert clean_text(once, config) == once

    @pytest.mark.parametrize("expansions, message", [
        ([1, 2], "expansions must be an object of strings to strings, got [1, 2]"),
        ("str", "expansions must be an object of strings to strings, got 'str'"),
        ({"u": 5}, "expansions: 'u': 5 is not a string"),
        ({"u": None}, "expansions: 'u': None is not a string"),
        ({"x": "123"}, "the replacement of 'x', '123', would be changed by number removal"),
        ({"k": "Dogs"}, "the replacement of 'k', 'Dogs', would be changed by lowercasing"),
        ({"w": "see www.x.org"}, "'see www.x.org', would be changed by URL removal"),
        ({"m": "a@b.de"}, "the replacement of 'm', 'a@b.de', would be changed by email removal"),
        ({"a": "b", "b": "a"}, "rewriting 'a' does not finish within 7 nested rewrites: "
                               "a -> b -> a -> b -> a -> b -> a -> b -> a"),
        ({"a": "a a"}, "rewriting 'a' does not finish within 7 nested rewrites"),
        ({f"k{i}": f"k{i + 1}" for i in range(8)},
         "rewriting 'k0' does not finish within 7 nested rewrites: "
         "k0 -> k1 -> k2 -> k3 -> k4 -> k5 -> k6 -> k7 -> k8"),
    ])
    def test_refused_expansions(self, expansions, message):
        with pytest.raises(UsageError, match=re.escape(message)):
            CleanConfig(expansions=expansions)

    def test_expansions_allowed_where_their_stage_is_off(self):
        config = CleanConfig(lowercase=False, strip_numbers=False, strip_urls=False,
                             strip_emails=False,
                             expansions={"k": "Dogs 123 www.x.org a@b.de"})
        assert clean_text("k", config) == "Dog 123 www.x.org a@b.de"
        # seven nested rewrites, and one more for the stem that leads to k0
        chain = CleanConfig(expansions={f"k{i}": f"k{i + 1}" for i in range(7)})
        assert clean_text("k0's", chain) == reference_clean_text("k0's", chain) == "k7"


class TestCleanTextReference:
    """The one pass over the tokens against the regex definition in
    helpers: lowercase, URL, email and number passes over the whole text,
    rewrites, then whitespace collapsing."""

    @given(text=st.one_of(st.text(max_size=60), comments()), config=clean_configs())
    @example(text="a\x1cb\x85c\xa0d\u2009e\u3000f", config=CleanConfig())
    @example(text="\u0663 \uff13 \u0968 \u00b2 x\u0663 12", config=CleanConfig())
    @example(text="WWW.x wWw.y x", config=CleanConfig(lowercase=False))
    @example(text="WWW.x httpſ://x HTTPS://y", config=CleanConfig())
    @example(text="httpſ://x y", config=CleanConfig(lowercase=False))
    @example(text="a,b@c.de x@y", config=CleanConfig())
    @example(text="'s u's 's's", config=CleanConfig())
    @example(text="", config=CleanConfig())
    @settings(max_examples=500)
    def test_equals_the_regex_definition(self, text, config):
        assert clean_text(text, config) == reference_clean_text(text, config)

    @given(st.lists(comments(CleanConfig()), max_size=6))
    @settings(max_examples=100)
    def test_presets_equal_the_reference(self, texts):
        """apply_with_stats of the English (spell-corrected) and Hindi
        presets, each one long-lived settings object."""
        dictionary = SpellDictionary({"dog": 3, "you": 2, "do": 1, "bs": 1})
        english = PreprocessSettings(clean=CleanConfig.for_language("english"),
                                     spell_dictionary=dictionary)
        hindi = PreprocessSettings(clean=CleanConfig.for_language("hindi"), transliterate=True)
        for text in texts + [text + " क्या ॾ" for text in texts]:
            cleaned = reference_clean_text(text, english.clean)
            expected = " ".join(reference_spell_correct(cleaned.split(" "), dictionary))
            assert english.apply_with_stats(text) == (expected if cleaned else "", 0)
            romanized, unknown = translit.transliterate_with_count(text)
            assert hindi.apply_with_stats(text) == (
                reference_clean_text(romanized, hindi.clean), unknown)


class TestTransliteration:
    def test_latin_passthrough(self):
        assert translit.transliterate("hello world!") == "hello world!"

    def test_consonant_with_vowel_sign(self):
        assert translit.transliterate("का") == "kaa"  # KA + AA sign

    def test_virama_suppresses_inherent_vowel(self):
        assert translit.transliterate("क्य") == "kya"  # KA + virama + YA

    def test_inherent_vowel_on_final_consonant(self):
        assert translit.transliterate("कब") == "kaba"

    def test_anusvara_and_visarga(self):
        assert translit.transliterate("हं") == "han"
        assert translit.transliterate("कः") == "kah"

    def test_digits_and_danda(self):
        assert translit.transliterate("१२।") == "12."

    def test_mixed_script_line(self):
        out = translit.transliterate("ok क्या?")
        assert out == "ok kyaa?"

    def test_no_devanagari_left_on_table_domain(self):
        """Every codepoint the table covers must romanize completely."""
        covered = "".join(ch for ch, _roman, _kind in translit.table_rows())
        romanized, unknown = translit.transliterate_with_count(covered)
        assert unknown == 0
        assert not any(translit.is_devanagari(ch) for ch in romanized)

    def test_unknown_codepoints_pass_through_and_count(self):
        text = "कॾ"  # KA + DDDA (not in table)
        romanized, unknown = translit.transliterate_with_count(text)
        assert unknown == 1
        assert "ॾ" in romanized

    @given(st.text(max_size=60))
    def test_total_function(self, text):
        translit.transliterate(text)  # never raises


class TestSpellCorrect:
    def test_in_dictionary_kept(self):
        d = SpellDictionary({"dog": 5})
        assert spell_correct(["dog"], d) == ["dog"]

    def test_transposition_corrects(self):
        d = SpellDictionary({"dog": 5, "dig": 2})
        assert spell_correct(["dgo"], d) == ["dog"]

    def test_frequency_breaks_ties(self):
        # both "dog" and "dig" are one insert away from "dg"
        d = SpellDictionary({"dog": 5, "dig": 2})
        assert spell_correct(["dg"], d) == ["dog"]

    def test_lexicographic_tie_break(self):
        d = SpellDictionary({"dig": 3, "dog": 3})
        assert spell_correct(["dg"], d) == ["dig"]

    def test_no_candidate_keeps_token(self):
        d = SpellDictionary({"dog": 5})
        assert spell_correct(["zzzz"], d) == ["zzzz"]

    def test_substitution_and_deletion(self):
        d = SpellDictionary({"hate": 4})
        assert spell_correct(["hbte"], d) == ["hate"]   # substitution
        assert spell_correct(["hatte"], d) == ["hate"]  # deletion

    @given(st.lists(st.sampled_from(["dog", "dig", "cat", "hate"]), max_size=8))
    def test_dictionary_tokens_never_change(self, tokens):
        d = SpellDictionary({"dog": 5, "dig": 2, "cat": 9, "hate": 1})
        assert spell_correct(tokens, d) == tokens


    def test_corrections_remembered_across_documents(self, monkeypatch):
        calls = Counter()
        candidates = preprocess._candidates

        def counting_candidates(token, dictionary):
            calls[token] += 1
            return candidates(token, dictionary)

        monkeypatch.setattr(preprocess, "_candidates", counting_candidates)
        entries = {"dog": 5, "dig": 2, "hate": 4}
        d = SpellDictionary(dict(entries))
        documents = [["dgo", "hbte", "zzzz"], ["zzzz", "dgo", "dog"], ["dg", "hbte", "dgo"]]
        corrected = [spell_correct(doc, d) for doc in documents]
        assert calls == {"dgo": 1, "hbte": 1, "zzzz": 1, "dg": 1}
        assert corrected == [spell_correct(doc, SpellDictionary(dict(entries)))
                             for doc in documents]
        # the memo is not part of the dictionary's value
        assert d == SpellDictionary(dict(entries))
        assert repr(d) == repr(SpellDictionary(dict(entries)))


# A small alphabet mixing ASCII, Devanagari and emoji, so that entries share
# heads and tails and edits often land on one; tokens may also hold
# characters no entry has.
SPELL_CHARS = "ab\u0915\u094d\U0001F600"
OUTSIDE_CHARS = "z\u00e9"


@st.composite
def dictionary_and_tokens(draw):
    """Entries of up to 5 characters (the empty entry included) and tokens
    of up to 8: free text, or one edit away from an entry."""
    entries = draw(st.dictionaries(st.text(SPELL_CHARS, max_size=5), st.integers(1, 4),
                                   max_size=12))
    free = st.text(SPELL_CHARS + OUTSIDE_CHARS, max_size=8)
    near = st.sampled_from(sorted(entries)).flatmap(
        lambda entry: st.sampled_from(sorted(edits1(entry, list(SPELL_CHARS + OUTSIDE_CHARS)))))
    tokens = draw(st.lists(st.one_of(free, near) if entries else free, max_size=10))
    return entries, tokens


class TestSpellCandidates:
    """The reach-pruned search against the brute-force reference that
    generates every single edit and keeps the entries."""

    @given(dictionary_and_tokens())
    @example(({}, ["", "a", "ab"]))  # empty dictionary
    @example(({"": 5, "a": 1, "b": 2}, ["", "a", "ab", "z"]))  # the empty entry and token
    @example(({"aa": 1, "aab": 2, "ba": 3}, ["aa", "aaa", "aba", "a"]))  # repeated letters
    @example(({"ab": 1}, ["abababab", "zab", "a\u00e9b"]))  # long tokens, outside letters
    @settings(max_examples=400)
    def test_candidates_and_corrections_equal_the_reference(self, case):
        entries, tokens = case
        d = SpellDictionary(dict(entries))
        for token in tokens:
            assert preprocess._candidates(token, d) == reference_candidates(token, d)
        expected = reference_spell_correct(tokens, d)
        assert spell_correct(tokens, d) == expected
        assert spell_correct(tokens, d) == expected  # answered from the memo


class TestSpellDictionaryIO:
    def test_round_trip(self, tmp_path):
        d = SpellDictionary({"dog": 5, "cat": 2})
        path = tmp_path / "dict.tsv"
        save_spell_dictionary(d, path)
        loaded = Resources().load("spell_dict", str(path))
        assert loaded.entries == d.entries

    def test_rows_that_lowercase_alike_are_summed(self):
        text = "Dog\t2\n\ncat\t1\n \t \nDOG\t3\ndog\t+4\nCat\t 1\n"
        loaded = load_spell_dictionary(text, Path("dict.tsv"))
        assert list(loaded.entries.items()) == [("dog", 9), ("cat", 2)]

    def test_rejects_bad_rows(self):
        """The first faulty row is named, also after rows that differ only
        in case, which the loader merges."""
        path = Path("dict.tsv")
        for text, message in [
            ("dog\tfive\n", "bad count at line 1: 'five'"),
            ("dog\n", "malformed dictionary row at line 1"),
            ("dog\t1\t2\n", "malformed dictionary row at line 1"),
            ("dog\t0\n", "count must be >= 1 at line 1"),
            ("Dog\t2\ndog\t3\n\nDOG\tx\ncat\t0\n", "bad count at line 4: 'x'"),
            ("Dog\t2\ndOg\t3\nDOG\t-1\ncat\tx\n", "count must be >= 1 at line 3"),
            ("Dog\t2\ndog\t3\n  \ndog\n", "malformed dictionary row at line 4"),
            ("cat\t1\nCat\t\n", "bad count at line 2: ''"),
        ]:
            with pytest.raises(ResourceError, match=re.escape(f"{path}: {message}")):
                load_spell_dictionary(text, path)


class TestPreprocessSettings:
    def test_transliterates_then_cleans(self):
        settings = PreprocessSettings(clean=CleanConfig(), transliterate=True)
        assert settings.apply("OK क्या") == "ok kyaa"

    def test_transliteration_only_when_devanagari_present(self):
        settings = PreprocessSettings(clean=CleanConfig(), transliterate=True)
        assert settings.apply("Plain Text") == "plain text"

    def test_spell_correction_applies_after_cleaning(self):
        settings = PreprocessSettings(
            clean=CleanConfig(),
            spell_dictionary=SpellDictionary({"dog": 3, "you": 1}),
        )
        assert settings.apply("DGO u") == "dog you"

    @given(st.data())
    @settings(max_examples=200)
    def test_rewrite_memo_never_changes_an_answer(self, data):
        """One long-lived settings object answers as a fresh one per
        document does, and ``==`` and ``repr`` ignore its memo."""
        config = data.draw(clean_configs())
        texts = data.draw(st.lists(comments(config), max_size=8))
        long_lived = PreprocessSettings(clean=config)
        answers = [long_lived.apply_with_stats(text) for text in texts + texts]
        assert answers == [PreprocessSettings(clean=config).apply_with_stats(text)
                           for text in texts + texts]
        fresh = PreprocessSettings(clean=config)
        assert fresh._rewrites == {}
        assert fresh == long_lived and repr(fresh) == repr(long_lived)

    def test_each_distinct_token_rewritten_once(self):
        calls = Counter()
        rewrite = preprocess._rewrite_token

        def counted(token, config, depth=0):
            if depth == 0:
                calls[token] += 1
            return rewrite(token, config, depth)

        prep = PreprocessSettings(clean=CleanConfig())
        with mock.patch.object(preprocess, "_rewrite_token", counted):
            assert prep.apply("U dogs 12 u's dogs") == "you dog you dog"
            assert prep.apply("dogs U 's") == "dog you"
        assert calls == {"u": 1, "dogs": 1, "u's": 1, "'s": 1}
        assert prep._rewrites == {"u": "you", "dogs": "dog", "12": "", "u's": "you", "'s": ""}

    @given(st.lists(st.sampled_from(["OK", "क्या", "chalak", "ॾ", "u", "DGO", "बात", "x1",
                                     "visit http://x.co", "क", "", "dogs"]), max_size=8))
    def test_apply_and_apply_with_stats_agree(self, words):
        text = " ".join(words)
        hindi = PreprocessSettings(clean=CleanConfig.for_language("hindi"), transliterate=True)
        english = PreprocessSettings(
            clean=CleanConfig(), spell_dictionary=SpellDictionary({"dog": 3, "you": 1})
        )
        for prep in (hindi, english):
            unknown = text.count("ॾ") if prep.transliterate else 0
            assert prep.apply_with_stats(text) == (prep.apply(text), unknown)
        assert hindi.apply(text) == clean_text(translit.transliterate(text), hindi.clean)

    @given(st.lists(st.sampled_from(["क्", "क़", "क", "्", "़", "ऀ", "ॾ", "ि", "बात", "क्या",
                                     "ड़", "ं", " ", "a", "Z", "।"]), max_size=12))
    @settings(max_examples=300)
    def test_each_devanagari_run_transliterated_once(self, parts):
        """Cold and warm, the run memo gives what transliterating the whole
        text gives (runs that end in a virama or a nukta, unknown code
        points, runs split by one space or one Latin letter), and
        transliterate_with_count runs once per distinct run."""
        text = "".join(parts)
        romanized, unknown = translit.transliterate_with_count(text)
        expected = (clean_text(romanized, CleanConfig.for_language("hindi")), unknown)
        prep = PreprocessSettings(clean=CleanConfig.for_language("hindi"), transliterate=True)
        calls = []

        def counted(run):
            calls.append(run)
            return translit.transliterate_with_count(run)

        with mock.patch.object(preprocess, "transliterate_with_count", counted):
            assert prep.apply_with_stats(text) == expected
            assert prep.apply_with_stats(text) == expected
        runs = re.findall("[\u0900-\u097f]+", text)
        assert sorted(calls) == sorted(set(runs))
        fresh = PreprocessSettings(clean=CleanConfig.for_language("hindi"), transliterate=True)
        assert fresh._romanized == {}
        assert fresh == prep and repr(fresh) == repr(prep)
