import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from aggdetect import preprocess, translit
from aggdetect.errors import ResourceError
from aggdetect.preprocess import (
    CleanConfig,
    PreprocessSettings,
    SpellDictionary,
    clean_text,
    load_spell_dictionary,
    save_spell_dictionary,
    spell_correct,
)

from helpers import edits1, reference_candidates, reference_spell_correct


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
        loaded = load_spell_dictionary(path)
        assert loaded.entries == d.entries

    def test_rows_that_lowercase_alike_are_summed(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("Dog\t2\n\ncat\t1\n \t \nDOG\t3\ndog\t+4\nCat\t 1\n", encoding="utf-8")
        loaded = load_spell_dictionary(path)
        assert list(loaded.entries.items()) == [("dog", 9), ("cat", 2)]

    def test_rejects_bad_rows(self, tmp_path):
        """The first faulty row is named, also after rows that differ only
        in case, which the loader merges."""
        path = tmp_path / "dict.tsv"
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
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ResourceError, match=re.escape(f"{path}: {message}")):
                load_spell_dictionary(path)


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
