import base64
import os
import re
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import aggdetect
from aggdetect import cli, featurize, kernels, preprocess
from aggdetect.cli import main
from aggdetect.corpus_io import Label, load_corpus, load_predictions
from aggdetect.errors import ResourceError
from aggdetect.featurize import FeatureBlockSpec, FeaturePipeline
from aggdetect.model import load_model, save_model, train_ovr

from helpers import (
    RESOURCE_CONFIG_KEYS,
    reference_candidates,
    reference_model_text_v2,
    synthetic_documents,
    train_library,
    write_corpus_tsv,
    write_embeddings,
    write_lines,
    write_resource_run,
)


@pytest.fixture
def toy_corpus(tmp_path):
    rows = synthetic_documents(n_per_class=12, seed=3)
    return write_corpus_tsv(tmp_path / "train.tsv", rows), rows


@pytest.fixture
def basic_config(tmp_path):
    return write_lines(
        tmp_path / "run.cfg",
        ["language = english", "blocks = U", "min_df = 1", "max_iters = 150"],
    )


def run(argv):
    return main(argv)


class TestBuildDict:
    def test_counts_cleaned_tokens(self, tmp_path):
        corpus = write_corpus_tsv(
            tmp_path / "c.tsv",
            [("a", "a a b", Label.NAG), ("b", "A b", Label.OAG)],
        )
        out = tmp_path / "dict.tsv"
        assert run(["build-dict", str(corpus), str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "a\t3\nb\t2\n"

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "c.tsv"
        corpus.write_text("", encoding="utf-8")
        out = tmp_path / "dict.tsv"
        assert run(["build-dict", str(corpus), str(out)]) == 0
        assert out.read_text(encoding="utf-8") == ""

    def test_mixed_case_keys_lowercased(self, tmp_path):
        corpus = write_corpus_tsv(tmp_path / "c.tsv", [("a", "DoG dog", Label.NAG)])
        out = tmp_path / "dict.tsv"
        run(["build-dict", str(corpus), str(out)])
        assert out.read_text(encoding="utf-8") == "dog\t2\n"

    @pytest.mark.parametrize("language, expected", [
        ("hindi", "gussaa\t1\nshaanta\t2\nyaars\t1\n"),
        # English keeps Devanagari as it is and strips the plural s
        ("english", "yaar\t1\nगुस्सा\t1\nशांत\t2\n"),
    ])
    def test_language_sets_the_preprocessing(self, tmp_path, language, expected):
        corpus = write_corpus_tsv(
            tmp_path / "c.tsv", [("a", "शांत yaars", Label.NAG), ("b", "गुस्सा शांत", Label.OAG)]
        )
        out = tmp_path / "dict.tsv"
        assert run(["build-dict", str(corpus), str(out), "--language", language]) == 0
        assert out.read_text(encoding="utf-8") == expected


class TestTrain:
    def test_writes_model_and_reports_validation(
        self, tmp_path, toy_corpus, basic_config, capsys
    ):
        corpus_path, rows = toy_corpus
        val_path = write_corpus_tsv(tmp_path / "val.tsv", synthetic_documents(4, seed=99))
        model_path = tmp_path / "model.txt"
        code = run([
            "train", str(corpus_path), str(model_path),
            "--config", str(basic_config), "--validation", str(val_path),
        ])
        assert code == 0
        assert model_path.is_file()
        out = capsys.readouterr().out
        assert "validation_weighted_f1\t" in out
        value = float(out.split("validation_weighted_f1\t")[1].split()[0])
        assert 0.0 <= value <= 1.0

    def test_training_matrix_is_freed_before_validation(
        self, tmp_path, toy_corpus, basic_config, monkeypatch
    ):
        """train releases the training matrix when train_ovr returns, so the
        validation corpus is not preprocessed and featurized beside it."""
        corpus_path, _rows = toy_corpus
        val_path = write_corpus_tsv(tmp_path / "val.tsv", synthetic_documents(4, seed=99))
        matrices, alive = [], {}
        real_train_ovr, real_preprocess = cli.train_ovr, cli.preprocess_corpus
        real_transform_many = FeaturePipeline.transform_many

        def recording_train_ovr(X, *args, **kwargs):
            matrices.append(weakref.ref(X))
            return real_train_ovr(X, *args, **kwargs)

        def recording_preprocess(corpus, settings):
            alive.setdefault("preprocess", []).append([m() is not None for m in matrices])
            return real_preprocess(corpus, settings)

        def recording_transform_many(self, documents):
            alive.setdefault("transform_many", []).append([m() is not None for m in matrices])
            return real_transform_many(self, documents)

        monkeypatch.setattr(cli, "train_ovr", recording_train_ovr)
        monkeypatch.setattr(cli, "preprocess_corpus", recording_preprocess)
        monkeypatch.setattr(FeaturePipeline, "transform_many", recording_transform_many)
        assert run(["train", str(corpus_path), str(tmp_path / "model.txt"),
                    "--config", str(basic_config), "--validation", str(val_path)]) == 0
        # training corpus before the matrix exists, then validation after it is gone
        assert alive == {"preprocess": [[], [False]], "transform_many": [[False]]}

    def test_merge_validation_logs_counts(self, tmp_path, toy_corpus, basic_config, caplog):
        corpus_path, _rows = toy_corpus
        # merged ids must be unique: the validation ids differ from the "doc*" ones
        val_rows = [(f"val{i}", text, label)
                    for i, (_id, text, label) in enumerate(synthetic_documents(2, seed=5))]
        val_path = write_corpus_tsv(tmp_path / "val.tsv", val_rows)
        model_path = tmp_path / "model.txt"
        with caplog.at_level("INFO", logger="aggdetect"):
            code = run([
                "train", str(corpus_path), str(model_path),
                "--config", str(basic_config),
                "--validation", str(val_path), "--merge-validation",
            ])
        assert code == 0
        assert "36 train + 6 validation = 42 documents" in caplog.text
        assert load_model(model_path).n_train_documents == 42

    def test_merge_validation_refuses_an_id_in_both_corpora(
        self, tmp_path, toy_corpus, basic_config, capsys
    ):
        corpus_path, _rows = toy_corpus
        val_path = write_corpus_tsv(tmp_path / "val.tsv", [
            ("val0", "calm0 noise0", Label.NAG), ("doc3", "rage0 noise1", Label.OAG),
        ])
        model_path = tmp_path / "model.txt"
        assert run(["train", str(corpus_path), str(model_path), "--config", str(basic_config),
                    "--validation", str(val_path), "--merge-validation"]) == 2
        assert "document id 'doc3' is in both" in capsys.readouterr().err
        assert not model_path.exists()

    def test_missing_resource_fails_fast(self, tmp_path, toy_corpus):
        corpus_path, _rows = toy_corpus
        config = write_lines(
            tmp_path / "bad.cfg",
            ["language = english", "blocks = U+W2V", "embeddings = missing.vec"],
        )
        model_path = tmp_path / "model.txt"
        code = run(["train", str(corpus_path), str(model_path), "--config", str(config)])
        assert code == 3
        assert not model_path.exists()

    def test_unknown_block_is_usage_error(self, tmp_path, toy_corpus):
        corpus_path, _rows = toy_corpus
        config = write_lines(tmp_path / "bad.cfg", ["blocks = U+XX"])
        assert run(["train", str(corpus_path), str(tmp_path / "m.txt"),
                    "--config", str(config)]) == 1

    def test_hindi_rejects_english_only_blocks(self, tmp_path, toy_corpus):
        corpus_path, _rows = toy_corpus
        config = write_lines(tmp_path / "bad.cfg", ["language = hindi", "blocks = U+LIWC"])
        assert run(["train", str(corpus_path), str(tmp_path / "m.txt"),
                    "--config", str(config)]) == 1

    def test_seed_is_usage_error(self, tmp_path, toy_corpus, basic_config, capsys):
        corpus_path, _rows = toy_corpus
        config = write_lines(tmp_path / "bad.cfg", ["blocks = U", "seed = 3"])
        assert run(["train", str(corpus_path), str(tmp_path / "m.txt"),
                    "--config", str(config)]) == 1
        assert "unknown config key 'seed'" in capsys.readouterr().err
        assert run(["train", str(corpus_path), str(tmp_path / "m.txt"),
                    "--config", str(basic_config), "--seed", "3"]) == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("validation", [[], ["--validation", "val.tsv", "--merge-validation"]],
                             ids=["none", "merged"])
    def test_report_dir_without_a_scored_validation_is_usage_error(
        self, tmp_path, toy_corpus, basic_config, capsys, validation
    ):
        """No validation is scored, so no report would be written."""
        corpus_path, _rows = toy_corpus
        write_corpus_tsv(tmp_path / "val.tsv", synthetic_documents(2, seed=5))
        validation = [str(tmp_path / arg) if arg == "val.tsv" else arg for arg in validation]
        model_path = tmp_path / "model.txt"
        assert run(["train", str(corpus_path), str(model_path), "--config", str(basic_config),
                    "--report-dir", str(tmp_path / "report"), *validation]) == 1
        assert "--report-dir requires a validation corpus" in capsys.readouterr().err
        assert not model_path.exists() and not (tmp_path / "report").exists()

    def test_learning_rate_is_usage_error(self, tmp_path, toy_corpus, capsys):
        corpus_path, _rows = toy_corpus
        config = write_lines(tmp_path / "bad.cfg", ["blocks = U", "learning_rate = 0.5"])
        assert run(["train", str(corpus_path), str(tmp_path / "m.txt"),
                    "--config", str(config)]) == 1
        assert "unknown config key 'learning_rate'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["reg_lambda", "grad_tol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_solver_setting_is_usage_error(
        self, tmp_path, toy_corpus, capsys, key, value
    ):
        corpus_path, _rows = toy_corpus
        config = write_lines(tmp_path / "bad.cfg", ["blocks = U", f"{key} = {value}"])
        model_path = tmp_path / "m.txt"
        assert run(["train", str(corpus_path), str(model_path),
                    "--config", str(config)]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("key, value", [
        ("reg_lambda", "abc"), ("grad_tol", "abc"), ("min_df", "2.5"), ("max_iters", "x"),
        ("intensity_split", "y"),
    ])
    def test_non_numeric_config_value_is_usage_error(
        self, tmp_path, toy_corpus, capsys, key, value
    ):
        corpus_path, _rows = toy_corpus
        config = write_lines(tmp_path / "bad.cfg", ["blocks = U", f"{key} = {value}"])
        model_path = tmp_path / "m.txt"
        assert run(["train", str(corpus_path), str(model_path),
                    "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: config key '{key}' must be" in err
        assert f"got '{value}'" in err
        assert not model_path.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5"])
    def test_intensity_split_outside_unit_interval_is_usage_error(
        self, tmp_path, toy_corpus, capsys, value
    ):
        """nan used to fail training as a data error blaming the corpus, and
        1.5 trained with negative sentiment masses."""
        corpus_path, _rows = toy_corpus
        config = write_lines(tmp_path / "bad.cfg", ["blocks = U", f"intensity_split = {value}"])
        model_path = tmp_path / "m.txt"
        assert run(["train", str(corpus_path), str(model_path),
                    "--config", str(config)]) == 1
        assert (f"usage error: config key 'intensity_split' must be in [0, 1], got '{value}'"
                in capsys.readouterr().err)
        assert not model_path.exists()

    def test_logs_stop_reason_and_warns_when_not_converged(
        self, tmp_path, toy_corpus, basic_config, caplog
    ):
        corpus_path, _rows = toy_corpus
        with caplog.at_level("INFO", logger="aggdetect"):
            assert run(["train", str(corpus_path), str(tmp_path / "m1.txt"),
                        "--config", str(basic_config)]) == 0
        assert caplog.text.count("stopped by grad_tol") == 3
        assert not [r for r in caplog.records if r.levelname == "WARNING"]
        caplog.clear()
        capped = write_lines(tmp_path / "capped.cfg", ["blocks = U", "min_df = 1", "max_iters = 1"])
        with caplog.at_level("INFO", logger="aggdetect"):
            assert run(["train", str(corpus_path), str(tmp_path / "m2.txt"),
                        "--config", str(capped)]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 3
        assert all("did not converge: stopped by max_iters" in w for w in warnings)

    def test_byte_identical_model_files(self, tmp_path, toy_corpus, basic_config):
        corpus_path, _rows = toy_corpus
        m1, m2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        assert run(["train", str(corpus_path), str(m1), "--config", str(basic_config)]) == 0
        assert run(["train", str(corpus_path), str(m2), "--config", str(basic_config)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_featurizes_each_document_once(self, tmp_path, toy_corpus, monkeypatch):
        corpus_path, rows = toy_corpus
        val_rows = synthetic_documents(4, seed=99)
        val_path = write_corpus_tsv(tmp_path / "val.tsv", val_rows)
        config_path = write_lines(
            tmp_path / "run.cfg",
            ["language = english", "blocks = U+BU+C3+SK2", "min_df = 2", "max_iters = 150"],
        )
        calls = []
        real_tokenize = featurize.tokenize

        def counting_tokenize(text):
            calls.append(text)
            return real_tokenize(text)

        monkeypatch.setattr(featurize, "tokenize", counting_tokenize)
        model_path = tmp_path / "model.txt"
        assert run(["train", str(corpus_path), str(model_path), "--config", str(config_path),
                    "--validation", str(val_path)]) == 0
        assert len(calls) == len(rows) + len(val_rows)
        monkeypatch.undo()

        # the library path: fit, transform_many, train_ovr, save_model
        library_path = tmp_path / "library.txt"
        save_model(train_library(corpus_path, config_path), library_path)
        assert model_path.read_bytes() == library_path.read_bytes()

    def test_embedding_coverage_only_computed_when_logged(
        self, tmp_path, monkeypatch, caplog
    ):
        rows = [("a", "calm day here", Label.NAG), ("b", "rage day", Label.OAG),
                ("c", "sly calm calm", Label.CAG)]
        corpus_path = write_corpus_tsv(tmp_path / "train.tsv", rows)
        emb_path = write_embeddings(tmp_path / "emb.vec", {"calm": [1.0, 0.0], "day": [0.0, 1.0]})
        config = write_lines(
            tmp_path / "w2v.cfg",
            ["language = english", "blocks = U+W2V", "min_df = 1", "max_iters = 50",
             f"embeddings = {emb_path.name}"],
        )
        calls = []
        real_coverage = cli._embedding_coverage

        def counting_coverage(documents, resources):
            calls.append(len(documents))
            return real_coverage(documents, resources)

        monkeypatch.setattr(cli, "_embedding_coverage", counting_coverage)
        argv = ["train", str(corpus_path), str(tmp_path / "m.txt"), "--config", str(config)]
        with caplog.at_level("INFO", logger="aggdetect"):
            assert run(["--quiet", *argv]) == 0
        assert calls == []
        assert "embedding coverage" not in caplog.text
        with caplog.at_level("INFO", logger="aggdetect"):
            assert run(argv) == 0
        assert calls == [3]
        # 5 of the 8 training tokens have a vector
        assert "embedding coverage: 62.5% of training tokens" in caplog.text

    @pytest.mark.parametrize("block, key", [
        ("W2V", "embeddings"), ("LIWC", "liwc_lexicon"), ("GP", "gender_lexicon"),
    ])
    def test_dense_block_without_its_file_is_usage_error(
        self, tmp_path, toy_corpus, capsys, block, key
    ):
        corpus_path, _rows = toy_corpus
        config = write_lines(tmp_path / "bad.cfg", ["language = english", f"blocks = U+{block}"])
        assert run(["train", str(corpus_path), str(tmp_path / "m.txt"),
                    "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"block {block} requires" in err and repr(key) in err

    @pytest.mark.parametrize("switch", preprocess.CLEAN_SWITCHES)
    def test_clean_switch_reaches_the_model(self, tmp_path, toy_corpus, switch):
        corpus_path, _rows = toy_corpus
        config = write_lines(tmp_path / "run.cfg", [
            "language = english", "blocks = U", "min_df = 1", "max_iters = 30",
            f"{switch} = false", 'expansions = {"zz": "sleep"}',
        ])
        model_path = tmp_path / "model.txt"
        assert run(["train", str(corpus_path), str(model_path), "--config", str(config)]) == 0
        clean = load_model(model_path).preprocess.clean
        assert clean == cli.load_run_config(config).clean_config()
        assert clean == preprocess.CleanConfig(**{switch: False}, expansions={"zz": "sleep"})

    @pytest.mark.parametrize("lines, key, first, second", [
        (["blocks = U", "blocks = C3"], "blocks", 1, 2),
        (["preset = hindi-best", "# a comment", "", "min_df = 1", "preset = english-best"],
         "preset", 1, 5),
    ])
    def test_repeated_config_key_is_usage_error(
        self, tmp_path, toy_corpus, capsys, lines, key, first, second
    ):
        corpus_path, _rows = toy_corpus
        config = write_lines(tmp_path / "bad.cfg", lines)
        model_path = tmp_path / "m.txt"
        assert run(["train", str(corpus_path), str(model_path), "--config", str(config)]) == 1
        assert f"config key {key!r} is given twice, on lines {first} and {second}" in (
            capsys.readouterr().err
        )
        assert not model_path.exists()

    def test_file_keys_override_preset_keys(self, tmp_path):
        config = write_lines(tmp_path / "run.cfg",
                             ["blocks = U", "preset = hindi-system-2", "lowercase = false"])
        loaded = cli.load_run_config(config)
        assert (loaded.language, loaded.blocks, loaded.merge_validation) == ("hindi", ["U"], True)
        assert loaded.clean_config() == preprocess.CleanConfig(
            lowercase=False, minor_stemming=False, expansions={}
        )

    def test_preset_config(self, tmp_path, toy_corpus):
        corpus_path, _rows = toy_corpus
        config = write_lines(
            tmp_path / "preset.cfg",
            ["preset = hindi-system-1", "min_df = 1", "max_iters = 30"],
        )
        model_path = tmp_path / "model.txt"
        assert run(["train", str(corpus_path), str(model_path),
                    "--config", str(config)]) == 0
        model = load_model(model_path)
        assert model.language == "hindi"
        assert [s.name for s in model.pipeline.blocks] == ["U", "C3", "C4", "C5"]


class TestPredict:
    def train_model(self, tmp_path, corpus_path, config_path):
        model_path = tmp_path / "model.txt"
        assert run(["train", str(corpus_path), str(model_path),
                    "--config", str(config_path)]) == 0
        return model_path

    def test_converged_model_reproduces_gold(self, tmp_path, toy_corpus, basic_config):
        corpus_path, rows = toy_corpus
        model_path = self.train_model(tmp_path, corpus_path, basic_config)
        out = tmp_path / "pred.tsv"
        assert run(["predict", str(model_path), str(corpus_path), str(out)]) == 0
        predictions = load_predictions(out)
        gold = {doc_id: label for doc_id, _text, label in rows}
        agreement = sum(predictions[i] == gold[i] for i in gold) / len(gold)
        assert agreement == 1.0

    def test_empty_text_gets_bias_argmax(self, tmp_path, toy_corpus, basic_config):
        corpus_path, _rows = toy_corpus
        model_path = self.train_model(tmp_path, corpus_path, basic_config)
        model = load_model(model_path)
        biases = [clf.bias for clf in model.classifiers]
        expected = [Label.NAG, Label.CAG, Label.OAG][
            max(range(3), key=lambda i: biases[i])
        ]
        empty = write_corpus_tsv(tmp_path / "empty.tsv", [("e1", "", Label.NAG)])
        out = tmp_path / "pred.tsv"
        assert run(["predict", str(model_path), str(empty), str(out)]) == 0
        assert load_predictions(out)["e1"] == expected

    @pytest.mark.parametrize("pattern, replacement, section", [
        (r"^calm0\t\d+$", "calm0\tx", "vocab:U"),
        (r"^bias = .*$", "bias = nope", "weights:NAG"),
    ])
    def test_corrupted_number_in_model_is_resource_error(
        self, tmp_path, toy_corpus, basic_config, capsys, pattern, replacement, section
    ):
        corpus_path, _rows = toy_corpus
        model_path = self.train_model(tmp_path, corpus_path, basic_config)
        text, n = re.subn(pattern, replacement, model_path.read_text(encoding="utf-8"),
                          count=1, flags=re.M)
        assert n == 1
        model_path.write_text(text, encoding="utf-8")
        assert run(["predict", str(model_path), str(corpus_path), str(tmp_path / "p.tsv")]) == 3
        err = capsys.readouterr().err
        assert f"resource error: {model_path}: bad value in [{section}]" in err

    @pytest.mark.parametrize("pattern, replacement, message", [
        (r"^calm0\t\d+$", "calm0\t-1", "document frequency outside 1..36 in [vocab:U]"),
        (r"^calm0\t\d+$", "calm0\t-5", "document frequency outside 1..36 in [vocab:U]"),
        (r"^calm0\t\d+$", "calm0\t99999", "document frequency outside 1..36 in [vocab:U]"),
        (r"^n_documents = \d+$", "n_documents = 99999999999999999999",
         "bad value in [block:U]: 'n_documents = 99999999999999999999'"),
        (r"^bias = .*$", "bias = inf", "bad value in [weights:NAG]: 'bias = inf'"),
        (r"^total_dimension = \d+$", "total_dimension = 2147483648",
         "bad value in [meta]: 'total_dimension = 2147483648'"),
    ])
    def test_bad_number_in_model_exits_3(
        self, tmp_path, toy_corpus, basic_config, capsys, pattern, replacement, message
    ):
        """Numbers save_model cannot have written: a document frequency
        outside 1..n_documents (a crash or a negative idf before) and a
        non-finite bias (a confident NAG before)."""
        corpus_path, _rows = toy_corpus
        model_path = self.train_model(tmp_path, corpus_path, basic_config)
        text, n = re.subn(pattern, replacement, model_path.read_text(encoding="utf-8"),
                          count=1, flags=re.M)
        assert n == 1
        model_path.write_text(text, encoding="utf-8")
        assert run(["predict", str(model_path), str(corpus_path), str(tmp_path / "p.tsv")]) == 3
        assert f"resource error: {model_path}: {message}" in capsys.readouterr().err

    def test_total_dimension_is_checked_against_the_blocks_below_2_31(
        self, tmp_path, toy_corpus, basic_config, capsys
    ):
        """A model's rows have int32 indices, so 2**31 is refused as it is
        read; 2**31 - 1 passes that check and fails the next one."""
        corpus_path, _rows = toy_corpus
        model_path = self.train_model(tmp_path, corpus_path, basic_config)
        text = model_path.read_text(encoding="utf-8")
        model_path.write_text(re.sub(r"^total_dimension = \d+$", "total_dimension = 2147483647",
                                     text, flags=re.M), encoding="utf-8")
        assert run(["predict", str(model_path), str(corpus_path), str(tmp_path / "p.tsv")]) == 3
        assert "does not match recorded total_dimension 2147483647" in capsys.readouterr().err

    @pytest.mark.parametrize("pattern, replacement, section", [
        (r"^kind = word_ngram$", "kind = bogus", "block:U"),
        (r"^n = 4$", "n = 7", "block:C4"),
        (r"^min_df = 1$", "min_df = 0", "block:U"),
        (r"^blocks = U,C4,C5$", "blocks = U,U,C4,C5", "pipeline"),
    ])
    def test_bad_block_entry_in_model_exits_3(
        self, tmp_path, toy_corpus, capsys, pattern, replacement, section
    ):
        """Block entries that FeatureBlockSpec or FeaturePipeline refuse are
        faults of the model file, not usage errors."""
        corpus_path, _rows = toy_corpus
        config = write_lines(tmp_path / "run.cfg",
                             ["language = english", "blocks = U+C4+C5", "min_df = 1"])
        model_path = self.train_model(tmp_path, corpus_path, config)
        text, n = re.subn(pattern, replacement, model_path.read_text(encoding="utf-8"),
                          count=1, flags=re.M)
        assert n == 1
        model_path.write_text(text, encoding="utf-8")
        assert run(["predict", str(model_path), str(corpus_path), str(tmp_path / "p.tsv")]) == 3
        err = capsys.readouterr().err
        assert f"resource error: {model_path}: bad entry in [{section}]" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5", "1.5"])
    def test_intensity_split_outside_unit_interval_in_model_exits_3(
        self, tmp_path, capsys, value
    ):
        """A nan split used to predict NAG for every document."""
        corpus_path, config, _files = write_resource_run(tmp_path)
        model_path = self.train_model(tmp_path, corpus_path, config)
        text = model_path.read_text(encoding="utf-8")
        assert text.count("intensity_split = 0.7\n") == 1
        model_path.write_text(text.replace("intensity_split = 0.7", f"intensity_split = {value}"),
                              encoding="utf-8")
        assert run(["predict", str(model_path), str(corpus_path), str(tmp_path / "p.tsv")]) == 3
        assert (f"resource error: {model_path}: bad value in [block:S]: "
                f"'intensity_split = {value}'" in capsys.readouterr().err)

    @pytest.mark.parametrize("fault, message", [
        ("character", "weights block in [weights:NAG] is not base64"),
        ("short", "weights block in [weights:NAG] holds {short} bytes, not the {size}"),
        ("long", "weights block in [weights:NAG] holds {long} bytes, not the {size}"),
        ("nan", "non-finite weight at index 3 in [weights:NAG]"),
        ("inf", "non-finite weight at index 3 in [weights:NAG]"),
        ("missing", "weights block in [weights:NAG] holds 0 bytes, not the {size}"),
    ])
    def test_bad_weights_block_exits_3(
        self, tmp_path, toy_corpus, basic_config, capsys, fault, message
    ):
        """A weights block must be base64 of exactly total_dimension finite
        float64 values."""
        corpus_path, _rows = toy_corpus
        model_path = self.train_model(tmp_path, corpus_path, basic_config)
        text = model_path.read_text(encoding="utf-8")
        head, rest = text.split("[weights:NAG]\n")
        body, tail = rest.split("[weights:CAG]\n")
        keys = "".join(line + "\n" for line in body.splitlines() if " = " in line)
        weights = load_model(model_path).classifiers[0].weights
        values = {"short": weights[:-1], "long": np.append(weights, 0.5),
                  "nan": np.where(np.arange(weights.size) == 3, np.nan, weights),
                  "inf": np.where(np.arange(weights.size) == 3, np.inf, weights),
                  "missing": weights[:0]}.get(fault, weights)
        block = base64.encodebytes(values.astype("<f8").tobytes()).decode("ascii")
        if fault == "character":
            block = block[:40] + "*" + block[41:]
        model_path.write_text(f"{head}[weights:NAG]\n{keys}{block}[weights:CAG]\n{tail}",
                              encoding="utf-8")
        assert run(["predict", str(model_path), str(corpus_path), str(tmp_path / "p.tsv")]) == 3
        size = 8 * weights.size
        message = message.format(short=size - 8, long=size + 8, size=size)
        assert f"resource error: {model_path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("expansions", [
        "[1, 2]", '"str"', '{"u": 5}', '{"u": null}',
        '{"x": "123"}', '{"k": "Dogs"}', '{"w": "www.x.org"}', '{"m": "a@b.de"}',
        '{"a": "b", "b": "a"}',
    ])
    def test_bad_expansions_refused_in_config_and_model(
        self, tmp_path, toy_corpus, basic_config, capsys, expansions
    ):
        """Expansions that are not strings to strings, or under which
        cleaning would not be idempotent: a usage error in a run config
        (no model written), a resource error in a model file."""
        corpus_path, _rows = toy_corpus
        config = write_lines(tmp_path / "bad.cfg", [
            *basic_config.read_text(encoding="utf-8").splitlines(),
            f"expansions = {expansions}",
        ])
        bad_model = tmp_path / "bad.txt"
        assert run(["train", str(corpus_path), str(bad_model), "--config", str(config)]) == 1
        assert "usage error: expansions" in capsys.readouterr().err
        assert not bad_model.exists()

        model_path = self.train_model(tmp_path, corpus_path, basic_config)
        text, n = re.subn(r"^expansions = .*$", lambda _m: f"expansions = {expansions}",
                          model_path.read_text(encoding="utf-8"), count=1, flags=re.M)
        assert n == 1
        model_path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", str(model_path), str(corpus_path), str(tmp_path / "p.tsv")]) == 3
        assert (f"resource error: {model_path}: bad entry in [preprocess]: expansions"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("transliterate, code", [("true", 3), ("false", 0)])
    def test_other_translit_table_version_exits_3_when_transliterating(
        self, tmp_path, toy_corpus, capsys, transliterate, code
    ):
        """A model that transliterates with a table this build does not
        have cannot replay its preprocessing; one that does not
        transliterate never reads the table."""
        corpus_path, _rows = toy_corpus
        config = write_lines(tmp_path / "run.cfg", [
            "language = english", "blocks = U", "min_df = 1", "max_iters = 5",
            f"transliterate = {transliterate}",
        ])
        model_path = self.train_model(tmp_path, corpus_path, config)
        text = model_path.read_text(encoding="utf-8")
        assert "\ntranslit_table_version = 1\n" in text
        model_path.write_text(text.replace("\ntranslit_table_version = 1\n",
                                           "\ntranslit_table_version = 2\n"), encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", str(model_path), str(corpus_path), str(tmp_path / "p.tsv")]) == code
        if code:
            assert (f"resource error: {model_path}: bad value in [preprocess]: "
                    "'translit_table_version = 2'" in capsys.readouterr().err)

    def test_loaded_model_starts_with_empty_memos(self, tmp_path, toy_corpus, basic_config):
        corpus_path, _rows = toy_corpus
        model = load_model(self.train_model(tmp_path, corpus_path, basic_config))
        assert model.preprocess._rewrites == {} and model.preprocess._romanized == {}
        model.preprocess.apply("u dogs")
        assert model.preprocess._rewrites == {"u": "you", "dogs": "dog"}

    def test_version_1_file_exits_3(self, tmp_path, toy_corpus, capsys):
        """Format 1, whose weight sections list each nonzero weight as an
        index<TAB>value row after an nnz line, is no longer read."""
        corpus_path, _rows = toy_corpus
        weights = "".join(
            f"[weights:{name}]\nbias = -0.5\nreg_lambda = 1.0\niterations = 8\n"
            f"final_grad_norm = 1e-07\nnnz = 1\n{index}\t1.5\n"
            for name, index in (("NAG", 0), ("CAG", 2), ("OAG", 1))
        )
        model_path = write_lines(tmp_path / "v1.txt", [
            "aggdetect-model 1",
            "[meta]", "language = english", "labels = NAG,CAG,OAG", "n_train_documents = 3",
            "merged_validation = false", "single_class_warning = false",
            "total_dimension = 3",
            "[preprocess]", "lowercase = true", "strip_urls = true", "strip_emails = true",
            "strip_numbers = true", "minor_stemming = true", "expansions = {}",
            "transliterate = false", "translit_table_version = 1", "spell_correct = false",
            "[pipeline]", "blocks = U",
            "[block:U]", "kind = word_ngram", "n = 1", "min_df = 1", "offset = 0",
            "dimension = 3", "n_documents = 3",
            "[vocab:U]", "calm0\t1", "rage0\t1", "sly0\t1",
            weights.rstrip("\n"),
        ])
        message = (f"resource error: {model_path}: not a recognized model file "
                   "(expected header 'aggdetect-model 2')")
        for argv in (["predict", str(model_path), str(corpus_path), str(tmp_path / "p.tsv")],
                     ["inspect", str(model_path)]):
            assert run(argv) == 3
            assert message in capsys.readouterr().err

    def test_unlabeled_corpus_accepted(self, tmp_path, toy_corpus, basic_config):
        corpus_path, _rows = toy_corpus
        model_path = self.train_model(tmp_path, corpus_path, basic_config)
        unlabeled = tmp_path / "unlabeled.tsv"
        unlabeled.write_text("x1\tcalm0 word2\nx2\trage4 word3\n", encoding="utf-8")
        out = tmp_path / "pred.tsv"
        assert run(["predict", str(model_path), str(unlabeled), str(out),
                    "--unlabeled"]) == 0
        assert set(load_predictions(out)) == {"x1", "x2"}


class TestEvaluate:
    def write_gold_and_preds(self, tmp_path, shuffle=False):
        rows = synthetic_documents(3, seed=1)
        gold_path = write_corpus_tsv(tmp_path / "gold.tsv", rows)
        pred_rows = [f"{doc_id}\t{label.name}" for doc_id, _t, label in rows]
        if shuffle:
            pred_rows = pred_rows[::-1]
        pred_path = write_lines(tmp_path / "pred.tsv", pred_rows)
        return gold_path, pred_path

    def test_gold_predictions_score_one(self, tmp_path, capsys):
        gold_path, pred_path = self.write_gold_and_preds(tmp_path)
        out_dir = tmp_path / "report"
        assert run(["evaluate", str(gold_path), str(pred_path), str(out_dir)]) == 0
        assert "weighted_f1\t1.0000" in capsys.readouterr().out
        assert (out_dir / "metrics.tsv").is_file()
        assert (out_dir / "confusion.svg").is_file()

    def test_prediction_order_does_not_matter(self, tmp_path, capsys):
        gold_path, pred_path = self.write_gold_and_preds(tmp_path, shuffle=True)
        assert run(["evaluate", str(gold_path), str(pred_path),
                    str(tmp_path / "report")]) == 0
        assert "weighted_f1\t1.0000" in capsys.readouterr().out

    def test_missing_id_is_a_data_error(self, tmp_path, capsys):
        gold_path, pred_path = self.write_gold_and_preds(tmp_path)
        lines = pred_path.read_text(encoding="utf-8").splitlines()
        pred_path.write_text("".join(l + "\n" for l in lines[1:]), encoding="utf-8")
        code = run(["evaluate", str(gold_path), str(pred_path), str(tmp_path / "r")])
        assert code == 2
        assert "doc0" in capsys.readouterr().err

    def test_baseline_row(self, tmp_path, capsys):
        gold_path, pred_path = self.write_gold_and_preds(tmp_path)
        out_dir = tmp_path / "report"
        assert run(["evaluate", str(gold_path), str(pred_path), str(out_dir),
                    "--baseline", "trials=50", "seed=3"]) == 0
        metrics = (out_dir / "metrics.tsv").read_text(encoding="utf-8")
        assert "random_baseline_weighted_f1" in metrics

    def test_seed_flag_sets_the_baseline_seed(self, tmp_path, caplog):
        gold_path, pred_path = self.write_gold_and_preds(tmp_path)
        with caplog.at_level("INFO", logger="aggdetect"):
            assert run(["evaluate", str(gold_path), str(pred_path), str(tmp_path / "r"),
                        "--baseline", "trials=5", "--seed", "2"]) == 0
        assert "5 trials, seed 2)" in caplog.text

    def test_seed_flag_and_baseline_seed_is_usage_error(self, tmp_path, capsys):
        gold_path, pred_path = self.write_gold_and_preds(tmp_path)
        out_dir = tmp_path / "report"
        assert run(["evaluate", str(gold_path), str(pred_path), str(out_dir),
                    "--baseline", "trials=5", "seed=1", "--seed", "2"]) == 1
        err = capsys.readouterr().err
        assert "--seed 2" in err and "--baseline seed=1" in err
        assert not out_dir.exists()

    def test_seed_without_baseline_is_usage_error(self, tmp_path, capsys):
        gold_path, pred_path = self.write_gold_and_preds(tmp_path)
        out_dir = tmp_path / "report"
        assert run(["evaluate", str(gold_path), str(pred_path), str(out_dir),
                    "--seed", "3"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out_dir.exists()


class TestInspect:
    def test_three_columns(self, tmp_path, toy_corpus, basic_config, capsys):
        corpus_path, _rows = toy_corpus
        model_path = tmp_path / "model.txt"
        run(["train", str(corpus_path), str(model_path), "--config", str(basic_config)])
        capsys.readouterr()
        assert run(["inspect", str(model_path), "--top", "5"]) == 0
        table, _convergence = capsys.readouterr().out.split("\n\n")
        lines = table.strip().splitlines()
        assert lines[0] == "NAG\tCAG\tOAG"
        assert len(lines) == 6
        assert all(len(line.split("\t")) == 3 for line in lines[1:])
        # class-exclusive signal words should surface as top unigrams
        assert any(cell.startswith("unigram_calm") for cell in
                   (line.split("\t")[0] for line in lines[1:]))


    @pytest.mark.parametrize("recorded", [False, True])
    def test_convergence_per_class(self, tmp_path, toy_corpus, basic_config, capsys, recorded):
        """Each class's convergence, and "-" for what the file does not
        record, as for a hand-built classifier."""
        corpus_path, _rows = toy_corpus
        model_path = tmp_path / "model.txt"
        run(["train", str(corpus_path), str(model_path), "--config", str(basic_config)])
        model = load_model(model_path)
        if not recorded:
            text, n = re.subn(r"^(stop_reason|final_loss) = .*\n", "",
                              model_path.read_text(encoding="utf-8"), flags=re.M)
            assert n == 6
            model_path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run(["--quiet", "inspect", str(model_path), "--top", "1"]) == 0
        _table, convergence = capsys.readouterr().out.split("\n\n")
        lines = convergence.splitlines()
        assert lines[:2] == ["format\taggdetect-model 2",
                             "class\titerations\tstop_reason\tfinal_loss\tfinal_grad_norm"]
        assert len(lines) == 5
        for line, label, clf in zip(lines[2:], Label, model.classifiers):
            name, iterations, stop_reason, final_loss, grad_norm = line.split("\t")
            assert (name, int(iterations)) == (label.name, clf.iterations)
            assert float(grad_norm) == pytest.approx(clf.final_grad_norm, rel=1e-2)
            if not recorded:
                assert (stop_reason, final_loss) == ("-", "-")
            else:
                assert stop_reason == clf.stop_reason == "grad_tol"
                assert float(final_loss) == pytest.approx(clf.final_loss, rel=1e-5)


class TestDumpTranslitTable:
    def test_table_dump(self, capsys):
        assert run(["dump-translit-table"]) == 0
        out = capsys.readouterr().out
        assert "devanagari\tcodepoint\troman\tkind" in out
        assert "क\tU+0915\tk\tconsonant" in out


class TestDenseBlocksEndToEnd:
    def test_english_pipeline_with_all_dense_blocks(self, tmp_path, capsys):
        rows = synthetic_documents(8, seed=17)
        corpus_path = write_corpus_tsv(tmp_path / "train.tsv", rows)
        vocab_words = sorted({w for _i, text, _l in rows for w in text.split()})
        emb_path = write_embeddings(
            tmp_path / "emb.vec",
            {w: [float(len(w)), float(i % 3), 1.0] for i, w in enumerate(vocab_words)},
        )
        pos_path = write_lines(tmp_path / "pos.txt", ["calm0", "calm1"])
        neg_path = write_lines(tmp_path / "neg.txt", ["rage0", "rage1"])
        liwc_path = write_lines(tmp_path / "liwc.tsv", ["calmness\tcalm*", "anger\trage*"])
        gender_path = write_lines(tmp_path / "gender.tsv", ["_intercept\t-0.1", "sly0\t0.5"])
        config = write_lines(
            tmp_path / "full.cfg",
            [
                "language = english",
                "blocks = U+W2V+S+LIWC+GP",
                "min_df = 1",
                "max_iters = 80",
                f"embeddings = {emb_path.name}",
                f"positive_words = {pos_path.name}",
                f"negative_words = {neg_path.name}",
                f"liwc_lexicon = {liwc_path.name}",
                f"gender_lexicon = {gender_path.name}",
            ],
        )
        model_path = tmp_path / "model.txt"
        assert run(["train", str(corpus_path), str(model_path),
                    "--config", str(config)]) == 0
        out = tmp_path / "pred.tsv"
        assert run(["predict", str(model_path), str(corpus_path), str(out)]) == 0
        predictions = load_predictions(out)
        gold = {doc_id: label for doc_id, _t, label in rows}
        agreement = sum(predictions[i] == gold[i] for i in gold) / len(gold)
        assert agreement > 0.9

    def test_sidecar_provider_requires_flag_at_predict(self, tmp_path, capsys):
        rows = [
            ("a", "good day. fine day.", Label.NAG),
            ("b", "bad day. awful day.", Label.OAG),
            ("c", "meh day. so so.", Label.CAG),
        ]
        corpus_path = write_corpus_tsv(tmp_path / "train.tsv", rows)
        sidecar_rows = []
        for doc_id, text, _label in rows:
            for i in range(2):
                sidecar_rows.append(f"{doc_id}\t{i}\t0 0 1 0 0")
        sidecar_path = write_lines(tmp_path / "side.tsv", sidecar_rows)
        config = write_lines(
            tmp_path / "side.cfg",
            [
                "language = english",
                "blocks = U+S",
                "min_df = 1",
                "max_iters = 20",
                "sentiment_provider = sidecar",
                f"sentiment_sidecar = {sidecar_path.name}",
            ],
        )
        model_path = tmp_path / "model.txt"
        assert run(["train", str(corpus_path), str(model_path),
                    "--config", str(config)]) == 0
        out = tmp_path / "pred.tsv"
        # without the flag: resource error
        assert run(["predict", str(model_path), str(corpus_path), str(out)]) == 3
        # with it: fine
        assert run(["predict", str(model_path), str(corpus_path), str(out),
                    "--sentiment-sidecar", str(sidecar_path)]) == 0


    @pytest.mark.parametrize("blocks", ["U", "U+S"])
    def test_sidecar_flag_refused_unless_the_model_takes_one(self, tmp_path, capsys, blocks):
        """A model without S, or with the builtin provider, has no use for a
        sidecar: the flag would parse a file nothing reads, or replace the
        trained lexicon features."""
        corpus_path, config, _files = write_resource_run(tmp_path, blocks, spell_correct=False)
        sidecar = write_lines(tmp_path / "side.tsv", [
            f"{doc.id}\t0\t0 0 1 0 0" for doc in load_corpus(corpus_path, has_labels=True).documents
        ])
        model_path = tmp_path / "model.txt"
        assert run(["--quiet", "train", str(corpus_path), str(model_path),
                    "--config", str(config)]) == 0
        out = tmp_path / "pred.tsv"
        assert run(["predict", str(model_path), str(corpus_path), str(out),
                    "--sentiment-sidecar", str(sidecar)]) == 1
        assert "--sentiment-sidecar needs a model trained with sidecar" in capsys.readouterr().err
        assert not out.exists()


class TestReferencedFiles:
    """Every file a model references, one test per provenance key."""

    def train(self, tmp_path):
        corpus_path, config, files = write_resource_run(tmp_path)
        model_path = tmp_path / "model.txt"
        assert run(["--quiet", "train", str(corpus_path), str(model_path),
                    "--config", str(config)]) == 0
        return model_path, corpus_path, files

    @pytest.mark.parametrize("key", RESOURCE_CONFIG_KEYS)
    def test_changed_file_exits_3_at_predict(self, tmp_path, capsys, key):
        model_path, corpus_path, files = self.train(tmp_path)
        with files[key].open("a", encoding="utf-8") as handle:
            handle.write("\n")  # a blank line: every loader would accept the file
        assert run(["predict", str(model_path), str(corpus_path), str(tmp_path / "p.tsv")]) == 3
        err = capsys.readouterr().err
        assert "checksum mismatch" in err
        assert str(files[key]) in err

    @pytest.mark.parametrize("key", RESOURCE_CONFIG_KEYS)
    def test_missing_file_exits_3_at_predict(self, tmp_path, capsys, key):
        model_path, corpus_path, files = self.train(tmp_path)
        files[key].unlink()
        assert run(["predict", str(model_path), str(corpus_path), str(tmp_path / "p.tsv")]) == 3
        assert f"not found: {files[key]}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", RESOURCE_CONFIG_KEYS)
    def test_missing_file_exits_3_at_train(self, tmp_path, capsys, key):
        corpus_path, config, files = write_resource_run(tmp_path)
        files[key].unlink()
        model_path = tmp_path / "model.txt"
        assert run(["train", str(corpus_path), str(model_path), "--config", str(config)]) == 3
        assert f"not found: {files[key]}" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("key", RESOURCE_CONFIG_KEYS)
    def test_directory_exits_3(self, tmp_path, capsys, key):
        model_path, corpus_path, files = self.train(tmp_path)
        files[key].unlink()
        files[key].mkdir()
        assert run(["predict", str(model_path), str(corpus_path), str(tmp_path / "p.tsv")]) == 3
        assert f"not found: {files[key]}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, text, message", [
        ("embedding", "1 2\na 1\n", "row arity mismatch at line 2: expected 3 fields, got 2"),
        ("liwc", "anger\n", "malformed category row at line 1"),
        ("gender", "she\t1.0\nhe\n", "malformed lexicon row at line 2"),
        ("spell_dict", "dog\t0\n", "count must be >= 1 at line 1"),
    ])
    def test_malformed_row_exits_3_at_train(self, tmp_path, capsys, key, text, message):
        corpus_path, config, files = write_resource_run(tmp_path)
        files[key].write_text(text, encoding="utf-8")
        assert run(["train", str(corpus_path), str(tmp_path / "model.txt"),
                    "--config", str(config)]) == 3
        assert f"resource error: {files[key]}: {message}\n" in capsys.readouterr().err

    def test_round_trip_rewrites_the_model_and_its_provenance(self, tmp_path):
        model_path, _corpus_path, files = self.train(tmp_path)
        config = cli.load_run_config(tmp_path / "full.cfg")
        trained = cli.load_resources(config)
        cli.build_preprocess_settings(config, trained)
        assert set(trained.provenance) == set(files)
        model = load_model(model_path)
        assert model.pipeline.resources.provenance == trained.provenance
        rewritten = tmp_path / "rewritten.txt"
        save_model(model, rewritten)
        assert rewritten.read_bytes() == model_path.read_bytes()


    def test_bytes_do_not_depend_on_the_directory(self, tmp_path):
        """Resource paths are written relative to the model file, so two
        trees whose directory names differ in length give the same bytes."""
        models = []
        for name in ("a", "a-longer-directory-name"):
            root = tmp_path / name
            root.mkdir()
            corpus_path, config, _files = write_resource_run(root)
            (root / "models").mkdir()
            model_path = root / "models" / "model.txt"
            assert run(["--quiet", "train", str(corpus_path), str(model_path),
                        "--config", str(config)]) == 0
            models.append(model_path.read_bytes())
        assert models[0] == models[1]
        assert b"\nspell_dict_path = ../dict.tsv\n" in models[0]
        assert b"\npath = ../emb.vec\n" in models[0]

    def test_model_moved_with_its_resources_predicts_the_same(self, tmp_path, capsys):
        before = tmp_path / "before"
        before.mkdir()
        model_path, corpus_path, _files = self.train(before)
        assert run(["predict", str(model_path), str(corpus_path), str(tmp_path / "p1.tsv")]) == 0
        after = tmp_path / "after" / "deeper"
        after.parent.mkdir()
        shutil.move(before, after)
        assert run(["predict", str(after / model_path.name), str(after / corpus_path.name),
                    str(tmp_path / "p2.tsv")]) == 0
        assert (tmp_path / "p1.tsv").read_bytes() == (tmp_path / "p2.tsv").read_bytes()

        # the model alone, moved away from its resources, names where it looked
        alone = tmp_path / "alone"
        alone.mkdir()
        shutil.move(after / model_path.name, alone / "model.txt")
        assert run(["predict", str(alone / "model.txt"), str(after / corpus_path.name),
                    str(tmp_path / "p3.tsv")]) == 3
        assert f"not found: {alone / 'dict.tsv'}" in capsys.readouterr().err

    def test_older_file_with_absolute_paths_still_loads(self, tmp_path):
        model_path, corpus_path, files = self.train(tmp_path)
        text = model_path.read_text(encoding="utf-8")
        for path in files.values():
            text, n = re.subn(f"path = {re.escape(path.name)}$", f"path = {path}", text,
                              flags=re.M)
            assert n == 1
        older = tmp_path / "elsewhere" / "model.txt"
        older.parent.mkdir()
        older.write_text(text, encoding="utf-8")
        assert run(["predict", str(model_path), str(corpus_path), str(tmp_path / "p1.tsv")]) == 0
        assert run(["predict", str(older), str(corpus_path), str(tmp_path / "p2.tsv")]) == 0
        assert (tmp_path / "p1.tsv").read_bytes() == (tmp_path / "p2.tsv").read_bytes()
        assert load_model(older).pipeline.resources.provenance == \
            load_model(model_path).pipeline.resources.provenance

    def test_unused_resource_is_not_loaded(self, tmp_path, caplog):
        """A config whose blocks read no resource trains when the files it
        names are gone, warns once for each named key, and the model
        references none of them."""
        corpus_path, config, files = write_resource_run(tmp_path, blocks="U",
                                                        spell_correct=False)
        for path in files.values():
            path.unlink()
        model_path = tmp_path / "model.txt"
        with caplog.at_level("WARNING", logger="aggdetect"):
            assert run(["--quiet", "train", str(corpus_path), str(model_path),
                        "--config", str(config)]) == 0
        for key in RESOURCE_CONFIG_KEYS.values():
            assert caplog.text.count(f"config key {key!r} names a file that no setting uses") == 1
        text = model_path.read_text(encoding="utf-8")
        assert "path = " not in text and "sha256 = " not in text
        assert load_model(model_path).pipeline.resources.provenance == {}


class TestInt32Rows:
    def test_every_batch_and_row_has_int32_indices(self, tmp_path):
        """fit_transform, transform_many, a row's csr() and a loaded model's
        rows all hold int32 indptr and indices, which scipy's views share;
        the loaded model's rows equal the fitted ones bit for bit."""
        corpus_path, config_path, _files = write_resource_run(tmp_path, "U+C3+W2V+S+LIWC+GP")
        model_path = tmp_path / "model.txt"
        assert run(["--quiet", "train", str(corpus_path), str(model_path),
                    "--config", str(config_path)]) == 0
        config = cli.load_run_config(config_path)
        resources = cli.load_resources(config)
        settings = cli.build_preprocess_settings(config, resources)
        prepped = cli.preprocess_corpus(load_corpus(corpus_path, has_labels=True), settings)
        blocks = [FeatureBlockSpec.from_name(name, config.min_df) for name in config.blocks]
        pipeline = FeaturePipeline(blocks, resources)
        fitted = pipeline.fit_transform(prepped)
        loaded = load_model(model_path).pipeline
        batches = [fitted, pipeline.transform_many(prepped), pipeline.transform(prepped[0]).csr(),
                   loaded.transform_many(prepped), loaded.transform(prepped[0]).csr()]
        for X in batches:
            assert X.indptr.dtype == X.indices.dtype == np.int32
            kernels.csr_rmatvec(X, np.ones(len(X)))
            for view in (X._scipy(), X._scipy_t()):
                assert np.shares_memory(view.indptr, X.indptr)
                assert np.shares_memory(view.indices, X.indices)
        for name in ("indptr", "indices", "data"):
            assert getattr(batches[3], name).tobytes() == getattr(fitted, name).tobytes()


class TestFileNotUtf8:
    """A file with a byte that is not UTF-8 exits with the code that the
    file's other faults get, naming the file; it used to raise
    UnicodeDecodeError, a traceback and exit 1."""

    @pytest.mark.parametrize("command, name, code", [
        ("predict", "model", 3),
        ("inspect", "model", 3),
        ("train", "corpus", 2),
        ("predict", "corpus", 2),
        ("evaluate", "predictions", 2),
        ("train", "config", 1),
        ("predict", "sidecar", 3),
        *(("train", key, 3) for key in RESOURCE_CONFIG_KEYS),
    ])
    def test_exits_with_the_files_fault_code(self, tmp_path, capsys, command, name, code):
        corpus_path, config, files = write_resource_run(tmp_path)
        model_path, out = tmp_path / "model.txt", tmp_path / "out"
        sidecar = write_lines(tmp_path / "side.tsv", [
            f"{doc.id}\t0\t0 0 1 0 0" for doc in load_corpus(corpus_path, has_labels=True).documents
        ])
        paths = {"corpus": corpus_path, "config": config, "model": model_path,
                 "predictions": tmp_path / "pred.tsv", "sidecar": sidecar, **files}
        flags = []
        if name == "sidecar":  # only a model trained with sidecar sentiment takes one
            config = write_lines(tmp_path / "side.cfg", [
                "language = english", "blocks = U+S", "min_df = 1", "max_iters = 5",
                "sentiment_provider = sidecar", "sentiment_sidecar = side.tsv",
            ])
            flags = ["--sentiment-sidecar", str(sidecar)]
        if command != "train":
            assert run(["--quiet", "train", str(corpus_path), str(model_path),
                        "--config", str(config)]) == 0
            assert run(["--quiet", "predict", str(model_path), str(corpus_path),
                        str(paths["predictions"]), *flags]) == 0
        bad = paths[name]
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        argv = {
            "train": ["train", str(corpus_path), str(out), "--config", str(config)],
            "predict": ["predict", str(model_path), str(corpus_path), str(out)],
            "inspect": ["inspect", str(model_path)],
            "evaluate": ["evaluate", str(corpus_path), str(paths["predictions"]), str(out)],
        }[command]
        argv += flags
        capsys.readouterr()
        assert run(argv) == code
        err = capsys.readouterr().err
        kind = {1: "usage error", 2: "data error", 3: "resource error"}[code]
        assert f"{kind}: " in err and str(bad) in err and "not UTF-8 text" in err


class TestSaveModel:
    """save_model writes one section at a time."""

    @pytest.mark.parametrize("blocks", ["U+B+BU+C3+C4+C5+SK2+W2V+S+LIWC+GP", "SK2+C4+BU",
                                        "W2V+GP+U"])
    @pytest.mark.parametrize("spell_correct", [True, False])
    def test_bytes_equal_the_one_join_formatting(self, tmp_path, blocks, spell_correct):
        corpus_path, config, _files = write_resource_run(tmp_path, blocks, spell_correct)
        model = train_library(corpus_path, config)
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert path.read_bytes() == reference_model_text_v2(model, path.parent).encode("utf-8")

    @pytest.mark.parametrize("key", ["spell_dict", "gender"])
    @pytest.mark.parametrize("existing", [b"an older model\n", None])
    def test_failed_save_leaves_the_path_as_it_was(self, tmp_path, key, existing):
        """The spell dictionary's provenance is in the header, and GP's
        after every vocabulary; neither missing opens the file."""
        corpus_path, config, _files = write_resource_run(tmp_path)
        model = train_library(corpus_path, config)
        del model.pipeline.resources.provenance[key]
        path = tmp_path / "model.txt"
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(ResourceError, match=f"resource '{key}' has no file provenance"):
            save_model(model, path)
        assert (path.read_bytes() if path.exists() else None) == existing


class TestHindiEndToEnd:
    def test_devanagari_corpus_with_spell_correction(self, tmp_path):
        # class-separating words, some written in Devanagari, some romanized
        # (code-mixed lines), plus one deliberate misspelling
        rows = []
        calm, sly, rage = "शांत", "chalak", "गुस्सा"
        for i in range(10):
            rows.append((f"n{i}", f"{calm} bahut theek hai", Label.NAG))
            rows.append((f"c{i}", f"{sly} baat hai yaar", Label.CAG))
            rows.append((f"o{i}", f"{rage} mat karo bhai", Label.OAG))
        corpus_path = write_corpus_tsv(tmp_path / "train.tsv", rows)

        dict_path = tmp_path / "dict.tsv"
        assert run(["build-dict", str(corpus_path), str(dict_path),
                    "--language", "hindi"]) == 0
        body = dict_path.read_text(encoding="utf-8")
        assert "shaanta\t10" in body  # Devanagari keys were romanized

        config = write_lines(
            tmp_path / "hi.cfg",
            [
                "preset = hindi-system-1",
                "min_df = 1",
                "max_iters = 150",
                "spell_correct = true",
                f"spell_dict = {dict_path.name}",
            ],
        )
        model_path = tmp_path / "model.txt"
        assert run(["train", str(corpus_path), str(model_path),
                    "--config", str(config)]) == 0
        assert "transliterate = true" in model_path.read_text(encoding="utf-8")

        # the test corpus misspells "chalak" and uses pure Devanagari
        test_rows = [
            ("t1", "शांत theek", Label.NAG),
            ("t2", "chalka baat", Label.CAG),  # transposed misspelling
            ("t3", f"{rage} karo", Label.OAG),
        ]
        test_path = write_corpus_tsv(tmp_path / "test.tsv", test_rows)
        out = tmp_path / "pred.tsv"
        assert run(["predict", str(model_path), str(test_path), str(out)]) == 0
        predictions = load_predictions(out)
        assert predictions["t1"] == Label.NAG
        assert predictions["t2"] == Label.CAG
        assert predictions["t3"] == Label.OAG


class TestSpellCorrectionEndToEnd:
    @staticmethod
    def misspell(word: str, k: int) -> str:
        """``word`` with one of four single edits or a double one, chosen by
        ``k``, or as it is."""
        return [word[1] + word[0] + word[2:], word[1:], word[:2] + "x" + word[2:],
                word[:-1] + "q", word + "zz", word][k % 6]

    def test_outputs_equal_the_brute_force_search(self, tmp_path, monkeypatch):
        """Training and prediction through the reach-pruned candidate search
        write the same model bytes and predictions as through the reference
        that generates every single edit."""
        rows = synthetic_documents(10, seed=23)
        words = sorted({w for _i, text, _l in rows for w in text.split()})
        dict_path = write_lines(tmp_path / "dict.tsv",
                                [f"{w}\t{1 + i % 4}" for i, w in enumerate(words)])

        def typos(doc_rows, shift):
            return [(doc_id, " ".join(self.misspell(w, k + shift)
                                      for k, w in enumerate(text.split())), label)
                    for doc_id, text, label in doc_rows]

        corpus_path = write_corpus_tsv(tmp_path / "train.tsv", typos(rows, 0))
        test_path = write_corpus_tsv(tmp_path / "test.tsv",
                                     typos(synthetic_documents(6, seed=29), 2))
        config = write_lines(tmp_path / "run.cfg", [
            "language = english", "blocks = U+C3", "min_df = 1", "max_iters = 30",
            "spell_correct = true", f"spell_dict = {dict_path.name}",
        ])

        def train_and_predict(name):
            model_path, out = tmp_path / f"{name}.model", tmp_path / f"{name}.tsv"
            assert run(["train", str(corpus_path), str(model_path),
                        "--config", str(config)]) == 0
            assert run(["predict", str(model_path), str(test_path), str(out)]) == 0
            return model_path.read_bytes(), out.read_bytes()

        pruned = train_and_predict("pruned")
        corrections = Counter()

        def counting_reference(token, dictionary):
            found = reference_candidates(token, dictionary)
            corrections[bool(found)] += 1
            return found

        monkeypatch.setattr(preprocess, "_candidates", counting_reference)
        assert train_and_predict("reference") == pruned
        assert corrections[True] > 20 and corrections[False] > 0


class TestCsvFormat:
    def test_train_and_predict_from_csv(self, tmp_path, capsys):
        rows = synthetic_documents(6, seed=41)
        csv_path = tmp_path / "train.csv"
        csv_path.write_text(
            "".join(f'{i},"{t}",{l.name}\n' for i, t, l in rows), encoding="utf-8"
        )
        config = write_lines(
            tmp_path / "run.cfg",
            ["language = english", "blocks = U", "min_df = 1", "max_iters = 80"],
        )
        model_path = tmp_path / "model.txt"
        assert run(["train", str(csv_path), str(model_path), "--config", str(config),
                    "--format", "csv"]) == 0
        out = tmp_path / "pred.tsv"
        assert run(["predict", str(model_path), str(csv_path), str(out),
                    "--format", "csv"]) == 0
        predictions = load_predictions(out)
        gold = {i: l for i, _t, l in rows}
        assert all(predictions[i] == gold[i] for i in gold)


class TestModuleEntry:
    def test_python_dash_m_smoke(self):
        # the child imports the same package as this process, installed or not
        package_root = str(Path(aggdetect.__file__).parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "aggdetect", "dump-translit-table"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert out.returncode == 0
        assert "consonant" in out.stdout
