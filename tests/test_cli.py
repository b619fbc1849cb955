import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aggdetect
from aggdetect.cli import main
from aggdetect.corpus_io import Label, load_predictions
from aggdetect.model import load_model

from helpers import synthetic_documents, write_corpus_tsv, write_embeddings, write_lines


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

    def test_merge_validation_logs_counts(self, tmp_path, toy_corpus, basic_config, caplog):
        corpus_path, _rows = toy_corpus
        val_path = write_corpus_tsv(tmp_path / "val.tsv", synthetic_documents(2, seed=5))
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


class TestInspect:
    def test_three_columns(self, tmp_path, toy_corpus, basic_config, capsys):
        corpus_path, _rows = toy_corpus
        model_path = tmp_path / "model.txt"
        run(["train", str(corpus_path), str(model_path), "--config", str(basic_config)])
        capsys.readouterr()
        assert run(["inspect", str(model_path), "--top", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "NAG\tCAG\tOAG"
        assert len(lines) == 6
        assert all(len(line.split("\t")) == 3 for line in lines[1:])
        # class-exclusive signal words should surface as top unigrams
        assert any(cell.startswith("unigram_calm") for cell in
                   (line.split("\t")[0] for line in lines[1:]))


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
