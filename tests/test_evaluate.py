import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggdetect import evaluate
from aggdetect.corpus_io import LABELS, Label
from aggdetect.errors import DataError
from aggdetect.evaluate import (
    ConfusionMatrix,
    accuracy,
    build_report,
    class_prf,
    confusion,
    macro_f1,
    random_baseline,
    render_report,
    weighted_f1,
)

labels_strategy = st.lists(st.sampled_from(list(LABELS)), min_size=1, max_size=40)


def pairwise_weighted_f1(gold, pred):
    """Reference implementation straight from the label lists."""
    total_f1 = 0.0
    for label in LABELS:
        tp = sum(1 for g, p in zip(gold, pred) if g == label and p == label)
        pred_count = sum(1 for p in pred if p == label)
        gold_count = sum(1 for g in gold if g == label)
        precision = tp / pred_count if pred_count else 0.0
        recall = tp / gold_count if gold_count else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        total_f1 += gold_count * f1
    return total_f1 / len(gold)


class TestConfusion:
    def test_counts(self):
        m = confusion([Label.NAG, Label.NAG], [Label.NAG, Label.OAG])
        assert m.counts[0].tolist() == [1, 0, 1]
        assert m.counts[1].tolist() == [0, 0, 0]
        assert m.counts[2].tolist() == [0, 0, 0]

    def test_perfect_is_diagonal(self):
        gold = [Label.NAG, Label.CAG, Label.OAG, Label.OAG]
        m = confusion(gold, gold)
        assert np.trace(m.counts) == 4
        assert m.counts.sum() == 4

    def test_single_off_diagonal(self):
        m = confusion([Label.CAG], [Label.NAG])
        assert m.counts[1, 0] == 1
        assert m.total == 1

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion([Label.NAG], [Label.NAG, Label.OAG])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            confusion([], [])

    @given(labels_strategy)
    def test_total_equals_input_length(self, gold):
        assert confusion(gold, gold).total == len(gold)


class TestClassPrf:
    def test_diagonal_is_perfect(self):
        m = confusion([Label.NAG, Label.CAG], [Label.NAG, Label.CAG])
        assert class_prf(m, Label.NAG) == (1.0, 1.0, 1.0)

    def test_zero_over_zero_is_zero(self):
        m = confusion([Label.NAG], [Label.NAG])
        assert class_prf(m, Label.OAG) == (0.0, 0.0, 0.0)

    def test_hand_computed_f1(self):
        counts = np.array([[8, 2, 0], [2, 5, 0], [0, 0, 3]])
        m = ConfusionMatrix(counts)
        precision, recall, f1 = class_prf(m, Label.NAG)
        assert precision == pytest.approx(0.8)
        assert recall == pytest.approx(0.8)
        assert f1 == pytest.approx(0.8)


class TestWeightedF1:
    def test_perfect(self):
        gold = [Label.NAG, Label.CAG, Label.OAG]
        assert weighted_f1(confusion(gold, gold)) == 1.0

    def test_hand_weighted(self):
        # supports (2,1,1); only NAG predicted correctly
        m = ConfusionMatrix(np.array([[2, 0, 0], [1, 0, 0], [1, 0, 0]]))
        # NAG: p=.5, r=1 -> f1=2/3? no - check: col sums (4,0,0)
        # NAG precision = 2/4, recall = 1 -> f1 = 2*(0.5)/(1.5) = 2/3
        assert weighted_f1(m) == pytest.approx((2 * (2 / 3)) / 4)

    def test_supports_weight_f1(self):
        # f1s (1, 0, 0) with supports (2, 1, 1) -> 0.5
        m = ConfusionMatrix(np.array([[2, 0, 0], [0, 0, 1], [0, 1, 0]]))
        assert class_prf(m, Label.NAG)[2] == 1.0
        assert class_prf(m, Label.CAG)[2] == 0.0
        assert weighted_f1(m) == pytest.approx(0.5)

    def test_all_one_class_on_balanced_gold(self):
        n = 4
        gold = [Label.NAG] * n + [Label.CAG] * n + [Label.OAG] * n
        pred = [Label.NAG] * (3 * n)
        assert weighted_f1(confusion(gold, pred)) == pytest.approx(1 / 6)

    @given(labels_strategy)
    @settings(max_examples=200)
    def test_matches_pairwise_reference(self, gold):
        rng = np.random.default_rng(len(gold))
        pred = [LABELS[i] for i in rng.integers(0, 3, len(gold))]
        via_matrix = weighted_f1(confusion(gold, pred))
        assert abs(via_matrix - pairwise_weighted_f1(gold, pred)) <= 1e-12

    @given(labels_strategy, st.randoms(use_true_random=False))
    def test_joint_permutation_invariance(self, gold, rnd):
        rng = np.random.default_rng(0)
        pred = [LABELS[i] for i in rng.integers(0, 3, len(gold))]
        pairs = list(zip(gold, pred))
        rnd.shuffle(pairs)
        shuffled_gold, shuffled_pred = zip(*pairs)
        m1 = confusion(gold, pred)
        m2 = confusion(list(shuffled_gold), list(shuffled_pred))
        assert weighted_f1(m1) == weighted_f1(m2)
        assert macro_f1(m1) == macro_f1(m2)
        assert accuracy(m1) == accuracy(m2)

    def test_equal_supports_weighted_equals_macro(self):
        gold = [Label.NAG, Label.NAG, Label.CAG, Label.CAG, Label.OAG, Label.OAG]
        pred = [Label.NAG, Label.CAG, Label.CAG, Label.OAG, Label.OAG, Label.NAG]
        m = confusion(gold, pred)
        assert weighted_f1(m) == pytest.approx(macro_f1(m))

    @given(labels_strategy)
    def test_metrics_always_finite_and_bounded(self, gold):
        pred = [LABELS[(int(g) + 1) % 3] for g in gold]  # never correct
        m = confusion(gold, pred)
        for lab in LABELS:
            p, r, f = class_prf(m, lab)
            for v in (p, r, f):
                assert 0.0 <= v <= 1.0
        assert 0.0 <= weighted_f1(m) <= 1.0


def scalar_scores(counts):
    """The report's scores computed one Python float at a time, as before
    one array routine served the report and the baseline."""
    def div(num, den):
        return num / den if den > 0 else 0.0

    prf = []
    for i in range(3):
        tp = float(counts[i, i])
        precision = div(tp, float(counts[:, i].sum()))
        recall = div(tp, float(counts[i, :].sum()))
        prf.append((precision, recall, div(2.0 * precision * recall, precision + recall)))
    total = int(counts.sum())
    weighted = (sum(int(counts[i].sum()) * prf[i][2] for i in range(3)) / total
                if total else 0.0)
    return (prf, weighted, sum(f for _p, _r, f in prf) / 3.0,
            div(float(np.trace(counts)), float(total)))


@given(st.lists(st.lists(st.integers(0, 50), min_size=9, max_size=9), min_size=1, max_size=6))
def test_report_scores_bit_equal_to_the_scalar_formulas(cells):
    """Every score of a report, alone or in a stack, is the float the
    scalar formulas give, 0/0 cases and an all-zero matrix included."""
    stack = np.array(cells, dtype=np.int64).reshape(-1, 3, 3)
    stacked = evaluate._scores(stack)
    for k, counts in enumerate(stack):
        prf, weighted, macro, acc = scalar_scores(counts)
        matrix = ConfusionMatrix(counts)
        assert [class_prf(matrix, lab) for lab in LABELS] == prf
        assert (weighted_f1(matrix), macro_f1(matrix), accuracy(matrix)) == (weighted, macro, acc)
        assert stacked.weighted_f1[k] == weighted
        assert stacked.f1[k].tolist() == [f for _p, _r, f in prf]
        if counts.any():
            gold = [lab for i, lab in enumerate(LABELS) for j in range(3)
                    for _ in range(counts[i, j])]
            pred = [LABELS[j] for i in range(3) for j in range(3) for _ in range(counts[i, j])]
            report = build_report(gold, pred)
            assert [(report.precision[lab], report.recall[lab], report.f1[lab])
                    for lab in LABELS] == prf
            assert (report.weighted_f1, report.macro_f1, report.accuracy) == (weighted, macro, acc)


class TestRandomBaseline:
    def test_balanced_gold_approaches_one_third(self):
        gold = [Label.NAG] * 100 + [Label.CAG] * 100 + [Label.OAG] * 100
        value = random_baseline(gold, seed=3, trials=2000)
        assert value == pytest.approx(1 / 3, abs=0.02)

    def test_single_class_gold_approaches_half(self):
        # precision 1, recall ~1/3 -> F1 ~0.5 for the only supported class
        gold = [Label.NAG] * 600
        value = random_baseline(gold, seed=5, trials=2000)
        assert value == pytest.approx(0.5, abs=0.02)

    def test_deterministic(self):
        gold = [Label.NAG, Label.CAG, Label.OAG] * 10
        a = random_baseline(gold, seed=11, trials=1)
        b = random_baseline(gold, seed=11, trials=1)
        assert a == b

    def test_seed_changes_stream(self):
        gold = [Label.NAG, Label.CAG, Label.OAG] * 10
        assert random_baseline(gold, seed=1, trials=1) != random_baseline(
            gold, seed=100, trials=1
        )

    def test_empty_gold_rejected(self):
        with pytest.raises(DataError):
            random_baseline([], seed=0, trials=1)

    def test_empirical_mode_tracks_gold_distribution(self):
        # on single-class gold, empirical sampling predicts that class
        # every time: perfect F1
        gold = [Label.OAG] * 50
        assert random_baseline(gold, seed=2, trials=5, mode="empirical") == 1.0

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed must be >= 0"):
            random_baseline([Label.NAG], seed=-5, trials=1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DataError, match="mode"):
            random_baseline([Label.NAG], seed=0, trials=1, mode="gaussian")

    @pytest.mark.parametrize("mode", ["uniform", "empirical"])
    @pytest.mark.parametrize("seed, trials", [(0, 1), (7, 3), (123, 50), (2**31, 250)])
    @pytest.mark.parametrize("gold", [
        [Label.NAG, Label.CAG, Label.OAG, Label.OAG, Label.NAG] * 7,
        [Label.CAG] * 9,
        [Label.OAG],
    ])
    def test_bit_equal_to_the_per_trial_loop(self, gold, seed, trials, mode):
        assert random_baseline(gold, seed, trials, mode) == per_trial_baseline(
            gold, seed, trials, mode)

    @pytest.mark.parametrize("mode", ["uniform", "empirical"])
    def test_distribution_of_the_per_document_sampler(self, mode):
        """Drawing each trial's confusion rows gives the mean weighted F1
        that labelling every document at random gives."""
        gold = [Label.NAG] * 380 + [Label.CAG] * 330 + [Label.OAG] * 290
        trials = 20_000
        per_document = per_document_scores(gold, seed=99, trials=trials, mode=mode)
        mean = random_baseline(gold, seed=98, trials=trials, mode=mode)
        # both sides' trial scores share one standard deviation
        standard_error = math.sqrt(2 / trials) * per_document.std()
        assert abs(mean - per_document.mean()) <= 4 * standard_error

    def test_value_does_not_depend_on_the_block_size(self, monkeypatch):
        gold = [Label.NAG, Label.CAG, Label.OAG, Label.OAG] * 25
        want = random_baseline(gold, seed=4, trials=5000, mode="empirical")
        for block in (777, 1):
            monkeypatch.setattr(evaluate, "_BASELINE_BLOCK", block)
            assert random_baseline(gold, seed=4, trials=5000, mode="empirical") == want

    def test_memory_is_bounded_in_the_trial_count(self):
        """Before the trials were drawn in blocks, 200,000 trials held all
        their counts and scores at once: a 49 MiB peak."""
        gold = [Label.NAG] * 120 + [Label.CAG] * 100 + [Label.OAG] * 80
        tracemalloc.start()
        try:
            random_baseline(gold, seed=1, trials=200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def per_trial_baseline(gold, seed, trials, mode):
    """One generator seeded with ``seed``; for each trial and each gold
    class in NAG, CAG, OAG order, one scalar multinomial draw of that
    class's predicted labels; one weighted_f1 per trial, added up in trial
    order."""
    support = [sum(1 for x in gold if x == label) for label in LABELS]
    p = [n / len(gold) for n in support] if mode == "empirical" else [1 / 3] * 3
    rng = np.random.default_rng(seed)
    total = 0.0
    for _trial in range(trials):
        rows = [rng.multinomial(n, p) for n in support]
        total += weighted_f1(ConfusionMatrix(np.array(rows)))
    return total / trials


def per_document_scores(gold, seed, trials, mode):
    """Each trial's weighted F1 when every document gets a label drawn at
    random, 1/3 each or with the gold shares."""
    g = np.array([int(x) for x in gold], dtype=np.int64)
    p = np.bincount(g, minlength=3) / g.shape[0] if mode == "empirical" else None
    rng = np.random.default_rng(seed)
    scores = []
    for start in range(0, trials, 1000):
        block = min(1000, trials - start)
        pred = rng.choice(3, size=(block, g.shape[0]), p=p)
        cells = 9 * np.arange(block)[:, None] + 3 * g + pred
        counts = np.bincount(cells.ravel(), minlength=9 * block).reshape(block, 3, 3)
        scores.append(evaluate._scores(counts).weighted_f1)
    return np.concatenate(scores)


class TestRenderReport:
    def make_report(self, **kwargs):
        gold = [Label.NAG, Label.NAG, Label.CAG, Label.OAG]
        pred = [Label.NAG, Label.CAG, Label.CAG, Label.OAG]
        return build_report(gold, pred, **kwargs)

    def test_files_written(self, tmp_path):
        report = self.make_report()
        written = render_report(report, tmp_path / "out")
        names = {p.name for p in written}
        assert names == {"metrics.tsv", "confusion.tsv", "confusion.svg"}

    def test_confusion_tsv_row_sums_are_supports(self, tmp_path):
        report = self.make_report()
        render_report(report, tmp_path / "out")
        lines = (tmp_path / "out" / "confusion.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "gold\\pred\tNAG\tCAG\tOAG"
        for line, label in zip(lines[1:], LABELS):
            cells = line.split("\t")
            assert cells[0] == label.name
            assert sum(int(c) for c in cells[1:]) == report.support[label]

    def test_metrics_have_four_decimals(self, tmp_path):
        report = self.make_report(baseline_weighted_f1=1 / 3)
        render_report(report, tmp_path / "out")
        body = (tmp_path / "out" / "metrics.tsv").read_text(encoding="utf-8")
        assert "random_baseline_weighted_f1\t0.3333" in body
        assert f"weighted_f1\t{report.weighted_f1:.4f}" in body

    def test_diagonal_matrix_gives_opaque_diagonal_cells(self, tmp_path):
        gold = [Label.NAG, Label.CAG, Label.OAG]
        report = build_report(gold, gold)
        render_report(report, tmp_path / "out")
        svg = (tmp_path / "out" / "confusion.svg").read_text(encoding="utf-8")
        assert svg.count('fill-opacity="1.0000"') == 3
        assert "<title>1</title>" in svg

    def test_svg_titles_carry_raw_counts(self, tmp_path):
        report = self.make_report()
        render_report(report, tmp_path / "out")
        svg = (tmp_path / "out" / "confusion.svg").read_text(encoding="utf-8")
        assert "<title>2</title>" not in svg  # no cell holds 2 in this report
        assert svg.count("<title>1</title>") == 4
