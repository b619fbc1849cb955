"""Scoring and report emission: confusion matrices, per-class P/R/F1,
weighted F1, uniform-random baselines, and TSV/SVG report files.

Conventions are pinned once so scores are reproducible: matrix rows are
gold and columns are predicted, both in NAG, CAG, OAG order, and any 0/0
in precision, recall or F1 is defined as 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus_io import LABELS, Label
from .errors import DataError


@dataclass
class ConfusionMatrix:
    """3x3 counts; rows = gold, columns = predicted."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (3, 3):
            raise DataError(f"confusion matrix must be 3x3, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise DataError("confusion matrix entries must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def support(self, label: Label) -> int:
        return int(self.counts[int(label)].sum())


def confusion(gold: Sequence[Label], pred: Sequence[Label]) -> ConfusionMatrix:
    if len(gold) != len(pred):
        raise DataError(f"gold has {len(gold)} labels but predictions have {len(pred)}")
    if len(gold) == 0:
        raise DataError("cannot score an empty label list")
    g = np.fromiter((int(x) for x in gold), dtype=np.int64, count=len(gold))
    p = np.fromiter((int(x) for x in pred), dtype=np.int64, count=len(pred))
    return ConfusionMatrix(np.bincount(g * 3 + p, minlength=9).reshape(3, 3))


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def class_prf(matrix: ConfusionMatrix, label: Label) -> tuple[float, float, float]:
    """(precision, recall, f1) for one class; 0/0 counts as 0."""
    i = int(label)
    tp = float(matrix.counts[i, i])
    precision = _safe_div(tp, float(matrix.counts[:, i].sum()))
    recall = _safe_div(tp, float(matrix.counts[i, :].sum()))
    f1 = _safe_div(2.0 * precision * recall, precision + recall)
    return precision, recall, f1


def weighted_f1(matrix: ConfusionMatrix) -> float:
    """Per-class F1 averaged with gold-support weights."""
    total = matrix.total
    if total == 0:
        return 0.0
    return sum(matrix.support(lab) * class_prf(matrix, lab)[2] for lab in LABELS) / total


def macro_f1(matrix: ConfusionMatrix) -> float:
    return sum(class_prf(matrix, lab)[2] for lab in LABELS) / 3.0


def accuracy(matrix: ConfusionMatrix) -> float:
    return _safe_div(float(np.trace(matrix.counts)), float(matrix.total))


def random_baseline(
    gold: Sequence[Label], seed: int = 0, trials: int = 1000, mode: str = "uniform"
) -> float:
    """Mean weighted F1 of random predictions over ``trials`` runs.

    ``mode="uniform"`` draws each label with probability 1/3;
    ``mode="empirical"`` draws from the gold label distribution instead.
    Each trial uses a generator seeded with ``seed + trial`` so runs are
    reproducible and trials could be computed independently.
    """
    if trials < 1:
        raise DataError("trials must be >= 1")
    if len(gold) == 0:
        raise DataError("cannot baseline an empty gold list")
    if mode not in ("uniform", "empirical"):
        raise DataError(f"unknown baseline mode {mode!r}")
    g = np.fromiter((int(x) for x in gold), dtype=np.int64, count=len(gold))
    probabilities = None
    if mode == "empirical":
        probabilities = np.bincount(g, minlength=3) / g.shape[0]
    # Each trial's confusion counts, one bincount per trial: one bincount
    # over all trials took as long and held 8 bytes per trial and document.
    counts = np.empty((trials, 9), dtype=np.int64)
    cells = 3 * g
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        if probabilities is None:
            p = rng.integers(0, 3, size=g.shape[0])
        else:
            p = rng.choice(3, size=g.shape[0], p=probabilities)
        counts[trial] = np.bincount(cells + p, minlength=9)
    total = 0.0  # added in trial order, one Python float at a time
    for score in _weighted_f1s(counts.reshape(trials, 3, 3)).tolist():
        total += score
    return total / trials


def _divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` elementwise, 0 where ``den`` is 0, as :func:`_safe_div`."""
    return np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape), where=den > 0)


def _weighted_f1s(counts: np.ndarray) -> np.ndarray:
    """:func:`weighted_f1` of each ``(3, 3)`` matrix in ``counts``, with the
    same float operations in the same order, so each result is bit-equal."""
    tp = np.diagonal(counts, axis1=1, axis2=2).astype(np.float64)
    support = counts.sum(axis=2)
    precision = _divide(tp, counts.sum(axis=1).astype(np.float64))
    recall = _divide(tp, support.astype(np.float64))
    f1 = _divide(2.0 * precision * recall, precision + recall)
    weighted = support * f1
    return (weighted[:, 0] + weighted[:, 1] + weighted[:, 2]) / support.sum(axis=1)


@dataclass
class EvalReport:
    """Everything the report files need, computed once."""

    matrix: ConfusionMatrix
    precision: dict[Label, float]
    recall: dict[Label, float]
    f1: dict[Label, float]
    weighted_f1: float
    macro_f1: float
    accuracy: float
    support: dict[Label, int]
    baseline_weighted_f1: float | None = None


def build_report(
    gold: Sequence[Label],
    pred: Sequence[Label],
    baseline_weighted_f1: float | None = None,
) -> EvalReport:
    matrix = confusion(gold, pred)
    prf = {lab: class_prf(matrix, lab) for lab in LABELS}
    return EvalReport(
        matrix=matrix,
        precision={lab: prf[lab][0] for lab in LABELS},
        recall={lab: prf[lab][1] for lab in LABELS},
        f1={lab: prf[lab][2] for lab in LABELS},
        weighted_f1=weighted_f1(matrix),
        macro_f1=macro_f1(matrix),
        accuracy=accuracy(matrix),
        support={lab: matrix.support(lab) for lab in LABELS},
        baseline_weighted_f1=baseline_weighted_f1,
    )


_SVG_CELL = 64
_SVG_MARGIN = 56


def _confusion_svg(matrix: ConfusionMatrix) -> str:
    """3x3 heatmap; fill opacity encodes the row-normalized count."""
    size = _SVG_MARGIN + 3 * _SVG_CELL + 8
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}" font-family="sans-serif" font-size="12">',
        f'<text x="{_SVG_MARGIN + 1.5 * _SVG_CELL:.0f}" y="14" text-anchor="middle">predicted</text>',
        f'<text x="12" y="{_SVG_MARGIN + 1.5 * _SVG_CELL:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 12 {_SVG_MARGIN + 1.5 * _SVG_CELL:.0f})">gold</text>',
    ]
    for j, label in enumerate(LABELS):
        x = _SVG_MARGIN + j * _SVG_CELL + _SVG_CELL // 2
        parts.append(f'<text x="{x}" y="{_SVG_MARGIN - 8}" text-anchor="middle">{label.name}</text>')
    for i, label in enumerate(LABELS):
        y = _SVG_MARGIN + i * _SVG_CELL + _SVG_CELL // 2 + 4
        parts.append(f'<text x="{_SVG_MARGIN - 8}" y="{y}" text-anchor="end">{label.name}</text>')
    row_sums = matrix.counts.sum(axis=1)
    for i in range(3):
        for j in range(3):
            count = int(matrix.counts[i, j])
            opacity = count / row_sums[i] if row_sums[i] > 0 else 0.0
            x = _SVG_MARGIN + j * _SVG_CELL
            y = _SVG_MARGIN + i * _SVG_CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_SVG_CELL}" height="{_SVG_CELL}" '
                f'fill="#1d4ed8" fill-opacity="{opacity:.4f}" stroke="#334155">'
                f"<title>{count}</title></rect>"
            )
            text_fill = "#ffffff" if opacity > 0.5 else "#111111"
            parts.append(
                f'<text x="{x + _SVG_CELL // 2}" y="{y + _SVG_CELL // 2 + 4}" '
                f'text-anchor="middle" fill="{text_fill}">{count}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write metrics.tsv, confusion.tsv and confusion.svg into ``out_dir``.
    Returns the written paths."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create report directory {out_dir}: {exc}") from None

    metrics_rows = [("accuracy", report.accuracy), ("weighted_f1", report.weighted_f1),
                    ("macro_f1", report.macro_f1)]
    for lab in LABELS:
        metrics_rows.append((f"precision_{lab.name}", report.precision[lab]))
        metrics_rows.append((f"recall_{lab.name}", report.recall[lab]))
        metrics_rows.append((f"f1_{lab.name}", report.f1[lab]))
    for lab in LABELS:
        metrics_rows.append((f"support_{lab.name}", float(report.support[lab])))
    if report.baseline_weighted_f1 is not None:
        metrics_rows.append(("random_baseline_weighted_f1", report.baseline_weighted_f1))

    written = []
    metrics_path = out_dir / "metrics.tsv"
    metrics_path.write_text(
        "".join(f"{name}\t{value:.4f}\n" for name, value in metrics_rows), encoding="utf-8"
    )
    written.append(metrics_path)

    confusion_path = out_dir / "confusion.tsv"
    lines = ["gold\\pred\t" + "\t".join(lab.name for lab in LABELS)]
    for i, lab in enumerate(LABELS):
        lines.append(lab.name + "\t" + "\t".join(str(int(c)) for c in report.matrix.counts[i]))
    confusion_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    written.append(confusion_path)

    svg_path = out_dir / "confusion.svg"
    svg_path.write_text(_confusion_svg(report.matrix), encoding="utf-8")
    written.append(svg_path)
    return written
