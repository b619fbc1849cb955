"""End-to-end benchmark of the aggdetect pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the real code path, ``aggdetect.cli.main`` in-process plus the README
library path, on seeded generated inputs (see ``gen.py``), and prints as its
last stdout line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics from a traced run (see ``tracer.py``) plus the
tracing overhead. Workloads:

``train_hindi``
    ``aggdetect train --validation`` on a code-mixed Hindi corpus
    (``U+C3+C4+C5``, ``min_df = 2``, capped ``max_iters``), then ``predict``
    + ``evaluate`` and a slice of the stream on a Hindi test set with the
    model just written; rounds repeat for the measured time.
``predict_english``
    ``aggdetect predict`` then ``aggdetect evaluate --baseline trials=1000``
    on an English corpus with typos, then a slice of the stream, with an
    ``english-system-3`` model (``BU+U+C4+C5+W2V``, spell correction) that
    set-up trains; rounds repeat for the measured time, and each round
    first trains the same model again.

The stream is a closed loop with one client: one comment at a time through
``PreprocessSettings.apply``, ``FeaturePipeline.transform`` and ``predict``,
each label checked against ``predict`` on the same corpus.

Set-up (input generation and, for the English workloads, training the
model) runs in a child process several times; ``setup_s`` is the median.
The training figures (``train_s`` and friends) come from the trains of the
measured rounds only: a cold set-up child trains slower, and three of them
spread too much. Timings are reported at a reference machine speed that a
probe measures between the operations (see ``speed.py``).

Correctness checks: every training run of one invocation writes a model
with the same SHA-256; every document gets exactly one NAG/CAG/OAG
prediction; the printed F1 matches one recomputed here; both F1 scores beat
the random baseline on the same gold labels; each stream label equals the
batch label for its document (a mismatch is a failed operation).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads and inherited by the set-up
# children: on a few shared cores a second spinning OpenBLAS thread made the
# solver slower and its timings spread more from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from speed import SpeedProbe  # noqa: E402  (after the thread setting)
from tracer import Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "_out"
LABELS = ("NAG", "CAG", "OAG")

# name -> (unit, better); the end-to-end metrics of a --trace 0 run.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "train_objective": ("nats", "lower"),
    "val_weighted_f1": ("score", "higher"),
    "model_bytes": ("bytes", "lower"),
    "predict_s": ("s", "lower"),
    "weighted_f1": ("score", "higher"),
    "stream_p50_ms": ("ms", "lower"),
    "stream_p99_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better); the per-layer metrics of a --trace 1 run, each a
# total per operation (one train run, one predict + evaluate, one stream pass).
PER_LAYER = {
    "model.train_s": ("s", "lower"),
    "model.iterations.NAG": ("count", "lower"),
    "model.iterations.CAG": ("count", "lower"),
    "model.iterations.OAG": ("count", "lower"),
    "model.final_grad_norm_max": ("norm", "lower"),
    "model.ls_accept_ratio": ("ratio", "higher"),
    "model.save_s": ("s", "lower"),
    "model.load_s": ("s", "lower"),
    "model.predict_many_s": ("s", "lower"),
    "model.predict_s": ("s", "lower"),
    "kernels.stack_csr_calls": ("count", "lower"),
    "kernels.stack_csr_s": ("s", "lower"),
    "kernels.matvec_calls": ("count", "lower"),
    "kernels.rmatvec_calls": ("count", "lower"),
    "kernels.matvec_s": ("s", "lower"),
    "kernels.rmatvec_s": ("s", "lower"),
    "kernels.bytes_moved": ("bytes", "lower"),
    "featurize.fit_s": ("s", "lower"),
    "featurize.transform_s": ("s", "lower"),
    "featurize.dim": ("count", "lower"),
    "featurize.nnz": ("count", "lower"),
    "featurize.tokenize_per_doc": ("calls/doc", "lower"),
    "preprocess.s": ("s", "lower"),
    "preprocess.spell_s": ("s", "lower"),
    "preprocess.spell_calls": ("count", "lower"),
    "translit.s": ("s", "lower"),
    "translit.unknown": ("count", "lower"),
    "lexfeatures.load_embeddings_s": ("s", "lower"),
    "lexfeatures.embed_s": ("s", "lower"),
    "corpus_io.load_s": ("s", "lower"),
    "corpus_io.write_s": ("s", "lower"),
    "evaluate.s": ("s", "lower"),
    "evaluate.baseline_s": ("s", "lower"),
    "cli.other_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

WORKLOADS = ("train_hindi", "predict_english")


@dataclass(frozen=True)
class Sizes:
    """Input sizes. Chosen so that one run takes about a minute on two
    CPUs, and a comparison of two commits with 20 or more runs of each
    workload fits in about an hour; the self-test uses a tiny copy."""

    hindi_train: int = 800
    hindi_val: int = 400
    hindi_test: int = 400
    hindi_max_iters: int = 50
    english_train: int = 500
    english_val: int = 300
    english_test: int = 1000
    english_max_iters: int = 15
    word_types: int = 12000
    # Stream requests per round, and per run at least, so that the p99 has
    # ten samples beyond it. A short slice leaves more of the run to the
    # trains, whose median needs the most samples.
    round_requests: int = 300
    min_requests: int = 1000
    warmup_requests: int = 20
    # Set-ups per run: setup_s is their median.
    setups: int = 5


class ProgramError(Exception):
    """The program under test failed; no result can be reported."""


@dataclass
class Outcome:
    """Operation counts and failed correctness checks of one invocation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Inputs and set-up
# ----------------------------------------------------------------------


def _language(workload: str) -> str:
    return "hindi" if workload == "train_hindi" else "english"


def make_inputs(workload: str, seed: int, work: Path, sizes: Sizes) -> dict:
    """Generate the workload's files into ``work``; returns input properties."""
    import gen

    work.mkdir(parents=True, exist_ok=True)
    if _language(workload) == "hindi":
        props = gen.hindi_inputs(seed, work, sizes.hindi_train, sizes.hindi_val,
                                 sizes.hindi_test, n_types=sizes.word_types)
        config = ["language = hindi", "blocks = U+C3+C4+C5", "min_df = 2",
                  f"max_iters = {sizes.hindi_max_iters}"]
    else:
        props = gen.english_inputs(seed, work, sizes.english_train, sizes.english_val,
                                   sizes.english_test, n_types=sizes.word_types)
        config = ["preset = english-system-3", "embeddings = embeddings.vec",
                  "spell_dict = spell.tsv", "min_df = 2",
                  f"max_iters = {sizes.english_max_iters}"]
    (work / "run.cfg").write_text("".join(line + "\n" for line in config), encoding="utf-8")
    return props


def setup_child(workload: str, seed: int, work: Path, sizes: Sizes) -> dict:
    """Body of one set-up child: make the inputs and, for
    ``predict_english``, train the model the measured phase uses."""
    info: dict = {"inputs": make_inputs(workload, seed, work, sizes)}
    if _language(workload) == "english":
        info["train"] = train_once(work)
    return info


def run_setups(workload: str, seed: int, work: Path, sizes: Sizes,
               speed: SpeedProbe) -> tuple[list[float], list[float], list[dict]]:
    """Run the set-up children one after another, with a speed probe
    before the first and after each; their wall times, those times at the
    reference speed, and what each reported."""
    walls, scaled, infos = [], [], []
    speed.probe()
    for _ in range(sizes.setups):
        command = [sys.executable, str(Path(__file__).resolve()), "--setup-dir", str(work),
                   "--workload", workload, "--seed", str(seed),
                   "--sizes", json.dumps(asdict(sizes))]
        start = perf_counter()
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=170)
        walls.append(perf_counter() - start)
        speed.probe()
        scaled.append(walls[-1] * speed.last_scale())
        if done.returncode != 0:
            raise ProgramError(f"set-up exited with {done.returncode}")
        infos.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return walls, scaled, infos


# ----------------------------------------------------------------------
# Operations on the program
# ----------------------------------------------------------------------


def run_cli(*argv: str) -> str:
    """``aggdetect.cli.main`` in-process; returns what it printed."""
    import aggdetect.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = aggdetect.cli.main(["--quiet", *argv])
    if code != 0:
        raise ProgramError(f"aggdetect {argv[0]} exited with code {code}")
    return out.getvalue()


def _printed(output: str, key: str) -> float:
    for line in output.splitlines():
        name, _, value = line.partition("\t")
        if name == key:
            return float(value)
    raise ProgramError(f"output has no {key!r} line")


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_once(work: Path) -> dict:
    """One ``aggdetect train --validation``: wall time (argv to model
    written, validation scoring included), printed score, model digest."""
    model = work / "model.txt"
    start = perf_counter()
    output = run_cli("train", str(work / "train.tsv"), str(model),
                     "--config", str(work / "run.cfg"), "--validation", str(work / "val.tsv"))
    wall = perf_counter() - start
    return {"s": wall, "val_f1": _printed(output, "validation_weighted_f1"),
            "sha256": file_sha256(model), "bytes": model.stat().st_size}


def read_gold(path: Path) -> list[tuple[str, str, str]]:
    """(id, text, label) rows of a generated corpus (no escapes needed)."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        doc_id, text, label = line.split("\t")
        rows.append((doc_id, text, label))
    return rows


def check_predictions(pred_path: Path, gold_ids: list[str]) -> tuple[dict[str, str], int]:
    """Predicted labels by id, and how many documents lack exactly one
    valid NAG/CAG/OAG prediction (extra or duplicate rows count too)."""
    labels: dict[str, str] = {}
    bad = 0
    for line in pred_path.read_text(encoding="utf-8").splitlines():
        doc_id, _, label = line.partition("\t")
        if doc_id in labels or label not in LABELS:
            bad += 1
            continue
        labels[doc_id] = label
    wanted = set(gold_ids)
    bad += sum(1 for doc_id in labels if doc_id not in wanted)
    bad += sum(1 for doc_id in gold_ids if doc_id not in labels)
    return labels, bad


def weighted_f1(gold: list[str], pred: list[str]) -> float:
    """Support-weighted mean of per-class F1, computed independently of
    the program's evaluator."""
    total = 0.0
    for label in LABELS:
        tp = sum(1 for g, p in zip(gold, pred) if g == label and p == label)
        fp = sum(1 for g, p in zip(gold, pred) if g != label and p == label)
        support = sum(1 for g in gold if g == label)
        if tp:
            total += support * 2 * tp / (2 * tp + fp + (support - tp))
    return total / len(gold)


def predict_once(work: Path, corpus: str, outcome: Outcome) -> dict:
    """``aggdetect predict`` then ``aggdetect evaluate --baseline
    trials=1000`` on ``corpus``, with every output checked."""
    pred, report, gold_path = work / "pred.tsv", work / "report", work / corpus
    start = perf_counter()
    run_cli("predict", str(work / "model.txt"), str(gold_path), str(pred))
    wall = perf_counter() - start
    # Checked before evaluate, which refuses incomplete predictions.
    gold = read_gold(gold_path)
    labels, bad = check_predictions(pred, [doc_id for doc_id, _, _ in gold])
    outcome.attempted += len(gold)
    outcome.failed += bad
    if bad:
        outcome.problems.append(f"{bad} documents of {corpus} lack a valid prediction")
        return {"s": wall, "labels": labels, "f1": 0.0}
    start = perf_counter()
    output = run_cli("evaluate", str(gold_path), str(pred), str(report),
                     "--baseline", "trials=1000")
    wall += perf_counter() - start
    f1 = weighted_f1([g for _, _, g in gold], [labels[doc_id] for doc_id, _, _ in gold])
    printed = _printed(output, "weighted_f1")
    if abs(printed - f1) > 5e-5:
        outcome.problems.append(f"evaluate printed weighted_f1 {printed}, recomputed {f1:.6f}")
    baseline = _printed((report / "metrics.tsv").read_text(encoding="utf-8"),
                        "random_baseline_weighted_f1")
    if not f1 > baseline:
        outcome.problems.append(
            f"weighted_f1 {f1:.4f} does not beat the random baseline {baseline}")
    return {"s": wall, "labels": labels, "f1": f1}


def stream(model, rows: list[tuple[str, str, str]], reference: dict[str, str],
           outcome: Outcome, count: int, start_at: int = 0) -> list[float]:
    """Closed loop, one client: each of ``count`` comments goes through the
    README library path after the previous answer came back; returns
    per-request seconds. Attribute lookups stay inside the loop so that the
    traced run sees its wrappers."""
    import aggdetect.model
    from aggdetect.corpus_io import Document

    latencies = []
    i = start_at
    while len(latencies) < count:
        doc_id, text, _gold = rows[i % len(rows)]
        i += 1
        begin = perf_counter()
        vector = model.pipeline.transform(Document(doc_id, model.preprocess.apply(text)))
        label = aggdetect.model.predict(model, vector)
        latencies.append(perf_counter() - begin)
        outcome.attempted += 1
        if label.name != reference[doc_id]:
            outcome.failed += 1
    return latencies


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, -(-pct * len(ordered) // 100)) - 1]


def train_objective(work: Path) -> float:
    """Mean over the three classes of the documented objective
    J(w, b) = (1/m) sum_i xent(sigmoid(w.x_i + b), y_i) + (lambda/2m) ||w||^2
    at the weights in the model file, on the training features."""
    import numpy as np
    from aggdetect.corpus_io import Document
    from aggdetect.model import load_model

    model = load_model(work / "model.txt")
    rows = read_gold(work / "train.tsv")
    docs = [Document(doc_id, model.preprocess.apply(text)) for doc_id, text, _ in rows]
    vectors = model.pipeline.transform_many(docs)
    row_ids = np.repeat(np.arange(len(vectors)), [len(v) for v in vectors])
    arrays = [v.to_arrays() for v in vectors]
    indices = np.concatenate([a[0] for a in arrays])
    values = np.concatenate([a[1] for a in arrays])
    m = len(rows)
    objectives = []
    for k, clf in enumerate(model.classifiers):
        y = np.array([label == LABELS[k] for _, _, label in rows], dtype=np.float64)
        z = np.bincount(row_ids, weights=values * clf.weights[indices], minlength=m) + clf.bias
        loss = float(np.sum(np.logaddexp(0.0, z) - y * z)) / m
        objectives.append(loss + 0.5 * clf.reg_lambda * float(clf.weights @ clf.weights) / m)
    return sum(objectives) / len(objectives)


def random_baseline(path: Path) -> float:
    from aggdetect.corpus_io import parse_label
    from aggdetect.evaluate import random_baseline as baseline

    return baseline([parse_label(label) for _, _, label in read_gold(path)], trials=1000)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------




def check_same_model(train_runs: list[dict], outcome: Outcome) -> None:
    """The byte-identical contract: one input, one model file."""
    shas = {run["sha256"] for run in train_runs}
    if len(shas) != 1:
        outcome.failed += len(train_runs) - 1
        outcome.problems.append(
            f"{len(train_runs)} training runs wrote {len(shas)} different models")


def check_training(train_runs: list[dict], work: Path, outcome: Outcome) -> None:
    """Every train run counts as an operation, writes the same model and
    scores the validation set above the random baseline."""
    outcome.attempted += len(train_runs)
    check_same_model(train_runs, outcome)
    val_f1 = train_runs[-1]["val_f1"]
    val_baseline = random_baseline(work / "val.tsv")
    if not val_f1 > val_baseline:
        outcome.problems.append(f"val_weighted_f1 {val_f1} does not beat the random "
                                f"baseline {val_baseline:.4f}")


def measure(workload: str, work: Path, seconds: float, sizes: Sizes, setup: dict,
            outcome: Outcome) -> tuple[dict[str, float], dict, list[dict], dict]:
    """The untraced run: end-to-end metrics, sample counts, train runs.

    Rounds repeat until the time is up: a train run, a predict + evaluate,
    then a slice of the stream with the model just written, each followed
    by a speed probe. Each time is scaled to the reference speed by the
    probes around it (see ``speed.py``), and the timings are medians over
    the run; ``train_s`` comes from these in-process trains alone, never
    from the cold set-up children.
    """
    from aggdetect.model import load_model

    rows = read_gold(work / "test.tsv")
    train_runs, predict_runs = [], []
    # Seconds at the reference speed, and the raw stream latencies.
    scaled: dict[str, list[float]] = {"train": [], "predict": [], "stream": []}
    raw_latencies: list[float] = []
    model = None
    speed = SpeedProbe()

    def predict():
        predict_runs.append(predict_once(work, "test.tsv", outcome))
        speed.probe()
        scaled["predict"].append(predict_runs[-1]["s"] * speed.last_scale())
        if predict_runs[-1]["labels"] != predict_runs[0]["labels"]:
            outcome.problems.append("two predict runs of one model gave different labels")
        return predict_runs[-1]["labels"]

    def stream_slice(reference, count):
        nonlocal model
        if model is None:
            model = load_model(work / "model.txt")
            stream(model, rows, reference, outcome, sizes.warmup_requests)
        latencies = stream(model, rows, reference, outcome, count,
                           start_at=sizes.warmup_requests + len(raw_latencies))
        speed.probe()
        raw_latencies.extend(latencies)
        scaled["stream"].extend(s * speed.last_scale() for s in latencies)

    speed.probe()
    deadline = perf_counter() + seconds
    # Two rounds at least: the byte-identical model check needs a pair.
    while len(predict_runs) < 2 or perf_counter() < deadline:
        train_runs.append(train_once(work))
        speed.probe()
        scaled["train"].append(train_runs[-1]["s"] * speed.last_scale())
        stream_slice(predict(), sizes.round_requests)
    if len(raw_latencies) < sizes.min_requests:
        stream_slice(predict_runs[-1]["labels"], sizes.min_requests - len(raw_latencies))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The p99 stays raw: the tail comes from pauses that do not follow the
    # probe, and scaling each slice's requests spread it more from run to run.
    metrics = {
        "setup_s": statistics.median(setup["scaled"]),
        "train_s": statistics.median(scaled["train"]),
        "train_objective": train_objective(work),
        "val_weighted_f1": train_runs[-1]["val_f1"],
        "model_bytes": float(train_runs[-1]["bytes"]),
        "predict_s": statistics.median(scaled["predict"]),
        "weighted_f1": predict_runs[-1]["f1"],
        "stream_p50_ms": 1e3 * percentile(scaled["stream"], 50),
        "stream_p99_ms": 1e3 * percentile(raw_latencies, 99),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"train_runs": len(train_runs), "predict_runs": len(predict_runs),
               "stream_requests": len(raw_latencies), "speed_probes": len(speed.samples),
               "setup_speed_probes": len(setup["speed"].samples)}
    timing = {
        "raw": {
            "setup_s": statistics.median(setup["walls"]),
            "train_s": statistics.median(run["s"] for run in train_runs),
            "predict_s": statistics.median(run["s"] for run in predict_runs),
            "stream_p50_ms": 1e3 * percentile(raw_latencies, 50),
            "stream_p99_ms": 1e3 * percentile(raw_latencies, 99),
        },
        "probe_median_s": speed.median_s(),
        "setup_probe_median_s": setup["speed"].median_s(),
    }
    return metrics, samples, train_runs, timing


def measure_traced(workload: str, work: Path, seconds: float, tracer: Tracer,
                   outcome: Outcome) -> tuple[dict[str, float], dict, list[dict], dict]:
    """The traced run: the workload's operation alternately untraced and
    traced until the time is up. The operation is one train run for
    ``train_hindi``; for ``predict_english`` it is one predict + evaluate
    and one pass of the stream over the same comments. Per-layer metrics
    come from the traced operations; the overhead is the difference of the
    two medians."""
    from aggdetect.model import load_model

    train_runs: list[dict] = []
    if workload == "train_hindi":
        def op():
            train_runs.append(train_once(work))
    else:
        model = load_model(work / "model.txt")
        rows = read_gold(work / "test.tsv")

        def op():
            reference = predict_once(work, "test.tsv", outcome)["labels"]
            stream(model, rows, reference, outcome, count=len(rows))
    walls: dict[bool, list[float]] = {False: [], True: []}
    deadline = perf_counter() + seconds
    while not walls[True] or perf_counter() < deadline:
        # Pairs alternate which side goes first, so neither gets the warm slot.
        for traced in (False, True) if len(walls[True]) % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                start = perf_counter()
                with tracer.span("op") if traced else contextlib.nullcontext():
                    op()
                walls[traced].append(perf_counter() - start)
            finally:
                tracer.uninstall()
    metrics = layer_metrics(tracer.spans, "op")
    metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False]))
    samples = {"untraced_ops": len(walls[False]), "traced_ops": len(walls[True])}
    return metrics, samples, train_runs, {}


def environment() -> dict:
    import numpy
    from aggdetect import kernels

    return {
        "kernels_backend": kernels.active_backend(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> dict:
    """One benchmark invocation; returns the result object."""
    work = OUT / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup_speed = SpeedProbe()
        walls, scaled, infos = run_setups(workload, seed, work, sizes, setup_speed)
        if any(info["inputs"] != infos[0]["inputs"] for info in infos):
            raise ProgramError("set-ups generated different inputs from one seed")
        setup = {"walls": walls, "scaled": scaled, "speed": setup_speed,
                 "trains": [info["train"] for info in infos if "train" in info]}
        outcome = Outcome()
        if trace:
            spans = Tracer()
            metrics, samples, train_runs, timing = measure_traced(workload, work, seconds,
                                                                  spans, outcome)
        else:
            metrics, samples, train_runs, timing = measure(workload, work, seconds, sizes,
                                                           setup, outcome)
        samples["setups"] = len(infos)
        check_training(setup["trains"] + train_runs, work, outcome)
        record = {"workload": workload, "seed": seed, "trace": int(trace),
                  "env": environment(), "inputs": infos[0]["inputs"], "samples": samples,
                  "timing": timing, "problems": outcome.problems, "metrics": metrics}
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        if trace:
            spans.write(results / f"{stem}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    return {
        "record": record,
        "result": {
            "correct": not outcome.problems,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                        for name in units},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-dir", help=argparse.SUPPRESS)
    parser.add_argument("--sizes", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aggdetect" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sizes = Sizes(**json.loads(args.sizes)) if args.sizes else Sizes()

    try:
        if args.setup_dir:
            info = setup_child(args.workload, args.seed, Path(args.setup_dir), sizes)
            print(json.dumps(info))
            return 0
        done = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    except ProgramError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record, result = done["record"], done["result"]
    print(json.dumps({key: record[key] for key in ("env", "inputs", "samples", "timing")}))
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
