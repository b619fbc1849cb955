"""Self-test of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` lists exactly the metrics ``run.py`` emits,
that every workload runs clean traced and untraced, that the per-layer
counts repeat exactly, and that each correctness check fires on a
corrupted output: a truncated prediction file, predictions no better than
chance, a flipped stream label, and a changed model byte.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

TINY = run.Sizes(hindi_train=240, hindi_val=120, hindi_test=120, hindi_max_iters=10,
                 english_train=240, english_val=120, english_test=150,
                 english_max_iters=5, word_types=1200, round_requests=40, min_requests=100,
                 warmup_requests=5, setups=2)
COUNTS = ("kernels.stack_csr_calls", "kernels.matvec_calls", "kernels.rmatvec_calls",
          "model.iterations.NAG", "model.iterations.CAG", "model.iterations.OAG",
          "featurize.dim", "featurize.nnz", "featurize.tokenize_per_doc",
          "preprocess.spell_calls", "translit.unknown")


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {what}")
    print(f"PASS {what}")


def check_declaration() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        expect(declared == table, f"BENCHMARK.json {key} matches run.py")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")


def check_workloads() -> None:
    for workload in run.WORKLOADS:
        result = run.run(workload, 5, 1.0, False, TINY)["result"]
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0
               and all(m["value"] != 0 for m in result["metrics"].values()),
               f"{workload} untraced: correct, nothing failed, no metric is 0")
        traced = [run.run(workload, 5, 1.0, True, TINY)["result"] for _ in range(2)]
        expect(all(r["correct"] and r["failed"] == 0 for r in traced)
               and set(traced[0]["metrics"]) == set(run.PER_LAYER),
               f"{workload} traced: correct, every per-layer metric")
        expect(all(traced[0]["metrics"][c] == traced[1]["metrics"][c] for c in COUNTS),
               f"{workload} traced: counts repeat exactly")


def check_fires(work: Path) -> None:
    import aggdetect.cli
    import aggdetect.model

    info = run.setup_child("predict_english", 5, work, TINY)
    write, predict, save = (aggdetect.cli.write_predictions, aggdetect.model.predict,
                            aggdetect.cli.save_model)

    def truncated(corpus, predictions, path):
        write(corpus, predictions, path)
        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
        Path(path).write_text("".join(lines[:-3]), encoding="utf-8")

    def chance(corpus, predictions, path):
        write(corpus, [aggdetect.model.LABELS[0]] * len(predictions), path)

    try:
        aggdetect.cli.write_predictions = truncated
        outcome = run.Outcome()
        run.predict_once(work, "test.tsv", outcome)
        expect(outcome.failed == 3 and outcome.problems,
               "truncated prediction file: 3 failed documents, run not correct")

        aggdetect.cli.write_predictions = chance
        outcome = run.Outcome()
        run.predict_once(work, "test.tsv", outcome)
        expect(outcome.failed == 0 and any("random baseline" in p for p in outcome.problems),
               "predictions no better than chance: baseline check fires")
        aggdetect.cli.write_predictions = write

        rows = run.read_gold(work / "test.tsv")
        reference = run.predict_once(work, "test.tsv", run.Outcome())["labels"]
        model = aggdetect.model.load_model(work / "model.txt")
        calls = []

        def flipped(model_, vector):
            label = predict(model_, vector)
            calls.append(label)
            return aggdetect.model.LABELS[(int(label) + 1) % 3] if len(calls) == 2 else label

        aggdetect.model.predict = flipped
        outcome = run.Outcome()
        run.stream(model, rows, reference, outcome, count=10)
        expect(outcome.attempted == 10 and outcome.failed == 1,
               "flipped stream label: 1 failed request of 10")
        aggdetect.model.predict = predict

        def changed_byte(model_, path):
            save(model_, path)
            data = bytearray(Path(path).read_bytes())
            data[-2] ^= 1
            Path(path).write_bytes(bytes(data))

        aggdetect.cli.save_model = changed_byte
        outcome = run.Outcome()
        run.check_same_model([info["train"], run.train_once(work)], outcome)
        expect(outcome.failed == 1 and outcome.problems,
               "changed model byte: byte-identical check fires")
    finally:
        aggdetect.cli.write_predictions = write
        aggdetect.model.predict = predict
        aggdetect.cli.save_model = save


def main() -> int:
    if not (run.ROOT / "src" / "aggdetect" / "__init__.py").is_file():
        print("selftest: no program source", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    check_declaration()
    check_workloads()
    work = run.OUT / "selftest"
    try:
        check_fires(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
