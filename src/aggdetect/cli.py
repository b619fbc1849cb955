"""Command-line driver.

Subcommands: ``build-dict``, ``train``, ``predict``, ``evaluate``,
``inspect``, ``dump-translit-table``.  Run configs are flat key/value
files; a minimal one is two lines::

    language = hindi
    blocks = U+C3+C4+C5

Exit codes: 0 success, 1 usage error, 2 data error, 3 resource error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import translit
from .corpus_io import Corpus, Document, load_corpus, load_predictions, write_predictions
from .errors import DataError, ResourceError, UsageError, read_utf8
from .evaluate import build_report, random_baseline, render_report
from .featurize import BLOCK_DEFS, DENSE_KINDS, FeatureBlockSpec, FeaturePipeline
from .lexfeatures import BuiltinSentimentProvider, Resources
from .model import (
    MODEL_FORMAT,
    OvRModel,
    TrainConfig,
    load_model,
    predict_many,
    save_model,
    top_features,
    train_ovr,
)
from .preprocess import (
    CLEAN_SWITCHES,
    CleanConfig,
    PreprocessSettings,
    save_spell_dictionary,
    SpellDictionary,
)

log = logging.getLogger("aggdetect")

LANGUAGES = ("english", "hindi")

# Feature blocks that need English-only resources: the dense ones.
ENGLISH_ONLY_BLOCKS = tuple(name for name, (kind, _) in BLOCK_DEFS.items() if kind in DENSE_KINDS)

# The config key naming the file of each dense block that reads one file;
# the file loads as the resource named by the block's kind.
DENSE_BLOCK_FILES = {"W2V": "embeddings", "LIWC": "liwc_lexicon", "GP": "gender_lexicon"}

# Ready-made configs for the usual system variants. File keys override
# preset values; the system-1/system-2 split differs between languages
# (English system 1 merged the validation data, Hindi system 2 did).
PRESETS: dict[str, dict[str, str]] = {
    "english-system-1": {
        "language": "english",
        "blocks": "BU+U+C4+C5+W2V",
        "merge_validation": "true",
    },
    "english-system-2": {"language": "english", "blocks": "BU+U+C4+C5+W2V"},
    "english-system-3": {
        "language": "english",
        "blocks": "BU+U+C4+C5+W2V",
        "spell_correct": "true",
    },
    "hindi-system-1": {"language": "hindi", "blocks": "U+C3+C4+C5"},
    "hindi-system-2": {
        "language": "hindi",
        "blocks": "U+C3+C4+C5",
        "merge_validation": "true",
    },
}


@dataclass
class RunConfig:
    """Everything a training run needs, resolved from a config file.

    ``clean_overrides`` holds the :class:`CleanConfig` fields that the file
    sets, a switch of ``CLEAN_SWITCHES`` or ``expansions``; every other
    field keeps the language's default (:meth:`clean_config`). ``paths``
    holds the resource paths that the file sets, keyed by ``_PATH_KEYS``
    and resolved against the config file's directory."""

    language: str = "english"
    blocks: list[str] = field(default_factory=lambda: ["U"])
    min_df: int = 2
    spell_correct: bool = False
    transliterate: bool | None = None  # None: on for hindi, off for english
    merge_validation: bool = False
    clean_overrides: dict[str, object] = field(default_factory=dict)
    paths: dict[str, str] = field(default_factory=dict)
    sentiment_provider: str = "builtin"
    intensity_split: float = 0.7
    train: TrainConfig = field(default_factory=TrainConfig)

    def clean_config(self) -> CleanConfig:
        return replace(CleanConfig.for_language(self.language), **self.clean_overrides)

    def wants_transliteration(self) -> bool:
        return self.language == "hindi" if self.transliterate is None else self.transliterate


_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_config_bool(key: str, value: str) -> bool:
    if value.lower() not in _BOOL_VALUES:
        raise UsageError(f"config key {key!r}: expected a boolean, got {value!r}")
    return _BOOL_VALUES[value.lower()]


def _config_number(key: str, value: str, kind: type) -> int | float:
    try:
        return kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise UsageError(f"config key {key!r} must be {what}, got {value!r}") from None


def parse_blocks(value: str) -> list[str]:
    names = [n.strip() for chunk in value.split(",") for n in chunk.split("+") if n.strip()]
    if not names:
        raise UsageError("config key 'blocks' must name at least one feature block")
    for name in names:
        if name not in BLOCK_DEFS:
            raise UsageError(
                f"unknown feature block {name!r} (known: {', '.join(sorted(BLOCK_DEFS))})"
            )
    if len(set(names)) != len(names):
        raise UsageError(f"duplicate feature block in {names}")
    return names


# The config keys that name a resource file.
_PATH_KEYS = ("embeddings", "positive_words", "negative_words", "sentiment_sidecar",
              "liwc_lexicon", "gender_lexicon", "spell_dict")


def load_run_config(path: str | Path) -> RunConfig:
    """Parse a key/value config file into a validated RunConfig."""
    path = Path(path)
    if not path.is_file():
        raise ResourceError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    for lineno, line in enumerate(read_utf8(path, UsageError).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise UsageError(f"{path}: line {lineno} is not 'key = value': {line!r}")
        key = key.strip()
        if key in key_lines:
            raise UsageError(f"{path}: config key {key!r} is given twice, "
                             f"on lines {key_lines[key]} and {lineno}")
        key_lines[key] = lineno
        raw[key] = value.strip()

    if "preset" in raw:
        preset_name = raw.pop("preset")
        preset = PRESETS.get(preset_name)
        if preset is None:
            raise UsageError(
                f"unknown preset {preset_name!r} (known: {', '.join(sorted(PRESETS))})"
            )
        raw = {**preset, **raw}

    config = RunConfig()
    train_kwargs: dict[str, object] = {}
    for key, value in raw.items():
        if key == "language":
            if value not in LANGUAGES:
                raise UsageError(f"language must be one of {LANGUAGES}, got {value!r}")
            config.language = value
        elif key == "blocks":
            config.blocks = parse_blocks(value)
        elif key == "min_df":
            config.min_df = _config_number(key, value, int)
        elif key in ("spell_correct", "merge_validation", "transliterate"):
            setattr(config, key, _parse_config_bool(key, value))
        elif key in CLEAN_SWITCHES:
            config.clean_overrides[key] = _parse_config_bool(key, value)
        elif key == "expansions":
            try:
                config.clean_overrides[key] = json.loads(value)
            except json.JSONDecodeError as exc:
                raise UsageError(f"config key 'expansions': bad JSON ({exc})") from None
        elif key in _PATH_KEYS:
            config.paths[key] = str((path.parent / value).resolve())
        elif key == "sentiment_provider":
            if value not in ("builtin", "sidecar"):
                raise UsageError(f"sentiment_provider must be builtin or sidecar, got {value!r}")
            config.sentiment_provider = value
        elif key == "intensity_split":
            config.intensity_split = _config_number(key, value, float)
            if not 0.0 <= config.intensity_split <= 1.0:
                raise UsageError(f"config key 'intensity_split' must be in [0, 1], got {value!r}")
        elif key in ("reg_lambda", "grad_tol", "max_iters"):
            train_kwargs[key] = _config_number(key, value, int if key == "max_iters" else float)
        else:
            raise UsageError(f"{path}: unknown config key {key!r}")
    try:
        config.train = TrainConfig(**train_kwargs)  # type: ignore[arg-type]
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None

    _validate_run_config(config, raw)
    return config


def config_reads(config: RunConfig) -> dict[str, str]:
    """Each config key that only some settings read, if the config's
    settings read it, with what reads it: a dense block's file, S's
    provider and that provider's files and split, ``spell_dict`` under
    ``spell_correct`` and ``min_df`` for the lexical blocks."""
    reads = {key: f"block {block}" for block, key in DENSE_BLOCK_FILES.items()
             if block in config.blocks}
    if "S" in config.blocks:
        reads["sentiment_provider"] = "block S"
        reader = f"block S with the {config.sentiment_provider} provider"
        keys = (("positive_words", "negative_words", "intensity_split")
                if config.sentiment_provider == "builtin" else ("sentiment_sidecar",))
        reads.update(dict.fromkeys(keys, reader))
    if config.spell_correct:
        reads["spell_dict"] = "spell_correct = true"
    if any(BLOCK_DEFS[block][0] not in DENSE_KINDS for block in config.blocks):
        reads["min_df"] = "the lexical blocks"
    return reads


# The keys that config_reads can name: one that a config file sets where
# nothing reads it is ignored, with a warning.
_READ_WHEN_USED = (*_PATH_KEYS, "sentiment_provider", "intensity_split", "min_df")


def _validate_run_config(config: RunConfig, raw: dict[str, str]) -> None:
    """Refuse a config that cannot run; warn once for each key of the
    file's ``raw`` values that nothing reads."""
    bad = [b for b in config.blocks if b in ENGLISH_ONLY_BLOCKS]
    if config.language == "hindi" and bad:
        raise UsageError(f"blocks {', '.join(bad)} are not available for hindi configs")
    reads = config_reads(config)
    for key, reader in reads.items():
        if key in _PATH_KEYS and key not in config.paths:
            raise UsageError(f"{reader} requires a path in {key!r}")
    if config.min_df < 1:
        raise UsageError("min_df must be >= 1")
    config.clean_config()  # refuses bad or non-idempotent expansions
    for key in raw:
        if key in _READ_WHEN_USED and key not in reads:
            what = "file" if key in _PATH_KEYS else "setting"
            log.warning("config key %r names a %s that no setting uses; ignored", key, what)


def load_resources(config: RunConfig) -> Resources:
    """Load and checksum each resource file that the config reads
    (:func:`config_reads`): the embedding table for W2V, the sentiment word
    lists for S with the builtin provider or the sidecar with the sidecar
    provider, the category lexicon for LIWC and the gender lexicon for GP.
    Fails fast, before any training compute starts."""
    reads = config_reads(config)
    resources = Resources()
    for block, key in DENSE_BLOCK_FILES.items():
        if key in reads:
            resources.load(BLOCK_DEFS[block][0], config.paths[key])
    if "positive_words" in reads:
        resources.sentiment_provider = BuiltinSentimentProvider(
            resources.load("sentiment_pos", config.paths["positive_words"]),
            resources.load("sentiment_neg", config.paths["negative_words"]),
            config.intensity_split,
        )
    elif "sentiment_sidecar" in reads:
        resources.sentiment_provider = resources.load(
            "sentiment_sidecar", config.paths["sentiment_sidecar"])
    return resources


def build_preprocess_settings(config: RunConfig, resources: Resources) -> PreprocessSettings:
    return PreprocessSettings(
        clean=config.clean_config(),
        transliterate=config.wants_transliteration(),
        spell_dictionary=(
            resources.load("spell_dict", config.paths["spell_dict"])
            if config.spell_correct else None
        ),
    )


def preprocess_corpus(corpus: Corpus, settings: PreprocessSettings) -> list[Document]:
    docs = []
    unknown_total = 0
    for doc in corpus.documents:
        text, unknown = settings.apply_with_stats(doc.text)
        unknown_total += unknown
        docs.append(Document(id=doc.id, text=text, gold=doc.gold))
    if unknown_total:
        log.warning(
            "%d Devanagari codepoints were outside the transliteration table "
            "and passed through unchanged",
            unknown_total,
        )
    return docs


def _embedding_coverage(documents: list[Document], resources: Resources) -> float:
    from .featurize import tokenize

    total = hits = 0
    for doc in documents:
        for token in tokenize(doc.text):
            total += 1
            hits += token in resources.embeddings
    return hits / total if total else 0.0


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_build_dict(args) -> int:
    corpus = load_corpus(args.corpus, has_labels=False, format=args.format)
    settings = build_preprocess_settings(RunConfig(language=args.language), Resources())
    counts: Counter[str] = Counter()
    for doc in preprocess_corpus(corpus, settings):
        counts.update(doc.text.split())
    save_spell_dictionary(SpellDictionary(dict(counts)), args.out)
    log.info("wrote %d dictionary entries to %s", len(counts), args.out)
    return 0


def cmd_train(args) -> int:
    config = load_run_config(args.config)
    if config.merge_validation and not args.validation:
        raise UsageError("merge_validation = true requires a validation corpus")
    if args.report_dir and (config.merge_validation or not args.validation):
        raise UsageError("--report-dir requires a validation corpus that is not merged")

    # Fail fast: resources first, before corpora are even featurized.
    resources = load_resources(config)
    settings = build_preprocess_settings(config, resources)

    corpus = load_corpus(args.train_corpus, has_labels=True, format=args.format)
    validation = None
    if args.validation:
        validation = load_corpus(args.validation, has_labels=True, format=args.format)

    train_docs = list(corpus.documents)
    if config.merge_validation and validation is not None:
        shared = {doc.id for doc in corpus.documents} & {doc.id for doc in validation.documents}
        if shared:
            raise DataError(f"document id {min(shared)!r} is in both the training and the "
                            "validation corpus; merged ids must be unique")
        train_docs += validation.documents
        log.info(
            "merged validation into training: %d train + %d validation = %d documents",
            len(corpus.documents), len(validation.documents), len(train_docs),
        )

    prepped = preprocess_corpus(Corpus(train_docs), settings)
    blocks = [FeatureBlockSpec.from_name(name, config.min_df) for name in config.blocks]
    pipeline = FeaturePipeline(blocks, resources)
    X = pipeline.fit_transform(prepped)
    log.info("fitted %d feature blocks, total dimension %d",
             len(blocks), pipeline.total_dimension)
    if "W2V" in config.blocks and log.isEnabledFor(logging.INFO):
        log.info("embedding coverage: %.1f%% of training tokens",
                 100.0 * _embedding_coverage(prepped, resources))

    gold = [doc.gold for doc in prepped]
    ovr = train_ovr(X, gold, config.train, pipeline=pipeline,
                    preprocess=settings, language=config.language)
    # the training matrix is a train's largest array: release it before the
    # model is saved and validation is featurized
    del X
    ovr.merged_validation = config.merge_validation
    if ovr.single_class_warning:
        log.warning("training corpus contains a single class")
    for label, clf in zip(("NAG", "CAG", "OAG"), ovr.classifiers):
        log.info("%s classifier: %d iterations, stopped by %s, final grad norm %.2e",
                 label, clf.iterations, clf.stop_reason, clf.final_grad_norm)
        if clf.stop_reason != "grad_tol":
            log.warning("%s classifier did not converge: stopped by %s with grad norm "
                        "%.2e > grad_tol %.2e", label, clf.stop_reason,
                        clf.final_grad_norm, config.train.grad_tol)
    save_model(ovr, args.model_out)
    log.info("model written to %s", args.model_out)

    if validation is not None and not config.merge_validation:
        val_prepped = preprocess_corpus(validation, settings)
        predictions = predict_many(ovr, pipeline.transform_many(val_prepped))
        report = build_report([doc.gold for doc in validation.documents], predictions)
        print(f"validation_weighted_f1\t{report.weighted_f1:.4f}")
        if args.report_dir:
            render_report(report, args.report_dir)
            log.info("validation report written to %s", args.report_dir)
    return 0


def cmd_predict(args) -> int:
    ovr = load_model(args.model)
    if args.sentiment_sidecar:
        resources = ovr.pipeline.resources
        if getattr(resources.sentiment_provider, "kind", None) != "sidecar":
            raise UsageError("--sentiment-sidecar needs a model trained with sidecar sentiment")
        resources.sentiment_provider = resources.load("sentiment_sidecar", args.sentiment_sidecar)
    corpus = load_corpus(args.corpus, has_labels=False, format=args.format)
    prepped = preprocess_corpus(corpus, ovr.preprocess)
    predictions = predict_many(ovr, ovr.pipeline.transform_many(prepped))
    write_predictions(corpus, predictions, args.out)
    log.info("wrote %d predictions to %s", len(predictions), args.out)
    return 0


def _parse_baseline_args(items: list[str]) -> tuple[int, int, str]:
    """``(trials, seed, mode)`` from ``--baseline`` items."""
    trials, seed, mode = 1000, 0, "uniform"
    given: set[str] = set()
    for item in items:
        key, sep, value = item.partition("=")
        if not sep or key not in ("trials", "seed", "mode"):
            raise UsageError(f"--baseline takes trials=N seed=S mode=M, got {item!r}")
        if key in given:
            raise UsageError(f"--baseline key {key!r} is given twice")
        given.add(key)
        if key == "mode":
            if value not in ("uniform", "empirical"):
                raise UsageError(f"--baseline mode must be uniform or empirical, got {value!r}")
            mode = value
            continue
        try:
            parsed = int(value)
        except ValueError:
            raise UsageError(f"--baseline {key} must be an integer, got {value!r}") from None
        if key == "trials":
            trials = parsed
        else:
            seed = parsed
    if trials < 1:
        raise UsageError("--baseline trials must be >= 1")
    if seed < 0:
        raise UsageError("--baseline seed must be >= 0")
    return trials, seed, mode


def cmd_evaluate(args) -> int:
    if args.baseline is not None:  # a bad --baseline is a usage error before any file is read
        trials, seed, mode = _parse_baseline_args(args.baseline)
    corpus = load_corpus(args.gold_corpus, has_labels=True, format=args.format)
    predictions = load_predictions(args.predictions)
    pred_labels = []
    for doc in corpus.documents:
        if doc.id not in predictions:
            raise DataError(f"predictions are missing document id {doc.id!r}")
        pred_labels.append(predictions[doc.id])
    extra = set(predictions) - {doc.id for doc in corpus.documents}
    if extra:
        raise DataError(f"predictions contain unknown document id {sorted(extra)[0]!r}")

    gold = corpus.gold_labels()
    baseline = None
    if args.baseline is not None:
        baseline = random_baseline(gold, seed=seed, trials=trials, mode=mode)
        log.info("random baseline (%s, %d trials, seed %d): %.4f", mode, trials, seed, baseline)

    report = build_report(gold, pred_labels, baseline_weighted_f1=baseline)
    render_report(report, args.out_dir)
    print(f"weighted_f1\t{report.weighted_f1:.4f}")
    log.info("report written to %s", args.out_dir)
    return 0


def cmd_inspect(args) -> int:
    from .corpus_io import LABELS

    ovr = load_model(args.model)
    columns = [[name for name, _w in top_features(ovr, label, args.top)]
               for label in LABELS]
    print("NAG\tCAG\tOAG")
    for row in range(max((len(c) for c in columns), default=0)):
        print("\t".join(col[row] if row < len(col) else "" for col in columns))
    # after a blank line: the format's header line, then each class's
    # convergence ("-" where the file does not record it)
    print(f"\nformat\t{MODEL_FORMAT}")
    print("class\titerations\tstop_reason\tfinal_loss\tfinal_grad_norm")
    for label, clf in zip(LABELS, ovr.classifiers):
        loss = "-" if clf.final_loss is None else f"{clf.final_loss:.6g}"
        print(f"{label.name}\t{clf.iterations}\t{clf.stop_reason or '-'}\t{loss}\t"
              f"{clf.final_grad_norm:.2e}")
    return 0


def cmd_dump_translit_table(args) -> int:
    print("devanagari\tcodepoint\troman\tkind")
    for ch, roman, kind in translit.table_rows():
        print(f"{ch}\tU+{ord(ch):04X}\t{roman}\t{kind}")
    return 0


# ----------------------------------------------------------------------
# Parser / entry point
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aggdetect",
                     description="Aggression classification (NAG/CAG/OAG) pipeline")
    parser.add_argument("--quiet", action="store_true", help="only warnings on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("tsv", "csv"), default="tsv",
                       help="corpus file format (default tsv)")

    p = sub.add_parser("build-dict", help="build a spell dictionary from a corpus")
    p.add_argument("corpus")
    p.add_argument("out")
    p.add_argument("--language", choices=LANGUAGES, default="english")
    add_format(p)
    p.set_defaults(func=cmd_build_dict)

    p = sub.add_parser("train", help="fit the pipeline and train the classifier")
    p.add_argument("train_corpus")
    p.add_argument("model_out")
    p.add_argument("--config", required=True, help="run config file")
    p.add_argument("--validation", help="validation corpus (scored unless merged)")
    p.add_argument("--report-dir", help="where to write the validation report")
    add_format(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label a corpus with a trained model")
    p.add_argument("model")
    p.add_argument("corpus")
    p.add_argument("out")
    p.add_argument("--sentiment-sidecar", help="per-sentence sentiment for this corpus")
    add_format(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    p.add_argument("gold_corpus")
    p.add_argument("predictions")
    p.add_argument("out_dir")
    p.add_argument("--baseline", nargs="*", metavar="KEY=VAL",
                   help="add a random baseline (trials=N seed=S mode=M)")
    add_format(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="print the top features and the convergence per class")
    p.add_argument("model")
    p.add_argument("--top", type=int, default=10, help="features per class (default 10)")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("dump-translit-table", help="print the transliteration table")
    p.set_defaults(func=cmd_dump_translit_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
        log.setLevel(logging.WARNING if args.quiet else logging.INFO)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
