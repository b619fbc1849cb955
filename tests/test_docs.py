"""README's command lines name only flags, and ``--baseline`` items,
that the CLI takes."""

import argparse
import itertools
import re
from pathlib import Path

import pytest

from aggdetect import cli
from aggdetect.errors import UsageError

README = Path(__file__).resolve().parent.parent / "README.md"


def subcommand_flags():
    """Each subcommand's option strings, with the global ones."""
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    common = {s for a in parser._actions for s in a.option_strings}
    return {name: common | {s for a in p._actions for s in a.option_strings}
            for name, p in sub.choices.items()}


def quoted_commands(text, subcommands):
    """The words of each command line that starts with a subcommand,
    ``aggdetect`` before it or not: an inline code span, or a line of a
    fenced code block."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    commands = [line for block in blocks for line in block.splitlines()]
    commands += re.findall(r"`([^`]+)`", prose)
    found = []
    for command in commands:
        words = command.split()
        if words[:1] == ["aggdetect"]:
            words = [w for w in words[1:] if w != "--quiet"]
        if words and words[0] in subcommands:
            found.append(words)
    return found


def quoted_flags(text, subcommands):
    """``(subcommand, flag)`` for each ``--flag`` in a quoted command line."""
    return [(words[0], w.partition("=")[0]) for words in quoted_commands(text, subcommands)
            for w in words if w.startswith("--")]


def quoted_baseline_items(text):
    """The items after each ``evaluate --baseline`` in a quoted command
    line, up to the next flag."""
    found = []
    for words in quoted_commands(text, {"evaluate"}):
        if "--baseline" in words:
            items = words[words.index("--baseline") + 1:]
            found.append(list(itertools.takewhile(lambda w: not w.startswith("-"), items)))
    return found


def test_readme_flags_exist():
    flags = subcommand_flags()
    found = quoted_flags(README.read_text(encoding="utf-8"), flags)
    # the check reads both quoting styles
    assert ("train", "--report-dir") in found and ("evaluate", "--baseline") in found
    assert [(command, flag) for command, flag in found if flag not in flags[command]] == []


def test_a_removed_flag_is_caught():
    text = "Use `evaluate --seed` or\n\n```bash\naggdetect train a b --merge-validation\n```\n"
    flags = subcommand_flags()
    assert [pair for pair in quoted_flags(text, flags) if pair[1] not in flags[pair[0]]] == [
        ("train", "--merge-validation"), ("evaluate", "--seed"),
    ]


def test_readme_baseline_items_parse():
    quoted = quoted_baseline_items(README.read_text(encoding="utf-8"))
    assert ["trials=1000", "seed=7"] in quoted
    for items in quoted:
        cli._parse_baseline_args(items)  # a UsageError names the bad item


def test_a_refused_baseline_item_is_caught():
    text = "Run `aggdetect evaluate g p r --baseline trials=10 seeds=2 --format tsv`.\n"
    (items,) = quoted_baseline_items(text)
    assert items == ["trials=10", "seeds=2"]
    with pytest.raises(UsageError, match="seeds=2"):
        cli._parse_baseline_args(items)
