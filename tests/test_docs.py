"""README's command lines name only flags that the CLI has."""

import argparse
import re
from pathlib import Path

from aggdetect import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def subcommand_flags():
    """Each subcommand's option strings, with the global ones."""
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    common = {s for a in parser._actions for s in a.option_strings}
    return {name: common | {s for a in p._actions for s in a.option_strings}
            for name, p in sub.choices.items()}


def quoted_flags(text, subcommands):
    """``(subcommand, flag)`` for each ``--flag`` in a command line that
    starts with a subcommand, ``aggdetect`` before it or not: an inline
    code span, or a line of a fenced code block."""
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
            found += [(words[0], w.partition("=")[0]) for w in words if w.startswith("--")]
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
