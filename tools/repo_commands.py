"""The shell commands a checkout documents: README examples and CI console-script lines.

Read by the tests, which run each command, and by ``same_output.py``, which
runs each one on two checkouts and compares what they print and write.
"""

from __future__ import annotations

import shlex
import subprocess
import sys

#: a token made only of these is shell syntax that a fresh process would not interpret
_SHELL_PUNCTUATION = set("();<>|&")


def readme_examples(text: str) -> list[list[str]]:
    """argv after ``qotto`` of every ``qotto <command> ...`` line in a README's shell blocks."""
    return [shlex.split(line, comments=True)[1:]
            for line in text.splitlines()
            if line.startswith("qotto ") and "<command>" not in line]


def console_script(text: str) -> tuple[int, list[str]]:
    """(index in ``text.splitlines()`` of the first line, the lines) of the ``run: |`` block
    of the workflow step named "Console script"."""
    lines = text.splitlines()
    step = next(i for i, line in enumerate(lines) if line.strip() == "- name: Console script")
    run = next(i for i in range(step + 1, len(lines)) if lines[i].strip() == "run: |")
    if any(line.lstrip().startswith("- ") for line in lines[step + 1:run]):
        raise ValueError("the Console script step has no run: | block")
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line.strip())
    return run + 1, [line for line in block if line]


def console_command(line: str) -> tuple[list[str], int | None]:
    """(argv, stdout) of a workflow line: ``qotto ARGS`` runs as ``python -m qotto ARGS`` and
    ``python ...`` as written, each with this interpreter; a trailing ``> /dev/null`` sends
    stdout to DEVNULL. Any other line raises ValueError."""
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    words = list(lexer)
    stdout = None
    if words[-2:] == [">", "/dev/null"]:
        words, stdout = words[:-2], subprocess.DEVNULL
    if (not words or words[0] not in ("qotto", "python")
            or any(set(word) <= _SHELL_PUNCTUATION for word in words)
            or any(c in word for word in words for c in "$`")):
        raise ValueError(f"cannot translate workflow line {line!r}")
    head = [sys.executable, "-m", "qotto"] if words[0] == "qotto" else [sys.executable]
    return head + words[1:], stdout
