"""The README's examples run: the library example prints what its comments
say, and its command lines on the worked examples exit 0 or 1."""

import contextlib
import io
import re
from pathlib import Path

from fairdiv.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert "False 3/4" in out.getvalue().splitlines()


def _example_commands():
    """The README's command lines that use ``--example``, plus ``examples``,
    as argument lists without the leading ``fairdiv``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    return [words[1:] for words in lines
            if words[:1] == ["fairdiv"] and ("--example" in words or words[1:] == ["examples"])]


def test_command_line_examples_run(capsys):
    commands = _example_commands()
    assert len(commands) == 10
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an unknown flag or value
            code = exc.code
        capsys.readouterr()
        assert code in (0, 1), argv
