"""The README's examples run as written: each command line exits 0 and the
library example prints what its comments say."""

import re
import shlex
from pathlib import Path

import pytest

from cmlimit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section: str, language: str) -> str:
    """The first fenced ``language`` block after the heading ``## section``."""
    match = re.search(rf"^## {re.escape(section)}\n.*?^```{language}\n(.*?)^```$",
                      README, flags=re.MULTILINE | re.DOTALL)
    assert match, f"README has no {language} block under '## {section}'"
    return match.group(1)


COMMANDS = [shlex.split(line)[1:] for line in _block("Command line", "sh").splitlines()
            if line.startswith("cmlimit ")]


def test_readme_lists_every_experiment():
    assert sorted({argv[0] for argv in COMMANDS}) == [
        "evolve", "residuals", "scaling", "uncertainty"]


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_command_exits_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


def test_readme_library_example(capsys):
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["2/9*i*hbar", "2"]
