"""The README's examples run as documented."""

import re
import shlex
from pathlib import Path

import pytest

from sftent.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced `lang` block under the `## heading` of the README."""
    return re.search(rf"^## {heading}\n.*?^```{lang}\n(.*?)^```", README, re.S | re.M).group(1)


def test_library_quick_tour_runs():
    names: dict = {}
    exec(_block("Library quick tour", "python"), names)
    assert f"{names['table'].h_r_estimate:.8f}".startswith("0.494353")
    assert names["seq"].estimate == pytest.approx(0.5177, abs=5e-5)
    assert names["rep"].verdicts["boundary_ratio"] == "vanishing"


def test_command_line_counts_print_their_comments(capsys):
    lines = [line for line in _block("Command line", "sh").splitlines()
             if line.startswith("sftent count ")]
    assert len(lines) == 3
    for line in lines:
        command, expected = line.split("#")
        assert main(shlex.split(command)[1:]) == 0
        assert capsys.readouterr().out == expected.strip() + "\n"
