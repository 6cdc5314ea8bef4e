"""README's command-line block is a contract with the parser: each 'addrep'
line in it parses, and each subcommand the parser has is shown there.  A
command documented but gone, or added but never documented, fails here."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from addrep.cli import build_parser


def _readme_command_lines():
    """The 'addrep' lines of the README's command-line code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S)[1]
    return [line for line in block.splitlines() if line.startswith("addrep ")]


def _subcommands():
    return sorted(next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)))


@pytest.mark.parametrize("line", _readme_command_lines())
def test_each_readme_command_line_parses(line):
    assert build_parser().parse_args(shlex.split(line)[1:]).command in _subcommands()


@pytest.mark.parametrize("command", _subcommands())
def test_each_subcommand_is_shown_in_the_readme(command):
    assert any(line.split()[1] == command for line in _readme_command_lines())
