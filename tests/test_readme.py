"""The README's examples run as written: each command of its "Command line"
block exits 0, and its "Library example" block runs."""

import json
import pathlib
import re
import shlex

import pytest

from contfrac.cli import EX_OK, main

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


def blocks(section, lang):
    """The fenced ``lang`` code blocks of the README section ``## section``."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, re.S)


COMMANDS = [line for line in blocks("Command line", "sh")[0].splitlines()
            if line.strip() and not line.startswith("#")]
MANIFEST = blocks("Command line", "json")[0]


def test_readme_lists_the_commands_and_a_manifest():
    assert len(COMMANDS) >= 9 and all(c.startswith("contfrac ") for c in COMMANDS)
    assert isinstance(json.loads(MANIFEST), list)


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_exits_0(command, tmp_path, monkeypatch, capsys):
    (tmp_path / "cases.json").write_text(MANIFEST)
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(command)[1:])
    assert code == EX_OK, capsys.readouterr()


def test_readme_library_example_runs(capsys):
    (example,) = blocks("Library example", "python")
    exec(compile(example, "README.md", "exec"), {})
    assert "13/15" in capsys.readouterr().out
