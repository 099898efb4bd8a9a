"""The README's command-line walkthrough and library example run as shown."""

import re
import shlex
from pathlib import Path

from redkit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def _block(section, lang):
    """The first ``lang`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_command_line_walkthrough_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line, comments=True)
             for line in _block("Command line", "sh").splitlines()]
    assert len(lines) == 7
    for argv in lines:
        assert argv[0] == "redkit"
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def test_library_example_prints_its_comments(capsys):
    code = _block("Library example", "python")
    expected = [line.split("# ", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) == 3
