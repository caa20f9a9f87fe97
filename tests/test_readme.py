"""The examples in README.md are checked against the program."""

import ast
import re
from pathlib import Path

from srdepth.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block_after(marker, lang):
    """The first ``lang`` code block after the line ``marker``."""
    start = README.index(marker)
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, start)
    return match.group(1)


def test_cli_depth_example(capsys, tmp_path, monkeypatch):
    block = _block_after("Example:", "sh").splitlines()
    command = "$ srdepth depth out/rp2.facets --field p=2"
    i = block.index(command)
    expected = []
    for line in block[i + 1 :]:
        if line.startswith("$ "):
            break
        expected.append(line)
    monkeypatch.chdir(tmp_path)
    assert main(["corpus", "named", "out/"]) == 0
    capsys.readouterr()
    assert main(command.split()[2:]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_library_example():
    namespace = {}
    checked = 0
    for line in _block_after("## Library", "python").splitlines():
        code, _, comment = line.partition("#")
        if comment:
            got = eval(code, namespace)
            assert got == ast.literal_eval(comment.strip()), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 5
