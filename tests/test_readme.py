"""The README's examples run and print what their comments say."""

import contextlib
import io
import json
import re
from pathlib import Path

from quotdeg.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(language, containing=""):
    """The first README code block in the language that contains the text."""
    blocks = re.findall(rf"```{language}\n(.*?)```", README, re.DOTALL)
    return next(block for block in blocks if containing in block)


def test_library_example_prints_its_comments():
    code = _block("python")
    expected = [line.split("# ", 1)[1].strip() for line in code.splitlines() if "print(" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected == ["22", "['6', '-16', '12']"]


def test_degree2_on_the_instance_file(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(_block("json"), encoding="utf-8")
    command = "degree2 --input inst.json --n 2 "
    line = next(row for row in _block("sh", command).splitlines() if command in row)
    expected = json.loads(line.split("# ", 1)[1])
    assert main(["degree2", "--input", str(path), "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == expected
