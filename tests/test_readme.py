"""The README examples run and print what their comments say."""

import ast
import json
import re
import shlex
from pathlib import Path

from wgrass import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_as_documented():
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    ns: dict = {}
    exec(block, ns)  # includes the pipeline == oracle assert
    ordinary = re.search(r"ctx\.ordinary_constants\(3, 3\)\s+# (\{.*\})", block)
    assert ns["ctx"].ordinary_constants(3, 3) == ast.literal_eval(ordinary.group(1))
    cell4 = re.search(r"cell\[4\] is (.+)$", block, re.M)
    assert ns["cell"][4].render() == cell4.group(1).strip()


def test_command_examples_run_as_documented(capsys):
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("wgrass ")]
    assert len(lines) >= 10
    for line in lines:
        command, _, comment = line.partition(" #")
        argv = shlex.split(command)[1:]
        assert cli.main(argv) == 0, line
        out = capsys.readouterr().out
        try:
            expected = json.loads(comment)
        except ValueError:
            continue  # a prose comment
        assert json.loads(out) == expected, line
