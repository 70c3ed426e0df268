"""The README library tour runs and prints what its comments say."""

import ast
import re
from pathlib import Path

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
