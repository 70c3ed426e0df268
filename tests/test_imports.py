"""Importing the CLI does no computation and loads no heavy module."""

import json
import os
import subprocess
import sys

import wgrass

CACHES = (
    "symbols.lattice",
    "puzzles._catalogue",
    "gkm.kt_restrictions",
    "gkm._weighted_cached",
    "structure.context",
    "plucker.generate_relations",
    "plucker._permutation_context",
    "plucker._enumerate_cached",
)

PROBE = """
import json, sys
import wgrass.cli
from wgrass import gkm, plucker, puzzles, structure, symbols
mods = {"symbols": symbols, "puzzles": puzzles, "gkm": gkm,
        "structure": structure, "plucker": plucker}
sizes = {}
for name in sys.argv[1:]:
    mod, attr = name.split(".")
    sizes[name] = getattr(mods[mod], attr).cache_info().currsize
loaded = [m for m in ("multiprocessing", "heapq") if m in sys.modules]
print(json.dumps({"sizes": sizes, "loaded": loaded}))
"""


def test_import_cli_is_lazy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wgrass.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *CACHES],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    report = json.loads(proc.stdout)
    assert report["sizes"] == {name: 0 for name in CACHES}
    assert report["loaded"] == []
