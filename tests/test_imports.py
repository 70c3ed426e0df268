"""Importing the CLI does no computation and loads no heavy module;
each command loads only the layers it uses."""

import json
import os
import subprocess
import sys

import pytest

import wgrass

CACHES = (
    "symbols.lattice",
    "puzzles._catalogue",
    "gkm.kt_restrictions",
    "gkm._weighted_cached",
    "gkm._products",
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


# Runs one command in a fresh process and reports what it imported.
MODULES_PROBE = """
import contextlib, io, json, sys
import wgrass.cli
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        code = wgrass.cli.main(sys.argv[1:])
    assert code == 0, code
print(json.dumps(sorted(
    m for m in sys.modules if m.startswith("wgrass") or m == "dataclasses"
)))
"""

B = "[2,2,2,1,1,1]"  # weighted and already divisive
KN = ("--k", "2", "--n", "4")
HEAVY = {"wgrass.polynomial", "wgrass.puzzles", "wgrass.structure", "wgrass.gkm"}
COMMANDS = {  # command: (argv, modules it must not load)
    "validate": (("validate", B, *KN), HEAVY),
    "solve-wa": (("solve-wa", B, *KN), HEAVY),
    "divisive": (("divisive", B, *KN), HEAVY),
    "classify": (("classify", B, B, *KN), HEAVY),
    "torsion": (("torsion", B, *KN), HEAVY),
    "poincare": (("poincare", *KN), HEAVY),
    "perms": (("perms", *KN, "--scope", "sn"), HEAVY),
    "ring": (("--jobs", "1", "ring", B, *KN), {"wgrass.gkm", "wgrass.torsion"}),
    "puzzles": (("puzzles", *KN, "--i", "1", "--j", "1", "--l", "3"), set()),
}


def _run(code, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(wgrass.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


# Runs commands in one fresh process and reports the cache sizes.
CACHES_AFTER_PROBE = """
import contextlib, io, json
import wgrass.cli
from wgrass import plucker, symbols
ones = json.dumps([1] * 252)
with contextlib.redirect_stdout(io.StringIO()):
    for command in ("validate", "solve-wa"):
        assert wgrass.cli.main([command, ones, "--k", "5", "--n", "10"]) == 0
print(json.dumps({"relations": plucker.generate_relations.cache_info().currsize,
                  "lattice": symbols.lattice.cache_info().currsize}))
"""


def test_validity_builds_no_relations_and_no_lattice():
    # (W, a) validity reads the symbols alone
    assert _run(CACHES_AFTER_PROBE) == {"relations": 0, "lattice": 0}


def test_import_cli_is_lazy():
    report = _run(PROBE, *CACHES)
    assert report["sizes"] == {name: 0 for name in CACHES}
    assert report["loaded"] == []


def test_import_cli_loads_no_layer():
    assert _run(MODULES_PROBE) == ["wgrass", "wgrass.cli", "wgrass.errors"]


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_its_layers(command):
    argv, absent = COMMANDS[command]
    loaded = set(_run(MODULES_PROBE, *argv))
    assert "wgrass.cli" in loaded
    assert "dataclasses" not in loaded
    assert not loaded & absent, sorted(loaded & absent)
