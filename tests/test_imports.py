"""Importing the CLI does no computation and loads no heavy module;
each command loads only the layers it uses; caches stay bounded and a
basis holds one form of its rows."""

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
    m for m in sys.modules
    if m.startswith("wgrass")
    or m in ("dataclasses", "fractions", "argparse", "gettext", "locale")
)))
"""

# argparse and the modules it loads for its messages: a canonical argv
# is read without them
ARGPARSE = {"argparse", "gettext", "locale"}

B = "[2,2,2,1,1,1]"  # weighted and already divisive
KN = ("--k", "2", "--n", "4")
HEAVY = {"wgrass.polynomial", "wgrass.puzzles", "wgrass.structure", "wgrass.gkm"}
# only Poly coefficients and the classify scalar are Fractions
EXACT = HEAVY | {"fractions"}
# no command runs exact linear algebra, so none may load wgrass.linalg
COMMANDS = {  # command: (argv, other modules it must not load)
    "validate": (("validate", B, *KN), EXACT),
    "solve-wa": (("solve-wa", B, *KN), EXACT),
    "divisive": (("divisive", B, *KN), EXACT),
    "classify": (("classify", B, B, *KN), HEAVY),
    "torsion": (("torsion", B, *KN), EXACT),
    "poincare": (("poincare", *KN), EXACT),
    "perms": (("perms", *KN, "--scope", "sn"), EXACT),
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


# Fills each cache that holds one entry per size or word pair past its
# bound, in a fresh process, and reads the bound of every cache.
BOUNDS_PROBE = """
import json
from itertools import product
from wgrass import gkm, plucker, polynomial, puzzles, structure, symbols, torsion
words = ["".join(w) for w in product("01", repeat=5)]
fills = {
    "symbols.lattice": (symbols.lattice, lambda i: (1, i + 2)),
    "gkm.kt_restrictions": (gkm.kt_restrictions, lambda i: (1, i + 2)),
    "puzzles._catalogue": (puzzles._catalogue, lambda i: (i + 1,)),
    "puzzles._enumerate_cached": (
        puzzles._enumerate_cached, lambda i: (words[i // 32], words[i % 32])),
    "polynomial.packing": (polynomial.packing, lambda i: (i + 1, 1)),
}
filled = {}
for name, (fn, args) in fills.items():
    bound = fn.cache_info().maxsize
    for i in range(bound + 1):
        fn(*args(i))
    filled[name] = [bound, fn.cache_info().currsize]
unbounded = [
    f"{mod.__name__}.{name}"
    for mod in (gkm, plucker, polynomial, puzzles, structure, symbols, torsion)
    for name, fn in vars(mod).items()
    if hasattr(fn, "cache_info") and fn.cache_info().maxsize is None
]
print(json.dumps({"filled": filled, "unbounded": unbounded}))
"""


# Runs the oracle at (1, 3) ... (1, 9) in a fresh process and counts the
# restriction matrices still alive, against the bound of the basis cache.
LIVE_BASES_PROBE = """
import gc, json
from wgrass import gkm
for n in range(3, 10):
    gkm.localize_product((1,) * n, 1, n, 1, 1)
gc.collect()
live = sum(isinstance(o, gkm._Restrictions) for o in gc.get_objects())
print(json.dumps([live, gkm.kt_restrictions.cache_info().maxsize]))
"""


def test_oracle_memos_keep_no_evicted_basis_alive():
    live, bound = _run(LIVE_BASES_PROBE)
    assert bound == 4 and live <= bound


# Measures, in a fresh process, the live memory a cold (2, 7) basis
# build leaves behind, with the lattice it reads built first.
BASIS_SIZE_PROBE = """
import gc, json, tracemalloc
from wgrass import gkm, symbols
symbols.lattice(2, 7)
gc.collect()
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
gkm.kt_restrictions(2, 7)
gc.collect()
print(json.dumps(tracemalloc.get_traced_memory()[0] - before))
"""


def test_basis_holds_only_packed_rows():
    # the packed rows are about 0.65 MB; a second copy of the matrix as
    # Poly entries would make it 1.66 MB
    assert _run(BASIS_SIZE_PROBE) < 1_100_000


def test_caches_are_bounded():
    report = _run(BOUNDS_PROBE)
    assert report["unbounded"] == []
    for name, (bound, size) in report["filled"].items():
        assert size == bound, name


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
    absent = absent | {"wgrass.linalg"} | ARGPARSE
    assert not loaded & absent, sorted(loaded & absent)


# Runs one argv that argparse answers in a fresh process: its exit code,
# its JSON error kind and whether argparse was loaded.
ARGPARSE_PROBE = """
import contextlib, io, json, sys
import wgrass.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        code = wgrass.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
kind = json.loads(out.getvalue())["kind"] if code else None
print(json.dumps([code, kind, "argparse" in sys.modules]))
"""


def test_help_and_argument_errors_still_go_through_argparse():
    assert _run(ARGPARSE_PROBE, "--help") == [0, None, True]
    assert _run(ARGPARSE_PROBE, "ring", "--help") == [0, None, True]
    assert _run(ARGPARSE_PROBE, "validate", B, "--k", "2") == [
        2, "invalid-input", True]
