"""Command-line surface: outputs, exit codes, determinism."""

import hashlib
import json
import resource
import subprocess
import sys
import time
from itertools import combinations
from math import comb

from reference import parse_poly
from wgrass import cli, symbols


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "wgrass.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def test_validate():
    code, out = run_cli("validate", "[5,1,4,3,6,2]", "--k", "2", "--n", "4")
    assert code == 0 and json.loads(out) == {"valid": True}
    code, out = run_cli("validate", "[1,1,1,1,1,2]", "--k", "2", "--n", "4")
    assert code == 0 and json.loads(out) == {"valid": False}


def test_solve_wa():
    code, out = run_cli("solve-wa", "[5,1,4,3,6,2]", "--k", "2", "--n", "4")
    assert code == 0
    assert json.loads(out) == {"W": [1, 3, -1, 2], "a": 1}


def test_perms_counts():
    code, out = run_cli("perms", "--k", "2", "--n", "4", "--scope", "full")
    data = json.loads(out)
    assert code == 0 and data["count"] == 48
    code, out = run_cli("perms", "--k", "2", "--n", "4", "--scope", "sn")
    assert code == 0 and json.loads(out)["count"] == 24


def test_divisive_and_not_found():
    code, out = run_cli("divisive", "[2,6,6,2,2,6]", "--k", "2", "--n", "4")
    data = json.loads(out)
    assert code == 0 and data["divisive"]
    assert sorted(data["presented"], reverse=True) == data["presented"]
    code, out = run_cli("divisive", "[5,1,4,3,6,2]", "--k", "2", "--n", "4")
    assert code == 3 and not json.loads(out)["divisive"]


def test_complement_presentations_at_n_2k():
    # at (3, 6) b (1 on the symbols containing 1, 2 elsewhere) is
    # presented only through the complement map, which also takes b to c
    # (2 on the symbols containing 1); the full scope must be reached
    syms = list(combinations(range(1, 7), 3))
    b = json.dumps([1 if 1 in s else 2 for s in syms])
    c = json.dumps([2 if 1 in s else 1 for s in syms])
    code, out = run_cli("divisive", b, "--k", "3", "--n", "6")
    data = json.loads(out)
    assert code == 0 and data["divisive"]
    assert data["witness"] == [10, 11, 13, 16, 12, 14, 17, 15, 18, 19,
                               0, 1, 4, 2, 5, 7, 3, 6, 8, 9]
    code, out = run_cli("classify", b, c, "--k", "3", "--n", "6")
    assert code == 0 and json.loads(out)["equivalent"]


def test_classify():
    code, out = run_cli(
        "classify", "[2,6,6,2,2,6]", "[6,6,6,2,2,2]", "--k", "2", "--n", "4"
    )
    data = json.loads(out)
    assert code == 0 and data["equivalent"] and data["scalar"] == "1"
    code, _ = run_cli(
        "classify", "[1,1,1,1,1,1]", "[5,1,4,3,6,2]", "--k", "2", "--n", "4"
    )
    assert code == 3
    # c = (1/2) b: the identity, and a scalar that is not an integer
    code, out = run_cli(
        "classify", "[4,4,4,2,2,2]", "[2,2,2,1,1,1]", "--k", "2", "--n", "4"
    )
    data = json.loads(out)
    assert code == 0 and data["equivalent"]
    assert data["permutation"] == list(range(6)) and data["scalar"] == "1/2"


def test_torsion_report():
    code, out = run_cli("torsion", "[1,1,1,1,1,1]", "--k", "2", "--n", "4")
    data = json.loads(out)
    assert code == 0 and data["torsion_free"]
    assert all(entry["torsion"] == [] for entry in data["cohomology"].values())


def test_ring_ordinary_contains_worked_entry():
    code, out = run_cli(
        "ring", "[2,2,2,1,1,1]", "--k", "2", "--n", "4", "--ordinary"
    )
    data = json.loads(out)
    assert code == 0
    assert data["table"]["3,3"] == {"5": 3}
    assert data["table"]["3,2"] == data["table"]["2,3"]


def test_ring_equivariant_roundtrips_losslessly():
    code, out = run_cli("ring", "[2,2,2,1,1,1]", "--k", "2", "--n", "4")
    data = json.loads(out)
    assert code == 0 and data["level"] == "equivariant"
    from wgrass import structure

    ctx = structure.context((2, 2, 2, 1, 1, 1), 2, 4)
    for key, cell in data["table"].items():
        i, j = (int(x) for x in key.split(","))
        expected = ctx.equivariant_constants(i, j)
        parsed = {int(l): parse_poly(text, 4) for l, text in cell.items()}
        assert parsed == expected


def test_ring_requires_divisive():
    code, out = run_cli("ring", "[5,1,4,3,6,2]", "--k", "2", "--n", "4")
    assert code == 2 and "divisive" in json.loads(out)["error"]


def test_ring_reorders_unordered_divisive_vector():
    code, out = run_cli("ring", "[2,6,6,2,2,6]", "--k", "2", "--n", "4")
    data = json.loads(out)
    assert code == 0
    assert data["presented_b"] == [6, 6, 6, 2, 2, 2]
    assert "presentation_permutation" in data


def test_ring_csv_format():
    code, out = run_cli(
        "ring", "[2,2,2,1,1,1]", "--k", "2", "--n", "4", "--ordinary",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,l,value"
    assert "3,3,5,3" in lines


def test_ring_jobs_flag_deterministic():
    # one sweep per chunk of interleaved pairs: the chunks must reassemble
    # the table of one chunk, byte for byte
    w1 = [2 if 1 in s else 1 for s in combinations(range(1, 7), 2)]
    unit = [1] * comb(6, 3)
    cases = [
        ("[6,6,6,2,2,2]", "2", "4"),
        (json.dumps(w1, separators=(",", ":")), "2", "6"),
        (json.dumps(unit, separators=(",", ":")), "3", "6", "--ordinary"),
    ]
    for b, k, n, *level in cases:
        runs = [
            run_cli("--jobs", jobs, "ring", b, "--k", k, "--n", n, *level)
            for jobs in ("1", "2")
        ]
        assert all(code == 0 for code, _ in runs), (k, n, level)
        assert runs[0][1] == runs[1][1], (k, n, level)


def test_puzzles_command():
    code, out = run_cli(
        "puzzles", "--k", "2", "--n", "4", "--i", "3", "--j", "3", "--l", "4",
        "--render",
    )
    data = json.loads(out)
    assert code == 0 and data["count"] == 1
    assert data["total_weight"] == "y1 - y2"
    assert "tiling" in data["puzzles"][0]


def test_poincare():
    code, out = run_cli("poincare", "--k", "2", "--n", "4")
    assert code == 0 and json.loads(out) == [1, 1, 2, 1, 1]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_poincare_needs_no_lattice():
    # Counting cells by dimension once built the C(80, 40)-symbol lattice;
    # the time and memory limits stop a regression early.
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "wgrass.cli", "poincare", "--k", "40", "--n", "80"],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_memory,
    )
    assert time.perf_counter() - start < 2
    ranks = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert len(ranks) == 1601 and sum(ranks) == comb(80, 40)


def _run_bounded(argv):
    """The CLI in a child process under the time and memory limits."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "wgrass.cli", *argv],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_memory,
    )
    assert time.perf_counter() - start < 2, argv[:4]
    return proc


def test_ring_is_bounded_before_any_relation_work():
    # Above cli.RING_LIMIT symbols, ring exits 4 on the count alone; the
    # time and memory limits stop a regression that builds the lattice or
    # scans the relations first.  The commands that take only (k, n),
    # torsion's sn rung past plucker.SN_SCOPE_LIMIT and every certificate
    # past plucker.CERTIFY_LIMIT, the identity's included, are bounded
    # the same way: perms checks the count before it lists a permutation,
    # so (50, 100) exits 4 instead of overflowing range().
    argvs = [
        ["--jobs", "1", "ring", json.dumps([1] * comb(n, k), separators=(",", ":")),
         "--k", str(k), "--n", str(n), "--ordinary"]
        for k, n in ((5, 10), (8, 16))
    ]
    argvs += [
        ["perms", "--k", "7", "--n", "14", "--scope", "sn"],
        ["perms", "--k", "6", "--n", "12", "--scope", "identity"],
        ["perms", "--k", "11", "--n", "22", "--scope", "identity"],
        ["perms", "--k", "16", "--n", "32", "--scope", "identity"],
        ["perms", "--k", "50", "--n", "100", "--scope", "identity"],
        ["puzzles", "--k", "7", "--n", "14", "--i", "0", "--j", "0", "--l", "0"],
        ["poincare", "--k", "200", "--n", "400"],
        ["divisive", json.dumps([1] * comb(14, 5), separators=(",", ":")),
         "--k", "5", "--n", "14"],
        ["torsion", "[1,1,1,1,1,1,1,1,2]", "--k", "1", "--n", "9"],
    ]
    for argv in argvs:
        proc = _run_bounded(argv)
        assert proc.returncode == 4, argv[:4]
        assert json.loads(proc.stdout)["kind"] == "capacity"


def test_divisive_and_classify_answer_past_the_sn_limit():
    # divisive and classify sort W instead of walking the n! induced
    # permutations, so at (1, 9), where the identity presents neither
    # vector, they answer within the same time and memory limits
    kn9 = ["--k", "1", "--n", "9"]
    swap = [1, 0, 2, 3, 4, 5, 6, 7, 8]
    proc = _run_bounded(["divisive", "[1,2,1,1,1,1,1,1,1]", *kn9])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["witness"] == swap and out["presented"] == [2] + [1] * 8
    proc = _run_bounded(
        ["classify", "[1,2,1,1,1,1,1,1,1]", "[2,1,1,1,1,1,1,1,1]", *kn9])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["permutation"] == swap and out["scalar"] == "1"


RING_DIGESTS = {
    (3, 6, 1, True): "1387a7075e18d7fdb87efc3b512210e6b7239e0a812f567cfd8820c6e0bfd130",
    (3, 6, 2, True): "eb440038bfa6d527f969027b301978f09e12247e65d0b4e0256debf79b1287b7",
    (2, 6, 1, False): "28eb68986ea69bb6c4f8b4bd376b23b4aa66f072b98e5f63f506852c11318cdc",
    (2, 6, 3, False): "a692f0378fe8df82498cfc02b624a4d7efe96dc88f233fe7b8cb3ea5fde82752",
    (2, 7, 1, True): "cba119a9b690b2388e93fa235dd732aa4ab68f7453e8206e909cfa6e728386f9",
    (2, 7, 3, True): "f6b92ddf9f41a87efd0b6e6f956cb3b1b085176bd936c4aac896bf54b211aa12",
    (3, 7, 1, True): "45e57f8df5e449d84d9bc0e2d1de9b4a3d46991e9775b37740601cc4c1aadc83",
    (3, 7, 2, True): "ec6d2a25e9d77cc2854ed45f052f29b41d42565ae0a009ed38d3eabb3dff306b",
}


def test_ring_stdout_pinned(capsys):
    # SHA-256 of the stdout bytes of ring tables, unit and weighted by w on
    # the symbols containing 1; a faster pipeline must print the same bytes
    for (k, n, w, ordinary), digest in RING_DIGESTS.items():
        b = [w if 1 in sym else 1 for sym in combinations(range(1, n + 1), k)]
        argv = ["--jobs", "1", "ring", json.dumps(b, separators=(",", ":")),
                "--k", str(k), "--n", str(n)] + ["--ordinary"] * ordinary
        assert cli.main(argv) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest, (k, n, w, ordinary)


def test_invalid_input_exit_codes():
    code, _ = run_cli("validate", "not json", "--k", "2", "--n", "4")
    assert code == 2
    code, _ = run_cli("validate", "[1,2,3]", "--k", "2", "--n", "4")
    assert code == 2
    code, _ = run_cli("solve-wa", "[1,1,1,1,1,2]", "--k", "2", "--n", "4")
    assert code == 2
    # JSON booleans are not integers; a weight past Python's int-string
    # digit limit must not escape as a traceback
    for vector in ("[true,true,true,true,true,true]",
                   "[" + "9" * 5000 + ",1,1,1,1,1]"):
        code, out = run_cli("validate", vector, "--k", "2", "--n", "4")
        assert code == 2 and json.loads(out)["kind"] == "invalid-input"
    # argument errors too: a root flag after the subcommand, a missing
    # or malformed flag, no command at all
    unit = "[1,1,1,1,1,1]"
    for argv in (
        ("ring", unit, "--k", "2", "--n", "4", "--jobs", "2"),
        ("validate", unit, "--n", "4"),
        ("validate", unit, "--k", "x", "--n", "4"),
        ("--jobs", "0", "ring", unit, "--k", "2", "--n", "4"),
        ("--jobs", "-3", "ring", unit, "--k", "2", "--n", "4"),
        (),
    ):
        code, out = run_cli(*argv)
        assert code == 2 and json.loads(out)["kind"] == "invalid-input", argv
    code, out = run_cli("--help")
    assert code == 0 and out.startswith("usage: wgrass")


def test_unknown_scope_is_rejected(capsys):
    # also where the search ends before its first permutation: a vector
    # that no order makes divisive, or one with no prime to certify
    flags = ["--k", "2", "--n", "4", "--scope", "bogus"]
    for argv in (
        ["divisive", "[5,1,4,3,6,2]"],
        ["divisive", "[2,2,2,1,1,1]"],
        ["classify", "[5,1,4,3,6,2]", "[5,1,4,3,6,2]"],
        ["torsion", "[1,1,1,1,1,1]"],
        ["torsion", "[5,1,4,3,6,2]"],
    ):
        assert cli.main(argv + flags) == 2, argv
        assert json.loads(capsys.readouterr().out)["kind"] == "invalid-input"


def test_torsion_primes_must_be_primes(capsys):
    argv = ["torsion", "[30,30,25,10,5,5]", "--k", "2", "--n", "4", "--primes"]
    # an empty list is refused however it is spelled, not read as "every
    # prime" ('') or "no prime" (',')
    for bad in ("0", "4", "-2", "2,4", "", ","):
        assert cli.main(argv + [bad]) == 2, bad
        assert json.loads(capsys.readouterr().out)["kind"] == "invalid-input"
    # p = 1 used to loop forever in the p-content; a hang fails here
    proc = subprocess.run(
        [sys.executable, "-m", "wgrass.cli", *argv, "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["kind"] == "invalid-input"


def test_capacity_exit_code():
    code, _ = run_cli("perms", "--k", "2", "--n", "9", "--scope", "full")
    assert code == 4


def test_factoring_is_bounded():
    # a prime past plucker.FACTOR_LIMIT ** 2, as a weight and as --primes;
    # unbounded trial division never returned on either
    big = "1000000000000000003"
    for argv in (
        ["torsion", f"[{big},1]", "--k", "1", "--n", "2"],
        ["torsion", "[30,30,25,10,5,5]", "--k", "2", "--n", "4", "--primes", big],
    ):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "wgrass.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert time.perf_counter() - start < 2, argv
        assert proc.returncode == 4, argv
        assert json.loads(proc.stdout)["kind"] == "capacity"


def test_size_guards_run_before_any_lattice(monkeypatch, capsys):
    # The capacity cap and the length check reject oversized input by
    # C(n, k) alone; a lattice at (8, 16) would enumerate all
    # C(16, 8) = 12870 symbols with their reversal sets.
    def no_lattice(k, n):
        raise AssertionError(f"lattice({k}, {n}) built before a size guard")

    monkeypatch.setattr(symbols, "lattice", no_lattice)
    assert cli.main(["perms", "--k", "8", "--n", "16", "--scope", "full"]) == 4
    assert cli.main(["divisive", "[1]", "--k", "8", "--n", "16"]) == 2
    assert cli.main(["validate", "[1]", "--k", "8", "--n", "16"]) == 2
    capsys.readouterr()


def test_output_file(tmp_path):
    target = tmp_path / "out.json"
    code, out = run_cli(
        "--output", str(target), "poincare", "--k", "2", "--n", "4"
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == [1, 1, 2, 1, 1]
    missing = tmp_path / "missing" / "out.json"
    code, out = run_cli(
        "--output", str(missing), "poincare", "--k", "2", "--n", "4"
    )
    assert code == 2 and json.loads(out)["kind"] == "invalid-input"
    assert not missing.parent.exists()


def test_ring_worker_count_is_clamped(monkeypatch):
    import multiprocessing

    from wgrass import cli

    requested = []

    class RecordingPool:
        def __init__(self, size):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    class RecordingContext:
        Pool = RecordingPool

    monkeypatch.setattr(
        multiprocessing, "get_context", lambda method: RecordingContext()
    )
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    tasks = [((1,) * 6, 2, 4, i, i, "ordinary") for i in range(6)]
    serial = cli._map_tasks(tasks, 1)
    assert requested == []
    assert cli._map_tasks(tasks[:3], 1000) == serial[:3]  # clamped to tasks
    assert cli._map_tasks(tasks, 1000) == serial  # clamped to cores
    assert cli._map_tasks(tasks[:1], 1000) == serial[:1]  # one task: no pool
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._map_tasks(tasks, 1000) == serial  # unknown core count: serial
    assert requested == [3, 4]


def test_byte_determinism():
    args = ("torsion", "[30,30,25,10,5,5]", "--k", "2", "--n", "4")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
