"""The plain argv reader agrees with argparse.

``cli._plain_args`` reads a canonical argv straight from the command
table and returns None for anything else, which argparse then parses.
Whenever it returns a namespace, that namespace must be the one
``build_parser().parse_args`` makes from the same argv, handler and
defaults included.  Checked on a fixed corpus (the argv shapes of
``test_cli.py`` and the benchmark's ``ring`` and ``weights`` requests)
and on a seeded fuzz over all nine commands.
"""

import contextlib
import importlib.util
import io
import random
import sys
from pathlib import Path

from wgrass import cli
from wgrass.errors import ParameterError

BENCH = Path(__file__).resolve().parent.parent / "bench"

V = "[1,1,1,1,1,1]"
KN = ["--k", "2", "--n", "4"]
# the spellings test_cli.py runs that argparse accepts, all canonical
TEST_CLI_ARGVS = [
    ["validate", "[5,1,4,3,6,2]", *KN],
    ["solve-wa", "[5,1,4,3,6,2]", *KN],
    ["perms", *KN, "--scope", "full"],
    ["perms", *KN, "--scope", "sn"],
    ["perms", "--k", "50", "--n", "100", "--scope", "identity"],
    ["divisive", "[2,6,6,2,2,6]", *KN],
    ["divisive", "[1,2,1,1,1,1,1,1,1]", "--k", "1", "--n", "9"],
    ["divisive", "[5,1,4,3,6,2]", *KN, "--scope", "bogus"],
    ["classify", "[4,4,4,2,2,2]", "[2,2,2,1,1,1]", *KN],
    ["classify", "[5,1,4,3,6,2]", "[5,1,4,3,6,2]", *KN, "--scope", "bogus"],
    ["torsion", V, *KN],
    ["torsion", V, *KN, "--scope", "bogus"],
    ["torsion", "[30,30,25,10,5,5]", *KN, "--primes", "2,4"],
    ["torsion", "[30,30,25,10,5,5]", *KN, "--primes", ""],
    ["torsion", "[30,30,25,10,5,5]", *KN, "--primes", ","],
    ["ring", "[2,2,2,1,1,1]", *KN],
    ["ring", "[2,2,2,1,1,1]", *KN, "--ordinary"],
    ["ring", "[2,2,2,1,1,1]", *KN, "--ordinary", "--format", "csv"],
    ["--jobs", "2", "ring", "[6,6,6,2,2,2]", *KN],
    ["--jobs", "1", "ring", V, "--k", "3", "--n", "6", "--ordinary"],
    ["puzzles", *KN, "--i", "3", "--j", "3", "--l", "4", "--render"],
    ["puzzles", "--k", "7", "--n", "14", "--i", "0", "--j", "0", "--l", "0"],
    ["poincare", *KN],
    ["poincare", "--k", "40", "--n", "80"],
    ["--output", "out.json", "poincare", *KN],
    ["validate", "not json", *KN],
    ["validate", "[1,2,3]", *KN],
]
# test_cli.py's argument errors, a negative value and help
TEST_CLI_REFUSED = [
    ["ring", V, *KN, "--jobs", "2"],
    ["validate", V, "--n", "4"],
    ["validate", V, "--k", "x", "--n", "4"],
    ["--jobs", "0", "ring", V, *KN],
    ["--jobs", "-3", "ring", V, *KN],
    ["torsion", "[30,30,25,10,5,5]", *KN, "--primes", "-2"],
    [],
    ["--help"],
]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def _bench_argvs():
    workloads = _workloads()
    return [
        request.argv
        for seed in (1, 5, 7)
        for requests in (workloads.ring_requests, workloads.weights_requests)
        for request in requests(seed)
    ]


def _argparse(parser, argv):
    """vars of argparse's namespace, or the way it refused argv."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(parser.parse_args(argv))
    except ParameterError:
        return "error"
    except SystemExit as exc:
        return f"exit {exc.code}"


def _agrees(parser, argv) -> bool:
    """True when the plain reader read argv (and agrees with argparse)."""
    plain = cli._plain_args(argv)
    if plain is None:
        return False
    assert vars(plain) == _argparse(parser, argv), argv
    return True


def test_plain_reader_takes_every_canonical_corpus_argv():
    parser = cli.build_parser()
    argvs = TEST_CLI_ARGVS + _bench_argvs()
    assert len(argvs) > 300
    for argv in argvs:
        assert _agrees(parser, argv), argv


def test_plain_reader_leaves_argument_errors_to_argparse():
    for argv in TEST_CLI_REFUSED:
        assert cli._plain_args(argv) is None, argv


def test_plain_reader_reads_sys_argv_by_default(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["wgrass", "poincare", *KN])
    assert vars(cli._plain_args(None)) == vars(cli._plain_args(["poincare", *KN]))


def _canonical(rng, command):
    """A random canonical argv of command: root options, positionals and
    options in random order, optional options sometimes left out, and
    now and then a choice that is not one."""
    _, _, positionals, options = cli.COMMANDS[command]
    root = []
    if rng.random() < 0.3:
        root += ["--output", "out.json"]
    if rng.random() < 0.3:
        root += ["--jobs", str(rng.randint(1, 4))]
    groups = []
    for name in positionals:
        groups.append([rng.choice([V, "[2,2,2,1,1,1]", "x", "", " 3"])])
    for option in cli._flat(options):
        name, kind, default, required, _ = option
        if not required and rng.random() < 0.5:
            continue
        if kind is bool:
            groups.append([f"--{name}"])
        elif isinstance(kind, tuple):
            groups.append([f"--{name}", rng.choice(kind + ("bogus",))])
        elif kind is str:
            groups.append([f"--{name}", rng.choice(["auto", "2,3", "", "a b"])])
        else:
            groups.append([f"--{name}", rng.choice(["2", "4", " 3", "+1", "10"])])
    rng.shuffle(groups)
    return root + [command] + [word for group in groups for word in group]


def _mutate(rng, argv):
    """argv with one spelling that the plain reader refuses, or a value
    or shape that argparse may refuse."""
    argv = list(argv)
    at = rng.randrange(len(argv) + 1)
    options = [i for i, w in enumerate(argv) if w.startswith("--")]
    kind = rng.randrange(12)
    if kind == 0 and options:  # an abbreviation
        i = rng.choice(options)
        argv[i] = argv[i][:rng.randint(2, max(2, len(argv[i]) - 1))]
    elif kind == 1 and options:  # the --name=value form
        i = rng.choice(options)
        if i + 1 < len(argv):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif kind == 2 and options:  # a repeat
        i = rng.choice(options)
        argv += argv[i:i + 2]
    elif kind == 3:  # a missing word
        if argv:
            del argv[rng.randrange(len(argv))]
    elif kind == 4:  # an extra positional
        argv.insert(at, V)
    elif kind == 5:  # a bad choice or an unknown option
        argv.insert(at, rng.choice(["--scope", "--format", "--orientation",
                                    "--bogus", "--ordinary", "--equivariant"]))
    elif kind == 6:  # a negative number
        argv.insert(at, rng.choice(["-3", "-0", "-1.5"]))
    elif kind == 7:  # help
        argv.insert(at, rng.choice(["-h", "--help"]))
    elif kind == 8:  # the end of options
        argv.insert(at, "--")
    elif kind == 9:  # a root option after the command
        argv += rng.choice([["--jobs", "2"], ["--output", "o"]])
    elif kind == 10:  # a value that is not an integer, or out of range
        argv = ["--jobs", rng.choice(["0", "x", "-3", "2"])] + argv
    else:  # a command that is not one, or none
        argv[0:0] = [rng.choice(["", "rin", "Ring", "help"])]
    return argv


def test_plain_reader_matches_argparse_on_fuzzed_argvs():
    rng = random.Random(33)
    parser = cli.build_parser()
    taken = refused = 0
    for _ in range(2500):
        argv = _canonical(rng, rng.choice(list(cli.COMMANDS)))
        for _ in range(rng.choice([0, 0, 1, 1, 2])):
            argv = _mutate(rng, argv)
        if _agrees(parser, argv):
            taken += 1
        else:
            refused += 1
    # both sides of the reader are exercised
    assert taken > 500 and refused > 500, (taken, refused)
