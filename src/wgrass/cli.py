"""
Command-line surface.

Commands: validate, solve-wa, perms, divisive, classify, torsion, ring,
puzzles, poincare.  Weight vectors are passed as JSON arrays of decimal
integers; (k, n) are explicit flags.  Output is JSON (default) or CSV
(``--format csv``, ring tables only), written to stdout or ``--output``.

Exit codes: 0 success, 1 internal inconsistency (JSON kind "internal"),
2 invalid input, 3 not found in the searched scope, 4 capacity exceeded.
Given the same arguments the output bytes are identical across runs;
parallelism (``--jobs``) only fans out pure computations, ``ring`` cells
in interleaved chunks with one puzzle sweep each, and never reorders
output.

Each handler imports the layers it uses, so a command pays at start-up
only for what it runs: ``validate`` never loads the puzzle, oracle or
structure layers.  argparse is loaded only for ``--help``, usage errors
and non-canonical spellings; a canonical argv is read off ``COMMANDS``.
"""

import json
import os
import sys
import types

from .errors import (
    CapacityError,
    InternalInconsistencyError,
    NotDivisiveError,
    ParameterError,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_FOUND = 3
EXIT_CAPACITY = 4

RING_LIMIT = 35  # largest C(n, k) that ring tabulates; (3, 7) fits
PUZZLES_LIMIT = 924  # largest C(n, k) whose lattice puzzles builds; (6, 12) fits
POINCARE_LIMIT = 2500  # largest k (n - k) that poincare expands; (50, 100) fits


def _parse_vector(text: str, k: int, n: int) -> tuple:
    from . import plucker

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"weight vector is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise ParameterError(f"weight vector entry is too long: {exc}") from exc
    except RecursionError as exc:
        raise ParameterError("weight vector is nested too deeply") from exc
    if not isinstance(data, list) or not all(isinstance(x, int) for x in data):
        raise ParameterError("weight vector must be a JSON array of integers")
    return plucker.check_weight_vector_shape(data, k, n)


# -- ring table workers (module level for multiprocessing) -----------------


def _ring_chunk(tasks):
    """[(i, j, rendered cell)] of (b, k, n, i, j, level) tasks that share
    (b, k, n, level): one sweep and the contraction of every pair."""
    from . import structure

    b, k, n, _, _, level = tasks[0]
    ctx = structure.context(b, k, n)
    pairs = [(i, j) for _, _, _, i, j, _ in tasks]
    if level == "equivariant":
        cells = {
            pair: {l: p.render() for l, p in cell.items()}
            for pair, cell in ctx.equivariant_cells(pairs).items()
        }
    else:
        cells = ctx.ordinary_cells(pairs)
    return [(i, j, {str(l): v for l, v in sorted(cells[(i, j)].items())})
            for i, j in pairs]


def _map_tasks(tasks, jobs: int):
    """``_ring_chunk`` over ``jobs`` interleaved chunks of ``tasks``, one
    per worker, in task order; one chunk runs in this process."""
    jobs = min(jobs, len(tasks), os.cpu_count() or 1)
    if jobs <= 1:
        return _ring_chunk(tasks)
    try:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            done = pool.map(_ring_chunk, [tasks[c::jobs] for c in range(jobs)])
    except (ImportError, OSError):
        return _ring_chunk(tasks)
    out = [None] * len(tasks)
    for c, cells in enumerate(done):
        out[c::jobs] = cells
    return out


# -- command handlers --------------------------------------------------------


def _cmd_validate(args) -> tuple:
    from . import plucker

    b = _parse_vector(args.b, args.k, args.n)
    return EXIT_OK, {"valid": plucker.validate_weight_vector(b, args.k, args.n)}


def _cmd_solve_wa(args) -> tuple:
    from . import plucker

    b = _parse_vector(args.b, args.k, args.n)
    sol = plucker.solve_wa(b, args.k, args.n)
    return EXIT_OK, {"W": list(sol.W), "a": sol.a}


def _cmd_perms(args) -> tuple:
    from . import plucker

    perms = plucker.enumerate_plucker_permutations(args.k, args.n, args.scope)
    return EXIT_OK, {
        "k": args.k,
        "n": args.n,
        "scope": args.scope,
        "count": len(perms),
        "permutations": [
            {"perm": list(w.perm), "signs": list(w.signs)} for w in perms
        ],
    }


def _cmd_divisive(args) -> tuple:
    from . import plucker

    b = _parse_vector(args.b, args.k, args.n)
    witness = plucker.is_divisive(b, args.k, args.n, args.scope)
    if witness is None:
        return EXIT_NOT_FOUND, {
            "divisive": False,
            "note": "no witness found in the searched scope",
        }
    presented = plucker.apply_permutation(witness, b, args.k, args.n)
    return EXIT_OK, {
        "divisive": True,
        "witness": list(witness.perm),
        "presented": list(presented),
    }


def _cmd_classify(args) -> tuple:
    from . import plucker

    b = _parse_vector(args.b, args.k, args.n)
    c = _parse_vector(args.c, args.k, args.n)
    found = plucker.equivalence(b, c, args.k, args.n, args.scope)
    if found is None:
        return EXIT_NOT_FOUND, {
            "equivalent": False,
            "note": "no (permutation, scalar) pair found in the searched scope",
        }
    witness, scalar = found
    return EXIT_OK, {
        "equivalent": True,
        "permutation": list(witness.perm),
        "scalar": str(scalar),
    }


def _cmd_torsion(args) -> tuple:
    from . import torsion

    b = _parse_vector(args.b, args.k, args.n)
    primes = None
    if args.primes is not None:
        try:
            primes = [int(p) for p in args.primes.split(",") if p]
        except ValueError as exc:
            raise ParameterError("--primes must be comma-separated integers") from exc
        if not primes:
            raise ParameterError("--primes must list at least one prime")
    report = torsion.torsion_report(b, args.k, args.n, primes, args.scope)
    return EXIT_OK, report


def _cmd_ring(args) -> tuple:
    # structure is imported before _map_tasks so that forked workers
    # inherit it instead of importing it each.
    from . import plucker, structure, symbols  # noqa: F401

    parsed = _parse_vector(args.b, args.k, args.n)
    m1 = symbols.check_count(args.k, args.n, RING_LIMIT,
                             "ring tables need C(n, k)")
    b = plucker.weight_vector(parsed, args.k, args.n)
    level = "ordinary" if args.ordinary else "equivariant"
    presented = b
    witness = None
    if not plucker.is_descending_divisible(b):
        found = plucker.divisive_presentation(b, args.k, args.n)
        if found is None:
            raise NotDivisiveError(
                "ring computation requires a divisive weight vector"
            )
        witness, presented = found
    tasks = [
        (presented, args.k, args.n, i, j, level)
        for i in range(m1)
        for j in range(i, m1)
    ]
    cells = {(i, j): cell for i, j, cell in _map_tasks(tasks, args.jobs)}
    table = {
        f"{i},{j}": cell
        for (i, j), cell in symbols.symmetric_table(
            m1, lambda i, j: cells[(i, j)]
        ).items()
    }
    payload = {
        "k": args.k,
        "n": args.n,
        "b": list(b),
        "level": level,
        "table": table,
    }
    if witness is not None:
        payload["presentation_permutation"] = list(witness.perm)
        payload["presented_b"] = list(presented)
    if args.format == "csv":
        lines = ["i,j,l,value"]
        for key in table:
            i, j = key.split(",")
            for l, value in table[key].items():
                lines.append(f"{i},{j},{l},{value}")
        return EXIT_OK, "\n".join(lines) + "\n"
    return EXIT_OK, payload


def _cmd_puzzles(args) -> tuple:
    from . import puzzles, symbols
    from .polynomial import Poly

    symbols.check_count(args.k, args.n, PUZZLES_LIMIT,
                        "puzzles builds the lattice of C(n, k)")
    conjugated = args.orientation == "conjugated"
    triple = (args.i, args.j, args.l)
    lat = symbols.lattice(args.k, args.n)
    if not conjugated and all(0 <= t <= lat.m for t in triple):
        # The raw words of (i, j; l) are the reversed words of its
        # sigma_r image; out-of-range indices go through unchanged so
        # that puzzles_for reports them.
        triple = tuple(lat.sigma_r_index[t] for t in triple)
    found = puzzles.puzzles_for(args.k, args.n, *triple)
    entries = []
    for puz in found:
        pairs = puz.conjugated_pairs() if conjugated else puz.equivariant
        weight = Poly.one(args.n)
        for x, y in pairs:
            weight = weight * (Poly.variable(args.n, x) - Poly.variable(args.n, y))
        entry = {
            "equivariant_pieces": [list(p) for p in pairs],
            "weight": weight.render(),
        }
        if args.render:
            entry["tiling"] = puzzles.render_ascii(puz)
        entries.append(entry)
    total = puzzles.conjugated_product(args.k, args.n, args.i, args.j).get(
        args.l
    ) if conjugated else None
    payload = {
        "k": args.k,
        "n": args.n,
        "boundary": [args.i, args.j, args.l],
        "orientation": args.orientation,
        "count": len(found),
        "puzzles": entries,
    }
    if total is not None:
        payload["total_weight"] = total.render()
    return EXIT_OK, payload


def _cmd_poincare(args) -> tuple:
    from . import symbols, torsion

    symbols.check_kn(args.k, args.n)
    # names (k, n): k (n - k) may have more digits than str() prints
    if args.k * (args.n - args.k) > POINCARE_LIMIT:
        raise CapacityError(f"poincare expands k (n - k) <= {POINCARE_LIMIT}, "
                            f"got (k, n) = ({args.k}, {args.n})")
    return EXIT_OK, torsion.poincare_ranks(args.k, args.n)


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1."""
    import argparse  # loaded already: only argparse calls this

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _option(name, kind=str, default=None, required=False, help=None):
    """``--name``: ``kind`` converts its value (``int``, ``_positive_int``,
    ``str``), is a tuple of choices, or is ``bool`` for a store-true flag."""
    return name, kind, default, required, help


# The whole command-line surface, read by build_parser and _plain_args.
# A command is (handler, help, positionals, options); a tuple of options
# among the options is a mutually exclusive group.

ROOT_OPTIONS = (
    _option("output", help="write the result to a file"),
    _option("jobs", _positive_int, os.cpu_count() or 1,
            help="parallel workers for table cells (default: logical cores)"),
)
_KN = (_option("k", int, required=True), _option("n", int, required=True))
_SCOPE = _option("scope", default="auto")

COMMANDS = {
    "validate": (_cmd_validate, "constant pair-sum test", ("b",), _KN),
    "solve-wa": (_cmd_solve_wa, "integer exponent data (W, a)", ("b",), _KN),
    "perms": (_cmd_perms, "enumerate Plucker permutations", (),
              _KN + (_option("scope", ("full", "sn", "identity"), "full"),)),
    "divisive": (_cmd_divisive, "search a divisibility-chain witness", ("b",),
                 _KN + (_SCOPE,)),
    "classify": (_cmd_classify, "scalar/permutation equivalence test",
                 ("b", "c"), _KN + (_SCOPE,)),
    "torsion": (_cmd_torsion, "torsion certificates and report", ("b",), _KN + (
        _option("primes", help="comma-separated primes (default: divisors)"),
        _SCOPE,
    )),
    "ring": (_cmd_ring, "structure-constant table", ("b",), _KN + (
        (_option("equivariant", bool, True), _option("ordinary", bool, False)),
        _option("format", ("json", "csv"), "json"),
    )),
    "puzzles": (_cmd_puzzles, "enumerate puzzles for one boundary", (), _KN + (
        *(_option(name, int, required=True) for name in "ijl"),
        _option("orientation", ("conjugated", "raw"), "conjugated"),
        _option("render", bool, False),
    )),
    "poincare": (_cmd_poincare, "cell counts per complex dimension", (), _KN),
}


def _flat(options):
    """The options of a table row, mutually exclusive groups opened."""
    for option in options:
        yield from (option if isinstance(option[0], tuple) else (option,))


def build_parser() -> "argparse.ArgumentParser":
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An argument error is invalid input: exit 2 with the JSON error.

        Subparsers are built from the root parser's class, so they report
        the same way.  ``--help`` still prints usage and exits 0.
        """

        def error(self, message):
            raise ParameterError(f"{self.prog}: {message}")

    def add(parser, options):
        for option in options:
            if isinstance(option[0], tuple):
                add(parser.add_mutually_exclusive_group(), option)
                continue
            name, kind, default, required, help = option
            kwargs = ({"action": "store_true"} if kind is bool else {
                "choices" if isinstance(kind, tuple) else "type": kind})
            parser.add_argument(f"--{name}", default=default,
                                required=required, help=help, **kwargs)

    parser = _Parser(prog="wgrass", description="Exact cohomology "
                     "computations for weighted Grassmann orbifolds.")
    add(parser, ROOT_OPTIONS)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help, positionals, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help)
        for name in positionals:
            p.add_argument(name)
        add(p, options)
        p.set_defaults(handler=handler)
    return parser


def _plain_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` makes, or None
    unless argv is canonical: root options before an exact command name,
    each option in full at most once, no other word that starts with "-"
    (no -h, "--" or "--k=2"), and nothing argparse would refuse."""
    words = iter(sys.argv[1:] if argv is None else argv)
    options = {option[0]: option for option in ROOT_OPTIONS}
    args, seen, positionals, command = {}, set(), [], None
    for word in words:
        if not word.startswith("-"):
            if command is not None:
                positionals.append(word)
                continue
            if word not in COMMANDS:
                return None
            command = word
            handler, _, names, groups = COMMANDS[command]
            options = {option[0]: option for option in _flat(groups)}
            args.update(command=command, handler=handler)
            continue
        option = options.get(word[2:]) if word.startswith("--") else None
        if option is None or option[0] in seen:
            return None
        name, kind, *_ = option
        seen.add(name)
        if kind is bool:
            args[name] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        if isinstance(kind, tuple):
            if value not in kind:
                return None
        elif kind is not str:
            try:
                value = int(value)
            except ValueError:
                return None
            if kind is _positive_int and value < 1:
                return None
        args[name] = value
    if command is None or len(positionals) != len(names):
        return None
    if any(isinstance(group[0], tuple) and len(seen & {o[0] for o in group}) > 1
           for group in groups):
        return None
    for name, _, default, required, _ in (*ROOT_OPTIONS, *options.values()):
        if name not in seen:
            if required:
                return None
            args[name] = default
    args.update(zip(names, positionals))
    return types.SimpleNamespace(**args)


def _emit(payload, output) -> None:
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    output = None
    try:
        args = _plain_args(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        output = args.output
        code, payload = args.handler(args)
    except CapacityError as exc:
        code, payload = EXIT_CAPACITY, {"error": str(exc), "kind": "capacity"}
    except (ParameterError, NotDivisiveError) as exc:
        code, payload = EXIT_INVALID, {"error": str(exc), "kind": "invalid-input"}
    except InternalInconsistencyError as exc:
        code, payload = 1, {"error": str(exc), "kind": "internal"}
    try:
        _emit(payload, output)
    except OSError as exc:
        _emit({"error": f"cannot write --output: {exc}", "kind": "invalid-input"},
              None)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
