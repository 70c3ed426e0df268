"""
Child-process entry points of the wgrass benchmark.

    child.py shim <trace-out> <request-id> <argv...>
        One traced CLI request: install the tracer, then run
        ``wgrass.cli.main(argv)`` exactly as ``python -m wgrass.cli`` would.
    child.py verify <spec> <out> <trace 0|1>
        One pass of the ``verify`` workload in a single library process.
    child.py baseline <out>
        The ROADMAP baseline rows at (2,5) and (2,6), untraced.

Every mode writes its record to the named file; stdout and stderr are
left to the program under test.
"""

import hashlib
import json
import sys
import time
import traceback


def _shim(trace_out: str, request_id: str, argv: list) -> int:
    from tracer import Tracer

    import wgrass.cli

    tracer = Tracer()
    tracer.request = request_id
    tracer.install()
    main_at = time.perf_counter()
    try:
        return wgrass.cli.main(argv)
    finally:
        tracer.dump(trace_out, {"main_at": main_at})


def _verify_request(req: dict) -> dict:
    from wgrass import gkm, structure

    k, n, b = req["k"], req["n"], tuple(req["b"])
    ctx = structure.context(b, k, n)
    table = ctx.equivariant_table()
    m1 = ctx.lattice.m + 1
    if req["cells"] == "all":
        cells = [(i, j) for i in range(m1) for j in range(i, m1)]
    else:
        cells = [tuple(c) for c in req["cells"]]
    checked = {}
    mismatches = []
    for i, j in cells:
        if gkm.localize_product(b, k, n, i, j) != table[(i, j)]:
            mismatches.append([i, j])
        checked[(i, j)] = table[(i, j)]
    integral, bad_int = structure.verify_integrality(table)
    positive, bad_pos = structure.verify_positivity(checked, b, k, n)
    digest = hashlib.sha256()
    for key in sorted(table):
        cell = table[key]
        digest.update(repr((key, [(l, cell[l].render()) for l in sorted(cell)])).encode())
    return {
        "ok": not mismatches and integral and positive and len(table) == m1 * m1,
        "cells": len(cells),
        "mismatches": mismatches,
        "integrality": None if integral else repr(bad_int),
        "positivity": None if positive else repr(bad_pos),
        "digest": digest.hexdigest(),
    }


def _verify(spec_path: str, out_path: str, traced: bool) -> int:
    import wgrass.gkm  # noqa: F401
    import wgrass.structure  # noqa: F401

    with open(spec_path) as fh:
        requests = json.load(fh)
    run = _verify_request
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(_verify_request, "client.request", True)
    main_at = time.perf_counter()
    results = []
    for req in requests:
        if tracer is not None:
            tracer.request = req["id"]
        start = time.perf_counter()
        try:
            outcome = run(req)
        except Exception:  # a raising request is a failed request
            outcome = {"ok": False, "error": traceback.format_exc(limit=3)}
        outcome["latency_s"] = time.perf_counter() - start
        outcome["id"] = req["id"]
        results.append(outcome)
    record = {"results": results, "main_at": main_at}
    if tracer is not None:
        tracer.dump(out_path, record)
    else:
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    return 0


def _baseline(out_path: str) -> int:
    """Rows of the ROADMAP baseline table for its weighted vector
    W = (1, 0, ..., 0), a = 1, timed from cold in this process."""
    from workloads import BASELINE_SIZES

    from wgrass import gkm, structure, symbols

    rows = {}
    agree = True
    for k, n in BASELINE_SIZES:
        b = tuple(2 if 1 in sym else 1 for sym in symbols.enumerate_symbols(k, n))
        tag = f"baseline.{k}_{n}."
        start = time.perf_counter()
        gkm.kt_restrictions(k, n)
        rows[tag + "kt_restrictions_s"] = time.perf_counter() - start
        start = time.perf_counter()
        pipeline = structure.context(b, k, n).equivariant_table()
        rows[tag + "pipeline_table_s"] = time.perf_counter() - start
        gkm.weighted_restrictions(b, k, n)
        start = time.perf_counter()
        oracle = structure.localize_table(b, k, n)
        rows[tag + "oracle_table_s"] = time.perf_counter() - start
        start = time.perf_counter()
        positive, _ = structure.verify_positivity(pipeline, b, k, n)
        rows[tag + "positivity_s"] = time.perf_counter() - start
        agree = agree and positive and oracle == pipeline
    with open(out_path, "w") as fh:
        json.dump({"rows": rows, "ok": agree}, fh)
    return 0


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "shim":
        return _shim(argv[1], argv[2], argv[3:])
    if mode == "verify":
        return _verify(argv[1], argv[2], argv[3] == "1")
    if mode == "baseline":
        return _baseline(argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
