"""
Benchmark entry point for wgrass.

    python3 bench/run.py --workload ring|verify|weights|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
``src/wgrass`` of that checkout, byte-compiled once before measuring.

Each workload is a closed loop with one client and one request at a
time.  A pass runs the workload's fixed request list once; an untraced
run makes as many whole passes as fit in ``--seconds`` (at least one)
and reports medians over them: of the pass times, and of each pass's
latency quantiles.  ``ring`` and ``weights`` send every
request as a fresh ``python -m wgrass.cli`` process; ``verify`` runs
each pass in one fresh library process (``child.py verify``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
untraced and one traced pass of the same requests, where ``child.py``
wraps the layers from outside (``tracer.py``), and prints the per-layer
metrics, the tracing overhead and the ROADMAP baseline rows.

Outputs are checked after the timed passes.  A request fails when it
exits with the wrong code, fails its check, or raises; the failures
count in ``failed``.  ``correct`` is false when any request other than
a documented known defect fails.  The last stdout line is the result
object; the line before it records the seed, Python version, core
count, request-list digest and sample counts.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads
from tracer import CACHES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_REPEATS = 21
REQUEST_TIMEOUT_S = 150

BASELINE_ROWS = tuple(
    f"baseline.{k}_{n}.{row}_s"
    for k, n in workloads.BASELINE_SIZES
    for row in ("kt_restrictions", "pipeline_table", "oracle_table", "positivity")
)

LAYERS = ("cli", "client", "symbols", "polynomial", "linalg", "plucker",
          "torsion", "puzzles", "gkm", "structure")


class Outcome:
    """What the client saw of one request."""

    def __init__(self, rid, code, output, latency, detail=None):
        self.id = rid
        self.code = code
        self.output = output
        self.latency = latency
        self.detail = detail


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, env):
    """(exit code or None on timeout, stdout, seconds, spawn time)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              timeout=REQUEST_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = None, b""
    return code, out, time.perf_counter() - start, start


# -- workloads -----------------------------------------------------------------


class CliWorkload:
    """ring and weights: one fresh CLI process per request."""

    def __init__(self, name, requests):
        self.name = name
        self.requests = requests
        self.digest_source = workloads.digest_source(requests)

    def run_pass(self, env, tmp, traced):
        outcomes, records = [], []
        start = time.perf_counter()
        for req in self.requests:
            if traced:
                out = tmp / f"{req.id}.json"
                argv = [sys.executable, str(BENCH / "child.py"), "shim",
                        str(out), req.id, *req.argv]
            else:
                argv = [sys.executable, "-m", "wgrass.cli", *req.argv]
            code, output, latency, spawned = run_child(argv, env)
            outcomes.append(Outcome(req.id, code, output, latency))
            if traced and out.exists():
                records.append((json.loads(out.read_text()), spawned))
        return time.perf_counter() - start, outcomes, records

    def check_first(self, outcomes) -> dict:
        """Reasons, by request id, why requests of the first pass failed."""
        failures = {}
        payloads = {}
        for req, got in zip(self.requests, outcomes):
            try:
                payload = json.loads(got.output)
            except ValueError:
                payload = None
            payloads[req.id] = payload
            if self.name == "ring":
                reason = workloads.check_ring_table(req.meta, got.code, payload)
            else:
                reason = req.check(got.code, payload)
            if reason:
                failures[req.id] = reason
        if self.name == "ring":
            failures.update(self._ring_cross_checks(payloads, failures))
        return failures

    def _ring_cross_checks(self, payloads, failed) -> dict:
        """Ordinary == degree-0 part of equivariant; sampled cells == gkm."""
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from wgrass import gkm

        out = {}
        by_vector = {}
        for req in self.requests:
            if req.id not in failed:
                meta = req.meta
                by_vector[(meta["k"], meta["n"], meta["vector"], meta["level"])] = req
        for (k, n, vector, level), req in by_vector.items():
            table = payloads[req.id]["table"]
            if level == "ordinary":
                eq = by_vector.get((k, n, vector, "equivariant"))
                if eq is not None:
                    want = workloads.degree_zero_part(payloads[eq.id]["table"], n)
                    if want != table:
                        out[req.id] = "ordinary table is not the degree-0 part"
                continue
            for i, j in req.meta.get("oracle_cells", ()):
                cell = gkm.localize_product(tuple(req.meta["b"]), k, n, i, j)
                rendered = {str(l): p.render() for l, p in sorted(cell.items())}
                if rendered != table[f"{i},{j}"]:
                    out[req.id] = f"cell {i},{j} disagrees with gkm.localize_product"
        return out

    def known_defects(self) -> set:
        return {r.id for r in self.requests if r.known_defect}


class VerifyWorkload:
    """verify: each pass runs every request in one fresh library process."""

    name = "verify"

    def __init__(self, specs):
        self.specs = specs
        self.digest_source = specs

    def run_pass(self, env, tmp, traced):
        spec = tmp / "verify-spec.json"
        if not spec.exists():
            spec.write_text(json.dumps(self.specs))
        out = tmp / f"verify-{time.perf_counter_ns()}.json"
        argv = [sys.executable, str(BENCH / "child.py"), "verify", str(spec),
                str(out), "1" if traced else "0"]
        code, _, wall, spawned = run_child(argv, env)
        record = json.loads(out.read_text()) if code == 0 and out.exists() else None
        outcomes, records = [], []
        results = {r["id"]: r for r in (record or {}).get("results", ())}
        for spec_entry in self.specs:
            got = results.get(spec_entry["id"])
            if got is None:
                outcomes.append(Outcome(spec_entry["id"], code, b"", wall,
                                        f"worker exit {code}"))
                continue
            detail = None if got["ok"] else json.dumps(got)[:200]
            outcomes.append(Outcome(got["id"], 0, got.get("digest", "").encode(),
                                    got["latency_s"], detail))
        if traced and record is not None:
            records.append((record, spawned))
        return wall, outcomes, records

    def check_first(self, outcomes) -> dict:
        return {o.id: o.detail for o in outcomes if o.detail}

    def known_defects(self) -> set:
        return set()


def make_workload(name: str, seed: int):
    if name == "ring":
        return CliWorkload(name, workloads.ring_requests(seed))
    if name == "weights":
        return CliWorkload(name, workloads.weights_requests(seed))
    return VerifyWorkload(workloads.verify_requests(seed))


# -- measurement -------------------------------------------------------------


def measure_setup(env, repeats) -> list:
    """Seconds to start an interpreter and import wgrass.cli, per repeat."""
    times = []
    for _ in range(repeats):
        code, _, seconds, _ = run_child([sys.executable, "-c", "import wgrass.cli"], env)
        if code != 0:
            raise RuntimeError("cannot import wgrass from src/")
        times.append(seconds)
    return times


def failures_of(workload, passes) -> dict:
    """(pass index, request id) -> reason, over every pass run.

    The first pass is checked in full; every later pass must repeat its
    exit codes and stdout bytes exactly.
    """
    first = passes[0][1]
    reasons = workload.check_first(first)
    out = {(0, rid): why for rid, why in reasons.items()}
    reference = {o.id: (o.code, o.output) for o in first}
    for index, (_, outcomes, _) in enumerate(passes[1:], start=1):
        for got in outcomes:
            if got.id in reasons:
                out[(index, got.id)] = reasons[got.id]
            elif got.detail or (got.code, got.output) != reference[got.id]:
                out[(index, got.id)] = got.detail or "output differs from the first pass"
    return out


def layer_metrics(records) -> dict:
    """Per-layer metrics summed over the traced processes."""
    calls, counters = Counter(), Counter()
    inc, self_s = defaultdict(float), defaultdict(float)
    caches = {name: [0, 0, 0] for name in CACHES}
    startup = nested_basis = 0.0
    for rec, spawned in records:
        calls.update(rec["calls"])
        counters.update(rec["counters"])
        for op, seconds in rec["inclusive"].items():
            inc[op] += seconds
        for layer, seconds in rec["self"].items():
            self_s[layer] += seconds
        for name, values in rec["caches"].items():
            caches[name] = [a + b for a, b in zip(caches[name], values)]
        startup += rec["main_at"] - spawned
        peel_spans = {s[0] for s in rec["spans"] if s[1] == "gkm.localize"}
        nested_basis += sum(s[3] - s[2] for s in rec["spans"]
                            if s[1] == "gkm.basis" and s[4] in peel_spans)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "puzzles.enumerate_s": (inc["puzzles.enumerate"], "s"),
        "puzzles.boundaries": (counters["puzzles.boundaries"], "count"),
        "puzzles.found": (counters["puzzles.found"], "count"),
        "puzzles.nonempty_ratio": (
            ratio(counters["puzzles.nonempty"], counters["puzzles.boundaries"]), "ratio"),
        "structure.cell_s": (inc["structure.cell"], "s"),
        "structure.pieri_s": (inc["structure.pieri"], "s"),
        "structure.pieri_calls": (calls["structure.pieri"], "count"),
        "structure.acoeff_s": (inc["structure.acoeff"], "s"),
        "structure.positivity_s": (inc["structure.positivity"], "s"),
        "structure.rewrites": (calls["structure.rewrite"], "count"),
        "linalg.invert_calls": (calls["linalg.invert"], "count"),
        "linalg.invert_s": (inc["linalg.invert"], "s"),
        "gkm.basis_s": (inc["gkm.basis"], "s"),
        "gkm.peel_s": (inc["gkm.localize"] - nested_basis, "s"),
        "gkm.cells": (calls["gkm.localize"], "count"),
        "polynomial.mul_calls": (calls["polynomial.mul"], "count"),
        "polynomial.mul_term_pairs": (counters["polynomial.mul_term_pairs"], "count"),
        "polynomial.mul_s": (inc["polynomial.mul"], "s"),
        "polynomial.add_s": (inc["polynomial.add"], "s"),
        "polynomial.divide_calls": (calls["polynomial.divide"], "count"),
        "polynomial.divide_s": (inc["polynomial.divide"], "s"),
        "polynomial.substitute_calls": (calls["polynomial.substitute"], "count"),
        "polynomial.substitute_s": (inc["polynomial.substitute"], "s"),
        "plucker.relations_s": (inc["plucker.relations"], "s"),
        "plucker.validate_calls": (calls["plucker.validate"], "count"),
        "plucker.perm_checks": (calls["plucker.perm_check"], "count"),
        "plucker.perm_check_s": (inc["plucker.perm_check"], "s"),
        "plucker.perm_witness_ratio": (
            ratio(counters["plucker.perm_witnesses"], calls["plucker.perm_check"]), "ratio"),
        "plucker.presentation_s": (inc["plucker.presentation"], "s"),
        "torsion.report_s": (inc["torsion.report"], "s"),
        "torsion.certificate_checks": (calls["torsion.certificate"], "count"),
        "symbols.lattice_s": (inc["symbols.lattice"], "s"),
        "symbols.chains_s": (inc["symbols.chains"], "s"),
        "cli.emit_s": (inc["cli.emit"], "s"),
        "process.startup_s": (startup, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    for name, (hits, misses, size) in caches.items():
        m[f"cache.{name}.hits"] = (hits, "count")
        m[f"cache.{name}.misses"] = (misses, "count")
        m[f"cache.{name}.size"] = (size, "count")
    return m


def write_spans(workload, seed, records) -> Path:
    path = BUILD / "trace" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ("id", "name", "start", "end", "parent", "request")
    spans = [dict(zip(fields, s)) for rec, _ in records for s in rec["spans"]]
    path.write_text(json.dumps({"fields": fields, "spans": spans}))
    return path


def run_workload(name, seed, seconds, trace, env, tmp) -> tuple:
    workload = make_workload(name, seed)
    digest = hashlib.sha256(
        json.dumps(workload.digest_source, separators=(",", ":")).encode()
    ).hexdigest()
    # Half of the set-up repeats run before the passes and half after, so
    # their median spans the run rather than its first seconds.
    setup = [] if trace else measure_setup(env, SETUP_REPEATS // 2)
    passes = []
    if trace:
        passes.append(workload.run_pass(env, tmp, traced=False))
        passes.append(workload.run_pass(env, tmp, traced=True))
    else:
        start = time.perf_counter()
        while True:
            passes.append(workload.run_pass(env, tmp, traced=False))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    if not trace:
        setup += measure_setup(env, SETUP_REPEATS - len(setup))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    failures = failures_of(workload, passes)
    attempted = sum(len(p[1]) for p in passes)
    metrics = {}
    info = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "requests": len(workload.digest_source),
        "requests_sha256": digest,
        "passes": len(passes),
    }
    if trace:
        untraced, traced = passes[0][0], passes[1][0]
        records = passes[1][2]
        metrics.update(layer_metrics(records))
        metrics["trace.untraced_wall_s"] = (untraced, "s")
        metrics["trace.traced_wall_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        info["spans"] = str(write_spans(name, seed, records).relative_to(ROOT))
        baseline_out = tmp / "baseline.json"
        code, _, _, _ = run_child(
            [sys.executable, str(BENCH / "child.py"), "baseline", str(baseline_out)], env)
        baseline = json.loads(baseline_out.read_text()) if code == 0 else {"rows": {}, "ok": False}
        attempted += 1
        if not baseline["ok"]:
            failures[(2, "baseline")] = f"baseline rows failed (exit {code})"
        for row in BASELINE_ROWS:
            metrics[row] = (baseline["rows"].get(row, 0.0), "s")
        metrics["failed_ratio"] = (len(failures) / attempted, "ratio")
    else:
        # Latency quantiles are taken per pass, then the median over passes.
        per_pass = [[o.latency for o in p[1]] for p in passes]
        metrics["wall_s"] = (statistics.median(p[0] for p in passes), "s")
        metrics["request_p50_s"] = (
            statistics.median(statistics.median(lat) for lat in per_pass), "s")
        metrics["request_p90_s"] = (statistics.median(
            statistics.quantiles(lat, n=10, method="inclusive")[-1] for lat in per_pass), "s")
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        info["samples"] = {
            "wall_s": len(passes),
            "request_p50_s": attempted,
            "request_p90_s": attempted,
            "setup_s": len(setup),
            "peak_rss_mb": len(passes),
        }
    known = workload.known_defects()
    info["failures"] = {f"{p}:{rid}": why for (p, rid), why in sorted(failures.items())}
    result = {
        "correct": all(rid in known for _, rid in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ring", "verify", "weights", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wgrass" / "cli.py").is_file():
        print(f"no wgrass sources under {SRC}", file=sys.stderr)
        return 2
    tmp = BUILD / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for directory in (SRC / "wgrass", BENCH):
            if not compileall.compile_dir(str(directory), quiet=1):
                print(f"cannot byte-compile {directory}", file=sys.stderr)
                return 2
        if args.workload == "all":
            # One process per workload, so peak_rss_mb sees only its own children.
            for name in ("ring", "verify", "weights"):
                code = subprocess.run([
                    sys.executable, __file__, "--workload", name, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--trace",
                    str(args.trace)]).returncode
                if code:
                    return code
            return 0
        info, result = run_workload(
            args.workload, args.seed, args.seconds, args.trace, child_env(), tmp)
        print(json.dumps(info))
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
