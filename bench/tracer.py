"""
Out-of-program tracing for the wgrass benchmark.

``install()`` replaces public functions and methods of the wgrass layers
with timing wrappers, from outside: the package itself is not edited.
Each wrapped call belongs to an operation (``polynomial.mul``,
``gkm.basis``, ...) whose prefix names its layer.  Per operation the
tracer keeps the call count and the inclusive time of outermost calls
(a call nested in another call of the same operation adds no time, so
recursion is not counted twice).  Per layer it keeps self time: a
call's duration minus the time of wrapped calls made inside it, so the
self times of all layers add up to the traced time.

Coarse operations also record spans (name, start, end, parent span,
request id) in memory; hot leaf operations such as ``Poly.__mul__``
only aggregate, because one span per call would cost more memory than
the computation.  ``Tracer.dump`` writes everything out at the end.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# Every functools.lru_cache of the package, read through cache_info().
CACHES = (
    "symbols.lattice",
    "plucker.generate_relations",
    "plucker._permutation_context",
    "plucker._enumerate_cached",
    "puzzles._enumerate_cached",
    "puzzles.conjugated_product",
    "gkm.kt_restrictions",
    "gkm._weighted_cached",
    "structure.context",
)

# (module, attribute path, operation, records spans)
WRAPPED = (
    ("cli", "main", "cli.main", True),
    ("cli", "_emit", "cli.emit", True),
    ("symbols", "lattice", "symbols.lattice", False),
    ("symbols", "SymbolLattice.chains", "symbols.chains", False),
    ("polynomial", "Poly.__mul__", "polynomial.mul", False),
    ("polynomial", "Poly.__rmul__", "polynomial.mul", False),
    ("polynomial", "Poly.__add__", "polynomial.add", False),
    ("polynomial", "Poly.__radd__", "polynomial.add", False),
    ("polynomial", "Poly.divide_exact", "polynomial.divide", False),
    ("polynomial", "Poly.substitute", "polynomial.substitute", False),
    ("linalg", "invert", "linalg.invert", False),
    ("plucker", "generate_relations", "plucker.relations", False),
    ("plucker", "validate_weight_vector", "plucker.validate", False),
    ("plucker", "solve_wa", "plucker.solve_wa", False),
    ("plucker", "is_plucker_permutation", "plucker.perm_check", False),
    ("plucker", "enumerate_plucker_permutations", "plucker.enumerate", True),
    ("plucker", "is_divisive", "plucker.presentation", True),
    ("plucker", "divisive_presentation", "plucker.presentation", True),
    ("plucker", "equivalence", "plucker.equivalence", True),
    ("torsion", "torsion_report", "torsion.report", True),
    ("torsion", "no_p_torsion_certificate", "torsion.certificate_search", True),
    ("torsion", "certificate_condition", "torsion.certificate", False),
    ("torsion", "poincare_ranks", "torsion.poincare", False),
    ("puzzles", "enumerate_puzzles", "puzzles.enumerate", True),
    ("gkm", "kt_restrictions", "gkm.basis", True),
    ("gkm", "weighted_restrictions", "gkm.basis", True),
    ("gkm", "localize_product", "gkm.localize", True),
    ("structure", "context", "structure.context", False),
    ("structure", "WeightedContext.equivariant_constants", "structure.cell", True),
    ("structure", "WeightedContext.ordinary_constants", "structure.cell", True),
    ("structure", "WeightedContext.equivariant_table", "structure.table", True),
    ("structure", "WeightedContext.ordinary_table", "structure.table", True),
    ("structure", "WeightedContext.pieri_power", "structure.pieri", False),
    ("structure", "WeightedContext.a_coefficients", "structure.acoeff", False),
    ("structure", "WeightedContext.change_basis_positivity", "structure.rewrite", False),
    ("structure", "verify_positivity", "structure.positivity", True),
    ("structure", "verify_integrality", "structure.integrality", True),
)


class Tracer:
    """Spans, per-operation totals and per-layer self time of one process."""

    def __init__(self):
        self.request = None
        self.stack: list = []  # frames [child seconds, span id]
        self.spans: list = []  # [id, name, start, end, parent id, request]
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._depth: Counter = Counter()
        self._next_id = 1
        self._seen_boundaries: set = set()
        self._caches: dict = {}

    def wrap(self, fn, op: str, span: bool, observe=None):
        layer = op.split(".", 1)[0]
        stack = self.stack
        depth = self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            if span:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            depth[op] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[op] -= 1
                elapsed = end - start
                self.self_time[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                self.calls[op] += 1
                if not depth[op]:
                    self.inclusive[op] += elapsed
                if span:
                    self.spans.append(
                        [span_id, op, start, end, parent, self.request]
                    )
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters read from arguments and results -------------------------

    def _observe_mul(self, args, result):
        a, b = args[0], args[1]
        other = len(b.terms) if hasattr(b, "terms") else 1
        self.counters["polynomial.mul_term_pairs"] += len(a.terms) * other

    def _observe_boundary(self, args, result):
        if args in self._seen_boundaries:
            return
        self._seen_boundaries.add(args)
        self.counters["puzzles.boundaries"] += 1
        self.counters["puzzles.found"] += len(result)
        self.counters["puzzles.nonempty"] += bool(result)

    def _observe_perm_check(self, args, result):
        self.counters["plucker.perm_witnesses"] += result is not None

    def install(self) -> None:
        """Wrap every entry of WRAPPED in the imported wgrass modules."""
        import importlib

        observers = {
            "polynomial.mul": self._observe_mul,
            "puzzles.enumerate": self._observe_boundary,
            "plucker.perm_check": self._observe_perm_check,
        }
        modules = {}
        for name in ("cli", "symbols", "polynomial", "linalg", "plucker",
                     "torsion", "puzzles", "gkm", "structure"):
            modules[name] = importlib.import_module(f"wgrass.{name}")
        for qualified in CACHES:
            mod, attr = qualified.split(".")
            self._caches[qualified] = getattr(modules[mod], attr, None)
        for mod, path, op, span in WRAPPED:
            owner = modules[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self.wrap(fn, op, span, observers.get(op)))

    def cache_stats(self) -> dict:
        out = {}
        for name, fn in self._caches.items():
            info = fn.cache_info() if fn is not None else None
            out[name] = (
                [info.hits, info.misses, info.currsize] if info else [0, 0, 0]
            )
        return out

    def dump(self, path, extra=None) -> None:
        record = {
            "spans": self.spans,
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
            "caches": self.cache_stats(),
        }
        if extra:
            record.update(extra)
        with open(path, "w") as fh:
            json.dump(record, fh)
