"""Every name the benchmark tracer wraps or reads still exists.

``bench/tracer.py`` patches the package from outside, by name.  A
renamed function would make ``Tracer.install`` fail, and a renamed
cache would read as zeros, so both lists are resolved here the way the
tracer resolves them.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_paths_resolve():
    for mod, path, op, _ in _tracer().WRAPPED:
        owner = importlib.import_module(f"wgrass.{mod}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # Tracer.install reads class attributes through __dict__
        if isinstance(owner, type):
            assert attr in owner.__dict__, (mod, path, op)
            fn = owner.__dict__[attr]
        else:
            fn = getattr(owner, attr)
        assert callable(fn), (mod, path, op)


def test_caches_have_cache_info():
    for qualified in _tracer().CACHES:
        mod, attr = qualified.split(".")
        fn = getattr(importlib.import_module(f"wgrass.{mod}"), attr)
        info = fn.cache_info()
        assert info.currsize >= 0, qualified
