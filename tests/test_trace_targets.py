"""The benchmark's per-layer tracer names library callables by path; a rename
in the library must show up here, not as an AttributeError under
``benchmark/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path


def _bench_trace():
    path = Path(__file__).resolve().parents[1] / "benchmark" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("bench_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_in_dgframes():
    targets = _bench_trace().TARGETS
    assert targets
    for layer, path in targets:
        obj = importlib.import_module("dgframes." + layer)
        for attr in path.split("."):
            assert hasattr(obj, attr), "dgframes.%s has no %s" % (layer, path)
            obj = getattr(obj, attr)
        assert callable(obj), "dgframes.%s.%s is not callable" % (layer, path)
