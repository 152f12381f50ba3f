"""``benchmark/corpus.json`` holds every seeded ``random_simplex`` draw that the
benchmark goldens rest on; a change to a generator must show up here, not as a
golden mismatch under ``benchmark/run.py``.  ``make_corpus.py`` is loaded
read-only: its ``build_corpus`` writes nothing, and no bytecode is cached
under ``benchmark/``."""

import importlib.util
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _make_corpus(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARK))  # its sibling imports; sys.path is restored after the test
    for name in ("bench_corpus", "bench_trace"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location("make_corpus", BENCHMARK / "make_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_corpus_regenerates_byte_for_byte(monkeypatch):
    corpus = _make_corpus(monkeypatch).build_corpus()
    text = json.dumps(corpus, sort_keys=True, separators=(",", ":")) + "\n"
    assert text == (BENCHMARK / "corpus.json").read_text(encoding="utf-8")
