"""Self-test of the benchmark.  Run from the repository root::

    python3 -m pytest -q benchmark/test_benchmark.py
"""

from __future__ import annotations

import json
import os
import random

import pytest

import bench_corpus
import run
import speed
from bench_trace import LAYER_METRICS, Tracer, is_timing

ROOT = os.path.dirname(bench_corpus.HERE)
cli = run.import_library(ROOT)

from dgframes import NerveSimplex, validate_maurer_cartan  # noqa: E402  (importable once cli is)


@pytest.fixture(scope="module")
def corpus():
    return bench_corpus.load_json(bench_corpus.CORPUS_PATH)


@pytest.fixture(scope="module")
def goldens():
    return bench_corpus.load_json(bench_corpus.GOLDENS_PATH)


def traced_pass(cases, goldens, workload, seed):
    tracer = Tracer().install()
    try:
        result = run.run_pass(cli, cases, goldens, workload, seed)
    finally:
        tracer.uninstall()
    return tracer, result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counters_repeat_exactly(workload, corpus, goldens, tmp_path):
    cases = bench_corpus.materialize(workload, 1, str(tmp_path), corpus)
    counts = []
    for _ in range(2):
        tracer, result = traced_pass(cases, goldens, workload, 1)
        metrics = tracer.layer_metrics(result.output_bytes)
        counts.append({name: value for name, value in metrics.items() if not is_timing(name)})
    assert counts[0] == counts[1]
    assert counts[0]["exact_linalg.snf.calls"] > 0


def test_seed_profile_counts_of_the_pinned_3_simplex(corpus, goldens, tmp_path):
    cases = bench_corpus.materialize("check-deep", 0, str(tmp_path), corpus)
    (case,) = [c for c in cases if c.name == "r7n3-check"]
    tracer, result = traced_pass([case], goldens, "check-deep", 0)
    assert result.failures == []
    metrics = tracer.layer_metrics(result.output_bytes)
    assert metrics["frames.build_frame_object.calls"] == 1341
    assert metrics["complexes.cone.calls"] == 384
    assert metrics["exact_linalg.IntMatrix.identity.calls"] == 17105


def test_tracer_restores_the_library(corpus, goldens, tmp_path):
    before = (cli.main, NerveSimplex.eval, NerveSimplex.__dict__["from_json"])
    traced_pass(bench_corpus.materialize("recover", 0, str(tmp_path), corpus)[:1], goldens, "recover", 0)
    assert (cli.main, NerveSimplex.eval, NerveSimplex.__dict__["from_json"]) == before


def test_normalize_scales_by_the_mean_sample_near_the_interval():
    sampler = speed.SpeedSampler()
    sampler.starts = [0.0, 1.0, 2.0, 10.0]
    r = speed.REFERENCE_SAMPLE_S
    sampler.samples = [r, 3 * r, 2 * r, 100 * r]
    # samples at 0, 1 and 2 s lie within the window of [0.4, 1.6]; the one at 10 s does not
    assert sampler.normalize(0.4, 1.6, 1.2) == pytest.approx(1.2 / 2)
    sampler.samples = [2 * r] * 4
    assert sampler.normalize(9.9, 10.0, 0.1) == pytest.approx(0.05)


def test_sampler_keeps_its_time_out_of_the_clock():
    sampler = speed.SpeedSampler().install()
    try:
        t0, k0 = run.perf_counter(), sampler.clock()
        while len(sampler.samples) < 3:
            speed.reference_kernel()
        wall, clean = run.perf_counter() - t0, sampler.clock() - k0
    finally:
        sampler.uninstall()
    assert clean == pytest.approx(wall - sampler.spent, abs=1e-4)
    assert sampler.spent >= sum(sampler.samples)


@pytest.mark.parametrize("seed", [0, 1, 37])
def test_change_of_basis_keeps_every_reference_simplex_valid(corpus, seed):
    for workload, spec in corpus["workloads"].items():
        for stem, entry in spec["inputs"].items():
            if "corrupted" in entry:
                continue
            simplex = bench_corpus.change_basis(entry["simplex"], random.Random(seed))
            assert validate_maurer_cartan(NerveSimplex.from_json(simplex)).ok, (workload, stem)


def test_every_golden_case_has_a_golden(corpus, goldens):
    for workload, spec in corpus["workloads"].items():
        for case in spec["cases"]:
            if case.get("expect", "golden") == "golden":
                entry = goldens["workloads"][workload][case["name"]]
                if isinstance(entry, dict):
                    assert len(entry["by_corpus"]) == bench_corpus.CORPORA


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
