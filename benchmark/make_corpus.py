"""Regenerate ``corpus.json`` and ``goldens.json``.

Usage, from the repository root::

    python3 benchmark/make_corpus.py

The reference simplices come from the library's seeded generators
(``random_simplex``); the goldens are what the library prints on every case
of every corpus.  Both were written once, when the benchmark was defined, and
are the behaviour contract later changes are checked against: rerunning this
script after a library change would hide that change from the benchmark.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import bench_corpus  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from dgframes import cli  # noqa: E402
from dgframes.dg_nerve import NerveSimplex, coherence_defect, random_simplex  # noqa: E402

SWEEP_SIMPLICES = 120
SWEEP_RNG_SEED = 2020
PROBES_PER_DIM = 2  # corrupted copies of the first sweep simplices of each n in 1..3 that admit one
CHECK_DEEP = ((7, 3), (6, 2), (13, 2))  # (Random seed, n), pinned: used as generated for every seed
FRAME_WIDE = (7, 105, 108)  # Random seeds of the n=3 simplices
FRAME_ALPHA = "0,0,1,1,2,2,3,3"
RECOVER_RNG_SEED = 5
RECOVER_SIMPLICES = 10


def _corrupt(simplex: dict, rng: random.Random):
    """One coherence map with a single entry changed by +-1, or None when the
    drawn entry leaves every coherence identity intact."""
    obj = json.loads(json.dumps(simplex))
    ranks = [{int(d): int(r) for d, r in o["degrees"].items()} for o in obj["objects"]]
    key = rng.choice(sorted(obj["maps"], key=lambda k: (len(k), k)))
    gmap = obj["maps"][key]
    seq = [int(p) for p in key.split(",")]
    k = int(gmap["degree"])
    src, tgt = ranks[seq[0]], ranks[seq[-1]]
    degrees = [d for d in sorted(src) if tgt.get(d + k)]
    if not degrees:
        return None
    d = rng.choice(degrees)
    rows = gmap["matrices"].get(str(d)) or [[0] * src[d] for _ in range(tgt[d + k])]
    rows[rng.randrange(len(rows))][rng.randrange(src[d])] += rng.choice((1, -1))
    gmap["matrices"][str(d)] = rows
    if coherence_defect(NerveSimplex.from_json(obj), tuple(seq)).is_zero():
        return None
    return obj, key


def build_corpus() -> dict:
    rng = random.Random(SWEEP_RNG_SEED)
    sweep = [random_simplex(rng, i % 4).to_json() for i in range(SWEEP_SIMPLICES)]
    inputs, cases = {}, []
    for i, simplex in enumerate(sweep):
        stem = "s%03d-n%d" % (i, simplex["n"])
        inputs[stem] = {"simplex": simplex}
        cases.append({"name": stem + "-validate", "command": "validate", "input": stem})
        cases.append({"name": stem + "-check", "command": "check", "input": stem, "args": ["--max-len", "1"]})
    probes = []
    for i, simplex in enumerate(sweep):
        if simplex["n"] and sum(1 for _, p in probes if p[0]["n"] == simplex["n"]) < PROBES_PER_DIM:
            prng = random.Random(i)
            got = next((g for g in (_corrupt(simplex, prng) for _ in range(20)) if g is not None), None)
            if got is not None:
                probes.append((i, got))
    for j, (i, (simplex, key)) in enumerate(probes):
        stem = "probe%d-n%d" % (j, simplex["n"])
        inputs[stem] = {"simplex": simplex, "corrupted": key, "source": "s%03d-n%d" % (i, simplex["n"])}
        for command, args in (("validate", []), ("check", ["--max-len", "1"])):
            cases.append(
                {"name": "%s-%s" % (stem, command), "command": command, "input": stem, "args": args,
                 "expect": "mc-fail", "fail_at": key}
            )
    workloads = {
        "sweep-small": {
            "generator": "random_simplex(random.Random(%d) shared, i %% 4) for i < %d; each probe adds +-1 to one "
            "entry of one coherence map of a sweep simplex, kept only where coherence_defect is nonzero"
            % (SWEEP_RNG_SEED, SWEEP_SIMPLICES),
            "inputs": inputs,
            "cases": cases,
        }
    }

    inputs, cases = {}, []
    for seed, n in CHECK_DEEP:
        stem = "r%dn%d" % (seed, n)
        inputs[stem] = {"simplex": random_simplex(random.Random(seed), n).to_json(), "pinned": True}
        cases.append({"name": stem + "-check", "command": "check", "input": stem, "args": ["--max-len", "3"]})
    workloads["check-deep"] = {
        "generator": "random_simplex(random.Random(seed), n) for (seed, n) in %s" % (list(CHECK_DEEP),),
        "inputs": inputs,
        "cases": cases,
    }

    inputs, cases = {}, []
    for seed in FRAME_WIDE:
        stem = "r%dn3" % seed
        inputs[stem] = {"simplex": random_simplex(random.Random(seed), 3).to_json()}
        cases.append({"name": stem + "-frame", "command": "frame", "input": stem, "args": ["--alpha", FRAME_ALPHA]})
    workloads["frame-wide"] = {
        "generator": "random_simplex(random.Random(seed), 3) for seed in %s; alpha %s" % (list(FRAME_WIDE), FRAME_ALPHA),
        "inputs": inputs,
        "cases": cases,
    }

    rng = random.Random(RECOVER_RNG_SEED)
    inputs, cases = {}, []
    for i in range(RECOVER_SIMPLICES):
        stem = "r5-%d" % i
        inputs[stem] = {"simplex": random_simplex(rng, 1, max_rank=4).to_json()}
        cases.append({"name": stem + "-recover", "command": "recover", "input": stem})
    workloads["recover"] = {
        "generator": "random_simplex(random.Random(%d) shared, 1, max_rank=4), %d times" % (RECOVER_RNG_SEED, RECOVER_SIMPLICES),
        "inputs": inputs,
        "cases": cases,
    }
    return {"corpora": bench_corpus.CORPORA, "workloads": workloads}


def build_goldens(corpus: dict, workdir: str) -> dict:
    goldens = {"corpora": bench_corpus.CORPORA, "workloads": {}, "known_failures": {}, "properties": {}}
    for workload, spec in corpus["workloads"].items():
        per_case = {c["name"]: [] for c in spec["cases"] if c.get("expect", "golden") == "golden"}
        known = {}
        for index in range(bench_corpus.CORPORA):
            cases = bench_corpus.materialize(workload, index, workdir, corpus)
            tracer = Tracer().install() if index == 0 else None
            try:
                for case in cases:
                    outcome = bench_corpus.run_case(cli, case.argv)
                    if case.expect == "golden":
                        per_case[case.name].append([outcome.code, bench_corpus.digest(outcome.stdout)])
                    else:
                        reason = bench_corpus.verify(case, outcome, goldens, workload, index)
                        if reason is not None:
                            known[case.name] = reason
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                w = tracer.work
                goldens["properties"][workload] = {
                    "cases": len(cases),
                    "simplex_dims": sorted({entry["simplex"]["n"] for entry in spec["inputs"].values()}),
                    "largest_frame_rank": w["frame_rank_max"],
                    "largest_snf_input": "%dx%d" % w["snf_largest_input"],
                    "snf_calls": tracer.spans["exact_linalg.snf"].calls,
                }
            print("%s corpus %d done" % (workload, index), flush=True)
        goldens["workloads"][workload] = {
            name: runs[0] if all(r == runs[0] for r in runs) else {"by_corpus": runs} for name, runs in per_case.items()
        }
        goldens["known_failures"][workload] = known
    return goldens


def main():
    workdir = os.path.join(os.getcwd(), ".bench_work", "make_corpus")
    corpus = build_corpus()
    try:
        goldens = build_goldens(corpus, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(bench_corpus.CORPUS_PATH, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    with open(bench_corpus.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
