"""Benchmark inputs, case execution and output checks.

``corpus.json`` holds the reference simplices of every workload, generated
once with the library's seeded generators (see ``make_corpus.py``), and the
cases that run on them.  ``--seed`` selects one of ``CORPORA`` corpora: corpus
``seed % CORPORA`` applies a seeded change of basis to every reference
simplex (a signed permutation of each basis, the same for the objects and
for every map between them).  That keeps each simplex valid and keeps all
shapes and entry sizes, so the work per pass is comparable across seeds,
while every matrix the library sees, and the bytes of every ``frame`` and
``recover`` report, change with the seed.  Inputs marked ``pinned`` are used
as generated.

``goldens.json`` holds, per corpus and case, the exit code and the sha256 of
the stdout the library printed when the benchmark was defined.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_PATH = os.path.join(HERE, "corpus.json")
GOLDENS_PATH = os.path.join(HERE, "goldens.json")
CORPORA = 16


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def corpus_index(seed: int) -> int:
    return seed % CORPORA


# -- change of basis ----------------------------------------------------------------


def _signed_permutation(rank: int, rng: random.Random):
    perm = list(range(rank))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(rank)]


def _conjugate(rows, tgt, src):
    """Matrix of the same map in the new bases: new basis vector j of a group
    is sign[j] * old basis vector perm[j]."""
    tp, ts = tgt
    sp, ss = src
    return [[ts[a] * ss[b] * rows[tp[a]][sp[b]] for b in range(len(sp))] for a in range(len(tp))]


def change_basis(simplex: dict, rng: random.Random) -> dict:
    """The simplex JSON rewritten in a random signed-permutation basis of each
    object, degree by degree.  This is an isomorphism of simplices, so every
    coherence identity, homology group and check outcome is preserved."""
    bases = []
    for obj in simplex["objects"]:
        degrees = sorted(int(d) for d in obj["degrees"])
        bases.append({d: _signed_permutation(int(obj["degrees"][str(d)]), rng) for d in degrees})
    objects = []
    for obj, basis in zip(simplex["objects"], bases):
        diffs = {
            d: _conjugate(rows, basis[int(d) - 1], basis[int(d)]) for d, rows in obj.get("differentials", {}).items()
        }
        objects.append({"name": obj["name"], "degrees": dict(obj["degrees"]), "differentials": diffs})
    maps = {}
    for key, gmap in simplex["maps"].items():
        seq = [int(p) for p in key.split(",")]
        src, tgt, k = bases[seq[0]], bases[seq[-1]], int(gmap["degree"])
        mats = {d: _conjugate(rows, tgt[int(d) + k], src[int(d)]) for d, rows in gmap["matrices"].items()}
        maps[key] = dict(gmap, matrices=mats)
    return {"n": simplex["n"], "objects": objects, "maps": maps}


# -- cases --------------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple  # full argv of dgframes.cli.main, input path included
    expect: str  # "golden", or "mc-fail": exit 1 with a maurer-cartan FAIL at fail_at
    fail_at: Optional[str] = None


def materialize(workload: str, seed: int, workdir: str, corpus: dict) -> list:
    """Write the inputs of ``workload`` for ``seed`` into ``workdir`` and
    return its cases in run order."""
    spec = corpus["workloads"][workload]
    index = corpus_index(seed)
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for stem, entry in spec["inputs"].items():
        simplex = entry["simplex"]
        if not entry.get("pinned"):
            simplex = change_basis(simplex, random.Random("%s/%d/%s" % (workload, index, stem)))
        path = os.path.join(workdir, stem + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(simplex, fh, sort_keys=True, separators=(",", ":"))
        paths[stem] = path
    cases = []
    for c in spec["cases"]:
        argv = (c["command"], "--input", paths[c["input"]]) + tuple(c.get("args", ()))
        cases.append(Case(c["name"], argv, c.get("expect", "golden"), c.get("fail_at")))
    return cases


@dataclass
class Outcome:
    code: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str]  # traceback or SystemExit, when main did not return


def run_case(cli, argv) -> Outcome:
    """Run one dgframes invocation in process, with stdout and stderr captured.

    ``cli.main`` is looked up on every call, so a traced run sees the traced
    entry point."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        error = "SystemExit(%r)" % (exc.code,)
    except Exception:  # a traceback is a failed case, not a benchmark crash
        error = traceback.format_exc()
    return Outcome(code, out.getvalue(), err.getvalue(), error)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_for(goldens: dict, workload: str, case: str, seed: int):
    entry = goldens["workloads"][workload][case]
    if isinstance(entry, dict):
        entry = entry["by_corpus"][corpus_index(seed)]
    return entry[0], entry[1]


def verify(case: Case, outcome: Outcome, goldens: dict, workload: str, seed: int) -> Optional[str]:
    """None when the output is correct, else the reason it is not."""
    if outcome.error is not None:
        return "raised: %s" % outcome.error.strip().splitlines()[-1]
    if case.expect == "mc-fail":
        if outcome.code != 1:
            return "exit %s, expected 1 (%s)" % (outcome.code, outcome.stderr.strip() or "no message")
        try:
            items = json.loads(outcome.stdout)["report"]
        except (ValueError, KeyError, TypeError):
            return "exit 1 but the report is not readable"
        want = {"check": "maurer-cartan", "location": case.fail_at, "status": "fail"}
        if not any(all(item.get(k) == v for k, v in want.items()) for item in items):
            return "no maurer-cartan FAIL at %s" % case.fail_at
        return None
    code, sha = golden_for(goldens, workload, case.name, seed)
    if outcome.code != code:
        return "exit %s, golden %s (%s)" % (outcome.code, code, outcome.stderr.strip() or "no message")
    if digest(outcome.stdout) != sha:
        return "stdout differs from golden"
    return None
