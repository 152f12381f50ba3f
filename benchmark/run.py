"""dgframes benchmark: end-to-end and per-layer metrics of the CLI.

Usage, from the repository root::

    python3 benchmark/run.py --workload check-deep --seed 0 --seconds 25 --trace 0

One process runs the workload's cases one after another (a closed loop with
one client, no threads) through ``dgframes.cli.main(argv)`` in process, with
stdout captured, and checks every output against its golden.  It repeats
whole passes over the cases until ``--seconds`` have elapsed.

Times are read at a reference host speed (see ``speed.py``): a timer samples
the speed of the shared host every 50 ms with a fixed reference kernel, and
every measured interval is scaled by the speed sampled around it.  ``wall_s``
is the median pass; the case percentiles are taken over each case's median
run; ``setup_s`` is the median set-up.  The raw wall times are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first times
untraced passes for half the time, then traced passes for the rest, and
prints the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``benchmark/README.md`` for the metrics, the workloads and the corpus.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

import bench_corpus
from bench_trace import LAYER_METRICS, Tracer, is_timing
from speed import REFERENCE_SAMPLE_S, WINDOW_S, SpeedSampler, reference_kernel

WORKLOADS = ("check-deep", "sweep-small", "frame-wide", "recover")
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "wall_s": "s",
    "case_p50_ms": "ms",
    "case_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_library(root: str):
    """Import ``dgframes.cli`` afresh from ``<root>/src`` and nowhere else.

    Modules of an earlier import are dropped first, so every call pays the
    whole import, as a new process would."""
    src = os.path.join(root, "src")
    package = os.path.join(src, "dgframes")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        raise BenchError("no dgframes sources under %s; run from the repository root" % src)
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "dgframes" or n.startswith("dgframes.")]:
        del sys.modules[name]
    cli = importlib.import_module("dgframes.cli")
    if os.path.realpath(os.path.dirname(cli.__file__)) != os.path.realpath(package):
        raise BenchError("dgframes was imported from %s, not from %s" % (cli.__file__, package))
    return cli


def machine_note() -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    load = "/".join("%.2f" % v for v in os.getloadavg())
    return (
        "machine: nproc=%d cpu=%r python=%s load_at_start=%s; the load is this one process with %d thread(s), "
        "a closed loop with one client" % (os.cpu_count() or 0, model, platform.python_version(), load, threading.active_count())
    )


Interval = tuple  # (perf_counter at start, perf_counter at end, seconds without sampling)


@dataclass
class Pass:
    span: Interval
    cases: list  # one Interval per case, in run order
    output_bytes: int
    failures: list = field(default_factory=list)  # (case name, reason)


def run_pass(cli, cases, goldens, workload, seed, clock=perf_counter) -> Pass:
    timed, failures, output_bytes = [], [], 0
    p0, c0 = perf_counter(), clock()
    for case in cases:
        t0, k0 = perf_counter(), clock()
        outcome = bench_corpus.run_case(cli, case.argv)
        timed.append((t0, perf_counter(), clock() - k0))
        output_bytes += len(outcome.stdout.encode("utf-8"))
        reason = bench_corpus.verify(case, outcome, goldens, workload, seed)
        if reason is not None:
            failures.append((case.name, reason))
    return Pass((p0, perf_counter(), clock() - c0), timed, output_bytes, failures)


def run_passes(seconds: float, one_pass) -> list:
    """Whole passes until ``seconds`` have elapsed, at least one."""
    passes = []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        passes.append(one_pass())
    return passes


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="benchmark/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="selects corpus seed %% %d (default 0)" % bench_corpus.CORPORA)
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from traced passes")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    note = machine_note()
    workdir = os.path.join(root, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    sampler = SpeedSampler().install()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0, k0 = perf_counter(), sampler.clock()
            cli = import_library(root)
            corpus = bench_corpus.load_json(bench_corpus.CORPUS_PATH)
            goldens = bench_corpus.load_json(bench_corpus.GOLDENS_PATH)
            shutil.rmtree(workdir, ignore_errors=True)
            cases = bench_corpus.materialize(args.workload, args.seed, workdir, corpus)
            bench_corpus.run_case(cli, ("validate", "--input", cases[0].argv[2]))  # warm-up
            setups.append((t0, perf_counter(), sampler.clock() - k0))

        def untraced():
            return run_pass(cli, cases, goldens, args.workload, args.seed, sampler.clock)

        tracers = []

        def traced():
            tracer = Tracer(sampler.clock).install()
            try:
                result = untraced()
            finally:
                tracer.uninstall()
            tracers.append(tracer)
            return result

        if args.trace:
            plain = run_passes(args.seconds / 2, untraced)
            with_trace = run_passes(args.seconds / 2, traced)
            passes = plain + with_trace
        else:
            passes = run_passes(args.seconds, untraced)
        # samples after the last pass belong to its window
        end = perf_counter() + WINDOW_S
        while perf_counter() < end:
            reference_kernel()
    except (BenchError, OSError, KeyError, ValueError) as err:
        sys.stderr.write("benchmark error: %s\n" % err)
        return 2
    finally:
        sampler.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    def at_reference(interval) -> float:
        return sampler.normalize(*interval)

    attempted = sum(len(p.cases) for p in passes)
    failures = [f for p in passes for f in p.failures]
    known = goldens["known_failures"].get(args.workload, {})
    correct = all(name in known for name, _ in failures)
    per_pass = len(cases)

    print("dgframes benchmark: workload=%s seed=%d corpus=%d seconds=%g trace=%d"
          % (args.workload, args.seed, bench_corpus.corpus_index(args.seed), args.seconds, args.trace))
    print(note)
    print("%d cases per pass, %d passes, %d case runs" % (per_pass, len(passes), attempted))
    samples = sorted(sampler.samples)
    print("host speed: %d samples of the reference kernel, median %.4g ms (reference %.4g ms), "
          "fastest %.4g ms, slowest %.4g ms; sampling took %.3g%% of the run"
          % (len(samples), 1e3 * statistics.median(samples), 1e3 * REFERENCE_SAMPLE_S, 1e3 * samples[0],
             1e3 * samples[-1], 100.0 * sampler.spent / (perf_counter() - setups[0][0])))

    metrics = {}
    if args.trace:
        first = tracers[0].layer_metrics(with_trace[0].output_bytes)
        runs = [t.layer_metrics(p.output_bytes) for t, p in zip(tracers, with_trace)]
        for name in first:
            metrics[name] = statistics.median(r[name] for r in runs) if is_timing(name) else first[name]
        traced_wall = statistics.median(at_reference(p.span) for p in with_trace)
        plain_wall = statistics.median(at_reference(p.span) for p in plain)
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        print("median traced pass %.4f s (of %d) against median untraced pass %.4f s (of %d), at reference speed"
              % (traced_wall, len(with_trace), plain_wall, len(plain)))
        print("self times are raw seconds without the sampling time, median over traced passes")
        units = {name: unit for name, (unit, _better) in LAYER_METRICS.items()}
    else:
        per_case = [statistics.median(at_reference(run) for run in runs) for runs in zip(*(p.cases for p in passes))]
        metrics["wall_s"] = statistics.median(at_reference(p.span) for p in passes)
        metrics["case_p50_ms"] = 1e3 * statistics.median(per_case)
        metrics["case_p90_ms"] = 1e3 * p90(per_case)
        metrics["setup_s"] = statistics.median(at_reference(s) for s in setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
        print("raw wall times: median pass %.4f s, fastest %.4f s, slowest %.4f s; median set-up %.4f s"
              % (statistics.median(p.span[2] for p in passes), min(p.span[2] for p in passes),
                 max(p.span[2] for p in passes), statistics.median(s[2] for s in setups)))
        print("at reference speed: wall_s is the median of %d passes; case_p50_ms and case_p90_ms are over the %d "
              "cases of a pass, each at its median of %d runs; setup_s is the median of %d set-ups (import, input "
              "generation and writing, warm-up)" % (len(passes), per_pass, len(passes), SETUP_REPEATS))
        if per_pass < 100:
            print("case_p90_ms: fewer than 100 cases per pass, so it interpolates between the slowest cases")

    for name, value in metrics.items():
        print("%s = %.6g %s" % (name, value, units[name]))
    print("failed_frac = %d/%d = %.6g" % (len(failures), attempted, len(failures) / attempted))
    seen = {}
    for name, reason in failures:
        seen.setdefault(name, [reason, 0])[1] += 1
    for name, (reason, count) in seen.items():
        print("FAILED %s x%d: %s%s" % (name, count, reason, " [known at the seed commit]" if name in known else ""))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
