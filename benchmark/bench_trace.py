"""Per-layer tracing for the benchmark, installed from outside the library.

A ``Tracer`` rebinds public functions and methods of the dgframes modules to
timing wrappers and restores them on ``uninstall``.  Module-level functions
are rebound in every ``dgframes.*`` namespace that holds them (so
``from .exact_linalg import snf`` and ``rank as matrix_rank`` are caught);
methods are rebound on their class.  The library carries no instrumentation.

Spans are aggregated as they close.  For every traced name the tracer keeps
the call count and the self time: the span's duration minus the time covered
by its child spans.  Individual spans are not kept, because one pass of a
workload constructs 10^5 to 10^6 matrices.  Work counts (SNF entries, frame
ranks, cones under ``is_homotopical`` ...) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (layer, attribute path inside dgframes.<layer>) of every traced callable.
TARGETS = (
    ("exact_linalg", "snf"),
    ("exact_linalg", "rank"),
    ("exact_linalg", "invariant_factors"),
    ("exact_linalg", "solve"),
    ("exact_linalg", "kernel_basis"),
    ("exact_linalg", "IntMatrix.__init__"),
    ("exact_linalg", "IntMatrix.identity"),
    ("exact_linalg", "IntMatrix.__matmul__"),
    ("complexes", "homology"),
    ("complexes", "cone"),
    ("complexes", "hom_differential"),
    ("complexes", "hom_complex"),
    ("complexes", "ChainComplex.__init__"),
    ("complexes", "GradedMap.identity"),
    ("simplicial", "enumerate_d_objects"),
    ("simplicial", "enumerate_inclusions"),
    ("simplicial", "nonempty_subsets"),
    ("simplicial", "OrderMap.compose"),
    ("dg_nerve", "validate_maurer_cartan"),
    ("dg_nerve", "NerveSimplex.eval"),
    ("dg_nerve", "NerveSimplex.from_json"),
    ("dg_nerve", "act"),
    ("frames", "build_frame_object"),
    ("frames", "build_frame_diagram"),
    ("frames", "is_homotopical"),
    ("frames", "is_reedy_cofibrant"),
    ("frames", "check_simplicial_compat"),
    ("frames", "last_vertex_data"),
    ("frames", "split_acyclic_cofibration"),
    ("reporting", "Report.add"),
    ("cli", "main"),
)

SIMPLICIAL_SPANS = (
    "simplicial.enumerate_d_objects",
    "simplicial.enumerate_inclusions",
    "simplicial.nonempty_subsets",
    "simplicial.OrderMap.compose",
)

# Per-layer metrics in report order: name -> (unit, better).  ``.calls`` and
# the work counts are deterministic; ``.self_s`` and ``trace.overhead_frac``
# are timings.
LAYER_METRICS = {
    "exact_linalg.snf.calls": ("count", "lower"),
    "exact_linalg.snf.self_s": ("s", "lower"),
    "exact_linalg.snf.entries": ("count", "lower"),
    "exact_linalg.snf.max_dim": ("count", "lower"),
    "exact_linalg.snf.transform_use_ratio": ("ratio", "higher"),
    "exact_linalg.rank.calls": ("count", "lower"),
    "exact_linalg.invariant_factors.calls": ("count", "lower"),
    "exact_linalg.solve.calls": ("count", "lower"),
    "exact_linalg.solve.self_s": ("s", "lower"),
    "exact_linalg.IntMatrix.init.calls": ("count", "lower"),
    "exact_linalg.IntMatrix.init.self_s": ("s", "lower"),
    "exact_linalg.IntMatrix.identity.calls": ("count", "lower"),
    "exact_linalg.IntMatrix.matmul.self_s": ("s", "lower"),
    "complexes.homology.calls": ("count", "lower"),
    "complexes.homology.self_s": ("s", "lower"),
    "complexes.homology.snf_per_differential": ("ratio", "lower"),
    "complexes.cone.calls": ("count", "lower"),
    "complexes.cone.self_s": ("s", "lower"),
    "complexes.hom_differential.self_s": ("s", "lower"),
    "complexes.ChainComplex.init.calls": ("count", "lower"),
    "complexes.ChainComplex.init.self_s": ("s", "lower"),
    "complexes.GradedMap.identity.calls": ("count", "lower"),
    "simplicial.self_s": ("s", "lower"),
    "dg_nerve.validate_maurer_cartan.self_s": ("s", "lower"),
    "dg_nerve.NerveSimplex.eval.calls": ("count", "lower"),
    "dg_nerve.NerveSimplex.eval.self_s": ("s", "lower"),
    "dg_nerve.NerveSimplex.from_json.self_s": ("s", "lower"),
    "dg_nerve.act.calls": ("count", "lower"),
    "dg_nerve.act.self_s": ("s", "lower"),
    "frames.build_frame_object.calls": ("count", "lower"),
    "frames.build_frame_object.self_s": ("s", "lower"),
    "frames.build_frame_object.rank_total": ("count", "lower"),
    "frames.build_per_diagram_object": ("ratio", "lower"),
    "frames.is_homotopical.self_s": ("s", "lower"),
    "frames.is_homotopical.cones": ("count", "lower"),
    "frames.is_reedy_cofibrant.self_s": ("s", "lower"),
    "frames.check_simplicial_compat.self_s": ("s", "lower"),
    "frames.last_vertex_data.self_s": ("s", "lower"),
    "frames.split_acyclic_cofibration.self_s": ("s", "lower"),
    "reporting.Report.add.calls": ("count", "higher"),
    "cli.main.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def is_timing(name: str) -> bool:
    return name.endswith(".self_s") or name == "trace.overhead_frac"


def _span_name(layer: str, path: str) -> str:
    return "%s.%s" % (layer, path.replace("__init__", "init").replace("__matmul__", "matmul"))


class _Span:
    __slots__ = ("calls", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Call counts, self times and work counts of one traced stretch of work."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = {_span_name(layer, path): _Span() for layer, path in TARGETS}
        self.work = {
            "snf_entries": 0,
            "snf_max_dim": 0,
            "snf_largest_input": (0, 0),
            "snf_with_transforms": 0,
            "snf_under_homology": 0,
            "homology_differentials": 0,
            "cones_under_homotopical": 0,
            "frame_rank_total": 0,
            "frame_rank_max": 0,
            "diagram_objects": 0,
        }
        self._children = []  # child-time accumulator of each open span
        self._restore = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        span = self.spans[name]
        children = self._children
        clock = self.clock
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span.depth += 1
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = children.pop()
                span.depth -= 1
                span.calls += 1
                span.self_s += dt - child
                if children:
                    children[-1] += dt
            if after is not None:
                after(result)
            return result

        return traced

    def install(self):
        for layer, path in TARGETS:
            module = importlib.import_module("dgframes." + layer)
            name = _span_name(layer, path)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, attr, new)
                self._restore.append((cls, attr, raw))
            else:
                fn = getattr(module, path)
                new = self._wrap(name, fn)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "dgframes" or mod_name.startswith("dgframes.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, new)
                            self._restore.append((mod, attr, fn))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- work counts at span boundaries --------------------------------------------

    def _before_exact_linalg_snf(self, args):
        m = args[0]
        w = self.work
        w["snf_entries"] += m.rows * m.cols
        w["snf_max_dim"] = max(w["snf_max_dim"], m.rows, m.cols)
        if m.rows * m.cols > w["snf_largest_input"][0] * w["snf_largest_input"][1]:
            w["snf_largest_input"] = (m.rows, m.cols)
        if self.spans["exact_linalg.solve"].depth or self.spans["exact_linalg.kernel_basis"].depth:
            w["snf_with_transforms"] += 1
        if self.spans["complexes.homology"].depth:
            w["snf_under_homology"] += 1

    def _before_complexes_homology(self, args):
        x = args[0]
        self.work["homology_differentials"] += sum(1 for d in x.support if x.rank(d - 1))

    def _before_complexes_cone(self, args):
        if self.spans["frames.is_homotopical"].depth:
            self.work["cones_under_homotopical"] += 1

    def _after_frames_build_frame_object(self, frame):
        rank = frame.complex.total_rank()
        self.work["frame_rank_total"] += rank
        self.work["frame_rank_max"] = max(self.work["frame_rank_max"], rank)

    def _after_frames_build_frame_diagram(self, diagram):
        self.work["diagram_objects"] += len(diagram.objects)

    # -- metrics ---------------------------------------------------------------------

    def layer_metrics(self, output_bytes: int) -> dict:
        """Every per-layer metric except ``trace.overhead_frac``, which needs an
        untraced run to compare against."""
        s, w = self.spans, self.work

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in LAYER_METRICS:
            if name.endswith(".calls") and name[: -len(".calls")] in s:
                out[name] = s[name[: -len(".calls")]].calls
            elif name.endswith(".self_s") and name[: -len(".self_s")] in s:
                out[name] = s[name[: -len(".self_s")]].self_s
        snf_calls = s["exact_linalg.snf"].calls
        out["exact_linalg.snf.entries"] = w["snf_entries"]
        out["exact_linalg.snf.max_dim"] = w["snf_max_dim"]
        out["exact_linalg.snf.transform_use_ratio"] = ratio(w["snf_with_transforms"], snf_calls)
        out["complexes.homology.snf_per_differential"] = ratio(w["snf_under_homology"], w["homology_differentials"])
        out["simplicial.self_s"] = sum(s[n].self_s for n in SIMPLICIAL_SPANS)
        out["frames.build_frame_object.rank_total"] = w["frame_rank_total"]
        out["frames.build_per_diagram_object"] = ratio(s["frames.build_frame_object"].calls, w["diagram_objects"])
        out["frames.is_homotopical.cones"] = w["cones_under_homotopical"]
        out["cli.output_bytes"] = output_bytes
        return {name: out[name] for name in LAYER_METRICS if name in out}
