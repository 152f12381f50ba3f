"""Exact call counts of the dense operations under ``check``.

``check --max-len 3`` on ``random_simplex(Random(7), 3)`` decides its
Maurer-Cartan, last-vertex and homotopical identities row by row over the
row views of its matrices, so it never calls ``hom_differential``, decides
the d^2 checks of the frames with ``product_is_zero`` instead of ``@``, and
calls ``invariant_factors`` not at all.
The counts are deterministic, so a change that brings back a dense path
shows up here.  ``frame`` and ``recover`` are pinned the same way, and so
are the calls of the checking constructors under ``check``, so that
validation of values the library builds itself does not creep back.  The
frames that ``check`` builds are counted (the longest ones, and a shorter
one only where a failing extension asks for its own witnesses), and so are
the structure maps it reads (none, every item passing by the sub-frame
lemma, by index) and those it assembles (none), as are the matrices its
Reedy check assembles (none), and the memory peak of the whole suite is
bounded.
So are the restrictions ``check`` takes, the morphisms it enumerates and
the items it reports, and the last-vertex
maps it builds: j, r and h once per longest frame under ``check``, and
once under ``recover``.
Drawing the pinned 3-simplex forms no Smith transform, and ``homology`` runs
one Smith elimination per differential.
"""

import functools
import json
import random
import sys
import tracemalloc

import dgframes
from dgframes import cli, complexes, dg_nerve, exact_linalg, frames, simplicial
from dgframes.complexes import ChainComplex, GradedMap
from dgframes.dg_nerve import random_simplex
from dgframes.exact_linalg import IntMatrix
from dgframes.simplicial import DMorphism, OrderMap
from test_cli import corrupted_simplex


def _count_calls(monkeypatch, counts, name, original, inside=None):
    """Rebind ``original`` wherever a dgframes module holds it as ``name``,
    to a wrapper counting its calls in counts[name]; with ``inside``, only
    the calls made while that list is nonempty."""
    counts[name] = 0

    @functools.wraps(original)
    def counted(*args, **kwargs):
        counts[name] += inside is None or bool(inside)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith(dgframes.__name__) and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)


def _count_products(monkeypatch, counts):
    """Count the calls of ``@`` and of ``product_is_zero``."""
    for name in ("__matmul__", "product_is_zero"):
        key = "IntMatrix." + name
        counts[key] = 0
        original = getattr(IntMatrix, name)

        def counted(self, other, _original=original, _key=key):
            counts[_key] += 1
            return _original(self, other)

        monkeypatch.setattr(IntMatrix, name, counted)


def test_check_makes_no_dense_identity_products(monkeypatch, tmp_path):
    path = tmp_path / "r7n3.json"
    path.write_text(json.dumps(random_simplex(random.Random(7), 3).to_json()))
    counts = {}
    _count_calls(monkeypatch, counts, "hom_differential", complexes.hom_differential)
    _count_calls(monkeypatch, counts, "invariant_factors", exact_linalg.invariant_factors)
    _count_products(monkeypatch, counts)
    assert cli.main(["check", "--input", str(path), "--max-len", "3", "--output", str(tmp_path / "out.json")]) == 0
    # at the commit before the column-wise deciders: 602, 207 and 4024 (all
    # products by @); while the Maurer-Cartan suite formed its defects
    # densely: 11, 0 and 140; while the d^2 checks multiplied by @: 0, 0 and
    # 130; while every shorter frame was built and decided its own d^2: 130
    assert counts == {
        "hom_differential": 0,
        "invariant_factors": 0,
        "IntMatrix.__matmul__": 0,
        "IntMatrix.product_is_zero": 97,
    }


def test_check_builds_only_the_maps_it_reads(monkeypatch, tmp_path):
    """``check --max-len 3`` on the pinned 3-simplex reads no structure map
    of its 384 max-preserving morphisms, and assembles none: each runs
    between two recorded frames whose verdicts hold, so it passes by the
    sub-frame lemma, by index, and no cone is built.  The Reedy check reads
    each frame's block layout and stored differential in place: it
    assembles no matrix (``_assemble``) and decides no identity row by row
    (``combination_is_zero``), neither there nor on the 2-simplex drawn from
    seed 3, whose objects span two degrees, where no cone is built either."""
    counts = {}
    _count_calls(monkeypatch, counts, "_structure_matrices", frames._structure_matrices)
    _count_calls(monkeypatch, counts, "cone", complexes.cone)
    counts["structure_map"] = 0

    def structure_map(self, mor, _original=frames.FrameDiagram.structure_map):
        counts["structure_map"] += 1
        return _original(self, mor)

    monkeypatch.setattr(frames.FrameDiagram, "structure_map", structure_map)
    inside = []

    def reedy(diagram, _original=frames.is_reedy_cofibrant):
        inside.append(True)
        try:
            return _original(diagram)
        finally:
            inside.pop()

    _count_calls(monkeypatch, counts, "_assemble", frames._assemble, inside)
    _count_calls(monkeypatch, counts, "combination_is_zero", complexes.combination_is_zero, inside)
    monkeypatch.setattr(frames, "is_reedy_cofibrant", reedy)
    seen = []
    for name, s in (("r7n3", random_simplex(random.Random(7), 3)), ("r3n2", random_simplex(random.Random(3), 2))):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(s.to_json()))
        argv = ["check", "--input", str(path), "--max-len", "3", "--output", str(tmp_path / "out.json")]
        assert cli.main(argv) == 0
        seen.append(dict(counts))
        counts.update(dict.fromkeys(counts, 0))
    # _assemble and combination_is_zero count the calls inside
    # is_reedy_cofibrant only.  While the diagram stored every structure map:
    # 699 structure maps assembled on r7n3; while is_homotopical judged each
    # map on its assembled matrices: 384; while the Reedy check built and
    # tested an inclusion matrix per degree of each proper span: 207 and 102
    # of each on r7n3 and r3n2; while every item was judged off the sub-frame
    # lemma, 224 generators on their views and 160 composites by 2-out-of-3;
    # while the lemma read each item's selection: 384 structure maps.  The
    # view certificate (_selection_certified) and 2-out-of-3 (_composes)
    # counted 0 here until the lemma became is_homotopical's one path and
    # they left the package
    assert seen[0] == {
        "structure_map": 0,
        "_structure_matrices": 0,
        "cone": 0,
        "_assemble": 0,
        "combination_is_zero": 0,
    }
    assert (seen[1]["_assemble"], seen[1]["combination_is_zero"], seen[1]["cone"]) == (0, 0, 0)


def test_check_and_recover_build_each_last_vertex_map_once(monkeypatch, tmp_path):
    """``check --max-len 3`` on the pinned 3-simplex builds j, r and h once
    per longest frame (35 of its 69 frames; each shorter frame reads its
    verdicts off its extension's by the sub-frame lemma), and ``recover``
    once for its cylinder frame: the frame keeps its last-vertex check, and
    every later reader takes j and r from there."""
    cases = (
        ("r7n3", random_simplex(random.Random(7), 3), ["check", "--max-len", "3"]),
        ("r5n1", random_simplex(random.Random(5), 1, max_rank=4), ["recover"]),
    )
    counts, seen = {}, []
    for name in ("include_last", "retraction", "homotopy"):
        _count_calls(monkeypatch, counts, name, getattr(frames, name))
    for name, s, command in cases:
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(s.to_json()))
        assert cli.main(command + ["--input", str(path), "--output", str(tmp_path / "out.json")]) == 0
        seen.append(dict(counts))
        counts.update(dict.fromkeys(counts, 0))
    # while every frame decided its own last-vertex items: 69 under check
    assert seen == [dict.fromkeys(counts, 35), dict.fromkeys(counts, 1)]


def _count_builds(monkeypatch):
    """The alphas of the ``build_frame_object`` calls, in call order."""
    built = []

    def build(s, alpha, _original=frames.build_frame_object):
        built.append(alpha)
        return _original(s, alpha)

    monkeypatch.setattr(frames, "build_frame_object", build)
    return built


def test_check_builds_only_the_longest_frames(monkeypatch, tmp_path):
    """``check --max-len 3`` on the pinned 3-simplex builds the 35 frames of
    domain 3 and no shorter frame's complex: each of the 34 shorter frames
    is a view into its extension's frame, whose d^2, last-vertex verdicts
    and Reedy rows it reads there.  On the 2-simplex drawn from seed 6 at
    max-len 3 likewise, 15 of 34."""
    built = _count_builds(monkeypatch)
    seen = []
    for name, s in (("r7n3", random_simplex(random.Random(7), 3)), ("r6n2", random_simplex(random.Random(6), 2))):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(s.to_json()))
        argv = ["check", "--input", str(path), "--max-len", "3", "--output", str(tmp_path / "out.json")]
        assert cli.main(argv) == 0
        seen.append((len(built), {alpha.dom for alpha in built}))
        built.clear()
    # while every frame was built: 69 and 34
    assert seen == [(35, {3}), (15, {3})]


def test_a_failing_check_builds_the_frames_of_its_witnesses(monkeypatch, tmp_path):
    """On the corrupted ``random_simplex(Random(3), 2)``, whose one broken
    frame at max-len 2 is B(0,1,2), ``check`` builds at max-len 2 only the
    10 longest frames, B(0,1,2) among them: no shorter frame has an
    extension that fails.  At max-len 3 it builds the 15 longest and
    B(0,1,2), a view whose extension B(0,1,2,2) has d^2 != 0, so that
    B(0,1,2) gives its own witnesses.  Every frame with a failing
    ``frame-d2`` or last-vertex item is one that was built."""
    path = tmp_path / "r3n2-corrupted.json"
    path.write_text(json.dumps(corrupted_simplex().to_json()))
    built = _count_builds(monkeypatch)
    seen = []
    for max_len in (2, 3):
        out = tmp_path / "out.json"
        assert cli.main(["check", "--input", str(path), "--max-len", str(max_len), "--output", str(out)]) == 1
        items = json.loads(out.read_text())["report"]
        failing = {i["location"] for i in items if i["status"] == "fail" and i["check"].startswith(("frame-d2", "last-vertex"))}
        keys = [alpha.key() for alpha in built]
        assert failing <= set(keys) and len(set(keys)) == len(keys)
        seen.append((len(keys), [k for k in keys if k.count(",") < max_len], sorted(failing)))
        built.clear()
    # while every frame was built: 19 and 34
    assert seen == [(10, [], ["0,1,2"]), (16, ["0,1,2"], ["0,0,1,2", "0,1,1,2", "0,1,2", "0,1,2,2"])]


def test_check_pays_for_proofs_not_bookkeeping(monkeypatch, tmp_path):
    """``check --max-len 3`` on the pinned 3-simplex restricts the simplex
    once per frame and once per reindexing sigma, 69 + 8 times, and reads
    every other restriction that simplicial-compat compares from one table
    per sigma; it enumerates only the max-preserving morphisms, with no
    ``enumerate_inclusions``; and it passes every item by the sub-frame
    lemma.  Its Reedy check forms the shifted source shift(X_{alpha(0)},
    m) once per pair (alpha(0), m), 4 x 4 times, not once per frame.  Its
    report holds 1514 items."""
    path = tmp_path / "r7n3.json"
    path.write_text(json.dumps(random_simplex(random.Random(7), 3).to_json()))
    counts = {}
    _count_calls(monkeypatch, counts, "act", dg_nerve.act)
    _count_calls(monkeypatch, counts, "enumerate_inclusions", simplicial.enumerate_inclusions)
    _count_calls(monkeypatch, counts, "shift", complexes.shift)
    out = tmp_path / "out.json"
    assert cli.main(["check", "--input", str(path), "--max-len", "3", "--output", str(out)]) == 0
    counts["report items"] = len(json.loads(out.read_text())["report"])
    # while simplicial-compat restricted t along every alpha, is_homotopical
    # filtered all inclusions and identity maps were scanned: 713, 69 and 224;
    # while every item was judged off the sub-frame lemma: 224 and 155;
    # while the Reedy check formed the shifted source per frame: shift 69;
    # _selection_certified and Selection.preimages counted 0 here until
    # they left the package with the certificate route
    assert counts == {
        "act": 77,
        "enumerate_inclusions": 0,
        "shift": 16,
        "report items": 1514,
    }


def test_run_checks_memory_peak():
    """The tracemalloc peak of ``run_checks`` on the pinned 3-simplex at
    max-len 3, measured under Python 3.11: 3.57 MiB while the diagram stored
    every structure map and the Reedy check built each latching sub-complex,
    1.96 MiB after that, and 1.15 MiB since ``check`` stopped paying for
    bookkeeping (1.22 MiB under Python 3.10.13).  The bound, 1.5 MiB, leaves
    room for the two interpreters and little for a regression."""
    s = random_simplex(random.Random(7), 3)
    tracemalloc.start()
    try:
        frames.run_checks(s, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_check_validates_only_the_values_it_parses(monkeypatch, tmp_path):
    """``check --max-len 2`` on the pinned 3-simplex runs the checking
    constructors only on what it reads from outside: the 4 objects and 11
    cochains it parses, and the n+1 faces and n+1 degeneracies it reindexes
    along.  Every frame, map, restriction, order map and morphism it builds
    itself takes the trusted path."""
    path = tmp_path / "r7n3.json"
    path.write_text(json.dumps(random_simplex(random.Random(7), 3).to_json()))
    counts = {}
    for cls, name in (
        (ChainComplex, "__init__"),
        (GradedMap, "__init__"),
        (OrderMap, "__post_init__"),
        (DMorphism, "__post_init__"),
    ):
        key = "%s.%s" % (cls.__name__, name)
        counts[key] = 0
        original = getattr(cls, name)

        def counted(*args, _original=original, _key=key, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    assert cli.main(["check", "--input", str(path), "--max-len", "2", "--output", str(tmp_path / "out.json")]) == 0
    # at the commit before the trusted constructors: 140, 455, 808 and 174
    assert counts == {
        "ChainComplex.__init__": 4,
        "GradedMap.__init__": 11,
        "OrderMap.__post_init__": 8,
        "DMorphism.__post_init__": 0,
    }


def test_recover_reads_its_systems_from_the_mapping_complex(monkeypatch, tmp_path):
    """``recover`` takes the block of its retraction system from the matrices
    of the mapping complexes, not by applying D and precomposition to every
    elementary map, and solves one system for the retraction and, when the
    recovered map differs from the edge, one for the null-homotopy it
    reports, none for a splitting homotopy.  On Random(5) the recovered map
    is the edge (exact_match true), whose witness is the zero map with no
    solve; on Random(20) it is not, and both systems are solved.  It builds
    only the differential of the mapping complex that each system reads
    (``hom_complex_diff``), never the whole complex with its labels and its
    d^2 check (``hom_complex``).  Neither solve runs ``snf``: each builds no
    Smith transform.  Neither makes dense rows (``IntMatrix.to_lists``):
    each eliminates on sparse rows built from the matrix's view, and the
    JSON writer forms dense rows only for the matrices of the recovered map
    and the witness, which hold none here.  The retraction's preconditions
    are read off the frame's last-vertex verdict, so no cone is built."""
    path = tmp_path / "r5n1.json"
    path.write_text(json.dumps(random_simplex(random.Random(5), 1, max_rank=4).to_json()))
    counts = {}
    _count_calls(monkeypatch, counts, "hom_differential", complexes.hom_differential)
    _count_calls(monkeypatch, counts, "hom_complex", complexes.hom_complex)
    _count_calls(monkeypatch, counts, "vector_to_graded_map", complexes.vector_to_graded_map)
    _count_calls(monkeypatch, counts, "solve", exact_linalg.solve)
    _count_calls(monkeypatch, counts, "snf", exact_linalg.snf)
    _count_calls(monkeypatch, counts, "cone", complexes.cone)
    _count_products(monkeypatch, counts)
    counts["IntMatrix.to_lists"] = 0
    to_lists = IntMatrix.to_lists

    def counted_to_lists(self):
        counts["IntMatrix.to_lists"] += 1
        return to_lists(self)

    monkeypatch.setattr(IntMatrix, "to_lists", counted_to_lists)
    assert cli.main(["recover", "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0
    # while each solve ran snf and multiplied by both of its transforms: 2
    assert counts.pop("snf") == 0
    # at the commit before the systems were read from the mapping complex: 42, 86 and 467;
    # while recovery also solved for the homotopy: 0, 3, 3 and 23; while the
    # d^2 checks multiplied by @: 0, 2, 2 and 11 = 2 + 9; while the systems
    # came from whole mapping complexes, product_is_zero was 9, since each
    # complex's checked constructor tested d^2; while the retraction system's
    # preconditions were re-proved on cone(j) instead of read off the frame's
    # last-vertex verdict: 1 cone and product_is_zero 6, the cone's checked
    # constructor testing its d^2; while each solve eliminated on dense rows:
    # to_lists 2, one dense copy of m per solve; while the zero difference of
    # an exact match was solved for its null-homotopy: vector_to_graded_map
    # and solve 2
    assert counts == {
        "hom_differential": 0,
        "hom_complex": 0,
        "vector_to_graded_map": 1,
        "solve": 1,
        "cone": 0,
        "IntMatrix.__matmul__": 2,
        "IntMatrix.product_is_zero": 3,
        "IntMatrix.to_lists": 0,
    }
    path.write_text(json.dumps(random_simplex(random.Random(20), 1, max_rank=4).to_json()))
    counts["solve"] = counts["vector_to_graded_map"] = 0
    out = tmp_path / "r20n1-out.json"
    assert cli.main(["recover", "--input", str(path), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["exact_match"] is False
    assert (counts["solve"], counts["vector_to_graded_map"]) == (2, 2)


def test_drawing_a_simplex_builds_no_smith_transform(monkeypatch):
    """``random_simplex(Random(7), 3)`` draws its differentials and chain
    maps from kernel lattices, three times, and no ``kernel_basis`` runs
    ``snf``: each eliminates the rows of its matrix alone and replays the
    column record, so no row transform u is formed."""
    counts = {}
    _count_calls(monkeypatch, counts, "kernel_basis", exact_linalg.kernel_basis)
    _count_calls(monkeypatch, counts, "snf", exact_linalg.snf)
    random_simplex(random.Random(7), 3)
    # while kernel_basis read v off snf: 3 and 3
    assert counts == {"kernel_basis": 3, "snf": 0}


def _frame_argv(tmp_path):
    """``frame`` on an 8-long alpha of the pinned 3-simplex."""
    path = tmp_path / "r7n3.json"
    path.write_text(json.dumps(random_simplex(random.Random(7), 3).to_json()))
    return ["frame", "--input", str(path), "--alpha", "0,0,1,1,2,2,3,3", "--output", str(tmp_path / "out.json")]


def test_frame_counts_its_products_and_factorizations(monkeypatch, tmp_path):
    """``frame`` decides d^2 = 0 once per degree of the complex it builds,
    forms no product, checks the frame's last-vertex identities once, and
    factors only the differentials of X_{alpha(m)}, whose homology it
    reports through the last-vertex equivalence; this X has none to factor."""
    argv = _frame_argv(tmp_path)
    counts = {}
    _count_calls(monkeypatch, counts, "invariant_factors", exact_linalg.invariant_factors)
    _count_calls(monkeypatch, counts, "check_last_vertex", frames.check_last_vertex)
    _count_products(monkeypatch, counts)
    assert cli.main(argv) == 0
    # while the d^2 checks multiplied by @: 9, 8 and no product_is_zero; while
    # frame factored the differentials of B(alpha) itself: 9 invariant_factors
    # and no check_last_vertex
    assert counts == {
        "invariant_factors": 0,
        "check_last_vertex": 1,
        "IntMatrix.__matmul__": 0,
        "IntMatrix.product_is_zero": 8,
    }


def test_homology_runs_one_smith_elimination_per_differential(monkeypatch, tmp_path):
    """``homology`` of the 8-long frame B(0,0,1,1,2,2,3,3) of
    ``random_simplex(Random(105), 3)`` factors each of its 7 differentials,
    the largest 175 x 139, by one Smith elimination and nothing else."""
    x = frames.build_frame_object(random_simplex(random.Random(105), 3), OrderMap((0, 0, 1, 1, 2, 2, 3, 3), 3)).complex
    path = tmp_path / "b-r105n3.json"
    path.write_text(json.dumps(x.to_json()))
    counts = {}
    _count_calls(monkeypatch, counts, "invariant_factors", exact_linalg.invariant_factors)
    _count_calls(monkeypatch, counts, "_diagonalize", exact_linalg._diagonalize)
    assert cli.main(["homology", "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0
    # while invariant_factors cleared +-1 pivots first: 7 and 1, the unit
    # pivots clearing every differential but one
    assert counts == {"invariant_factors": 7, "_diagonalize": 7}
