"""The row-wise identity deciders of the check suite against the dense
checks they replaced and against the column-wise deciders before them, all
kept in ``oracles.py``.

Every verdict and every witness degree must agree: the cycle test of each
structure map and last-vertex map, the two certificate identities of each
structure map, and the three last-vertex items of each frame.  The diagrams
are criterion 6's cross-section of the acceptance corpus at max-len 2 and
criterion 8's simplices at max-len 3.  Tampered copies of the maps (scaled by
2, an extra entry outside the image, an entry moved to another row, a flipped
sign) must be judged alike too.  ``is_homotopical``, which builds each
structure map as it judges it, must give the items of the loop that built
them all first, and ``is_reedy_cofibrant``, which reads each frame's block
layout and differential in place, those of the loop that built the latching
inclusion matrices and the cokernel complex, on criterion 2's frames as
built and with one entry of a frame differential tampered.  The deciders,
the writer, ``==`` and ``block`` read the row view that ``_assemble`` sums
for each matrix, so every assembled view must be canonical: the plain scan
of its dense rows.

``is_homotopical`` passes a composite selection by 2-out-of-3 over certified
factors and any other selection on the stored views through its preimages;
the route must give the loop's items on ``random_simplex(Random(7), 2)`` at
max-len 4 and on criterion 8's diagrams, keep off it every map through a
frame with d^2 != 0 or with a tampered j or r, and pass every composite of
a tampered coface on its own views, assembling no matrix of it.  The view
decider must equal the direct one, ``oracles.homotopy_inverse_certified`` on
the assembled matrices, on each generator, with j, r or a frame
differential tampered.
"""

import random
from collections import Counter, defaultdict

import pytest

import dgframes.frames as frames
from dgframes.complexes import (
    ChainComplex,
    GradedMap,
    cycle_defect,
    hom_differential,
    random_chain_map,
    random_complex,
    random_graded_map,
)
from dgframes.dg_nerve import gauge, make_strict, random_simplex
from dgframes.exact_linalg import IntMatrix, combination_is_zero, combination_matrix
from dgframes.frames import (
    FrameDiagram,
    FrameObject,
    LastVertexCheck,
    Selection,
    build_frame_diagram,
    check_last_vertex,
    is_homotopical,
    is_reedy_cofibrant,
    last_vertex_data,
    run_checks,
)
from dgframes.simplicial import OrderMap, enumerate_inclusions

import oracles
from oracles import composite_equals, homotopy_inverse_certified, is_weak_equivalence_d
from test_exact_linalg import _plain_row_scan


def _acceptance_corpus():
    """The 200 simplices of the acceptance corpus."""
    rng = random.Random(0)
    return [random_simplex(rng, i % 4) for i in range(200)]


def _criterion_08_simplices():
    """Criterion 8's strict and perturbed simplices."""
    rng = random.Random(800)
    sims = []
    for n in range(3):
        sims.append(random_simplex(rng, n, perturb=False))
        if n >= 2:
            sims.append(random_simplex(rng, n, perturb=True))
    return sims


@pytest.fixture(scope="module")
def criterion_02_diagrams():
    """Criterion 2's frames: every sequence of domain size <= 2 over each
    simplex of the acceptance corpus."""
    return [build_frame_diagram(s, 2) for s in _acceptance_corpus()]


@pytest.fixture(scope="module")
def criterion_06_diagrams():
    """Criterion 6's cross-section of the acceptance corpus, at max-len 2."""
    sims = _acceptance_corpus()
    return [build_frame_diagram(sims[i], 2) for i in range(0, 200, 21)]


@pytest.fixture(scope="module")
def criterion_08_diagrams():
    """Criterion 8's strict and perturbed simplices, at max-len 3."""
    return [build_frame_diagram(s, 3) for s in _criterion_08_simplices()]


def _entry(f: GradedMap, d: int, i: int, c: int, v: int) -> GradedMap:
    """f plus v at entry (i, c) of its degree-d matrix."""
    rows = f.target.rank(d + f.degree)
    return f + GradedMap(f.source, f.target, f.degree, {d: IntMatrix.from_entries(rows, f.source.rank(d), {(i, c): v})})


def _tamperings(f: GradedMap):
    """Tampered copies of f: scaled by 2, an extra entry in the first row
    outside the image, its first nonzero entry moved to the next row, and that
    entry with its sign flipped."""
    out = [f.scale(2)]
    spots = [
        (d, i) for d in f.source.support if f.source.rank(d) for i, row in enumerate(f.mat(d).nonzeros) if not row
    ]
    if spots:
        out.append(_entry(f, *spots[0], 0, 1))
    first = [
        (d, i, c, v) for d in f.source.support for i, row in enumerate(f.mat(d).nonzeros) for c, v in row
    ]
    if first:
        d, i, c, v = first[0]
        rows = f.target.rank(d + f.degree)
        if rows > 1:
            out.append(_entry(_entry(f, d, i, c, -v), d, (i + 1) % rows, c, v))
        out.append(_entry(f, d, i, c, -2 * v))
    return out


def _same_verdicts(g: GradedMap, src, tgt) -> bool:
    """Compare the cycle test and the certificate of g : B(src) -> B(tgt)
    with the oracle; return whether g is certified."""
    assert cycle_defect(g) == oracles.cycle_defect(g)
    assert g.is_cycle() == hom_differential(g).is_zero()
    identities = (composite_equals(g, src.j, tgt.j), composite_equals(tgt.r, g, src.r))
    assert identities == oracles.certificate_identities(g, src.j, src.r, tgt.j, tgt.r)
    certified = homotopy_inverse_certified(g, src, tgt)
    assert certified == (src.holds and tgt.holds and all(identities))
    return certified


def test_verdicts_equal_the_dense_oracle(criterion_06_diagrams, criterion_08_diagrams):
    frames_seen = maps_seen = certified = non_cycles = 0
    for diagram in criterion_06_diagrams + criterion_08_diagrams:
        last_vertex = {}
        for alpha, o in diagram.objects.items():
            lv = last_vertex[alpha] = check_last_vertex(o)
            j, r, h = last_vertex_data(o)
            assert lv.verdicts == oracles.last_vertex_verdicts(j, r, h, o.complex)
            assert lv.holds
            for f in (j, r, h):
                assert cycle_defect(f) == oracles.cycle_defect(f)
                non_cycles += cycle_defect(f) is not None
            frames_seen += 1
        for mor, g in oracles.structure_maps(diagram).items():
            certified += _same_verdicts(g, last_vertex[mor.src], last_vertex[mor.tgt])
            maps_seen += 1
    assert (frames_seen, maps_seen) == (228, 1452)
    # h is no cycle unless j o r = id, and most structure maps are certified
    assert non_cycles > 100 and 0 < certified < maps_seen


def test_tampered_structure_maps_are_judged_alike(criterion_06_diagrams):
    """Every tampered structure map of a max-preserving morphism is judged
    as the oracle judges it.  All but three are caught: those three are
    extra entries that leave a certified chain map."""
    tampered = caught = 0
    for diagram in criterion_06_diagrams:
        last_vertex = {alpha: check_last_vertex(o) for alpha, o in diagram.objects.items()}
        for mor, g in oracles.structure_maps(diagram).items():
            if not is_weak_equivalence_d(mor):
                continue
            for t in _tamperings(g):
                caught += not (_same_verdicts(t, last_vertex[mor.src], last_vertex[mor.tgt]) and t.is_cycle())
                tampered += 1
    assert (tampered, caught) == (1478, 1475)


def test_homotopical_items_equal_the_build_all_loop(monkeypatch, criterion_06_diagrams):
    """Check, location, status and witness of every ``homotopical`` item, in
    order, against ``oracles.homotopical_items`` on criterion 6's diagrams:
    as they are, with every max-preserving structure map tampered the k-th
    way of ``_tamperings`` for each k, and with the last frame of each
    diagram marked as having d^2 != 0 in its lowest degree."""
    kinds = Counter()

    def compare(diagram):
        items = is_homotopical(diagram).items
        assert items == oracles.homotopical_items(diagram)
        kinds.update((i.status, (i.witness or "").split(":")[0].split(" B(")[0]) for i in items)

    for diagram in criterion_06_diagrams:
        compare(diagram)
        true_map = diagram.structure_map
        tampered = {
            mor: _tamperings(true_map(mor))
            for alpha in diagram.objects
            for mor in enumerate_inclusions(alpha)
            if is_weak_equivalence_d(mor)
        }
        for k in range(4):

            def tamper(mor, k=k):
                copies = tampered.get(mor, ())
                return copies[k] if k < len(copies) else true_map(mor)

            with monkeypatch.context() as m:
                m.setattr(diagram, "structure_map", tamper)
                compare(diagram)
        o = diagram.objects[list(diagram.objects)[-1]]
        with monkeypatch.context() as m:
            m.setitem(vars(o), "d2_defects", [o.complex.support[0]])
            compare(diagram)
    assert kinds == {
        ("pass", ""): 1119,
        ("fail", "structure map is not a chain map"): 746,
        ("fail", "cone homology"): 561,
        ("fail", "endpoint"): 40,
    }


@pytest.mark.parametrize(
    "which,tampered,caught", [("include_last", 313, 313), ("retraction", 214, 214), ("homotopy", 306, 288)]
)
def test_tampered_last_vertex_maps_are_judged_alike(monkeypatch, criterion_08_diagrams, which, tampered, caught):
    """Each tampered j, r or h of a frame gets the oracle's last-vertex
    verdicts and witnesses; a doubled retraction and a flipped sign in h are
    among the tamperings.  The tampered h that pass differ from h by a cycle,
    so they are homotopies too."""
    true_map = getattr(frames, which)
    seen = []
    for diagram in criterion_08_diagrams:
        for o in diagram.objects.values():
            for t in _tamperings(true_map(o)):
                monkeypatch.setattr(frames, which, lambda _o, t=t: t)
                lv = check_last_vertex(o)
                assert lv.verdicts == oracles.last_vertex_verdicts(*last_vertex_data(o), o.complex)
                assert cycle_defect(t) == oracles.cycle_defect(t)
                seen.append(not lv.holds)
    assert (len(seen), sum(seen)) == (tampered, caught)


@pytest.fixture(scope="module")
def r7n2_diagram():
    """``random_simplex(Random(7), 2)`` at max-len 4: composites of
    codimension up to 4."""
    return build_frame_diagram(random_simplex(random.Random(7), 2), 4)


def _morphisms(diagram):
    """(generators, composites): the max-preserving morphisms of the
    diagram of codimension <= 1 and >= 2, in item order."""
    mors = [m for alpha in diagram.objects for m in enumerate_inclusions(alpha) if is_weak_equivalence_d(m)]
    return [m for m in mors if len(m.inj) >= m.tgt.dom], [m for m in mors if len(m.inj) < m.tgt.dom]


def _log_route(monkeypatch):
    """Lists that log each map judged on the route of ``is_homotopical`` as
    (frames, verdict): the generators judged on views by (source, target)
    frame, and the composites judged by 2-out-of-3 by (source, middle,
    target) frame."""
    views, composites = [], []

    def selection_certified(g, src, tgt, _original=frames._selection_certified):
        ok = _original(g, src, tgt)
        views.append((g.frames, ok))
        return ok

    def composes(g, first, second, _original=frames._composes):
        ok = _original(g, first, second)
        composites.append(((*first.frames, second.frames[1]), ok))
        return ok

    monkeypatch.setattr(frames, "_selection_certified", selection_certified)
    monkeypatch.setattr(frames, "_composes", composes)
    return views, composites


def _refuse_assembly(*args):
    raise AssertionError("a structure map was assembled")


def test_homotopical_route_equals_the_build_all_loop(monkeypatch, r7n2_diagram, criterion_08_diagrams):
    """On diagrams as built, ``is_homotopical`` gives the items of
    ``oracles.homotopical_items`` with no structure map assembled: it passes
    every generator on its views and every composite, up to codimension 4,
    by 2-out-of-3."""
    views, composites = _log_route(monkeypatch)
    counts = []
    for diagram in [r7n2_diagram] + criterion_08_diagrams:
        generators, composed = _morphisms(diagram)
        views.clear()
        composites.clear()
        with monkeypatch.context() as m:
            m.setattr(frames, "_structure_matrices", _refuse_assembly)
            items = is_homotopical(diagram).items
        assert items == oracles.homotopical_items(diagram)
        assert [ok for _, ok in views] == [True] * len(generators)
        assert [ok for _, ok in composites] == [True] * len(composed)
        counts.append((len(generators), len(composed), max(m.tgt.dom - m.src.dom for m in composed)))
    assert counts[0] == (210, 301, 4)
    assert [sum(c[0] for c in counts[1:]), sum(c[1] for c in counts[1:])] == [260, 169]


def test_homotopical_route_never_composes_through_a_broken_frame(monkeypatch):
    """Each frame gamma in turn, marked as having d^2 != 0, fails the items
    of the maps it starts or ends, and the composites whose factorization
    runs through it as the middle frame are judged directly, and pass: no
    map passes on the route through gamma, and the items are those of
    ``oracles.homotopical_items``."""
    diagram = build_frame_diagram(random_simplex(random.Random(7), 2), 3)
    views, composites = _log_route(monkeypatch)
    _, composed = _morphisms(diagram)
    through = Counter()
    for gamma, o in diagram.objects.items():
        with monkeypatch.context() as m:
            m.setitem(vars(o), "d2_defects", [o.complex.support[0]])
            views.clear()
            composites.clear()
            items = is_homotopical(diagram).items
            assert items == oracles.homotopical_items(diagram)
        assert not any(o in ends for ends, ok in views + composites if ok)
        status = {i.location: i.status for i in items}
        for mor in composed:
            i = next(k for k, v in enumerate(mor.inj) if k != v)
            if mor.tgt.values[:i] + mor.tgt.values[i + 1 :] == gamma.values:
                through[status[frames._morphism_key(mor)]] += 1
    assert through == {"pass": 70}


def test_tampered_maps_are_kept_off_the_route(monkeypatch, criterion_08_diagrams):
    """With the maps of one group returned through ``diagram.structure_map``
    as copies that are no selection, untampered (scaled by 1) or scaled by
    2, the items are those of ``oracles.homotopical_items``, and only
    composites of untouched certified maps pass by 2-out-of-3.  The groups
    are the cofaces into the frames of each domain size, then the
    composites.  A composite with a coface copy as a factor passes on its
    own views instead, and is then a factor of the composites into longer
    frames, which may pass by 2-out-of-3 again."""
    views, composites = _log_route(monkeypatch)
    seen = defaultdict(Counter)
    for diagram in criterion_08_diagrams:
        true_map = diagram.structure_map
        generators, composed = _morphisms(diagram)
        groups = {("cofaces", m): [g for g in generators if g.src != g.tgt and g.tgt.dom == m] for m in (1, 2, 3)}
        groups["composites"] = composed
        for group, mors in groups.items():
            for c in (1, 2):
                copies = {mor: true_map(mor).scale(c) for mor in mors}
                with monkeypatch.context() as m:
                    m.setattr(diagram, "structure_map", lambda mor: copies.get(mor) or true_map(mor))
                    views.clear()
                    composites.clear()
                    items = is_homotopical(diagram).items
                    assert items == oracles.homotopical_items(diagram)
                assert all(ok for _, ok in views + composites)
                seen[group, c] += Counter(views=len(views), composites=len(composites))
                seen[group, c] += Counter(i.status for i in items)
    # generators passed on their views, composites passed by 2-out-of-3 and
    # items failed when the group is scaled by 2, of 429 items
    table = {
        ("cofaces", 1): (269, 144, 16),
        ("cofaces", 2): (343, 36, 50),
        ("cofaces", 3): (296, 25, 108),
        "composites": (260, 0, 169),
    }
    for group, (on_views, composed, failed) in table.items():
        for c, fails in ((1, 0), (2, failed)):
            assert seen[group, c] == Counter({"views": on_views, "composites": composed, "pass": 429 - fails, "fail": fails})


def test_composes_reads_a_layout_identity(r7n2_diagram):
    """``_composes`` holds for the selections of psi, psi' and delta of each
    composite psi = delta o psi', and fails when psi's selection runs along
    another injection, when a factor is swapped for a map with other ends,
    or when the factors come in the wrong order."""
    diagram = r7n2_diagram
    _, composed = _morphisms(diagram)
    kinds = Counter()
    for mor in composed:
        alpha, i = mor.tgt, next(k for k, v in enumerate(mor.inj) if k != v)
        gamma = OrderMap(alpha.values[:i] + alpha.values[i + 1 :], alpha.cod)
        frame = diagram.objects
        g = Selection(frame[mor.src], frame[alpha], mor.inj)
        first = Selection(frame[mor.src], frame[gamma], tuple(v - (v > i) for v in mor.inj))
        second = Selection(frame[gamma], frame[alpha], tuple(k for k in range(alpha.dom + 1) if k != i))
        assert frames._composes(g, first, second)
        assert not frames._composes(second, g, first)
        others = [m.inj for m in enumerate_inclusions(alpha) if m.src == mor.src and m.inj != mor.inj]
        for inj in others:
            assert not frames._composes(Selection(frame[mor.src], frame[alpha], inj), first, second)
        kinds["parallel"] += len(others)
        shorter = OrderMap(alpha.values[1:], alpha.cod)
        if shorter != gamma and shorter in frame:
            assert not frames._composes(g, first, Selection(frame[shorter], frame[alpha], tuple(range(1, alpha.dom + 1))))
            kinds["other middle"] += 1
    assert kinds == {"parallel": 1007, "other middle": 34}


def _record_cones(monkeypatch):
    """A list that logs each map whose cone ``frames`` builds."""
    cones = []
    true_cone = frames.cone
    monkeypatch.setattr(frames, "cone", lambda g: cones.append(g) or true_cone(g))
    return cones


def test_a_composite_of_a_copied_coface_passes_on_its_own_views(monkeypatch):
    """With every coface into the frames of domain size 3 returned through
    ``diagram.structure_map`` as a copy that is no selection, no composite
    into those frames can pass by 2-out-of-3, since its coface factor is
    such a copy: each passes on its own views instead.  The items are those
    of ``oracles.homotopical_items``, no structure map is assembled, and the
    only cones are those of the copies."""
    diagram = build_frame_diagram(random_simplex(random.Random(7), 2), 3)
    generators, composed = _morphisms(diagram)
    true_map = diagram.structure_map
    copies = {mor: true_map(mor).scale(1) for mor in generators if mor.src != mor.tgt and mor.tgt.dom == 2}
    monkeypatch.setattr(diagram, "structure_map", lambda mor: copies.get(mor) or true_map(mor))
    expected = oracles.homotopical_items(diagram)
    on_views = []

    def selection_certified(g, src, tgt, _original=frames._selection_certified):
        ok = _original(g, src, tgt)
        on_views.append((g.frames[0].alpha, g.frames[1].alpha, g.inj, ok))
        return ok

    monkeypatch.setattr(frames, "_selection_certified", selection_certified)
    monkeypatch.setattr(frames, "_structure_matrices", _refuse_assembly)
    cones = _record_cones(monkeypatch)
    assert is_homotopical(diagram).items == expected
    into = {(mor.src, mor.tgt, mor.inj) for mor in composed if mor.tgt.dom == 2}
    assert len(into) > 0
    assert into <= {(src, tgt, inj) for src, tgt, inj, ok in on_views if ok}
    assert Counter(map(id, cones)) == Counter(map(id, copies.values()))


def test_a_selection_without_preimages_is_judged_by_cone_homology(monkeypatch):
    """A frame whose blocks in one degree are listed out of order has the
    same complex and maps, but no selection into or out of it has
    preimages.  Each max-preserving map with that frame as an endpoint gets
    the item of ``oracles.homotopical_items`` from cone homology, and is the
    only map whose cone is built.  The oracle reads the matrices of every
    map first, and each selection keeps them, so ``is_homotopical``
    assembles none."""
    diagram = build_frame_diagram(random_simplex(random.Random(7), 2), 3)
    alpha = OrderMap((0, 1, 2), 2)
    o = diagram.objects[alpha]
    d, spans = next((d, spans) for d, spans in o.blocks.items() if len(spans) > 1)
    blocks = {**o.blocks, d: dict(reversed(spans.items()))}
    diagram.objects[alpha] = FrameObject(alpha, o.complex, blocks, o.restriction)
    maps = oracles.structure_maps(diagram)
    monkeypatch.setattr(diagram, "structure_map", maps.__getitem__)
    expected = oracles.homotopical_items(diagram)
    monkeypatch.setattr(frames, "_structure_matrices", _refuse_assembly)
    cones = _record_cones(monkeypatch)
    assert is_homotopical(diagram).items == expected
    touching = [g for mor, g in maps.items() if is_weak_equivalence_d(mor) and alpha in (mor.src, mor.tgt)]
    assert len(touching) > 1 and all(g.preimages() is None for g in touching)
    assert list(map(id, cones)) == list(map(id, touching))


def test_split_product_draws_pass_the_whole_suite():
    """Seeded 3-simplices seldom make the split products u o f and f o u of
    their perturbation nonzero.  Three draws built as the hand-derived
    3-simplex of ``test_nerve.py`` is, kept only where both f3 o h1 and
    h2 o f1 are nonzero, pass the whole check suite at max-len 3, and
    ``is_homotopical`` gives the items of ``oracles.homotopical_items``."""
    rng = random.Random(36)
    checked = 0
    while checked < 3:
        x = [random_complex(rng, name="X%d" % i) for i in range(4)]
        f1, f2, f3 = (random_chain_map(rng, x[i], x[i + 1]) for i in range(3))
        h1, h2, h3 = (random_graded_map(rng, x[i], x[j], 1) for i, j in ((0, 2), (1, 3), (0, 3)))
        if (f3 @ h1).is_zero() or (h2 @ f1).is_zero():
            continue
        checked += 1
        s = gauge(make_strict([f1, f2, f3]), {(0, 2): h1, (1, 3): h2, (0, 3): h3})
        assert run_checks(s, 3).ok
        diagram = build_frame_diagram(s, 3)
        assert is_homotopical(diagram).items == oracles.homotopical_items(diagram)


def test_selection_preimages_need_blocks_that_describe_the_map(criterion_08_diagrams):
    """A selection has preimages exactly when both frames' blocks tile their
    bases and each block lands on a block of its width, in order.  Moving
    the boundary between two adjacent source blocks by one column keeps the
    tiling but breaks a width, swapping the images of two source blocks in
    the target reverses their order, and shifting the last source block one
    column on breaks the tiling: each leaves the map without preimages, and
    so off the view route."""
    broken = Counter()
    for diagram in criterion_08_diagrams:
        generators, _ = _morphisms(diagram)
        for mor in generators:
            src, tgt = diagram.objects[mor.src], diagram.objects[mor.tgt]
            assert Selection(src, tgt, mor.inj).preimages() is not None
            for kind, (b, a) in _relaid(src, tgt, mor.inj):
                assert Selection(b, a, mor.inj).preimages() is None
                broken[kind] += 1
    assert broken == {"moved": 187, "swapped": 217, "shifted": 260}


def _relaid(src: FrameObject, tgt: FrameObject, inj):
    """(kind, (source, target)) with one frame's blocks relaid in one degree:
    a boundary between two source blocks moved, the images along inj of two
    source blocks of one width swapped in the target, the last source block
    shifted one column on."""
    def relaid(o, d, spans):
        return FrameObject(o.alpha, o.complex, {**o.blocks, d: spans}, o.restriction)

    for d, spans in src.blocks.items():
        items = list(spans.items())
        if len(items) >= 2 and items[0][1][1] > 1:
            (s0, (c0, w0)), (s1, (c1, w1)) = items[:2]
            yield "moved", (relaid(src, d, {s0: (c0, w0 - 1), s1: (c1 - 1, w1 + 1), **dict(items[2:])}), tgt)
            break
    for d, spans in src.blocks.items():
        (s0, (_, w0)), (s1, (_, w1)) = (list(spans.items()) + [(None, (0, 0))] * 2)[:2]
        if s1 is not None and w0 == w1:
            t0, t1 = (tuple(inj[i] for i in S) for S in (s0, s1))
            rows = {**tgt.blocks[d], t0: tgt.blocks[d][t1], t1: tgt.blocks[d][t0]}
            yield "swapped", (src, relaid(tgt, d, dict(sorted(rows.items(), key=lambda item: item[1]))))
            break
    d, spans = next(iter(src.blocks.items()))
    last, (col, width) = list(spans.items())[-1]
    yield "shifted", (relaid(src, d, {**spans, last: (col + 1, width)}), tgt)


@pytest.mark.parametrize("which", ["include_last", "retraction"])
def test_tampered_last_vertex_maps_keep_their_frame_off_the_route(monkeypatch, which):
    """With the j or the r of one frame tampered the k-th way of
    ``_tamperings``, through ``frames.include_last`` or
    ``frames.retraction``, no map that starts or ends at that frame passes
    on the route, though the route is tried, none passes by 2-out-of-3
    through it, and the items are those of ``oracles.homotopical_items``.
    Each tampering gets a diagram of its own, since a frame keeps its
    last-vertex verdict."""
    s = random_simplex(random.Random(7), 2)
    views, composites = _log_route(monkeypatch)
    true_map = getattr(frames, which)
    refused = 0
    for alpha in (OrderMap((0, 2), 2), OrderMap((0, 1, 2), 2)):
        for k in range(len(_tamperings(true_map(build_frame_diagram(s, 3).objects[alpha])))):
            diagram = build_frame_diagram(s, 3)
            o = diagram.objects[alpha]
            t = _tamperings(true_map(o))[k]
            monkeypatch.setattr(frames, which, lambda x, o=o, t=t: t if x is o else true_map(x))
            views.clear()
            composites.clear()
            assert is_homotopical(diagram).items == oracles.homotopical_items(diagram)
            assert not any(o in ends for ends, ok in views + composites if ok)
            refused += sum(o in ends for ends, _ in views)
    assert refused > 0


def _holding(lv):
    """A last-vertex check with the j and r of lv and every identity held."""
    return LastVertexCheck(lv.j, lv.r, tuple((check, None) for check, _ in lv.verdicts))


def test_view_decider_equals_the_direct_decider(criterion_08_diagrams):
    """``_selection_certified`` of each generator g equals ``is_cycle`` and
    ``homotopy_inverse_certified`` of g's assembled matrices: with the
    frames' own last-vertex checks, with each tampered j or r of the target
    taken as if its identities held, and with either frame's differential
    tampered at one entry (``_tampered_blocks``), its identities again
    taken as held."""
    verdicts = Counter()
    for diagram in criterion_08_diagrams:
        lv = {alpha: check_last_vertex(o) for alpha, o in diagram.objects.items()}
        for mor in _morphisms(diagram)[0]:
            src, tgt = diagram.objects[mor.src], diagram.objects[mor.tgt]
            j, r = lv[mor.tgt].j, lv[mor.tgt].r
            src_lv = lv[mor.src]
            cases = [(src, src_lv, tgt, lv[mor.tgt])]
            cases += [(src, src_lv, tgt, _holding(LastVertexCheck(t, r, ()))) for t in _tamperings(j)]
            cases += [(src, src_lv, tgt, _holding(LastVertexCheck(j, t, ()))) for t in _tamperings(r)]
            cases += [(src, src_lv, bad, _holding(check_last_vertex(bad))) for bad in _tampered_blocks(tgt)]
            cases += [(bad, _holding(check_last_vertex(bad)), tgt, lv[mor.tgt]) for bad in _tampered_blocks(src)]
            for b, b_lv, a, a_lv in cases:
                g = Selection(b, a, mor.inj)
                assert g.preimages() is not None
                ok = frames._selection_certified(g, b_lv, a_lv)
                assert ok == (g.is_cycle() and homotopy_inverse_certified(g, b_lv, a_lv))
                verdicts[ok] += 1
    assert verdicts == {True: 536, False: 1867}


def _tampered_blocks(o: FrameObject):
    """Copies of the frame o with 1 added to one entry of its differential:
    the first entry of the closure block (full rows, proper columns), then
    that of the full block (full rows and columns), each in the lowest
    degree where the block is nonempty."""
    c = o.complex
    proper, full = oracles._latching_spans(o)
    out = []
    for cols in (proper, full):
        d = next((d for d in cols if d - 1 in full), None)
        if d is not None:
            rows = c.diff(d).to_lists()
            rows[full[d - 1][0]][cols[d][0]] += 1
            diffs = {**{e: c.diff(e) for e in c.support if c.rank(e - 1)}, d: oracles.from_rows(rows)}
            labels = {e: c.labels(e) for e in c.support}
            bad = ChainComplex._trusted(c.name, {e: c.rank(e) for e in c.support}, diffs, labels)
            out.append(FrameObject(o.alpha, bad, o.blocks, o.restriction))
    return out


def test_reedy_items_equal_the_matrix_loop(criterion_02_diagrams):
    """Check, location, status and witness of every Reedy item, in order,
    against ``oracles.reedy_items`` on criterion 2's diagrams as built, and
    on each frame with one entry of its closure block or of its full block
    tampered.  A tampered closure entry fails ``latching-closure`` only, a
    tampered full entry ``latching-cokernel`` only, and no layout is
    touched, so ``latching-split`` always passes."""
    kinds = Counter()
    for diagram in criterion_02_diagrams:
        items = is_reedy_cofibrant(diagram).items
        assert items == oracles.reedy_items(diagram)
        kinds.update((i.check, i.status) for i in items)
        for alpha, o in diagram.objects.items():
            for t in _tampered_blocks(o):
                single = FrameDiagram(diagram.simplex, diagram.max_len, {alpha: t})
                items = is_reedy_cofibrant(single).items
                assert items == oracles.reedy_items(single)
                kinds.update((i.check, i.status, "tampered") for i in items)
    assert kinds == {
        ("latching-closure", "pass"): 3250,
        ("latching-split", "pass"): 3250,
        ("latching-cokernel", "pass"): 3250,
        ("latching-closure", "fail", "tampered"): 1015,
        ("latching-closure", "pass", "tampered"): 1562,
        ("latching-split", "pass", "tampered"): 2577,
        ("latching-cokernel", "fail", "tampered"): 1562,
        ("latching-cokernel", "pass", "tampered"): 1015,
    }


def _random_matrix(rng, rows: int, cols: int) -> IntMatrix:
    """A rows x cols matrix with entries in {1, -1, 2, -3} at a random
    density, 0 included, so that some rows are zero."""
    density = rng.choice((0.0, 0.3, 0.7))
    data = [[rng.choice((1, -1, 2, -3)) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    return IntMatrix(rows, cols, data)


def _random_terms(rng):
    """(height, width, terms): products c * A o B, maps c * B and, in a
    square sum, identities c * id, with c in {1, -1, 2, -2}; every third
    list has each of its terms negated after it as well, so that its sum
    cancels.  Every operand has a row, as every operand that the library
    passes does: the column-wise decider reads no column of a 0-row B."""
    height, width = rng.randint(1, 4), rng.randint(0, 4)
    terms = []
    for _ in range(rng.randint(1, 4)):
        c = rng.choice((1, -1, 2, -2))
        kind = rng.randrange(3 if height == width else 2)
        if kind == 0:
            inner = rng.randint(1, 3)
            terms.append((c, _random_matrix(rng, height, inner), _random_matrix(rng, inner, width)))
        elif kind == 1:
            terms.append((c, None, _random_matrix(rng, height, width)))
        else:
            terms.append((c, None, None))
    if rng.randrange(3) == 0:
        terms += [(-c, a, b) for c, a, b in terms]
        rng.shuffle(terms)
    return height, width, tuple(terms)


def test_row_decider_equals_the_column_decider():
    """``combination_is_zero`` and ``combination_matrix`` give the verdict
    and the matrix of the column-wise deciders they replaced on 400 seeded
    term lists, of every kind of term, some of them cancelling."""
    rng = random.Random(2020)
    kinds, verdicts = Counter(), Counter()
    for _ in range(400):
        height, width, terms = _random_terms(rng)
        m = combination_matrix(height, width, terms)
        assert m == oracles.combination_matrix(height, width, terms)
        assert (m.rows, m.cols) == (height, width)
        verdict = combination_is_zero(height, terms)
        assert verdict == oracles.combination_is_zero(height, width, terms) == m.is_zero()
        verdicts[verdict, height * width > 0] += 1
        kinds.update(("id" if b is None else "map" if a is None else "product", c) for c, a, b in terms)
    assert set(kinds) == {(k, c) for k in ("id", "map", "product") for c in (1, -1, 2, -2)}
    assert min(verdicts.values()) > 40


def test_assembled_views_equal_plain_row_scans(monkeypatch):
    """Every matrix ``_assemble`` returns while criterion 2's diagrams (of
    which criterion 6's are every 21st) and criterion 8's are built, with
    their structure maps and their j, r and h, carries a canonical view: one
    equal to the plain scan of its dense rows.  So do block lists with cancelling blocks,
    columns listed out of order, and 0-row or 0-column shapes, and the sums
    of ``combination_matrix``, of 400 seeded term lists and of terms that
    cancel in part of a row and in the whole of another."""
    assembled = 0

    def checked(*args, _original=frames._assemble):
        nonlocal assembled
        m = _original(*args)
        assert m.nonzeros == _plain_row_scan(m)
        assembled += 1
        return m

    monkeypatch.setattr(frames, "_assemble", checked)
    diagrams = [build_frame_diagram(s, 2) for s in _acceptance_corpus()]
    diagrams += [build_frame_diagram(s, 3) for s in _criterion_08_simplices()]
    for diagram in diagrams:
        for g in oracles.structure_maps(diagram).values():
            g.is_zero()  # a structure map is assembled on its first read
        for o in diagram.objects.values():
            last_vertex_data(o)
    assert assembled > 10000

    assemble = frames._assemble
    m = IntMatrix(2, 2, [[1, -2], [0, 3]])
    zero = IntMatrix.zeros(2, 3)
    assert assemble(2, 3, [(0, 2, [(0, 1, None), (0, -1, None)])]) == zero
    assert assemble(2, 3, [(1, 2, [(0, 1, m), (0, -1, m)])]) == zero
    assert assemble(2, 3, [(1, 2, [(0, 1, m), (0, -1, None)])]) == IntMatrix(2, 3, [[0, 0, -2], [0, 0, 2]])
    assert assemble(2, 3, [(2, 1, [(1, 1, None)]), (0, 2, [(0, 2, m)])]) == IntMatrix(2, 3, [[2, -4, 0], [0, 6, 1]])
    assert assemble(2, 3, [(1, 1, [(0, 2, None)]), (0, 2, [(0, 1, m)])]) == IntMatrix(2, 3, [[1, 0, 0], [0, 3, 0]])
    assert assemble(0, 3, [(0, 3, [])]) == IntMatrix.zeros(0, 3)
    assert assemble(3, 0, []) == IntMatrix.zeros(3, 0)

    rng = random.Random(2020)
    for _ in range(400):
        m = combination_matrix(*_random_terms(rng))
        assert m.nonzeros == _plain_row_scan(m)
    a, b = IntMatrix(2, 3, [[1, 2, 0], [0, 1, 0]]), IntMatrix(2, 3, [[1, 0, 5], [0, 1, 0]])
    m = combination_matrix(2, 3, [(1, None, a), (-1, None, b)])  # row 0 cancels in part, row 1 in full
    assert m == IntMatrix(2, 3, [[0, 2, -5], [0, 0, 0]])
    assert m.nonzeros == (((1, 2), (2, -5)), ())
