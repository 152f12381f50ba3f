"""The row-wise identity deciders of the check suite against the dense
checks they replaced and against the column-wise deciders before them, all
kept in ``oracles.py``.

Every verdict and every witness degree must agree: the cycle test of each
structure map and last-vertex map, the certificate identity g o j = j of
each structure map, and the three last-vertex items of each frame.  The
diagrams are criterion 6's cross-section of the acceptance corpus at
max-len 2 and criterion 8's simplices at max-len 3.  Tampered copies of the maps (scaled by
2, an extra entry outside the image, an entry moved to another row, a flipped
sign) must be judged alike too.  ``is_reedy_cofibrant``, which reads each
frame's block layout and differential in place, must give the items of the
loop that built the latching inclusion matrices and the cokernel complex,
on criterion 2's frames as built and with one entry of a frame
differential tampered.  The deciders, the writer and ``==`` read the row
view that ``_assemble`` sums for each matrix, so every assembled view must
be canonical: the plain scan of its dense rows.

``is_homotopical`` passes an item by the sub-frame lemma when both of its
frames are proven, and fails it otherwise, by index, with no map built.
It must give the items of ``oracles.homotopical_items``, the loop that
builds every structure map and judges it by its certificate or cone
homology, on criteria 6 and 8, on the pinned corrupted and hand-built
simplices, with a frame marked as having d^2 != 0, and on seeded
simplices with one cochain entry changed, where every frame with d^2 = 0
must be proven.  On a hand-assembled copy of a diagram, and for a frame
whose j or r is tampered, the items that touch an unproven frame must fail
with a witness that names it.  Each shorter frame must be the sub-complex
of its recorded extension that the lemma names.  Each shorter frame is a
view into its extension's frame, and what it reads there through its index
map (layout, ranks, labels, matrices, and the rows the Reedy check reads)
and its restriction must equal build_frame_object of its alpha.

The summand inclusions, the last-vertex inclusion j among them, and the
homotopy h that the block assembler builds must have the matrices the dense
builders of ``oracles.py`` write, and the last-vertex verdicts must equal
the dense oracle's on every single-entry change of a frame differential of
``random_simplex(Random(7), 3)`` at max-len 3.
"""

import random
from collections import Counter

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
from dgframes.dg_nerve import NerveSimplex, gauge, make_strict, random_simplex, validate_maurer_cartan
from dgframes.exact_linalg import IntMatrix, combination_is_zero, combination_matrix
from dgframes.frames import (
    FrameDiagram,
    FrameObject,
    FrameView,
    build_frame_diagram,
    build_frame_object,
    check_last_vertex,
    is_homotopical,
    is_reedy_cofibrant,
    last_vertex_data,
    run_checks,
)
from dgframes.simplicial import OrderMap, nonempty_subsets, seq_key

import oracles
from oracles import composite_equals, homotopy_inverse_certified, is_weak_equivalence_d, submatrix
from test_cli import corrupted_simplex, hand_built_top_cell
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


def _same_verdicts(g: GradedMap, src, tgt) -> bool:
    """Compare the cycle test and the certificate of g : B(src) -> B(tgt)
    with the oracle; return whether g is certified."""
    assert cycle_defect(g) == oracles.cycle_defect(g)
    assert g.is_cycle() == hom_differential(g).is_zero()
    identities = (composite_equals(g, src.j, tgt.j),)
    assert identities == oracles.certificate_identities(g, src.j, tgt.j)
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


def test_block_builders_equal_the_dense_builders(criterion_06_diagrams, criterion_08_diagrams):
    """Every summand inclusion of each frame of criteria 6 and 8, j among
    them, and its last-vertex homotopy h, signs included, have the matrices
    that the dense builders write entry by entry."""
    seen = 0
    for diagram in criterion_06_diagrams + criterion_08_diagrams:
        for alpha, o in diagram.objects.items():
            maps = [(o.summand_inclusion(S), oracles.summand_inclusion_matrices(o, S)) for S in nonempty_subsets(alpha.dom)]
            for f, mats in maps + [(frames.homotopy(o), oracles.homotopy_matrices(o))]:
                assert f._mats == mats
                seen += 1
    assert seen == 1680


def _mutated_differentials(o: FrameObject):
    """Copies of the frame o, each with one entry of one stored differential
    changed: per differential, 1 added to its first nonzero entry, its first
    zero entry set to 1, and its last nonzero entry negated."""
    c = o.complex
    for d, m in sorted(c._diffs.items()):
        rows = m.to_lists()
        nonzero = [(i, j) for i, row in enumerate(m.nonzeros) for j, _ in row]
        zero = next(((i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if not v), None)
        changes = [(*nonzero[0], rows[nonzero[0][0]][nonzero[0][1]] + 1)] if nonzero else []
        changes += [(*zero, 1)] if zero else []
        changes += [(*nonzero[-1], -rows[nonzero[-1][0]][nonzero[-1][1]])] if nonzero else []
        for i, j, v in changes:
            changed = [list(row) for row in rows]
            changed[i][j] = v
            diffs = {**c._diffs, d: IntMatrix(m.rows, m.cols, changed)}
            yield oracles.frame_by_hand(o, ChainComplex._trusted(c.name, c._ranks, diffs, c._labels))


def test_mutated_frame_differentials_get_the_oracle_last_vertex_verdicts():
    """For every single-entry change of each frame differential of
    ``random_simplex(Random(7), 3)`` at max-len 3 (``_mutated_differentials``),
    the last-vertex verdicts equal those of ``oracles.last_vertex_verdicts``
    on the assembled matrices of j, r and h, witnesses included."""
    diagram = build_frame_diagram(random_simplex(random.Random(7), 3), 3)
    failed = Counter()
    for o in diagram.objects.values():
        for bad in _mutated_differentials(o):
            j, r, h = last_vertex_data(bad)
            verdicts = check_last_vertex(bad).verdicts
            assert verdicts == oracles.last_vertex_verdicts(j, r, h, bad.complex)
            failed.update(check for check, witness in verdicts if witness is not None)
            failed["mutations"] += 1
            failed["caught"] += any(witness is not None for _, witness in verdicts)
    # r o j = id reads no differential, so no change breaks it
    assert failed == {"mutations": 561, "caught": 559, "last-vertex-chain": 147, "last-vertex-homotopy": 545}


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
            for t in oracles.tamperings(g):
                caught += not (_same_verdicts(t, last_vertex[mor.src], last_vertex[mor.tgt]) and t.is_cycle())
                tampered += 1
    assert (tampered, caught) == (1478, 1475)


def test_homotopical_items_equal_the_build_all_loop(monkeypatch, criterion_06_diagrams):
    """Check, location, status and witness of every ``homotopical`` item, in
    order, against ``oracles.homotopical_items`` on criterion 6's diagrams:
    as they are, and with the last frame of each diagram marked as having
    d^2 != 0 in its lowest degree."""
    kinds = Counter()

    def compare(diagram):
        items = is_homotopical(diagram).items
        assert items == oracles.homotopical_items(diagram)
        kinds.update((i.status, (i.witness or "").split(" B(")[0]) for i in items)

    for diagram in criterion_06_diagrams:
        compare(diagram)
        o = diagram.objects[list(diagram.objects)[-1]]
        with monkeypatch.context() as m:
            m.setitem(vars(o), "d2_defects", [o.complex.support[0]])
            compare(diagram)
    assert kinds == {("pass", ""): 782, ("fail", "endpoint"): 40}


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
            for t in oracles.tamperings(true_map(o)):
                monkeypatch.setattr(frames, which, lambda _o, t=t: t)
                lv = check_last_vertex(o)
                assert lv.verdicts == oracles.last_vertex_verdicts(*last_vertex_data(o), o.complex)
                assert cycle_defect(t) == oracles.cycle_defect(t)
                seen.append(not lv.holds)
    assert (len(seen), sum(seen)) == (tampered, caught)


def by_hand(diagram):
    """A copy of a built diagram assembled by hand: the same frames, none of
    them recorded."""
    return FrameDiagram(diagram.simplex, diagram.max_len, dict(diagram.objects))


def _premise_holds(diagram) -> bool:
    """Whether every frame of the diagram with d^2 = 0 passes its
    last-vertex verdicts, read off the frames themselves: the premise on
    which ``is_homotopical`` decides a diagram as built by the sub-frame
    lemma or the d^2 rule alone."""
    return all(o.d2_defects or all(w is None for _, w in o.verdicts) for o in diagram.objects.values())


def test_homotopical_items_equal_the_oracle_as_built_and_fail_by_hand(criterion_06_diagrams, criterion_08_diagrams):
    """``is_homotopical`` gives the items of ``oracles.homotopical_items`` on
    each diagram as built, where every frame with d^2 = 0 passes its
    last-vertex verdicts: on
    criteria 6 and 8, on the corrupted ``random_simplex(Random(3), 2)`` at
    max-len 2, whose broken frames fail their items, and on the hand-built
    top cell at max-len 3.  On the hand-assembled copy of each, no frame is
    recorded: an item whose endpoints have d^2 = 0 fails, naming its source
    frame, and every other item keeps the oracle's d^2 witness."""
    extra = [build_frame_diagram(corrupted_simplex(), 2), build_frame_diagram(hand_built_top_cell(), 3)]
    seen = Counter()
    for diagram in criterion_06_diagrams + criterion_08_diagrams + extra:
        assert _premise_holds(diagram)
        want = oracles.homotopical_items(diagram)
        assert is_homotopical(diagram).items == want
        by_hand_items = is_homotopical(by_hand(diagram)).items
        assert len(by_hand_items) == len(want)
        for have, i in zip(by_hand_items, want):
            assert (have.check, have.location, have.status) == (i.check, i.location, "fail")
            if i.status == "pass":
                src = i.location.split("->")[0]
                assert have.witness == "endpoint B(%s) is not the frame build_frame_diagram recorded" % src
            else:
                assert have.witness == i.witness
            seen[i.status] += 1
    assert seen == {"pass": 1275, "fail": 4}


def _mutated_simplices():
    """(simplex, max_len): for n = 1..3 and max_len = 1..3, ``random_simplex``
    of seeds 0..5 with 1 added to one entry of one cochain, a nonzero matrix
    of a key drawn by a seeded generator."""
    rng = random.Random(41)
    for n in (1, 2, 3):
        for seed in range(6):
            obj = random_simplex(random.Random(seed), n).to_json()
            keys = sorted(k for k, f in obj["maps"].items() if f["matrices"])
            if not keys:
                continue
            mats = obj["maps"][rng.choice(keys)]["matrices"]
            m = mats[rng.choice(sorted(mats, key=int))]
            i, j = rng.randrange(len(m)), rng.randrange(len(m[0]))
            m[i][j] += 1
            s = NerveSimplex.from_json(obj)
            for max_len in (1, 2, 3):
                yield s, max_len


def test_mutated_simplices_keep_the_premise_of_the_sub_frame_lemma():
    """On seeded simplices with one cochain entry changed
    (``_mutated_simplices``), no frame of ``build_frame_diagram`` has d^2 = 0
    together with a failing last-vertex verdict: d^2 = 0 is the
    Maurer-Cartan identity of the frame's restriction, which gives the
    last-vertex identities.  So ``is_homotopical``, which passes an item by
    the sub-frame lemma or fails it by the d^2 rule, gives the items of
    ``oracles.homotopical_items``, which judges every structure map by its
    certificate or cone homology."""
    frames_seen, kinds = Counter(), Counter()
    for s, max_len in _mutated_simplices():
        diagram = build_frame_diagram(s, max_len)
        assert _premise_holds(diagram)
        frames_seen.update("d^2 != 0" if o.d2_defects else "d^2 = 0" for o in diagram.objects.values())
        items = is_homotopical(diagram).items
        assert items == oracles.homotopical_items(diagram)
        kinds.update(i.status for i in items)
        kinds["diagrams of a simplex failing Maurer-Cartan"] += not validate_maurer_cartan(s).ok
    assert frames_seen == {"d^2 = 0": 899, "d^2 != 0": 135}
    assert kinds == {"pass": 3612, "fail": 728, "diagrams of a simplex failing Maurer-Cartan": 36}


def test_a_shorter_frame_is_the_sub_complex_of_its_extension(criterion_06_diagrams, criterion_08_diagrams):
    """The sub-frame lemma, as ``build_frame_diagram`` records it: each
    frame B(alpha) with alpha of domain m < L = max_len is the sub-complex
    of its recorded extension B(alpha'), alpha' = alpha with its last value
    repeated up to domain L, on the summands of the subsets of psi([m]),
    psi = (0, ..., m - 1, L).  Ranks and matrices are equal, the columns
    of B(alpha') in that span have no entry off it, and labels are equal up
    to renaming each subset S by psi(S).  Checked on criteria 6 and 8, the
    corrupted ``random_simplex(Random(3), 2)`` at max-len 2 and the
    hand-built top cell at max-len 4."""
    extra = [build_frame_diagram(corrupted_simplex(), 2), build_frame_diagram(hand_built_top_cell(), 4)]
    seen = Counter()
    for diagram in criterion_06_diagrams + criterion_08_diagrams + extra:
        top = diagram.max_len
        for alpha, o in diagram.objects.items():
            m, values = alpha.dom, alpha.values
            recorded, ext = diagram.recorded[alpha]
            assert recorded is o and ext is diagram.objects[ext.alpha]
            assert ext.alpha.values == values + values[-1:] * (top - m)
            if m == top:
                assert ext is o
                continue
            psi = tuple(range(m)) + (top,)
            outer, inner = oracles.blocks(ext), oracles.blocks(o)
            spans = {}
            for d, blocks in inner.items():
                images = {tuple(psi[i] for i in S): span for S, span in blocks.items()}
                assert set(images) == {T for T in outer.get(d, {}) if set(T) <= set(psi)}
                assert all(outer[d][T][1] == width for T, (_, width) in images.items())
                spans[d] = [c for T, (_, width) in images.items() for c in range(outer[d][T][0], outer[d][T][0] + width)]
            b, c = ext.complex, o.complex
            assert {d: len(s) for d, s in spans.items()} == {d: c.rank(d) for d in c.support}
            for d in c.support:
                assert [_renamed(label, psi, m) for label in c.labels(d)] == [b.labels(d)[i] for i in spans[d]]
                if d - 1 in spans:
                    rows = spans[d - 1]
                    assert submatrix(b.diff(d), rows, spans[d]) == c.diff(d)
                    off = [i for i in range(b.rank(d - 1)) if i not in set(rows)]
                    assert submatrix(b.diff(d), off, spans[d]).is_zero()
            seen[m] += 1
    assert seen == {0: 39, 1: 76, 2: 45, 3: 35}


def test_every_view_reads_the_frame_of_its_alpha(criterion_06_diagrams, criterion_08_diagrams):
    """Each shorter frame of a diagram as built is a :class:`FrameView` into
    the frame of its recorded extension B(alpha'), and equals
    build_frame_object of its alpha: the same layout, in the same order, the
    same ranks and restriction, and, read off B(alpha') through the index
    map ``columns``, the same labels (each subset S renamed psi(S)) and
    matrices, and, while the extension is lean, the same rows of each
    differential through ``rows``, which the Reedy check reads.  Checked on
    criteria 6 and 8, on the diagrams of every pinned ``check`` report (the
    corrupted ``random_simplex(Random(3), 2)`` at max-len 2 and 3 among them,
    whose view B(0,1,2) at max-len 3 has an extension with d^2 != 0), and on
    the hand-built top cell at max-len 4.  A longest frame is its own
    extension and is build_frame_object's."""
    pins = [
        (random_simplex(random.Random(6), 2), (1, 3)),
        (random_simplex(random.Random(7), 3), (3, 4, 5)),
        (corrupted_simplex(), (2, 3)),
        (hand_built_top_cell(), (3, 4)),
    ]
    extra = [build_frame_diagram(s, max_len) for s, lengths in pins for max_len in lengths]
    seen = Counter()
    for diagram in criterion_06_diagrams + criterion_08_diagrams + extra:
        top = diagram.max_len
        for alpha, o in diagram.objects.items():
            m, (recorded, ext) = alpha.dom, diagram.recorded[alpha]
            assert recorded is o and ext is diagram.objects[ext.alpha]
            if m == top:
                assert type(o) is FrameObject and ext is o
                seen["longest"] += 1
                continue
            assert type(o) is FrameView and o.ext is ext
            built, psi = build_frame_object(diagram.simplex, alpha), tuple(range(m)) + (top,)
            assert [(d, list(spans.items())) for d, spans in o.layout.items()] == [
                (d, list(spans.items())) for d, spans in built.layout.items()
            ]
            assert (o.restriction.objects, o.restriction.maps) == (built.restriction.objects, built.restriction.maps)
            b, c = ext.complex, built.complex
            assert o.ranks == c._ranks and list(o.columns) == list(c.support)
            for d, names in o.columns.items():
                assert list(names.values()) == list(range(c.rank(d)))
                assert [_renamed(label, psi, m) for label in c.labels(d)] == [b.labels(d)[i] for i in names]
                if d - 1 in o.columns:
                    assert submatrix(b.diff(d), list(o.columns[d - 1]), list(names)) == c.diff(d)
                    if o.lean:
                        assert o.rows(d, 0) == c.diff(d).nonzeros
            seen["lean" if o.lean else "failing extension"] += 1
    assert seen == {"longest": 423, "lean": 497, "failing extension": 1}


def _renamed(label: str, psi: tuple, m: int) -> str:
    """A label of B(alpha) with its subset S renamed psi(S), as in
    B(alpha'); a frame of domain 0 writes no subset, its S being {0}."""
    if not m:
        return "%d|%s" % (psi[0], label)
    subset, rest = label.split("|", 1)
    return seq_key([psi[int(i)] for i in subset.split(",")]) + "|" + rest


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


@pytest.mark.parametrize("which", ["include_last", "retraction"])
def test_tampered_last_vertex_maps_keep_their_frame_off_the_route(monkeypatch, which):
    """With the j or the r of one longest frame tampered the k-th way of
    ``oracles.tamperings``, through ``frames.include_last`` or
    ``frames.retraction``, that frame fails a last-vertex verdict, so it is
    not proven: every item that touches it fails, its witness naming the
    frame's first failing verdict, where the oracle passes it by cone
    homology.  Its views, whose extension fails, decide their own
    verdicts, which hold, and every other item is that of
    ``oracles.homotopical_items``.  The frames are the extensions of B(0,2)
    and B(0,1,2) at max-len 3; each tampering gets a diagram of its own,
    since a frame keeps its last-vertex verdict."""
    s = random_simplex(random.Random(7), 2)
    true_map = getattr(frames, which)
    touched = 0
    for alpha in (OrderMap((0, 2, 2, 2), 2), OrderMap((0, 1, 2, 2), 2)):
        for k in range(len(oracles.tamperings(true_map(build_frame_diagram(s, 3).objects[alpha])))):
            diagram = build_frame_diagram(s, 3)
            o = diagram.objects[alpha]
            t = oracles.tamperings(true_map(o))[k]
            monkeypatch.setattr(frames, which, lambda x, o=o, t=t: t if x is o else true_map(x))
            check, witness = next(v for v in o.verdicts if v[1] is not None)
            fails = "endpoint B(%s) fails %s: %s" % (alpha.key(), check, witness)
            assert check.startswith("last-vertex-")
            items, wants = is_homotopical(diagram).items, oracles.homotopical_items(diagram)
            assert len(items) == len(wants)
            for have, want in zip(items, wants):
                src, tgt = want.location.split("[")[0].split("->")
                if alpha.key() in (src, tgt):
                    assert (have.location, have.status, have.witness) == (want.location, "fail", fails)
                    assert want.status == "pass"  # its map is still an equivalence, by cone homology
                    touched += 1
                else:
                    assert have == want
    assert touched == {"include_last": 64, "retraction": 48}[which]


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
            out.append(oracles.frame_by_hand(o, bad))
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
