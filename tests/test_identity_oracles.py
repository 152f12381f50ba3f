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
built and with one entry of a frame differential tampered.  The deciders
read the row-nonzero view that ``_assemble`` hands out with each matrix, and
the writer, ``==`` and ``block`` read its rows, so every assembled view must
be the plain scan of its rows.
"""

import random
from collections import Counter

import pytest

import dgframes.frames as frames
from dgframes.complexes import (
    ChainComplex,
    GradedMap,
    combination_is_zero,
    combination_matrix,
    composite_equals,
    cycle_defect,
    hom_differential,
)
from dgframes.dg_nerve import random_simplex
from dgframes.exact_linalg import IntMatrix
from dgframes.frames import (
    FrameDiagram,
    FrameObject,
    build_frame_diagram,
    check_last_vertex,
    homotopy_inverse_certified,
    is_homotopical,
    is_reedy_cofibrant,
    last_vertex_data,
)
from dgframes.simplicial import enumerate_inclusions, is_weak_equivalence_d

import oracles
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
        (d, i) for d in f.source.support if f.source.rank(d) for i, row in enumerate(f.mat(d).data) if not any(row)
    ]
    if spots:
        out.append(_entry(f, *spots[0], 0, 1))
    first = [
        (d, i, c, v) for d in f.source.support for i, row in enumerate(f.mat(d).data) for c, v in enumerate(row) if v
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
            diffs = {**{e: c.diff(e) for e in c.support if c.rank(e - 1)}, d: IntMatrix.from_rows(rows)}
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
        verdict = combination_is_zero(height, width, terms)
        assert verdict == oracles.combination_is_zero(height, width, terms) == m.is_zero()
        verdicts[verdict, height * width > 0] += 1
        kinds.update(("id" if b is None else "map" if a is None else "product", c) for c, a, b in terms)
    assert set(kinds) == {(k, c) for k in ("id", "map", "product") for c in (1, -1, 2, -2)}
    assert min(verdicts.values()) > 40


def test_assembled_views_equal_plain_row_scans(monkeypatch):
    """Every matrix ``_assemble`` returns while criterion 2's diagrams (of
    which criterion 6's are every 21st) and criterion 8's are built, with
    their structure maps and their j, r and h, carries a view equal to the
    plain scan of its rows.  So do block lists with cancelling blocks,
    columns listed out of order, and 0-row or 0-column shapes."""
    assembled = 0

    def checked(*args, _original=frames._assemble):
        nonlocal assembled
        m = _original(*args)
        assert m._nonzeros is not None  # handed out, not built on a read
        assert m.row_nonzeros() == _plain_row_scan(m)
        assembled += 1
        return m

    monkeypatch.setattr(frames, "_assemble", checked)
    diagrams = [build_frame_diagram(s, 2) for s in _acceptance_corpus()]
    diagrams += [build_frame_diagram(s, 3) for s in _criterion_08_simplices()]
    for diagram in diagrams:
        oracles.structure_maps(diagram)
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
