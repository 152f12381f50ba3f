import copy
import hashlib
import random

import pytest

from dgframes.complexes import (
    ChainComplex,
    GradedMap,
    cone,
    hom_differential,
    homology,
    is_acyclic,
    is_nullhomotopic,
    random_chain_map,
    random_complex,
    random_graded_map,
    shift,
    zero_complex,
)
from dgframes.dg_nerve import (
    NerveSimplex,
    act,
    gauge,
    increasing_sequences,
    make_strict,
    random_simplex,
    validate_maurer_cartan,
)
from dgframes.exact_linalg import IntMatrix, block
import dgframes.frames as frames
from dgframes.frames import (
    build_frame_diagram,
    build_frame_object,
    check_last_vertex,
    check_simplicial_compat,
    homotopy,
    include_last,
    is_homotopical,
    is_reedy_cofibrant,
    last_vertex_data,
    recover_map_from_cylinder,
    retraction,
    solve_retraction,
    split_acyclic_cofibration,
)
from dgframes.reporting import canonical_json
from dgframes.simplicial import (
    DMorphism,
    OrderMap,
    enumerate_d_objects,
    enumerate_order_maps,
)

from oracles import (
    cylinder,
    from_rows,
    is_weak_equivalence_d,
    latching_data,
    simplicial_compat_items,
    structure_maps,
    verify_mc_extension,
)


def point(name="pt", label="p"):
    return ChainComplex(name, {0: 1}, {}, {0: (label,)})


def direct_sum(x, y, name="sum"):
    degs = sorted(set(x.support) | set(y.support))
    ranks = {d: x.rank(d) + y.rank(d) for d in degs}
    diffs = {}
    for d in degs:
        if ranks.get(d - 1):
            diffs[d] = block(
                [
                    [x.diff(d), IntMatrix.zeros(x.rank(d - 1), y.rank(d))],
                    [IntMatrix.zeros(y.rank(d - 1), x.rank(d)), y.diff(d)],
                ]
            )
    labels = {d: x.labels(d) + y.labels(d) for d in degs}
    total = ChainComplex(name, ranks, diffs, labels)
    incl = GradedMap(
        x,
        total,
        0,
        {
            d: IntMatrix.from_entries(total.rank(d), x.rank(d), {(i, i): 1 for i in range(x.rank(d))})
            for d in x.support
        },
    )
    return total, incl


# -- frame objects -------------------------------------------------------------


def test_copower_frame_of_a_point():
    """Over a 0-simplex on Z (degree 0), the frame at the constant length-3
    sequence has one generator per nonempty subset of {0,1,2}: ranks 3, 3, 1
    in degrees 0, 1, 2, and the homology of a point."""
    s = make_strict([], lone_object=point())
    o = build_frame_object(s, OrderMap((0, 0, 0), 0))
    c = o.complex
    assert c.support == (0, 1, 2)
    assert (c.rank(0), c.rank(1), c.rank(2)) == (3, 3, 1)
    h = homology(c)
    assert h.group(0) == "Z" and h.degrees() == [0]
    assert c.labels(0) == ("0|p", "1|p", "2|p")
    assert c.labels(2) == ("0,1,2|p",)


def test_singleton_frame_is_the_object_itself():
    rng = random.Random(50)
    for n in range(3):
        s = random_simplex(rng, n)
        for i in range(n + 1):
            o = build_frame_object(s, OrderMap((i,), n))
            assert o.complex == s.objects[i]  # labels included


def test_frame_at_an_edge_is_the_mapping_cylinder():
    """B(<0,1>) of a strict 1-simplex coincides with the mapping cylinder of
    its edge, matrix entry for matrix entry and label for label, and the
    summand inclusions and the retraction match the cylinder structure maps."""
    rng = random.Random(51)
    for _ in range(20):
        x = random_complex(rng, name="X")
        y = random_complex(rng, name="Y")
        f = random_chain_map(rng, x, y)
        s = make_strict([f])
        o = build_frame_object(s, OrderMap((0, 1), 1))
        cyl, in_src, in_tgt, proj = cylinder(f)
        assert o.complex == cyl
        assert o.summand_inclusion((0,)) == in_src
        assert o.summand_inclusion((1,)) == in_tgt
        assert retraction(o) == proj


def test_frame_differential_squares_to_zero():
    rng = random.Random(52)
    for n in range(4):
        for _ in range(3):
            s = random_simplex(rng, n)
            for alpha in enumerate_d_objects(n, 2):
                o = build_frame_object(s, alpha)
                assert o.d2_defects == []
                assert o.complex.d_squared_defects() == []


def test_frame_d2_fails_exactly_when_maurer_cartan_fails():
    """The module docstring's equivalence, on broken input: one entry of one
    nonzero coherence matrix of a seeded simplex changed by -1, +1 or +2
    breaks d^2 = 0 on B(id_[n]) exactly when it breaks the Maurer-Cartan
    identity.  Both outcomes occur."""
    outcomes = set()
    for i in range(120):
        rng = random.Random(1000 + i)
        n = 1 + i % 3
        t = random_simplex(rng, n)
        nonzero = [(key, d) for key, f in t.maps.items() for d, m in f._mats.items() if not m.is_zero()]
        if not nonzero:
            continue
        key, d = rng.choice(nonzero)
        f = t.maps[key]
        m = f._mats[d]
        entry = {(rng.randrange(m.rows), rng.randrange(m.cols)): rng.choice((-1, 1, 2))}
        mats = dict(f._mats)
        mats[d] = m + IntMatrix.from_entries(m.rows, m.cols, entry)
        maps = dict(t.maps)
        maps[key] = GradedMap(f.source, f.target, f.degree, mats)
        t = NerveSimplex(t.objects, maps)
        mc_fails = not validate_maurer_cartan(t).ok
        d2_fails = bool(build_frame_object(t, OrderMap(tuple(range(n + 1)), n)).d2_defects)
        assert mc_fails == d2_fails, (i, key, d, entry)
        outcomes.add(mc_fails)
    assert outcomes == {True, False}


def test_build_frame_object_validation():
    rng = random.Random(53)
    s = random_simplex(rng, 1)
    with pytest.raises(ValueError):
        build_frame_object(s, OrderMap((0, 2), 2))  # codomain mismatch
    o = build_frame_object(s, OrderMap((0, 1), 1))
    payload = o.to_json()
    assert payload["alpha"] == "0,1"
    assert set(payload) == {"alpha", "degrees", "labels", "differentials"}
    # deterministic: building twice gives the same complex
    assert build_frame_object(s, OrderMap((0, 1), 1)).complex == o.complex


# Seeded frames, their last-vertex maps, latching data and structure maps,
# pinned by sha256 of their canonical JSON.  The cases cover n = 2 and 3 and
# degenerate alpha of length 3 and 4.
PINNED_FRAME_CASES = {
    (71, 2): [(0, 1, 1), (0, 0, 2), (0, 1, 1, 2), (1, 1, 1, 2), (2,)],
    (72, 3): [(0, 1, 1, 3), (1, 1, 2), (0, 2, 3), (0, 0, 3, 3)],
}


def _frame_case_payload(seed, n):
    s = random_simplex(random.Random(seed), n)
    objects = []
    for values in PINNED_FRAME_CASES[seed, n]:
        o = build_frame_object(s, OrderMap(values, n))
        sub, incl, coker = latching_data(o)
        objects.append(
            {
                "frame": o.to_json(),
                "retraction": retraction(o).to_json(),
                "homotopy": homotopy(o).to_json(),
                "latching": {
                    "sub": sub.to_json(),
                    "sub_labels": {str(d): list(sub.labels(d)) for d in sub.support},
                    "incl": incl.to_json(),
                    "coker": coker.to_json(),
                    "coker_labels": {str(d): list(coker.labels(d)) for d in coker.support},
                },
            }
        )
    diagram = build_frame_diagram(s, max_len=2)
    structure = {frames._morphism_key(mor): g.to_json() for mor, g in structure_maps(diagram).items()}
    return {"objects": objects, "structure_maps": structure}


PINNED_FRAME_DIGESTS = {
    (71, 2): "db958efe7bb526f06d66919da17335a4f24d71bc53fff52fe07922c00f9a2efe",
    (72, 3): "3827c6ddc640852e887363c0caf47a1b3d249cfeb107e8c12ddff0a8aca4cfa3",
}


@pytest.mark.parametrize("seed,n", sorted(PINNED_FRAME_CASES))
def test_frame_maps_are_pinned(seed, n):
    """Frame, r, h, latching data and every structure map of a max-len-2
    diagram hash to the digests recorded before the block-layout builder."""
    payload = canonical_json(_frame_case_payload(seed, n))
    assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == PINNED_FRAME_DIGESTS[seed, n]


def test_summand_inclusions_assemble_the_basis():
    rng = random.Random(54)
    s = random_simplex(rng, 2)
    alpha = OrderMap((0, 1, 2), 2)
    o = build_frame_object(s, alpha)
    seen = {d: [0] * o.complex.rank(d) for d in o.complex.support}
    from dgframes.simplicial import nonempty_subsets

    for S in nonempty_subsets(alpha.dom):
        incl = o.summand_inclusion(S)
        x = o.source_complex(S)
        assert incl.degree == len(S) - 1
        for t in x.support:
            m = incl.mat(t)
            for i in range(m.rows):
                for j in range(m.cols):
                    if m[i, j]:
                        assert m[i, j] == 1
                        seen[t + len(S) - 1][i] += 1
    assert all(all(v == 1 for v in row) for row in seen.values())

    # the layout: per degree, one block per summand of positive rank, in
    # subset order, contiguous over [0, rank), each as wide as its source in
    # that degree and labelled with its subset
    assert sorted(o.blocks) == list(o.complex.support)
    for d, spans in o.blocks.items():
        ranks = {S: o.source_complex(S).rank(d - (len(S) - 1)) for S in nonempty_subsets(alpha.dom)}
        assert list(spans) == [S for S, rank in ranks.items() if rank]
        col = 0
        for S, (start, width) in spans.items():
            assert (start, width) == (col, ranks[S])
            prefix = ",".join(map(str, S)) + "|"
            labels = o.complex.labels(d)[start : start + width]
            assert labels == tuple(prefix + lab for lab in o.source_complex(S).labels(d - (len(S) - 1)))
            col += width
        assert col == o.complex.rank(d)


# -- structure maps ------------------------------------------------------------


def test_structure_maps_are_functorial_chain_maps():
    rng = random.Random(55)
    s = random_simplex(rng, 2)
    diagram = build_frame_diagram(s, max_len=2)
    maps = structure_maps(diagram)
    for mor, g in maps.items():
        assert g.is_cycle()
        assert g.degree == 0
    # identity morphisms act as the identity
    for alpha, o in diagram.objects.items():
        ident = maps[DMorphism(alpha, alpha, tuple(range(alpha.dom + 1)))]
        assert ident == GradedMap.identity(o.complex)
    # composition: subset of a subset
    tgt = OrderMap((0, 1, 2), 2)
    mid = OrderMap((0, 2), 2)
    low = OrderMap((2,), 2)
    m1 = DMorphism(mid, tgt, (0, 2))
    m2 = DMorphism(low, mid, (1,))
    lhs = maps[m1.compose(m2)]
    rhs = maps[m1] @ maps[m2]
    assert lhs == rhs


def test_structure_maps_restrict_to_cylinder_inclusions():
    rng = random.Random(56)
    x = random_complex(rng, name="X")
    y = random_complex(rng, name="Y")
    f = random_chain_map(rng, x, y)
    s = make_strict([f])
    diagram = build_frame_diagram(s, max_len=1)
    edge = OrderMap((0, 1), 1)
    cyl, in_src, in_tgt, _ = cylinder(f)
    maps = structure_maps(diagram)
    g0 = maps[DMorphism(OrderMap((0,), 1), edge, (0,))]
    g1 = maps[DMorphism(OrderMap((1,), 1), edge, (1,))]
    assert g0 == in_src and g1 == in_tgt
    with pytest.raises(KeyError):
        maps[DMorphism(OrderMap((0, 1), 2), OrderMap((0, 1, 2), 2), (0, 1))]


# -- latching ------------------------------------------------------------------


def test_latching_of_an_edge():
    rng = random.Random(57)
    x = random_complex(rng, name="X")
    y = random_complex(rng, name="Y")
    f = random_chain_map(rng, x, y)
    s = make_strict([f])
    o = build_frame_object(s, OrderMap((0, 1), 1))
    sub, incl, coker = latching_data(o)
    # the latching subobject of the cylinder is X (+) Y, on the nose
    for d in sub.support:
        assert sub.rank(d) == x.rank(d) + y.rank(d)
        assert sub.labels(d) == tuple("0|%s" % l for l in x.labels(d)) + tuple(
            "1|%s" % l for l in y.labels(d)
        )
    assert sub.d_squared_defects() == []
    assert incl.is_cycle()
    # the quotient is the shifted source, literally
    assert coker == shift(x, 1)


def test_latching_of_a_singleton_is_zero():
    rng = random.Random(58)
    s = random_simplex(rng, 1)
    diagram = build_frame_diagram(s, max_len=1)
    sub, incl, coker = latching_data(diagram.objects[OrderMap((0,), 1)])
    assert sub.support == ()
    assert sub == zero_complex("L(0)")


def test_is_reedy_cofibrant_passes_on_valid_simplices():
    rng = random.Random(59)
    for n in range(3):
        s = random_simplex(rng, n)
        report = is_reedy_cofibrant(build_frame_diagram(s, max_len=2))
        assert report.ok, report.failures()
        checks = {item.check for item in report.items}
        assert checks == {"latching-closure", "latching-split", "latching-cokernel"}


def test_is_reedy_cofibrant_flags_a_tampered_frame():
    """Corrupt the full-subset block of one frame differential; the quotient
    no longer equals the shifted source and the cokernel check must fail at
    that sequence.  The two other checks are insensitive to this block."""
    x = ChainComplex("X", {0: 1, 1: 1}, {1: from_rows([[2]])}, {0: ("e0",), 1: ("e1",)})
    s = make_strict([], lone_object=x)
    diagram = build_frame_diagram(s, max_len=1)
    alpha = OrderMap((0, 0), 0)
    o = diagram.objects[alpha]
    c = o.complex
    rows = c.diff(2).to_lists()
    assert rows[2] == [-2]  # the (0,1)-generator block carries the shifted differential
    rows[2] = [5]
    bad = ChainComplex._trusted(
        c.name,
        {d: c.rank(d) for d in c.support},
        {1: c.diff(1), 2: from_rows(rows)},
        {d: c.labels(d) for d in c.support},
    )
    from dgframes.frames import FrameObject

    diagram.objects[alpha] = FrameObject(alpha, bad, o.blocks, o.restriction)
    report = is_reedy_cofibrant(diagram)
    assert not report.ok
    failed = {(i.check, i.location) for i in report.failures()}
    assert ("latching-cokernel", "0,0") in failed
    assert ("latching-closure", "0,0") not in failed
    # simplicial-compat reads restrictions only, and this one is intact
    sigma = OrderMap((0,), 0)
    assert check_simplicial_compat(sigma, diagram).ok


# Layouts of the degree-1 blocks of B(<0,1>) over the identity of a complex
# X in degrees 0 and 1, whose untouched blocks are (0,) at 0, (1,) at 1 and
# the full block (0,1) at 2, each of width 1, in a basis of rank 3.  None
# drops degree 1 from the layout.
_LAYOUTS = {
    "untouched": ({(0,): (0, 1), (1,): (1, 1), (0, 1): (2, 1)}, True),
    "proper-blocks-swapped": ({(1,): (0, 1), (0,): (1, 1), (0, 1): (2, 1)}, True),
    "column-shifted": ({(0,): (0, 1), (1,): (2, 1), (0, 1): (2, 1)}, False),
    "blocks-overlap": ({(0,): (0, 1), (1,): (0, 1), (0, 1): (2, 1)}, False),
    "widened-past-rank": ({(0,): (0, 1), (1,): (1, 1), (0, 1): (2, 2)}, False),
    "full-block-first": ({(0, 1): (0, 1), (0,): (1, 1), (1,): (2, 1)}, False),
    "degree-missing": (None, False),
}


@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_latching_split_reads_the_block_layout(layout):
    """latching-split holds exactly when every degree's blocks, in their
    stored order, tile the basis with no gap or overlap and the full
    subset's block last: then the proper summands span the leading columns
    and their inclusion is split by the coordinate projection.  The proper
    blocks may come in either order, and a degree of the frame with no
    layout fails."""
    x = ChainComplex("X", {0: 1, 1: 1}, {1: from_rows([[2]])}, {0: ("e0",), 1: ("e1",)})
    diagram = build_frame_diagram(make_strict([GradedMap.identity(x)]), max_len=1)
    alpha = OrderMap((0, 1), 1)
    o = diagram.objects[alpha]
    assert o.complex.rank(1) == 3 and o.blocks[1] == _LAYOUTS["untouched"][0]
    spans, split = _LAYOUTS[layout]
    blocks = {d: spans if d == 1 else b for d, b in o.blocks.items() if d != 1 or spans is not None}
    diagram.objects[alpha] = frames.FrameObject(alpha, o.complex, blocks, o.restriction)
    (item,) = [i for i in is_reedy_cofibrant(diagram).items if i.check == "latching-split" and i.location == "0,1"]
    assert (item.status, item.witness) == (("pass", None) if split else ("fail", "inclusion is not split at degree 1"))


# -- last-vertex data ----------------------------------------------------------


def test_last_vertex_identities():
    rng = random.Random(60)
    for n in range(4):
        s = random_simplex(rng, n)
        for alpha in enumerate_d_objects(n, 2):
            o = build_frame_object(s, alpha)
            j, r, h = last_vertex_data(o)
            assert j.is_cycle() and r.is_cycle()
            assert r @ j == GradedMap.identity(j.source)
            assert hom_differential(h) == (j @ r) - GradedMap.identity(o.complex)
            assert is_acyclic(cone(j)) and is_acyclic(cone(r))
            assert check_last_vertex(o).holds


def test_last_vertex_on_a_singleton():
    rng = random.Random(61)
    s = random_simplex(rng, 2)
    o = build_frame_object(s, OrderMap((1,), 2))
    j, r, h = last_vertex_data(o)
    assert j == GradedMap.identity(o.complex)
    assert r == GradedMap.identity(o.complex)
    assert h.is_zero()


def test_check_last_vertex_names_the_failing_identity_and_degree(monkeypatch):
    """X is Z in degree 1 plus Z in degree 2 with d = 0; B(<0,1>) of the
    identity lives in degrees 1..3 and X_1 in degrees 1..2."""
    x = ChainComplex("x", {1: 1, 2: 1}, {}, {1: ("a",), 2: ("b",)})
    o = build_frame_object(make_strict([GradedMap.identity(x)]), OrderMap((0, 1), 1))
    true_retraction, true_homotopy = frames.retraction, frames.homotopy

    monkeypatch.setattr(frames, "retraction", lambda f: true_retraction(f).scale(2))
    assert dict(check_last_vertex(o).verdicts) == {
        "last-vertex-chain": None,
        "last-vertex-section": "r o j != id at degree 1",
        "last-vertex-homotopy": "D(h) != j o r - id at degree 1",
    }

    monkeypatch.setattr(frames, "retraction", true_retraction)
    monkeypatch.setattr(frames, "homotopy", lambda f: GradedMap.zero(f.complex, f.complex, 1))
    assert dict(check_last_vertex(o).verdicts) == {
        "last-vertex-chain": None,
        "last-vertex-section": None,
        "last-vertex-homotopy": "D(h) != j o r - id at degree 1",
    }

    monkeypatch.setattr(frames, "homotopy", true_homotopy)
    # r sends "0|b" to 2b: then r o d("0,1|b") = r(-"0|b" + "1|b") = -b
    bent = true_retraction(o) + GradedMap(o.complex, x, 0, {2: from_rows([[1, 0, 0]])})
    monkeypatch.setattr(frames, "retraction", lambda f: bent)
    lv = check_last_vertex(o)
    assert not lv.holds
    assert dict(lv.verdicts)["last-vertex-chain"] == "D(r) != 0 at degree 3"


def test_include_last_lands_on_the_last_singleton():
    rng = random.Random(62)
    s = random_simplex(rng, 2)
    alpha = OrderMap((0, 2), 2)
    o = build_frame_object(s, alpha)
    assert include_last(o) == o.summand_inclusion((1,))
    assert include_last(o).source == s.objects[2]


# -- homotopical and simplicial checks ------------------------------------------


def test_is_homotopical_passes_on_valid_simplices():
    rng = random.Random(63)
    for n in range(3):
        s = random_simplex(rng, n)
        report = is_homotopical(build_frame_diagram(s, max_len=2))
        assert report.ok, report.failures()


def test_is_homotopical_skips_non_max_preserving_morphisms():
    """With edge multiplication by 2, the source-end inclusion <0> -> <0,1> is
    not a quasi-isomorphism -- and carries no requirement.  The checker must
    skip it and pass, while still covering the max-preserving inclusions."""
    x = point("x")
    times2 = GradedMap(x, point("y"), 0, {0: from_rows([[2]])})
    s = make_strict([times2])
    diagram = build_frame_diagram(s, max_len=1)
    report = is_homotopical(diagram)
    assert report.ok
    locations = [i.location for i in report.items]
    assert any(loc.startswith("1->0,1") for loc in locations)
    assert not any(loc.startswith("0->0,1") for loc in locations)
    # sanity: that skipped map is indeed not an equivalence
    src_incl = structure_maps(diagram)[DMorphism(OrderMap((0,), 1), OrderMap((0, 1), 1), (0,))]
    assert not is_acyclic(cone(src_incl))


def _tamper(monkeypatch, diagram, mor, g):
    """Make ``diagram.structure_map`` return g at mor and the true map elsewhere."""
    true_map = diagram.structure_map
    monkeypatch.setattr(diagram, "structure_map", lambda m: g if m == mor else true_map(m))


def test_is_homotopical_flags_a_tampered_structure_map(monkeypatch):
    x = point("x")
    s = make_strict([GradedMap.identity(x)])
    diagram = build_frame_diagram(s, max_len=1)
    mor = DMorphism(OrderMap((1,), 1), OrderMap((0, 1), 1), (1,))
    _tamper(monkeypatch, diagram, mor, diagram.structure_map(mor).scale(2))
    report = is_homotopical(diagram)
    assert not report.ok
    assert any("1->0,1" in i.location for i in report.failures())
    # a non-chain-map entry is reported distinctly
    x2 = ChainComplex("x2", {0: 1, 1: 1}, {}, {0: ("a",), 1: ("b",)})
    s2 = make_strict([GradedMap.identity(x2)])
    diagram2 = build_frame_diagram(s2, max_len=1)
    noncycle = GradedMap(
        diagram2.objects[OrderMap((1,), 1)].complex,
        diagram2.objects[OrderMap((0, 1), 1)].complex,
        0,
        {1: from_rows([[0], [0], [1]])},
    )
    assert not noncycle.is_cycle()
    _tamper(monkeypatch, diagram2, DMorphism(OrderMap((1,), 1), OrderMap((0, 1), 1), (1,)), noncycle)
    report = is_homotopical(diagram2)
    flagged = [i for i in report.failures() if "1->0,1" in i.location]
    assert flagged and flagged[0].witness == "structure map is not a chain map"


def test_is_homotopical_falls_back_to_cone_homology(monkeypatch):
    """A frame whose retraction is corrupted has no certificate: the
    max-preserving morphisms touching it are decided by cone homology, the
    others pass on their certificates without a cone, and a broken structure
    map still fails with its cone homology."""
    s = random_simplex(random.Random(66), 2)
    diagram = build_frame_diagram(s, max_len=2)
    bad = OrderMap((0, 1, 1), 2)
    true_retraction = frames.retraction
    monkeypatch.setattr(frames, "retraction", lambda o: true_retraction(o).scale(1 + (o.alpha == bad)))
    decided_by_cone = []
    true_cone = frames.cone
    monkeypatch.setattr(frames, "cone", lambda g: decided_by_cone.append(g) or true_cone(g))

    report = is_homotopical(diagram)
    assert report.ok, report.failures()
    maps = structure_maps(diagram)
    touching = [g for mor, g in maps.items() if is_weak_equivalence_d(mor) and bad in (mor.src, mor.tgt)]
    assert len(touching) > 1
    assert len(decided_by_cone) == len(touching) and all(a == b for a, b in zip(decided_by_cone, touching))

    mor = DMorphism(OrderMap((1,), 2), bad, (2,))
    scaled = maps[mor].scale(2)
    _tamper(monkeypatch, diagram, mor, scaled)
    decided_by_cone.clear()
    flagged = [i for i in is_homotopical(diagram).failures() if i.location == "1->0,1,1[2]"]
    assert len(flagged) == 1 and flagged[0].witness.startswith("cone homology: ")
    assert sum(g is scaled for g in decided_by_cone) == 1


def test_check_simplicial_compat():
    rng = random.Random(64)
    s = random_simplex(rng, 2)
    diagram = build_frame_diagram(s, max_len=2)
    for m in range(3):
        for sigma in enumerate_order_maps(2, m):
            report = check_simplicial_compat(sigma, diagram)
            assert report.ok, (sigma.key(), report.failures())
            assert len(report.items) == len(enumerate_d_objects(m, 2))


def test_frame_factors_through_the_restriction():
    """B_s(alpha) and B_{act(alpha, s)}(id) are equal complexes, labels
    included, for every frame of a 3-simplex up to domain size 3."""
    s = random_simplex(random.Random(7), 3)
    alphas = enumerate_d_objects(3, 3)
    assert len(alphas) == 69
    for alpha in alphas:
        m = alpha.dom
        rebuilt = build_frame_object(act(alpha, s), OrderMap(tuple(range(m + 1)), m))
        assert build_frame_object(s, alpha).complex == rebuilt.complex, alpha.key()


def _rebuilt_compat_verdicts(sigma, diagram):
    """check_simplicial_compat's verdicts as they were decided before it
    compared restrictions: build every left frame afresh over act(sigma, s)
    and compare it with the diagram's frame as a literal complex."""
    t = act(sigma, diagram.simplex)
    return [
        build_frame_object(t, alpha).complex == diagram.objects[sigma.compose(alpha)].complex
        for alpha in enumerate_d_objects(sigma.dom, diagram.max_len)
    ]


def test_restriction_verdict_equals_the_rebuild_verdict():
    """Over criterion 8's simplices and one simplex that fails Maurer-Cartan,
    the reported verdict of every (sigma, alpha) item equals the verdict of
    rebuilding the frame."""
    rng = random.Random(800)
    sims = []
    for n in range(3):
        sims.append(random_simplex(rng, n, perturb=False))
        if n >= 2:
            sims.append(random_simplex(rng, n, perturb=True))
    w = ChainComplex("W", {0: 1, 1: 1}, {1: from_rows([[2]])}, {0: ("e0",), 1: ("e1",)})
    e = GradedMap(w, w, 1, {0: from_rows([[1]])})
    valid = gauge(make_strict([GradedMap.identity(w), GradedMap.identity(w)]), {(0, 2): e})
    invalid = NerveSimplex(valid.objects, {**valid.maps, (0, 1, 2): e.scale(2)})
    assert not validate_maurer_cartan(invalid).ok
    sims.append(invalid)
    for s in sims:
        diagram = build_frame_diagram(s, max_len=2)
        for m in range(3):
            for sigma in enumerate_order_maps(s.n, m):
                expected = _rebuilt_compat_verdicts(sigma, diagram)
                reported = [i.status == "pass" for i in check_simplicial_compat(sigma, diagram).items]
                assert reported == expected, (s, sigma.key())


def test_simplicial_compat_fails_on_a_swapped_frame():
    """Swap the frame at <0,1> for the frame of another simplex on the same
    objects: exactly the items landing on it fail, with ``frames differ``."""
    x = ChainComplex("X", {0: 1, 1: 1}, {1: from_rows([[2]])}, {0: ("e0",), 1: ("e1",)})
    s = make_strict([GradedMap.identity(x)])
    other = make_strict([GradedMap.identity(x).scale(-1)])
    edge = OrderMap((0, 1), 1)
    diagram = build_frame_diagram(s, max_len=2)
    diagram.objects[edge] = build_frame_object(other, edge)
    assert diagram.objects[edge].complex != build_frame_object(s, edge).complex

    failed = []
    landing = 0
    for m in range(3):
        for sigma in enumerate_order_maps(1, m):
            landing += sum(sigma.compose(a) == edge for a in enumerate_d_objects(m, 2))
            failed.extend(check_simplicial_compat(sigma, diagram).failures())
    assert landing == len(failed) > 1
    assert all(i.witness == "frames differ" for i in failed)


def _compat_failures(diagram, sigmas):
    """Assert that check_simplicial_compat gives the per-item loop's items
    along each sigma; return the number of failed items."""
    failed = 0
    for sigma in sigmas:
        items = check_simplicial_compat(sigma, diagram).items
        assert items == simplicial_compat_items(sigma, diagram), sigma.key()
        failed += sum(i.status == "fail" for i in items)
    return failed


def _reindexings(n, max_dom):
    return [sigma for m in range(max_dom + 1) for sigma in enumerate_order_maps(n, m)]


def test_simplicial_compat_equals_the_per_item_restriction_loop():
    """The table walk gives the items (location, status, witness) of the loop
    that built act(alpha, t) for each item, along every order map into [n]
    with domain size <= n + 2, on seeded n = 0..3 diagrams at max-len 1-3
    and on the swapped-frame diagram of the test above."""
    rng = random.Random(2600)
    for n in range(4):
        s = random_simplex(rng, n)
        for max_len in (1, 2, 3):
            assert _compat_failures(build_frame_diagram(s, max_len), _reindexings(n, n + 1)) == 0
    x = ChainComplex("X", {0: 1, 1: 1}, {1: from_rows([[2]])}, {0: ("e0",), 1: ("e1",)})
    edge = OrderMap((0, 1), 1)
    diagram = build_frame_diagram(make_strict([GradedMap.identity(x)]), max_len=2)
    diagram.objects[edge] = build_frame_object(make_strict([GradedMap.identity(x).scale(-1)]), edge)
    assert _compat_failures(diagram, _reindexings(1, 3)) > 1


@pytest.mark.parametrize("tamper", ["negated map", "dropped key", "extra key", "swapped object"])
def test_simplicial_compat_equals_the_loop_on_a_tampered_restriction(tamper):
    """One stored restriction of a seeded 2-simplex's diagram tampered: a map
    scaled by -1, a key dropped, a key added, or an object swapped for
    another.  The items landing on it fail, as in the per-item loop."""
    s = random_simplex(random.Random(9), 2)
    diagram = build_frame_diagram(s, max_len=2)
    o = diagram.objects[OrderMap((0, 1, 2), 2)]
    r = o.restriction
    key = next(k for k in increasing_sequences(2) if not r.maps[k].is_zero())
    t = o.restriction = copy.copy(r)
    if tamper == "negated map":
        t.maps = {**r.maps, key: r.maps[key].scale(-1)}
    elif tamper == "dropped key":
        t.maps = {k: f for k, f in r.maps.items() if k != key}
    elif tamper == "extra key":
        t.maps = {**r.maps, (0, 3): r.maps[key]}
    else:
        t.objects = (r.objects[1],) + r.objects[1:]
    assert t != r
    assert _compat_failures(diagram, _reindexings(2, 3)) > 0


# -- splitting, recovery, extension ---------------------------------------------


def test_split_identity():
    rng = random.Random(65)
    x = random_complex(rng, name="X")
    p, h = split_acyclic_cofibration(GradedMap.identity(x))
    assert p == GradedMap.identity(x)
    assert h.is_zero()


def test_split_cylinder_inclusion():
    rng = random.Random(66)
    for _ in range(8):
        x = random_complex(rng, name="X")
        y = random_complex(rng, name="Y")
        f = random_chain_map(rng, x, y)
        cyl, _, in_tgt, _ = cylinder(f)
        p, h = split_acyclic_cofibration(in_tgt)
        assert p.is_cycle()
        assert p @ in_tgt == GradedMap.identity(y)
        assert hom_differential(h) == (in_tgt @ p) - GradedMap.identity(cyl)
        assert (h @ in_tgt).is_zero()


def test_split_summand_inclusion():
    rng = random.Random(67)
    x = random_complex(rng, name="X")
    acyclic = ChainComplex("D", {0: 1, 1: 1}, {1: from_rows([[1]])}, {0: ("a",), 1: ("b",)})
    total, incl = direct_sum(x, acyclic)
    p, h = split_acyclic_cofibration(incl)
    assert p @ incl == GradedMap.identity(x)
    assert hom_differential(h) == (incl @ p) - GradedMap.identity(total)


def _split_inputs():
    """The last-vertex inclusions of the cylinder frames of seeded
    1-simplices, and the target inclusions of seeded mapping cylinders."""
    inclusions = []
    for seed in range(6):
        o = build_frame_object(random_simplex(random.Random(seed), 1), OrderMap((0, 1), 1))
        inclusions.append(include_last(o))
    rng = random.Random(73)
    for _ in range(4):
        x = random_complex(rng, name="X")
        y = random_complex(rng, name="Y")
        inclusions.append(cylinder(random_chain_map(rng, x, y))[2])
    return inclusions


def _split_case_payload():
    """(p, h) of split_acyclic_cofibration on :func:`_split_inputs`."""
    return [[m.to_json() for m in split_acyclic_cofibration(iota)] for iota in _split_inputs()]


def test_split_output_is_pinned():
    """p and h are one solution each of systems that can have many.  The
    ``recover`` report prints only p, so this digest is what pins h.  It was
    recorded while the systems were still assembled by probing with unit
    vectors."""
    payload = canonical_json(_split_case_payload())
    assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == (
        "b6d961471ad35ecf45480acb07bce580401e003116fac4cdf93e630ec3c7d557"
    )


def test_solve_retraction_is_the_retraction_of_the_split():
    """On the pinned splitting inputs, the retraction alone is the p of
    split_acyclic_cofibration, a chain map and a left inverse of iota."""
    for iota in _split_inputs():
        p = solve_retraction(iota)
        assert p == split_acyclic_cofibration(iota)[0]
        assert p @ iota == GradedMap.identity(iota.source)
        assert hom_differential(p).is_zero()


def test_solve_retraction_rejects_what_the_split_rejects():
    """The inputs of test_split_rejects_bad_inputs: both functions raise the
    same ValueError on each."""
    pt = point()
    rng = random.Random(68)
    x = random_complex(rng, name="X")
    w = ChainComplex("W", {0: 1, 1: 1}, {1: from_rows([[2]])}, {0: ("e0",), 1: ("e1",)})
    times2 = GradedMap(pt, point("q"), 0, {0: from_rows([[2]])})
    noncycle = GradedMap(w, w, 0, {0: from_rows([[1]])})
    assert not noncycle.is_cycle()
    bad = [
        ("the map is not degreewise split injective at degree 0", times2),
        ("the cone is not acyclic", direct_sum(pt, point("q", "q"))[1]),
        ("expected a chain map of degree 0", random_graded_map(rng, x, x, 1)),
        ("expected a chain map of degree 0", noncycle),
    ]
    for message, iota in bad:
        for split in (solve_retraction, split_acyclic_cofibration):
            with pytest.raises(ValueError) as err:
                split(iota)
            assert str(err.value) == message, (split.__name__, message)


def test_split_rejects_bad_inputs():
    pt = point()
    times2 = GradedMap(pt, point("q"), 0, {0: from_rows([[2]])})
    with pytest.raises(ValueError):
        split_acyclic_cofibration(times2)  # not degreewise split injective
    total, incl = direct_sum(pt, point("q", "q"))
    with pytest.raises(ValueError):
        split_acyclic_cofibration(incl)  # cone is not acyclic
    rng = random.Random(68)
    x = random_complex(rng, name="X")
    with pytest.raises(ValueError):
        split_acyclic_cofibration(random_graded_map(rng, x, x, 1))  # degree 1
    w = ChainComplex("W", {0: 1, 1: 1}, {1: from_rows([[2]])}, {0: ("e0",), 1: ("e1",)})
    noncycle = GradedMap(w, w, 0, {0: from_rows([[1]])})
    assert not noncycle.is_cycle()
    with pytest.raises(ValueError):
        split_acyclic_cofibration(noncycle)


def test_recover_edge_exactly_in_degree_zero():
    """For complexes concentrated in degree 0 the recovery has no room to
    differ: it must return the edge itself."""
    x = ChainComplex("X", {0: 2}, {}, {0: ("x0", "x1")})
    y = ChainComplex("Y", {0: 2}, {}, {0: ("y0", "y1")})
    g = GradedMap(x, y, 0, {0: from_rows([[2, 1], [0, 3]])})
    s = make_strict([g])
    o = build_frame_object(s, OrderMap((0, 1), 1))
    assert recover_map_from_cylinder(o) == g


def test_recover_edge_up_to_homotopy():
    rng = random.Random(69)
    for _ in range(6):
        x = random_complex(rng, max_rank=2, max_width=3, name="X")
        y = random_complex(rng, max_rank=2, max_width=3, name="Y")
        f = random_chain_map(rng, x, y)
        s = make_strict([f])
        o = build_frame_object(s, OrderMap((0, 1), 1))
        recovered = recover_map_from_cylinder(o)
        assert recovered.is_cycle()
        assert is_nullhomotopic(recovered - f) is not None
    with pytest.raises(ValueError):
        recover_map_from_cylinder(build_frame_object(s, OrderMap((0, 0), 1)))
    s2 = random_simplex(rng, 2)
    with pytest.raises(ValueError):
        recover_map_from_cylinder(build_frame_object(s2, OrderMap((0, 1), 2)))


def test_verify_mc_extension():
    rng = random.Random(70)
    f, gmap = None, None
    x = random_complex(rng, name="X")
    y = random_complex(rng, name="Y")
    z = random_complex(rng, name="Z")
    f = random_chain_map(rng, x, y)
    gmap = random_chain_map(rng, y, z)
    h = random_graded_map(rng, x, z, 1)
    full = gauge(make_strict([f, gmap]), {(0, 2): h})
    partial = NerveSimplex(full.objects, {k: v for k, v in full.maps.items() if k != (0, 1, 2)})
    assert verify_mc_extension(partial, h)
    assert verify_mc_extension(partial, h + hom_differential(random_graded_map(rng, x, z, 2)))
    strict = make_strict([f, gmap])
    strict_partial = NerveSimplex(strict.objects, {k: v for k, v in strict.maps.items() if k != (0, 1, 2)})
    assert verify_mc_extension(strict_partial, GradedMap.zero(x, z, 1))
    # a candidate that misses the coherence identity is rejected; build over a
    # complex whose hom differential is visibly nonzero in degree 1
    w = ChainComplex("W", {0: 1, 1: 1}, {1: from_rows([[2]])}, {0: ("e0",), 1: ("e1",)})
    e = GradedMap(w, w, 1, {0: from_rows([[1]])})  # e0 -> e1
    assert not hom_differential(e).is_zero()
    wfull = gauge(make_strict([GradedMap.identity(w), GradedMap.identity(w)]), {(0, 2): e})
    wpartial = NerveSimplex(wfull.objects, {k: v for k, v in wfull.maps.items() if k != (0, 1, 2)})
    assert verify_mc_extension(wpartial, e)
    assert not verify_mc_extension(wpartial, e.scale(2))
    with pytest.raises(ValueError):
        verify_mc_extension(NerveSimplex([x], {}), GradedMap.zero(x, x, 0))
    gap = NerveSimplex(full.objects, {k: v for k, v in full.maps.items() if len(k) == 2 and k != (0, 2)})
    with pytest.raises(ValueError):
        verify_mc_extension(gap, h)
