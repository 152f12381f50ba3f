import copy
import hashlib
import json
import random
import re

import pytest

from dgframes import cli
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
    twisting_plan,
    validate_maurer_cartan,
)
from dgframes.exact_linalg import IntMatrix
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
    block,
    blocks,
    cylinder,
    frame_by_hand,
    from_rows,
    latching_data,
    morphism_key,
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
    structure = {morphism_key(mor): g.to_json() for mor, g in structure_maps(diagram).items()}
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
    layout = blocks(o)
    assert sorted(layout) == list(o.complex.support)
    for d, spans in layout.items():
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


def test_the_subset_plan_equals_the_tuple_formulas():
    """Every entry of the plan ``twisting_plan(m)``, m = 0..8, equals the
    tuple formula it stands for: the subsets in ``nonempty_subsets`` order,
    the label prefix "s_0,...,s_k|", the shift k = |S| - 1, S[0], the index
    of S + (m,) (-1 when m is in S), and per j = 1..k the indices of
    S[:j] + S[j+1:], S[j:] and S[:j+1] and the signs (-1)^j and
    (-1)^{(j-1)k}; its index maps each subset to its position, and
    ``increasing_sequences(m)`` lists the subsets past the singletons.  The
    plan cache is bounded."""
    from dgframes.simplicial import nonempty_subsets

    assert twisting_plan.cache_info().maxsize is not None
    for m in range(9):
        subsets, prefixes, plan, index = twisting_plan(m)
        assert list(subsets) == nonempty_subsets(m) and len(prefixes) == len(plan) == len(subsets)
        assert index == {S: i for i, S in enumerate(subsets)}
        assert increasing_sequences(m) == subsets[m + 1 :]
        for S, prefix, row in zip(subsets, prefixes, plan):
            k = len(S) - 1
            assert prefix == ",".join(map(str, S)) + "|"
            assert row[:3] == (k, S[0], -1 if m in S else index[S + (m,)]) and len(row) == 3 + 5 * k
            for j in range(1, k + 1):
                face, face_sign, suffix, split_sign, prefix_index = row[5 * j - 2 : 5 * j + 3]
                assert subsets[face] == S[:j] + S[j + 1 :] and subsets[suffix] == S[j:]
                assert (face_sign, split_sign) == ((-1) ** j, (-1) ** ((j - 1) * k))
                assert subsets[prefix_index] == S[: j + 1]


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
    diagram.objects[alpha] = frame_by_hand(o, bad)
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
    assert o.complex.rank(1) == 3 and blocks(o)[1] == _LAYOUTS["untouched"][0]
    spans, split = _LAYOUTS[layout]
    relaid = {d: spans if d == 1 else b for d, b in blocks(o).items() if d != 1 or spans is not None}
    diagram.objects[alpha] = frame_by_hand(o, spans=relaid)
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


def test_check_last_vertex_refuses_maps_that_do_not_fit(monkeypatch):
    """A j into another frame's complex does not fit as X -> B -> X:
    ValueError, before any identity is decided."""
    s = random_simplex(random.Random(61), 2)
    o, other = build_frame_object(s, OrderMap((0, 1), 2)), build_frame_object(s, OrderMap((0, 1, 2), 2))
    _, r, h = last_vertex_data(o)
    monkeypatch.setattr(frames, "last_vertex_data", lambda f: (include_last(other), r, h))
    with pytest.raises(ValueError, match="do not fit together"):
        check_last_vertex(o)


def test_a_frame_missing_a_block_raises_a_value_error_that_names_it():
    """The frame at 0 of random_simplex(Random(7), 2), built by hand without
    its {0} block in degree 1: check_last_vertex raises ValueError naming
    B(0), the subset and the degree, where it raised a bare KeyError from
    the layout, and ``latching-split`` fails that frame.  Set into the
    diagram in place of the recorded frame, it is not proven, so
    is_homotopical fails the three items into B(0), B(0,0) and B(0,0,0)
    from it, naming it, without reading its layout.  Of the 416
    single-block drops from a frame of the 2-simplices of seeds 7, 105 and 3
    at max-len 2, check_last_vertex raises that error for the dropped block
    on 254, and is_homotopical fails exactly the items that touch the
    dropped frame, 1814 in all."""
    s = random_simplex(random.Random(7), 2)
    diagram = build_frame_diagram(s, 2)
    alpha = OrderMap((0,), 2)
    o = frame_by_hand(diagram.objects[alpha], spans={1: {}})  # its one block dropped
    dropped = build_frame_diagram(s, 2)
    dropped.objects[alpha] = o
    assert "latching-split" in {i.check for i in is_reedy_cofibrant(dropped).failures()}
    message = "B(0) has no block of the subset {0} in degree 1"
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        check_last_vertex(o)
    unrecorded = "endpoint B(%s) is not the frame build_frame_diagram recorded"
    assert [(i.check, i.location, i.status, i.witness) for i in is_homotopical(dropped).failures()] == [
        ("homotopical", location, "fail", unrecorded % "0") for location in ("0->0[0]", "0->0,0[1]", "0->0,0,0[2]")
    ]

    raised, drops, failed = 0, 0, 0
    for seed in (7, 105, 3):
        s = random_simplex(random.Random(seed), 2)
        diagram = build_frame_diagram(s, 2)
        for alpha, o in diagram.objects.items():
            layout = blocks(o)
            touching = [i.location for i in is_homotopical(diagram).items if alpha.key() in i.location.split("[")[0].split("->")]
            for d, spans in layout.items():
                for S in spans:
                    drops += 1
                    dropped = frame_by_hand(o, spans={**layout, d: {T: v for T, v in spans.items() if T != S}})
                    want = "B(%s) has no block of the subset {%s} in degree %d" % (alpha.key(), ",".join(map(str, S)), d)
                    try:
                        check_last_vertex(dropped)
                    except ValueError as err:
                        assert str(err) == want
                        raised += 1
                    diagram.objects[alpha] = dropped
                    failures = is_homotopical(diagram).failures()
                    diagram.objects[alpha] = o
                    assert [(i.location, i.witness) for i in failures] == [(loc, unrecorded % alpha.key()) for loc in touching]
                    failed += len(failures)
    assert drops == 416
    assert raised == 254
    assert failed == 1814


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


@pytest.mark.parametrize("tamper", ["negated map", "dropped key", "extra key", "swapped object", "reordered keys"])
def test_simplicial_compat_equals_the_loop_on_a_tampered_restriction(tamper):
    """One stored restriction of a seeded 2-simplex's diagram tampered: a map
    scaled by -1, a key dropped, a key added, or an object swapped for
    another.  The items landing on it fail, as in the per-item loop.  The
    same maps inserted in another key order are the same restriction, as
    dict equality has it: every item passes."""
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
    elif tamper == "reordered keys":
        t.maps = dict(reversed(r.maps.items()))
        assert list(t.maps) != list(r.maps) and t == r
        assert _compat_failures(diagram, _reindexings(2, 3)) == 0
        return
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


def test_split_output_is_pinned():
    """p and h are one solution each of systems that can have many.  The
    ``recover`` report prints only p, so this digest is what pins h.  It was
    recorded while the systems were still assembled by probing with unit
    vectors.  On each input, p is a chain map and a left inverse of iota."""
    payload = []
    for iota in _split_inputs():
        p, h = split_acyclic_cofibration(iota)
        assert p @ iota == GradedMap.identity(iota.source)
        assert hom_differential(p).is_zero()
        payload.append([p.to_json(), h.to_json()])
    assert hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest() == (
        "b6d961471ad35ecf45480acb07bce580401e003116fac4cdf93e630ec3c7d557"
    )


def test_split_names_the_precondition_each_bad_input_fails():
    """Four bad inputs: a map that is not degreewise split injective, one
    whose cone is not acyclic, a map of degree 1 and one that is no chain
    map.  The split raises a ValueError that names the failed precondition
    on each."""
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
        with pytest.raises(ValueError) as err:
            split_acyclic_cofibration(iota)
        assert str(err.value) == message


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


# -- frame and recover read the last-vertex equivalence --------------------------


def _frame_cases(case):
    """(simplex, alphas): seeds 0-2 of each n with every alpha of domain size
    <= 3, degenerate ones included, or the 8-long alpha of the benchmark's
    frame workload on random_simplex(Random(7), 3)."""
    if case == "r7n3-wide":
        return [(random_simplex(random.Random(7), 3), [OrderMap((0, 0, 1, 1, 2, 2, 3, 3), 3)])]
    n = int(case[1:])
    return [(random_simplex(random.Random(seed), n), list(enumerate_d_objects(n, 3))) for seed in range(3)]


@pytest.mark.parametrize("case", ["n0", "n1", "n2", "n3", "r7n3-wide"])
def test_frame_reports_the_homology_of_its_frame(tmp_path, case):
    """The homology that ``dgframes frame`` prints, read off X_{alpha(m)}
    through the last-vertex equivalence, equals the homology of B(alpha)
    itself, factored differential by differential."""
    out = tmp_path / "frame.txt"
    for s, alphas in _frame_cases(case):
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps(s.to_json()))
        for alpha in alphas:
            argv = ["frame", "--input", str(path), "--alpha", alpha.key(), "--format", "text", "--output", str(out)]
            assert cli.main(argv) == 0
            printed = dict(line[2:].split(" = ", 1) for line in out.read_text().splitlines() if line.startswith("H_"))
            h = homology(build_frame_object(s, alpha).complex)
            assert printed == {str(d): h.group(d) for d in h.degrees()}, alpha.key()


def test_recover_solves_the_checked_retraction_system():
    """On 1-simplices, the recovery read off the last-vertex verdict equals
    the one whose retraction re-proves its preconditions."""
    sims = [random_simplex(random.Random(seed), 1) for seed in range(10)]
    for s in sims + [random_simplex(random.Random(5), 1, max_rank=4)]:
        o = build_frame_object(s, OrderMap((0, 1), 1))
        assert recover_map_from_cylinder(o) == split_acyclic_cofibration(include_last(o))[0] @ o.summand_inclusion((0,))


# d_1 of B(<0,1>) over the identity of Z in degree 0, the columns of the
# basis "0|p", "1|p" and the one row "0,1|p": built as [[-1], [1]], and each
# tampering with the identity it breaks.  [[-2], [2]] also leaves H_0(B)
# = Z + Z/2, so the checked solve refuses it for its cone; [[-1], [2]] keeps
# H(B) = Z and j a quasi-isomorphism, and there the checked solve returns
# the retraction (2, 1) and a recovered edge of 2, not 1.
_TAMPERED_CYLINDERS = {
    "scaled": ([[-2], [2]], "last-vertex-homotopy: D(h) != j o r - id at degree 0"),
    "bent": ([[-1], [2]], "last-vertex-chain: D(r) != 0 at degree 1"),
}


@pytest.mark.parametrize("tamper", sorted(_TAMPERED_CYLINDERS))
def test_recover_and_the_equivalence_refuse_a_frame_that_fails_last_vertex(tamper):
    """A cylinder frame built by hand with its differential tampered, d^2 = 0
    kept: recovery and last_vertex_equivalence raise ValueError naming the
    failing identity.  (A frame with d^2 != 0 is refused for that first; see
    test_cli's test_frame_and_recover_refuse_a_frame_whose_d2_is_nonzero.)"""
    x = ChainComplex("X", {0: 1}, {}, {0: ("p",)})
    alpha = OrderMap((0, 1), 1)
    o = build_frame_object(make_strict([GradedMap.identity(x)]), alpha)
    c = o.complex
    assert c.diff(1).to_lists() == [[-1], [1]]
    rows, failure = _TAMPERED_CYLINDERS[tamper]
    bad = ChainComplex._trusted(c.name, {0: 2, 1: 1}, {1: from_rows(rows)}, {d: c.labels(d) for d in c.support})
    tampered = frame_by_hand(o, bad)
    assert not tampered.d2_defects
    for call in (recover_map_from_cylinder, frames.last_vertex_equivalence):
        with pytest.raises(ValueError) as err:
            call(tampered)
        assert str(err.value) == "B(0,1) fails " + failure
    assert frames.last_vertex_equivalence(o) is o.last_vertex


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
