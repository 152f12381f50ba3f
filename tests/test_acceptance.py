"""Acceptance suite: ten standalone criteria, one test (and one printed
pass/fail line) per criterion.  Run with ``pytest -v tests/test_acceptance.py``
for the per-criterion verdicts, or with ``-s`` to see the detail lines.
Criterion 6 has a second test: cone homology as the oracle of the
certificate that ``is_homotopical`` passes on.

The shared corpus is 200 seeded simplices of dimensions 0..3 in round-robin
(strict in dimensions 0 and 1, homotopy-perturbed in dimensions 2 and 3),
with object ranks <= 3 per degree across degrees -1..3.  Criteria 2, 5 and 7
share one sweep of every frame value with domain size <= 2 over that corpus.
All checks are exact integer identities; there are no tolerances anywhere.
"""

import random
import time
from math import comb

import pytest

from dgframes.complexes import (
    ChainComplex,
    GradedMap,
    cone,
    hom_basis,
    hom_differential,
    homology,
    is_acyclic,
    is_nullhomotopic,
    random_chain_map,
    random_complex,
    shift,
)
from dgframes.dg_nerve import (
    NerveSimplex,
    coherence_defect,
    make_strict,
    random_simplex,
    validate_maurer_cartan,
)
from dgframes.exact_linalg import IntMatrix, invariant_factors
from dgframes.frames import (
    build_frame_diagram,
    build_frame_object,
    check_last_vertex,
    check_simplicial_compat,
    is_homotopical,
    last_vertex_data,
    recover_map_from_cylinder,
    split_acyclic_cofibration,
)
from dgframes.simplicial import (
    DMorphism,
    OrderMap,
    enumerate_d_objects,
    enumerate_order_maps,
)

from oracles import (
    cylinder,
    from_rows,
    homotopy_inverse_certified,
    is_weak_equivalence_d,
    latching_data,
    structure_maps,
)

CORPUS_SIZE = 200


def _announce(n, detail):
    print("criterion %d: PASS — %s" % (n, detail))


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(0)
    t0 = time.perf_counter()
    sims = [random_simplex(rng, i % 4) for i in range(CORPUS_SIZE)]
    return sims, time.perf_counter() - t0


@pytest.fixture(scope="module")
def frame_sweep(corpus):
    """Every frame value with domain size <= 2 over the corpus, each asserted
    to have d^2 = 0; shared by criteria 2, 5 and 7."""
    sims, _ = corpus
    t0 = time.perf_counter()
    objs = []
    for idx, s in enumerate(sims):
        for alpha in enumerate_d_objects(s.n, 2):
            o = build_frame_object(s, alpha)
            assert o.d2_defects == []
            objs.append((idx, alpha, o))
    return objs, time.perf_counter() - t0


def _noncycle_elementary(s, key):
    x, y = s.objects[key[0]], s.objects[key[-1]]
    deg = len(key) - 2
    for (k, i, j) in hom_basis(x, y, deg):
        e = GradedMap(
            x, y, deg,
            {k: IntMatrix.from_entries(y.rank(k + deg), x.rank(k), {(j, i): 1})},
        )
        if not hom_differential(e).is_zero():
            return e
    return None


def test_criterion_01_maurer_cartan_suite(corpus):
    """All 200 simplices validate; every single-entry corruption that changes
    the hom-differential of a cochain is detected, with the violation reported
    at the corrupted key.  (Single-entry corruptions by hom-complex cycles
    produce another valid simplex and are therefore not detectable by any
    validator.)  Runtime < 10 s including corpus generation."""
    sims, gen_seconds = corpus
    t0 = time.perf_counter()
    for idx, s in enumerate(sims):
        report = validate_maurer_cartan(s)
        assert report.ok, (idx, report.failures())

    corrupted = 0
    immune = 0
    corruptible = 0
    full_validator_runs = 0
    for s in sims:
        if s.n == 0:
            continue
        found_here = False
        for key in s.cochain_keys():
            e = _noncycle_elementary(s, key)
            if e is None:
                continue
            tampered = dict(s.maps)
            tampered[key] = tampered[key] + e
            bad = NerveSimplex(list(s.objects), tampered)
            defect = coherence_defect(bad, key)
            assert defect == hom_differential(e)
            assert not defect.is_zero()
            corrupted += 1
            if not found_here:
                found_here = True
                corruptible += 1
                if corruptible % 10 == 1:  # full validator on a cross-section
                    report = validate_maurer_cartan(bad)
                    assert not report.ok
                    flagged = [item.location for item in report.failures()]
                    assert ",".join(str(v) for v in key) in flagged
                    full_validator_runs += 1
        if not found_here:
            immune += 1  # all hom differentials vanish: corruptions stay valid
    elapsed = gen_seconds + (time.perf_counter() - t0)
    assert corrupted >= 150
    assert full_validator_runs >= 8
    assert elapsed < 10.0, "criterion 1 took %.2fs" % elapsed
    _announce(
        1,
        "%d simplices validated, %d single-entry corruptions detected at their keys "
        "(%d re-checked by full validation, %d simplices provably immune) in %.2fs"
        % (len(sims), corrupted, full_validator_runs, immune, elapsed),
    )


def test_criterion_02_twisted_differential_squares_to_zero(corpus, frame_sweep):
    """d^2 = 0 matrix-exactly for every frame value with domain size <= 2 over
    the corpus (the builder's internal check raises otherwise, and the defect
    scan below re-asserts it).  Runtime < 60 s."""
    objs, seconds = frame_sweep
    for idx, alpha, o in objs:
        assert o.complex.d_squared_defects() == []
    assert len(objs) > 3000
    assert seconds < 60.0, "criterion 2 took %.2fs" % seconds
    _announce(2, "%d frame values built with exact d^2 = 0 in %.2fs" % (len(objs), seconds))


def test_criterion_03_cylinder_pinning():
    """For 20 random chain maps, the frame at <0,1> equals the mapping
    cylinder: same labels, same matrices, zero tolerance."""
    rng = random.Random(300)
    for trial in range(20):
        x = random_complex(rng, name="X")
        y = random_complex(rng, name="Y")
        f = random_chain_map(rng, x, y)
        s = make_strict([f])
        o = build_frame_object(s, OrderMap((0, 1), 1))
        cyl, in_src, in_tgt, proj = cylinder(f)
        assert o.complex == cyl  # ChainComplex equality includes labels
        for d in cyl.support:
            assert o.complex.labels(d) == cyl.labels(d)
            assert o.complex.diff(d) == cyl.diff(d)
        assert o.summand_inclusion((0,)) == in_src
        assert o.summand_inclusion((1,)) == in_tgt
    _announce(3, "frame at <0,1> is label- and matrix-identical to the cylinder, 20/20")


def test_criterion_04_copower_pinning():
    """Over the 0-simplex on Z in degree 0, the frame at the constant sequence
    of length m+1 <= 4 has rank C(m+1, b+1) in degree b and the homology of a
    point."""
    pt = ChainComplex("Z", {0: 1}, {}, {0: ("g",)})
    s = make_strict([], lone_object=pt)
    for m in range(4):
        alpha = OrderMap((0,) * (m + 1), 0)
        o = build_frame_object(s, alpha)
        for b in range(m + 1):
            assert o.complex.rank(b) == comb(m + 1, b + 1)
        assert o.complex.rank(m + 1) == 0
        h = homology(o.complex)
        assert h.group(0) == "Z" and h.degrees() == [0]
    _announce(4, "copower ranks C(m+1,b+1) and point homology for m+1 <= 4")


def test_criterion_05_last_vertex_identities(frame_sweep):
    """r o j = id and D(h) = j o r - id hold exactly on every frame value in
    criterion 2's sweep."""
    objs, _ = frame_sweep
    for idx, alpha, o in objs:
        j, r, h = last_vertex_data(o)
        assert r @ j == GradedMap.identity(j.source)
        assert hom_differential(h) == (j @ r) - GradedMap.identity(o.complex)
    _announce(5, "retraction and homotopy identities exact on %d frame values" % len(objs))


def test_criterion_06_homotopical_check(corpus):
    """Across a cross-section of the corpus, every max-preserving morphism of
    the truncated diagram has a structure map with acyclic cone; and the
    source-end inclusion over a non-invertible edge is a non-max-preserving
    morphism whose cone is genuinely not acyclic."""
    sims, _ = corpus
    indices = list(range(0, CORPUS_SIZE, 21))  # hits every dimension 0..3
    assert {sims[i].n for i in indices} == {0, 1, 2, 3}
    checked = 0
    for idx in indices:
        diagram = build_frame_diagram(sims[idx], 2)
        report = is_homotopical(diagram)
        assert report.ok, (idx, report.failures())
        checked += len(report.items)

    x = ChainComplex("x", {0: 1}, {}, {0: ("p",)})
    y = ChainComplex("y", {0: 1}, {}, {0: ("q",)})
    times2 = GradedMap(x, y, 0, {0: from_rows([[2]])})
    diagram = build_frame_diagram(make_strict([times2]), 1)
    counterexample = DMorphism(OrderMap((0,), 1), OrderMap((0, 1), 1), (0,))
    assert not is_weak_equivalence_d(counterexample)
    g = structure_maps(diagram)[counterexample]
    assert not is_acyclic(cone(g))
    assert homology(cone(g)).group(0) == "Z/2"
    _announce(
        6,
        "%d max-preserving structure maps have acyclic cones over %d diagrams; "
        "multiplication-by-2 source inclusion pinned as non-example" % (checked, len(indices)),
    )


def test_criterion_06_certificate_implies_acyclic_cone(corpus):
    """Cone homology as the oracle of the homotopy-inverse certificate that
    ``is_homotopical`` passes on: over criterion 6's cross-section, every
    structure map the certificate accepts has an acyclic cone, and it accepts
    every max-preserving one.  The multiplication-by-2 non-example is not
    accepted."""
    sims, _ = corpus
    for idx in range(0, CORPUS_SIZE, 21):
        diagram = build_frame_diagram(sims[idx], 2)
        last_vertex = {alpha: check_last_vertex(o) for alpha, o in diagram.objects.items()}
        for mor, g in structure_maps(diagram).items():
            if homotopy_inverse_certified(g, last_vertex[mor.src], last_vertex[mor.tgt]):
                assert is_acyclic(cone(g)), (idx, mor)
            else:
                assert not is_weak_equivalence_d(mor), (idx, mor)

    x = ChainComplex("x", {0: 1}, {}, {0: ("p",)})
    y = ChainComplex("y", {0: 1}, {}, {0: ("q",)})
    diagram = build_frame_diagram(make_strict([GradedMap(x, y, 0, {0: from_rows([[2]])})]), 1)
    last_vertex = {alpha: check_last_vertex(o) for alpha, o in diagram.objects.items()}
    counterexample = DMorphism(OrderMap((0,), 1), OrderMap((0, 1), 1), (0,))
    g = structure_maps(diagram)[counterexample]
    assert not homotopy_inverse_certified(g, last_vertex[counterexample.src], last_vertex[counterexample.tgt])


def test_criterion_07_reedy_check(corpus, frame_sweep):
    """Every latching inclusion in criterion 2's sweep is degreewise split
    injective over Z and its cokernel equals shift(X_{alpha(0)}, m) in ranks,
    differentials and labels."""
    sims, _ = corpus
    objs, _ = frame_sweep
    for idx, alpha, o in objs:
        sub, incl, coker = latching_data(o)
        for d in sub.support:
            fac = invariant_factors(incl.mat(d))
            assert len(fac) == sub.rank(d)
            assert all(v == 1 for v in fac)
        x = sims[idx].objects[alpha(0)]
        assert coker == shift(x, alpha.dom)
    _announce(7, "latching inclusions split with shifted-source cokernels on %d frame values" % len(objs))


def test_criterion_08_simplicial_compatibility():
    """For every order map sigma : [m] -> [n] with m, n <= 2 and every
    sequence of domain size <= 2, reindexing the simplex and then building the
    frame equals building the frame over the composite, as literal complexes.
    Checked over one strict and one perturbed simplex per target dimension."""
    rng = random.Random(800)
    targets = {}
    for n in range(3):
        targets[n] = [random_simplex(rng, n, perturb=False)]
        if n >= 2:
            targets[n].append(random_simplex(rng, n, perturb=True))
    pairs = 0
    for n in range(3):
        for s in targets[n]:
            diagram = build_frame_diagram(s, max_len=2)
            for m in range(3):
                for sigma in enumerate_order_maps(n, m):
                    report = check_simplicial_compat(sigma, diagram)
                    assert report.ok, (sigma.key(), report.failures())
                    pairs += len(report.items)
    _announce(8, "reindex/build square commutes literally for %d (sigma, alpha) pairs" % pairs)


def test_criterion_09_recovery():
    """For 20 random 1-simplices the recovered edge differs from f(<0,1>) by
    an exact hom-complex boundary; on degree-0-concentrated complexes the
    recovery is the edge itself."""
    rng = random.Random(900)
    for trial in range(20):
        x = random_complex(rng, max_rank=2, max_width=3, name="X")
        y = random_complex(rng, max_rank=2, max_width=3, name="Y")
        f = random_chain_map(rng, x, y)
        s = make_strict([f])
        o = build_frame_object(s, OrderMap((0, 1), 1))
        recovered = recover_map_from_cylinder(o)
        assert recovered.is_cycle()
        witness = is_nullhomotopic(recovered - f)
        assert witness is not None
        assert hom_differential(witness) == recovered - f
    exact = 0
    for trial in range(5):
        r0 = rng.randint(1, 3)
        r1 = rng.randint(1, 3)
        x = ChainComplex("X0", {0: r0}, {})
        y = ChainComplex("Y0", {0: r1}, {})
        g = GradedMap(
            x, y, 0,
            {0: IntMatrix(r1, r0, [[rng.randint(-3, 3) for _ in range(r0)] for _ in range(r1)])},
        )
        o = build_frame_object(make_strict([g]), OrderMap((0, 1), 1))
        assert recover_map_from_cylinder(o) == g
        exact += 1
    _announce(9, "20 recoveries are boundaries with exact witnesses; %d degree-0 cases equal the edge" % exact)


def test_criterion_10_splitting():
    """split_acyclic_cofibration succeeds on 20 generated acyclic cofibrations
    and its identities p o iota = id, D(h) = iota o p - id, h o iota = 0 hold
    exactly."""
    rng = random.Random(1000)
    for trial in range(20):
        x = random_complex(rng, max_rank=2, max_width=3, name="X")
        y = random_complex(rng, max_rank=2, max_width=3, name="Y")
        f = random_chain_map(rng, x, y)
        cyl, _, iota, _ = cylinder(f)
        p, h = split_acyclic_cofibration(iota)
        assert p.is_cycle()
        assert p @ iota == GradedMap.identity(y)
        assert hom_differential(h) == (iota @ p) - GradedMap.identity(cyl)
        assert (h @ iota).is_zero()
    _announce(10, "20 acyclic cofibrations split with exact retraction and homotopy")
