import os
import random
import resource
import subprocess
import sys

import pytest

from dgframes import complexes, dg_nerve, frames
from dgframes.complexes import (
    ChainComplex,
    GradedMap,
    hom_basis,
    hom_differential,
    hom_sign,
    random_chain_map,
    random_complex,
    random_graded_map,
    shift_sign,
)
from dgframes.dg_nerve import (
    NerveSimplex,
    act,
    coherence_defect,
    gauge,
    increasing_sequences,
    make_strict,
    random_simplex,
    twisting_plan,
    twisting_signs,
    validate_maurer_cartan,
)
from dgframes.exact_linalg import IntMatrix
from dgframes.reporting import Report
from dgframes.simplicial import OrderMap, enumerate_order_maps


def strict_pair(rng):
    x = random_complex(rng, name="X")
    y = random_complex(rng, name="Y")
    z = random_complex(rng, name="Z")
    f = random_chain_map(rng, x, y)
    g = random_chain_map(rng, y, z)
    return f, g


def test_increasing_sequences():
    assert increasing_sequences(1) == ((0, 1),)
    assert increasing_sequences(2) == ((0, 1), (0, 2), (1, 2), (0, 1, 2))
    assert increasing_sequences(0) == ()


def test_simplex_validation():
    rng = random.Random(30)
    f, g = strict_pair(rng)
    x, y = f.source, f.target
    with pytest.raises(ValueError):
        NerveSimplex([], {})
    with pytest.raises(ValueError):
        NerveSimplex([x, y], {(0, 0): f})  # key not strictly increasing
    with pytest.raises(ValueError):
        NerveSimplex([x, y], {(0, 2): f})  # key leaves [1]
    with pytest.raises(ValueError):
        NerveSimplex([x, y], {(0, 1): random_graded_map(rng, x, y, 1)})  # degree
    with pytest.raises(ValueError):
        NerveSimplex([x, y], {(0, 1): g})  # wrong endpoints


def test_eval_strict_unitality():
    rng = random.Random(31)
    f, g = strict_pair(rng)
    s = make_strict([f, g])
    assert s.n == 2 and not s.missing_count()
    assert s.eval((1, 1)) == GradedMap.identity(f.target)
    degen = s.eval((0, 0, 1))
    assert degen.is_zero() and degen.degree == 1
    assert s.eval((0, 1)) == f
    assert s.eval((0, 2)) == g @ f
    with pytest.raises(ValueError):
        s.eval((0,))
    with pytest.raises(ValueError):
        s.eval((1, 0))
    with pytest.raises(ValueError):
        s.eval((0, 5))
    partial = NerveSimplex([f.source, f.target], {})
    with pytest.raises(ValueError):
        partial.eval((0, 1))
    assert partial.missing_count()


def test_the_validator_refuses_an_incomplete_simplex_by_its_count():
    """41 objects and no map: ``validate_maurer_cartan`` raises ValueError
    naming the first missing key, found from the count of the missing keys,
    in a child process whose address space is capped at 1 GiB, where forming
    the 2^41 - 42 sequences first ran out of memory."""
    code = (
        "from dgframes.complexes import ChainComplex\n"
        "from dgframes.dg_nerve import NerveSimplex, validate_maurer_cartan\n"
        "try:\n"
        "    validate_maurer_cartan(NerveSimplex([ChainComplex('X', {})] * 41, {}))\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )
    src, limit = os.path.dirname(os.path.dirname(dg_nerve.__file__)), 1 << 30
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        timeout=20,
    )
    assert (done.returncode, done.stdout) == (0, b"no cochain stored at (0, 1)\n"), done.stderr[-300:]


def test_make_strict():
    rng = random.Random(32)
    f, g = strict_pair(rng)
    s = make_strict([f, g])
    assert s.maps[(0, 2)] == g @ f
    assert s.maps[(0, 1, 2)].is_zero()
    assert validate_maurer_cartan(s).ok
    lone = make_strict([], lone_object=f.source)
    assert lone.n == 0 and not lone.missing_count()
    assert validate_maurer_cartan(lone).ok
    with pytest.raises(ValueError):
        make_strict([])
    with pytest.raises(ValueError):
        make_strict([f, f])  # endpoints do not chain
    bad = random_graded_map(rng, f.source, f.target, 0)
    while bad.is_cycle():
        bad = random_graded_map(rng, f.source, f.target, 0)
    with pytest.raises(ValueError):
        make_strict([bad])


def test_gauge_builds_the_perturbed_2simplex():
    rng = random.Random(33)
    for _ in range(10):
        f, g = strict_pair(rng)
        h = random_graded_map(rng, f.source, g.target, 1)
        s = gauge(make_strict([f, g]), {(0, 2): h})
        assert s.maps[(0, 1)] == f and s.maps[(1, 2)] == g
        assert s.maps[(0, 2)] == (g @ f) + hom_differential(h)
        assert s.maps[(0, 1, 2)] == h
        assert validate_maurer_cartan(s).ok


def test_gauge_of_a_strict_3simplex_is_the_hand_derived_deformation():
    """u on (0,2), (1,3) and (0,3) moves the edges by D(u), fills the two
    triangles through those edges and shifts <0,1,3> and <0,2,3> by the
    composites of u with the strict edges."""
    rng = random.Random(36)
    checked = 0
    while checked < 5:
        x = [random_complex(rng, name="X%d" % i) for i in range(4)]
        f1, f2, f3 = (random_chain_map(rng, x[i], x[i + 1]) for i in range(3))
        h1, h2, h3 = (random_graded_map(rng, x[i], x[j], 1) for i, j in ((0, 2), (1, 3), (0, 3)))
        if (f3 @ h1).is_zero() or (h2 @ f1).is_zero():
            continue  # a draw where the u⌣f and f⌣u terms vanish shows neither
        checked += 1
        s = gauge(make_strict([f1, f2, f3]), {(0, 2): h1, (1, 3): h2, (0, 3): h3})
        assert s.maps == {
            (0, 1): f1,
            (1, 2): f2,
            (2, 3): f3,
            (0, 2): (f2 @ f1) + hom_differential(h1),
            (1, 3): (f3 @ f2) + hom_differential(h2),
            (0, 3): (f3 @ f2 @ f1) + hom_differential(h3),
            (0, 1, 2): h1,
            (1, 2, 3): h2,
            (0, 1, 3): h3 - (h2 @ f1),
            (0, 2, 3): h3 - (f3 @ h1),
            (0, 1, 2, 3): GradedMap.zero(x[0], x[3], 2),
        }
        assert validate_maurer_cartan(s).ok


def test_gauge_refuses_what_the_first_order_formula_cannot_carry():
    rng = random.Random(37)
    x = [random_complex(rng, name="X%d" % i) for i in range(5)]
    s = make_strict([random_chain_map(rng, x[i], x[i + 1]) for i in range(4)])
    assert gauge(s, {}) == s
    ok = random_graded_map(rng, x[0], x[2], 1)
    assert validate_maurer_cartan(gauge(s, {(0, 2): ok, (1, 3): random_graded_map(rng, x[1], x[3], 1)})).ok
    for u in (
        {(0, 2): ok, (2, 4): random_graded_map(rng, x[2], x[4], 1)},  # the two edges chain
        {(0, 2): random_graded_map(rng, x[0], x[2], 0)},  # degree 0
        {(0, 2): random_graded_map(rng, x[0], x[3], 1)},  # wrong endpoints
        {(0, 5): ok},  # leaves [4]
        {(2, 0): ok},  # not increasing
        {(0, 1, 2): ok},  # not an edge
    ):
        with pytest.raises(ValueError):
            gauge(s, u)


def test_random_simplices_validate():
    rng = random.Random(34)
    for n in range(4):
        for _ in range(4):
            s = random_simplex(rng, n)
            assert s.n == n and not s.missing_count()
            report = validate_maurer_cartan(s)
            assert report.ok, report.failures()
    strict = random_simplex(rng, 3, perturb=False)
    for key in strict.cochain_keys():
        if len(key) > 2:
            assert strict.maps[key].is_zero()


def test_random_simplex_names_the_failure_of_an_invalid_draw(monkeypatch):
    failing = Report()
    failing.add("maurer-cartan", "0,1,2", False, "degree 0 entry (0,0) = 1")
    monkeypatch.setattr(dg_nerve, "validate_maurer_cartan", lambda s: failing)
    with pytest.raises(AssertionError, match="0,1,2"):
        random_simplex(random.Random(0), 2)


def test_validator_report_shape():
    rng = random.Random(35)
    s = random_simplex(rng, 2)
    report = validate_maurer_cartan(s)
    locations = [item.location for item in report.items]
    assert locations == ["0,1", "0,2", "1,2", "0,1,2"]
    assert all(item.check == "maurer-cartan" for item in report.items)
    assert report.summary() == {"pass": 4, "fail": 0}


def _noncycle_elementary(s, key):
    """An elementary graded map at the endpoints/degree of s.maps[key] whose
    hom differential is nonzero, or None if every one is a cycle."""
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


def test_corruption_is_detected_and_located():
    """Adding a non-cycle elementary map to one stored cochain changes the
    coherence defect at that key by exactly its hom differential, so the
    validator must fail and must name the corrupted key."""
    rng = random.Random(36)
    found = 0
    while found < 12:
        n = rng.choice([1, 2, 3])
        s = random_simplex(rng, n)
        keys = list(s.cochain_keys())
        rng.shuffle(keys)
        for key in keys:
            e = _noncycle_elementary(s, key)
            if e is None:
                continue
            tampered = dict(s.maps)
            tampered[key] = tampered[key] + e
            bad = NerveSimplex(list(s.objects), tampered)
            defect = coherence_defect(bad, key)
            assert defect == hom_differential(e)
            assert not defect.is_zero()
            report = validate_maurer_cartan(bad)
            assert not report.ok
            flagged = [item.location for item in report.failures()]
            assert ",".join(str(v) for v in key) in flagged
            found += 1
            break


def test_act_identity_and_degeneracy():
    rng = random.Random(37)
    s = random_simplex(rng, 2)
    same = act(OrderMap((0, 1, 2), 2), s)
    assert same == s
    degen = act(OrderMap((0, 0, 1), 2), s)
    assert degen.objects[0] == degen.objects[1] == s.objects[0]
    assert degen.maps[(0, 1)] == GradedMap.identity(s.objects[0])
    assert degen.maps[(1, 2)] == s.maps[(0, 1)]
    assert degen.maps[(0, 1, 2)].is_zero()
    assert validate_maurer_cartan(degen).ok
    face = act(OrderMap((0, 2), 2), s)
    assert face.maps[(0, 1)] == s.maps[(0, 2)]
    assert validate_maurer_cartan(face).ok
    with pytest.raises(ValueError):
        act(OrderMap((0, 3), 3), s)  # leaves [2]


def test_act_refuses_an_order_map_into_another_codomain():
    """An OrderMap must land in [n] for an n-simplex, even when its values
    fit in [n]; the message names both codomains."""
    s = random_simplex(random.Random(36), 1)
    with pytest.raises(ValueError, match=r"codomain \[5\], not the simplex's \[1\]"):
        act(OrderMap((0, 1), 5), s)
    with pytest.raises(ValueError, match=r"codomain \[0\], not the simplex's \[1\]"):
        act(OrderMap((0, 0), 0), s)
    assert act(OrderMap((0, 1), 1), s) == s


def test_act_looks_values_up_without_eval(monkeypatch):
    """act passes sequences that are valid by construction, so it looks them
    up without eval's checks; eval keeps them for outside callers."""
    s = random_simplex(random.Random(34), 2)
    sigma = OrderMap((0, 1, 1, 2), 2)
    expected = act(sigma, s)
    monkeypatch.setattr(NerveSimplex, "eval", lambda self, seq: pytest.fail("act called eval"))
    assert act(sigma, s) == expected
    assert expected.maps[(1, 2)] == GradedMap.identity(s.objects[1])
    assert expected.maps[(0, 1, 2)].is_zero()


def test_act_functoriality():
    """act(tau, act(sigma, s)) == act(sigma o tau, s), exhaustively over
    order maps with domains of size <= 2."""
    rng = random.Random(38)
    s = random_simplex(rng, 2)
    for m in range(3):
        for sigma in enumerate_order_maps(2, m):
            mid = act(sigma, s)
            for k in range(3):
                for tau in enumerate_order_maps(m, k):
                    assert act(tau, mid) == act(sigma.compose(tau), s)


def test_act_preserves_validity():
    rng = random.Random(39)
    for n in range(1, 4):
        s = random_simplex(rng, n)
        for m in range(3):
            for sigma in enumerate_order_maps(n, m):
                assert validate_maurer_cartan(act(sigma, s)).ok


def test_json_roundtrip():
    rng = random.Random(40)
    for n in range(4):
        s = random_simplex(rng, n)
        back = NerveSimplex.from_json(s.to_json())
        assert back == s
    obj = s.to_json()
    del obj["maps"]
    with pytest.raises(ValueError):
        NerveSimplex.from_json(obj)
    obj = s.to_json()
    obj["n"] = 7
    with pytest.raises(ValueError):
        NerveSimplex.from_json(obj)
    obj = s.to_json()
    obj["maps"]["not-a-key"] = list(obj["maps"].values())[0]
    with pytest.raises(ValueError):
        NerveSimplex.from_json(obj)


def test_the_twisting_sign_table_equals_its_formula():
    for k in range(9):
        assert twisting_signs(k) == tuple((j, (-1) ** j, (-1) ** ((j - 1) * k)) for j in range(1, k + 1))


def test_the_sign_of_f_o_d_in_d_of_f_equals_its_formula():
    assert [hom_sign(n) for n in range(-3, 4)] == [-((-1) ** n) for n in range(-3, 4)]


def test_the_frame_differential_and_shift_read_one_shift_sign(monkeypatch):
    """The shift sign equals (-1)^n.  The d_X terms of the frame
    differential and ``shift`` read it from one helper: on a simplex whose
    objects have nonzero differentials, flipping it for the frame alone
    breaks ``latching-cokernel``, which compares a frame's full block with
    the shifted source, and flipping it for both keeps the item."""
    assert [shift_sign(n) for n in range(-3, 4)] == [(-1) ** n for n in range(-3, 4)]
    s = random_simplex(random.Random(3), 2)

    def cokernel_failures():
        items = frames.is_reedy_cofibrant(frames.build_frame_diagram(s, 2)).items
        return sum(i.check == "latching-cokernel" and i.status == "fail" for i in items)

    assert cokernel_failures() == 0
    monkeypatch.setattr(frames, "shift_sign", lambda n: -((-1) ** n))
    assert cokernel_failures() > 0
    monkeypatch.setattr(complexes, "shift_sign", lambda n: -((-1) ** n))
    assert cokernel_failures() == 0


def test_the_frame_differential_and_the_validator_read_one_sign_table():
    """The frame differential and the validator read their terms off one
    plan, ``twisting_plan``, which copies its signs from ``twisting_signs``:
    with both caches cleared, one build reads the table once per subset
    size, the plan's signs are the table's entries, and the validator, run
    after the frames of a diagram are built, makes only cache hits on the
    plan."""
    assert frames.twisting_plan is twisting_plan
    s = random_simplex(random.Random(7), 3)
    twisting_signs.cache_clear()
    twisting_plan.cache_clear()
    frames.build_frame_object(s, OrderMap((0, 1, 2, 3), 3))
    built = twisting_signs.cache_info()
    assert built.currsize == 4  # one table per subset size, k = 0..3
    frames.build_frame_diagram(s, 3)
    planned = twisting_plan.cache_info()
    assert validate_maurer_cartan(s).ok  # sequences of k = 1..3: every plan read is a hit
    after = twisting_plan.cache_info()
    assert (after.misses, after.currsize) == (planned.misses, planned.currsize) and after.hits > planned.hits
    assert twisting_signs.cache_info().misses == built.misses
    for row in twisting_plan(3)[2]:  # (k, S[0], up, then per j: face, face sign, suffix, split sign, prefix)
        assert row[4::5] == tuple(face for _, face, _ in twisting_signs(row[0]))
        assert row[6::5] == tuple(split for _, _, split in twisting_signs(row[0]))
