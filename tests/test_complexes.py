import random

import pytest

from dgframes.complexes import (
    ChainComplex,
    GradedMap,
    cone,
    graded_map_to_vector,
    hom_basis,
    hom_complex,
    hom_complex_diff,
    hom_differential,
    homology,
    is_acyclic,
    is_nullhomotopic,
    precompose_matrix,
    random_chain_map,
    random_complex,
    random_graded_map,
    shift,
    vector_to_graded_map,
    zero_complex,
)
from dgframes.dg_nerve import random_simplex
from dgframes.exact_linalg import IntMatrix, solve
from dgframes.frames import build_frame_object, include_last
from dgframes.simplicial import OrderMap

from oracles import block, cone_differential, cylinder, from_rows, is_unimodular, mat_vec


def two_step(scalar, name="X"):
    """Z in degrees 1 and 0 with d = multiplication by `scalar`."""
    return ChainComplex(
        name,
        {0: 1, 1: 1},
        {1: from_rows([[scalar]])},
        {0: ("e0",), 1: ("e1",)},
    )


def point(name="pt"):
    return ChainComplex(name, {0: 1}, {}, {0: ("p",)})


def test_complex_validation():
    x = two_step(2)
    assert x.support == (0, 1) and x.rank(0) == 1 and x.rank(1) == 1
    assert x.rank(5) == 0 and x.diff(5).is_zero()
    with pytest.raises(ValueError):
        # d^2 = 4 != 0
        ChainComplex(
            "bad",
            {0: 1, 1: 1, 2: 1},
            {1: from_rows([[2]]), 2: from_rows([[2]])},
            {0: ("a",), 1: ("b",), 2: ("c",)},
        )
    with pytest.raises(ValueError):
        ChainComplex("bad", {0: 2}, {}, {0: ("a",)})  # label count mismatch


def test_zero_ranks_dropped():
    x = ChainComplex("x", {0: 1, 1: 0}, {}, {0: ("a",), 1: ()})
    assert x.support == (0,) and x.rank(1) == 0


def test_hom_differential_hand_oracle():
    # X: Z --2--> Z in degrees 1,0; f degree 0 with f_0 = 1, f_1 = 0.
    # (D f)_1 = d compose f_1 - f_0 compose d = 0 - 1*2 = -2.
    x = two_step(2)
    f = GradedMap(x, x, 0, {0: from_rows([[1]]), 1: from_rows([[0]])})
    df = hom_differential(f)
    assert df.degree == -1
    assert df.mat(1) == from_rows([[-2]])
    assert df.mat(0).is_zero()


def test_hom_differential_squares_to_zero():
    rng = random.Random(10)
    for _ in range(40):
        x = random_complex(rng, name="X")
        y = random_complex(rng, name="Y")
        f = random_graded_map(rng, x, y, rng.randint(-2, 2))
        assert hom_differential(hom_differential(f)).is_zero()


def test_chain_maps_are_cycles():
    rng = random.Random(11)
    for _ in range(30):
        x = random_complex(rng, name="X")
        y = random_complex(rng, name="Y")
        f = random_chain_map(rng, x, y)
        assert f.is_cycle()
        assert hom_differential(f).is_zero()
    x = random_complex(rng, name="X")
    assert hom_differential(GradedMap.identity(x)).is_zero()


def test_graded_map_algebra():
    rng = random.Random(12)
    x = random_complex(rng, name="X")
    y = random_complex(rng, name="Y")
    f = random_graded_map(rng, x, y, 0)
    g = random_graded_map(rng, x, y, 0)
    assert (f + g) - g == f
    assert f.scale(3) - f - f - f == GradedMap.zero(x, y, 0)
    with pytest.raises(ValueError):
        f + random_graded_map(rng, x, y, 1)


def test_composition_carries_no_sign():
    rng = random.Random(13)
    for _ in range(20):
        x = random_complex(rng, name="X")
        y = random_complex(rng, name="Y")
        z = random_complex(rng, name="Z")
        f = random_graded_map(rng, x, y, rng.randint(-1, 2))
        g = random_graded_map(rng, y, z, rng.randint(-1, 2))
        gf = g @ f
        assert gf.degree == f.degree + g.degree
        d = rng.randint(-1, 3)
        col = [rng.randint(-2, 2) for _ in range(x.rank(d))]
        if x.rank(d):
            via_f = mat_vec(f.mat(d), col)
            assert mat_vec(g.mat(d + f.degree), via_f) == mat_vec(gf.mat(d), col)


def test_shift():
    x = two_step(2)
    s = shift(x, 1)
    assert s.support == (1, 2)
    assert s.diff(2) == from_rows([[-2]])  # odd shift flips the sign
    assert s.labels(1) == ("e0",)
    assert shift(x, 2).diff(3) == from_rows([[2]])
    assert shift(shift(x, 1), -1) == x
    assert shift(x, 0) == x


def test_cone_examples():
    x = two_step(2)
    ident = GradedMap.identity(x)
    assert is_acyclic(cone(ident))
    zero = GradedMap.zero(x, x, 0)
    hz = homology(cone(zero))
    # cone of zero = X[1] (+) X
    assert hz.group(0) == "Z/2" and hz.group(1) == "Z/2"
    times2 = GradedMap(point("a"), point("b"), 0, {0: from_rows([[2]])})
    h2 = homology(cone(times2))
    assert h2.group(0) == "Z/2" and h2.group(1) == "0"
    with pytest.raises(ValueError):
        cone(GradedMap(x, x, 0, {0: from_rows([[1]]), 1: from_rows([[0]])}))


def test_cone_labels():
    x = point("a")
    y = point("b")
    c = cone(GradedMap.zero(x, y, 0))
    assert c.labels(0) == ("t|p",)
    assert c.labels(1) == ("s|p",)


def _cone_cases():
    """The maps whose cones the tests here judge: the examples, the
    mapping-cylinder maps of the draws of Random(14) and Random(18) with the
    chain maps they are built on, and the chain maps of Random(19)."""
    x = two_step(2)
    maps = [GradedMap.identity(x), GradedMap.zero(x, x, 0), GradedMap(point("a"), point("b"), 0, {0: from_rows([[2]])})]
    for seed, draws in ((14, 25), (18, 15)):
        rng = random.Random(seed)
        for _ in range(draws):
            a = random_complex(rng, name="A")
            b = random_complex(rng, name="B")
            f = random_chain_map(rng, a, b)
            maps += [f, *cylinder(f)[1:]]
    rng, drawn = random.Random(19), 0
    while drawn < 25:
        a = random_complex(rng, max_rank=2, max_width=3, name="X")
        b = random_complex(rng, max_rank=2, max_width=3, name="Y")
        if a.total_rank() + b.total_rank() > 8:
            continue
        maps.append(random_chain_map(rng, a, b))
        drawn += 1
    return maps


def test_cone_differential_is_the_dense_block_matrix():
    """In every degree, the differential of cone(f) equals [[-d_X, 0],
    [-f, d_Y]] entry for entry, as ``oracles.cone_differential`` writes it
    into dense rows, on the maps of :func:`_cone_cases`.  Many of those
    degrees have a nonzero f block, so its sign is pinned too."""
    with_f = 0
    for f in _cone_cases():
        c = cone(f)
        for d in c.support:
            assert c.diff(d).to_lists() == cone_differential(f, d), (f, d)
            with_f += not f.mat(d - 1).is_zero()
    assert with_f > 100


def test_cylinder_shape_and_identities():
    rng = random.Random(14)
    for _ in range(25):
        x = random_complex(rng, name="X")
        y = random_complex(rng, name="Y")
        f = random_chain_map(rng, x, y)
        cyl, in_src, in_tgt, proj = cylinder(f)
        for d in cyl.support:
            assert cyl.rank(d) == x.rank(d) + y.rank(d) + x.rank(d - 1)
        for g in (in_src, in_tgt, proj):
            assert g.is_cycle()
        assert proj @ in_tgt == GradedMap.identity(y)
        assert proj @ in_src == f
        assert is_acyclic(cone(in_tgt))  # target inclusion is a weak equivalence
        assert is_nullhomotopic(in_src - in_tgt @ f) is not None


def test_cylinder_identity_map():
    x = point()
    cyl, _, _, _ = cylinder(GradedMap.identity(x))
    assert cyl.support == (0, 1) and cyl.rank(0) == 2 and cyl.rank(1) == 1
    assert homology(cyl).group(0) == "Z"


def test_hom_complex_of_point_is_target():
    rng = random.Random(15)
    pt = point()
    for _ in range(10):
        y = random_complex(rng, name="Y")
        h = hom_complex(pt, y)
        assert h.support == y.support
        for d in y.support:
            assert h.rank(d) == y.rank(d)
            assert h.diff(d) == y.diff(d)


def test_hom_complex_matches_hom_differential():
    """The matrix of the hom-complex differential, applied to the coordinate
    vector of f, must equal the coordinate vector of D(f)."""
    rng = random.Random(16)
    for _ in range(40):
        x = random_complex(rng, name="X")
        y = random_complex(rng, name="Y")
        n = rng.randint(-2, 2)
        f = random_graded_map(rng, x, y, n)
        h = hom_complex(x, y)
        vec = graded_map_to_vector(f)
        if h.rank(n):
            dvec = mat_vec(h.diff(n), vec)
            assert list(dvec) == list(graded_map_to_vector(hom_differential(f)))
        back = vector_to_graded_map(x, y, n, vec)
        assert back == f


def test_hom_basis_order_matches_labels():
    x = two_step(2, "X")
    y = two_step(3, "Y")
    h = hom_complex(x, y)
    b = hom_basis(x, y, 0)
    assert len(b) == h.rank(0)
    assert h.labels(0)[0].startswith("%d:" % b[0][0])


def test_homology_examples():
    assert homology(two_step(1)).is_trivial()
    h = homology(two_step(2))
    assert h.group(0) == "Z/2" and h.group(1) == "0"
    h = homology(two_step(0))
    assert h.group(0) == "Z" and h.group(1) == "Z"
    assert homology(zero_complex()).is_trivial()
    x = ChainComplex(
        "tor", {0: 1, 1: 2}, {1: from_rows([[2, 3]])}, {0: ("a",), 1: ("b", "c")}
    )
    h = homology(x)
    assert h.group(0) == "0" and h.group(1) == "Z"


def test_homology_unimodular_invariance():
    """Conjugating the differentials by degreewise unimodular matrices changes
    the complex but not its homology."""
    rng = random.Random(17)
    for _ in range(20):
        x = random_complex(rng, name="X")
        us = {}
        for d in x.support:
            n = x.rank(d)
            u = IntMatrix.identity(n)
            for _ in range(3):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    e = IntMatrix.identity(n) + IntMatrix.from_entries(n, n, {(i, j): rng.randint(-2, 2)})
                    u = e @ u
            us[d] = u
            assert is_unimodular(u)
        diffs = {}
        for d in x.support:
            if x.rank(d) and x.rank(d - 1):
                lo = us.get(d - 1, IntMatrix.identity(x.rank(d - 1)))
                diffs[d] = lo @ x.diff(d) @ _inverse_unimodular(us[d])
        y = ChainComplex("Y", {d: x.rank(d) for d in x.support}, diffs)
        hx, hy = homology(x), homology(y)
        for d in set(hx.degrees()) | set(hy.degrees()):
            assert hx.group(d) == hy.group(d)


def _inverse_unimodular(u):
    n = u.rows
    cols = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        x = solve(u, e)
        assert x is not None
        cols.append(x)
    return IntMatrix(n, n, [[cols[j][i] for j in range(n)] for i in range(n)])


def test_is_weak_equivalence_examples():
    x = point("x")
    times2 = GradedMap(x, point("y"), 0, {0: from_rows([[2]])})
    assert not is_acyclic(cone(times2))
    assert is_acyclic(cone(GradedMap.identity(x)))
    rng = random.Random(18)
    for _ in range(15):
        a = random_complex(rng, name="A")
        b = random_complex(rng, name="B")
        f = random_chain_map(rng, a, b)
        cyl, _, in_tgt, proj = cylinder(f)
        assert is_acyclic(cone(in_tgt))
        assert is_acyclic(cone(proj))


def test_weak_equivalence_matches_homotopy_inverse_search():
    """On small complexes, f is a weak equivalence iff the linear system
    "D(g) = 0, g f - id = D(h), f g - id = D(h')" admits an integer solution
    (g, h, h').  We freeze that joint solve as an independent oracle."""
    rng = random.Random(19)
    checked = 0
    while checked < 25:
        x = random_complex(rng, max_rank=2, max_width=3, name="X")
        y = random_complex(rng, max_rank=2, max_width=3, name="Y")
        if x.total_rank() + y.total_rank() > 8:
            continue
        f = random_chain_map(rng, x, y)
        assert is_acyclic(cone(f)) == _has_homotopy_inverse(f)
        checked += 1


def _has_homotopy_inverse(f):
    """Solve for (g, h, h') with D(g) = 0, g f - id_X = D(h), f g - id_Y = D(h')."""
    x, y = f.source, f.target
    hyx = hom_complex(y, x)
    hxx = hom_complex(x, x)
    hyy = hom_complex(y, y)
    ng = len(hom_basis(y, x, 0))
    nh = len(hom_basis(x, x, 1))
    nh2 = len(hom_basis(y, y, 1))
    nr1 = len(hom_basis(x, x, 0))
    nr2 = len(hom_basis(y, y, 0))
    nr3 = len(hom_basis(y, x, -1))
    pre_f = _matrix_of(lambda g: g @ f, y, x, 0, x, x, 0)
    post_f = _matrix_of(lambda g: f @ g, y, x, 0, y, y, 0)
    d_g = _matrix_of(hom_differential, y, x, 0, y, x, -1)
    d_h = _matrix_of(hom_differential, x, x, 1, x, x, 0)
    d_h2 = _matrix_of(hom_differential, y, y, 1, y, y, 0)
    a = block(
        [
            [pre_f, d_h.scale(-1), IntMatrix.zeros(nr1, nh2)],
            [post_f, IntMatrix.zeros(nr2, nh), d_h2.scale(-1)],
            [d_g, IntMatrix.zeros(nr3, nh), IntMatrix.zeros(nr3, nh2)],
        ]
    )
    rhs = (
        tuple(graded_map_to_vector(GradedMap.identity(x)))
        + tuple(graded_map_to_vector(GradedMap.identity(y)))
        + tuple([0] * nr3)
    )
    return solve(a, rhs) is not None


def _matrix_of(op, sx, sy, sdeg, tx, ty, tdeg):
    """Matrix of a linear operator between hom spaces in hom_basis coordinates."""
    src = hom_basis(sx, sy, sdeg)
    n_rows = len(hom_basis(tx, ty, tdeg))
    cols = []
    for k, i, j in src:
        elem = GradedMap(
            sx, sy, sdeg,
            {k: IntMatrix.from_entries(sy.rank(k + sdeg), sx.rank(k), {(j, i): 1})},
        )
        cols.append(list(graded_map_to_vector(op(elem))))
    return IntMatrix(n_rows, len(cols), [[cols[j][i] for j in range(len(cols))] for i in range(n_rows)])


def test_mapping_complex_matrices_match_the_probe():
    """precompose_matrix and the differentials of hom_complex equal the
    matrices read off by applying the operators to every elementary map, on
    random pairs and on the last-vertex inclusions of cylinder frames."""
    rng = random.Random(24)
    maps = []
    for _ in range(30):
        x = random_complex(rng, name="X")
        y = random_complex(rng, name="Y")
        maps.append(random_graded_map(rng, x, y, rng.randint(-1, 1)))
    for seed in range(8):
        s = random_simplex(random.Random(seed), 1, max_rank=rng.randint(2, 4))
        maps.append(include_last(build_frame_object(s, OrderMap((0, 1), 1))))
    for iota in maps:
        x, y, r = iota.source, iota.target, iota.degree
        for n in range(-1, 2):
            for z in (x, y):
                assert precompose_matrix(iota, z, n) == _matrix_of(lambda g: g @ iota, y, z, n, x, z, n + r)
            for a, b in ((y, x), (y, y), (x, y)):
                assert hom_complex(a, b).diff(n) == _matrix_of(hom_differential, a, b, n, a, b, n - 1)


def test_hom_complex_diff_is_the_differential_of_hom_complex():
    """One differential built alone equals the one of the whole mapping
    complex, in every degree from one below the lowest to one above the
    highest, the 0 x k and k x 0 ends and the empty complex included."""
    rng = random.Random(37)
    pairs = [(random_complex(rng, name="X"), random_complex(rng, name="Y")) for _ in range(40)]
    pairs += [(zero_complex(), pairs[0][1]), (pairs[0][0], zero_complex())]
    shapes = set()
    for x, y in pairs:
        h = hom_complex(x, y)
        lo = y.min_degree() - x.max_degree()
        hi = y.max_degree() - x.min_degree()
        for n in range(lo - 1, hi + 2):
            m = hom_complex_diff(x, y, n)
            assert m == h.diff(n), (x, y, n)
            shapes.add((m.rows > 0, m.cols > 0))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_is_nullhomotopic():
    x = two_step(2)
    assert is_nullhomotopic(GradedMap.zero(x, x, 0)) is not None
    assert is_nullhomotopic(GradedMap.identity(point())) is None
    rng = random.Random(20)
    for _ in range(15):
        a = random_complex(rng, name="A")
        b = random_complex(rng, name="B")
        h = random_graded_map(rng, a, b, 1)
        witness = is_nullhomotopic(hom_differential(h))
        assert witness is not None
        assert hom_differential(witness) == hom_differential(h)


def test_is_nullhomotopic_outside_the_hom_support():
    """Degrees r or r + 1 outside the support of Map(X, Y), and X or Y zero:
    the witness h satisfies D(h) = f, and None comes only for a cycle that
    is not a boundary."""
    pt0, pt1, zero = point("P0"), ChainComplex("P1", {1: 1}), zero_complex()
    for x, y in [(pt0, pt0), (pt0, pt1), (pt1, pt0), (zero, pt0), (pt0, zero), (zero, zero)]:
        for r in range(-3, 4):
            f = GradedMap.zero(x, y, r)
            witness = is_nullhomotopic(f)
            assert witness is not None and witness.degree == r + 1
            assert hom_differential(witness) == f
    # Map(P0, P0) and Map(P0, P1) are a single Z with no differential
    assert is_nullhomotopic(GradedMap.identity(pt0)) is None
    assert is_nullhomotopic(GradedMap(pt0, pt1, 1, {0: from_rows([[3]])})) is None
    rng = random.Random(23)
    for _ in range(12):
        x = random_complex(rng, max_width=2, name="X")
        y = random_complex(rng, max_width=2, name="Y")
        for r in range(-6, 6):
            f = hom_differential(random_graded_map(rng, x, y, r + 1))
            witness = is_nullhomotopic(f)
            assert witness is not None and hom_differential(witness) == f


def test_json_roundtrip():
    rng = random.Random(21)
    for _ in range(10):
        x = random_complex(rng, name="X")
        assert ChainComplex.from_json(x.to_json()) == x
        y = random_complex(rng, name="Y")
        f = random_chain_map(rng, x, y)
        assert GradedMap.from_json(f.to_json(), x, y) == f
    with pytest.raises(ValueError):
        ChainComplex.from_json({"name": "x"})
    with pytest.raises(ValueError):
        ChainComplex.from_json("not an object")


def test_random_generators_are_wellformed():
    rng = random.Random(22)
    for _ in range(30):
        x = random_complex(rng, name="X")
        assert x.d_squared_defects() == []
        y = random_complex(rng, name="Y")
        f = random_chain_map(rng, x, y)
        assert f.is_cycle()
