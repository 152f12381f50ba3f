import random
from itertools import product

import pytest

from dgframes import exact_linalg, frames
from dgframes.complexes import ChainComplex, GradedMap, graded_map_to_vector, hom_complex_diff, precompose_matrix
from dgframes.dg_nerve import random_simplex
from dgframes.exact_linalg import (
    IntMatrix,
    block,
    invariant_factors,
    kernel_basis,
    rank,
    snf,
    solve,
)
from dgframes.frames import build_frame_object, include_last, recover_map_from_cylinder
from dgframes.simplicial import OrderMap

from oracles import (
    det,
    diagonalize_exhaustive,
    from_rows,
    is_unimodular,
    kernel_basis_via_snf,
    mat_vec,
    matmul,
    snf_forward,
    solve_via_snf,
    submatrix,
    transpose,
)


def rand_matrix(rng, rows, cols, lo=-5, hi=5):
    return IntMatrix(rows, cols, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def test_matrix_basics():
    m = from_rows([[1, 2], [3, 4]])
    assert m[0, 1] == 2 and m[1, 0] == 3
    for ij in ((0, 5), (0, -1), (-1, 0), (2, 0), (0, 2)):
        with pytest.raises(IndexError):
            m[ij]
    assert (m + m.scale(-1)).is_zero()
    assert (m @ IntMatrix.identity(2)) == m
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2], [3]])
    z = IntMatrix.zeros(0, 3)
    assert z.rows == 0 and z.cols == 3 and z.is_zero()


def test_block_and_submatrix():
    a = from_rows([[1, 2], [3, 4]])
    b = IntMatrix.identity(2)
    m = block([[a, b], [b, a]])
    assert m.rows == 4 and m.cols == 4
    assert m[0, 2] == 1 and m[3, 1] == 1 and m[2, 2] == 1 and m[3, 3] == 4
    assert submatrix(m, [0, 1], [0, 1]) == a
    assert submatrix(m, [2, 3], [2, 3]) == a
    assert submatrix(m, [3, 2], [0, 1]) == from_rows([[0, 1], [1, 0]])


def test_snf_identity_and_zero():
    s, u, v = snf(IntMatrix.identity(2))
    assert s == IntMatrix.identity(2) and u == IntMatrix.identity(2) and v == IntMatrix.identity(2)
    s, u, v = snf(IntMatrix.zeros(2, 3))
    assert s.is_zero() and u == IntMatrix.identity(2) and v == IntMatrix.identity(3)


def test_snf_hand_oracle():
    # [[2,4],[6,8]]: gcd of entries 2, det = -8, so the factors are 2 and 8/2 = 4
    s, u, v = snf(from_rows([[2, 4], [6, 8]]))
    assert s == from_rows([[2, 0], [0, 4]])
    assert u @ from_rows([[2, 4], [6, 8]]) @ v == s


def test_snf_properties_random():
    rng = random.Random(0)
    for trial in range(200):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        s, u, v = snf(m)
        assert u @ m @ v == s
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        diag = [s[i, i] for i in range(min(s.rows, s.cols))]
        for i in range(s.rows):
            for j in range(s.cols):
                if i != j:
                    assert s[i, j] == 0
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0
        assert all(d >= 0 for d in diag)


def test_snf_deterministic():
    rng = random.Random(5)
    for _ in range(20):
        m = rand_matrix(rng, 4, 4)
        assert snf(m) == snf(m)


def test_solve_examples():
    assert solve(IntMatrix.identity(3), (5, -2, 7)) == (5, -2, 7)
    assert solve(from_rows([[2]]), (3,)) is None
    x = solve(from_rows([[2, 1]]), (5,))
    assert x is not None and 2 * x[0] + x[1] == 5
    with pytest.raises(ValueError):
        solve(IntMatrix.identity(2), (1, 2, 3))


def test_solve_against_brute_force():
    """Wherever a small-box search finds a solution, solve() must find one too
    (possibly a different one); whatever solve() returns must be exact."""
    rng = random.Random(1)
    for trial in range(150):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = rand_matrix(rng, rows, cols, -4, 4)
        b = tuple(rng.randint(-4, 4) for _ in range(rows))
        x = solve(m, b)
        if x is not None:
            assert mat_vec(m, x) == b
        else:
            for cand in product(range(-4, 5), repeat=cols):
                assert mat_vec(m, cand) != b


def test_kernel_examples():
    assert kernel_basis(IntMatrix.identity(3)) == []
    z = kernel_basis(IntMatrix.zeros(2, 2))
    assert len(z) == 2
    kb = kernel_basis(from_rows([[1, 1]]))
    assert len(kb) == 1 and tuple(kb[0]) in ((1, -1), (-1, 1))


def test_kernel_lattice_random():
    """Kernel vectors annihilate the matrix, span count = cols - rank, and the
    returned vectors generate the full integer kernel lattice: every in-box
    kernel vector is an integer combination of them."""
    rng = random.Random(2)
    for trial in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = rand_matrix(rng, rows, cols, -3, 3)
        kb = kernel_basis(m)
        for v in kb:
            assert mat_vec(m, v) == tuple([0] * rows)
        assert len(kb) == cols - rank(m)
        if kb:
            kmat = IntMatrix(cols, len(kb), [[kb[j][i] for j in range(len(kb))] for i in range(cols)])
            for cand in product(range(-2, 3), repeat=cols):
                if mat_vec(m, cand) == tuple([0] * rows):
                    assert solve(kmat, cand) is not None
        else:
            for cand in product(range(-2, 3), repeat=cols):
                if any(cand):
                    assert mat_vec(m, cand) != tuple([0] * rows)


# dense 7 x 7 torsion matrix: the row transform u of its Smith form grows
# entries of over 4300 digits, while v stays small
DENSE_TORSION_7X7 = (
    (-4, -2, 6, 3, 3, 0, 2),
    (-4, 2, 6, 6, -4, 2, -4),
    (-2, 2, 0, 6, 3, 9, 0),
    (0, 6, 0, -2, 3, 3, 6),
    (-2, -4, 2, 0, -4, 9, -2),
    (0, -4, 0, 0, 0, -2, 3),
    (9, -4, 0, -2, -4, 0, 0),
)


def test_kernel_basis_and_snf_equal_the_forward_replay_through_snf():
    """kernel_basis eliminates m's rows alone and replays the column record
    on unit vectors, and snf forms v by that replay too; both equal the
    snf that replayed the record forward on the identity, and the
    kernel_basis read off its v, on 3000 seeded matrices of at most 7 x 7,
    0-row and 0-column shapes among them, on the dense 7 x 7 torsion matrix
    (kernel_basis only: the oracle's u dominates its time) and on its top 6
    rows."""
    rng = random.Random(27)
    pool = (0, 0, 1, -1, 2, -3)
    cases = []
    for _ in range(3000):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        cases.append(IntMatrix(rows, cols, [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]))
    cases.append(IntMatrix(6, 7, DENSE_TORSION_7X7[:6]))
    assert [snf(m) for m in cases] == [snf_forward(m) for m in cases]
    cases.append(IntMatrix(7, 7, DENSE_TORSION_7X7))
    got = [kernel_basis(m) for m in cases]
    assert got == [kernel_basis_via_snf(m) for m in cases]
    assert got[-1] == [] and len(got[-2]) == 1
    assert sum(map(len, got)) > 3000


def test_invariant_factors_and_rank():
    m = from_rows([[2, 0], [0, 0]])
    assert invariant_factors(m) == (2,)
    assert rank(m) == 1
    assert invariant_factors(from_rows([[2, 4], [6, 8]])) == (2, 4)


def _oracle_cases():
    """Seeded matrices: dense, sparse +-1-heavy, torsion-only (no unit entry,
    so the dense remainder does all the work), signed permutations (unit
    pivots do all the work) and the degenerate shapes 0 x n and n x 0."""
    rng = random.Random(11)
    cases = []
    for trial in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        kind = trial % 4
        if kind == 0:
            pool = list(range(-5, 6))
        elif kind == 1:
            pool = [0, 0, 0, 0, 1, -1, 1, -1, 2]
        elif kind == 2:
            pool = [0, 0, 2, -2, 3, 6, -4, 9]
        else:
            pool = [0, 0, 1, -1, 2, 3, -3]
        cases.append(IntMatrix(rows, cols, [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]))
    for n in range(1, 8):
        perm = list(range(n))
        rng.shuffle(perm)
        cases.append(IntMatrix(n, n, [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]))
        cases.append(IntMatrix.zeros(0, n))
        cases.append(IntMatrix.zeros(n, 0))
    return cases


def _wide_sparse(rng, rows, cols, density):
    """A rows x cols matrix of +-1, small ints and ints past 64 bits at the
    given density, with at least one zero row and one zero column when it
    has any cells."""
    pool = (1, -1, 1, -1, 2, -3, 2**70 + 1, -(2**66))
    data = [[rng.choice(pool) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    if rows and cols:
        data[rng.randrange(rows)] = [0] * cols
        dead = rng.randrange(cols)
        for row in data:
            row[dead] = 0
    return IntMatrix(rows, cols, data)


def _is_canonical(m):
    """Whether m's view has one row per matrix row, each a tuple of
    (column, value) pairs with columns increasing in [0, cols) and values
    nonzero ints."""
    return len(m.nonzeros) == m.rows and all(
        type(row) is tuple
        and all(type(p) is tuple and len(p) == 2 and type(p[1]) is int and p[1] for p in row)
        and all(0 <= j < m.cols for j, _ in row)
        and all(a[0] < b[0] for a, b in zip(row, row[1:]))
        for row in m.nonzeros
    )


def _dense_product(a, b, cols):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(cols)] for row in a]


def test_every_way_to_make_a_matrix_writes_a_canonical_view():
    """Each constructor and operation writes a canonical view whose dense
    rows equal a dense oracle, with entries read by ``m[i, j]`` and
    ``is_zero`` agreeing.  Equality rests on that view, so ``==`` and
    ``hash`` agree with dense equality, between matrices made in different
    ways and with the matrix built anew from the oracle's rows."""
    rng = random.Random(41)
    pool = (0, 0, 0, 1, -1, 2, -3, 2**70, -(2**70))
    for _ in range(40):
        r, k, c = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        x = [[rng.choice(pool) for _ in range(k)] for _ in range(r)]
        y = [[-v if rng.random() < 0.5 else rng.choice(pool) for v in row] for row in x]  # x + y cancels in part
        z = [[rng.choice(pool) for _ in range(c)] for _ in range(k)]
        a, b, e = IntMatrix(r, k, x), IntMatrix(r, k, y), IntMatrix(k, c, z)
        x_plus_y = [[v + w for v, w in zip(rx, ry)] for rx, ry in zip(x, y)]
        entries = {(i, j): v for i, row in enumerate(x) for j, v in enumerate(row) if rng.random() < 0.5}
        sums = [{j: v + w for j, (v, w) in enumerate(zip(rx, ry)) if v or w} or None for rx, ry in zip(x, y)]
        t = rng.choice((0, 1, -1, 3, 2**70))
        zero = [[0] * c for _ in range(r)]
        x_minus_y = [[v - w for v, w in zip(rx, ry)] for rx, ry in zip(x, y)]
        src, tgt = ChainComplex("src", {0: k}), ChainComplex("tgt", {0: r})
        f_minus_g = (GradedMap(src, tgt, 0, {0: a}) - GradedMap(src, tgt, 0, {0: b})).mat(0)
        made = [
            (a, x),
            (b, y),
            (e, z),
            (IntMatrix.zeros(r, c), zero),
            (IntMatrix.identity(k), [[int(i == j) for j in range(k)] for i in range(k)]),
            (IntMatrix.from_entries(r, k, entries), [[entries.get((i, j), 0) for j in range(k)] for i in range(r)]),
            (IntMatrix._from_row_dicts(k, sums), x_plus_y),
            (a + b, x_plus_y),
            (a.scale(t), [[t * v for v in row] for row in x]),
            (a @ e, _dense_product(x, z, c)),
            (a + b.scale(-1), x_minus_y),
            (f_minus_g, x_minus_y),
            (a + a.scale(-1), [[0] * k for _ in range(r)]),  # every row cancels
            (a.scale(0), [[0] * k for _ in range(r)]),
            (a.scale(t) + a.scale(-t), [[0] * k for _ in range(r)]),
            (IntMatrix.zeros(r, 0) @ IntMatrix.zeros(0, c), zero),  # n x 0 by 0 x n
            (IntMatrix.zeros(0, r) @ a, []),
            (a @ IntMatrix.zeros(k, 0), [[] for _ in range(r)]),
            (block([[a, a]]), [row + row for row in x]),
            (block([[e], [e.scale(-1)]]), z + [[-v for v in row] for row in z]),
            (block([[a, a]]) @ block([[e], [e.scale(-1)]]), zero),  # cancels in every row
            (
                block([[a, IntMatrix.zeros(r, c)], [IntMatrix.zeros(k, k), e]]),
                [row + [0] * c for row in x] + [[0] * k + row for row in z],
            ),
        ]
        small = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(k)] for _ in range(r)]
        s, u, v = snf(IntMatrix(r, k, small))
        assert _dense_product(_dense_product(u.to_lists(), small, k), v.to_lists(), k) == s.to_lists()
        assert all(not s[i, j] for i in range(r) for j in range(k) if i != j)
        made += [(s, s.to_lists()), (u, u.to_lists()), (v, v.to_lists())]
        for m, want in made:
            assert _is_canonical(m)
            assert m.to_lists() == want and m.rows == len(want)
            assert all(m[i, j] == want[i][j] for i in range(m.rows) for j in range(m.cols))
            assert m.is_zero() == (not any(map(any, want)))
            twin = IntMatrix(m.rows, m.cols, want)
            assert twin == m and hash(twin) == hash(m)
        for (m, want), (n, other) in product(made, repeat=2):
            same = (m.rows, m.cols) == (n.rows, n.cols) and want == other
            assert (m == n) == same
            if same:
                assert hash(m) == hash(n)


def test_matmul_against_the_triple_loop():
    """``@`` reads the row views of both factors: those packed from dense
    rows, those that ``frames._assemble`` sums, with a row cancelled in the
    assembly, and products that vanish only through cancellation.  Sums,
    differences and scaled copies of the products, which take the same row
    kernel, equal the triple loop's entry by entry, also where every row
    cancels."""
    rng = random.Random(29)
    shapes = [(rng.randint(1, 40), rng.randint(1, 120), rng.randint(1, 120)) for _ in range(12)]
    shapes += [(0, 7, 5), (6, 0, 5), (6, 7, 0), (0, 0, 3), (4, 0, 0)]
    for rows, inner, cols in shapes:
        density = rng.choice((0.02, 0.05, 0.1, 0.2))
        a, b = _wide_sparse(rng, rows, inner, density), _wide_sparse(rng, inner, cols, density)
        assert a @ b == matmul(a, b)
        assert transpose(b) @ transpose(a) == transpose(matmul(a, b))
        dense = matmul(a, b).to_lists()
        t = rng.choice((-1, 2, -(2**70)))
        assert a.scale(t) @ b == IntMatrix(rows, cols, [[t * v for v in row] for row in dense])
        assert a @ b + (a @ b).scale(t) == IntMatrix(rows, cols, [[(1 + t) * v for v in row] for row in dense])
        assert (a @ b + matmul(a, b).scale(-1)).is_zero()
        a, b = _assembled(a), _assembled(b)
        assert a @ b == matmul(a, b)
        a, b = _cancelling_pair(rng, rows, (inner + 1) // 2, cols, density)
        assert (a @ b).is_zero() and (a @ b) == matmul(a, b)


def _assembled(m):
    """m as ``frames._assemble`` sums it, less a copy of its first row: that
    row cancels to zero in the assembly."""
    dense = m.to_lists()
    top = IntMatrix(min(m.rows, 1), m.cols, dense[:1])
    out = frames._assemble(m.rows, m.cols, [(0, m.cols, [(0, 1, m), (0, -1, top)])])
    assert out.to_lists() == [[0] * m.cols] * min(m.rows, 1) + dense[1:]
    return out


def _plain_row_scan(m):
    """The view of m's dense rows; it equals ``m.nonzeros`` exactly when
    that view is canonical."""
    return tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in m.to_lists())


def _cancelling_pair(rng, rows, inner, cols, density):
    """(a, b) with a @ b zero only through cancellation: a = [x | x] and
    b = [y; -y], with entries up to 2^70 and every product a[i, k] * b[k, j]
    of the two halves cancelling."""
    pool = (1, -1, 2, -3, 2**70, -(2**70))
    x = [[rng.choice(pool) if rng.random() < density else 0 for _ in range(inner)] for _ in range(rows)]
    y = [[rng.choice(pool) if rng.random() < density else 0 for _ in range(cols)] for _ in range(inner)]
    a = IntMatrix(rows, 2 * inner, [row + row for row in x])
    b = IntMatrix(2 * inner, cols, y + [[-v for v in row] for row in y])
    return a, b


def test_product_is_zero_against_the_triple_loop():
    """product_is_zero agrees with the triple-loop product being zero, also
    when the product vanishes only through cancellation or is nonzero only
    in its last row."""
    rng = random.Random(37)
    shapes = [(rng.randint(1, 40), rng.randint(1, 120), rng.randint(1, 120)) for _ in range(12)]
    shapes += [(0, 7, 5), (6, 0, 5), (6, 7, 0), (0, 0, 3), (4, 0, 0)]
    for rows, inner, cols in shapes:
        density = rng.choice((0.02, 0.05, 0.1, 0.2))
        a, b = _wide_sparse(rng, rows, inner, density), _wide_sparse(rng, inner, cols, density)
        assert a.product_is_zero(b) == matmul(a, b).is_zero()
        a, b = _cancelling_pair(rng, rows, (inner + 1) // 2, cols, density)
        assert a.product_is_zero(b) and matmul(a, b).is_zero()
        # one unit in the last row of a, against a nonzero row of b, breaks the
        # cancellation in that row alone
        hit = next((k for k, nz in enumerate(b.nonzeros) if nz), None)
        if rows and hit is not None:
            data = a.to_lists()
            data[-1][hit] += 1
            a = IntMatrix(rows, a.cols, data)
            product = matmul(a, b)
            assert not product.is_zero() and not any(map(any, product.to_lists()[:-1]))
            assert not a.product_is_zero(b)
    with pytest.raises(ValueError, match="cannot multiply"):
        IntMatrix.zeros(2, 3).product_is_zero(IntMatrix.zeros(2, 3))


def _snf_diagonal(m):
    s = snf(m).s
    return tuple(s[i, i] for i in range(min(m.rows, m.cols)) if s[i, i])


def test_invariant_factors_of_wide_sparse_matrices_against_snf():
    """Densities stop at 5% and no shape is square: a 40 x 40 at 5% of these
    entries, or at 10% of small ones, leaves the dense diagonalization of
    either function with entries of hundreds of bits, and it does not end
    within a minute."""
    rng = random.Random(31)
    for density in (0.02, 0.05):
        for rows, cols in [(40, 120), (30, 90), (12, 120), (120, 20), (0, 9), (9, 0)]:
            m = _wide_sparse(rng, rows, cols, density)
            assert invariant_factors(m) == _snf_diagonal(m), m


def test_invariant_factors_against_sympy_and_snf():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    for m in _oracle_cases():
        got = invariant_factors(m)
        assert got == _snf_diagonal(m)
        assert rank(m) == len(got)
        if m.rows and m.cols:
            expected = tuple(int(v) for v in sympy_factors(sympy.Matrix(m.to_lists()), domain=sympy.ZZ) if v)
            assert got == expected, m
        else:
            assert got == ()


def _recover_simplices():
    """Ten 1-simplices drawn in turn from one ``Random(5)``: the first is
    ``random_simplex(Random(5), 1, max_rank=4)``, the input of the pinned
    ``recover`` case."""
    rng = random.Random(5)
    return [random_simplex(rng, 1, max_rank=4) for _ in range(10)]


def _retraction_systems():
    """The systems (m, b) ``recover`` solves for the retraction of the
    last-vertex inclusion of each cylinder frame of ``_recover_simplices``
    (see solve_retraction); the largest m is 158 x 104."""
    out = []
    for s in _recover_simplices():
        iota = include_last(build_frame_object(s, OrderMap((0, 1), 1)))
        x, y = iota.source, iota.target
        dif = hom_complex_diff(y, x, 0)
        rhs = graded_map_to_vector(GradedMap.identity(x)) + (0,) * dif.rows
        out.append((block([[precompose_matrix(iota, x, 0)], [dif]]), rhs))
    return out


def _nullhomotopy_systems():
    """The systems (m, b) ``recover`` solves for its witness that the
    recovered map differs from the edge by a boundary (see
    is_nullhomotopic), on the same simplices."""
    out = []
    for s in _recover_simplices():
        f = recover_map_from_cylinder(build_frame_object(s, OrderMap((0, 1), 1))) - s.eval((0, 1))
        out.append((hom_complex_diff(f.source, f.target, f.degree + 1), graded_map_to_vector(f)))
    return out


def test_snf_pivot_hunt_stops_at_the_first_unit(monkeypatch):
    """Stopping the pivot hunt at the first +-1, and ending a step at a +-1
    pivot without testing that it divides the trailing entries, keep the
    pivot rule and every operation, so (s, u, v) is the same as with a hunt
    over the whole trailing submatrix and a divisibility scan at every step.
    The cases add the retraction systems of ``recover`` and matrices whose
    pivots start out non-units ({+-2, +-3, 6}, units arise only as
    remainders) or are often -1.  They stay at most 5 x 5: the transform
    entries of a dense unit-free 6 x 7 matrix grow until snf stalls (ROADMAP
    item 4)."""
    cases = _oracle_cases() + [m for m, _ in _retraction_systems()]
    rng = random.Random(15)
    for trial in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        pool = (2, -2, 3, -3, 6) if trial % 2 else (0, 0, -1, -1, 2, -3, 6)
        cases.append(IntMatrix(rows, cols, [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]))
    fast = [snf(m) for m in cases]
    monkeypatch.setattr(exact_linalg, "_diagonalize", diagonalize_exhaustive)
    assert fast == [snf(m) for m in cases]


def _small_systems():
    """240 seeded systems of at most 5 x 5 whose pivots start out non-units
    ({+-2, +-3, 6}) or are often -1 ({0, -1, 2, -3, 6}); half the right-hand
    sides are m @ x for a small x, the others arbitrary."""
    rng = random.Random(19)
    out = []
    for trial in range(240):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        pool = (2, -2, 3, -3, 6) if trial % 2 else (0, -1, 2, -3, 6)
        m = IntMatrix(rows, cols, [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)])
        if trial % 4 < 2:
            b = mat_vec(m, [rng.randint(-3, 3) for _ in range(cols)])
        else:
            b = tuple(rng.randint(-6, 6) for _ in range(rows))
        out.append((m, b))
    return out


def test_solve_equals_the_solve_through_both_smith_transforms(monkeypatch):
    """solve runs the elimination of snf on [m | b] and replays its column
    record on y instead of building u and v, with the same pivots and
    operations, so it returns the same x as the solve through snf and both
    transforms, or None with it.  The cases are the systems of ``recover``
    with their real right-hand sides and with one entry changed, the empty
    shapes and small seeded systems.  They make negative pivots, whose sign
    flip must reach b, and offender-row steps, which add a row to the pivot
    row; the two are counted on the row helpers."""
    rng = random.Random(23)
    cases = _retraction_systems() + _nullhomotopy_systems()
    for m, b in [case for case in cases if case[1]]:
        changed = list(b)
        changed[rng.randrange(len(b))] += 1
        cases.append((m, tuple(changed)))
    cases += [
        (IntMatrix.zeros(0, 3), ()),
        (IntMatrix.zeros(3, 0), (0, 0, 0)),
        (IntMatrix.zeros(3, 0), (0, 1, 0)),
        (IntMatrix.zeros(0, 0), ()),
    ]
    cases += _small_systems()
    steps = {"negative pivot": 0, "offender row": 0}

    def row_neg(a, i, _original=exact_linalg._row_neg):
        steps["negative pivot"] += 1
        _original(a, i)

    def row_sub(a, i, j, q, _original=exact_linalg._row_sub):
        steps["offender row"] += i < j  # clearing subtracts the pivot row from a lower one
        _original(a, i, j, q)

    monkeypatch.setattr(exact_linalg, "_row_neg", row_neg)
    monkeypatch.setattr(exact_linalg, "_row_sub", row_sub)
    got = [solve(m, b) for m, b in cases]
    monkeypatch.undo()
    assert got == [solve_via_snf(m, b) for m, b in cases]
    assert steps["negative pivot"] and steps["offender row"]
    assert None in got and all(x is not None for x in got[:10])
    for (m, b), x in zip(cases, got):
        assert x is None or mat_vec(m, x) == tuple(b)


def test_det_against_cofactor_expansion():
    def cofactor(m):
        if m.rows == 1:
            return m[0, 0]
        total = 0
        for j in range(m.cols):
            minor = submatrix(m, list(range(1, m.rows)), [c for c in range(m.cols) if c != j])
            total += (-1) ** j * m[0, j] * cofactor(minor)
        return total

    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        assert det(m) == cofactor(m)


def test_is_unimodular():
    assert is_unimodular(IntMatrix.identity(4))
    assert is_unimodular(from_rows([[1, 5], [0, -1]]))
    assert not is_unimodular(from_rows([[2, 0], [0, 1]]))
    assert not is_unimodular(from_rows([[1, 0]]))
