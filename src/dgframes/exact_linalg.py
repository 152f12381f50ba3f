"""Exact integer matrices, Smith normal form and integer linear solvers.

Everything here runs on Python's arbitrary-precision ints; no floating point
is used anywhere in the package.  A matrix is its row view, its one
representation: :attr:`IntMatrix.nonzeros` holds, for each row, the tuple
of its (column, value) pairs with value nonzero, in column order.  Matrices
are immutable once constructed, so they can be shared freely between
complexes and maps.  Every constructor and every operation here writes the
view directly, and since it is canonical, ``==`` and ``hash`` read it.  No
dense row is stored: :meth:`IntMatrix.to_lists` forms them on demand, for
the JSON of a complex or map and ``repr``.

Each result is formed one way.  Every sum, scaled copy and product of
matrices, ``+``, :meth:`IntMatrix.scale` and ``@`` here and the identity
deciders of ``complexes`` and ``dg_nerve``, is a sum of terms computed row
by row by the one kernel :func:`nonzero_rows`.  Other tests walk the
views with loops of their own: the d^2 test
(:meth:`IntMatrix.product_is_zero`) and the Reedy items, which read a
frame's stored differential in place (``frames.is_reedy_cofibrant``).
Every block matrix, a sum of signed blocks at row and column offsets, is
put together by the one assembler :func:`_assemble`: the frame
differentials and the frames' maps, the differential of a cone and the
stacked systems of the splitting solver.
The Smith elimination is the one routine :func:`_diagonalize`, on sparse
rows, one {column: value} dict per row built from the view, so it too
pays per nonzero.  :func:`invariant_factors` and :func:`rank` read its
diagonal, and every use of its column transform v, in :func:`solve`,
:func:`kernel_basis` and :func:`snf`, is the one replay :func:`_apply_v`
of its column record.  The JSON writer reads the view too.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import Dict, Iterable, NamedTuple, Optional, Sequence

Vector = tuple  # tuple[int, ...], kept loose for 3.10 friendliness


class IntMatrix:
    """A rows x cols matrix of Python ints, stored as its row view ``nonzeros``.

    The explicit ``rows``/``cols`` fields keep degenerate shapes (0 x n and
    n x 0) well defined; such matrices show up constantly as differentials of
    bounded complexes.
    """

    __slots__ = ("rows", "cols", "nonzeros")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable[int]]):
        """The matrix of the dense rows ``data``, checked against the shape."""
        _check_shape(rows, cols)
        packed = tuple(map(tuple, data))
        if len(packed) != rows or any(len(r) != cols for r in packed):
            raise ValueError("matrix data does not match declared shape %dx%d" % (rows, cols))
        for row in packed:
            for v in row:
                if type(v) is not int:
                    raise ValueError("matrix entry must be an integer, got %r" % (v,))
        self.rows, self.cols, self.nonzeros = rows, cols, _pack(cols, packed)

    @classmethod
    def _trusted(cls, rows: int, cols: int, nonzeros: tuple) -> "IntMatrix":
        """Wrap a canonical row view without checks: ``rows`` tuples of
        (column, value) pairs, columns increasing in [0, cols), values
        nonzero Python ints.  For results computed here from valid matrices."""
        m = object.__new__(cls)
        m.rows, m.cols, m.nonzeros = rows, cols, nonzeros
        return m

    @classmethod
    def _from_row_dicts(cls, cols: int, rows: Sequence[Optional[dict]]) -> "IntMatrix":
        """The matrix with one {column: value} dict of ints, or None, per
        row.  A dict may hold zeros, which the view drops."""
        view = [()] * len(rows)
        for i, acc in enumerate(rows):
            if acc:
                pairs = tuple(sorted(acc.items()))
                if 0 in acc.values():  # a cancelled entry
                    pairs = tuple(p for p in pairs if p[1])
                view[i] = pairs
        return cls._trusted(len(rows), cols, tuple(view))

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        _check_shape(rows, cols)
        return cls._trusted(rows, cols, ((),) * rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        """The n x n identity; shared, like every IntMatrix it is immutable."""
        return _identity(n)

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "IntMatrix":
        """Build from a {(i, j): value} mapping of ints; unspecified entries are 0."""
        grid: list = [{} for _ in range(rows)]
        for (i, j), v in entries.items():
            grid[i][j] = v
        return cls._from_row_dicts(cols, grid)

    # -- basic protocol ---------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%r, %r) lies outside a %dx%d matrix" % (i, j, self.rows, self.cols))
        return dict(self.nonzeros[i]).get(j, 0)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.nonzeros == other.nonzeros
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.nonzeros))

    def __repr__(self):
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, self.to_lists())

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def to_lists(self) -> list:
        """The dense rows, as fresh lists."""
        out = []
        for nz in self.nonzeros:
            row = [0] * self.cols
            for j, v in nz:
                row[j] = v
            out.append(row)
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return combination_matrix(self.rows, self.cols, ((1, None, self), (1, None, other)))

    def scale(self, c: int) -> "IntMatrix":
        return combination_matrix(self.rows, self.cols, ((c, None, self),))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """The product, row by row over the views of both factors (see
        nonzero_rows)."""
        self._check_product(other)
        return combination_matrix(self.rows, other.cols, ((1, self, other),))

    def product_is_zero(self, other: "IntMatrix") -> bool:
        """Whether self @ other is the zero matrix, decided row by row over
        the views of both factors; stops at the first nonzero row and forms
        no product."""
        self._check_product(other)
        right = other.nonzeros
        for left in self.nonzeros:
            acc: Dict[int, int] = {}
            for k, v in left:
                for j, w in right[k]:
                    acc[j] = acc.get(j, 0) + v * w
            if any(acc.values()):
                return False
        return True

    def _check_product(self, other: "IntMatrix"):
        if self.cols != other.rows:
            raise ValueError("cannot multiply %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols))

    def _same_shape(self, other: "IntMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch: %dx%d vs %dx%d" % (self.rows, self.cols, other.rows, other.cols))


def _check_shape(rows, cols) -> None:
    for n in (rows, cols):
        if type(n) is not int:  # not isinstance: a bool is refused too
            raise ValueError("matrix dimension must be an integer, got %r" % (n,))
        if n < 0:
            raise ValueError("matrix dimensions must be nonnegative")


def _pack(cols: int, dense) -> tuple:
    """The row view of the dense rows ``dense``, each of length ``cols``."""
    width = range(cols)
    return tuple([tuple(zip(compress(width, row), compress(row, row))) for row in dense])


@lru_cache(maxsize=64, typed=True)  # typed: identity(True) must not hit the entry of 1
def _identity(n: int) -> IntMatrix:
    _check_shape(n, n)
    return IntMatrix._trusted(n, n, tuple([((i, 1),) for i in range(n)]))


def _assemble(n_rows: int, n_cols: int, columns) -> IntMatrix:
    """The n_rows x n_cols matrix of a map given block by block.

    ``columns`` lists (col, width, terms): on columns col .. col + width - 1
    the matrix is the sum, over (row, sign, block) in ``terms``, of sign (a
    nonzero int) times the block with its top row at ``row``, a block of None
    standing for the width x width identity.  Columns not listed are zero.
    Each row collects the pairs of the blocks' views in the order given; a
    row where they do not go up by column (blocks overlap or come out of
    order) is then summed, cleared of zeros and sorted."""
    grid: list = [None] * n_rows
    unsorted = set()
    for col, width, terms in columns:
        for row, sign, m in terms:
            if m is None:
                for e in range(width):
                    acc = grid[row + e]
                    if acc is None:
                        acc = grid[row + e] = []
                    elif acc[-1][0] >= col + e:
                        unsorted.add(row + e)
                    acc.append((col + e, sign))
                continue
            for i, nz in enumerate(m.nonzeros, row):
                if nz:
                    acc = grid[i]
                    if acc is None:
                        acc = grid[i] = []
                    elif acc[-1][0] >= col + nz[0][0]:
                        unsorted.add(i)
                    acc += [(col + e, sign * v) for e, v in nz]
    for i in unsorted:
        sums: Dict[int, int] = {}
        for c, v in grid[i]:
            sums[c] = sums.get(c, 0) + v
        grid[i] = sorted(p for p in sums.items() if p[1])
    return IntMatrix._trusted(n_rows, n_cols, tuple([tuple(p) if p else () for p in grid]))


# -- identities decided row by row --------------------------------------------
#
# An identity between graded maps, such as D(f) = 0 or f o g = h, is decided
# one degree and one row at a time from the row-nonzero views of the stored
# matrices (IntMatrix.nonzeros): no product, sum or scaled copy of a whole
# matrix is formed.  Row i of A o B is the sum of the rows of B named by the
# nonzeros of row i of A, as in Gustavson's sparse product, so a basis
# inclusion A costs one row of B per row.  Every matrix takes the same path,
# whatever its entries.  combination_is_zero stops at the first nonzero row;
# combination_matrix places every nonzero row in a matrix, to form D(f),
# IntMatrix's @, + and scale, and the Maurer-Cartan validator reads its
# witness off the first nonzero row.


def nonzero_rows(height: int, terms):
    """(i, row i as a {column: value} dict) for each nonzero row of the sum
    of the ``terms``, which has ``height`` rows, in row order; the dict may
    hold zeros besides its nonzero values.

    A term (c, A, B) of IntMatrix A and B stands for c * A o B, (c, None, B)
    for c * B, and (c, None, None), in a square sum, for c times the identity.
    Row i of the sum adds, for each term, c * u times row k of B for each
    (k, u) in row i of A, c times row i of B, or c at column i."""
    views = [(c, None if a is None else a.nonzeros, None if b is None else b.nonzeros) for c, a, b in terms]
    for i in range(height):
        acc: Dict[int, int] = {}
        get = acc.get
        for c, a, b in views:
            if b is None:
                acc[i] = get(i, 0) + c
            elif a is None:
                for j, v in b[i]:
                    acc[j] = get(j, 0) + c * v
            else:
                for k, u in a[i]:
                    cu = c * u
                    for j, v in b[k]:
                        acc[j] = get(j, 0) + cu * v
        if any(acc.values()):
            yield i, acc


def combination_is_zero(height: int, terms) -> bool:
    """Whether the sum of the ``terms`` (see nonzero_rows), which has
    ``height`` rows, is zero; the first nonzero row ends the test."""
    return next(nonzero_rows(height, terms), None) is None


def combination_matrix(height: int, width: int, terms) -> IntMatrix:
    """The height x width sum of the ``terms`` (see nonzero_rows)."""
    rows: list = [None] * height
    for i, acc in nonzero_rows(height, terms):
        rows[i] = acc
    return IntMatrix._from_row_dicts(width, rows)


class SNFResult(NamedTuple):
    s: IntMatrix
    u: IntMatrix
    v: IntMatrix


def _diagonalize(a: list, nr: int, nc: int) -> list:
    """Reduce the leading nr x nc block of the sparse rows ``a`` to Smith
    form, in place, by the pivot rule documented on :func:`snf`, and return
    the record of its column operations.

    Each row of ``a`` is a {column: value} dict of its nonzero entries, and
    stays one: an entry that cancels is deleted.  An index from each column
    below nc to the set of positions of the rows that hold it lets a column
    operation visit only those rows.  Every row operation acts on the whole
    row, so entries at columns nc and past end up as u times what they held:
    appended identity columns record the row transform u, and an appended
    right-hand side b becomes u @ b.  No rows carry the column transform v;
    the returned record lists the column operations oldest first, (j, t,
    None) for a swap of columns j and t and (j, t, q) for col_j -= q * col_t.
    :func:`_apply_v` replays it on a vector y to form v @ y.

    A step ends once the pivot's row and column are clear and the pivot
    divides every trailing entry.  A pivot of 1 or -1 divides every integer,
    so the step ends there without scanning the trailing entries.

    The row and column operations, their quotients and the record are, one
    for one, those of the same elimination on dense rows; only the zeros go
    unvisited.  At step t, the rows from t on hold no column below t, so
    each of their entries below nc lies in the trailing submatrix.
    """
    cols = [set() for _ in range(nc)]
    for i, row in enumerate(a):
        for j in row:
            if j < nc:
                cols[j].add(i)
    ops = []
    t = 0
    stop = min(nr, nc)
    while t < stop:
        # pivot hunt over the trailing rows: the least |v|, then the lowest
        # row, then the lowest column; the first row holding a +-1 ends it,
        # since no later entry can replace one
        best = 0
        for i in range(t, nr):
            row = a[i]
            if not row:
                continue
            low = 0
            for j, v in row.items():
                if j < nc:
                    if v < 0:
                        v = -v
                    if not low or v < low or (v == low and j < lj):
                        low, lj = v, j
            if low and (not best or low < best):
                best, pi, pj = low, i, lj
                if best == 1:
                    break
        if not best:
            break
        if pi != t:
            _swap_rows(a, cols, nc, pi, t)
        if pj != t:
            _swap_cols(a, cols, pj, t)
            ops.append((pj, t, None))

        pivot_row = a[t]
        while True:
            # clear the pivot column; nonzero remainders are strictly smaller
            # than the pivot, so swapping them up makes progress.  Visiting a
            # row changes no row below it, so the rows to visit are read once.
            dirty = False
            held = cols[t]
            if len(held) > 1:  # the least of them is row t, the pivot's
                for i in sorted(held):
                    if i == t:
                        continue
                    row = a[i]
                    q = row[t] // pivot_row[t]
                    if q:
                        _sub_row(a, cols, nc, i, t, q)
                    if t in row:
                        _swap_rows(a, cols, nc, i, t)
                        pivot_row = row
                        dirty = True
            for j in sorted(pivot_row):  # t first, then the block, then nc on
                if j == t:
                    continue
                if j >= nc:
                    break
                q = pivot_row[j] // pivot_row[t]
                if q:
                    _sub_col(a, cols, j, t, q)
                    ops.append((j, t, q))
                if j in pivot_row:
                    _swap_cols(a, cols, j, t)
                    ops.append((j, t, None))
                    dirty = True
            if dirty:
                continue
            # row and column are clear; enforce the divisibility chain, which
            # a +-1 pivot meets already: x % 1 == x % -1 == 0 for every int
            d = pivot_row[t]
            if d == 1 or d == -1:
                break
            for i in range(t + 1, nr):
                if any(v % d for j, v in a[i].items() if j < nc):
                    _sub_row(a, cols, nc, t, i, -1)  # add the offending row to the pivot row
                    break
            else:  # no offender: the pivot divides every trailing entry
                break
        if pivot_row[t] < 0:
            _negate_row(pivot_row)
        t += 1
    return ops


def _swap_rows(a, cols, nc, i, t):
    """Swap rows i and t, and move them in the index of each column that
    only one of them holds."""
    ri, rt = a[i], a[t]
    for j in ri:
        if j < nc and j not in rt:
            held = cols[j]
            held.discard(i)
            held.add(t)
    for j in rt:
        if j < nc and j not in ri:
            held = cols[j]
            held.discard(t)
            held.add(i)
    a[i], a[t] = rt, ri


def _sub_row(a, cols, nc, i, k, q):
    """row_i -= q * row_k, for q nonzero, keeping the index.  An entry that
    cancels held q times row k's, so it is there to delete."""
    ri = a[i]
    for j, v in a[k].items():
        nv = ri.get(j, 0) - q * v
        if nv:
            if j < nc and j not in ri:
                cols[j].add(i)
            ri[j] = nv
        else:
            del ri[j]
            if j < nc:
                cols[j].discard(i)


def _sub_col(a, cols, j, k, q):
    """col_j -= q * col_k, for q nonzero, over the rows that hold column k."""
    held = cols[j]
    for i in cols[k]:
        row = a[i]
        nv = row.get(j, 0) - q * row[k]
        if nv:
            row[j] = nv
            held.add(i)
        else:
            del row[j]
            held.discard(i)


def _swap_cols(a, cols, j, k):
    """Swap columns j and k over the rows that hold either, and their
    index entries."""
    held_j, held_k = cols[j], cols[k]
    for i in held_j:
        row = a[i]
        if i in held_k:
            row[j], row[k] = row[k], row[j]
        else:
            row[k] = row.pop(j)
    for i in held_k:
        if i not in held_j:
            row = a[i]
            row[j] = row.pop(k)
    cols[j], cols[k] = held_k, held_j


def _negate_row(row):
    """row = -row, in place; the columns it holds stay the same."""
    for j in row:
        row[j] = -row[j]


def snf(m: IntMatrix) -> SNFResult:
    """Smith normal form: returns (s, u, v) with u @ m @ v == s.

    ``s`` is diagonal with nonnegative entries d_1 | d_2 | ... and ``u``, ``v``
    are unimodular.  Pivot selection is deterministic: among the remaining
    submatrix, the entry of smallest nonzero absolute value, ties broken by
    lowest row index, then lowest column index.  :func:`solve` and
    :func:`kernel_basis` depend on this rule; the invariant factors, which
    are unique, do not, though :func:`invariant_factors` runs it too.
    The hunt stops at the first +-1, which no later entry can replace.  Each
    step ends once the pivot's row and column are clear and the pivot divides
    every trailing entry; a +-1 pivot ends it without that scan.

    The elimination runs on the sparse rows of [m | 1], built from m's view
    with the identity at columns nc and past, so its row operations carry
    the identity to u; s and u are read off the rows, and v is the replay
    of the column record on the unit vectors.

    No library code calls it: :func:`solve` and :func:`kernel_basis` run
    :func:`_diagonalize` themselves and build no transform.  It stays in
    the package only because the benchmark's tracer names it, and the tests
    require every traced name to resolve.
    """
    nr, nc = m.rows, m.cols
    # [m | 1]: row operations reach u
    a = [dict(nz) for nz in m.nonzeros]
    for i, row in enumerate(a):
        row[nc + i] = 1
    ops = _diagonalize(a, nr, nc)
    vcols = [_apply_v(ops, [int(k == i) for k in range(nc)]) for i in range(nc)]
    return SNFResult(
        IntMatrix._from_row_dicts(nc, [{j: v for j, v in row.items() if j < nc} for row in a]),
        IntMatrix._from_row_dicts(nr, [{j - nc: v for j, v in row.items() if j >= nc} for row in a]),
        IntMatrix._trusted(nc, nc, _pack(nc, zip(*vcols))),
    )


def _apply_v(ops, y: list) -> list:
    """v @ y, in place in ``y``, for the column transform v whose record
    ``ops`` :func:`_diagonalize` returned: v is the product of the column
    operations, oldest on the left, so they act on y newest first."""
    for j, t, q in reversed(ops):
        if q is None:
            y[j], y[t] = y[t], y[j]
        else:
            y[t] -= q * y[j]
    return y


def invariant_factors(m: IntMatrix) -> Vector:
    """The nonzero diagonal of the Smith form, in divisibility order.

    The Smith elimination :func:`_diagonalize` runs on the sparse rows of
    m's view alone, with no transform, and leaves the factors on the
    leading diagonal.  Invariant factors are unique, so they do not depend
    on its pivot rule.
    """
    a = [dict(nz) for nz in m.nonzeros]
    _diagonalize(a, m.rows, m.cols)
    return tuple(a[t][t] for t in range(min(m.rows, m.cols)) if t in a[t])


def rank(m: IntMatrix) -> int:
    """Rank over the rationals: the number of invariant factors."""
    return len(invariant_factors(m))


def solve(m: IntMatrix, b: Sequence[int]) -> Optional[Vector]:
    """One integer solution x of m @ x = b, or None if there is none.

    The solution is deterministic: it is the back-substitution through the
    Smith decomposition u @ m @ v = s of :func:`snf` with every free
    parameter set to zero, x = v @ y where s @ y = u @ b.  Neither transform
    is built: :func:`_diagonalize` runs on the sparse rows of [m | b], built
    from m's view with b at column nc, so its row operations carry b to
    u @ b, and its column record, replayed on y newest first, forms v @ y.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length %d does not match %d rows" % (len(b), m.rows))
    nc = m.cols
    a = [dict(nz) for nz in m.nonzeros]
    for row, c in zip(a, b):
        if c:
            row[nc] = c
    ops = _diagonalize(a, m.rows, nc)
    y = [0] * nc
    for i, row in enumerate(a):
        c = row.get(nc, 0)
        if i < nc and i in row:
            q, rem = divmod(c, row[i])
            if rem:
                return None
            y[i] = q
        elif c:
            return None
    return tuple(_apply_v(ops, y))


def kernel_basis(m: IntMatrix) -> list:
    """A basis of the lattice of integer solutions of m @ x = 0.

    The columns of v matched with zero diagonal entries of the Smith form are
    a basis of the full kernel lattice (not merely a finite-index sublattice),
    since v is unimodular.  Only those columns are needed: :func:`_diagonalize`
    runs on the sparse rows of m's view alone, r counts the nonzero diagonal
    entries, and the column record is replayed on the unit vectors
    e_r .. e_{nc-1}.  The pivot hunt reads only m's columns, so v is the one
    of :func:`snf`.
    """
    nc = m.cols
    a = [dict(nz) for nz in m.nonzeros]
    ops = _diagonalize(a, m.rows, nc)
    r = sum(1 for t in range(min(m.rows, nc)) if t in a[t])
    return [tuple(_apply_v(ops, [int(k == j) for k in range(nc)])) for j in range(r, nc)]
