"""Exact integer matrices, Smith normal form and integer linear solvers.

Everything here runs on Python's arbitrary-precision ints; no floating point
is used anywhere in the package.  A matrix is its row view, its one
representation: :attr:`IntMatrix.nonzeros` holds, for each row, the tuple
of its (column, value) pairs with value nonzero, in column order.  Matrices
are immutable once constructed, so they can be shared freely between
complexes and maps.  Every constructor and every operation here writes the
view directly, and since it is canonical, ``==`` and ``hash`` read it.  No
dense row is stored: :meth:`IntMatrix.to_lists` forms them on demand, for
the JSON of a complex or map, ``repr`` and the working rows of :func:`snf`
and :func:`solve`.  The product ``@``, the d^2 test
(:meth:`IntMatrix.product_is_zero`), :func:`invariant_factors`, the
identity deciders of ``complexes``, the frame assembler and the JSON writer
read the view, so they pay per nonzero.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate, compress
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
        self.rows = rows
        self.cols = cols
        self.nonzeros = _pack(cols, packed)

    @classmethod
    def _trusted(cls, rows: int, cols: int, nonzeros: tuple) -> "IntMatrix":
        """Wrap a canonical row view without checks: ``rows`` tuples of
        (column, value) pairs, columns increasing in [0, cols), values
        nonzero Python ints.  For results computed here from valid matrices."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.nonzeros = nonzeros
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
        grid = []
        for left, right in zip(self.nonzeros, other.nonzeros):
            acc = dict(left)
            for j, v in right:
                acc[j] = acc.get(j, 0) + v
            grid.append(acc)
        return IntMatrix._from_row_dicts(self.cols, grid)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix._from_row_dicts(self.cols, [{j: c * v for j, v in nz} for nz in self.nonzeros])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """The product, row by row over the views of both factors, as in
        Gustavson's sparse product: row i is the sum of the rows of other
        named by the nonzeros of row i of self."""
        self._check_product(other)
        right = other.nonzeros
        grid = []
        for left in self.nonzeros:
            acc: Dict[int, int] = {}
            for k, v in left:
                for j, w in right[k]:
                    acc[j] = acc.get(j, 0) + v * w
            grid.append(acc)
        return IntMatrix._from_row_dicts(other.cols, grid)

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


def block(grid: Sequence[Sequence[IntMatrix]]) -> IntMatrix:
    """Assemble a block matrix from a rectangular grid of blocks.

    Blocks in the same grid row must agree in row count, blocks in the same
    grid column in column count; zero-sized blocks are fine.
    """
    if not grid:
        return IntMatrix.zeros(0, 0)
    row_heights = [r[0].rows for r in grid]
    col_widths = [b.cols for b in grid[0]]
    for r in grid:
        if len(r) != len(col_widths):
            raise ValueError("ragged block grid")
        for b, w in zip(r, col_widths):
            if b.cols != w or b.rows != r[0].rows:
                raise ValueError("inconsistent block shapes")
    starts = tuple(accumulate(col_widths, initial=0))
    view = []
    for r in grid:
        for i in range(r[0].rows):
            row: list = []
            for b, col in zip(r, starts):
                row += [(col + j, v) for j, v in b.nonzeros[i]]
            view.append(tuple(row))
    return IntMatrix._trusted(sum(row_heights), sum(col_widths), tuple(view))


class SNFResult(NamedTuple):
    s: IntMatrix
    u: IntMatrix
    v: IntMatrix


def _row_swap(a, i, j):
    a[i], a[j] = a[j], a[i]


def _col_swap(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def _row_sub(a, i, j, q):
    """row_i -= q * row_j"""
    ri, rj = a[i], a[j]
    for k in range(len(ri)):
        ri[k] -= q * rj[k]


def _col_sub(a, i, j, q):
    """col_i -= q * col_j"""
    for row in a:
        row[i] -= q * row[j]


def _row_neg(a, i):
    """row_i = -row_i"""
    a[i] = [-x for x in a[i]]


def _diagonalize(a, nr: int, nc: int) -> list:
    """Reduce the leading nr x nc block of the row lists ``a`` to Smith form,
    in place, by the pivot rule documented on :func:`snf`, and return the
    record of its column operations.

    Every row operation acts on the whole row, so entries past column nc
    end up as u times what they held: appended identity columns record the
    row transform u, and an appended right-hand side b becomes u @ b.  No
    rows carry the column transform v; the returned record lists the column
    operations oldest first, (j, t, None) for a swap of columns j and t and
    (j, t, q) for col_j -= q * col_t.  Replayed in order on the identity, it
    gives v.

    A step ends once the pivot's row and column are clear and the pivot
    divides every trailing entry.  A pivot of 1 or -1 divides every integer,
    so the step ends there without scanning the trailing entries.
    """
    ops = []
    t = 0
    while t < min(nr, nc):
        # deterministic pivot hunt over the trailing submatrix; the first +-1
        # met in row-major order wins, since only a smaller value replaces it
        pivot = None
        best = None
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                if row[j]:
                    val = abs(row[j])
                    if best is None or val < best:
                        best = val
                        pivot = (i, j)
                        if val == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            _row_swap(a, pi, t)
        if pj != t:
            _col_swap(a, pj, t)
            ops.append((pj, t, None))

        while True:
            # clear the pivot column; nonzero remainders are strictly smaller
            # than the pivot, so swapping them up makes progress
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        _row_sub(a, i, t, q)
                    if a[i][t]:
                        _row_swap(a, i, t)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        _col_sub(a, j, t, q)
                        ops.append((j, t, q))
                    if a[t][j]:
                        _col_swap(a, j, t)
                        ops.append((j, t, None))
                        dirty = True
            if dirty:
                continue
            # row and column are clear; enforce the divisibility chain, which
            # a +-1 pivot meets already: x % 1 == x % -1 == 0 for every int
            d = a[t][t]
            if d == 1 or d == -1:
                break
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _row_sub(a, t, offender, -1)  # add the offending row to the pivot row
        if a[t][t] < 0:
            _row_neg(a, t)
        t += 1
    return ops


def snf(m: IntMatrix) -> SNFResult:
    """Smith normal form: returns (s, u, v) with u @ m @ v == s.

    ``s`` is diagonal with nonnegative entries d_1 | d_2 | ... and ``u``, ``v``
    are unimodular.  Pivot selection is deterministic: among the remaining
    submatrix, the entry of smallest nonzero absolute value, ties broken by
    lowest row index, then lowest column index.  :func:`solve` and
    :func:`kernel_basis` depend on this rule; :func:`invariant_factors` does not.
    The hunt stops at the first +-1, which no later entry can replace.  Each
    step ends once the pivot's row and column are clear and the pivot divides
    every trailing entry; a +-1 pivot ends it without that scan.

    The transforms serve :func:`kernel_basis` only: :func:`solve` runs the
    same elimination and builds neither.
    """
    nr, nc = m.rows, m.cols
    # [m | 1]: row operations reach u
    a = [row + [1 if k == i else 0 for k in range(nr)] for i, row in enumerate(m.to_lists())]
    ops = _diagonalize(a, nr, nc)
    # v from the column record, kept as its list of columns
    vcols = [[1 if k == i else 0 for k in range(nc)] for i in range(nc)]
    for j, t, q in ops:
        if q is None:
            vcols[j], vcols[t] = vcols[t], vcols[j]
        else:
            vcols[j] = [x - q * y for x, y in zip(vcols[j], vcols[t])]
    return SNFResult(
        IntMatrix._trusted(nr, nc, _pack(nc, [row[:nc] for row in a])),
        IntMatrix._trusted(nr, nr, _pack(nr, [row[nc:] for row in a])),
        IntMatrix._trusted(nc, nc, _pack(nc, zip(*vcols))),
    )


def invariant_factors(m: IntMatrix) -> Vector:
    """The nonzero diagonal of the Smith form, in divisibility order.

    The invariant factors are unique, so they are found by any sequence of
    unimodular row and column operations, in any order and without building
    transforms.  On sparse rows, +-1 pivots go first: the row with the fewest
    nonzeros that holds one (the lowest index among those), then its unit
    column with the fewest nonzeros.  A heap keyed by (row length, row index)
    finds that row; an entry that no longer describes its row is skipped when
    popped, and a row changed by an elimination is pushed again while it
    holds a unit.  Each unit pivot contributes a factor 1 and leaves the
    Schur complement with its row and column deleted, since 1 divides every
    later factor.  What is left, if anything, goes through the dense
    diagonalization of :func:`snf` without transforms.  The sparse rows are
    the matrix's view.
    """
    rows: Dict[int, Dict[int, int]] = {}
    cols: Dict[int, set] = {}
    for i, nz in enumerate(m.nonzeros):
        if nz:
            rows[i] = dict(nz)
            for j, _ in nz:
                cols.setdefault(j, set()).add(i)
    heap = [(len(r), i) for i, r in rows.items() if _holds_unit(r)]
    heapify(heap)
    units = 0
    while heap:
        length, best = heappop(heap)
        prow = rows.get(best)
        if prow is None or len(prow) != length or not _holds_unit(prow):
            continue
        del rows[best]
        for j in prow:
            cols[j].discard(best)
        q = min((j for j, v in prow.items() if v == 1 or v == -1), key=lambda j: len(cols[j]))
        unit = prow.pop(q)
        for i in cols.pop(q):
            r = rows[i]
            c = r.pop(q) * unit  # unit is its own inverse
            for j, v in prow.items():
                nv = r.get(j, 0) - c * v
                if nv:
                    if j not in r:
                        cols[j].add(i)
                    r[j] = nv
                else:
                    del r[j]
                    cols[j].discard(i)
            if not r:
                del rows[i]
            elif _holds_unit(r):
                heappush(heap, (len(r), i))
        units += 1
    rest: tuple = ()
    if rows:
        live = sorted(j for j, held in cols.items() if held)
        a = [[r.get(j, 0) for j in live] for r in rows.values()]
        _diagonalize(a, len(a), len(live))
        rest = tuple(a[t][t] for t in range(min(len(a), len(live))) if a[t][t])
    return (1,) * units + rest


def _holds_unit(row: Dict[int, int]) -> bool:
    values = row.values()
    return 1 in values or -1 in values


def rank(m: IntMatrix) -> int:
    """Rank over the rationals: the number of invariant factors."""
    return len(invariant_factors(m))


def solve(m: IntMatrix, b: Sequence[int]) -> Optional[Vector]:
    """One integer solution x of m @ x = b, or None if there is none.

    The solution is deterministic: it is the back-substitution through the
    Smith decomposition u @ m @ v = s of :func:`snf` with every free
    parameter set to zero, x = v @ y where s @ y = u @ b.  Neither transform
    is built: :func:`_diagonalize` runs on the rows of [m | b], so its row
    operations carry b to u @ b, and its column record, replayed on y newest
    first, forms v @ y.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length %d does not match %d rows" % (len(b), m.rows))
    nc = m.cols
    a = [row + [c] for row, c in zip(m.to_lists(), b)]
    ops = _diagonalize(a, m.rows, nc)
    y = [0] * nc
    for i, row in enumerate(a):
        c = row[nc]
        if i < nc and row[i]:
            q, rem = divmod(c, row[i])
            if rem:
                return None
            y[i] = q
        elif c:
            return None
    # v is the product of the column operations, oldest on the left
    for j, t, q in reversed(ops):
        if q is None:
            y[j], y[t] = y[t], y[j]
        else:
            y[t] -= q * y[j]
    return tuple(y)


def kernel_basis(m: IntMatrix) -> list:
    """A basis of the lattice of integer solutions of m @ x = 0.

    The columns of v matched with zero diagonal entries of the Smith form are
    a basis of the full kernel lattice (not merely a finite-index sublattice),
    since v is unimodular.
    """
    s, _u, v = snf(m)
    r = sum(1 for i in range(min(m.rows, m.cols)) if s[i, i])
    return [tuple(v[i, j] for i in range(m.cols)) for j in range(r, m.cols)]
