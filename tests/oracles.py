"""Independent oracles that only the tests use.

``from_rows`` builds a matrix from its dense rows, reading the shape off
them.  ``cylinder`` is the mapping cylinder that criterion 3 compares the edge
frame with, ``matmul`` is the schoolbook product, ``det`` and ``is_unimodular``
check the Smith-form transforms,
``diagonalize_exhaustive`` is the Smith diagonalization with a pivot hunt
over the whole trailing submatrix, ``snf_forward`` is ``snf`` as it read
when it replayed its column record forward on the identity,
``kernel_basis_via_snf`` is ``kernel_basis`` as it read when it read v off
that ``snf``, ``solve_via_snf`` is ``solve`` as it read when it ran that
``snf`` and multiplied by both transforms through ``mat_vec``, and
``verify_mc_extension`` fills the top cochain of a simplex and tests its
coherence identity.  ``hom_differential``, ``coherence_defect`` and
``maurer_cartan_items`` form D(f) and the Maurer-Cartan defect densely and
read the validator's verdicts and witnesses off them; ``cycle_defect``,
``last_vertex_verdicts`` and ``certificate_identities`` decide the identities
of the check suite by dense products, sums and scalings.  Both are the
library's code from before it decided these identities column by column.
``combination_is_zero`` and ``combination_matrix`` are the column-wise
deciders, over ``_nonzero_columns``, that the library used before it decided
them row by row over the row-nonzero views.  ``composite_equals`` and
``homotopy_inverse_certified`` decide the homotopy-inverse certificate of a
structure map row by row on its assembled matrices, as ``is_homotopical``
did before it judged every selection on the stored row views; they are the
reference for that view route.
``is_weak_equivalence_d`` tells the max-preserving morphisms of the
direct category; ``structure_maps`` builds every structure map of a
diagram, and
``homotopical_items`` is ``is_homotopical`` as it read when the diagram
stored all of them.  ``latching_data`` builds the latching sub-complex, its
inclusion and the cokernel of a frame, and ``reedy_items`` is
``is_reedy_cofibrant`` as it read when it built the inclusion matrices and
the cokernel complex; ``transpose`` and ``submatrix`` serve them.
``simplicial_compat_items`` is ``check_simplicial_compat`` as it read when
it built the restriction act(alpha, t) of every item and compared it with
the stored one as a simplex.
"""

from itertools import compress
from operator import add
from typing import Dict, Optional, Sequence

from dgframes.complexes import (
    ChainComplex,
    GradedMap,
    composite_term,
    cone,
    first_defect,
    homology,
    identity_term,
    map_term,
    shift,
)
from dgframes.dg_nerve import NerveSimplex, act, increasing_sequences
from dgframes.exact_linalg import (
    IntMatrix,
    SNFResult,
    Vector,
    _col_sub,
    _col_swap,
    _diagonalize,
    _pack,
    _row_sub,
    _row_swap,
    block,
)
from dgframes.frames import (
    FrameDiagram,
    FrameObject,
    LastVertexCheck,
    _assemble,
    _at,
    _morphism_key,
    check_last_vertex,
)
from dgframes.reporting import Report
from dgframes.simplicial import DMorphism, OrderMap, enumerate_d_objects, enumerate_inclusions


def from_rows(data: Sequence[Sequence[int]]) -> IntMatrix:
    """The matrix of the dense rows ``data``, its width read off the first
    row; the 0 x 0 matrix for no rows."""
    data = [list(r) for r in data]
    if not data:
        return IntMatrix.zeros(0, 0)
    return IntMatrix(len(data), len(data[0]), data)


def cylinder(f: GradedMap):
    """Mapping cylinder of a chain map f : X -> Y.

    Returns (cyl, in_src, in_tgt, proj).  Cyl(f)_d = X_d (+) Y_d (+) X_{d-1}
    with differential

        d(x, y, xbar) = (d x - xbar,  d y + f xbar,  -d xbar),

    the summands being labelled "0|...", "1|..." and "0,1|..." in that order.
    These labels and blocks coincide, entry for entry, with the cofibrant
    resolution of a one-arrow diagram, which is what pins this sign choice.
    ``proj`` is the standard projection collapsing the source end along f;
    ``in_tgt`` is a chain homotopy equivalence.
    """
    if f.degree != 0:
        raise ValueError("cylinder needs a degree-0 map")
    if not f.is_cycle():
        raise ValueError("cylinder needs a chain map")
    x, y = f.source, f.target
    degrees = sorted(set(x.support) | set(y.support) | {d + 1 for d in x.support})
    ranks = {}
    labels = {}
    for d in degrees:
        ranks[d] = x.rank(d) + y.rank(d) + x.rank(d - 1)
        labels[d] = (
            tuple("0|%s" % s for s in x.labels(d))
            + tuple("1|%s" % s for s in y.labels(d))
            + tuple("0,1|%s" % s for s in x.labels(d - 1))
        )
    diffs = {}
    for d in degrees:
        if not ranks.get(d - 1, 0) or not ranks[d]:
            continue
        diffs[d] = block(
            [
                [
                    x.diff(d),
                    IntMatrix.zeros(x.rank(d - 1), y.rank(d)),
                    IntMatrix.identity(x.rank(d - 1)).scale(-1),
                ],
                [
                    IntMatrix.zeros(y.rank(d - 1), x.rank(d)),
                    y.diff(d),
                    f.mat(d - 1),
                ],
                [
                    IntMatrix.zeros(x.rank(d - 2), x.rank(d)),
                    IntMatrix.zeros(x.rank(d - 2), y.rank(d)),
                    x.diff(d - 1).scale(-1),
                ],
            ]
        )
    cyl = ChainComplex("Cyl(%s->%s)" % (x.name, y.name), ranks, diffs, labels)
    in_src = GradedMap(
        x,
        cyl,
        0,
        {
            d: IntMatrix.from_entries(
                cyl.rank(d), x.rank(d), {(i, i): 1 for i in range(x.rank(d))}
            )
            for d in x.support
            if cyl.rank(d)
        },
    )
    in_tgt = GradedMap(
        y,
        cyl,
        0,
        {
            d: IntMatrix.from_entries(
                cyl.rank(d), y.rank(d), {(x.rank(d) + i, i): 1 for i in range(y.rank(d))}
            )
            for d in y.support
            if cyl.rank(d)
        },
    )
    proj_mats = {}
    for d in cyl.support:
        if not y.rank(d):
            continue
        entries = {}
        fm = f.mat(d)
        for i in range(y.rank(d)):
            for j in range(x.rank(d)):
                if fm[i, j]:
                    entries[(i, j)] = fm[i, j]
            entries[(i, x.rank(d) + i)] = 1
        proj_mats[d] = IntMatrix.from_entries(y.rank(d), cyl.rank(d), entries)
    proj = GradedMap(cyl, y, 0, proj_mats)
    return cyl, in_src, in_tgt, proj


def diagonalize_exhaustive(a, nr: int, nc: int) -> list:
    """``exact_linalg._diagonalize`` as it was before its pivot hunt stopped
    at the first +-1 and before a step ended at a +-1 pivot without its
    divisibility scan: the hunt scans the whole trailing submatrix, and every
    step scans the trailing entries for one its pivot does not divide.  Reduces
    the leading nr x nc block of the row lists ``a`` to Smith form, in place,
    by the pivot rule documented on :func:`snf`.

    Every row operation acts on the whole row, so entries past column nc end
    up as u times what they held.  Returns the record of the column
    operations in the form ``_diagonalize`` returns it.
    """
    ops = []
    t = 0
    while t < min(nr, nc):
        # deterministic pivot hunt over the trailing submatrix
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                val = abs(a[i][j])
                if val and (best is None or val < best):
                    best = val
                    pivot = (i, j)
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
            if any(a[i][t] for i in range(t + 1, nr)) or any(a[t][j] for j in range(t + 1, nc)):
                continue
            # row and column are clear; enforce the divisibility chain
            offender = None
            d = a[t][t]
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
            a[t] = [-x for x in a[t]]
        t += 1
    return ops


def mat_vec(m: IntMatrix, v: Sequence[int]) -> Vector:
    if len(v) != m.cols:
        raise ValueError("vector length %d does not match %d columns" % (len(v), m.cols))
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m.to_lists())


def solve_via_snf(m: IntMatrix, b: Sequence[int]) -> Optional[Vector]:
    """One integer solution x of m @ x = b, or None if there is none.

    The solution is deterministic: it is the back-substitution through the
    Smith decomposition with every free parameter set to zero.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length %d does not match %d rows" % (len(b), m.rows))
    s, u, v = snf_forward(m)
    c = mat_vec(u, b)
    y = [0] * m.cols
    r = min(m.rows, m.cols)
    for i in range(r):
        d = s[i, i]
        if d:
            q, rem = divmod(c[i], d)
            if rem:
                return None
            y[i] = q
        elif c[i]:
            return None
    for i in range(r, m.rows):
        if c[i]:
            return None
    return mat_vec(v, y)


def snf_forward(m: IntMatrix) -> SNFResult:
    """``exact_linalg.snf`` as it read before it formed v through
    ``_apply_v``: it replays the column record forward, oldest operation
    first, on the columns of the identity."""
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


def kernel_basis_via_snf(m: IntMatrix) -> list:
    """``exact_linalg.kernel_basis`` as it read when it ran ``snf``, with
    both transforms, and read the kernel off the columns of v matched with
    zero diagonal entries of the Smith form."""
    s, _u, v = snf_forward(m)
    r = sum(1 for i in range(min(m.rows, m.cols)) if s[i, i])
    return [tuple(v[i, j] for i in range(m.cols)) for j in range(r, m.cols)]


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product by the triple loop over every cell, zeros included."""
    if a.cols != b.rows:
        raise ValueError("cannot multiply %dx%d by %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    left, right = a.to_lists(), b.to_lists()
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] += left[i][k] * right[k][j]
    return IntMatrix(a.rows, b.cols, out)


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a nonsquare matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and det(m) in (1, -1)


def verify_mc_extension(s_partial: NerveSimplex, candidate: GradedMap) -> bool:
    """Whether filling the top cochain of a boundary-complete simplex with
    ``candidate`` satisfies the coherence identity on the top sequence.

    All cochains except possibly the top one must be present; the faces are
    assumed coherent (their own identities are the caller's concern)."""
    n = s_partial.n
    if n < 1:
        raise ValueError("a 0-simplex has no top cochain to extend")
    top = tuple(range(n + 1))
    for seq in increasing_sequences(n):
        if seq != top and seq not in s_partial.maps:
            raise ValueError("missing cochain at %s" % (seq,))
    filled = dict(s_partial.maps)
    filled[top] = candidate
    completed = NerveSimplex(s_partial.objects, filled)
    return coherence_defect(completed, top).is_zero()


# -- the Maurer-Cartan identity by dense products --------------------------------


def hom_differential(f: GradedMap) -> GradedMap:
    """D(f) = d_Y o f - (-1)^{|f|} f o d_X, a graded map of degree |f| - 1."""
    x, y, r = f.source, f.target, f.degree
    sign = -1 if r % 2 == 0 else 1  # this is -(-1)^r
    mats = {}
    for d in x.support:
        if y.rank(d + r - 1) == 0:
            continue
        m = y.diff(d + r) @ f.mat(d) + (f.mat(d - 1) @ x.diff(d)).scale(sign)
        mats[d] = m
    return GradedMap(x, y, r - 1, mats)


def coherence_rhs(s: NerveSimplex, seq: tuple) -> GradedMap:
    """sum_j (-1)^j f(face_j) + sum_j (-1)^{(j-1)k} f(suffix_j) o f(prefix_j)."""
    k = len(seq) - 1
    acc = GradedMap.zero(s.objects[seq[0]], s.objects[seq[-1]], k - 2)
    for j in range(1, k):
        face = s.eval(seq[:j] + seq[j + 1 :])
        acc = acc + (face if j % 2 == 0 else face.scale(-1))
        comp = s.eval(seq[j:]) @ s.eval(seq[: j + 1])
        sign = -1 if ((j - 1) * k) % 2 else 1
        acc = acc + (comp if sign == 1 else comp.scale(-1))
    return acc


def coherence_defect(s: NerveSimplex, seq) -> GradedMap:
    """D(f(seq)) + rhs; zero exactly when the coherence identity holds at seq."""
    seq = tuple(seq)
    return hom_differential(s.eval(seq)) + coherence_rhs(s, seq)


def maurer_cartan_items(s: NerveSimplex):
    """(location, ok, witness) of each item of validate_maurer_cartan."""
    out = []
    for seq in increasing_sequences(s.n):
        defect = coherence_defect(s, seq)
        witness = None
        if not defect.is_zero():
            witness = _first_nonzero_entry(defect)
        out.append((",".join(str(v) for v in seq), defect.is_zero(), witness))
    return out


def _first_nonzero_entry(f: GradedMap) -> str:
    for d in f.source.support:
        m = f.mat(d)
        for i in range(m.rows):
            for j in range(m.cols):
                if m[i, j]:
                    return "degree %d entry (%d,%d) = %d" % (d, i, j, m[i, j])
    return "zero"


# -- the check-suite identities by dense products -------------------------------


def _nonzero_at(f: GradedMap, what: str) -> Optional[str]:
    """None when f = 0, else ``what`` with the first degree where f is nonzero."""
    d = next((d for d in f.source.support if not f.mat(d).is_zero()), None)
    return None if d is None else "%s at degree %d" % (what, d)


def cycle_defect(f: GradedMap) -> Optional[int]:
    """The first degree where D(f) != 0, or None when f is a cycle, read
    off the formed D(f); ``hom_differential(f).is_zero()`` is the verdict."""
    df = hom_differential(f)
    return next((d for d in df.source.support if not df.mat(d).is_zero()), None)


def last_vertex_verdicts(j: GradedMap, r: GradedMap, h: GradedMap, b: ChainComplex):
    """The (check, witness) pairs of check_last_vertex for the last-vertex
    maps j, r, h of the frame complex b."""
    chain = _nonzero_at(hom_differential(j), "D(j) != 0") or _nonzero_at(hom_differential(r), "D(r) != 0")
    section = _nonzero_at((r @ j) - GradedMap.identity(j.source), "r o j != id")
    htpy = _nonzero_at(hom_differential(h) - ((j @ r) - GradedMap.identity(b)), "D(h) != j o r - id")
    return (("last-vertex-chain", chain), ("last-vertex-section", section), ("last-vertex-homotopy", htpy))


def composite_equals(f: GradedMap, g: GradedMap, h: GradedMap) -> bool:
    """Whether f o g == h, as GradedMap.__eq__ decides it, without forming
    f o g.  ValueError when f o g is not defined, as for ``f @ g``."""
    if g.target is not f.source and g.target != f.source:
        raise ValueError("composition endpoints do not match")
    # tuples compare their items by identity first, then by ==
    if f.degree + g.degree != h.degree or (g.source, f.target) != (h.source, h.target):
        return False
    return first_defect(h.source, h.target, h.degree, lambda d: composite_term(1, f, g, d) + map_term(-1, h, d)) is None


def homotopy_inverse_certified(g: GradedMap, src: LastVertexCheck, tgt: LastVertexCheck) -> bool:
    """Whether q = j_src o r_tgt is a homotopy inverse of the chain map
    g : B(beta) -> B(alpha), by literal identities.

    Given the last-vertex identities at both ends, g o j_src = j_tgt and
    r_tgt o g = r_src give g o q = j_tgt r_tgt ~ id through h_tgt and
    q o g = j_src r_src ~ id through h_src, so the cone of g is acyclic.  The
    two identities hold for the structure map of every max-preserving
    morphism; they are decided row by row over the maps' row views, without
    forming either composite.  The caller must already know that g is a
    chain map and that both frames have d^2 = 0."""
    return src.holds and tgt.holds and composite_equals(g, src.j, tgt.j) and composite_equals(tgt.r, g, src.r)


def certificate_identities(g: GradedMap, src_j, src_r, tgt_j, tgt_r):
    """(g o j_src == j_tgt, r_tgt o g == r_src), the two literal identities of
    the homotopy-inverse certificate of g : B(src) -> B(tgt)."""
    return g @ src_j == tgt_j, tgt_r @ g == src_r


# -- the check-suite identities decided column by column -------------------------


def _nonzero_columns(height: int, width: int, terms):
    """(col, column col as a list) for each nonzero column of the height x
    width sum of the ``terms``, in column order.

    A term (c, A, B) of IntMatrix A and B stands for c * A o B, (c, None, B)
    for c * B, and (c, None, None), in a square sum, for c times the identity.
    Column col of the sum adds, for each term, c * v times column k of A for
    each nonzero v = B[k, col], c times column col of B, or c at row col; the
    zeros of B are skipped."""
    columns = [
        (
            c,
            None if a is None else tuple(zip(*a.to_lists())),
            None if b is None else (range(b.rows), zip(*b.to_lists())),
        )
        for c, a, b in terms
    ]
    for col in range(width):
        acc = None  # column col of the sum, None while it is zero
        for c, a, b in columns:
            if b is None:
                if acc is None:
                    acc = [0] * height
                acc[col] += c
                continue
            rows, b_cols = b
            b_col = next(b_cols)
            if a is None:
                part = b_col if c == 1 else map(c.__mul__, b_col)
                acc = list(part) if acc is None else list(map(add, acc, part))
                continue
            for k in compress(rows, b_col):
                v = c * b_col[k]
                part = a[k] if v == 1 else map(v.__mul__, a[k])
                acc = list(part) if acc is None else list(map(add, acc, part))
        if acc is not None and any(acc):
            yield col, acc


def combination_is_zero(height: int, width: int, terms) -> bool:
    """Whether the height x width sum of the ``terms`` (see _nonzero_columns)
    is zero; the first nonzero column ends the test."""
    return next(_nonzero_columns(height, width, terms), None) is None


def combination_matrix(height: int, width: int, terms) -> IntMatrix:
    """The height x width sum of the ``terms`` (see _nonzero_columns)."""
    columns = [(0,) * height] * width
    for col, acc in _nonzero_columns(height, width, terms):
        columns[col] = acc
    return IntMatrix(height, width, zip(*columns) if width else ((),) * height)


# -- structure maps, all built at once --------------------------------------------


def is_weak_equivalence_d(m: DMorphism) -> bool:
    """True when the injection carries the last index of the source to the
    last index of the target."""
    return m.inj[-1] == m.tgt.dom


def structure_maps(diagram) -> dict:
    """Every structure map of the diagram keyed by its morphism, in the order
    of the targets and then of ``enumerate_inclusions``, each built with
    ``diagram.structure_map``."""
    return {mor: diagram.structure_map(mor) for alpha in diagram.objects for mor in enumerate_inclusions(alpha)}


def homotopical_items(diagram, last_vertex=None):
    """The items of ``is_homotopical``, by its loop from when the diagram
    stored every structure map: build them all, then judge the
    max-preserving ones."""
    morphisms = structure_maps(diagram)
    if last_vertex is None:
        last_vertex = {alpha: check_last_vertex(o) for alpha, o in diagram.objects.items()}
    report = Report()
    for mor, g in morphisms.items():
        if not is_weak_equivalence_d(mor):
            continue
        broken = next((a for a in (mor.src, mor.tgt) if diagram.objects[a].d2_defects), None)
        if broken is not None:
            report.add(
                "homotopical",
                _morphism_key(mor),
                False,
                "endpoint B(%s) has d^2 != 0 at degree %d" % (broken.key(), diagram.objects[broken].d2_defects[0]),
            )
            continue
        if not g.is_cycle():
            report.add("homotopical", _morphism_key(mor), False, "structure map is not a chain map")
            continue
        if homotopy_inverse_certified(g, last_vertex[mor.src], last_vertex[mor.tgt]):
            report.add("homotopical", _morphism_key(mor), True)
            continue
        hom = homology(cone(g))
        ok = hom.is_trivial()
        report.add("homotopical", _morphism_key(mor), ok, None if ok else "cone homology: %s" % hom)
    return report.items


# -- simplicial compatibility, one restriction per item ----------------------------


def simplicial_compat_items(sigma: OrderMap, diagram: FrameDiagram):
    """The items of ``check_simplicial_compat``, by its loop from when it
    built act(alpha, t) once per item."""
    t = act(sigma, diagram.simplex)
    report = Report()
    for alpha in enumerate_d_objects(sigma.dom, diagram.max_len):
        ok = act(alpha, t) == diagram.objects[sigma.compose(alpha)].restriction
        wit = None if ok else "frames differ"
        report.add("simplicial-compat", "sigma=%s alpha=%s" % (sigma.key(), alpha.key()), ok, wit)
    return report.items


# -- latching objects, built as complexes ------------------------------------------


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(m.cols, m.rows, zip(*m.to_lists()) if m.rows else ((),) * m.cols)


def submatrix(m: IntMatrix, rows: Sequence[int], cols: Sequence[int]) -> IntMatrix:
    """The submatrix on the given row and column indices, in the given order."""
    dense = m.to_lists()
    return IntMatrix(len(rows), len(cols), [[dense[i][j] for j in cols] for i in rows])


def latching_data(o: FrameObject):
    """(sub, incl, coker) for the latching filtration of one frame value.

    ``sub`` spans the summands of proper subsets (the image of the latching
    map), ``incl`` is the evident basis inclusion, and ``coker`` is the
    complementary span of the full-subset summand with the induced
    differential, carrying the labels of the source complex so that the
    expected literal equality coker == shift(X_{alpha(0)}, m) can be tested
    directly.  ``incl`` and ``coker`` come from the helpers that
    :func:`reedy_items` reads too.

    Both sub and coker are built without the d^2 check so that deliberately
    corrupted fixtures are reported by the check suite rather than raising.
    """
    c = o.complex
    proper, full = _latching_spans(o)
    sub = _span_complex(o, "L(%s)", proper, {d: c.labels(d)[: len(cols)] for d, cols in proper.items()})
    return sub, GradedMap._trusted(sub, c, 0, _latching_inclusion(o, proper)), _latching_cokernel(o, full)


def _latching_spans(o: FrameObject):
    """(proper, full): per degree, the basis positions of the proper-subset
    summands and those of the full-subset summand, which comes last in basis
    order; degrees where a span is empty are left out."""
    top = tuple(range(o.alpha.dom + 1))
    proper, full = {}, {}
    for d, spans in o.blocks.items():
        rank = o.complex.rank(d)
        start = spans[top][0] if top in spans else rank
        if start:
            proper[d] = range(start)
        if start < rank:
            full[d] = range(start, rank)
    return proper, full


def _span_complex(o: FrameObject, name: str, idx, labels) -> ChainComplex:
    """The span ``idx`` of B per degree, with the differential restricted to it."""
    c = o.complex
    diffs = {d: submatrix(c.diff(d), idx[d - 1], cols) for d, cols in idx.items() if d - 1 in idx}
    return ChainComplex._trusted(name % o.alpha.key(), {d: len(cols) for d, cols in idx.items()}, diffs, labels)


def _latching_inclusion(o: FrameObject, proper) -> Dict[int, IntMatrix]:
    """Per degree of the proper span, the matrix of its basis inclusion into B."""
    return {d: _assemble(o.complex.rank(d), len(cols), [(0, len(cols), [(0, 1, None)])]) for d, cols in proper.items()}


def _latching_cokernel(o: FrameObject, full) -> ChainComplex:
    """The full-subset span, labelled like the shifted source X_{alpha(0)}[m]."""
    x = o.restriction.objects[0]
    return _span_complex(o, "B/L(%s)", full, {d: x.labels(d - o.alpha.dom) for d in full})


def reedy_items(diagram: FrameDiagram):
    """The items of ``is_reedy_cofibrant``, by its loop from when it built
    each degree's inclusion matrix and the cokernel complex: per alpha, the
    proper-subset span is closed under the differential, its inclusion is
    degreewise split injective over the integers, and the complementary
    quotient equals shift(X_{alpha(0)}, m) literally."""
    report = Report()
    for alpha, o in diagram.objects.items():
        proper, full = _latching_spans(o)
        ok_closed, wit_closed = True, None
        for d, cols in proper.items():
            if d - 1 in full and not submatrix(o.complex.diff(d), full[d - 1], cols).is_zero():
                ok_closed, wit_closed = False, "differential leaves the latching span at degree %d" % d
                break
        report.add("latching-closure", alpha.key(), ok_closed, wit_closed)

        unsplit = next((d for d, m in _latching_inclusion(o, proper).items() if not _split_by_transpose(m)), None)
        report.add("latching-split", alpha.key(), unsplit is None, _at(unsplit, "inclusion is not split"))

        ok_coker = _latching_cokernel(o, full) == shift(diagram.simplex.objects[alpha(0)], alpha.dom)
        wit_coker = None if ok_coker else "quotient differs from the shifted source"
        report.add("latching-cokernel", alpha.key(), ok_coker, wit_coker)
    return report.items


def _split_by_transpose(m: IntMatrix) -> bool:
    """Whether m^T o m = id, decided like the last-vertex identities.  This
    holds exactly when every column of m is +-e_i with distinct i, and then
    m^T is a retraction of m."""
    return combination_is_zero(m.cols, m.cols, ((1, transpose(m), m),) + identity_term(-1))
