"""The resolution B(alpha): twisted sums over the subset lattice of a sequence.

For a valid n-simplex with objects X_0..X_n and coherence maps f, and an
order map alpha : [m] -> [n], the value B(alpha) is the direct sum, over
nonempty subsets S = {s_0 < ... < s_k} of [m], of the shifted complexes
X_{alpha(s_0)}[k].  Writing iota_S for the summand inclusion, the
differential acts on the S summand by

    d o iota_S = (-1)^k iota_S o d_X
               + sum_{j=1..k} (-1)^j           iota_{S \\ {s_j}}
               + sum_{j=1..k} (-1)^{k(j-1)}    iota_{S_{>=j}} o f(alpha<s_0..s_j>),

where S_{>=j} = {s_j < ... < s_k} and f is evaluated through strict
unitality on the (possibly degenerate) value sequence.  This is the unique
differential making the tuple of summand inclusions a closed degree-0
element of the twisted mapping complex; d^2 = 0 is equivalent to the
Maurer-Cartan identity for f and is asserted on construction.

Basis and labels are canonical so that equality of frame values is literal:
subsets are ordered by size then lexicographically, then by source basis
order, and a pair (S, e) is labelled "s_0,...,s_k|<label of e>".  A singleton
alpha produces X_{alpha(0)} itself, labels included.

B(alpha) reads the simplex only through its restriction act(alpha, s): the
objects X_{alpha(i)} and the cochains on the alpha-images of increasing
sequences.  Naturality under reindexing, B_{act(sigma, s)}(alpha) =
B_s(sigma o alpha), therefore follows from the nerve identity
act(alpha, act(sigma, s)) = act(sigma o alpha, s), and that identity is what
the simplicial compatibility check compares.

The module also provides the structure maps (basis inclusions along subset
reindexing), latching data for the Reedy condition, the last-vertex
inclusion/retraction/homotopy triple with the homotopy inverses it gives
the structure maps of max-preserving morphisms, the homotopical and
simplicial compatibility check suites, an integer splitting solver for
acyclic cofibrations, and the recovery of a 1-simplex edge from its
cylinder frame.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .complexes import (
    ChainComplex,
    GradedMap,
    cone,
    graded_map_to_vector,
    hom_basis,
    hom_differential,
    homology,
    is_acyclic,
    is_weak_equivalence,
    shift,
    vector_to_graded_map,
)
from .dg_nerve import NerveSimplex, act
from .exact_linalg import IntMatrix, block, invariant_factors, solve, submatrix
from .reporting import Report
from .simplicial import (
    DMorphism,
    OrderMap,
    enumerate_d_objects,
    enumerate_inclusions,
    is_weak_equivalence_d,
    nonempty_subsets,
)


class FrameObject:
    """One value B(alpha), with its basis bookkeeping.

    ``basis`` maps each degree to the tuple of pairs (S, e): S an increasing
    tuple of indices in [alpha.dom], e the index of a basis element of
    X_{alpha(S[0])} in degree d - (len(S) - 1).  ``position`` inverts it.
    ``restriction`` is act(alpha, simplex), all the complex was built from.
    """

    def __init__(self, simplex: NerveSimplex, alpha: OrderMap, complex: ChainComplex, basis, restriction):
        self.simplex = simplex
        self.alpha = alpha
        self.complex = complex
        self.basis: Dict[int, tuple] = dict(basis)
        self.restriction = restriction

    @cached_property
    def position(self) -> Dict[int, Dict[tuple, int]]:
        return {d: {pair: c for c, pair in enumerate(pairs)} for d, pairs in self.basis.items()}

    @cached_property
    def d2_defects(self) -> List[int]:
        """Degrees where the differential does not square to zero (empty for
        every frame of a valid simplex)."""
        return self.complex.d_squared_defects()

    def source_complex(self, subset) -> ChainComplex:
        return self.simplex.objects[self.alpha(subset[0])]

    def summand_inclusion(self, subset) -> GradedMap:
        """iota_S as a graded map X_{alpha(S[0])} -> B of degree len(S)-1."""
        subset = tuple(subset)
        k = len(subset) - 1
        x = self.source_complex(subset)
        mats = {}
        for t in x.support:
            pos = self.position.get(t + k)
            if pos is None:
                continue
            entries = {(pos[(subset, i)], i): 1 for i in range(x.rank(t))}
            mats[t] = IntMatrix.from_entries(self.complex.rank(t + k), x.rank(t), entries)
        return GradedMap(x, self.complex, k, mats)

    def __repr__(self):
        return "FrameObject(alpha=%s, total rank %d)" % (self.alpha.key(), self.complex.total_rank())

    def to_json(self) -> dict:
        c = self.complex
        return {
            "alpha": self.alpha.key(),
            "degrees": {str(d): c.rank(d) for d in c.support},
            "labels": {str(d): list(c.labels(d)) for d in c.support},
            "differentials": {str(d): c.diff(d).to_lists() for d in c.support if c.rank(d - 1)},
        }


def build_frame_object(s: NerveSimplex, alpha: OrderMap, check: bool = True) -> FrameObject:
    """Construct B(alpha) for a valid simplex from its restriction
    act(alpha, s) alone, which the frame keeps; alpha only names it.

    With ``check`` the construction asserts d^2 = 0 (and therefore fails loudly
    on an invalid simplex); the check suites disable it to report defects
    instead of raising.
    """
    if alpha.cod != s.n:
        raise ValueError("alpha lands in [%d] but the simplex has dimension %d" % (alpha.cod, s.n))
    r = act(alpha, s)
    lone = alpha.dom == 0
    # one entry per subset S: (S, its shift k, X_{alpha(S[0])}, its label prefix)
    summands = [
        (S, len(S) - 1, r.objects[S[0]], ",".join(map(str, S)) + "|") for S in nonempty_subsets(alpha.dom)
    ]
    degrees = sorted({t + k for _, k, x, _ in summands for t in x.support})

    # the (S, e) pairs of a degree are contiguous per subset; offset[d][S] is
    # the column of (S, 0)
    basis: Dict[int, tuple] = {}
    labels: Dict[int, tuple] = {}
    offset: Dict[int, Dict[tuple, int]] = {}
    for d in degrees:
        pairs: List[tuple] = []
        labs: List[str] = []
        starts = offset[d] = {}
        for S, k, x, prefix in summands:
            rank = x.rank(d - k)
            if rank:
                starts[S] = len(pairs)
                pairs.extend((S, e) for e in range(rank))
                labs.extend(x.labels(d - k) if lone else [prefix + lab for lab in x.labels(d - k)])
        basis[d] = tuple(pairs)
        labels[d] = tuple(labs)

    diffs = {}
    for d in degrees:
        if d - 1 not in basis:
            continue
        rows = offset[d - 1]
        grid = [[0] * len(basis[d]) for _ in basis[d - 1]]
        for S, k, x, _ in summands:
            col = offset[d].get(S)
            if col is None:
                continue
            ds = d - k
            _add_block(grid, rows.get(S), col, x.diff(ds), -1 if k % 2 else 1)
            for j in range(1, k + 1):
                face = rows[S[:j] + S[j + 1 :]]
                sgn = -1 if j % 2 else 1
                for e in range(x.rank(ds)):
                    grid[face + e][col + e] += sgn
                _add_block(grid, rows.get(S[j:]), col, r.maps[S[: j + 1]].mat(ds), -1 if (k * (j - 1)) % 2 else 1)
        diffs[d] = IntMatrix._trusted(len(grid), len(basis[d]), tuple(map(tuple, grid)))

    cx = ChainComplex("B(%s)" % alpha.key(), {d: len(p) for d, p in basis.items()}, diffs, labels, check=check)
    return FrameObject(s, alpha, cx, basis, r)


def _add_block(grid, row: Optional[int], col: int, m: IntMatrix, sign: int):
    """grid[row + i][col + e] += sign * m[i, e]; ``row`` may be None only when
    m has no rows."""
    for i, mrow in enumerate(m.data):
        out = grid[row + i]
        for e, v in enumerate(mrow):
            if v:
                out[col + e] += sign * v


class FrameDiagram:
    """All frame values over sequences with domain size <= max_len, with the
    structure maps between them."""

    def __init__(self, simplex: NerveSimplex, max_len: int, objects, morphisms):
        self.simplex = simplex
        self.max_len = max_len
        self.objects: Dict[OrderMap, FrameObject] = objects
        self.morphisms: Dict[DMorphism, GradedMap] = morphisms


def build_frame_diagram(s: NerveSimplex, max_len: int = 3, check: bool = True) -> FrameDiagram:
    objects = {}
    for alpha in enumerate_d_objects(s.n, max_len):
        objects[alpha] = build_frame_object(s, alpha, check=check)
    morphisms = {}
    for alpha in objects:
        for mor in enumerate_inclusions(alpha):
            morphisms[mor] = _structure_matrix(objects[mor.src], objects[mor.tgt], mor.inj)
    return FrameDiagram(s, max_len, objects, morphisms)


def _structure_matrix(src: FrameObject, tgt: FrameObject, inj) -> GradedMap:
    mats = {}
    for d, pairs in src.basis.items():
        pos = tgt.position[d]
        entries = {}
        for col, (S, e) in enumerate(pairs):
            entries[(pos[(tuple(inj[i] for i in S), e)], col)] = 1
        mats[d] = IntMatrix.from_entries(tgt.complex.rank(d), src.complex.rank(d), entries)
    return GradedMap(src.complex, tgt.complex, 0, mats)


def structure_map(diagram: FrameDiagram, mor: DMorphism) -> GradedMap:
    """The chain map B(mor.src) -> B(mor.tgt): the basis inclusion S -> inj(S)."""
    got = diagram.morphisms.get(mor)
    if got is None:
        raise ValueError("morphism %s is not in the diagram" % _morphism_key(mor))
    return got


def _morphism_key(mor: DMorphism) -> str:
    return "%s->%s[%s]" % (mor.src.key(), mor.tgt.key(), ",".join(str(i) for i in mor.inj))


# -- latching data and the Reedy condition ------------------------------------


def latching_data(o: FrameObject):
    """(sub, incl, coker) for the latching filtration of one frame value.

    ``sub`` spans the basis pairs whose subset is proper (the image of the
    latching map), ``incl`` is the evident basis inclusion, and ``coker`` is
    the complementary span of full-subset pairs with the induced differential,
    carrying the labels of the source complex so that the expected literal
    equality coker == shift(X_{alpha(0)}, m) can be tested directly.

    Both sub and coker are built without the d^2 check so that deliberately
    corrupted fixtures are reported by the check suite rather than raising.
    """
    return _latching(o)[:3]


def _latching(o: FrameObject):
    """latching_data plus, per degree, the basis positions of the proper-subset
    pairs and of the full-subset pairs."""
    alpha = o.alpha
    m = alpha.dom
    x = o.simplex.objects[alpha(0)]
    sub_idx: Dict[int, list] = {}
    coker_idx: Dict[int, list] = {}
    for d, pairs in o.basis.items():
        sub_idx[d] = [c for c, (S, e) in enumerate(pairs) if len(S) <= m]
        coker_idx[d] = [c for c, (S, e) in enumerate(pairs) if len(S) == m + 1]

    sub_ranks = {d: len(v) for d, v in sub_idx.items() if v}
    sub_labels = {
        d: tuple(o.complex.labels(d)[c] for c in sub_idx[d]) for d in sub_ranks
    }
    sub_diffs = {}
    for d in sub_ranks:
        if sub_ranks.get(d - 1):
            sub_diffs[d] = submatrix(o.complex.diff(d), sub_idx[d - 1], sub_idx[d])
    sub = ChainComplex("L(%s)" % alpha.key(), sub_ranks, sub_diffs, sub_labels, check=False)

    incl_mats = {}
    for d in sub_ranks:
        entries = {(c, col): 1 for col, c in enumerate(sub_idx[d])}
        incl_mats[d] = IntMatrix.from_entries(o.complex.rank(d), sub_ranks[d], entries)
    incl = GradedMap(sub, o.complex, 0, incl_mats)

    coker_ranks = {d: len(v) for d, v in coker_idx.items() if v}
    coker_labels = {d: x.labels(d - m) for d in coker_ranks}
    coker_diffs = {}
    for d in coker_ranks:
        if coker_ranks.get(d - 1):
            coker_diffs[d] = submatrix(o.complex.diff(d), coker_idx[d - 1], coker_idx[d])
    coker = ChainComplex("B/L(%s)" % alpha.key(), coker_ranks, coker_diffs, coker_labels, check=False)
    return sub, incl, coker, sub_idx, coker_idx


def is_reedy_cofibrant(diagram: FrameDiagram) -> Report:
    """Per alpha: the proper-subset span is closed under the differential, its
    inclusion is degreewise split injective over the integers, and the
    complementary quotient equals shift(X_{alpha(0)}, m) literally."""
    report = Report()
    for alpha, o in diagram.objects.items():
        sub, incl, coker, proper_idx, full_idx = _latching(o)
        ok_closed, wit_closed = True, None
        for d in o.complex.support:
            if not proper_idx.get(d) or not full_idx.get(d - 1):
                continue
            leak = submatrix(o.complex.diff(d), full_idx[d - 1], proper_idx[d])
            if not leak.is_zero():
                ok_closed, wit_closed = False, "differential leaves the latching span at degree %d" % d
                break
        report.add("latching-closure", alpha.key(), ok_closed, wit_closed)

        ok_split, wit_split = True, None
        for d in sub.support:
            fac = invariant_factors(incl.mat(d))
            if len(fac) != sub.rank(d) or any(v != 1 for v in fac):
                ok_split, wit_split = False, "inclusion is not split at degree %d" % d
                break
        report.add("latching-split", alpha.key(), ok_split, wit_split)

        ok_coker = coker == shift(o.simplex.objects[alpha(0)], alpha.dom)
        wit_coker = None if ok_coker else "quotient differs from the shifted source"
        report.add("latching-cokernel", alpha.key(), ok_coker, wit_coker)
    return report


# -- last-vertex inclusion, retraction, homotopy -------------------------------


def include_last(o: FrameObject) -> GradedMap:
    """The chain map X_{alpha(a)} -> B at the singleton {a}, a = dom max."""
    return o.summand_inclusion((o.alpha.dom,))


def retraction(o: FrameObject) -> GradedMap:
    """The chain retraction r : B -> X_{alpha(a)} of include_last.

    On the S = {s_0 < ... < s_k} summand it evaluates the coherence cochain on
    the value sequence of S extended by the last vertex, with sign (-1)^k:
    r o iota_S = (-1)^k f(<alpha(s_0), ..., alpha(s_k), alpha(a)>).  Strict
    unitality makes this the identity on the {a} summand and zero on every
    other summand containing a.
    """
    a = o.alpha.dom
    last = o.alpha(a)
    tgt = o.simplex.objects[last]
    subsets = nonempty_subsets(a)
    cochains: Dict[tuple, GradedMap] = {}
    mats = {}
    for d, pairs in o.basis.items():
        if not tgt.rank(d):
            continue
        grid = [[0] * len(pairs) for _ in range(tgt.rank(d))]
        col = 0
        for S in subsets:  # the basis lists each subset's pairs together, in this order
            k = len(S) - 1
            width = o.source_complex(S).rank(d - k)
            if width:
                g = cochains.get(S)
                if g is None:
                    g = cochains[S] = o.simplex.eval(tuple(o.alpha(t) for t in S) + (last,))
                _add_block(grid, 0, col, g.mat(d - k), -1 if k % 2 else 1)
                col += width
        mats[d] = IntMatrix._trusted(len(grid), len(pairs), tuple(map(tuple, grid)))
    return GradedMap(o.complex, tgt, 0, mats)


def homotopy(o: FrameObject) -> GradedMap:
    """The degree-1 map h : B -> B with D(h) = include_last o retraction - id.

    It sends the (S, e) generator to (S u {a}, e) with sign (-1)^{|S|-1} when
    a is not in S, and to zero otherwise.
    """
    a = o.alpha.dom
    mats = {}
    for d, pairs in o.basis.items():
        pos_up = o.position.get(d + 1, {})
        entries = {}
        for col, (S, e) in enumerate(pairs):
            if S[-1] == a:
                continue
            sgn = -1 if (len(S) - 1) % 2 else 1
            entries[(pos_up[(S + (a,), e)], col)] = sgn
        if entries:
            mats[d] = IntMatrix.from_entries(o.complex.rank(d + 1), o.complex.rank(d), entries)
    return GradedMap(o.complex, o.complex, 1, mats)


def last_vertex_data(o: FrameObject):
    """(j, r, h) with r o j = id and D(h) = j o r - id."""
    return include_last(o), retraction(o), homotopy(o)


class LastVertexCheck:
    """A frame's last-vertex inclusion j and retraction r, and one
    (check, witness) pair per last-vertex identity, the witness None when the
    identity holds.  The homotopy h is checked but not kept."""

    __slots__ = ("j", "r", "verdicts")

    def __init__(self, j: GradedMap, r: GradedMap, verdicts: Tuple[Tuple[str, Optional[str]], ...]):
        self.j, self.r, self.verdicts = j, r, verdicts

    @property
    def holds(self) -> bool:
        return all(w is None for _, w in self.verdicts)


def check_last_vertex(o: FrameObject) -> LastVertexCheck:
    """Check that j and r are chain maps, r o j = id and D(h) = j o r - id,
    naming the first failing identity and degree of each."""
    j, r, h = last_vertex_data(o)
    chain = _nonzero_at(hom_differential(j), "D(j) != 0") or _nonzero_at(hom_differential(r), "D(r) != 0")
    section = _nonzero_at((r @ j) - GradedMap.identity(j.source), "r o j != id")
    htpy = _nonzero_at(hom_differential(h) - ((j @ r) - GradedMap.identity(o.complex)), "D(h) != j o r - id")
    return LastVertexCheck(
        j, r, (("last-vertex-chain", chain), ("last-vertex-section", section), ("last-vertex-homotopy", htpy))
    )


def _nonzero_at(f: GradedMap, what: str) -> Optional[str]:
    """None when f = 0, else ``what`` with the first degree where f is nonzero."""
    d = next((d for d in f.source.support if not f.mat(d).is_zero()), None)
    return None if d is None else "%s at degree %d" % (what, d)


def homotopy_inverse_certified(g: GradedMap, src: LastVertexCheck, tgt: LastVertexCheck) -> bool:
    """Whether q = j_src o r_tgt is a homotopy inverse of the chain map
    g : B(beta) -> B(alpha), by literal identities.

    Given the last-vertex identities at both ends, g o j_src = j_tgt and
    r_tgt o g = r_src give g o q = j_tgt r_tgt ~ id through h_tgt and
    q o g = j_src r_src ~ id through h_src, so the cone of g is acyclic.  The
    two identities hold for the structure map of every max-preserving
    morphism.  The caller must already know that g is a chain map and that
    both frames have d^2 = 0."""
    return src.holds and tgt.holds and g @ src.j == tgt.j and tgt.r @ g == src.r


# -- check suites --------------------------------------------------------------


def is_homotopical(diagram: FrameDiagram, last_vertex: Optional[Dict[OrderMap, LastVertexCheck]] = None) -> Report:
    """Every max-preserving morphism must have a structure map whose cone is
    acyclic.  Non-max-preserving morphisms carry no requirement and are
    skipped.  A morphism with an endpoint frame whose d^2 is nonzero fails
    without a cone, since that cone is no complex.

    A chain map passes on its homotopy-inverse certificate (see
    :func:`homotopy_inverse_certified`); only when that fails is its cone
    homology computed, so that a FAIL names the homology.  ``last_vertex``
    holds :func:`check_last_vertex` of every frame, computed here if absent."""
    if last_vertex is None:
        last_vertex = {alpha: check_last_vertex(o) for alpha, o in diagram.objects.items()}
    report = Report()
    for mor, g in diagram.morphisms.items():
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
        ok = is_weak_equivalence(g)
        wit = None if ok else "cone homology: %s" % homology(cone(g))
        report.add("homotopical", _morphism_key(mor), ok, wit)
    return report


def check_simplicial_compat(sigma: OrderMap, diagram: FrameDiagram) -> Report:
    """Frames commute with reindexing: the frame at alpha over t = act(sigma, s)
    equals the diagram's frame at sigma o alpha, as literal complexes (same
    labels, same matrices).

    An item passes exactly when the restriction act(alpha, t) equals the
    stored frame's ``restriction`` (see the module docstring).  A frame is an
    injective function of its restriction, so this decides equality of the
    frames, provided each stored complex is build_frame_object of its own
    restriction.  The check trusts that and does not read the stored
    complexes: a frame built by hand with an intact restriction but a
    tampered complex passes here.  The Reedy and homotopical suites read the
    stored complexes."""
    t = act(sigma, diagram.simplex)
    report = Report()
    for alpha in enumerate_d_objects(sigma.dom, diagram.max_len):
        ok = act(alpha, t) == diagram.objects[sigma.compose(alpha)].restriction
        wit = None if ok else "frames differ"
        report.add("simplicial-compat", "sigma=%s alpha=%s" % (sigma.key(), alpha.key()), ok, wit)
    return report


# -- splitting of acyclic cofibrations -----------------------------------------


def _operator_matrix(op, sx, sy, sdeg, tx, ty, tdeg) -> IntMatrix:
    """Matrix of a linear operator Hom(sx,sy)_sdeg -> Hom(tx,ty)_tdeg over the
    elementary-map bases, assembled column by column."""
    src = hom_basis(sx, sy, sdeg)
    n_rows = len(hom_basis(tx, ty, tdeg))
    cols = []
    for c in range(len(src)):
        unit = [0] * len(src)
        unit[c] = 1
        cols.append(graded_map_to_vector(op(vector_to_graded_map(sx, sy, sdeg, unit))))
    return IntMatrix._trusted(len(src), n_rows, tuple(cols)).transpose()


def split_acyclic_cofibration(iota: GradedMap):
    """Split a degreewise split injective chain map with acyclic cone.

    Returns (p, h) with p o iota = id, D(p) = 0, D(h) = iota o p - id and
    h o iota = 0, found by exact integer linear solves over the mapping
    complexes.  Inputs violating the preconditions raise ValueError.
    """
    if iota.degree != 0 or not iota.is_cycle():
        raise ValueError("expected a chain map of degree 0")
    x, y = iota.source, iota.target
    for d in x.support:
        fac = invariant_factors(iota.mat(d))
        if len(fac) != x.rank(d) or any(v != 1 for v in fac):
            raise ValueError("the map is not degreewise split injective at degree %d" % d)
    if not is_acyclic(cone(iota)):
        raise ValueError("the cone is not acyclic")

    pre = _operator_matrix(lambda f: f @ iota, y, x, 0, x, x, 0)
    dif = _operator_matrix(hom_differential, y, x, 0, y, x, -1)
    rhs = list(graded_map_to_vector(GradedMap.identity(x))) + [0] * dif.rows
    sol = solve(block([[pre], [dif]]), rhs)
    if sol is None:
        raise ValueError("no integer chain retraction exists")
    p = vector_to_graded_map(y, x, 0, sol)

    target = (iota @ p) - GradedMap.identity(y)
    dif2 = _operator_matrix(hom_differential, y, y, 1, y, y, 0)
    pre2 = _operator_matrix(lambda f: f @ iota, y, y, 1, x, y, 1)
    rhs2 = list(graded_map_to_vector(target)) + [0] * pre2.rows
    sol2 = solve(block([[dif2], [pre2]]), rhs2)
    if sol2 is None:
        raise ValueError("no integer homotopy exists")
    h = vector_to_graded_map(y, y, 1, sol2)
    return p, h


# -- 1-simplex recovery --------------------------------------------------------


def recover_map_from_cylinder(o: FrameObject) -> GradedMap:
    """Recover the edge of a 1-simplex from its cylinder frame, up to homotopy:
    split the last-vertex inclusion and compose the retraction with the
    source-end inclusion."""
    if o.simplex.n != 1 or o.alpha.values != (0, 1):
        raise ValueError("recovery expects the frame at <0,1> of a 1-simplex")
    p, _ = split_acyclic_cofibration(include_last(o))
    return p @ o.summand_inclusion((0,))
