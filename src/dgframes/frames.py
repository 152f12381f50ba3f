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
Maurer-Cartan identity for f, and ``FrameObject.d2_defects`` reports it.

The basis lists the summands in the order of nonempty_subsets (by size,
then lexicographically), each in the basis order of its source, so the full
subset [m] comes last.  ``FrameObject.blocks`` records this layout, and a
basis element of the S summand is labelled "s_0,...,s_k|<its source label>".
A singleton alpha produces X_{alpha(0)} itself, labels included.

Every map here between frames and their summands is a sum of signed blocks
between summands: the differential, the summand inclusions, the structure
maps, and the last-vertex retraction and homotopy.  Each is described per
column subset as a list of (row offset, sign, block) and put together by one
assembler; every sign is (-1)^e of an exponent e, written ``parity_sign(e)``
as everywhere in the package.

B(alpha) reads the simplex only through its restriction act(alpha, s): the
objects X_{alpha(i)} and the cochains on the alpha-images of increasing
sequences.  Naturality under reindexing, B_{act(sigma, s)}(alpha) =
B_s(sigma o alpha), therefore follows from the nerve identity
act(alpha, act(sigma, s)) = act(sigma o alpha, s), and that identity is what
the simplicial compatibility check compares, field by field, against a table
of act(sigma, s)'s values with one entry per value sequence.

The module also provides the structure maps (basis inclusions along subset
reindexing, built on demand as lazy selections: a diagram holds frames
only), the Reedy check, which reads each frame's block layout and
differential in place (the latching map is the coordinate inclusion of the
proper-subset summands, so it forms no latching object), the last-vertex
inclusion/retraction/homotopy triple with the homotopy inverses it gives the
structure maps of max-preserving morphisms, the homotopical and simplicial
compatibility check suites, ``run_checks``, which assembles the whole suite,
an integer splitting solver for acyclic cofibrations, and the recovery of a
1-simplex edge from its cylinder frame.

The homotopical check reads only its frames: their d^2 and last-vertex
verdicts, which each frame keeps, and their blocks.  It enumerates only the
max-preserving structure maps and judges each on one path.  A selection of
codimension >= 2 factors as delta o psi', delta a coface, and passes when
both factors passed and the composite is an identity of block layouts: its
certificate identities then follow from theirs, since weak equivalences
compose (2-out-of-3).  Any other selection, the generators (the identities
and the max-preserving cofaces, of codimension <= 1) included, passes on its
own certificate: its chain-map identity and g o j = j, r o g = r, read from
its block positions and the stored row views of d, j and r, with no matrix
of the map assembled; an identity map holds them as written and reads no
row.  A map that is no selection, or fails both, gets the chain-map test and
cone homology, so each PASS rests on an exact identity and each FAIL keeps
its witness.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, combinations_with_replacement
from typing import Dict, List, Optional, Tuple

from .complexes import (
    ChainComplex,
    GradedMap,
    composite_term,
    cone,
    cycle_defect,
    differential_terms,
    first_defect,
    graded_map_to_vector,
    hom_complex_diff,
    homology,
    identity_term,
    is_acyclic,
    parity_sign,
    precompose_matrix,
    shift,
    vector_to_graded_map,
)
from .dg_nerve import NerveSimplex, act, increasing_sequences, validate_maurer_cartan
from .exact_linalg import IntMatrix, block, invariant_factors, solve
from .reporting import Report
from .simplicial import DMorphism, OrderMap, enumerate_d_objects, nonempty_subsets


class FrameObject:
    """One value B(alpha), with its block layout.

    ``blocks[d]`` maps each subset S (an increasing tuple of indices in
    [alpha.dom]) whose summand X_{alpha(S[0])}[len(S) - 1] is nonzero in
    degree d to (first column, width), in basis order: the blocks are
    contiguous and cover [0, rank d), the full subset's block last (the
    Reedy check reads this layout), and the width is the rank of
    X_{alpha(S[0])} in degree d - (len(S) - 1).  ``restriction`` is
    act(alpha, simplex), all the complex was built from.
    """

    def __init__(self, alpha: OrderMap, complex: ChainComplex, blocks, restriction: NerveSimplex):
        self.alpha = alpha
        self.complex = complex
        self.blocks: Dict[int, Dict[tuple, Tuple[int, int]]] = dict(blocks)
        self.restriction = restriction

    @cached_property
    def d2_defects(self) -> List[int]:
        """Degrees where the differential does not square to zero (empty for
        every frame of a valid simplex): the frame's one d^2 verdict."""
        return self.complex.d_squared_defects()

    @cached_property
    def untiled_degree(self) -> Optional[int]:
        """The first degree of the complex or of its layout whose blocks do
        not tile [0, rank d) in stored order with the full subset's block
        last, or None: the frame's one layout verdict."""
        c, top = self.complex, tuple(range(self.alpha.dom + 1))
        degrees = sorted({*c.support, *self.blocks})
        return next((d for d in degrees if not _tiles(self.blocks.get(d, {}), top, c.rank(d))), None)

    @cached_property
    def last_vertex(self) -> LastVertexCheck:
        """:func:`check_last_vertex` of the frame: its one last-vertex verdict."""
        return check_last_vertex(self)

    def source_complex(self, subset) -> ChainComplex:
        return self.restriction.objects[subset[0]]

    def summand_inclusion(self, subset) -> GradedMap:
        """iota_S as a graded map X_{alpha(S[0])} -> B of degree len(S)-1."""
        subset = tuple(subset)
        k = len(subset) - 1
        x = self.source_complex(subset)
        mats = {}
        for t in x.support:
            width = x.rank(t)
            row = self.blocks[t + k][subset][0]
            mats[t] = _assemble(self.complex.rank(t + k), width, [(0, width, [(row, 1, None)])])
        return GradedMap._trusted(x, self.complex, k, mats)

    def __repr__(self):
        return "FrameObject(alpha=%s, total rank %d)" % (self.alpha.key(), self.complex.total_rank())

    def to_json(self) -> dict:
        """The frame for :func:`reporting.canonical_json`, which writes each
        differential, an IntMatrix here, as the list of its rows."""
        c = self.complex
        return {
            "alpha": self.alpha.key(),
            "degrees": {str(d): c.rank(d) for d in c.support},
            "labels": {str(d): list(c.labels(d)) for d in c.support},
            "differentials": {str(d): c.diff(d) for d in c.support if c.rank(d - 1)},
        }


def build_frame_object(s: NerveSimplex, alpha: OrderMap) -> FrameObject:
    """Construct B(alpha) from the restriction act(alpha, s) alone, which the
    frame keeps; alpha only names it.

    The frame is built for any simplex and never raises on d^2: an invalid
    simplex gives a frame whose ``d2_defects`` name the failing degrees.
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

    blocks: Dict[int, Dict[tuple, Tuple[int, int]]] = {}
    labels: Dict[int, tuple] = {}
    for d in degrees:
        spans = blocks[d] = {}
        labs: List[str] = []
        for S, k, x, prefix in summands:
            width = x.rank(d - k)
            if width:
                spans[S] = (len(labs), width)
                labs.extend(x.labels(d - k) if lone else [prefix + lab for lab in x.labels(d - k)])
        labels[d] = tuple(labs)

    diffs = {}
    for d in degrees:
        rows = blocks.get(d - 1)
        if rows is None:
            continue
        columns = []
        for S, (col, width) in blocks[d].items():
            k = len(S) - 1
            ds = d - k
            terms = [(rows[S][0], parity_sign(k), r.objects[S[0]].diff(ds))] if S in rows else []
            for j in range(1, k + 1):
                terms.append((rows[S[:j] + S[j + 1 :]][0], parity_sign(j), None))
                if S[j:] in rows:
                    terms.append((rows[S[j:]][0], parity_sign(k * (j - 1)), r.maps[S[: j + 1]].mat(ds)))
            columns.append((col, width, terms))
        diffs[d] = _assemble(len(labels[d - 1]), len(labels[d]), columns)

    cx = ChainComplex._trusted("B(%s)" % alpha.key(), {d: len(labs) for d, labs in labels.items()}, diffs, labels)
    return FrameObject(alpha, cx, blocks, r)


def _assemble(n_rows: int, n_cols: int, columns) -> IntMatrix:
    """The n_rows x n_cols matrix of a map given block by block.

    ``columns`` lists (col, width, terms): on columns col .. col + width - 1
    the matrix is the sum, over (row, sign, block) in ``terms``, of sign times
    the block with its top row at ``row``, a block of None standing for the
    width x width identity.  Columns not listed are zero.  Each row reached
    is summed as a {column: value} dict over the blocks' views, and
    ``IntMatrix._from_row_dicts`` packs the dicts into the matrix's view."""
    grid: List[Optional[dict]] = [None] * n_rows
    for col, width, terms in columns:
        for row, sign, m in terms:
            if m is None:
                for e in range(width):
                    acc = grid[row + e]
                    if acc is None:
                        acc = grid[row + e] = {}
                    acc[col + e] = acc.get(col + e, 0) + sign
                continue
            for i, nz in enumerate(m.nonzeros, row):
                if nz:
                    acc = grid[i]
                    if acc is None:
                        acc = grid[i] = {}
                    for e, v in nz:
                        acc[col + e] = acc.get(col + e, 0) + sign * v
    return IntMatrix._from_row_dicts(n_cols, grid)


class FrameDiagram:
    """All frame values over sequences with domain size <= max_len, and no
    structure map: :meth:`structure_map` builds one anew on each call."""

    def __init__(self, simplex: NerveSimplex, max_len: int, objects):
        self.simplex = simplex
        self.max_len = max_len
        self.objects: Dict[OrderMap, FrameObject] = objects

    def structure_map(self, mor: DMorphism) -> GradedMap:
        """The basis inclusion B(mor.src) -> B(mor.tgt) along mor.inj, as a
        lazy :class:`Selection`."""
        return Selection(self.objects[mor.src], self.objects[mor.tgt], mor.inj)


def build_frame_diagram(s: NerveSimplex, max_len: int) -> FrameDiagram:
    objects = {alpha: build_frame_object(s, alpha) for alpha in enumerate_d_objects(s.n, max_len)}
    return FrameDiagram(s, max_len, objects)


class Selection(GradedMap):
    """The structure map B(beta) -> B(alpha) along the injection ``inj``: the
    block of each subset S of [beta.dom] goes, as an identity, to the block
    of inj(S).  The matrices are assembled on first read.

    ``preimages()[d]`` lists, for each row of B(alpha)_d, the column of
    B(beta)_d that the map sends there, None off its image.  It is built
    from the blocks alone, and is None unless the blocks describe the map as
    such a selection: both frames' blocks tile their bases
    (``untiled_degree``), the image of each block is a block of the same
    width, and the images go up as the blocks do.  It is not kept, so that a
    selection kept as a factor holds no more than its frames and ``inj``.
    The homotopical check reads a selection through its preimages alone; it
    assembles the matrices only for one without preimages, for its chain-map
    test and cone."""

    def __init__(self, src: FrameObject, tgt: FrameObject, inj: Tuple[int, ...]):
        self.source, self.target, self.degree = src.complex, tgt.complex, 0
        self.frames, self.inj = (src, tgt), inj

    @cached_property
    def _mats(self) -> Dict[int, IntMatrix]:
        return _structure_matrices(*self.frames, self.inj)

    def preimages(self) -> Optional[Dict[int, list]]:
        src, tgt = self.frames
        if src.untiled_degree is not None or tgt.untiled_degree is not None:
            return None
        c = tgt.complex
        out = {d: [None] * c.rank(d) for d in c.support}
        for d, spans in src.blocks.items():
            rows, cols, last = tgt.blocks.get(d, {}), out.get(d), -1
            for S, (col, width) in spans.items():
                row, image_width = rows.get(tuple(map(self.inj.__getitem__, S)), (-1, 0))
                if image_width != width or row <= last:
                    return None
                cols[row : row + width] = range(col, col + width)
                last = row
        return out


def _structure_matrices(src: FrameObject, tgt: FrameObject, inj) -> Dict[int, IntMatrix]:
    mats = {}
    for d, spans in src.blocks.items():
        rows = tgt.blocks[d]
        columns = [(col, width, [(rows[tuple(inj[i] for i in S)][0], 1, None)]) for S, (col, width) in spans.items()]
        mats[d] = _assemble(tgt.complex.rank(d), src.complex.rank(d), columns)
    return mats


def _morphism_key(mor: DMorphism) -> str:
    return "%s->%s[%s]" % (mor.src.key(), mor.tgt.key(), ",".join(str(i) for i in mor.inj))


# -- the Reedy condition -------------------------------------------------------


def is_reedy_cofibrant(diagram: FrameDiagram) -> Report:
    """Per alpha, the Reedy items, read in place from the block layout and
    the stored differential of B(alpha).  In degree d the full subset's block
    starts at ``start[d]`` (rank d when it is absent).  ``latching-split``:
    in every degree of B or of its layout, the blocks tile [0, rank d) in
    stored order, the full block last, so the latching map is a coordinate
    inclusion, split by the projection.
    ``latching-closure``: diff(d) maps no proper column to a full row.
    ``latching-cokernel``: the full rows and columns equal
    shift(X_{alpha(0)}, m), X from diagram.simplex, in ranks and matrices."""
    report = Report()
    for alpha, o in diagram.objects.items():
        c = o.complex
        top = tuple(range(alpha.dom + 1))
        start = {d: spans[top][0] if top in spans else c.rank(d) for d, spans in o.blocks.items()}

        # the view rows of diff(d) from start[d - 1] on, the full rows
        full_rows = {d: c.diff(d).nonzeros[start[d - 1] :] for d in start if d - 1 in start}
        unclosed = next((d for d, rows in full_rows.items() if any(r and r[0][0] < start[d] for r in rows)), None)
        wit_closed = _at(unclosed, "differential leaves the latching span")
        report.add("latching-closure", alpha.key(), unclosed is None, wit_closed)

        unsplit = o.untiled_degree
        report.add("latching-split", alpha.key(), unsplit is None, _at(unsplit, "inclusion is not split"))

        x = shift(diagram.simplex.objects[alpha(0)], alpha.dom)
        ranks = {d: c.rank(d) - s for d, s in start.items() if s < c.rank(d)}
        ok_coker = ranks == {d: x.rank(d) for d in x.support} and all(
            tuple([tuple([(j - start[d], v) for j, v in r if j >= start[d]]) for r in full_rows[d]]) == x.diff(d).nonzeros
            for d in ranks
            if d - 1 in ranks
        )
        wit_coker = None if ok_coker else "quotient differs from the shifted source"
        report.add("latching-cokernel", alpha.key(), ok_coker, wit_coker)
    return report


def _tiles(spans: Dict[tuple, Tuple[int, int]], top: tuple, rank: int) -> bool:
    """Whether the (first column, width) blocks of ``spans``, in their
    order, cover [0, rank) with no gap or overlap, the block of ``top``
    (when present) last."""
    end = 0
    for col, width in spans.values():
        if col != end or width <= 0:
            return False
        end += width
    return end == rank and (top not in spans or next(reversed(spans)) == top)


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
    r = o.restriction
    tgt = r.objects[a]
    mats = {}
    for d, spans in o.blocks.items():
        if not tgt.rank(d):
            continue
        columns = []
        for S, (col, width) in spans.items():
            if S == (a,):
                columns.append((col, width, [(0, 1, None)]))
            elif S[-1] != a:
                k = len(S) - 1
                columns.append((col, width, [(0, parity_sign(k), r.maps[S + (a,)].mat(d - k))]))
        mats[d] = _assemble(tgt.rank(d), o.complex.rank(d), columns)
    return GradedMap._trusted(o.complex, tgt, 0, mats)


def homotopy(o: FrameObject) -> GradedMap:
    """The degree-1 map h : B -> B with D(h) = include_last o retraction - id.

    It sends the S summand to the S u {a} summand, as the identity of
    X_{alpha(s_0)} with sign (-1)^{|S|-1}, when a is not in S, and to zero
    otherwise.
    """
    a = o.alpha.dom
    mats = {}
    for d, spans in o.blocks.items():
        if d + 1 not in o.blocks:
            continue
        columns = [
            (col, width, [(o.blocks[d + 1][S + (a,)][0], parity_sign(len(S) - 1), None)])
            for S, (col, width) in spans.items()
            if S[-1] != a
        ]
        mats[d] = _assemble(o.complex.rank(d + 1), o.complex.rank(d), columns)
    return GradedMap._trusted(o.complex, o.complex, 1, mats)


def last_vertex_data(o: FrameObject):
    """(j, r, h) with r o j = id and D(h) = j o r - id."""
    return include_last(o), retraction(o), homotopy(o)


class LastVertexCheck:
    """A frame's last-vertex inclusion j and retraction r, and one
    (check, witness) pair per last-vertex identity, the witness None when the
    identity holds.  The homotopy h is checked but not kept."""

    __slots__ = ("j", "r", "verdicts", "holds")

    def __init__(self, j: GradedMap, r: GradedMap, verdicts: Tuple[Tuple[str, Optional[str]], ...]):
        self.j, self.r, self.verdicts = j, r, verdicts
        self.holds = all(w is None for _, w in verdicts)


def check_last_vertex(o: FrameObject) -> LastVertexCheck:
    """Check that j and r are chain maps, r o j = id and D(h) = j o r - id,
    naming the first failing identity and degree of each.  Each identity is
    decided row by row over the stored matrices' row views (see
    exact_linalg.nonzero_rows); ValueError when the maps do not fit together
    as X -> B -> X and B -> B of degree 1."""
    j, r, h = last_vertex_data(o)
    b, x = o.complex, j.source
    ends = (j.target, r.source, r.target, h.source, h.target)
    if ends != (b, b, x, b, b) or (j.degree, r.degree, h.degree) != (0, 0, 1):
        raise ValueError("the last-vertex maps of B(%s) do not fit together" % o.alpha.key())
    chain = _at(cycle_defect(j), "D(j) != 0") or _at(cycle_defect(r), "D(r) != 0")

    def section_terms(d):
        return composite_term(1, r, j, d) + identity_term(-1)

    def homotopy_terms(d):
        return differential_terms(h, d) + composite_term(-1, j, r, d) + identity_term(1)

    section = _at(first_defect(x, x, 0, section_terms), "r o j != id")
    htpy = _at(first_defect(b, b, 0, homotopy_terms), "D(h) != j o r - id")
    return LastVertexCheck(
        j, r, (("last-vertex-chain", chain), ("last-vertex-section", section), ("last-vertex-homotopy", htpy))
    )


def _at(degree: Optional[int], what: str) -> Optional[str]:
    """None when an identity holds (degree None), else ``what`` with the
    first degree where it fails."""
    return None if degree is None else "%s at degree %d" % (what, degree)


# -- check suites --------------------------------------------------------------


def is_homotopical(diagram: FrameDiagram) -> Report:
    """Every max-preserving morphism must have a structure map whose cone is
    acyclic.  Non-max-preserving morphisms carry no requirement and are
    not enumerated.  A morphism with an endpoint frame whose d^2 is nonzero
    fails without a cone, since that cone is no complex.

    Items come by target alpha in ``diagram.objects`` order, then one per
    subset of [alpha.dom] that holds the last index a: {a}, then S u {a}
    for each nonempty S in ``nonempty_subsets(a - 1)``, which is by size
    then lexicographically, the order :func:`enumerate_inclusions` gives
    them among all morphisms into alpha.  Each map is read once, through
    ``diagram.structure_map``, and judged on one path.  A PASS rests on one
    of three things:

    * for a :class:`Selection` psi = delta o psi' of codimension >= 2, delta
      the coface that misses the least index psi misses: both factors
      passed as selections (so the middle frame has d^2 = 0), and
      g_psi = g_delta o g_psi' as layouts (:func:`_composes`).  Then g_psi
      is a chain map, and g_psi o j = g_delta o j = j and
      r o g_psi = r o g_psi' = r: weak equivalences compose (2-out-of-3);
    * for any other selection, its own certificate: it is a chain map with
      g o j = j and r o g = r, and both frames' last-vertex identities
      hold, so that j_src o r_tgt is a homotopy inverse.  These identities
      are read from its preimages and the stored row views of d, j and r
      (:func:`_selection_certified`), with no matrix of the map;
    * for any other map, or a selection that passes neither way, the
      chain-map test and then cone homology, so that a FAIL names the
      homology.

    A target's generators (codimension <= 1) are tried as selections
    before the composites into it, which pass over them; the other maps
    are judged in item order."""
    report = Report()
    # (target, inj) -> the selection of each map passed as a selection
    certified: Dict[Tuple[OrderMap, Tuple[int, ...]], Selection] = {}
    for alpha in diagram.objects:
        a, at = alpha.dom, alpha.values.__getitem__
        subsets = [(a,)] + [S + (a,) for S in nonempty_subsets(a - 1)]
        mors = [DMorphism._trusted(OrderMap._trusted(tuple(map(at, S)), alpha.cod), alpha, S) for S in subsets]
        # the generators first: the composites into alpha pass over them
        routed = {m: _route(diagram, m, certified) for m in mors if len(m.inj) >= alpha.dom}
        for mor in mors:
            g, verdict = routed.get(mor) or _route(diagram, mor, certified)
            report.add("homotopical", _morphism_key(mor), *(verdict or _homotopical_verdict(g)))
    return report


def _route(diagram: FrameDiagram, mor: DMorphism, certified) -> tuple:
    """(g, verdict): the map g of mor, None when an endpoint frame has
    d^2 != 0, and the (status, witness) of its item when that fails it or
    when g passes as a selection, by 2-out-of-3
    (:func:`_composite_certified`) or else on its own certificate, which
    enters g in ``certified``; else None."""
    broken = next((a for a in (mor.src, mor.tgt) if diagram.objects[a].d2_defects), None)
    if broken is not None:
        witness = "endpoint B(%s) has d^2 != 0 at degree %d" % (broken.key(), diagram.objects[broken].d2_defects[0])
        return None, (False, witness)
    g = diagram.structure_map(mor)
    src, tgt = diagram.objects[mor.src], diagram.objects[mor.tgt]
    if type(g) is Selection and (
        len(mor.inj) < mor.tgt.dom
        and _composite_certified(mor, g, certified)
        or _selection_certified(g, src.last_vertex, tgt.last_vertex)
    ):
        certified[mor.tgt, mor.inj] = g
        return g, (True, None)
    return g, None


def _homotopical_verdict(g: GradedMap) -> Tuple[bool, Optional[str]]:
    """(status, witness) of the ``homotopical`` item of a map g that did
    not pass as a selection: the chain-map test, then cone homology."""
    if not g.is_cycle():
        return False, "structure map is not a chain map"
    hom = homology(cone(g))
    ok = hom.is_trivial()
    return ok, None if ok else "cone homology: %s" % hom


def _composite_certified(mor: DMorphism, g: Selection, certified) -> bool:
    """Whether the selection g of mor, of codimension >= 2, passes by
    2-out-of-3 (see :func:`is_homotopical`).  The middle frame has d^2 = 0:
    both factors end there, and a map is certified only once its item has
    found d^2 = 0 at both of its ends.  A composite that passes is a
    selection its blocks describe, since its factors are."""
    inj, alpha = mor.inj, mor.tgt
    i = next(k for k, v in enumerate(inj) if k != v)  # the least index inj misses; i < alpha.dom
    gamma = OrderMap._trusted(alpha.values[:i] + alpha.values[i + 1 :], alpha.cod)
    first = certified.get((gamma, tuple(v - (v > i) for v in inj)))
    second = certified.get((alpha, tuple(range(i)) + tuple(range(i + 1, alpha.dom + 1))))
    return first is not None and second is not None and _composes(g, first, second)


def _composes(g: Selection, first: Selection, second: Selection) -> bool:
    """Whether g = second o first as a layout identity, read from indices
    alone: first ends at the frame where second starts, g runs from first's
    source frame to second's target frame, and inj_g = inj_second o inj_first.

    Then each block S of g's source lands at the block of inj_g(S) both
    ways, since every map places S by looking up its image among the blocks
    of its target.  When the blocks describe first and second (see
    ``Selection.preimages``), each keeps the width of every block, so the
    identity blocks compose and g is their composite, matrix for matrix."""
    (src, tgt), (first_src, mid), (mid_src, second_tgt) = g.frames, first.frames, second.frames
    if first_src is not src or mid_src is not mid or second_tgt is not tgt:
        return False
    return tuple(map(second.inj.__getitem__, first.inj)) == g.inj


def _selection_certified(g: Selection, src: LastVertexCheck, tgt: LastVertexCheck) -> bool:
    """Whether g : B(beta) -> B(alpha), a selection with ``preimages()``, is
    a chain map with g o j_beta = j_alpha and r_alpha o g = r_beta, and both
    frames' last-vertex identities hold.  Then q = j_beta o r_alpha is a
    homotopy inverse of g: g o q = j_alpha r_alpha ~ id through h_alpha and
    q o g = j_beta r_beta ~ id through h_beta, so the cone of g is acyclic.
    The identities are decided on the stored row views of d, j and r, read
    through the preimages with no matrix of g.

    With p = preimages()[d], row t of d_alpha o g is row t of d_alpha with each
    column c renamed p[c] and dropped where p[c] is None, and row t of
    g o d_beta is row p[t] of d_beta, or zero where p[t] is None.  r_alpha o g
    is renamed the same way, and row t of g o j_beta is row p[t] of j_beta.
    Since p keeps column order, each renamed row is a sorted, zero-free view
    and is compared as a tuple.  False also when g has no preimages or the
    maps do not fit together as the certificate reads them.

    An identity map, one frame to itself along the identity injection, with
    one last-vertex check for both ends (``src is tgt``) and a frame whose
    blocks tile, is the identity matrix: D(g) = 0, g o j = j and r o g = r
    hold as written, so it passes once the fit checks do, with no preimages
    built and no row read."""
    b, a = g.source, g.target
    j_src, r_src, j_tgt, r_tgt = src.j, src.r, tgt.j, tgt.r
    x, y = j_src.source, r_src.target
    if not (src.holds and tgt.holds) or any(m.degree for m in (j_src, r_src, j_tgt, r_tgt)):
        return False
    if not (j_src.target is b and r_src.source is b and j_tgt.target is a and r_tgt.source is a):
        return False
    if j_tgt.source is not x or r_tgt.target is not y:
        return False
    (frame, other), inj = g.frames, g.inj
    if src is tgt and frame is other and inj == tuple(range(len(inj))) and frame.untiled_degree is None:
        return True  # g is the identity matrix: D(g) = 0, g o j = j and r o g = r as written
    p = g.preimages()
    if p is None:
        return False
    # every matrix read below is stored, each of its two ranks being positive
    for d in b.support:
        if a.rank(d - 1):
            sources = b.diff(d).nonzeros if b.rank(d - 1) else ()
            wants = [() if i is None else sources[i] for i in p[d - 1]]
            if not _renamed_rows_equal(a.diff(d).nonzeros, p[d], wants):
                return False
    for d in x.support:
        if a.rank(d):
            have = j_src.mat(d).nonzeros if b.rank(d) else ()
            if tuple([() if i is None else have[i] for i in p[d]]) != j_tgt.mat(d).nonzeros:
                return False
    for d in b.support:
        if y.rank(d) and not _renamed_rows_equal(r_tgt.mat(d).nonzeros, p[d], r_src.mat(d).nonzeros):
            return False
    return True


def _renamed_rows_equal(rows, names: list, wants) -> bool:
    """Whether each row of ``rows``, its (column, value) pairs kept where
    ``names`` names the column and renamed by it, equals the matching row of
    ``wants``."""
    for row, want in zip(rows, wants):
        if row:
            if tuple([(names[j], v) for j, v in row if names[j] is not None]) != want:
                return False
        elif want:
            return False
    return True


def check_simplicial_compat(sigma: OrderMap, diagram: FrameDiagram) -> Report:
    """Frames commute with reindexing: the frame at alpha over t = act(sigma, s)
    equals the diagram's frame at sigma o alpha, as literal complexes (same
    labels, same matrices).

    An item passes exactly when the restriction act(alpha, t) equals the
    stored frame's ``restriction`` (see the module docstring), field by
    field: its objects are t's objects at the values v of alpha, and its
    maps, keyed by the increasing sequences of [alpha.dom], are t's values at
    the subsequences of v.  The value sequences v are walked in
    :func:`enumerate_d_objects` order, shortest first, and each is looked up
    in t once, into a table that every longer v reads: every proper
    subsequence of v is shorter, so it is already there.  The frame at
    sigma o alpha is found by its key in ``diagram.objects``.

    A frame is an injective function of its restriction, so this decides
    equality of the frames, provided each stored complex is
    build_frame_object of its own restriction.  The check trusts that and
    does not read the stored complexes: a frame built by hand with an intact
    restriction but a tampered complex passes here.  The Reedy and
    homotopical suites read the stored complexes."""
    t = act(sigma, diagram.simplex)
    by_values = {alpha.values: o for alpha, o in diagram.objects.items()}
    image, objects = sigma.values.__getitem__, t.objects.__getitem__
    table = {}  # value sequence of length >= 2 -> t's value there
    report = Report()
    prefix = "sigma=%s alpha=" % sigma.key()
    for m in range(diagram.max_len + 1):
        keys = increasing_sequences(m)
        for v in combinations_with_replacement(range(sigma.dom + 1), m + 1):
            if m:
                table[v] = t._lookup(v)
            stored = by_values[tuple(map(image, v))].restriction
            ok = stored.objects == tuple(map(objects, v)) and stored.maps == dict(
                zip(keys, [table[w] for k in range(2, m + 2) for w in combinations(v, k)])
            )
            report.add("simplicial-compat", prefix + ",".join(map(str, v)), ok, None if ok else "frames differ")
    return report


def run_checks(s: NerveSimplex, max_len: int) -> Report:
    """The whole check suite of s over the frames of sequences with domain
    size <= max_len, in report order: Maurer-Cartan, frame d^2, Reedy,
    last-vertex, homotopical, then simplicial compatibility along every face
    and every degeneracy of [n]."""
    report = validate_maurer_cartan(s)
    diagram = build_frame_diagram(s, max_len)
    for alpha, o in diagram.objects.items():
        defects = o.d2_defects
        report.add("frame-d2", alpha.key(), not defects, _at(defects[0] if defects else None, "d^2 != 0"))
    report.extend(is_reedy_cofibrant(diagram))
    for alpha, o in diagram.objects.items():
        for check, witness in o.last_vertex.verdicts:
            report.add(check, alpha.key(), witness is None, witness)
    report.extend(is_homotopical(diagram))
    n = s.n
    faces = [tuple(v for v in range(n + 1) if v != i) for i in range(n + 1)] if n else []
    degeneracies = [tuple(sorted([*range(n + 1), i])) for i in range(n + 1)]
    for values in faces + degeneracies:
        report.extend(check_simplicial_compat(OrderMap(values, n), diagram))
    return report


# -- splitting of acyclic cofibrations -----------------------------------------


def solve_retraction(iota: GradedMap) -> GradedMap:
    """A chain retraction of a degreewise split injective chain map with
    acyclic cone.

    Returns p with p o iota = id and D(p) = 0, found by one exact integer
    linear solve whose blocks are the matrix of precomposition with iota and
    the differential of the mapping complex Map(Y, X) in degree 0.  Inputs
    violating the preconditions raise ValueError.
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

    pre = precompose_matrix(iota, x, 0)
    dif = hom_complex_diff(y, x, 0)
    rhs = list(graded_map_to_vector(GradedMap.identity(x))) + [0] * dif.rows
    sol = solve(block([[pre], [dif]]), rhs)
    if sol is None:
        raise ValueError("no integer chain retraction exists")
    return vector_to_graded_map(y, x, 0, sol)


def split_acyclic_cofibration(iota: GradedMap):
    """Split a degreewise split injective chain map with acyclic cone.

    Returns (p, h) with p = :func:`solve_retraction` of iota, and h with
    D(h) = iota o p - id and h o iota = 0, found by a second exact integer
    linear solve whose blocks are the differential of the mapping complex
    Map(Y, Y) in degree 1 and the matrix of precomposition with iota.
    Inputs violating the preconditions raise ValueError.
    """
    p = solve_retraction(iota)
    y = iota.target
    target = (iota @ p) - GradedMap.identity(y)
    dif = hom_complex_diff(y, y, 1)
    pre = precompose_matrix(iota, y, 1)
    rhs = list(graded_map_to_vector(target)) + [0] * pre.rows
    sol = solve(block([[dif], [pre]]), rhs)
    if sol is None:
        raise ValueError("no integer homotopy exists")
    return p, vector_to_graded_map(y, y, 1, sol)


# -- 1-simplex recovery --------------------------------------------------------


def recover_map_from_cylinder(o: FrameObject) -> GradedMap:
    """Recover the edge of a 1-simplex from its cylinder frame, up to homotopy:
    solve for a retraction p of the last-vertex inclusion (see
    :func:`solve_retraction`) and compose it with the source-end inclusion.
    The homotopy that completes the splitting is not needed, so it is not
    solved for."""
    if o.alpha.cod != 1 or o.alpha.values != (0, 1):
        raise ValueError("recovery expects the frame at <0,1> of a 1-simplex")
    p = solve_retraction(include_last(o))
    return p @ o.summand_inclusion((0,))
