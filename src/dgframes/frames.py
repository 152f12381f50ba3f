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
So the face sign (-1)^j and the split sign (-1)^{k(j-1)} are the dg nerve's
own (Lurie, Higher Algebra, Prop. 1.3.1.10), read from
``dg_nerve.twisting_signs`` as the Maurer-Cartan validator reads them, and
(-1)^k is the shift sign of X[k], read from ``complexes.shift_sign`` as
``complexes.shift`` reads it.

The basis lists the summands in the order of nonempty_subsets (by size,
then lexicographically), each in the basis order of its source, so the full
subset [m] comes last.  A basis element of the S summand is labelled
"s_0,...,s_k|<its source label>", the prefix written by
``simplicial.seq_key``; a singleton alpha produces X_{alpha(0)} itself,
labels included.

The builder, the last-vertex maps j, r and h, and the structure maps
address this lattice by index, through the plan that the Maurer-Cartan
validator reads too, ``dg_nerve.twisting_plan(m)``: per subset its shift,
the index of S u {m} and the indices and signs of its twisting terms, the
prefix S[:j+1] by its index into the restriction's ``cochains()``.  A frame
has one layout, ``FrameObject.layout``, keyed by subset index.

Every map here between frames and their summands is a sum of signed blocks
between summands, described per column subset as a list of (row offset,
sign, block) and put together by the package's one block assembler,
``exact_linalg._assemble``.  The maps that look a block up by its subset,
the summand inclusions, the homotopy and the structure maps, read it
through ``FrameObject.span``: on a frame built by hand whose layout lacks
that block, they raise ValueError naming the frame, the subset and the
degree.  The retraction's sign (-1)^k and the homotopy's (-1)^{|S|-1} are
each written once, in :func:`retraction` and :func:`homotopy`; every other
sign is (-1)^e of an exponent e, written ``parity_sign(e)`` as everywhere
in the package.

B(alpha) reads the simplex only through its restriction act(alpha, s), so
naturality under reindexing, B_{act(sigma, s)}(alpha) = B_s(sigma o alpha),
follows from the nerve identity act(alpha, act(sigma, s)) = act(sigma o
alpha, s), which the simplicial compatibility check compares.  So does the
sub-frame lemma: for a max-preserving injection psi, B(alpha o psi) is the
sub-complex of B(alpha) on the summands of the subsets of psi([m]).
``build_frame_diagram`` builds only the longest frames; each shorter frame
it records is a :class:`FrameView` of its extension's frame: its layout
and an index map into that frame, both read through ``_images(psi)``, and
its restriction.  While the extension has d^2 = 0 and passes its
last-vertex identities, a view reads its d^2 verdict, its last-vertex
verdicts and the rows its Reedy items need off the extension, by the
lemma; otherwise the view builds its own complex with build_frame_object,
so every FAIL witness is its frame's own.

The lemma is also the one ground of a ``homotopical`` PASS: the structure
map along a max-preserving injection includes one sub-frame in another,
so it is a homotopy equivalence once both frames are proven (d^2 = 0 and
the last-vertex identities), and :func:`is_homotopical` passes such an
item by index, with no map built.  An item fails when an endpoint has
d^2 != 0 or is not proven.  The trust boundary is that of
``check_simplicial_compat``, and it covers the views: a recorded frame,
view or not, is build_frame_object of its restriction.  A frame set into a
diagram by hand is not recorded, so every item that touches it fails.

The module also provides the structure maps (:meth:`FrameDiagram.structure_map`,
assembled anew on each call: a diagram holds frames only, and no check
reads them), the Reedy check, read in place from each frame's layout and
differential, the last-vertex identities, with which
``last_vertex_equivalence`` proves j : X_{alpha(m)} -> B(alpha) a homotopy
equivalence for ``frame`` and ``recover``, the homotopical check
(:func:`is_homotopical`), ``run_checks``, which assembles the whole suite,
an integer splitting solver for acyclic cofibrations
(:func:`split_acyclic_cofibration`, which proves its preconditions itself,
and :func:`_retraction_system`, the solve it shares with ``recover``), and
the recovery of a 1-simplex edge from its cylinder frame.

The bookkeeping families read tables built once instead of rebuilding the
same values per item or frame: simplicial compatibility walks the value
sequences of one (domain, max_len) in :func:`_compat_walk`, the Reedy
check forms each shifted source once per (alpha(0), m), and
``is_homotopical`` reads the subsets that hold the last index, with their
injection keys, from :func:`_held_subsets` of each domain.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, islice
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
    identity_term,
    is_acyclic,
    parity_sign,
    precompose_matrix,
    shift,
    shift_sign,
    vector_to_graded_map,
)
from .dg_nerve import NerveSimplex, act, increasing_sequences, twisting_plan, validate_maurer_cartan
from .exact_linalg import IntMatrix, _assemble, invariant_factors, solve
from .reporting import Report
from .simplicial import DMorphism, OrderMap, enumerate_d_objects, seq_key


class FrameObject:
    """One value B(alpha), with its block layout.

    ``layout[d]`` maps the ``twisting_plan`` index of each subset S of
    [alpha.dom] whose summand X_{alpha(S[0])}[len(S) - 1] is nonzero in
    degree d to (first column, width), in basis order: the blocks are
    contiguous and cover [0, rank d), the full subset's block last (the
    Reedy check reads this layout), and the width is the rank of
    X_{alpha(S[0])} in degree d - (len(S) - 1).  The frame keeps the
    layout it is given, in its given order.  ``restriction`` is act(alpha,
    simplex), all the complex was built from.  The checks read the complex
    through ``ranks``, ``rows`` and ``verdicts``, which a :class:`FrameView`
    reads off its extension instead.
    """

    def __init__(self, alpha: OrderMap, complex: ChainComplex, layout, restriction: NerveSimplex):
        self.alpha, self.complex, self.layout, self.restriction = alpha, complex, layout, restriction
        self.ranks: Dict[int, int] = complex._ranks  # the positive ranks, by degree

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
        ranks, top = self.ranks, 2 ** (self.alpha.dom + 1) - 2  # the index of [m], the last subset
        degrees = sorted({*ranks, *self.layout})
        return next((d for d in degrees if not _tiles(self.layout.get(d, {}), top, ranks.get(d, 0))), None)

    @cached_property
    def last_vertex(self) -> LastVertexCheck:
        """:func:`check_last_vertex` of the frame: its one last-vertex verdict."""
        return check_last_vertex(self)

    @property
    def verdicts(self) -> Tuple[Tuple[str, Optional[str]], ...]:
        """The three last-vertex (check, witness) pairs that ``check`` reports."""
        return self.last_vertex.verdicts

    def rows(self, d: int, lo: int) -> tuple:
        """The row views of diff(d) from row lo on (see IntMatrix.nonzeros)."""
        return self.complex.diff(d).nonzeros[lo:]

    def source_complex(self, subset) -> ChainComplex:
        return self.restriction.objects[subset[0]]

    def span(self, i: int, d: int) -> Tuple[int, int]:
        """(first column, width) of the block of the subset of index i in
        degree d; ValueError, naming the frame, the subset and the degree,
        when the layout holds no such block, as a frame built by hand may."""
        try:
            return self.layout[d][i]
        except KeyError:
            subset = seq_key(twisting_plan(self.alpha.dom)[0][i])
            raise ValueError("B(%s) has no block of the subset {%s} in degree %d" % (self.alpha.key(), subset, d)) from None

    def summand_inclusion(self, subset) -> GradedMap:
        """iota_S as a graded map X_{alpha(S[0])} -> B of degree len(S)-1."""
        subset = tuple(subset)
        i, k = twisting_plan(self.alpha.dom)[3][subset], len(subset) - 1
        x = self.source_complex(subset)
        mats = {}
        for t in x.support:
            width, row = x.rank(t), self.span(i, t + k)[0]
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
    r, m = act(alpha, s), alpha.dom
    _, prefixes, plan, _ = twisting_plan(m)
    objects, signs, maps = r.objects, [shift_sign(k) for k in range(m + 1)], r.cochains()
    # the summands of shift k start at S[0] = 0..m-k
    degrees = sorted({t + k for k in range(m + 1) for x in objects[: m + 1 - k] for t in x.support})
    layout: Dict[int, Dict[int, Tuple[int, int]]] = {d: {} for d in degrees}
    labels: Dict[int, List[str]] = {d: [] for d in degrees}
    for i, row in enumerate(plan):
        x, k = objects[row[1]], row[0]
        for t in x.support:
            labs, here = labels[t + k], x.labels(t)
            layout[t + k][i] = (len(labs), len(here))
            labs.extend([prefixes[i] + lab for lab in here] if m else here)
    labels = {d: tuple(labs) for d, labs in labels.items()}

    diffs = {}
    for d in [d for d in degrees if d - 1 in layout]:
        rows, columns = layout[d - 1], []
        for i, (col, width) in layout[d].items():
            row = plan[i]
            k, x = row[0], objects[row[1]]
            terms = [(rows[i][0], signs[k], x.diff(d - k))] if i in rows else []
            for face, face_sign, suffix, split_sign, prefix in zip(*[iter(row[3:])] * 5):
                terms.append((rows[face][0], face_sign, None))
                if suffix in rows:
                    terms.append((rows[suffix][0], split_sign, maps[prefix].mat(d - k)))
            columns.append((col, width, terms))
        diffs[d] = _assemble(len(labels[d - 1]), len(labels[d]), columns)

    cx = ChainComplex._trusted("B(%s)" % alpha.key(), {d: len(labs) for d, labs in labels.items()}, diffs, labels)
    return FrameObject(alpha, cx, layout, r)


class FrameView(FrameObject):
    """B(alpha), alpha of domain m < L, as :func:`build_frame_diagram` holds
    it: by the sub-frame lemma, the sub-complex of its extension's frame
    ``ext`` = B(alpha') on the summands of the subsets of psi([m]), psi =
    (0, ..., m - 1, L).  Its block of S has the width of ext's block of
    psi(S), read by index through ``_images(psi)``: ``layout`` is read off
    ext's, and ``columns[d]``, the index map, maps each column of
    B(alpha')_d in the view to its column of B(alpha)_d, in the view's
    basis order.

    While ext is ``lean`` (d^2 = 0 and its last-vertex identities holding),
    the view reads d^2 = 0, its last-vertex verdicts and the rows of its
    differential off ext, the rows through the index map.  Otherwise it
    reads its own complex, which ``complex`` builds with build_frame_object
    on first read, as every other reader of the complex does: a frame that
    fails gives its own witness."""

    def __init__(self, s: NerveSimplex, alpha: OrderMap, ext: FrameObject):
        self.alpha, self.ext, self.restriction, self._simplex = alpha, ext, act(alpha, s), s
        image = _images(tuple(range(alpha.dom)) + (ext.alpha.dom,), ext.alpha.dom)
        self.layout, self.columns = {}, {}
        for d, spans in ext.layout.items():
            layout, cols = {}, {}
            for i, (col, width) in [(i, spans[e]) for i, e in enumerate(image) if e in spans]:
                layout[i] = (len(cols), width)
                cols.update(zip(range(col, col + width), range(len(cols), len(cols) + width)))
            if layout:
                self.layout[d], self.columns[d] = layout, cols
        self.ranks = {d: len(cols) for d, cols in self.columns.items()}

    @cached_property
    def complex(self) -> ChainComplex:
        return build_frame_object(self._simplex, self.alpha).complex

    @cached_property
    def lean(self) -> bool:
        return not self.ext.d2_defects and self.ext.last_vertex.holds

    @cached_property
    def d2_defects(self) -> List[int]:
        return [] if self.lean else self.complex.d_squared_defects()

    @property
    def verdicts(self) -> Tuple[Tuple[str, Optional[str]], ...]:
        return (self.ext if self.lean else self).last_vertex.verdicts

    def rows(self, d: int, lo: int) -> tuple:
        if not self.lean:
            return super().rows(d, lo)
        ext_rows, names = self.ext.complex.diff(d).nonzeros, self.columns.get(d, {})
        return tuple(tuple([(names[c], v) for c, v in ext_rows[r] if c in names]) for r in islice(self.columns[d - 1], lo, None))


class FrameDiagram:
    """All frame values over sequences with domain size <= max_len, and no
    structure map: :meth:`structure_map` builds one anew on each call.

    ``recorded`` is empty unless :func:`build_frame_diagram` made the
    diagram; then it maps each alpha to the frame made there and the frame
    of its extension alpha', alpha's values with the last one repeated up
    to domain max_len (alpha itself when longest)."""

    def __init__(self, simplex: NerveSimplex, max_len: int, objects):
        self.simplex, self.max_len, self.objects = simplex, max_len, objects
        self.recorded: Dict[OrderMap, Tuple[FrameObject, FrameObject]] = {}

    def structure_map(self, mor: DMorphism) -> GradedMap:
        """The basis inclusion B(mor.src) -> B(mor.tgt) along mor.inj: the
        block of each subset S of [mor.src.dom] goes, as an identity, to the
        block of inj(S)."""
        src, tgt = self.objects[mor.src], self.objects[mor.tgt]
        return GradedMap._trusted(src.complex, tgt.complex, 0, _structure_matrices(src, tgt, mor.inj))

    def proven(self, alpha: OrderMap) -> bool:
        """Whether the frame at alpha is the recorded one, with d^2 = 0 and
        its last-vertex verdicts holding: the premise on which
        :func:`is_homotopical` passes an item by the sub-frame lemma."""
        o = self.objects[alpha]
        ok = self.recorded.get(alpha, (None,))[0] is o and not o.d2_defects
        return ok and all(w is None for _, w in o.verdicts)

    def doubt(self, alpha: OrderMap) -> str:
        """Why the frame at alpha, with d^2 = 0 but not :meth:`proven`, is
        not: it is not the recorded frame, or its first failing last-vertex
        verdict, whose identities are not read on a frame set by hand."""
        o = self.objects[alpha]
        if self.recorded.get(alpha, (None,))[0] is not o:
            return "endpoint B(%s) is not the frame build_frame_diagram recorded" % o.alpha.key()
        check, witness = next(v for v in o.verdicts if v[1] is not None)
        return "endpoint B(%s) fails %s: %s" % (o.alpha.key(), check, witness)


def build_frame_diagram(s: NerveSimplex, max_len: int) -> FrameDiagram:
    """The diagram of s over domain sizes <= max_len: build_frame_object of
    each longest alpha, and a :class:`FrameView` into its extension's frame
    of each shorter one."""
    alphas = enumerate_d_objects(s.n, max_len)
    longest = {alpha.values: build_frame_object(s, alpha) for alpha in alphas if alpha.dom == max_len}
    diagram = FrameDiagram(s, max_len, {})
    for alpha in alphas:
        ext = longest[alpha.values + alpha.values[-1:] * (max_len - alpha.dom)]
        o = diagram.objects[alpha] = ext if alpha.dom == max_len else FrameView(s, alpha, ext)
        diagram.recorded[alpha] = (o, ext)
    return diagram


@lru_cache(maxsize=256)
def _images(inj: Tuple[int, ...], m: int) -> Tuple[int, ...]:
    """Per ``twisting_plan`` index of a subset S of [len(inj) - 1], that of inj(S) in [m]."""
    index = twisting_plan(m)[3]
    return tuple(index[tuple(map(inj.__getitem__, S))] for S in twisting_plan(len(inj) - 1)[0])


def _structure_matrices(src: FrameObject, tgt: FrameObject, inj) -> Dict[int, IntMatrix]:
    mats = {}
    image = _images(inj, tgt.alpha.dom)
    for d, spans in src.layout.items():
        columns = [(col, width, [(tgt.span(image[i], d)[0], 1, None)]) for i, (col, width) in spans.items()]
        mats[d] = _assemble(tgt.complex.rank(d), src.complex.rank(d), columns)
    return mats


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
    shift(X_{alpha(0)}, m), X from diagram.simplex, in ranks and matrices.
    That quotient depends on (alpha(0), m) alone, so each one is formed once,
    into a table of its ranks and its differential that every frame with
    that pair reads."""
    report, quotients = Report(), {}
    for alpha, o in diagram.objects.items():
        rank, key, top = o.ranks.get, alpha.key(), 2 ** (alpha.dom + 1) - 2  # top: the index of [m]
        start = {d: spans[top][0] if top in spans else rank(d, 0) for d, spans in o.layout.items()}

        # the view rows of diff(d) from start[d - 1] on, the full rows
        full_rows = {d: o.rows(d, start[d - 1]) for d in start if d - 1 in start}
        unclosed = next((d for d, rows in full_rows.items() if any(r and r[0][0] < start[d] for r in rows)), None)
        report.add("latching-closure", key, unclosed is None, _at(unclosed, "differential leaves the latching span"))

        report.add("latching-split", key, o.untiled_degree is None, _at(o.untiled_degree, "inclusion is not split"))

        pair = alpha(0), alpha.dom
        if pair not in quotients:
            x = shift(diagram.simplex.objects[alpha(0)], alpha.dom)
            quotients[pair] = ({d: x.rank(d) for d in x.support}, x.diff)
        want, diff = quotients[pair]
        ranks = {d: rank(d, 0) - s for d, s in start.items() if s < rank(d, 0)}
        ok_coker = ranks == want and all(
            tuple([tuple([(j - start[d], v) for j, v in r if j >= start[d]]) for r in full_rows[d]]) == diff(d).nonzeros
            for d in ranks
            if d - 1 in ranks
        )
        report.add("latching-cokernel", key, ok_coker, None if ok_coker else "quotient differs from the shifted source")
    return report


def _tiles(spans: Dict[int, Tuple[int, int]], top: int, rank: int) -> bool:
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
    a, r = o.alpha.dom, o.restriction
    tgt, plan, maps = r.objects[a], twisting_plan(a)[2], r.cochains()
    mats = {}
    for d in [d for d in o.layout if tgt.rank(d)]:
        columns = []
        for i, (col, width) in o.layout[d].items():
            k, _, up = plan[i][:3]
            if i == a:  # the singleton {a}
                columns.append((col, width, [(0, 1, None)]))
            elif up >= 0:
                columns.append((col, width, [(0, parity_sign(k), maps[up].mat(d - k))]))
        mats[d] = _assemble(tgt.rank(d), o.complex.rank(d), columns)
    return GradedMap._trusted(o.complex, tgt, 0, mats)


def homotopy(o: FrameObject) -> GradedMap:
    """The degree-1 map h : B -> B with D(h) = include_last o retraction - id.

    It sends the S summand to the S u {a} summand, as the identity of
    X_{alpha(s_0)} with sign (-1)^{|S|-1}, when a is not in S, and to zero
    otherwise.
    """
    plan = twisting_plan(o.alpha.dom)[2]
    mats = {}
    for d in [d for d in o.layout if d + 1 in o.layout]:
        columns = [
            (col, width, [(o.span(plan[i][2], d + 1)[0], parity_sign(plan[i][0]), None)])
            for i, (col, width) in o.layout[d].items()
            if plan[i][2] >= 0
        ]
        mats[d] = _assemble(o.complex.rank(d + 1), o.complex.rank(d), columns)
    return GradedMap._trusted(o.complex, o.complex, 1, mats)


def last_vertex_data(o: FrameObject):
    """(j, r, h) with r o j = id and D(h) = j o r - id."""
    return include_last(o), retraction(o), homotopy(o)


class LastVertexCheck:
    """A frame's last-vertex inclusion j and one (check, witness) pair per
    last-vertex identity, the witness None when the identity holds.  The
    retraction r and the homotopy h are checked but not kept: when the
    identities hold (``holds``), j is a homotopy equivalence, which
    ``recover`` splits."""

    __slots__ = ("j", "verdicts", "holds")

    def __init__(self, j: GradedMap, verdicts: Tuple[Tuple[str, Optional[str]], ...]):
        self.j, self.verdicts = j, verdicts
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
    verdicts = (("last-vertex-chain", chain), ("last-vertex-section", section), ("last-vertex-homotopy", htpy))
    return LastVertexCheck(j, verdicts)


def last_vertex_equivalence(o: FrameObject) -> LastVertexCheck:
    """The frame's last-vertex verdict, when it proves that j : X_{alpha(m)}
    -> B(alpha) is a chain homotopy equivalence: d^2 = 0 on B, D(j) = D(r) =
    0, r o j = id and D(h) = j o r - id.  Then H(B) is H(X_{alpha(m)}), read
    off ``.j.source``, and cone(j) is acyclic.  Otherwise ValueError names
    the first degree where d^2 != 0 or else the first failing last-vertex
    identity."""
    if o.d2_defects:
        raise ValueError("differential does not square to zero at degree %d" % o.d2_defects[0])
    lv = o.last_vertex
    if not lv.holds:
        check, witness = next(v for v in lv.verdicts if v[1] is not None)
        raise ValueError("B(%s) fails %s: %s" % (o.alpha.key(), check, witness))
    return lv


def _at(degree: Optional[int], what: str) -> Optional[str]:
    """None when an identity holds (degree None), else ``what`` with the
    first degree where it fails."""
    return None if degree is None else "%s at degree %d" % (what, degree)


# -- check suites --------------------------------------------------------------


def is_homotopical(diagram: FrameDiagram) -> Report:
    """Every max-preserving morphism must have a structure map whose cone is
    acyclic.  Non-max-preserving morphisms carry no requirement and are
    not enumerated.

    Items come by target alpha in ``diagram.objects`` order, then one per
    subset of [alpha.dom] that holds the last index a: {a}, then S u {a}
    for each nonempty S in ``nonempty_subsets(a - 1)``, which is by size
    then lexicographically, the order :func:`enumerate_inclusions` gives
    them among all morphisms into alpha.  The subsets are walked as index
    tuples, read off ``twisting_plan(a)`` with their label prefixes: each
    source frame is found by its value tuple and each item's location is
    written once from them.  Each item is decided on one path, from its two
    endpoint frames, source first, with no morphism or map built:

    * it fails when an endpoint has d^2 != 0, since the cone would be no
      complex;
    * else it fails when an endpoint is not :meth:`FrameDiagram.proven`,
      the witness naming that endpoint's first failing last-vertex verdict,
      or that it is not the frame ``build_frame_diagram`` recorded;
    * else it passes by the sub-frame lemma (see the module docstring):
      the structure map along the item's injection includes B(beta) in
      B(alpha) as a sub-complex, so D(g) = 0 and g o j = j, and j is a
      homotopy equivalence at both ends, so g is one too.

    A frame that ``build_frame_diagram`` recorded with d^2 = 0 passes its
    last-vertex identities, d^2 = 0 being the Maurer-Cartan identity of its
    restriction, so on a diagram as built every item is decided by the
    lemma or by the d^2 rule.  A frame set into a diagram by hand fails
    every item that touches it; ``oracles.homotopical_items`` in the tests
    judges such diagrams by cone homology."""
    report, by_values, faults = Report(), {}, {}
    for alpha, o in diagram.objects.items():
        by_values[alpha.values] = o
        if o.d2_defects:
            faults[o] = ("endpoint B(%s) has d^2 != 0 at degree %d" % (o.alpha.key(), o.d2_defects[0]), None)
        else:
            faults[o] = (None, None if diagram.proven(alpha) else diagram.doubt(alpha))
    for alpha, tgt in diagram.objects.items():
        at, key = alpha.values.__getitem__, alpha.key()
        for S, inj_key in _held_subsets(alpha.dom):
            src = by_values[tuple(map(at, S))]
            (src_d2, src_doubt), (tgt_d2, tgt_doubt) = faults[src], faults[tgt]
            witness = src_d2 or tgt_d2 or src_doubt or tgt_doubt
            report.add("homotopical", "%s->%s[%s]" % (src.alpha.key(), key, inj_key), witness is None, witness)
    return report


@lru_cache(maxsize=16)
def _held_subsets(a: int) -> tuple:
    """The subsets S of [a] that hold a, those with no S u {a}, in item
    order, each with its injection key seq_key(S): one table per domain."""
    return tuple((S, p[:-1]) for S, p, row in zip(*twisting_plan(a)[:3]) if row[2] < 0)


def check_simplicial_compat(sigma: OrderMap, diagram: FrameDiagram) -> Report:
    """Frames commute with reindexing: the frame at alpha over t = act(sigma, s)
    equals the diagram's frame at sigma o alpha, as literal complexes (same
    labels, same matrices).

    An item passes exactly when the restriction act(alpha, t) equals the
    stored frame's ``restriction`` (see the module docstring), field by
    field: its objects are t's objects at the values v of alpha, and its
    maps, keyed by the increasing sequences of [alpha.dom], are t's values at
    the subsequences of v.  The items follow :func:`_compat_walk`, the value
    sequences v of [sigma.dom] shortest first, in :func:`enumerate_d_objects`
    order.  t is looked up once per v, into a list by walk position, and
    each item reads its wanted maps from that list at the positions of its
    subsequences, which the walk lists.  The stored restriction is found by
    the values of sigma o alpha in one table per call, and its maps equal
    the wanted ones exactly when they have as many keys and hold the wanted
    map at each key: t's values are never None, so a missing key fails.

    A frame is an injective function of its restriction, so this decides
    equality of the frames, provided each stored complex is
    build_frame_object of its own restriction.  The check trusts that and
    does not read the stored complexes: a frame built by hand with an intact
    restriction but a tampered complex passes here.  The Reedy and
    homotopical suites read the stored complexes."""
    t = act(sigma, diagram.simplex)
    restrictions = {alpha.values: o.restriction for alpha, o in diagram.objects.items()}
    image, objects, lookup = sigma.values.__getitem__, t.objects.__getitem__, t._lookup
    walk = _compat_walk(sigma.dom, diagram.max_len)
    wanted = [lookup(v) if len(v) > 1 else None for v, _, _, _ in walk].__getitem__  # t's value at each v
    report, prefix = Report(), "sigma=%s alpha=" % sigma.key()
    for v, loc, keys, at in walk:
        stored = restrictions[tuple(map(image, v))]
        maps = stored.maps
        ok = (
            stored.objects == tuple(map(objects, v))
            and len(maps) == len(keys)
            and tuple(map(maps.get, keys)) == tuple(map(wanted, at))
        )
        report.add("simplicial-compat", prefix + loc, ok, None if ok else "frames differ")
    return report


@lru_cache(maxsize=32)
def _compat_walk(dom: int, max_len: int) -> tuple:
    """The value sequences v in [dom] of length <= max_len + 1, shortest
    first, then lexicographically, each as (v, seq_key(v), keys, at): keys
    the increasing sequences of [len(v) - 1], the keys of a restriction
    along v, and at the walk positions of the subsequences of v that they
    pick, in order.  Each subsequence is shorter than v or v itself, so it
    is already in the walk."""
    walk, position = [], {}
    for m in range(max_len + 1):
        keys = increasing_sequences(m)
        for v in combinations_with_replacement(range(dom + 1), m + 1):
            position[v] = len(walk)
            walk.append((v, seq_key(v), keys, tuple(position[tuple(map(v.__getitem__, k))] for k in keys)))
    return tuple(walk)


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
        for check, witness in o.verdicts:
            report.add(check, alpha.key(), witness is None, witness)
    report.extend(is_homotopical(diagram))
    n = s.n
    faces = [tuple(v for v in range(n + 1) if v != i) for i in range(n + 1)] if n else []
    degeneracies = [tuple(sorted([*range(n + 1), i])) for i in range(n + 1)]
    for values in faces + degeneracies:
        report.extend(check_simplicial_compat(OrderMap(values, n), diagram))
    return report


# -- splitting of acyclic cofibrations -----------------------------------------


def _retraction_system(iota: GradedMap) -> GradedMap:
    """p with p o iota = id and D(p) = 0 for a chain map iota : X -> Y whose
    splitting preconditions the caller has proved, from one exact integer
    linear solve whose blocks are the matrix of precomposition with iota and
    the differential of the mapping complex Map(Y, X) in degree 0."""
    x, y = iota.source, iota.target
    pre = precompose_matrix(iota, x, 0)
    dif = hom_complex_diff(y, x, 0)
    rhs = list(graded_map_to_vector(GradedMap.identity(x))) + [0] * dif.rows
    sol = solve(_assemble(pre.rows + dif.rows, pre.cols, [(0, pre.cols, [(0, 1, pre), (pre.rows, 1, dif)])]), rhs)
    if sol is None:
        raise ValueError("no integer chain retraction exists")
    return vector_to_graded_map(y, x, 0, sol)


def split_acyclic_cofibration(iota: GradedMap):
    """Split a degreewise split injective chain map with acyclic cone.

    Returns (p, h): p with p o iota = id and D(p) = 0, from the solve of
    :func:`_retraction_system`, and h with D(h) = iota o p - id and
    h o iota = 0, from a second exact integer linear solve whose blocks are
    the differential of the mapping complex Map(Y, Y) in degree 1 and the
    matrix of precomposition with iota.  The preconditions are proved here
    first: iota is a chain map of degree 0 (its D(iota) is zero), its
    invariant factors are all 1 in every degree, and cone(iota) has trivial
    homology.  Inputs violating them raise ValueError.
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
    p = _retraction_system(iota)
    target = (iota @ p) - GradedMap.identity(y)
    dif = hom_complex_diff(y, y, 1)
    pre = precompose_matrix(iota, y, 1)
    rhs = list(graded_map_to_vector(target)) + [0] * pre.rows
    sol = solve(_assemble(dif.rows + pre.rows, dif.cols, [(0, dif.cols, [(0, 1, dif), (dif.rows, 1, pre)])]), rhs)
    if sol is None:
        raise ValueError("no integer homotopy exists")
    return p, vector_to_graded_map(y, y, 1, sol)


# -- 1-simplex recovery --------------------------------------------------------


def recover_map_from_cylinder(o: FrameObject) -> GradedMap:
    """Recover the edge of a 1-simplex from its cylinder frame, up to homotopy:
    solve for a retraction p of the last-vertex inclusion j and compose it
    with the source-end inclusion.

    The preconditions of the solve rest on the frame's last-vertex verdict
    (:func:`last_vertex_equivalence`), not on the checks of
    :func:`split_acyclic_cofibration`: D(j) = 0 makes j a chain map,
    r o j = id splits it in every degree, and with D(h) = j o r - id, j is
    a homotopy equivalence, so its cone is acyclic.  A frame that fails the
    verdict raises ValueError.  The homotopy that completes the splitting is
    not needed, so it is not solved for."""
    if o.alpha.cod != 1 or o.alpha.values != (0, 1):
        raise ValueError("recovery expects the frame at <0,1> of a 1-simplex")
    return _retraction_system(last_vertex_equivalence(o).j) @ o.summand_inclusion((0,))
