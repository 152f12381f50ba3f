"""Simplices of the differential graded nerve, concretely.

An n-simplex is a family of complexes X_0, ..., X_n together with one graded
map f(<i_0..i_k>) : X_{i_0} -> X_{i_k} of degree k-1 for every strictly
increasing sequence in [n] of length >= 2.  Strict unitality extends the
family to all nondecreasing sequences:

    f(<i,i>) = id,    f(<i_0..i_k>) = 0  for k >= 2 with a repeated adjacent entry.

The family is a simplex exactly when it solves the Maurer-Cartan equation

    D(f) + δf + f⌣f = 0

at every sequence a = <a_0..a_k>, where D is the hom differential taken value
by value, δ is the inner-face sum and ⌣ the split product of the convolution
algebra of the path coalgebra:

    (δf)(a)  = sum_{j=1..k-1} (-1)^j f(<a_0..a_k> without a_j),
    (p⌣q)(a) = sum_{j=1..k-1} (-1)^{(j-1)k} p(<a_j..a_k>) o q(<a_0..a_j>).

Checking it on strictly increasing sequences suffices: on degenerate
sequences it follows from strict unitality.

``twisting_signs`` is the one table of these two signs, and
``twisting_plan(m)`` the package's one derivation of the twisting terms: per
nonempty subset S of [m], addressed by its index in ``nonempty_subsets``
order, the indices of its faces, suffixes and prefixes beside their signs.
The frame differential of ``frames.build_frame_object`` reads every row of
it, and ``twisting_terms`` reads a row as the terms δf + f⌣f, over a tuple
of cochains indexed like the plan's subsets (``NerveSimplex.cochains``).
``coherence_terms`` adds D(f) to write the equation at one sequence and
source degree as one list of terms, and the validator decides it, and finds a
failure's witness, with the row-wise decider that every other identity of the
package goes through (``complexes.first_defect``).  ``gauge`` reads the same
rows to deform a simplex by homotopies on its edges.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from itertools import combinations
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .complexes import (
    ChainComplex,
    GradedMap,
    combination_map,
    composite_term,
    differential_terms,
    first_defect,
    json_int,
    json_object,
    map_term,
    parity_sign,
    random_chain_map,
    random_complex,
    random_graded_map,
    zero_complex,
)
from .exact_linalg import nonzero_rows
from .reporting import Report
from .simplicial import OrderMap, nonempty_subsets, parse_seq_key, seq_key


class NerveSimplex:
    """Objects plus coherence maps, keyed by strictly increasing sequences."""

    def __init__(self, objects: Sequence[ChainComplex], maps: Mapping[tuple, GradedMap]):
        self.objects: Tuple[ChainComplex, ...] = tuple(objects)
        if not self.objects:
            raise ValueError("a simplex needs at least one object")
        self.maps: Dict[tuple, GradedMap] = {}
        n = self.n
        for key, f in maps.items():
            key = tuple(json_int(v, "map key entry") for v in key)
            if len(key) < 2:
                raise ValueError("map keys have length >= 2, got %r" % (key,))
            if any(b <= a for a, b in zip(key, key[1:])):
                raise ValueError("map key %r is not strictly increasing" % (key,))
            if key[0] < 0 or key[-1] > n:
                raise ValueError("map key %r leaves [%d]" % (key, n))
            _check_degree(key, f.degree)
            if f.source != self.objects[key[0]] or f.target != self.objects[key[-1]]:
                raise ValueError("map at %r has wrong endpoints" % (key,))
            self.maps[key] = f
        # strict unitality values, built once per object or endpoint pair and
        # keyed by the positions in ``_base`` (see _trusted)
        self._units: Dict[int, GradedMap] = {}
        self._zeros: Dict[tuple, GradedMap] = {}
        self._base: Tuple[int, ...] = tuple(range(len(self.objects)))

    @classmethod
    def _trusted(
        cls, objects: Tuple[ChainComplex, ...], maps: Dict[tuple, GradedMap], parent: "NerveSimplex", values: tuple
    ) -> "NerveSimplex":
        """The restriction act(sigma, parent), sigma of the given values, from
        data that already meets every check of __init__.  It shares the
        strict unitality values of parent: its object i is parent's object
        values[i], so its caches are keyed by parent's positions."""
        s = cls.__new__(cls)
        s.objects, s.maps, s._units, s._zeros = objects, maps, parent._units, parent._zeros
        s._base = tuple(map(parent._base.__getitem__, values))
        return s

    @property
    def n(self) -> int:
        return len(self.objects) - 1

    def cochain_keys(self):
        return sorted(self.maps, key=lambda k: (len(k), k))

    def cochains(self) -> tuple:
        """The maps indexed like the subsets of ``twisting_plan(n)``, None at
        the singletons, which carry none; ValueError naming the first
        missing key of an incomplete simplex."""
        if self.missing_count():
            raise ValueError("no cochain stored at %s" % (next(self.missing_keys()),))
        return tuple(map(self.maps.get, twisting_plan(self.n)[0]))

    def missing_count(self) -> int:
        """How many strictly increasing sequences in [n] of length >= 2 have
        no map: the keys are distinct such sequences, so a count decides it,
        with no sequence formed."""
        return 2 ** (self.n + 1) - self.n - 2 - len(self.maps)

    def missing_keys(self):
        """The sequences with no map, lazily, in the order of
        :func:`increasing_sequences`."""
        return (k for size in range(2, self.n + 2) for k in combinations(range(self.n + 1), size) if k not in self.maps)

    def eval(self, seq) -> GradedMap:
        """Value on any nondecreasing sequence, via strict unitality."""
        seq = tuple(json_int(v, "sequence entry") for v in seq)
        if len(seq) < 2:
            raise ValueError("sequences have length >= 2, got %r" % (seq,))
        if seq[0] < 0 or seq[-1] > self.n:
            raise ValueError("sequence %r leaves [%d]" % (seq, self.n))
        if any(b < a for a, b in zip(seq, seq[1:])):
            raise ValueError("sequence %r is not nondecreasing" % (seq,))
        return self._lookup(seq)

    def _lookup(self, seq: tuple) -> GradedMap:
        """eval on a tuple of ints already known to be a nondecreasing
        sequence in [n] of length >= 2."""
        got = self.maps.get(seq)
        if got is not None:
            return got
        if len(set(seq)) == len(seq):  # strictly increasing
            raise ValueError("no cochain stored at %s" % (seq,))
        if len(seq) == 2:
            i = self._base[seq[0]]
            unit = self._units.get(i)
            if unit is None:
                unit = self._units[i] = GradedMap.identity(self.objects[seq[0]])
            return unit
        key = (self._base[seq[0]], self._base[seq[-1]], len(seq) - 2)
        zero = self._zeros.get(key)
        if zero is None:
            zero = self._zeros[key] = GradedMap.zero(self.objects[seq[0]], self.objects[seq[-1]], len(seq) - 2)
        return zero

    def __eq__(self, other):
        return isinstance(other, NerveSimplex) and self.objects == other.objects and self.maps == other.maps

    __hash__ = None

    def __repr__(self):
        return "NerveSimplex(n=%d, %d maps)" % (self.n, len(self.maps))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "objects": [x.to_json() for x in self.objects],
            "maps": {seq_key(k): self.maps[k].to_json() for k in self.cochain_keys()},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "NerveSimplex":
        obj = json_object(obj, "simplex")
        for field in ("n", "objects", "maps"):
            if field not in obj:
                raise ValueError("simplex is missing the %r field" % field)
        if not isinstance(obj["objects"], list):
            raise ValueError("simplex objects must be a JSON list")
        objects = [ChainComplex.from_json(o) for o in obj["objects"]]
        if len(objects) != json_int(obj["n"], "simplex n") + 1:
            raise ValueError("simplex declares n=%s but carries %d objects" % (obj["n"], len(objects)))
        maps = {}
        for key_text, mobj in json_object(obj["maps"], "simplex maps").items():
            key = parse_seq_key(key_text, "a part of map key %r" % key_text)
            if len(key) < 2 or any(b <= a for a, b in zip(key, key[1:])) or key[0] < 0 or key[-1] >= len(objects):
                raise ValueError("map key %r is not a strictly increasing sequence in range" % key_text)
            if type(json_object(mobj, "graded map").get("degree")) is int:
                _check_degree(key, mobj["degree"])  # before the matrices, whose shapes it sets
            maps[key] = GradedMap.from_json(mobj, objects[key[0]], objects[key[-1]])
        return cls(objects, maps)


def _check_degree(key: tuple, degree: int) -> None:
    """ValueError unless ``degree`` is len(key) - 2, the degree of a map at key."""
    if degree != len(key) - 2:
        raise ValueError("map at %r has degree %d, expected %d" % (key, degree, len(key) - 2))


def increasing_sequences(n: int) -> tuple:
    """The strictly increasing sequences in [n] of length >= 2, by length
    then lexicographically: the subsets of ``twisting_plan(n)`` past the
    n + 1 singletons."""
    return twisting_plan(n)[0][n + 1 :]


@lru_cache(maxsize=None)
def twisting_signs(k: int) -> tuple:
    """(j, (-1)^j, (-1)^{(j-1)k}) for j = 1..k: the face and split signs at
    a sequence <a_0..a_k>, the package's one writing of them."""
    return tuple((j, parity_sign(j), parity_sign((j - 1) * k)) for j in range(1, k + 1))


@lru_cache(maxsize=16)
def twisting_plan(m: int) -> tuple:
    """(subsets, prefixes, rows, index) of the subset lattice of [m], the
    package's one derivation of the twisting terms.  ``subsets`` lists the
    nonempty subsets S in ``nonempty_subsets`` order (the m + 1 singletons
    first, [m] last), ``prefixes`` their label prefixes seq_key(S) + "|",
    and ``index`` maps each subset to its position.  ``rows`` holds per S
    one flat int tuple (k, S[0], up, ...): k = |S| - 1, up the index of
    S u {m} (-1 when m is in S), then per (j, face sign, split sign) of
    ``twisting_signs(k)`` five entries: the index of the face
    S[:j] + S[j+1:], the face sign, the index of the suffix S[j:], the split
    sign and the index of the prefix S[:j+1].  The frame differential reads
    every j; the Maurer-Cartan sum reads j <= k - 1, since its split at
    j = k would need a value on the length-1 sequence <s_k>, which in the
    frame is the summand inclusion.  That last prefix is S itself."""
    subsets = tuple(nonempty_subsets(m))
    index = {S: i for i, S in enumerate(subsets)}
    rows = []
    for S in subsets:
        row = [len(S) - 1, S[0], index.get(S + (m,), -1)]
        for j, face_sign, split_sign in twisting_signs(len(S) - 1):
            row += (index[S[:j] + S[j + 1 :]], face_sign, index[S[j:]], split_sign, index[S[: j + 1]])
        rows.append(tuple(row))
    return subsets, tuple(seq_key(S) + "|" for S in subsets), tuple(rows), index


def twisting_terms(row: tuple, d: int, c: int, face: tuple, pairs) -> tuple:
    """c * (δface + sum of p⌣q over (p, q) in pairs) at the subset S of the
    plan row ``row``, source degree d, as terms of combination_is_zero:
    c * (-1)^j face(S without s_j) and c * (-1)^{(j-1)k} p(S[j:]) o q(S[:j+1])
    for j = 1..k-1, where face, p and q are tuples of graded maps indexed like
    the plan's subsets."""
    terms = ()
    for f, face_sign, suffix, split_sign, prefix in zip(*[iter(row[3:-5])] * 5):
        terms += map_term(c * face_sign, face[f], d)
        for p, q in pairs:
            terms += composite_term(c * split_sign, p[suffix], q[prefix], d)
    return terms


def coherence_terms(f: tuple, row: tuple, d: int) -> tuple:
    """The Maurer-Cartan equation D(f) + δf + f⌣f = 0 at the subset S of the
    plan row ``row``, source degree d, as terms of combination_is_zero, f
    indexed like the plan's subsets.  S is the row's last prefix."""
    return differential_terms(f[row[-1]], d) + twisting_terms(row, d, 1, f, ((f, f),))


def coherence_defect(s: NerveSimplex, seq) -> GradedMap:
    """The sum of coherence_terms at the nondecreasing sequence seq, a
    graded map of degree len(seq) - 3; zero exactly when the coherence
    identity holds at seq.  It is the sum at [k], k = len(seq) - 1, of
    act(seq, s), whose values are those of s at the subsequences of seq."""
    seq = tuple(seq)
    f = s.eval(seq)
    terms = partial(coherence_terms, act(OrderMap(seq, s.n), s).cochains(), twisting_plan(len(seq) - 1)[2][-1])
    return combination_map(f.source, f.target, f.degree - 1, terms)


def validate_maurer_cartan(s: NerveSimplex) -> Report:
    """Check the coherence identity on every strictly increasing sequence of
    length 2..n+1 (at length 2 the identity degenerates to the chain-map
    condition on the edge).  The report lists one item per sequence; a
    failure names the first nonzero entry, in row-major order, of the defect
    at the first degree where it is nonzero, read off the first nonzero row
    that the decider yields there."""
    report = Report()
    f = s.cochains()
    subsets, _, rows, _ = twisting_plan(s.n)
    for pos in range(s.n + 1, len(subsets)):
        x, y, r = f[pos].source, f[pos].target, f[pos].degree - 1
        terms_at = partial(coherence_terms, f, rows[pos])
        d = first_defect(x, y, r, terms_at)
        witness = None
        if d is not None:
            i, row = next(nonzero_rows(y.rank(d + r), terms_at(d)))
            j = min(j for j, v in row.items() if v)
            witness = "degree %d entry (%d,%d) = %d" % (d, i, j, row[j])
        report.add("maurer-cartan", seq_key(subsets[pos]), d is None, witness)
    return report


def act(sigma: OrderMap, s: NerveSimplex) -> NerveSimplex:
    """Reindex a simplex along an order map sigma : [m] -> [n].

    Objects are pulled back by reindexing and the coherence maps by
    precomposition of sequences, normalized through strict unitality whenever
    sigma collapses adjacent entries.  The result shares the strict
    unitality values of s, so equal restrictions hold the same unit and zero
    maps.  sigma must land in [n].
    """
    if sigma.cod != s.n:
        raise ValueError("sigma has codomain [%d], not the simplex's [%d]" % (sigma.cod, s.n))
    values = sigma.values  # an OrderMap into [n] is valid by construction
    objects = tuple(s.objects[v] for v in values)
    # each image is nondecreasing and in [n], since values is and key increases
    image = values.__getitem__
    maps = {key: s._lookup(tuple(map(image, key))) for key in increasing_sequences(len(values) - 1)}
    # valid by construction: s._lookup keeps the degree and endpoints of each key
    return NerveSimplex._trusted(objects, maps, s, values)


def make_strict(maps: Sequence[GradedMap], lone_object: Optional[ChainComplex] = None) -> NerveSimplex:
    """The simplex of a composable string of chain maps: binary values are the
    composites, all higher coherences vanish."""
    if not maps:
        if lone_object is None:
            raise ValueError("a 0-simplex needs its object")
        return NerveSimplex([lone_object], {})
    objects = [maps[0].source]
    for f in maps:
        if f.degree != 0:
            raise ValueError("strict simplices are built from degree-0 maps")
        if not f.is_cycle():
            raise ValueError("strict simplices are built from chain maps")
        if f.source != objects[-1]:
            raise ValueError("maps do not compose")
        objects.append(f.target)
    n = len(maps)
    table: Dict[tuple, GradedMap] = {}
    for key in increasing_sequences(n):
        if len(key) == 2:
            i, j = key
            comp = maps[i]
            for t in range(i + 1, j):
                comp = maps[t] @ comp
            table[key] = comp
        else:
            table[key] = GradedMap.zero(objects[key[0]], objects[key[-1]], len(key) - 2)
    return NerveSimplex(objects, table)


def gauge(s: NerveSimplex, u: Mapping[tuple, GradedMap]) -> NerveSimplex:
    """The first-order gauge transform f + D(u) - δu - (u⌣f + f⌣u) of the
    simplex f = s, each value one combination_map of those terms.

    u maps edges (i, j) of [n] to degree-1 maps X_i -> X_j and vanishes on
    every other sequence.  The formula solves the Maurer-Cartan equation
    exactly when no two maps of u compose, so u may hold no two edges with
    a[1] <= b[0]; ValueError for such a pair, and for an edge outside [n] or
    a value of the wrong degree or endpoints."""
    objects, n = s.objects, s.n
    for edge, h in u.items():
        if tuple(map(type, edge)) != (int, int) or not 0 <= edge[0] < edge[1] <= n:
            raise ValueError("u maps edges (i, j) of [%d], not %r" % (n, edge))
        if h.degree != 1 or h.source != objects[edge[0]] or h.target != objects[edge[1]]:
            raise ValueError("u at %r is not a degree-1 map X_%d -> X_%d" % (edge, edge[0], edge[1]))
    if any(a[1] <= b[0] for a in u for b in u):
        raise ValueError("two edges of u chain, so the first-order transform is not exact")
    f, nothing = s.cochains(), GradedMap.zero(zero_complex(), zero_complex())  # stores no matrix, so adds no term
    subsets, _, rows, _ = twisting_plan(n)
    v = tuple(u.get(S, nothing) for S in subsets)  # u, zero off its edges

    def terms_at(i, d):
        return map_term(1, f[i], d) + differential_terms(v[i], d) + twisting_terms(rows[i], d, -1, v, ((v, f), (f, v)))

    maps = {
        seq: combination_map(objects[seq[0]], objects[seq[-1]], len(seq) - 2, partial(terms_at, i))
        for i, seq in enumerate(subsets[n + 1 :], n + 1)
    }
    return NerveSimplex(objects, maps)


# -- seeded generators for the randomized sweeps ------------------------------


def random_simplex(rng: random.Random, n: int, max_rank=3, max_width=4, perturb=True) -> NerveSimplex:
    """A random valid n-simplex, n <= 3: the strict simplex of random chain
    maps, and with perturb its gauge transform f + D(u) - δu - (u⌣f + f⌣u)
    (see gauge) by random degree-1 maps u drawn on every edge of span >= 2,
    by span, then by first vertex: (0,2) for n = 2; (0,2), (1,3), (0,3) for
    n = 3.  That transform is exact only while no two edges of u chain,
    which first fails at n = 4, on (0,2) and (2,4); hence n <= 3.  The
    result is revalidated before it is returned."""
    if n < 0 or n > 3:
        raise ValueError("random simplices are generated for 0 <= n <= 3")
    objects = [random_complex(rng, max_rank=max_rank, max_width=max_width, name="X%d" % i) for i in range(n + 1)]
    chain_maps = [random_chain_map(rng, objects[i], objects[i + 1]) for i in range(n)]
    s = make_strict(chain_maps, lone_object=objects[0])
    if not perturb:
        return s
    edges = [(i, i + span) for span in range(2, n + 1) for i in range(n + 1 - span)]
    out = gauge(s, {e: random_graded_map(rng, objects[e[0]], objects[e[1]], 1) for e in edges})
    report = validate_maurer_cartan(out)
    if not report.ok:
        raise AssertionError("generator produced an invalid simplex: %r" % (report.failures()[0],))
    return out
