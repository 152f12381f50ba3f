"""Bounded, degreewise finitely generated free chain complexes over the integers.

Complexes are homologically graded: the differential lowers degree by one, and
``diff(d)`` is the matrix of X_d -> X_{d-1} with shape rank(d-1) x rank(d).
Graded maps of degree r store one matrix per degree, ``mat(d)`` having shape
rank_target(d+r) x rank_source(d).

Sign conventions, and the function that writes each:

* differential of a graded map:  D(f) = d_Y o f - (-1)^{|f|} f o d_X, the sign
  of f o d_X given by :func:`hom_sign`, which :func:`differential_terms` and
  :func:`hom_complex_diff` read;
* shifted complex:               d_{X[n]} = (-1)^n d_X, the sign given by
  :func:`shift_sign`, which :func:`shift` and the frame differential read;
* the face and split signs of the dg nerve and its frames:
  ``dg_nerve.twisting_signs``.

Every such sign is :func:`parity_sign` of its exponent.

Equality of complexes and of graded maps is label-wise and matrix-wise literal;
the ``name`` field is display metadata and never takes part in comparisons.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, product
from typing import Dict, Optional, Tuple

from .exact_linalg import (
    IntMatrix,
    _assemble,
    combination_is_zero,
    combination_matrix,
    invariant_factors,
    kernel_basis,
    solve,
)


def parity_sign(e: int) -> int:
    """(-1)^e."""
    return -1 if e % 2 else 1


def shift_sign(n: int) -> int:
    """(-1)^n, the sign of d_X in d_{X[n]} = (-1)^n d_X."""
    return parity_sign(n)


def hom_sign(n: int) -> int:
    """-(-1)^n, the sign of f o d_X in D(f) = d_Y o f - (-1)^{|f|} f o d_X
    for f of degree n."""
    return -parity_sign(n)


class ChainComplex:
    """A bounded complex of finitely generated free abelian groups.

    Parameters
    ----------
    name : display name, a str (metadata only, ignored by equality)
    ranks : mapping degree -> rank, both ints (ValueError for any other
        type, bools included); zero ranks are dropped
    diffs : mapping int degree -> IntMatrix of X_d -> X_{d-1}; matrices are kept
        exactly for the degrees where both ends have positive rank, missing
        ones are filled with zeros
    labels : optional mapping degree -> sequence of basis label strings
        (ValueError for any other type, as for ``name``); defaults to
        "e0", "e1", ...

    d o d = 0 is verified on construction; ``_trusted`` alone skips it.
    """

    def __init__(self, name, ranks, diffs=None, labels=None):
        self.name = json_str(name, "complex name")
        self._ranks: Dict[int, int] = {}
        for d, r in dict(ranks).items():
            json_int(d, "complex degree")
            if json_rank(r, d):
                self._ranks[d] = r
        diffs = dict(diffs) if diffs else {}
        for d in diffs:
            json_int(d, "differential degree")
        self._diffs: Dict[int, IntMatrix] = {}
        for d in self._ranks:
            if self.rank(d - 1) > 0:
                m = diffs.pop(d, None)
                if m is None:
                    m = IntMatrix.zeros(self.rank(d - 1), self.rank(d))
                if m.rows != self.rank(d - 1) or m.cols != self.rank(d):
                    raise ValueError(
                        "differential at degree %d has shape %dx%d, expected %dx%d"
                        % (d, m.rows, m.cols, self.rank(d - 1), self.rank(d))
                    )
                self._diffs[d] = m
        for d, m in diffs.items():
            if not m.is_zero():
                raise ValueError("differential at degree %d maps between zero groups" % d)
        self._labels: Dict[int, Tuple[str, ...]] = {}
        labels = dict(labels) if labels else {}
        for d, r in self._ranks.items():
            got = labels.get(d)
            if got is None:
                self._labels[d] = tuple("e%d" % i for i in range(r))
            else:
                got = tuple(got)
                for s in got:
                    if not isinstance(s, str):
                        json_str(s, "label at degree %d" % d)  # raises
                if len(got) != r:
                    raise ValueError("degree %d has %d labels for rank %d" % (d, len(got), r))
                self._labels[d] = got
        # the degrees of positive rank in order, sorted once: nothing changes _ranks after construction
        self.support: Tuple[int, ...] = tuple(sorted(self._ranks))
        bad = self.d_squared_defects()
        if bad:
            raise ValueError("differential does not square to zero at degree %d" % bad[0])

    @classmethod
    def _trusted(cls, name: str, ranks: Dict[int, int], diffs: Dict[int, IntMatrix], labels) -> "ChainComplex":
        """Wrap parts without checks: ``ranks`` has positive int ranks only,
        ``diffs`` holds a matrix of the right shape for exactly the degrees d
        where rank(d) and rank(d - 1) are positive, and ``labels`` a tuple of
        rank(d) strings for every degree of ``ranks``.  d^2 is not checked.
        For complexes built here from valid parts."""
        x = cls.__new__(cls)
        x.name, x._ranks, x._diffs, x._labels, x.support = name, ranks, diffs, labels, tuple(sorted(ranks))
        return x

    # -- inspection --------------------------------------------------------

    def rank(self, d: int) -> int:
        return self._ranks.get(d, 0)

    def total_rank(self) -> int:
        return sum(self._ranks.values())

    def diff(self, d: int) -> IntMatrix:
        got = self._diffs.get(d)
        if got is None:
            return IntMatrix.zeros(self.rank(d - 1), self.rank(d))
        return got

    def labels(self, d: int) -> Tuple[str, ...]:
        return self._labels.get(d, ())

    def label(self, d: int, i: int) -> str:
        return self._labels[d][i]

    def min_degree(self) -> int:
        return min(self._ranks) if self._ranks else 0

    def max_degree(self) -> int:
        return max(self._ranks) if self._ranks else 0

    def d_squared_defects(self):
        """Degrees d where diff(d-1) @ diff(d) is nonzero."""
        out = []
        for d in self.support:
            if self.rank(d - 1) and self.rank(d - 2):
                if not self.diff(d - 1).product_is_zero(self.diff(d)):
                    out.append(d)
        return out

    def __eq__(self, other):
        return other is self or (
            isinstance(other, ChainComplex)
            and self._ranks == other._ranks
            and self._labels == other._labels
            and self._diffs == other._diffs
        )

    __hash__ = None

    def __repr__(self):
        degs = ", ".join("%d:%d" % (d, self._ranks[d]) for d in self.support)
        return "ChainComplex(%s; %s)" % (self.name, degs)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "degrees": {str(d): self._ranks[d] for d in self.support},
            "differentials": {str(d): self.diff(d).to_lists() for d in sorted(self._diffs)},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "ChainComplex":
        obj = json_object(obj, "complex")
        for field in ("name", "degrees"):
            if field not in obj:
                raise ValueError("complex is missing the %r field" % field)
        ranks = {}
        for k, v in json_object(obj["degrees"], "complex degrees").items():
            d = json_int_key(k, "complex degree")
            ranks[d] = json_rank(v, d)
        diffs = {}
        for k, rows in json_object(obj.get("differentials", {}), "complex differentials").items():
            d = json_int_key(k, "differential degree")
            diffs[d] = json_matrix(rows, ranks.get(d - 1, 0), ranks.get(d, 0), "differential at degree %s" % k)
        return cls(json_str(obj["name"], "complex name"), ranks, diffs)


def json_object(value, what: str) -> Mapping:
    """``value`` if it is a JSON object, else ValueError."""
    if not isinstance(value, Mapping):
        raise ValueError("%s must be a JSON object" % what)
    return value


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer (not a bool, float or string), else ValueError."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return value


def json_rank(value, d: int) -> int:
    """``value`` if it is a JSON integer >= 0, the rank at degree d, else ValueError."""
    if json_int(value, "rank at degree %d" % d) < 0:
        raise ValueError("negative rank in degree %d" % d)
    return value


def json_int_key(text: str, what: str) -> int:
    """The integer that ``text`` spells in canonical ASCII decimal, else
    ValueError.  "00", "+0", "-0", " 1", "1_0" and non-ASCII digits are
    refused, so no two keys of one JSON object name the same integer."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise ValueError("%s must be a canonical decimal integer, got %r" % (what, text))
    return value


def json_str(value, what: str) -> str:
    """``value`` if it is a JSON string, else ValueError."""
    if not isinstance(value, str):
        raise ValueError("%s must be a JSON string, got %r" % (what, value))
    return value


def json_matrix(rows, n_rows: int, n_cols: int, what: str) -> IntMatrix:
    """An IntMatrix from a JSON list of integer rows of the declared shape."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("%s must be a list of rows" % what)
    if len(rows) != n_rows or any(len(r) != n_cols for r in rows):
        raise ValueError("%s must be %dx%d, got row lengths %s" % (what, n_rows, n_cols, [len(r) for r in rows]))
    for row in rows:
        for v in row:
            if type(v) is not int:
                json_int(v, "%s entry" % what)  # raises
    return IntMatrix(n_rows, n_cols, rows)


def zero_complex(name: str = "0") -> ChainComplex:
    return ChainComplex(name, {})


class GradedMap:
    """A degree-r map of graded groups f : X -> Y, one matrix per degree.

    Matrices are stored canonically for exactly the degrees where both
    rank_X(d) and rank_Y(d+r) are positive; ``mat`` returns a zero matrix of
    the right shape elsewhere.  The degree and the keys of ``mats`` must be
    ints.  Composition carries no sign; signs enter only through
    :func:`differential_terms`.  Every reader goes through ``_mats``, so a
    subclass may supply it on first read (``frames.Selection`` does).
    """

    def __init__(self, source: ChainComplex, target: ChainComplex, degree: int, mats=None):
        self.source, self.target, self.degree = source, target, json_int(degree, "graded map degree")
        given = dict(mats) if mats else {}
        for d in given:
            json_int(d, "matrix degree")
        self._mats: Dict[int, IntMatrix] = {}
        for d in source.support:
            r_from = source.rank(d)
            r_to = target.rank(d + self.degree)
            m = given.pop(d, None)
            if r_from and r_to:
                if m is None:
                    m = IntMatrix.zeros(r_to, r_from)
                if m.rows != r_to or m.cols != r_from:
                    raise ValueError(
                        "matrix at degree %d has shape %dx%d, expected %dx%d"
                        % (d, m.rows, m.cols, r_to, r_from)
                    )
                self._mats[d] = m
            elif m is not None and not m.is_zero():
                raise ValueError("nonzero matrix at degree %d maps between zero groups" % d)
        for d, m in given.items():
            if m is not None and not m.is_zero():
                raise ValueError("matrix at degree %d outside the source support" % d)

    @classmethod
    def _trusted(cls, source: ChainComplex, target: ChainComplex, degree: int, mats: Dict[int, IntMatrix]) -> "GradedMap":
        """Wrap ``mats`` without checks: a matrix of the right shape for
        exactly the degrees d where source.rank(d) and target.rank(d + degree)
        are positive.  For maps built here from valid parts."""
        f = cls.__new__(cls)
        f.source, f.target, f.degree, f._mats = source, target, degree, mats
        return f

    @classmethod
    def zero(cls, source, target, degree=0) -> "GradedMap":
        json_int(degree, "graded map degree")
        mats = {}
        for d in source.support:
            r_to = target.rank(d + degree)
            if r_to:
                mats[d] = IntMatrix.zeros(r_to, source.rank(d))
        return cls._trusted(source, target, degree, mats)

    @classmethod
    def identity(cls, x: ChainComplex) -> "GradedMap":
        return cls._trusted(x, x, 0, {d: IntMatrix.identity(x.rank(d)) for d in x.support})

    def mat(self, d: int) -> IntMatrix:
        got = self._mats.get(d)
        if got is None:
            return IntMatrix.zeros(self.target.rank(d + self.degree), self.source.rank(d))
        return got

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self._mats.values())

    def __eq__(self, other):
        return other is self or (
            isinstance(other, GradedMap)
            and self.degree == other.degree
            and self.source == other.source
            and self.target == other.target
            and self._mats == other._mats
        )

    __hash__ = None

    def __add__(self, other: "GradedMap") -> "GradedMap":
        self._compatible(other)
        mats = {d: self.mat(d) + other.mat(d) for d in set(self._mats) | set(other._mats)}
        return GradedMap._trusted(self.source, self.target, self.degree, mats)

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        return self + other.scale(-1)

    def scale(self, c: int) -> "GradedMap":
        return GradedMap._trusted(self.source, self.target, self.degree, {d: m.scale(c) for d, m in self._mats.items()})

    def __matmul__(self, other: "GradedMap") -> "GradedMap":
        """Composition self o other (no Koszul sign for composition)."""
        if other.target != self.source:
            raise ValueError("composition endpoints do not match")
        deg = self.degree + other.degree
        mats = {}
        for d in other.source.support:
            m = self.mat(d + other.degree) @ other.mat(d)
            if m.rows and m.cols:
                mats[d] = m
        return GradedMap._trusted(other.source, self.target, deg, mats)

    def is_cycle(self) -> bool:
        """Whether D(f) = 0; in degree 0 this says f is a chain map."""
        return cycle_defect(self) is None

    def __repr__(self):
        return "GradedMap(%s -> %s, degree %d)" % (self.source.name, self.target.name, self.degree)

    def to_json(self) -> dict:
        return {
            "source": self.source.name,
            "target": self.target.name,
            "degree": self.degree,
            "matrices": {
                str(d): m.to_lists() for d, m in sorted(self._mats.items()) if not m.is_zero()
            },
        }

    @classmethod
    def from_json(cls, obj: Mapping, source: ChainComplex, target: ChainComplex) -> "GradedMap":
        obj = json_object(obj, "graded map")
        for field in ("source", "target", "degree", "matrices"):
            if field not in obj:
                raise ValueError("graded map is missing the %r field" % field)
        src, tgt = json_str(obj["source"], "graded map source"), json_str(obj["target"], "graded map target")
        if src != source.name or tgt != target.name:
            raise ValueError(
                "graded map endpoints %r -> %r do not match %r -> %r" % (src, tgt, source.name, target.name)
            )
        degree = json_int(obj["degree"], "graded map degree")
        mats = {}
        for k, rows in json_object(obj["matrices"], "graded map matrices").items():
            d = json_int_key(k, "matrix degree")
            mats[d] = json_matrix(rows, target.rank(d + degree), source.rank(d), "matrix at degree %s" % k)
        return cls(source, target, degree, mats)

    def _compatible(self, other: "GradedMap"):
        if self.degree != other.degree or self.source != other.source or self.target != other.target:
            raise ValueError("graded maps are not compatible")


def hom_differential(f: GradedMap) -> GradedMap:
    """D(f) = d_Y o f - (-1)^{|f|} f o d_X, a graded map of degree |f| - 1,
    formed from :func:`differential_terms`."""
    return combination_map(f.source, f.target, f.degree - 1, lambda d: differential_terms(f, d))


def combination_map(x: ChainComplex, y: ChainComplex, r: int, terms_at) -> GradedMap:
    """The degree-r graded map x -> y whose matrix at each degree d of x is
    the sum of the terms_at(d) (see exact_linalg.nonzero_rows)."""
    return GradedMap(x, y, r, {d: combination_matrix(y.rank(d + r), x.rank(d), terms_at(d)) for d in x.support})


def first_defect(x: ChainComplex, y: ChainComplex, r: int, terms_at) -> Optional[int]:
    """The first degree d of x where the terms_at(d) of combination_is_zero,
    maps X_d -> Y_{d+r}, do not sum to zero; None if there is none.  Degrees
    where Y_{d+r} is 0, and every such sum is zero, are not visited."""
    for d in x.support:
        height = y.rank(d + r)
        if height and not combination_is_zero(height, terms_at(d)):
            return d
    return None


def _product(c: int, a: Optional[IntMatrix], b: Optional[IntMatrix]) -> tuple:
    return () if a is None or b is None else ((c, a, b),)


def composite_term(c: int, f: GradedMap, g: GradedMap, d: int) -> tuple:
    """c * f o g at source degree d as terms of combination_is_zero; none
    when f or g stores no matrix there, since the composite is then zero."""
    return _product(c, f._mats.get(d + g.degree), g._mats.get(d))


def map_term(c: int, f: GradedMap, d: int) -> tuple:
    """c * f at source degree d as terms of combination_is_zero."""
    b = f._mats.get(d)
    return () if b is None else ((c, None, b),)


def identity_term(c: int) -> tuple:
    """c times the identity as terms of combination_is_zero."""
    return ((c, None, None),)


def differential_terms(f: GradedMap, d: int) -> tuple:
    """D(f) = d_Y o f - (-1)^|f| f o d_X at source degree d, as terms of
    combination_is_zero."""
    x, y, r = f.source, f.target, f.degree
    return _product(1, y._diffs.get(d + r), f._mats.get(d)) + _product(hom_sign(r), f._mats.get(d - 1), x._diffs.get(d))


def cycle_defect(f: GradedMap) -> Optional[int]:
    """The first degree where D(f) != 0, or None when f is a cycle.  Unlike
    hom_differential, this forms no matrix of D(f)."""
    return first_defect(f.source, f.target, f.degree - 1, lambda d: differential_terms(f, d))


def shift(x: ChainComplex, n: int) -> ChainComplex:
    """The n-fold shift X[n] with rank_d = rank_X(d - n) and d = (-1)^n d_X."""
    sgn = shift_sign(n)
    return ChainComplex._trusted(
        "%s[%d]" % (x.name, n),
        {d + n: r for d, r in x._ranks.items()},
        {d + n: m if sgn == 1 else m.scale(-1) for d, m in x._diffs.items()},
        {d + n: labs for d, labs in x._labels.items()},
    )


def cone(f: GradedMap) -> ChainComplex:
    """Mapping cone of a chain map: Cone(f)_d = X_{d-1} (+) Y_d.

    The differential is the block matrix [[-d_X, 0], [-f, d_Y]], assembled
    by ``exact_linalg._assemble`` with sign -1 on the blocks of its X_{d-1}
    columns.  Basis labels are "s|<x label>" for the suspended source part
    and "t|<y label>" for the target part.
    """
    if f.degree != 0:
        raise ValueError("cone needs a degree-0 map")
    if not f.is_cycle():
        raise ValueError("cone needs a chain map")
    x, y = f.source, f.target
    degrees = sorted({d + 1 for d in x.support} | set(y.support))
    ranks = {d: x.rank(d - 1) + y.rank(d) for d in degrees}
    diffs, labels = {}, {}
    for d in degrees:
        labels[d] = tuple("s|%s" % s for s in x.labels(d - 1)) + tuple("t|%s" % s for s in y.labels(d))
        if ranks.get(d - 1, 0) and ranks[d]:
            below, width = x.rank(d - 2), x.rank(d - 1)  # X_{d-2} rows, X_{d-1} columns
            source = (0, width, [(0, -1, x.diff(d - 1)), (below, -1, f.mat(d - 1))])  # -d_X over -f
            diffs[d] = _assemble(ranks[d - 1], ranks[d], [source, (width, y.rank(d), [(below, 1, y.diff(d))])])
    return ChainComplex("Cone(%s->%s)" % (x.name, y.name), ranks, diffs, labels)


# -- mapping complexes ------------------------------------------------------


def hom_basis(x: ChainComplex, y: ChainComplex, n: int):
    """Ordered basis of the degree-n mapping group: triples (k, i, j).

    The triple stands for the elementary map sending basis element i of X_k
    to basis element j of Y_{k+n}; ordering is by source degree, then source
    index, then target index.
    """
    return list(chain.from_iterable(product((k,), range(x.rank(k)), range(y.rank(k + n))) for k in x.support))


def precompose_matrix(f: GradedMap, z: ChainComplex, n: int) -> IntMatrix:
    """The matrix of g -> g o f from Map(Y, Z)_n to Map(X, Z)_{n+r}, for
    f : X -> Y of degree r, in :func:`hom_basis` coordinates: the elementary
    map (k, i, j) goes to the sum over i' of f_{k-r}[i, i'] (k - r, i', j)."""
    x, y, r = f.source, f.target, f.degree
    columns = hom_basis(y, z, n)
    index = {t: c for c, t in enumerate(hom_basis(x, z, n + r))}
    entries, mats = {}, f._mats
    for col, (k, i, j) in enumerate(columns):
        m = mats.get(k - r)
        if m is not None:
            for i2, v in m.nonzeros[i]:
                entries[(index[(k - r, i2, j)], col)] = v
    return IntMatrix.from_entries(len(index), len(columns), entries)


def hom_complex_diff(x: ChainComplex, y: ChainComplex, n: int) -> IntMatrix:
    """The matrix of the differential D : Map(X, Y)_n -> Map(X, Y)_{n-1},
    D(f) = d_Y o f - (-1)^n f o d_X, in :func:`hom_basis` coordinates.

    Only the two bases it maps between are built: this is one differential
    of :func:`hom_complex` without the rest of the complex, its labels or
    its d^2 check.  The elementary map (k, i, j) goes to the sum over l of
    d_Y[l, j] (k, i, l) and the sum over i' of -(-1)^n d_X[i, i'] (k + 1, i', j);
    the two sums never meet, since their source degrees differ.  The
    columns of each d_Y are read off its view in one pass.
    """
    columns = hom_basis(x, y, n)
    index = {t: c for c, t in enumerate(hom_basis(x, y, n - 1))}
    sign = hom_sign(n)
    d_y_columns: Dict[int, Dict[int, list]] = {}
    entries = {}
    for col, (k, i, j) in enumerate(columns):
        by_column = d_y_columns.get(k)
        if by_column is None:
            by_column = d_y_columns[k] = {}
            for l, row in enumerate(y.diff(k + n).nonzeros):
                for c, v in row:
                    by_column.setdefault(c, []).append((l, v))
        for l, v in by_column.get(j, ()):
            entries[(index[(k, i, l)], col)] = v
        for i2, v in x.diff(k + 1).nonzeros[i]:
            entries[(index[(k + 1, i2, j)], col)] = sign * v
    return IntMatrix.from_entries(len(index), len(columns), entries)


def hom_complex(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    """The mapping complex with Map(X, Y)_n = prod_k Ab(X_k, Y_{k+n}).

    Basis ordering in each degree follows :func:`hom_basis`; each
    differential is :func:`hom_complex_diff`.  A caller that reads one
    differential should call that function instead and skip the rest.
    """
    if not x.support or not y.support:
        return zero_complex("Hom(%s,%s)" % (x.name, y.name))
    bases = {n: hom_basis(x, y, n) for n in range(y.min_degree() - x.max_degree(), y.max_degree() - x.min_degree() + 1)}
    ranks = {n: len(b) for n, b in bases.items() if b}
    labels = {n: tuple("%d:%s>%s" % (k, x.label(k, i), y.label(k + n, j)) for k, i, j in bases[n]) for n in ranks}
    diffs = {n: hom_complex_diff(x, y, n) for n in ranks if ranks.get(n - 1)}
    return ChainComplex("Hom(%s,%s)" % (x.name, y.name), ranks, diffs, labels)


def graded_map_to_vector(f: GradedMap):
    """Coordinates of f in the hom_basis ordering of its total degree."""
    return tuple([f.mat(k)[j, i] for k, i, j in hom_basis(f.source, f.target, f.degree)])


def vector_to_graded_map(x: ChainComplex, y: ChainComplex, n: int, vec) -> GradedMap:
    basis = hom_basis(x, y, n)
    if len(vec) != len(basis):
        raise ValueError("vector length %d does not match basis size %d" % (len(vec), len(basis)))
    entries: Dict[int, dict] = {}
    for v, (k, i, j) in zip(vec, basis):
        if v:
            entries.setdefault(k, {})[(j, i)] = v
    mats = {k: IntMatrix.from_entries(y.rank(k + n), x.rank(k), es) for k, es in entries.items()}
    return GradedMap(x, y, n, mats)


# -- homology ----------------------------------------------------------------


@dataclass(frozen=True)
class HomologySummary:
    """Per-degree Betti numbers and torsion coefficients."""

    betti: Mapping[int, int]
    torsion: Mapping[int, Tuple[int, ...]]

    def is_trivial(self) -> bool:
        return not self.betti and not self.torsion

    def group(self, d: int) -> str:
        parts = ["Z"] * self.betti.get(d, 0) + ["Z/%d" % t for t in self.torsion.get(d, ())]
        return " + ".join(parts) if parts else "0"

    def degrees(self):
        return sorted(set(self.betti) | set(self.torsion))

    def __str__(self):
        degs = self.degrees()
        if not degs:
            return "trivial homology"
        return "; ".join("H_%d = %s" % (d, self.group(d)) for d in degs)


def homology(x: ChainComplex) -> HomologySummary:
    """Betti numbers and torsion from the invariant factors of the differentials,
    one factor list per differential: its length is the rank of the differential."""
    factors = {d: invariant_factors(x.diff(d)) for d in x.support if x.rank(d - 1)}
    betti, torsion = {}, {}
    for d in x.support:
        inv_in = factors.get(d + 1, ())
        b = x.rank(d) - len(factors.get(d, ())) - len(inv_in)
        t = tuple(v for v in inv_in if v > 1)
        if b:
            betti[d] = b
        if t:
            torsion[d] = t
    return HomologySummary(betti, torsion)


def is_acyclic(x: ChainComplex) -> bool:
    return homology(x).is_trivial()


def is_nullhomotopic(f: GradedMap) -> Optional[GradedMap]:
    """A graded map h with D(h) = f, or None if f is not a boundary.

    This is an exact integer linear solve against the differential of the
    mapping complex, so a returned witness is exact and the None answer is a
    certified nonexistence over the integers.
    """
    x, y, r = f.source, f.target, f.degree
    sol = solve(hom_complex_diff(x, y, r + 1), graded_map_to_vector(f))
    return None if sol is None else vector_to_graded_map(x, y, r + 1, sol)


# -- randomized generators (exact, seeded; used by the test sweeps) ----------


def random_complex(rng: random.Random, max_rank=3, max_width=4, name=None):
    """A random bounded free complex in degrees -1..3 with an honestly random differential.

    Differentials are built top down: each matrix has its columns drawn from
    the kernel lattice of the previous one, so d o d = 0 holds exactly while
    ranks, torsion and homology stay varied.
    """
    lo = rng.randint(-1, 2)
    width = rng.randint(1, max_width)
    degrees = list(range(lo, min(lo + width, 4)))
    ranks = {d: rng.randint(0, max_rank) for d in degrees}
    if not any(ranks.values()):
        ranks[rng.choice(degrees)] = rng.randint(1, max_rank)
    diffs = {}
    prev: Optional[IntMatrix] = None  # differential leaving the degree below
    for d in sorted(ranks):
        r_from, r_to = ranks[d], ranks.get(d - 1, 0)
        if not r_from or not r_to:
            prev = None
            continue
        if prev is None:
            m = IntMatrix(r_to, r_from, [[rng.randint(-2, 2) for _ in range(r_from)] for _ in range(r_to)])
        else:
            kb = kernel_basis(prev)
            cols = []
            for _ in range(r_from):
                acc = [0] * r_to
                for v in kb:
                    c = rng.randint(-1, 1)
                    if c:
                        for i in range(r_to):
                            acc[i] += c * v[i]
                cols.append(acc)
            m = IntMatrix(r_to, r_from, [[cols[j][i] for j in range(r_from)] for i in range(r_to)])
        diffs[d] = m
        prev = m
    if name is None:
        name = "X%d" % rng.randint(0, 10**6)
    return ChainComplex(name, ranks, diffs)


def random_chain_map(rng: random.Random, x: ChainComplex, y: ChainComplex) -> GradedMap:
    """A random degree-0 cycle of the mapping complex, i.e. a chain map."""
    m = hom_complex_diff(x, y, 0)
    vec = [0] * m.cols
    for v in kernel_basis(m):
        c = rng.randint(-1, 1)
        if c:
            for i in range(m.cols):
                vec[i] += c * v[i]
    return vector_to_graded_map(x, y, 0, vec)


def random_graded_map(rng: random.Random, x: ChainComplex, y: ChainComplex, degree: int, spread=1) -> GradedMap:
    """A random graded map (no cycle condition)."""
    mats = {}
    for d in x.support:
        r_to = y.rank(d + degree)
        if not r_to:
            continue
        mats[d] = IntMatrix(
            r_to, x.rank(d), [[rng.randint(-spread, spread) for _ in range(x.rank(d))] for _ in range(r_to)]
        )
    return GradedMap(x, y, degree, mats)
