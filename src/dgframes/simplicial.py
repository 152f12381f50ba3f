"""Order maps, the direct index category of sequences, and the path/cell
coalgebra combinatorics on which the twisted resolutions are built.

Conventions.  An order map [m] -> [n] is a nondecreasing tuple of m+1 values
in 0..n, serialized as "v0,v1,...".  The path coalgebra of [n] is free on all
order maps [k] -> [n] in degree k >= 1, with

    d <a_0..a_k>      = sum_{j=1..k-1} (-1)^j <a_0.. a_j-hat ..a_k>
    Delta <a_0..a_k>  = sum_{j=1..k-1} (-1)^{j(k-j)} <a_j..a_k> (x) <a_0..a_j>

(suffix tensor prefix).  The cell complex of a sequence alpha : [a] -> [n] is
free on the nonempty subsets of {0..a} in degree |S| - 1, with

    d* <i_0..i_k>     = sum_{j=1..k} (-1)^j <i_0.. i_j-hat ..i_k>
    delta <i_0..i_k>  = sum_{j=1..k} (-1)^{j(k-j)} <i_j..i_k> (x) alpha o <i_0..i_j>

The 0-th entry of a cell key is never dropped; the coaction pairs cell keys
with path keys through alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Dict, Iterable, Mapping, Tuple


@dataclass(frozen=True)
class OrderMap:
    """A nondecreasing map [m] -> [n], stored by its value tuple and codomain."""

    values: Tuple[int, ...]
    cod: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if not self.values:
            raise ValueError("an order map needs a nonempty domain")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values %r are not nondecreasing" % (self.values,))
        if self.values[0] < 0 or self.values[-1] > self.cod:
            raise ValueError("values %r leave the codomain [%d]" % (self.values, self.cod))

    @property
    def dom(self) -> int:
        """m, where the domain is [m] = {0, ..., m}."""
        return len(self.values) - 1

    def __call__(self, i: int) -> int:
        return self.values[i]

    def compose(self, other: "OrderMap") -> "OrderMap":
        """self o other."""
        if other.cod != self.dom:
            raise ValueError("codomain [%d] does not match domain [%d]" % (other.cod, self.dom))
        return OrderMap(tuple(self.values[v] for v in other.values), self.cod)

    def is_injective(self) -> bool:
        return all(b > a for a, b in zip(self.values, self.values[1:]))

    def key(self) -> str:
        return ",".join(str(v) for v in self.values)

    def __str__(self):
        return self.key()

    @classmethod
    def from_key(cls, text: str, cod: int) -> "OrderMap":
        try:
            vals = tuple(int(p) for p in text.split(","))
        except ValueError:
            raise ValueError("cannot parse %r as a comma-separated sequence" % text)
        return cls(vals, cod)


@dataclass(frozen=True)
class DMorphism:
    """A morphism of the direct category of sequences over [n]:
    a strictly increasing injection ``inj`` with src = tgt o inj."""

    src: OrderMap
    tgt: OrderMap
    inj: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "inj", tuple(int(v) for v in self.inj))
        if len(self.inj) != self.src.dom + 1:
            raise ValueError("injection arity %d does not match source domain" % len(self.inj))
        if any(b <= a for a, b in zip(self.inj, self.inj[1:])):
            raise ValueError("injection %r is not strictly increasing" % (self.inj,))
        if self.inj[0] < 0 or self.inj[-1] > self.tgt.dom:
            raise ValueError("injection %r leaves the target domain" % (self.inj,))
        if self.src.cod != self.tgt.cod:
            raise ValueError("source and target live over different codomains")
        if tuple(self.tgt.values[i] for i in self.inj) != self.src.values:
            raise ValueError("injection %r does not carry %s into %s" % (self.inj, self.src, self.tgt))

    def compose(self, other: "DMorphism") -> "DMorphism":
        """self o other (other's target must be self's source)."""
        if other.tgt != self.src:
            raise ValueError("morphisms are not composable")
        return DMorphism(other.src, self.tgt, tuple(self.inj[i] for i in other.inj))

    @classmethod
    def identity(cls, alpha: OrderMap) -> "DMorphism":
        return cls(alpha, alpha, tuple(range(alpha.dom + 1)))


def is_weak_equivalence_d(m: DMorphism) -> bool:
    """True when the injection carries the last index of the source to the
    last index of the target."""
    return m.inj[-1] == m.tgt.dom


def enumerate_order_maps(n: int, m: int):
    """All order maps [m] -> [n] in lexicographic order."""
    return [OrderMap(v, n) for v in combinations_with_replacement(range(n + 1), m + 1)]


def enumerate_d_objects(n: int, max_len: int = 3):
    """All order maps [m] -> [n] with m <= max_len, shortest first, then
    lexicographically."""
    out = []
    for m in range(max_len + 1):
        out.extend(enumerate_order_maps(n, m))
    return out


def enumerate_inclusions(alpha: OrderMap):
    """All morphisms of the direct category with target ``alpha``: one for
    each nonempty subset of its domain, sorted by size then lexicographically."""
    out = []
    for subset in nonempty_subsets(alpha.dom):
        src = OrderMap(tuple(alpha.values[i] for i in subset), alpha.cod)
        out.append(DMorphism(src, alpha, subset))
    return out


def nonempty_subsets(m: int):
    """Nonempty subsets of {0..m} as increasing tuples, by size then lex."""
    out = []
    for size in range(1, m + 2):
        out.extend(combinations(range(m + 1), size))
    return out


class FormalChain:
    """A finitely supported integer combination of hashable basis keys.

    Keys are index tuples for cell chains, value tuples for path chains, and
    (left, right) pairs of those for tensor words; zero coefficients are
    dropped eagerly.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping = ()):
        self.coeffs: Dict = {}
        for k, v in dict(coeffs).items():
            if v:
                self.coeffs[k] = int(v)

    @classmethod
    def basis(cls, key) -> "FormalChain":
        return cls({key: 1})

    def __add__(self, other: "FormalChain") -> "FormalChain":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return FormalChain(out)

    def __sub__(self, other: "FormalChain") -> "FormalChain":
        return self + other.scale(-1)

    def scale(self, c: int) -> "FormalChain":
        return FormalChain({k: c * v for k, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other):
        return isinstance(other, FormalChain) and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            return "FormalChain(0)"
        return "FormalChain(%s)" % ", ".join("%+d*%r" % (v, k) for k, v in self.items())


def _as_chain(x) -> FormalChain:
    if isinstance(x, FormalChain):
        return x
    return FormalChain.basis(tuple(x))


def path_diff(chain) -> FormalChain:
    """Differential of the path coalgebra: alternating sum of inner faces."""
    chain = _as_chain(chain)
    out: Dict = {}
    for key, c in chain.coeffs.items():
        if len(key) < 2:
            raise ValueError("path keys have length >= 2, got %r" % (key,))
        k = len(key) - 1
        for j in range(1, k):
            face = key[:j] + key[j + 1 :]
            sign = -1 if j % 2 else 1
            out[face] = out.get(face, 0) + sign * c
    return FormalChain(out)


def path_comult(chain) -> FormalChain:
    """Comultiplication of the path coalgebra, as (suffix, prefix) words."""
    chain = _as_chain(chain)
    out: Dict = {}
    for key, c in chain.coeffs.items():
        if len(key) < 2:
            raise ValueError("path keys have length >= 2, got %r" % (key,))
        k = len(key) - 1
        for j in range(1, k):
            sign = -1 if (j * (k - j)) % 2 else 1
            word = (key[j:], key[: j + 1])
            out[word] = out.get(word, 0) + sign * c
    return FormalChain(out)


def cell_diff(alpha: OrderMap, chain) -> FormalChain:
    """Differential of the cell complex of alpha: drop each index except the
    0-th, with alternating signs starting at -1."""
    chain = _as_chain(chain)
    out: Dict = {}
    for key, c in chain.coeffs.items():
        _check_cell_key(alpha, key)
        k = len(key) - 1
        for j in range(1, k + 1):
            face = key[:j] + key[j + 1 :]
            sign = -1 if j % 2 else 1
            out[face] = out.get(face, 0) + sign * c
    return FormalChain(out)


def cell_comult(alpha: OrderMap, chain) -> FormalChain:
    """Coaction of the path coalgebra on the cell complex: words
    (cell suffix, alpha o prefix)."""
    chain = _as_chain(chain)
    out: Dict = {}
    for key, c in chain.coeffs.items():
        _check_cell_key(alpha, key)
        k = len(key) - 1
        for j in range(1, k + 1):
            sign = -1 if (j * (k - j)) % 2 else 1
            word = (key[j:], tuple(alpha.values[i] for i in key[: j + 1]))
            out[word] = out.get(word, 0) + sign * c
    return FormalChain(out)


def _check_cell_key(alpha: OrderMap, key):
    if not key:
        raise ValueError("cell keys are nonempty subsets")
    if any(b <= a for a, b in zip(key, key[1:])):
        raise ValueError("cell key %r is not strictly increasing" % (key,))
    if key[0] < 0 or key[-1] > alpha.dom:
        raise ValueError("cell key %r leaves the domain of %s" % (key, alpha))
