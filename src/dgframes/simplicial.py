"""Order maps and the direct index category of sequences.

Conventions.  An order map [m] -> [n] is a nondecreasing tuple of m+1 values
in 0..n, serialized as "v0,v1,...".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Tuple

from .complexes import json_int, json_int_key


@dataclass(frozen=True)
class OrderMap:
    """A nondecreasing map [m] -> [n], stored by its value tuple and codomain."""

    values: Tuple[int, ...]
    cod: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(json_int(v, "order map value") for v in self.values))
        json_int(self.cod, "order map codomain")
        if not self.values:
            raise ValueError("an order map needs a nonempty domain")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values %r are not nondecreasing" % (self.values,))
        if self.values[0] < 0 or self.values[-1] > self.cod:
            raise ValueError("values %r leave the codomain [%d]" % (self.values, self.cod))

    @classmethod
    def _trusted(cls, values: Tuple[int, ...], cod: int) -> "OrderMap":
        """Wrap a tuple of ints already known to be nondecreasing in [cod]."""
        o = cls.__new__(cls)
        o.__dict__.update(values=values, cod=cod)
        return o

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
        return OrderMap._trusted(tuple(self.values[v] for v in other.values), self.cod)

    def key(self) -> str:
        """The values joined by commas, formed once per map."""
        key = self.__dict__.get("_key")
        if key is None:
            key = self.__dict__["_key"] = ",".join(map(str, self.values))
        return key

    def __str__(self):
        return self.key()

    @classmethod
    def from_key(cls, text: str, cod: int) -> "OrderMap":
        return cls(tuple(json_int_key(p, "sequence entry") for p in text.split(",")), cod)


@dataclass(frozen=True)
class DMorphism:
    """A morphism of the direct category of sequences over [n]:
    a strictly increasing injection ``inj`` with src = tgt o inj."""

    src: OrderMap
    tgt: OrderMap
    inj: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "inj", tuple(json_int(v, "injection value") for v in self.inj))
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

    @classmethod
    def _trusted(cls, src: OrderMap, tgt: OrderMap, inj: Tuple[int, ...]) -> "DMorphism":
        """Wrap parts already known to meet every check of __post_init__."""
        m = cls.__new__(cls)
        m.__dict__.update(src=src, tgt=tgt, inj=inj)
        return m

    def compose(self, other: "DMorphism") -> "DMorphism":
        """self o other (other's target must be self's source)."""
        if other.tgt != self.src:
            raise ValueError("morphisms are not composable")
        return DMorphism._trusted(other.src, self.tgt, tuple(self.inj[i] for i in other.inj))


def enumerate_order_maps(n: int, m: int):
    """All order maps [m] -> [n] in lexicographic order."""
    return [OrderMap._trusted(v, n) for v in combinations_with_replacement(range(n + 1), m + 1)]


def enumerate_d_objects(n: int, max_len: int):
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
        src = OrderMap._trusted(tuple(alpha.values[i] for i in subset), alpha.cod)
        out.append(DMorphism._trusted(src, alpha, subset))
    return out


def nonempty_subsets(m: int):
    """Nonempty subsets of {0..m} as increasing tuples, by size then lex."""
    out = []
    for size in range(1, m + 2):
        out.extend(combinations(range(m + 1), size))
    return out
