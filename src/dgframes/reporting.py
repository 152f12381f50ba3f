"""Uniform pass/fail reporting for the check suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from json.encoder import encode_basestring_ascii
from typing import List, Optional


@dataclass(frozen=True)
class CheckItem:
    check: str
    location: str
    status: str  # "pass" | "fail"
    witness: Optional[str] = None

    def to_json(self) -> dict:
        obj = {"check": self.check, "location": self.location, "status": self.status}
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


class Report:
    """An ordered list of check items; ordering is construction order and is
    deterministic for deterministic inputs."""

    def __init__(self, items=()):
        self.items: List[CheckItem] = list(items)

    def add(self, check: str, location: str, ok: bool, witness: Optional[str] = None):
        self.items.append(CheckItem(check, location, "pass" if ok else "fail", None if ok else witness))

    def extend(self, other: "Report"):
        self.items.extend(other.items)

    @property
    def ok(self) -> bool:
        return all(i.status == "pass" for i in self.items)

    def failures(self) -> List[CheckItem]:
        return [i for i in self.items if i.status != "pass"]

    def to_json(self) -> list:
        return [i.to_json() for i in self.items]

    def summary(self) -> dict:
        fails = len(self.failures())
        return {"pass": len(self.items) - fails, "fail": fails}

    def __repr__(self):
        s = self.summary()
        return "Report(%d pass, %d fail)" % (s["pass"], s["fail"])


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for the JSON trees the
    CLI emits: dicts with str keys, lists, tuples, str, int, bool and None.
    Anything else, floats and non-str keys included, raises TypeError.

    With ``indent`` set, ``json`` on CPython 3.11 falls back to its
    pure-Python encoder, which yields one chunk per list item; here strings
    still go through the C escaper.  A list of ints is written from the
    cached text of an all-zero list of its length and indent, sliced around
    the nonzeros that ``compress`` finds, so a mostly-zero matrix row costs
    Python work per nonzero, not per entry."""
    return _encode(obj, "\n")


_INT_ONLY = {int}


def _encode(obj, newline: str) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # sorted() or the escaper raises TypeError on a key that is not a str
        items = [encode_basestring_ascii(k) + ": " + _encode(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = "," + inner
        if set(map(type, obj)) == _INT_ONLY:  # type(), not isinstance: bools take the general path
            body = _int_items(obj, sep)
        else:
            body = sep.join([_encode(v, inner) for v in obj])
        return "[" + inner + body + newline + "]"
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _int_items(row, sep: str) -> str:
    """``sep.join(map(int.__repr__, row))`` for a nonempty sequence of ints:
    the zero text of its width, with each nonzero spliced in at its place."""
    n = len(row)
    zeros = _zero_items(n, sep)
    step = len(sep) + 1  # every "0" is one character
    parts = []
    at = 0
    for k in compress(range(n), row):
        start = k * step
        parts.append(zeros[at:start])
        parts.append(int.__repr__(row[k]))
        at = start + 1
    parts.append(zeros[at:])
    return "".join(parts)


@lru_cache(maxsize=256)  # bounded: one entry per row width and nesting depth seen
def _zero_items(n: int, sep: str) -> str:
    return sep.join("0" * n)
