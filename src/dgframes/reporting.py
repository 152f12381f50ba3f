"""Uniform pass/fail reporting for the check suites and the CLI."""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from json.encoder import encode_basestring_ascii
from typing import List, NamedTuple, Optional

from .exact_linalg import IntMatrix


class CheckItem(NamedTuple):
    """One verdict of a check suite."""

    check: str
    location: str
    status: str  # "pass" | "fail"
    witness: Optional[str] = None


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

    def summary(self) -> dict:
        fails = len(self.failures())
        return {"pass": len(self.items) - fails, "fail": fails}

    def __repr__(self):
        s = self.summary()
        return "Report(%d pass, %d fail)" % (s["pass"], s["fail"])


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for the JSON trees the
    CLI emits: dicts with str keys, lists, tuples, str, int, bool and None,
    :class:`IntMatrix`, written as the list of its rows, and
    :class:`CheckItem`, written as the dict of its fields, keys sorted, with
    no ``witness`` key when the witness is None.  Anything else, floats and
    non-str keys included, raises TypeError, as does a CheckItem field that
    is no str (a witness may be None).

    With ``indent`` set, ``json`` on CPython 3.11 falls back to its
    pure-Python encoder, which yields one chunk per list item; here strings
    still go through the C escaper, and every chunk goes to one list that is
    joined once, so no text is copied once per nesting level.  A row of ints
    is written as slices of the cached text of an all-zero row of its length
    and indent, with only its nonzeros in between, so a mostly-zero matrix
    row costs Python work per nonzero, not per entry.  A matrix row's
    nonzeros come from :attr:`IntMatrix.nonzeros`, and its entries need
    no type test: an IntMatrix holds only ints.  A report item is written
    from one template of its fixed text per indent, with its str fields in
    between, and builds no dict; in a list, the list's own loop writes it,
    with none of the other type tests ahead of it."""
    out: List[str] = []
    _encode(obj, "\n", out)
    return "".join(out)


_INT_ONLY = {int}


def _encode(obj, newline: str, out: List[str]) -> None:
    """Append the chunks of ``obj``, written at the indent of ``newline``, to ``out``."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        for k in sorted(obj):  # sorted() or the escaper raises TypeError on a key that is not a str
            out += (head, encode_basestring_ascii(k), ": ")
            _encode(obj[k], inner, out)
            head = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, IntMatrix):
        if not obj.rows:
            out.append("[]")
            return
        inner = newline + "  "
        head = "[" + inner
        for nz in obj.nonzeros:
            out.append(head)
            _int_list(obj.cols, nz, inner, out)
            head = "," + inner
        out.append(newline + "]")
    elif type(obj) is CheckItem:
        _check_item(obj, _item_chunks(newline), out)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
        elif type(obj[0]) is int and set(map(type, obj)) == _INT_ONLY:  # type(): bools take the general path
            n = len(obj)
            _int_list(n, zip(compress(range(n), obj), compress(obj, obj)), newline, out)
        else:
            inner = newline + "  "
            head = "[" + inner
            chunks = _item_chunks(inner)
            for v in obj:
                out.append(head)
                if type(v) is CheckItem:  # a report item skips the type tests of _encode
                    _check_item(v, chunks, out)
                else:
                    _encode(v, inner, out)
                head = "," + inner
            out.append(newline + "]")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _int_list(n: int, nonzeros, newline: str, out: List[str]) -> None:
    """Append the JSON list of a row of n ints, given its (column, value)
    nonzeros in column order: slices of the zero text of its width, with
    each nonzero in its place."""
    if not n:
        out.append("[]")
        return
    inner = newline + "  "
    sep = "," + inner
    zeros = _zero_items(n, sep)
    step = len(sep) + 1  # every "0" is one character
    out += ("[", inner)
    at = 0
    for k, v in nonzeros:
        start = k * step
        out += (zeros[at:start], int.__repr__(v))
        at = start + 1
    out += (zeros[at:], newline, "]")


def _check_item(item: CheckItem, chunks: tuple, out: List[str]) -> None:
    """Append the chunks of a report item, given the :func:`_item_chunks`
    of its indent."""
    head, location, status, witness, end = chunks
    out += (head, encode_basestring_ascii(item.check), location, encode_basestring_ascii(item.location))
    out += (status, encode_basestring_ascii(item.status))
    if item.witness is not None:
        out += (witness, encode_basestring_ascii(item.witness))
    out.append(end)


@lru_cache(maxsize=16)  # bounded: one entry per nesting depth seen
def _item_chunks(newline: str) -> tuple:
    """The fixed text of a :class:`CheckItem` written at the indent of
    ``newline``: the text before each of its four values, and its end."""
    inner = newline + "  "
    sep = "," + inner
    return ("{" + inner + '"check": ', sep + '"location": ', sep + '"status": ', sep + '"witness": ', newline + "}")


@lru_cache(maxsize=256)  # bounded: one entry per row width and nesting depth seen
def _zero_items(n: int, sep: str) -> str:
    return sep.join("0" * n)
