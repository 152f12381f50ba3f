"""The Maurer-Cartan validator and ``hom_differential``, which now sum
terms row by row, against the dense defect they replaced, kept in
``oracles.py``.

Every item of ``validate_maurer_cartan`` must carry the oracle's status and
witness, byte for byte, on valid simplices, strict and perturbed (the
generator validates only the perturbed ones), and on corrupted copies of them:
a stored cochain plus a non-cycle elementary map or a random graded map, or a
few stored entries bumped at random.  The random graded maps give dense
defects, whose first nonzero in row-major order is not the first in
column-major order.  Some of the failures must first show above the lowest
degree of their source, so that the witness degree is not just the first
one tried.
"""

import random

from dgframes.complexes import ChainComplex, GradedMap, hom_differential, random_complex, random_graded_map
from dgframes.dg_nerve import NerveSimplex, random_simplex, validate_maurer_cartan
from dgframes.exact_linalg import IntMatrix

import oracles
from test_nerve import _noncycle_elementary


def _items(s):
    report = validate_maurer_cartan(s)
    assert all(item.check == "maurer-cartan" for item in report.items)
    return [(item.location, item.status == "pass", item.witness) for item in report.items]


def _bumped(rng, s, count):
    """A copy of s with ``count`` stored entries, on random keys, changed by
    a nonzero amount."""
    maps = dict(s.maps)
    keys = [k for k in s.cochain_keys() if maps[k]._mats]
    for key in rng.sample(keys, min(count, len(keys))):
        f = maps[key]
        d = rng.choice(sorted(f._mats))
        m = f._mats[d]
        i, j = rng.randrange(m.rows), rng.randrange(m.cols)
        rows = m.to_lists()
        rows[i][j] += rng.choice([-2, -1, 1, 2])
        maps[key] = GradedMap(f.source, f.target, f.degree, {**f._mats, d: IntMatrix(m.rows, m.cols, rows)})
    return NerveSimplex(list(s.objects), maps)


def _with_elementary(s, key):
    e = _noncycle_elementary(s, key)
    if e is None:
        return None
    maps = dict(s.maps)
    maps[key] = maps[key] + e
    return NerveSimplex(list(s.objects), maps)


def _plus_random(rng, s, key):
    maps = dict(s.maps)
    f = maps[key]
    maps[key] = f + random_graded_map(rng, f.source, f.target, f.degree)
    return NerveSimplex(list(s.objects), maps)


def test_validator_items_equal_the_dense_oracle():
    rng = random.Random(1200)
    failing = above_lowest = 0
    for trial in range(60):
        n = 1 + trial % 3
        s = random_simplex(rng, n, perturb=trial % 6 >= 3)
        cases = [s, _bumped(rng, s, 1), _bumped(rng, s, 3), _plus_random(rng, s, rng.choice(s.cochain_keys()))]
        for key in rng.sample(s.cochain_keys(), 2 if n > 1 else 1):
            bad = _with_elementary(s, key)
            if bad is not None:
                cases.append(bad)
        for case in cases:
            got, want = _items(case), oracles.maurer_cartan_items(case)
            assert got == want
            for location, ok, witness in want:
                if ok:
                    continue
                failing += 1
                seq = tuple(int(v) for v in location.split(","))
                degree = int(witness.split()[1])
                above_lowest += degree > case.objects[seq[0]].min_degree()
    assert failing >= 150
    assert above_lowest >= 50


def test_hom_differential_equals_the_dense_oracle():
    rng = random.Random(1201)
    empty = ChainComplex("0", {})
    zero_ends = 0
    for trial in range(120):
        x = random_complex(rng, name="X")
        y = random_complex(rng, name="Y")
        if trial % 10 == 0:
            x = empty
        elif trial % 10 == 1:
            y = empty
        for r in range(-1, 3):
            f = random_graded_map(rng, x, y, r, spread=2)
            assert hom_differential(f) == oracles.hom_differential(f)
            zero_ends += any(not y.rank(d + r) or not y.rank(d + r - 1) for d in x.support) or not x.support
    assert zero_ends >= 100
