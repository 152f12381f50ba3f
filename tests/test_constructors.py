"""The two construction paths.

Public constructors validate what they are given and coerce nothing: a value
whose type is not ``int`` is refused, bools included, and so is a complex
name or label that is not a ``str``.  Values the library
builds from valid parts take the ``_trusted`` constructors, which check
nothing; the guard below rebuilds every such value through the checking
constructor and requires the same value back, stored in exactly the
canonical degrees.
"""

import functools
import random

import pytest

from dgframes.complexes import ChainComplex, GradedMap, shift
from dgframes.dg_nerve import NerveSimplex, act, random_simplex
from dgframes.exact_linalg import IntMatrix
from dgframes.frames import build_frame_diagram, last_vertex_data
from dgframes.simplicial import DMorphism, OrderMap, enumerate_d_objects, nonempty_subsets

from oracles import latching_data, structure_maps


def _point():
    return ChainComplex("x", {0: 1})


_NOT_INTS = {
    "matrix entry 1.5": lambda: IntMatrix(1, 1, [[1.5]]),
    "matrix entry '7'": lambda: IntMatrix(1, 1, [["7"]]),
    "matrix entry True": lambda: IntMatrix(1, 2, [[1, True]]),
    "matrix rows True": lambda: IntMatrix(True, 1, [[1]]),
    "matrix cols 1.0": lambda: IntMatrix(1, 1.0, [[1]]),
    "zero matrix rows 2.0": lambda: IntMatrix.zeros(2.0, 1),
    "zero matrix cols False": lambda: IntMatrix.zeros(1, False),
    "identity size True": lambda: IntMatrix.identity(True),
    "order map value 0.9": lambda: OrderMap((0.9, 1), 1),
    "order map value False": lambda: OrderMap((0, False), 1),
    "order map codomain 1.0": lambda: OrderMap((0, 1), 1.0),
    "rank 2.7": lambda: ChainComplex("x", {0: 2.7}),
    "degree 0.0": lambda: ChainComplex("x", {0.0: 1}),
    "rank True": lambda: ChainComplex("x", {0: True}),
    "differential degree 1.0": lambda: ChainComplex("x", {0: 1, 1: 1}, {1.0: IntMatrix(1, 1, [[0]])}),
    "map degree 0.0": lambda: GradedMap(_point(), _point(), 0.0),
    "map degree True": lambda: GradedMap(_point(), _point(), True),
    "matrix degree 0.0": lambda: GradedMap(_point(), _point(), 0, {0.0: IntMatrix(1, 1, [[1]])}),
    "zero map degree 1.0": lambda: GradedMap.zero(_point(), _point(), 1.0),
    "injection value 1.0": lambda: DMorphism(OrderMap((1,), 1), OrderMap((0, 1), 1), (1.0,)),
    "map key 0.0,1": lambda: NerveSimplex([_point(), _point()], {(0.0, 1): GradedMap.zero(_point(), _point(), 0)}),
    "map key False,1": lambda: NerveSimplex([_point(), _point()], {(False, 1): GradedMap.zero(_point(), _point(), 0)}),
    "eval 0,0.0": lambda: NerveSimplex([_point()], {}).eval((0, 0.0)),
    "eval '0','0'": lambda: NerveSimplex([_point()], {}).eval(("0", "0")),
}


@pytest.mark.parametrize("build", list(_NOT_INTS.values()), ids=list(_NOT_INTS))
def test_public_constructors_refuse_what_is_not_an_int(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


_NOT_STRS = {
    "complex name 5": lambda: ChainComplex(5, {0: 1}),
    "complex name None": lambda: ChainComplex(None, {}),
    "label 5": lambda: ChainComplex("x", {0: 1}, labels={0: [5]}),
    "label b'a'": lambda: ChainComplex("x", {0: 2}, labels={0: ("e0", b"a")}),
}


@pytest.mark.parametrize("build", list(_NOT_STRS.values()), ids=list(_NOT_STRS))
def test_complexes_refuse_names_and_labels_that_are_not_strs(build):
    with pytest.raises(ValueError, match="must be a JSON string"):
        build()


def test_public_constructors_keep_ints_as_given():
    assert IntMatrix(1, 2, [[7, -1]]).nonzeros == (((0, 7), (1, -1)),)
    assert OrderMap((0, 1), 1).values == (0, 1)
    assert ChainComplex("x", {0: 2}).rank(0) == 2
    x = _point()
    s = NerveSimplex([x, x], {(0, 1): GradedMap.identity(x)})
    assert s.eval((0, 1)) == GradedMap(x, x, 0, {0: IntMatrix(1, 1, [[1]])})
    assert s.eval((1, 1)) == GradedMap.identity(x)


def _assert_canonical_complex(x: ChainComplex):
    assert ChainComplex(x.name, x._ranks, x._diffs, x._labels) == x
    assert all(type(r) is int and r > 0 for r in x._ranks.values())
    assert set(x._diffs) == {d for d in x._ranks if d - 1 in x._ranks}
    assert set(x._labels) == set(x._ranks)


def _assert_canonical_map(f: GradedMap):
    assert GradedMap(f.source, f.target, f.degree, f._mats) == f
    assert set(f._mats) == {d for d in f.source.support if f.target.rank(d + f.degree)}
    for d, m in f._mats.items():
        assert (m.rows, m.cols) == (f.target.rank(d + f.degree), f.source.rank(d))


@functools.lru_cache(maxsize=None)
def _simplices():
    """Drawn when the first test reads them, not at collection."""
    rng = random.Random(13)
    return [random_simplex(rng, n, perturb=False) for n in range(4)] + [random_simplex(rng, 3)]


@pytest.mark.parametrize("i", range(5), ids=["n0", "n1", "n2", "n3", "n3-perturbed"])
def test_library_built_values_equal_their_checked_rebuild(i):
    s = _simplices()[i]
    diagram = build_frame_diagram(s, 2)
    for g in structure_maps(diagram).values():
        _assert_canonical_map(g)
    for alpha, o in diagram.objects.items():
        _assert_canonical_complex(o.complex)
        for S in nonempty_subsets(alpha.dom):
            _assert_canonical_map(o.summand_inclusion(S))
        for f in last_vertex_data(o):
            _assert_canonical_map(f)
        sub, incl, coker = latching_data(o)
        _assert_canonical_complex(sub)
        _assert_canonical_complex(coker)
        _assert_canonical_map(incl)
        r = o.restriction
        for i in range(len(r.objects)):
            _assert_canonical_map(r.eval((i, i)))
            _assert_canonical_map(r.eval((0, i, i)))
    for x in s.objects:
        for k in (-1, 0, 1, 2, 3):
            _assert_canonical_complex(shift(x, k))


def test_restrictions_share_the_units_and_zeros_of_their_simplex():
    """act(alpha, act(sigma, s)) and act(sigma o alpha, s) hold the very same
    maps, degenerate sequences included, so comparing them costs one
    identity test per key."""
    s = random_simplex(random.Random(3), 2)
    for sigma in (OrderMap((0, 0, 1, 2), 2), OrderMap((0, 2, 2), 2), OrderMap((1, 1), 2)):
        t = act(sigma, s)
        for alpha in enumerate_d_objects(sigma.dom, 3):
            got, want = act(alpha, t), act(sigma.compose(alpha), s)
            assert got.maps.keys() == want.maps.keys()
            assert all(got.maps[k] is want.maps[k] for k in want.maps), (sigma.key(), alpha.key())
            assert all(a is b for a, b in zip(got.objects, want.objects))
