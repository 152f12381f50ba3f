from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from dgframes.complexes import zero_complex
from dgframes.dg_nerve import NerveSimplex
from dgframes.simplicial import (
    DMorphism,
    OrderMap,
    enumerate_d_objects,
    enumerate_inclusions,
    enumerate_order_maps,
    nonempty_subsets,
    parse_seq_key,
    seq_key,
)

from oracles import is_weak_equivalence_d


def morphisms_between(src, tgt):
    """All morphisms src -> tgt of the direct category: strictly increasing
    injections carried by tgt onto the values of src."""
    out = []
    for inj in combinations(range(tgt.dom + 1), src.dom + 1):
        if tuple(tgt.values[i] for i in inj) == src.values:
            out.append(DMorphism(src, tgt, inj))
    return out


# -- order maps and the direct category --------------------------------------


def test_order_map_validation():
    a = OrderMap((0, 0, 2), 3)
    assert a.dom == 2 and a.cod == 3 and a(1) == 0
    with pytest.raises(ValueError):
        OrderMap((2, 1), 3)  # decreasing
    with pytest.raises(ValueError):
        OrderMap((0, 4), 3)  # leaves codomain
    with pytest.raises(ValueError):
        OrderMap((), 3)  # empty domain


def test_order_map_compose_and_key():
    a = OrderMap((0, 2, 2), 2)
    b = OrderMap((0, 1), 1)  # codomain [1] != domain [2] of a
    with pytest.raises(ValueError):
        a.compose(b)
    c = OrderMap((1, 2), 2)
    assert a.compose(c).values == (2, 2)
    assert a.key() == "0,2,2"
    assert OrderMap.from_key("0,2,2", 2) == a
    with pytest.raises(ValueError):
        OrderMap.from_key("0,x", 2)
    with pytest.raises(ValueError):
        OrderMap.from_key("3", 2).compose(a)  # from_key checks the codomain bound first
    with pytest.raises(ValueError):
        OrderMap.from_key("5", 2)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(), min_size=1).map(tuple))
def test_a_sequence_key_parses_back_to_its_ints(values):
    assert parse_seq_key(seq_key(values), "entry") == values


# (key text, the part named in the message)
NONCANONICAL_KEYS = [("00", "00"), ("+1", "+1"), ("-0", "-0"), (" 1", " 1"), ("1_0", "1_0"), ("", ""), ("1,,2", "")]


@pytest.mark.parametrize("text, part", NONCANONICAL_KEYS)
def test_noncanonical_sequence_keys_are_refused_as_order_maps_and_as_map_keys(text, part):
    with pytest.raises(ValueError) as got:
        OrderMap.from_key(text, 3)
    assert str(got.value) == "sequence entry must be a canonical decimal integer, got %r" % part
    obj = {"n": 2, "objects": [zero_complex().to_json()] * 3, "maps": {text: {"degree": 0, "matrices": {}}}}
    with pytest.raises(ValueError) as got:
        NerveSimplex.from_json(obj)
    assert str(got.value) == "a part of map key %r must be a canonical decimal integer, got %r" % (text, part)


def test_dmorphism_validation_and_compose():
    tgt = OrderMap((0, 1, 3), 3)
    src = OrderMap((0, 3), 3)
    m = DMorphism(src, tgt, (0, 2))
    assert m.src == src and m.tgt == tgt
    with pytest.raises(ValueError):
        DMorphism(src, tgt, (0, 1))  # carries tgt to (0,1), not (0,3)
    with pytest.raises(ValueError):
        DMorphism(src, tgt, (2, 0))  # not increasing
    ident = DMorphism(tgt, tgt, (0, 1, 2))
    assert m.compose(DMorphism(src, src, (0, 1))) == m
    assert ident.compose(m) == m
    inner = DMorphism(OrderMap((3,), 3), src, (1,))
    assert m.compose(inner).inj == (2,)


def test_enumeration_counts():
    assert len(enumerate_d_objects(1, 1)) == 5
    assert len(enumerate_d_objects(0, 1)) == 2
    assert len(enumerate_d_objects(1, 0)) == 2
    assert [a.values for a in enumerate_d_objects(1, 1)] == [
        (0,), (1,), (0, 0), (0, 1), (1, 1)
    ]
    assert [a.values for a in enumerate_order_maps(1, 1)] == [(0, 0), (0, 1), (1, 1)]
    # order maps [m] -> [n] are counted by a binomial coefficient
    from math import comb

    for n in range(4):
        for m in range(4):
            assert len(enumerate_order_maps(n, m)) == comb(n + m + 1, m + 1)


def test_enumerate_inclusions():
    alpha = OrderMap((0, 1, 1), 2)
    incls = enumerate_inclusions(alpha)
    assert len(incls) == 7  # nonempty subsets of a 3-element set
    assert all(m.tgt == alpha for m in incls)
    assert [m.inj for m in incls[:3]] == [(0,), (1,), (2,)]
    assert incls[-1].src == alpha and incls[-1].inj == (0, 1, 2)
    # sources are alpha restricted to the subset
    assert incls[3].inj == (0, 1) and incls[3].src.values == (0, 1)


def test_subset_helpers():
    assert nonempty_subsets(1) == [(0,), (1,), (0, 1)]


def test_is_weak_equivalence_d_examples():
    tgt = OrderMap((0, 1), 1)
    assert is_weak_equivalence_d(DMorphism(OrderMap((1,), 1), tgt, (1,)))
    assert not is_weak_equivalence_d(DMorphism(OrderMap((0,), 1), tgt, (0,)))
    assert is_weak_equivalence_d(DMorphism(tgt, tgt, (0, 1)))


def test_weak_equivalences_two_out_of_six():
    """Exhaustive 2-out-of-6 check over [n] for n <= 2 and domains of size
    <= 3: whenever gf and hg are weak equivalences, so are f, g, h and hgf."""
    for n in range(3):
        objs = enumerate_d_objects(n, 2)
        for a in objs:
            for b in objs:
                fs = morphisms_between(a, b)
                for c in objs:
                    gs = morphisms_between(b, c)
                    if not gs:
                        continue
                    for d in objs:
                        hs = morphisms_between(c, d)
                        for f in fs:
                            for g in gs:
                                gf = g.compose(f)
                                if not is_weak_equivalence_d(gf):
                                    continue
                                for h in hs:
                                    hg = h.compose(g)
                                    if not is_weak_equivalence_d(hg):
                                        continue
                                    assert is_weak_equivalence_d(f)
                                    assert is_weak_equivalence_d(g)
                                    assert is_weak_equivalence_d(h)
                                    assert is_weak_equivalence_d(h.compose(gf))
