from itertools import combinations

import pytest

from dgframes.simplicial import (
    DMorphism,
    FormalChain,
    OrderMap,
    cell_comult,
    cell_diff,
    enumerate_d_objects,
    enumerate_inclusions,
    enumerate_order_maps,
    is_weak_equivalence_d,
    nonempty_subsets,
    path_comult,
    path_diff,
)


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
    assert not a.is_injective()
    assert OrderMap((0, 2), 3).is_injective()
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


def test_dmorphism_validation_and_compose():
    tgt = OrderMap((0, 1, 3), 3)
    src = OrderMap((0, 3), 3)
    m = DMorphism(src, tgt, (0, 2))
    assert m.src == src and m.tgt == tgt
    with pytest.raises(ValueError):
        DMorphism(src, tgt, (0, 1))  # carries tgt to (0,1), not (0,3)
    with pytest.raises(ValueError):
        DMorphism(src, tgt, (2, 0))  # not increasing
    ident = DMorphism.identity(tgt)
    assert m.compose(DMorphism.identity(src)) == m
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
    assert is_weak_equivalence_d(DMorphism.identity(tgt))


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


# -- the path coalgebra -------------------------------------------------------


def increasing_keys(n, max_len):
    out = []
    for size in range(2, max_len + 1):
        out.extend(combinations(range(n + 1), size))
    return out


def test_path_diff_examples():
    assert path_diff((0, 1, 2)) == FormalChain({(0, 2): -1})
    assert path_diff((0, 1)).is_zero()
    assert path_diff((0, 1, 2, 3)) == FormalChain({(0, 2, 3): -1, (0, 1, 3): 1})
    with pytest.raises(ValueError):
        path_diff((0,))


def test_path_diff_squares_to_zero():
    for key in increasing_keys(4, 5):
        assert path_diff(path_diff(key)).is_zero() or len(key) <= 3
        if len(key) > 3:
            assert path_diff(path_diff(key)).is_zero()
    # also on non-injective keys, which arise after pushing forward
    assert path_diff(path_diff((0, 0, 1, 1, 2))).is_zero()


def test_path_comult_example():
    assert path_comult((0, 1, 2)) == FormalChain({((1, 2), (0, 1)): -1})
    assert path_comult((0, 1)).is_zero()


def test_path_comult_coassociative():
    """Expanding the left (suffix) slot of each word agrees with expanding the
    right (prefix) slot, with no auxiliary sign."""
    for key in increasing_keys(4, 5):
        ch = path_comult(key)
        left, right = {}, {}
        for (s, p), c in ch.coeffs.items():
            if len(s) >= 3:
                for (ss, sp), c2 in path_comult(s).coeffs.items():
                    t = (ss, sp, p)
                    left[t] = left.get(t, 0) + c * c2
            if len(p) >= 3:
                for (ps, pp), c2 in path_comult(p).coeffs.items():
                    t = (s, ps, pp)
                    right[t] = right.get(t, 0) + c * c2
        assert {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}


def _word_leibniz_rhs(ch, diff_left, diff_right):
    """(d (x) id) + Koszul-signed (id (x) d) on a chain of (left, right) words;
    the sign on the right slot is (-1)^(len(left)+1)."""
    out = {}
    for (s, p), c in ch.coeffs.items():
        for face, c2 in diff_left(s).coeffs.items():
            w = (face, p)
            out[w] = out.get(w, 0) + c * c2
        sgn = -1 if (len(s) + 1) % 2 else 1
        for face, c2 in diff_right(p).coeffs.items():
            w = (s, face)
            out[w] = out.get(w, 0) + sgn * c * c2
    return {k: v for k, v in out.items() if v}


def _pd(key):
    if len(key) < 3:
        return FormalChain({})
    return path_diff(key)


def test_path_comult_co_leibniz():
    for key in increasing_keys(4, 5):
        lhs = path_comult(path_diff(key)) if len(key) >= 3 else FormalChain({})
        if len(key) < 3:
            continue
        rhs = _word_leibniz_rhs(path_comult(key), _pd, _pd)
        assert lhs.coeffs == rhs


# -- cell complexes and the coaction ------------------------------------------


def test_cell_diff_examples():
    alpha = OrderMap((0, 1, 2), 2)
    assert cell_diff(alpha, (0, 1)) == FormalChain({(0,): -1})
    assert cell_diff(alpha, (0, 1, 2)) == FormalChain({(0, 2): -1, (0, 1): 1})
    assert cell_diff(alpha, (1,)).is_zero()
    with pytest.raises(ValueError):
        cell_diff(alpha, (1, 0))
    with pytest.raises(ValueError):
        cell_diff(alpha, (0, 5))
    with pytest.raises(ValueError):
        cell_diff(alpha, ())


def test_cell_diff_squares_to_zero():
    alpha = OrderMap((0, 0, 1, 3, 3), 3)
    for key in nonempty_subsets(alpha.dom):
        assert cell_diff(alpha, cell_diff(alpha, key)).is_zero()


def test_cell_comult_examples():
    alpha = OrderMap((2, 3), 3)
    assert cell_comult(alpha, (0,)).is_zero()
    assert cell_comult(alpha, (0, 1)) == FormalChain({((1,), (2, 3)): 1})
    beta = OrderMap((0, 2, 2), 2)
    got = cell_comult(beta, (0, 1, 2))
    assert got == FormalChain({((1, 2), (0, 2)): -1, ((2,), (0, 2, 2)): 1})


def test_cell_coaction_coassociative():
    alpha = OrderMap((0, 2, 3, 5), 5)
    for cell in nonempty_subsets(alpha.dom):
        ch = cell_comult(alpha, cell)
        left, right = {}, {}
        for (s, p), c in ch.coeffs.items():
            for (cs, cp), c2 in cell_comult(alpha, s).coeffs.items():
                t = (cs, cp, p)
                left[t] = left.get(t, 0) + c * c2
            if len(p) >= 3:
                for (ps, pp), c2 in path_comult(p).coeffs.items():
                    t = (s, ps, pp)
                    right[t] = right.get(t, 0) + c * c2
        assert {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}


def test_cell_coaction_co_leibniz():
    alpha = OrderMap((0, 2, 3, 5), 5)

    def cd(key):
        return cell_diff(alpha, key)

    for cell in nonempty_subsets(alpha.dom):
        lhs = cell_comult(alpha, cell_diff(alpha, cell))
        rhs = _word_leibniz_rhs(cell_comult(alpha, cell), cd, _pd)
        assert lhs.coeffs == rhs


def test_reindex_intertwines_differentials_and_coactions():
    """Exhaustively over sigma : [m] -> [k] and alpha : [a] -> [m] with
    m, k, a <= 2: cells of alpha and of sigma o alpha share keys, the
    differentials agree on the nose, and the coactions agree after pushing
    path keys forward along sigma."""
    for k in range(3):
        for m in range(3):
            for sigma in enumerate_order_maps(k, m):
                for a in range(3):
                    for alpha in enumerate_order_maps(m, a):
                        comp = sigma.compose(alpha)
                        for cell in nonempty_subsets(a):
                            assert cell_diff(alpha, cell) == cell_diff(comp, cell)
                            pushed = {}
                            for (s, p), c in cell_comult(alpha, cell).coeffs.items():
                                w = (s, tuple(sigma.values[v] for v in p))
                                pushed[w] = pushed.get(w, 0) + c
                            assert cell_comult(comp, cell).coeffs == {
                                k2: v for k2, v in pushed.items() if v
                            }


def test_formal_chain_algebra():
    x = FormalChain({(0, 1): 2, (1, 2): -1})
    y = FormalChain.basis((0, 1))
    assert (x - y - y).coeffs == {(1, 2): -1}
    assert x.scale(0).is_zero()
    assert x.items() == [((0, 1), 2), ((1, 2), -1)]
    assert FormalChain({(0, 1): 0}).is_zero()
    assert x != y and x == FormalChain({(1, 2): -1, (0, 1): 2})
