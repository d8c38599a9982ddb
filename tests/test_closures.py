"""Closure operators, unitary subsets, and the closed-subsemigroup scan."""

from itertools import combinations

import pytest

from edense import closures, construction, core
from edense.errors import NotSemilattice, OrderTooLarge

from conftest import cyclic_table, fx


def test_omega_m_examples():
    assert closures.omega_m(fx("CHAIN3"), {0}) == {0, 1, 2}
    assert closures.omega_m(fx("Z6"), set()) == frozenset()
    assert closures.omega_m(fx("Z6"), {2}) == {2}


def test_omega_h_examples():
    Z3E = fx("Z3E")
    assert closures.omega_h(Z3E, core.idempotents(Z3E)) == {0, 3}
    assert closures.omega_h(fx("B2"), {3}) == {3}
    assert closures.omega_h(fx("B2"), {0}) == frozenset(range(5))


def test_closures_look_members_up_by_equality():
    # the up-sets are keyed by id: a member equal to an id finds its up-set,
    # and a member equal to none finds nothing
    S = fx("CHAIN3")
    for omega in (closures.omega_m, closures.omega_h):
        assert omega(S, {0.0}) == omega(S, {0}) == {0, 1, 2}
        assert omega(S, {True}) == omega(S, {1}) == {1, 2}
        assert omega(S, {"0", -1, 3, 0.5}) == frozenset()


def test_omega_sandwich(corpus):
    for S in corpus.values():
        for s in S.elements:
            A = frozenset({s})
            ah, am = closures.omega_h(S, A), closures.omega_m(S, A)
            assert A <= ah <= am


def test_is_unitary():
    Z3E = fx("Z3E")
    assert closures.is_unitary(Z3E, {0, 3})
    assert not closures.is_unitary(fx("B2"), core.idempotents(fx("B2")))
    assert closures.is_unitary(Z3E, frozenset(Z3E.elements))


def test_is_e_dense_subsemigroup():
    Z3E = fx("Z3E")
    assert closures.is_e_dense_subsemigroup(Z3E, core.idempotents(Z3E))
    assert closures.is_e_dense_subsemigroup(Z3E, {0, 1, 2})
    assert not closures.is_e_dense_subsemigroup(fx("N2"), {1})


def test_closed_subsemigroups_z3e():
    got = [set(H) for H in closures.closed_e_dense_subsemigroups(fx("Z3E"))]
    assert got == [{0}, {0, 3}, {0, 1, 2}, {0, 1, 2, 3, 4, 5}]


def test_closed_subsemigroups_z6_are_subgroups():
    got = [set(H) for H in closures.closed_e_dense_subsemigroups(fx("Z6"))]
    assert got == [{0}, {0, 3}, {0, 2, 4}, set(range(6))]


def test_closed_subsemigroups_chain3():
    got = [set(H) for H in closures.closed_e_dense_subsemigroups(fx("CHAIN3"))]
    assert got == [{2}, {1, 2}, {0, 1, 2}]


def test_closed_subsemigroups_b2():
    got = [set(H) for H in closures.closed_e_dense_subsemigroups(fx("B2"))]
    assert got == [{3}, {4}, {0, 1, 2, 3, 4}]


def test_closed_subsemigroups_requires_semilattice():
    with pytest.raises(NotSemilattice):
        closures.closed_e_dense_subsemigroups(fx("LZ2"))


def test_subset_scan_gate():
    n = 17
    chain = core.build_semigroup([[min(i, j) for j in range(n)] for i in range(n)])
    with pytest.raises(OrderTooLarge):
        closures.closed_e_dense_subsemigroups(chain)
    with pytest.raises(OrderTooLarge):
        closures.e_dense_subsemigroups(chain)
    assert len(closures.e_dense_subsemigroups(core.build_semigroup(cyclic_table(16)))) == 5


def power_set_e_dense(S):
    """Every nonempty subset closed under the product in which each member
    has a weak inverse (t with tht = t), by size and then sorted members."""
    t, out = S.table, []
    for r in range(1, S.n + 1):
        for H in map(frozenset, combinations(S.elements, r)):
            closed = all(t[a][b] in H for a in H for b in H)
            if closed and all(any(t[t[w][h]][w] == w for w in H) for h in H):
                out.append(H)
    return tuple(out)


def test_e_dense_subsemigroups_match_the_power_set():
    small = [S for n in (1, 2, 3) for S in construction.enumerate_semigroups(n)]
    bands = [
        construction.adjoined_band_semigroup(core.build_semigroup(cyclic_table(k)))
        for k in range(1, 9)
    ]
    tables = small + construction.corpus() + bands
    assert len(tables) == 122 + 10 + 8
    for S in tables:
        assert closures.e_dense_subsemigroups(S) == power_set_e_dense(S), S.table


def power_witness(S, h):
    """h^q for q at least the index of h and q = -1 modulo its period."""
    seen, y, k = {}, h, 1
    while y not in seen:
        seen[y] = k
        y, k = S.table[y][h], k + 1
    index, period = seen[y], k - seen[y]
    q = next(q for q in range(index, index + period) if (q + 1) % period == 0)
    t = h
    for _ in range(q - 1):
        t = S.table[t][h]
    return t


def test_every_element_has_a_power_as_weak_inverse():
    # why every subsemigroup of a finite semigroup is E-dense
    small = [S for n in (1, 2, 3) for S in construction.enumerate_semigroups(n)]
    bands = [
        construction.adjoined_band_semigroup(core.build_semigroup(cyclic_table(k)))
        for k in range(1, 9)
    ]
    tables = small + construction.corpus() + bands
    assert len(tables) == 122 + 10 + 8
    for S in tables:
        for h in S.elements:
            assert power_witness(S, h) in core.weak_inverses(S, h), (S.table, h)


def test_subset_text_format():
    assert closures.parse_subset("0 3") == {0, 3}
    assert closures.format_subset({3, 0}) == "0 3"
