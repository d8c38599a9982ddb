"""The per-semigroup structure record against brute-force loops.

Every structure query reads ``S.structure``.  The functions below compute
the same data the way the package did before the record existed, one
element or pair at a time straight from the definitions, and serve as the
oracle: on every associative table of order <= 3 and on every corpus
fixture, each query must give the same answer.
"""

import gc
import weakref
from itertools import combinations, product

import pytest

from edense import closures, construction, core, cosets, verify

from conftest import fx


def ref_idempotents(S):
    return frozenset(e for e in S.elements if S.mul(e, e) == e)


def ref_classify(S):
    E = ref_idempotents(S)
    band = all(S.mul(e, f) in E for e in E for f in E)
    semilattice = band and all(S.mul(e, f) == S.mul(f, e) for e in E for f in E)
    return core.IdempotentStructure(band, semilattice)


def ref_weak_inverses(S, s):
    return frozenset(t for t in S.elements if S.prod(t, s, t) == t)


def ref_left_pre_inverses(S, s):
    E = ref_idempotents(S)
    return frozenset(t for t in S.elements if S.mul(t, s) in E)


def ref_inverse_sets(S, s):
    W = ref_weak_inverses(S, s)
    V = frozenset(t for t in W if S.prod(s, t, s) == s)
    return core.InverseSets(W, V, ref_left_pre_inverses(S, s))


def ref_mitsch_leq(S, a, b):
    if a == b:
        return True
    for x in S.elements:
        if S.mul(x, b) != a or S.mul(x, a) != a:
            continue
        for y in S.elements:
            if S.mul(b, y) == a and S.mul(a, y) == a:
                return True
    return False


def ref_h_leq(S, a, b):
    if a == b:
        return True
    E = ref_idempotents(S)
    return any(S.mul(b, e) == a for e in E) and any(S.mul(f, b) == a for f in E)


def ref_green_l_class(S, a):
    def left_ideal(x):
        return frozenset(S.mul(t, x) for t in S.elements) | {x}

    target = left_ideal(a)
    return frozenset(b for b in S.elements if left_ideal(b) == target)


def ref_is_group(S):
    via_l = all(len(ref_left_pre_inverses(S, s)) == 1 for s in S.elements)
    full = set(S.elements)
    direct = (
        S.identity is not None
        and all(set(row) == full for row in S.table)
        and all({row[j] for row in S.table} == full for j in S.elements)
    )
    assert via_l == direct
    return via_l


def ref_regular_elements(S):
    return frozenset(
        x for x in S.elements if any(S.prod(x, y, x) == x for y in S.elements)
    )


def ref_is_inverse_semigroup(S):
    return all(len(ref_inverse_sets(S, s).V) == 1 for s in S.elements)


def ref_is_e_dense(S):
    E = ref_idempotents(S)
    for s in S.elements:
        if not any(S.mul(t, s) in E for t in S.elements):
            return False
        if not any(S.mul(s, t) in E for t in S.elements):
            return False
    return True


def small_tables():
    return [S for n in (1, 2, 3) for S in construction.enumerate_semigroups(n)]


SMALL = small_tables()
CASES = [(f"n{S.n}-{i}", S) for i, S in enumerate(SMALL)] + [
    (name, fx(name)) for name in construction.FIXTURE_NAMES
]


def test_small_table_counts():
    # OEIS A023814: labelled semigroups of order 1, 2, 3
    assert [sum(S.n == n for S in SMALL) for n in (1, 2, 3)] == [1, 8, 113]


def check_queries(S):
    assert core.idempotents(S) == ref_idempotents(S)
    assert core.classify_idempotents(S) == ref_classify(S)
    for s in S.elements:
        assert core.weak_inverses(S, s) == ref_weak_inverses(S, s), s
        assert core.inverse_sets(S, s) == ref_inverse_sets(S, s), s
        assert core.left_pre_inverses(S, s) == ref_left_pre_inverses(S, s), s
        assert core.green_l_class(S, s) == ref_green_l_class(S, s), s
    for a, b in product(S.elements, repeat=2):
        assert core.mitsch_leq(S, a, b) is ref_mitsch_leq(S, a, b), (a, b)
        assert core.h_leq(S, a, b) is ref_h_leq(S, a, b), (a, b)
    assert core.is_group(S) is ref_is_group(S)
    assert core.regular_elements(S) == ref_regular_elements(S)
    assert core.is_inverse_semigroup(S) is ref_is_inverse_semigroup(S)
    assert core.is_e_dense(S) is ref_is_e_dense(S)


def check_closures(S):
    # the closures over the reference orders, on every subset
    above_m = [[b for b in S.elements if ref_mitsch_leq(S, a, b)] for a in S.elements]
    above_h = [[b for b in S.elements if ref_h_leq(S, a, b)] for a in S.elements]
    for r in range(S.n + 1):
        for A in combinations(S.elements, r):
            assert closures.omega_m(S, A) == frozenset(b for a in A for b in above_m[a]), A
            assert closures.omega_h(S, A) == frozenset(b for a in A for b in above_h[a]), A


def test_small_tables_match_brute_force():
    for S in SMALL:
        check_queries(S)
        check_closures(S)


@pytest.mark.parametrize("name", construction.FIXTURE_NAMES)
def test_fixtures_match_brute_force(name):
    # a fresh copy, so that no earlier test has filled its record
    S = core.build_semigroup(fx(name).table, labels=fx(name).labels, name=name)
    check_queries(S)
    check_closures(S)


def test_closures_accept_any_iterable():
    S = fx("CHAIN3")
    assert closures.omega_m(S, iter([1])) == closures.omega_m(S, {1}) == {1, 2}
    assert closures.omega_h(S, (x for x in [0])) == frozenset(S.elements)


def test_record_is_built_once_and_kept_on_the_semigroup():
    S = core.build_semigroup(fx("Z3E").table)
    assert S.structure is S.structure
    twin = core.build_semigroup(fx("Z3E").table)
    assert twin == S and twin.structure is not S.structure
    H = frozenset({0, 3})
    assert cosets.coset_space(S, H) is cosets.coset_space(S, {3, 0})
    assert cosets.coset_space(twin, H) is not cosets.coset_space(S, H)


def test_semigroup_is_freed_after_the_suites():
    S = core.build_semigroup(fx("Z3E").table, name="Z3E-copy")
    assert all(f.passed for f in verify.suites_for_table(S))
    ref = weakref.ref(S)
    del S
    gc.collect()
    assert ref() is None
