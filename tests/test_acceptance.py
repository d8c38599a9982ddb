"""Acceptance criteria, one printed PASS/FAIL line per criterion.

Criteria 2 and 10 check the modular-exponentiation cipher against an
arithmetic oracle computed here from `pow`, `math.gcd` and divisor loops:
with d the multiplicative order of x mod p, x^n = x exactly when
n = 1 mod d, so Stab(x) = {n : n = 1 mod d}, K(n, x) = {t : tn = 1 mod d}
and the orbits are the classes of units of one order.  The textbook
idealisation of the cipher (a free action, singleton key spaces, U_7 as
three copies of U_6) is false, and the checks pin it by its
counterexamples: 1 and p-1 are fixed by every unit exponent mod p-1
(6^5 = 6 mod 7).  Everything is checked at exact tolerance.
"""

import math
from itertools import product

import pytest

from edense import acts, closures, construction, core, cosets, crypto, verify

from conftest import SEMILATTICE_FIXTURES, fx


def _stamp(num, desc):
    def deco(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL  {desc}")
                raise
            print(f"[criterion {num}] PASS  {desc}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


MODEXP_PRIMES = (5, 7, 11, 13, 23)


def _unit_exponents(p):
    """The units mod p-1, in increasing order."""
    return [n for n in range(1, p - 1) if math.gcd(n, p - 1) == 1]


def _phi(m):
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def _order(x, p):
    """The multiplicative order of the unit x mod p."""
    d = 1
    while pow(x, d, p) != 1:
        d += 1
    return d


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@_stamp(1, "band-extension key spaces all have exactly two keys")
def test_criterion_01_key_space_sizes():
    sys_ = crypto.locally_free_system(fx("Z3E"))
    cases = 0
    for s in sys_.semigroup.elements:
        for x in sys_.act.points:
            K = crypto.decrypt_key_space(sys_, x, s)
            assert len(K) == 2, f"|K({s},{x})| = {len(K)}"
            cases += 1
    assert cases == 18


@_stamp(2, "modexp Stab(x) = {n : n = 1 mod ord x}; free iff phi(ord x) = phi(p-1)")
def test_criterion_02a_modexp_free():
    for p in MODEXP_PRIMES:
        ms = crypto.modexp_system(p)
        units = _unit_exponents(p)
        assert list(ms.exponents) == units, f"p={p}"
        assert list(ms.units) == list(range(1, p)), f"p={p}"
        sys_ = ms.system
        free_units = []
        for x in sys_.act.points:
            u = ms.unit_value(x)
            d = _order(u, p)
            expected = {n for n in units if n % d == 1 % d}
            assert len(expected) == _phi(p - 1) // _phi(d), f"p={p}, x={u}"
            stab = {ms.exponents[i] for i in sys_.act.stabilizers[x]}
            assert stab == expected, f"p={p}, x={u}: Stab = {sorted(stab)}"
            assert (len(stab) == 1) == (_phi(d) == _phi(p - 1)), f"p={p}, x={u}"
            if _phi(d) == _phi(p - 1):
                free_units.append(u)
        assert ms.non_free_units == tuple(
            u for u in range(1, p) if u not in free_units
        ), f"p={p}"
        assert ms.is_free is False, f"p={p}"
        for u in (1, p - 1):
            assert all(pow(u, n, p) == u for n in units), f"p={p}, x={u}"
            stab = sys_.act.stabilizers[ms.point_of(u)]
            assert {ms.exponents[i] for i in stab} == set(units), (
                f"p={p}: {u} is fixed by every exponent, so the action is "
                "not free there"
            )
        if p == 7:
            assert free_units == [2, 3, 4, 5]


@_stamp(2, "modexp K(n, x) = {t : tn = 1 mod ord x}, holding n^-1 mod p-1")
def test_criterion_02b_modexp_singleton_keys():
    for p in MODEXP_PRIMES:
        ms = crypto.modexp_system(p)
        units = _unit_exponents(p)
        assert list(ms.exponents) == units, f"p={p}"
        sys_ = ms.system
        for n in units:
            inverse = pow(n, -1, p - 1)
            for x in sys_.act.points:
                u = ms.unit_value(x)
                d = _order(u, p)
                expected = {t for t in units if (t * n) % d == 1 % d}
                K = {ms.exponents[i] for i in crypto.decrypt_key_space(sys_, x, ms.element_of(n))}
                assert K == expected, (
                    f"p={p}, n={n}, x={u}: K = {sorted(K)}, "
                    f"expected {sorted(expected)}"
                )
                assert len(K) == _phi(p - 1) // _phi(d), f"p={p}, n={n}, x={u}"
                assert inverse in K, f"p={p}, n={n}, x={u}"
                assert (len(K) == 1) == (_phi(d) == _phi(p - 1)), (
                    f"p={p}, n={n}, x={u}"
                )


@_stamp(2, "modexp protocols recover the plaintext exhaustively")
def test_criterion_02c_modexp_roundtrips():
    cases = 0
    for p in (5, 7, 11, 13):
        ms = crypto.modexp_system(p)
        sys_ = ms.system
        keys = range(len(ms.exponents))
        for x in sys_.act.points:
            for s, t in product(keys, repeat=2):
                assert crypto.massey_omura(sys_, x, s, t).ok
                cases += 1
            for s, c, d in product(keys, repeat=3):
                assert crypto.elgamal(sys_, x, s, c, d).ok
                cases += 1
    assert cases == sum(
        len(X) * (len(S) ** 2 + len(S) ** 3)
        for S, X in (((1, 3), range(4)), ((1, 5), range(6)),
                     ((1, 3, 7, 9), range(10)), ((1, 5, 7, 11), range(12)))
    )


@_stamp(3, "element-level lemma sweep over all tables of order <= 3 plus corpus")
def test_criterion_03_small_order_lemma_sweep():
    tables = 0
    for n in (1, 2, 3):
        for S in construction.enumerate_semigroups(n):
            tables += 1
            for f in verify.suite_core(S) + verify.suite_closures(S):
                assert f.passed, f.line()
    assert tables == 122
    for name in construction.FIXTURE_NAMES:
        for f in verify.suite_core(fx(name)) + verify.suite_closures(fx(name)):
            assert f.passed, f.line()


@_stamp(4, "weak-inverse laws (all six parts) on the semilattice fixtures")
def test_criterion_04_weak_inverse_lemma():
    for name in ("CHAIN3", "B2", "Z3E", "Z6E"):
        witness = verify._weak_inverse_lemma_violations(fx(name))
        assert witness is None, f"{name}: {witness}"


@_stamp(5, "restricted multiplication act: axioms and stabilizer formulas")
def test_criterion_05_wagner_preston_structure():
    for name in SEMILATTICE_FIXTURES:
        S = fx(name)
        wp = acts.wagner_preston(S)  # validation is part of construction
        for e in core.idempotents(S):
            assert wp.stabilizers[e] == closures.omega_h(S, {e}), f"{name}, e={e}"
            assert wp.orbit_sets[e] == core.green_l_class(S, e), f"{name}, e={e}"
        for s in S.elements:
            for w in core.weak_inverses(S, s):
                assert wp.stabilizers[w] == closures.omega_h(
                    S, {S.mul(w, s)}
                ), f"{name}, s={s}, s'={w}"
                assert wp.orbit_sets[w] == core.green_l_class(S, w)


@_stamp(6, "coset machinery on the designated bases")
def test_criterion_06_coset_suite():
    targets = [("Z3E", [frozenset({0, 3})])]
    targets.append(("Z6", closures.closed_e_dense_subsemigroups(fx("Z6"))))
    targets.append(("B2", closures.closed_e_dense_subsemigroups(fx("B2"))))
    for name, bases in targets:
        S = fx(name)
        for H in bases:
            space = cosets.coset_space(S, H)
            assert verify._pi_properties_violations(S, H, space) is None, f"{name}, H={sorted(H)}"
            # also checks that H is a coset, that the cosets partition D_H
            # and that S_{H} = H
            assert verify._coset_class_violations(S, H, space) is None, f"{name}, H={sorted(H)}"
            E = core.idempotents(S)
            assert [c.members for c in space.cosets if c.members & E] == [H]
            props = space.act.properties
            assert props.transitive, f"{name}, H={sorted(H)}"
        wp = acts.wagner_preston(S)
        for x in wp.points:
            if not wp.point_domains[x]:
                continue
            piece = acts.subact(wp, sorted(wp.orbit_sets[x]))
            space = cosets.coset_space(S, wp.stabilizers[x])
            assert acts.find_act_isomorphism(piece, space.act) is not None, (
                f"{name}: orbit of {x} is not the coset act of its stabilizer"
            )


@_stamp(7, "quotient of the band extension is the 3-cycle group")
def test_criterion_07_quotient_and_representation():
    S = fx("Z3E")
    H = frozenset({0, 3})
    Q = cosets.quotient_group(S, H)
    assert core.is_group(Q)
    assert core.find_semigroup_isomorphism(Q, fx("Z3")) is not None
    rep = cosets.rho_representation(S, H)
    perms = rep.permutations
    assert set(perms) == set(range(6))
    for s, t in product(perms, repeat=2):
        composed = tuple(perms[s][perms[t][i]] for i in range(3))
        assert perms[S.mul(s, t)] == composed
    for s, t in product(perms, repeat=2):
        assert (perms[s] == perms[t]) == cosets.pi_h_related(S, H, s, t)


@_stamp(8, "pair-monoid constructions and the displayed correspondence")
def test_criterion_08_constructions():
    for name in ("Z2", "Z3", "Z6"):
        G = fx(name)
        C, action = construction.derived_category(G)
        cu = construction.c_u_monoid(C, action, 0)
        assert core.find_semigroup_isomorphism(cu.semigroup, G) is not None, name
    S, cu, mapping = construction.adjoined_band_to_cu_map(fx("Z3"))
    assert S.table == fx("Z3E").table
    assert sorted(mapping) == list(range(6))
    built = [
        construction.c_u_monoid(*construction.derived_category(fx(n)), 0)
        for n in ("Z2", "Z3", "Z6")
    ]
    for n, k in (("Z2", 2), ("Z3", 2), ("Z2", 3)):
        G = fx(n)
        C, action = construction.adjoin_band_category(G, k)
        built.append(construction.c_u_monoid(C, action, G.identity))
    for cu in built:
        M = cu.semigroup
        trivial_part = {
            i for i, (p, g) in enumerate(cu.pairs) if g == cu.pairs[M.identity][1]
        }
        assert core.idempotents(M) == trivial_part
        assert core.is_e_unitary(M) and core.is_e_dense(M)


@_stamp(9, "decrypt-key-space theorem across the cancellative corpus")
def test_criterion_09_key_space_theorem():
    systems = verify._system_corpus()
    assert verify._key_space_violations(systems) is None
    # the inverse-semigroup form (part 4) applies to some of the systems
    assert any(core.is_inverse_semigroup(sys_.semigroup) for _, sys_ in systems)
    # group specialisation on the 6-cycle group
    S = fx("Z6")
    rows, _ = acts.left_mult_total(S)
    gsys = crypto.build_cryptosystem(S, rows)
    for s in S.elements:
        for x in range(6):
            K = crypto.decrypt_key_space(gsys, x, s)
            assert len(K) == len(gsys.act.stabilizers[x]) == 1


@_stamp(10, "band-extension system is one copy of the base orbit")
def test_criterion_10a_band_extension_classification():
    S = fx("Z3E")
    sys_ = crypto.locally_free_system(S)
    rep = crypto.classify_locally_free_cryptosystem(sys_.act)
    assert rep.minimum_idempotent == 3
    assert rep.locally_free and rep.is_disjoint_union_of_base
    assert rep.copies == 1


@_stamp(10, "modexp orbits are the units of one order; U_7 is not 3 copies of U_6")
def test_criterion_10b_modexp_7_three_copies():
    for p in MODEXP_PRIMES:
        ms = crypto.modexp_system(p)
        units = _unit_exponents(p)
        rep = crypto.classify_locally_free_cryptosystem(ms.system.act)
        by_order = {d: set() for d in _divisors(p - 1)}
        for u in range(1, p):
            by_order[_order(u, p)].add(u)
        assert all(len(c) == _phi(d) for d, c in by_order.items()), f"p={p}"
        found = {}
        for pts, matches_base in rep.orbit_results:
            values = frozenset(ms.unit_value(x) for x in pts)
            found[values] = matches_base
        assert set(found) == {frozenset(c) for c in by_order.values()}, (
            f"p={p}: orbits {sorted(map(sorted, found))}"
        )
        assert len(rep.orbit_results) == len(_divisors(p - 1)), f"p={p}"
        for d, c in by_order.items():
            assert found[frozenset(c)] == (_phi(d) == _phi(p - 1)), f"p={p}, d={d}"
        assert _phi(1) != _phi(p - 1), f"p={p}: 1 is a fixed point"
        assert rep.locally_free is False, f"p={p}"
        assert rep.is_disjoint_union_of_base is False, f"p={p}"
        assert rep.copies is None, f"p={p}"
        if p == 7:
            assert set(found) == {
                frozenset({1}), frozenset({6}), frozenset({2, 4}), frozenset({3, 5})
            }
            assert sorted(
                sorted(o) for o, matches_base in found.items() if matches_base
            ) == [[2, 4], [3, 5]], (
                "only the orbits of size phi(6) = 2 are copies of U_6; "
                "1 and 6 are fixed points"
            )
