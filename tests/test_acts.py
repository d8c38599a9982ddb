"""Partial-act validation and the restricted-multiplication and
idempotent-conjugation actions, with orbit/stabilizer/grading structure."""

import gc
import os
import random
import subprocess
import sys
import weakref
from itertools import combinations_with_replacement, permutations
from pathlib import Path

import pytest

from edense import acts, closures, construction, core
from edense.errors import (
    CompositionViolation,
    NotCancellative,
    NotIdempotent,
    NotReflexive,
    NotSemilattice,
    ParseError,
    PreconditionFailed,
)

from conftest import SEMILATTICE_FIXTURES, cyclic_table, fx


def eg_act(name="Z3E"):
    S = fx(name)
    carrier = sorted(e for e in S.elements if e >= S.n // 2)
    return S, acts.wagner_preston(S, carrier)


def test_wagner_preston_chain3_validates():
    wp = acts.wagner_preston(fx("CHAIN3"))
    # restriction acts below each element only
    assert wp.element_domain(1) == {0, 1}
    assert wp.element_domain(2) == {0, 1, 2}


def test_total_n2_self_action_not_cancellative():
    S = fx("N2")
    rows, _ = acts.left_mult_total(S)
    with pytest.raises(NotCancellative):
        acts.validate_act(S, rows)


def test_empty_action_is_valid():
    S = fx("Z3E")
    act = acts.validate_act(S, [[None] * 2 for _ in S.elements])
    assert act.properties.effective is False


def test_validate_rejects_composition_violation():
    S = fx("Z2")
    # 1*1 = 0 must act wherever 1 acts twice; an undefined 0-row breaks it
    rows = [[None, None], [1, 0]]
    with pytest.raises(CompositionViolation):
        acts.validate_act(S, rows)


def test_validate_rejects_reflexivity_violation():
    S = fx("N2")
    # a acts on one point, but its only weak inverse 0 acts nowhere
    rows = [[None, None], [1, 0]]
    with pytest.raises((NotReflexive, CompositionViolation)):
        acts.validate_act(S, rows)


def test_wagner_preston_group_is_total():
    S = fx("Z6")
    wp = acts.wagner_preston(S)
    assert all(wp.element_domain(s) == frozenset(range(6)) for s in S.elements)


def test_wagner_preston_left_ideal_total():
    S, wp = eg_act()
    assert all(wp.element_domain(s) == frozenset(range(3)) for s in S.elements)


def test_wagner_preston_b2_domains():
    S = fx("B2")
    wp = acts.wagner_preston(S)
    # weak inverses of a are 0 and a', so the zero always qualifies:
    # D_a = {x : x = s'ax for some s' in W(a)} = {0, a', a'a}
    assert wp.element_domain(1) == {0, 2, 4}
    assert core.weak_inverses(S, 1) == {0, 2}


def test_wagner_preston_requires_semilattice():
    with pytest.raises(NotSemilattice):
        acts.wagner_preston(fx("LZ2"))


# --- the act kept on the semigroup ---------------------------------------------


def test_wagner_preston_act_is_built_once_per_semigroup_and_carrier(monkeypatch):
    S = core.build_semigroup(fx("Z3E").table)
    validated = []
    real = acts.validate_act
    monkeypatch.setattr(acts, "validate_act", lambda *args: validated.append(args) or real(*args))
    whole = acts.wagner_preston(S)
    assert acts.wagner_preston(S) is whole and acts.wagner_preston(S, None) is whole
    ideal = acts.wagner_preston(S, [3, 4, 5])
    assert ideal is not whole and ideal.carrier == 3
    # the carrier is a set: its order and repeats do not matter
    assert acts.wagner_preston(S, (5, 4, 3, 3)) is ideal
    assert acts.wagner_preston(S, frozenset(S.elements)) is not whole
    assert len(validated) == 3
    # an equal table built separately keeps its own act
    twin = core.build_semigroup(S.table)
    assert acts.wagner_preston(twin) == whole and acts.wagner_preston(twin) is not whole
    assert len(validated) == 4


def test_a_refused_semigroup_or_carrier_stores_nothing():
    S = core.build_semigroup(fx("LZ2").table)
    for _ in range(2):
        with pytest.raises(NotSemilattice):
            acts.wagner_preston(S)
    T = core.build_semigroup(fx("Z3E").table)
    # {0} is no left ideal: 1*0 = 1
    for _ in range(2):
        with pytest.raises(PreconditionFailed, match="left_ideal"):
            acts.wagner_preston(T, [0])
    assert acts.wagner_preston(T, [3, 4, 5]).carrier == 3


def test_wagner_preston_act_is_freed_with_its_semigroup():
    S = core.build_semigroup(fx("Z3E").table)
    act = weakref.ref(acts.wagner_preston(S))
    ideal = weakref.ref(acts.wagner_preston(S, [3, 4, 5]))
    assert act() is acts.wagner_preston(S)
    # the act points back at S, so the pair is freed by the cycle collector
    del S
    gc.collect()
    assert act() is None and ideal() is None


def test_munn_act_band_extension():
    S = fx("Z3E")
    munn = acts.munn_act(S)  # points: idempotents [0, 3]
    assert munn.point_labels == ("0", "e.0")
    assert munn.act(1, 1) == 1  # conjugating e by the group fixes it
    assert munn.element_domain(1) == {0, 1}
    assert munn.element_domain(4) == {1}


def test_munn_act_chain3():
    munn = acts.munn_act(fx("CHAIN3"))
    assert munn.element_domain(1) == {0, 1}
    assert all(munn.act(1, x) == x for x in munn.element_domain(1))


def test_idempotents_fix_their_ideals(corpus):
    for name in SEMILATTICE_FIXTURES:
        S = fx(name)
        munn = acts.munn_act(S)
        E = sorted(core.idempotents(S))
        for i, e in enumerate(E):
            for x in munn.element_domain(e):
                assert munn.act(e, x) == x


def test_orbit_and_stabilizer_on_b2():
    S = fx("B2")
    wp = acts.wagner_preston(S)
    assert wp.orbit_sets[3] == {2, 3}
    assert wp.orbit_sets[3] == core.green_l_class(S, 3)
    assert wp.stabilizers[3] == {3}
    assert wp.stabilizers[3] == closures.omega_h(S, {3})


def test_non_effective_orbit_is_singleton():
    S = fx("N2")
    wp = acts.wagner_preston(S)
    assert wp.point_domains[1] == frozenset()
    assert wp.orbit_sets[1] == {1}


def test_act_properties_band_extension():
    S, wp = eg_act()
    props = wp.properties
    assert props.effective and props.transitive
    assert props.indecomposable and props.locally_free


def test_act_properties_chain3_not_transitive():
    wp = acts.wagner_preston(fx("CHAIN3"))
    props = wp.properties
    assert not props.transitive
    assert all(wp.orbit_sets[x] == {x} for x in wp.points)


def test_grading_band_extension():
    S, wp = eg_act()
    g = wp.grading
    assert isinstance(g, acts.Grading)
    assert g.p == (3, 3, 3)


def test_grading_obstruction_non_effective():
    wp = acts.wagner_preston(fx("N2"))
    g = wp.grading
    assert isinstance(g, acts.GradingObstruction)
    assert g.reason == "non-effective point"


def test_munn_grading_is_identity(corpus):
    for name in SEMILATTICE_FIXTURES:
        S = fx(name)
        munn = acts.munn_act(S)
        g = munn.grading
        assert isinstance(g, acts.Grading)
        assert g.p == tuple(sorted(core.idempotents(S)))


def test_act_isomorphism_identity_and_sizes():
    _, wp = eg_act()
    iso = acts.find_act_isomorphism(wp, wp)
    assert iso is not None
    other = acts.munn_act(fx("Z3E"))
    assert acts.find_act_isomorphism(wp, other) is None  # 3 vs 2 points


def test_orbit_act_matches_coset_act():
    from edense import cosets

    S = fx("Z3E")
    wp = acts.wagner_preston(S)
    orbit_act = acts.subact(wp, sorted(wp.orbit_sets[3]))
    space = cosets.coset_space(S, closures.omega_h(S, {3}))
    assert acts.find_act_isomorphism(orbit_act, space.act) is not None


def relabelled_act(act, perm):
    """The isomorphic act in which point x is called perm[x]."""
    rows = [[None] * act.carrier for _ in act.table]
    for s, row in enumerate(act.table):
        for x, v in enumerate(row):
            rows[s][perm[x]] = None if v is None else perm[v]
    return acts.validate_act(act.semigroup, rows)


def assert_isomorphism(act1, act2, iso):
    assert sorted(iso) == list(act1.points)
    assert sorted(iso.values()) == list(act2.points)
    assert acts.is_s_map(act1, act2, iso)
    assert acts.is_s_map(act2, act1, {y: x for x, y in iso.items()})


def brute_force_isomorphic(act1, act2):
    """Whether some bijection of the points carries act1's table onto
    act2's, trying every one."""
    if act1.carrier != act2.carrier:
        return False
    return any(
        all(
            row2[perm[x]] == (None if v is None else perm[v])
            for row1, row2 in zip(act1.table, act2.table)
            for x, v in enumerate(row1)
        )
        for perm in permutations(act1.points)
    )


ORACLE_CARRIER = 6


def oracle_acts(S, rng):
    """The Wagner-Preston and Munn acts of S and their orbits, the
    disjoint unions of two of them, and a shuffled relabelling of each:
    those of at most ``ORACLE_CARRIER`` points, one per table."""
    wp, munn = acts.wagner_preston(S), acts.munn_act(S)
    pieces = [wp, munn] + [
        acts.subact(a, sorted(O)) for a in (wp, munn) for O in a.orbit_partition
    ]
    pieces += [
        acts.disjoint_union(a, b)
        for a, b in combinations_with_replacement(pieces, 2)
        if a.carrier + b.carrier <= ORACLE_CARRIER
    ]
    pieces += [relabelled_act(a, rng.sample(list(a.points), a.carrier)) for a in pieces]
    return list({a.table: a for a in pieces if a.carrier <= ORACLE_CARRIER}.values())


def oracle_tables():
    small = [S for n in (1, 2, 3) for S in construction.enumerate_semigroups(n)]
    return [
        S for S in small if core.classify_idempotents(S).is_semilattice
    ] + [fx(name) for name in SEMILATTICE_FIXTURES]


def test_act_isomorphism_agrees_with_every_bijection():
    rng = random.Random(0)
    found = missed = 0
    for S in oracle_tables():
        pool = oracle_acts(S, rng)
        for act1 in pool:
            for act2 in pool:
                if act1.carrier != act2.carrier:
                    assert acts.find_act_isomorphism(act1, act2) is None
                    continue
                iso = acts.find_act_isomorphism(act1, act2)
                assert (iso is not None) == brute_force_isomorphic(act1, act2), (S, act1, act2)
                if iso is None:
                    missed += 1
                else:
                    assert_isomorphism(act1, act2, iso)
                    found += 1
    # both answers occur, so the oracle is not vacuous
    assert found and missed


def z16e_wagner_preston():
    Z16 = core.build_semigroup(cyclic_table(16))
    return acts.wagner_preston(construction.adjoined_band_semigroup(Z16))


def test_act_isomorphism_has_no_carrier_bound():
    wp = z16e_wagner_preston()
    assert wp.carrier == 32
    pieces = [acts.subact(wp, sorted(O)) for O in wp.orbit_partition]
    assert [p.carrier for p in pieces] == [16, 16]
    shuffled = relabelled_act(wp, random.Random(1).sample(range(32), 32))
    for act1, act2 in [(p, p) for p in pieces] + [(wp, shuffled)]:
        iso = acts.find_act_isomorphism(act1, act2)
        assert iso is not None
        assert_isomorphism(act1, act2, iso)


def test_order_ideal_examples():
    assert acts.order_ideal(fx("CHAIN3"), 1) == {0, 1}
    assert acts.order_ideal(fx("Z3E"), 3) == {3}
    Z3E = fx("Z3E")
    assert acts.order_ideal(Z3E, 0) == core.idempotents(Z3E)
    with pytest.raises(NotIdempotent):
        acts.order_ideal(fx("Z3E"), 1)


def test_act_text_roundtrip():
    S, wp = eg_act()
    text = acts.format_act(wp)
    again = acts.parse_act(text, S)
    assert again.table == wp.table


def test_act_text_roundtrip_on_no_points():
    # an act on no points is written as its header and blank rows
    S, wp = eg_act()
    empty = acts.subact(wp, [])
    text = acts.format_act(empty)
    assert text == f"{S.n} 0\n" + "\n" * S.n
    again = acts.parse_act(text, S)
    assert again.carrier == 0 and again.table == empty.table == ((),) * S.n
    assert acts.parse_act(f"{S.n} 0\n", S).table == empty.table
    with pytest.raises(ParseError, match="expected 0 entries, got 1"):
        acts.parse_act(f"{S.n} 0\n" + "0\n" * S.n, S)


def test_act_text_errors():
    S = fx("Z2")
    with pytest.raises(ParseError):
        acts.parse_act("2 2\n0 1\n", S)  # missing row
    with pytest.raises(ParseError):
        acts.parse_act("3 1\n0\n0\n0\n", S)  # wrong order


def test_disjoint_union_doubles_orbits():
    _, wp = eg_act()
    double = acts.disjoint_union(wp, wp)
    assert double.carrier == 6
    assert len(double.orbit_partition) == 2


def test_subact_rejects_a_subset_the_act_leaves():
    _, wp = eg_act()
    with pytest.raises(PreconditionFailed, match="1\\*0 leaves the subset"):
        acts.subact(wp, [0])


def one_point_acts():
    return acts.validate_act(fx("Z2"), [[0], [0]]), acts.validate_act(fx("Z3"), [[0], [0], [0]])


def test_disjoint_union_rejects_acts_over_different_semigroups():
    with pytest.raises(PreconditionFailed, match="different semigroups"):
        acts.disjoint_union(*one_point_acts())


def test_act_isomorphism_rejects_acts_over_different_semigroups():
    with pytest.raises(PreconditionFailed, match="different semigroups"):
        acts.find_act_isomorphism(*one_point_acts())


UNDEFINED_ENTRY = """
from edense import acts, construction
from edense.errors import PreconditionFailed
wp = acts.wagner_preston(construction.fixture("B2"))
try:
    wp.act(1, 1)
except PreconditionFailed as exc:
    print(exc)
"""


def test_act_on_an_undefined_entry_raises_with_and_without_optimize():
    # an assert would return None under python -O, which strips it
    wp = acts.wagner_preston(fx("B2"))
    assert not wp.defined(1, 1)
    with pytest.raises(PreconditionFailed, match=r"defined 1\*1 is undefined"):
        wp.act(1, 1)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-O", "-c", UNDEFINED_ENTRY],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "precondition failed: defined 1*1 is undefined\n"


def pairwise_transitive(act):
    """Whether some s sends x to y, asked for every pair of points."""
    return all(any(row[x] == y for row in act.table) for x in act.points for y in act.points)


def test_transitive_agrees_with_the_pairwise_scan():
    seen = set()
    for S in oracle_tables():
        wp, munn = acts.wagner_preston(S), acts.munn_act(S)
        orbit_acts = [acts.subact(a, sorted(O)) for a in (wp, munn) for O in a.orbit_partition]
        for act in [wp, munn, *orbit_acts]:
            expected = pairwise_transitive(act)
            assert act.properties.transitive is expected, (S.table, act.table)
            seen.add(expected)
    assert seen == {True, False}


def test_left_mult_total_rejects_ids_outside_the_table():
    S = fx("Z3E")
    for carrier, bad in (([0, 9], 9), ([-1], -1), ([6], 6)):
        with pytest.raises(PreconditionFailed, match=f"carrier {bad} is not an element id 0..5"):
            acts.left_mult_total(S, carrier)
        with pytest.raises(PreconditionFailed, match="carrier"):
            acts.wagner_preston(S, carrier)


def test_one_greedy_generator_scan_per_table(monkeypatch):
    calls = []
    real = core.greedy_generators
    monkeypatch.setattr(
        core, "greedy_generators", lambda n, products: calls.append(n) or real(n, products)
    )
    S = core.build_semigroup(fx("Z3E").table)
    wp = acts.wagner_preston(S)
    acts.validate_act(S, wp.table)
    acts.munn_act(S)
    assert calls == [S.n]


def test_wagner_preston_runs_one_composition_scan(monkeypatch):
    S = core.build_semigroup(fx("Z6E").table)
    scanned = []
    real = core._composition_witness
    def counted(S, table, right=False):
        scanned.append(table)
        return real(S, table, right)

    monkeypatch.setattr(core, "_composition_witness", counted)
    wp = acts.wagner_preston(S)
    assert scanned == [wp.table]
