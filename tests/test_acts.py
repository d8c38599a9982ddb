"""Partial-act validation and the restricted-multiplication and
idempotent-conjugation actions, with orbit/stabilizer/grading structure."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from edense import acts, closures, core
from edense.errors import (
    CarrierTooLarge,
    CompositionViolation,
    NotCancellative,
    NotIdempotent,
    NotReflexive,
    NotSemilattice,
    ParseError,
    PreconditionFailed,
)

from conftest import SEMILATTICE_FIXTURES, fx


def eg_act(name="Z3E"):
    S = fx(name)
    carrier = sorted(e for e in S.elements if e >= S.n // 2)
    rows, labels = acts.left_mult_total(S, carrier)
    return S, acts.wagner_preston(S, rows, labels)


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
    assert acts.act_properties(act).effective is False


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
    assert acts.orbit(wp, 3) == {2, 3}
    assert acts.orbit(wp, 3) == core.green_l_class(S, 3)
    assert acts.stabilizer(wp, 3) == {3}
    assert acts.stabilizer(wp, 3) == closures.omega_h(S, {3})


def test_non_effective_orbit_is_singleton():
    S = fx("N2")
    wp = acts.wagner_preston(S)
    assert wp.point_domain(1) == frozenset()
    assert acts.orbit(wp, 1) == {1}


def test_act_properties_band_extension():
    S, wp = eg_act()
    props = acts.act_properties(wp)
    assert props.effective and props.transitive
    assert props.indecomposable and props.locally_free


def test_act_properties_chain3_not_transitive():
    wp = acts.wagner_preston(fx("CHAIN3"))
    props = acts.act_properties(wp)
    assert not props.transitive
    assert all(acts.orbit(wp, x) == {x} for x in wp.points)


def test_grading_band_extension():
    S, wp = eg_act()
    g = acts.grading(wp)
    assert isinstance(g, acts.Grading)
    assert g.p == (3, 3, 3)


def test_grading_obstruction_non_effective():
    wp = acts.wagner_preston(fx("N2"))
    g = acts.grading(wp)
    assert isinstance(g, acts.GradingObstruction)
    assert g.reason == "non-effective point"


def test_munn_grading_is_identity(corpus):
    for name in SEMILATTICE_FIXTURES:
        S = fx(name)
        munn = acts.munn_act(S)
        g = acts.grading(munn)
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
    orbit_act = acts.subact(wp, sorted(acts.orbit(wp, 3)))
    space = cosets.coset_space(S, closures.omega_h(S, {3}))
    assert acts.find_act_isomorphism(orbit_act, space.act) is not None


def test_act_isomorphism_carrier_gate():
    S = fx("Z2")
    rows = [[x for x in range(13)], [x for x in range(13)]]
    big = acts.validate_act(S, rows)
    with pytest.raises(CarrierTooLarge):
        acts.find_act_isomorphism(big, big)


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
    assert len(acts.orbits(double)) == 2


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
