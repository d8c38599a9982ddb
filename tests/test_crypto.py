"""Cryptosystems over cancellative acts: key spaces, protocol round
trips on the modular-exponentiation oracle, and the orbit classification."""

import dataclasses
import functools
import json
import math
import random
from itertools import product

import pytest

from edense import acts, closures, construction, core, crypto, verify
from edense.cli import main
from edense.errors import (
    CompositionViolation,
    NoDecryptKey,
    NotAssociativeAction,
    NotCancellative,
    NotPrime,
    NotReflexive,
    NotSemilattice,
    OrderTooLarge,
    OutOfRangeEntry,
    PreconditionFailed,
    WorkbenchError,
)

from conftest import SEMILATTICE_FIXTURES, closure, cyclic_table, fx, twist_outside


def band_system(name="Z3E"):
    return crypto.locally_free_system(fx(name))


def test_build_band_extension_system():
    sys_ = band_system()
    assert sys_.act.carrier == 3
    assert sys_.act.point_labels == ("e.0", "e.1", "e.2")


def test_build_rejects_non_cancellative():
    S = fx("N2")
    rows, _ = acts.left_mult_total(S)
    with pytest.raises(NotCancellative):
        crypto.build_cryptosystem(S, rows)


def test_modexp_system_shapes():
    ms7 = crypto.modexp_system(7)
    assert ms7.exponents == (1, 5)
    assert len(ms7.units) == 6
    assert crypto.modexp_system(11).exponents == (1, 3, 7, 9)
    assert crypto.modexp_system(3).exponents == (1,)


def test_modexp_rejects_bad_moduli():
    with pytest.raises(NotPrime):
        crypto.modexp_system(4)
    with pytest.raises(OrderTooLarge):
        crypto.modexp_system(263)


def test_decrypt_key_space_band_extension():
    sys_ = band_system()
    # point 0 carries the adjoined idempotent times the group identity
    assert crypto.decrypt_key_space(sys_, 0, 1) == {2, 5}
    sizes = {
        len(crypto.decrypt_key_space(sys_, x, s))
        for s in sys_.semigroup.elements
        for x in sys_.act.points
    }
    assert sizes == {2}


def test_decrypt_key_space_modexp_primitive_root():
    ms = crypto.modexp_system(7)
    sys_ = ms.system
    x = ms.point_of(3)  # 3 generates the units mod 7
    assert crypto.decrypt_key_space(sys_, x, ms.element_of(5)) == {ms.element_of(5)}


def test_decrypt_key_space_group_free_action():
    S = fx("Z6")
    rows, _ = acts.left_mult_total(S)
    sys_ = crypto.build_cryptosystem(S, rows)
    for x in sys_.act.points:
        assert crypto.decrypt_key_space(sys_, x, 2) == {4}


def test_modexp_element_of_names_only_unit_exponents():
    ms = crypto.modexp_system(7)
    assert [ms.element_of(n) for n in (1, 5)] == [0, 1]
    for n in (0, 2, 3, 6, 7):
        with pytest.raises(PreconditionFailed, match=f"exponent {n} is not a unit mod 6"):
            ms.element_of(n)


def test_modexp_not_free_at_plus_minus_one():
    # x = 1 and x = p-1 are fixed by every odd exponent, so the
    # exponentiation action has non-trivial stabilizers there
    for p in (5, 7, 11, 13, 23):
        ms = crypto.modexp_system(p)
        assert not ms.is_free
        assert 1 in ms.non_free_units and p - 1 in ms.non_free_units


def test_key_space_theorem_reports():
    # the theorem is checked by verify; the group form applies on Z6
    assert verify._key_space_violations([("Z3E", band_system())]) is None
    S = fx("Z6")
    rows, _ = acts.left_mult_total(S)
    gsys = crypto.build_cryptosystem(S, rows)
    assert core.is_group(S)
    assert verify._key_space_violations([("Z6", gsys)]) is None


def test_locally_free_key_space():
    sys_ = band_system()
    S = sys_.semigroup
    for s in S.elements:
        expected = closures.omega_h(S, core.weak_inverses(S, s))
        for x in sys_.act.points:
            assert crypto.locally_free_key_space(sys_, x, s) == expected
    assert crypto.locally_free_key_space(sys_, 0, 1) == {2, 5}


def test_locally_free_key_space_z6e_sizes():
    sys_ = crypto.locally_free_system(fx("Z6E"))
    for s in sys_.semigroup.elements:
        assert len(crypto.locally_free_key_space(sys_, 0, s)) == 2


def test_locally_free_key_space_preconditions():
    S = fx("B2")
    sys_ = crypto.locally_free_system(S)
    with pytest.raises(PreconditionFailed) as not_unitary:
        crypto.locally_free_key_space(sys_, 0, 0)
    assert not_unitary.value.name == "e_unitary"
    # U_6 is E-unitary, but every exponent fixes the unit 1
    with pytest.raises(PreconditionFailed) as not_free:
        crypto.locally_free_key_space(crypto.modexp_system(7).system, 0, 0)
    assert not_free.value.name == "locally_free"


def test_massey_omura_modexp_11():
    ms = crypto.modexp_system(11)
    sys_ = ms.system
    t = crypto.massey_omura(sys_, ms.point_of(2), ms.element_of(3), ms.element_of(9))
    values = [ms.unit_value(v) for _, _, v in t.entries]
    assert values == [8, 7, 6, 2]
    assert t.ok


def test_massey_omura_identity_keys_echo():
    ms = crypto.modexp_system(11)
    sys_ = ms.system
    one = ms.element_of(1)
    x = ms.point_of(7)
    t = crypto.massey_omura(sys_, x, one, one)
    assert [v for _, _, v in t.entries] == [x, x, x, x]


def test_massey_omura_band_extension():
    sys_ = band_system()
    x = 1  # the point carrying e.1
    t = crypto.massey_omura(sys_, x, 1, 2)
    assert t.ok and t.recovered == x


def test_elgamal_modexp_11():
    ms = crypto.modexp_system(11)
    sys_ = ms.system
    t = crypto.elgamal(
        sys_, ms.point_of(2), ms.element_of(3), ms.element_of(7), ms.element_of(9)
    )
    assert t.ok
    assert ms.unit_value(t.recovered) == 2


def test_elgamal_identity_keys():
    sys_ = band_system()
    x = 2
    t = crypto.elgamal(sys_, x, 0, 0, 0)
    assert t.ok
    assert t.entries[1] == ("alice", "ciphertext", x)


def test_transcript_rendering():
    sys_ = band_system()
    t = crypto.massey_omura(sys_, 0, 1, 2)
    lines = t.render().splitlines()
    assert lines[0].startswith("alice: ciphertext-1 = ")
    assert lines[-1].startswith("bob: recovered = ")


def test_transcript_is_an_immutable_record():
    t = crypto.elgamal(crypto.modexp_system(11).system, 2, 1, 2, 3)
    assert [entry[:2] for entry in t.entries] == [
        ("bob", "public-key"),
        ("alice", "ciphertext"),
        ("alice", "key-trace"),
        ("bob", "recovered"),
    ]
    assert t.ok and t.recovered == t.plaintext == 2
    assert t.render().splitlines()[-1] == "bob: recovered = 2"
    assert not crypto.ProtocolTranscript(t.entries, 1, 2).ok
    for field in ("entries", "recovered", "plaintext"):
        with pytest.raises(AttributeError):
            setattr(t, field, 0)


@pytest.mark.parametrize(
    "argv, transcript",
    [
        (
            ["--prime", "241", "--protocol", "mo", "--seed", "1"],
            ["alice: ciphertext-1 = 38", "bob: ciphertext-2 = 201",
             "alice: ciphertext-3 = 205", "bob: recovered = 34"],
        ),
        (
            ["--fixture", "Z3E", "--protocol", "elgamal", "--seed", "3"],
            ["bob: public-key = 5", "alice: ciphertext = 0",
             "alice: key-trace = 5", "bob: recovered = 0"],
        ),
    ],
)
def test_crypto_demo_renders_its_transcript(capsys, argv, transcript):
    # the two demos pinned in tests/golden, in text mode, where the
    # transcript itself is printed
    assert main(["crypto-demo", *argv]) == 0
    assert capsys.readouterr().out.splitlines()[-4:] == transcript


def test_protocols_raise_no_decrypt_key():
    # a total cancellative act maps S into a finite permutation group, so
    # every key has a uniform decrypt key unless there are no points
    S = fx("Z3E")
    empty = crypto.build_cryptosystem(S, [[] for _ in S.elements])
    with pytest.raises(NoDecryptKey) as exc:
        crypto.massey_omura(empty, 0, 4, 2)
    assert exc.value.key == 4
    # left multiplication on N2 sends both points to 0, so no t*s fixes
    # the point a; validation refuses the act as not cancellative, so the
    # act is made directly, to reach the protocols' own refusal
    S = fx("N2")
    rows, _ = acts.left_mult_total(S)
    sys_ = crypto.Cryptosystem(acts.PartialAct(S, tuple(map(tuple, rows))))
    assert sys_.act.uniform_keys == (frozenset(), frozenset())
    with pytest.raises(NoDecryptKey) as exc:
        crypto.massey_omura(sys_, 1, 1, 0)
    assert exc.value.key == 1
    with pytest.raises(NoDecryptKey) as exc:
        crypto.elgamal(sys_, 1, 1, 1, 1)
    assert exc.value.key == 0


def test_massey_omura_needs_commutativity_or_biact():
    S = fx("B2")
    sys_ = crypto.locally_free_system(S)
    with pytest.raises(PreconditionFailed):
        crypto.massey_omura(sys_, 0, 3, 4)


def test_biact_variant_roundtrip():
    S = fx("Z6")
    left, _ = acts.left_mult_total(S)
    right = [[S.mul(x, s) for s in S.elements] for x in range(S.n)]
    sys_ = crypto.build_cryptosystem(S, left)
    biact = crypto.build_biact(sys_, right)
    assert biact.system is sys_
    for x in range(6):
        t = crypto.massey_omura(sys_, x, 2, 5, biact=biact)
        assert t.ok


def test_a_biact_of_another_system_is_refused():
    # Z6 acting trivially on 3 points, and a biact of Z6 acting on Z3 by
    # x + s mod 3 on both sides: run together, Alice's passes would come
    # from the one and her decrypt key from the other
    S = fx("Z6")
    trivial = crypto.build_cryptosystem(S, [[0, 1, 2]] * 6)
    z3 = [[(x + s) % 3 for x in range(3)] for s in S.elements]
    biact = crypto.build_biact(crypto.build_cryptosystem(S, z3), list(zip(*z3)))
    for run in (
        lambda: crypto.massey_omura_rows(trivial, 1, 1, biact),
        lambda: crypto.massey_omura(trivial, 0, 1, 1, biact=biact),
    ):
        with pytest.raises(PreconditionFailed) as exc:
            run()
        assert exc.value.name == "biact"
    # a system equal to the biact's, built again, is the same system
    again = crypto.build_cryptosystem(S, z3)
    assert again is not biact.system and again == biact.system
    assert all(crypto.massey_omura(again, x, 1, 1, biact=biact).ok for x in range(3))


def test_stabilizers_left_dense():
    assert crypto.stabilizers_left_dense(band_system().act)
    ms = crypto.modexp_system(7)
    assert crypto.stabilizers_left_dense(ms.system.act)
    # a total act that is not cancellative fails pointwise decryptability
    S = fx("N2")
    rows, labels = acts.left_mult_total(S)
    raw = acts.PartialAct(S, tuple(tuple(r) for r in rows))
    assert not crypto.stabilizers_left_dense(raw)


def test_minimum_idempotent():
    assert crypto.minimum_idempotent(fx("Z3E")) == 3
    assert crypto.minimum_idempotent(fx("B2")) == 0
    assert crypto.minimum_idempotent(fx("CHAIN3")) == 0
    with pytest.raises(NotSemilattice):
        crypto.minimum_idempotent(fx("LZ2"))


def oracle_minimum_idempotents(S):
    E = core.idempotents(S)
    return [e for e in E if all(core.h_leq(S, e, f) for f in E)]


def test_minimum_idempotent_matches_a_scan_of_the_idempotents():
    small = [S for n in (1, 2, 3) for S in construction.enumerate_semigroups(n)]
    bands = [
        construction.adjoined_band_semigroup(core.build_semigroup(cyclic_table(k)))
        for k in range(1, 9)
    ]
    tables = [
        S
        for S in small + [fx(name) for name in SEMILATTICE_FIXTURES] + bands
        if core.classify_idempotents(S).is_semilattice
    ]
    assert len(tables) == 82 + len(SEMILATTICE_FIXTURES) + 8
    for S in tables:
        assert [crypto.minimum_idempotent(S)] == oracle_minimum_idempotents(S), S.table
    with pytest.raises(NotSemilattice):
        crypto.minimum_idempotent(fx("LZ2"))


def test_biact_and_unitary_key_space_checks_take_their_systems(monkeypatch):
    # neither check looks its systems up by fixture name
    z2, z3 = (crypto.locally_free_system(fx(name)) for name in ("Z2", "Z3"))
    z4e = crypto.locally_free_system(
        construction.adjoined_band_semigroup(core.build_semigroup(cyclic_table(4)))
    )
    assert verify._biact_roundtrip_violations([("Z2", z2), ("Z3", z3)]) is None
    assert verify._unitary_key_space_violations([("Z4E", z4e)]) is None
    # and a failure names the system it was handed
    monkeypatch.setattr(crypto, "locally_free_key_space", lambda sys, x, s: frozenset())
    assert verify._unitary_key_space_violations([("Z4E", z4e)]) == (
        "Z4E: key space differs from closed weak inverses at s=0"
    )
    # every run recovers -1 for every plaintext
    monkeypatch.setattr(
        crypto, "massey_omura_rows", lambda sys, *a, **k: ((-1,) * sys.act.carrier,) * 4
    )
    assert verify._biact_roundtrip_violations([("Z3", z3)]) == (
        "Z3: biact three-pass fails at x=0, s=0, t=0"
    )


def test_crypto_checks_take_the_systems_that_meet_their_hypotheses(monkeypatch):
    # by hypothesis, not by fixture name: the unitary key-space check takes
    # every E-unitary locally free system, the biact check every system
    # that is S acting on itself by left multiplication, and the one-copy
    # control of the classification every canonical system
    handed = {}
    for check in ("_unitary_key_space_violations", "_biact_roundtrip_violations"):
        real = getattr(verify, check)

        def spy(systems, _real=real, _check=check):
            handed[_check] = [name for name, _ in systems]
            return _real(systems)

        monkeypatch.setattr(verify, check, spy)
    findings = verify.suite_crypto()
    assert all(f.passed for f in findings)
    assert handed == {
        "_unitary_key_space_violations": ["Z3", "Z6", "Z3E", "Z6E", "CHAIN3"],
        "_biact_roundtrip_violations": ["Z3", "Z6"],
    }
    # a report of two copies fails exactly the canonical systems
    classify = crypto.classify_locally_free_cryptosystem
    monkeypatch.setattr(
        crypto,
        "classify_locally_free_cryptosystem",
        lambda act: dataclasses.replace(classify(act), copies=2),
    )
    failing = [
        name
        for name, sys_ in verify._system_corpus()
        if verify._classification_violations([(name, sys_)])
        == f"{name}: expected one copy of the base orbit"
    ]
    assert failing == ["Z3", "Z6", "B2", "Z3E", "Z6E", "CHAIN3"]


def test_classification_band_extension():
    sys_ = band_system()
    rep = crypto.classify_locally_free_cryptosystem(sys_.act)
    assert rep.minimum_idempotent == 3
    assert rep.locally_free and rep.is_disjoint_union_of_base
    assert rep.copies == 1
    assert rep.base_points == (3, 4, 5)


def test_classification_two_copies():
    sys_ = band_system()
    double = acts.disjoint_union(sys_.act, sys_.act)
    rep = crypto.classify_locally_free_cryptosystem(double)
    assert rep.is_disjoint_union_of_base and rep.copies == 2


def test_classification_needs_a_total_act():
    wp = acts.wagner_preston(fx("CHAIN3"))
    with pytest.raises(PreconditionFailed) as partial:
        crypto.classify_locally_free_cryptosystem(wp)
    assert partial.value.name == "total_action"


def test_classification_modexp_7_honest():
    # the units mod 7 split into orbits {1}, {6}, {2,4}, {3,5}; only the
    # two-point orbits match the base, so no disjoint-union decomposition
    ms = crypto.modexp_system(7)
    rep = crypto.classify_locally_free_cryptosystem(ms.system.act)
    assert not rep.locally_free
    assert not rep.is_disjoint_union_of_base
    orbit_units = sorted(
        (tuple(ms.unit_value(p) for p in pts), iso) for pts, iso in rep.orbit_results
    )
    assert orbit_units == [
        ((1,), False),
        ((2, 4), True),
        ((3, 5), True),
        ((6,), False),
    ]


def test_discrete_log_candidates():
    ms = crypto.modexp_system(11)
    sys_ = ms.system
    x, y = ms.point_of(2), ms.point_of(8)
    cands = crypto.discrete_log_candidates(sys_, x, y)
    assert ms.element_of(3) in cands
    assert all(sys_.act.act(s, x) == y for s in cands)


# --- keys and points outside their range ---------------------------------------


def refused(kind, query):
    """The message of the ``PreconditionFailed(kind)`` that query raises."""
    with pytest.raises(PreconditionFailed) as exc:
        query()
    assert exc.value.name == kind
    return str(exc.value)


@pytest.mark.parametrize("name", ["modexp-7", "Z6", "Z3E"])
def test_crypto_queries_refuse_keys_and_points_out_of_range(name):
    sys_ = crypto.modexp_system(7).system if name == "modexp-7" else band_system(name)
    n, m = len(sys_.semigroup.table), len(sys_.act.table[0])
    for key in (-1, n, n + 92):
        message = f"precondition failed: key {key} is not one of the {n} keys"
        queries = [
            lambda: crypto.decrypt_key_space(sys_, 0, key),
            lambda: crypto.uniform_decrypt_keys(sys_, key),
            lambda: crypto.massey_omura_rows(sys_, key, 0),
            lambda: crypto.massey_omura_rows(sys_, 0, key),
            lambda: crypto.massey_omura(sys_, 0, key, 0),
            lambda: crypto.massey_omura(sys_, 0, 0, key),
            lambda: crypto.elgamal_rows(sys_, key, 0, 0),
            lambda: crypto.elgamal_rows(sys_, 0, key, 0),
            lambda: crypto.elgamal_rows(sys_, 0, 0, key),
            lambda: crypto.elgamal(sys_, 0, 0, 0, key),
        ]
        if sys_.act.properties.locally_free:
            queries.append(lambda: crypto.locally_free_key_space(sys_, 0, key))
        for query in queries:
            assert refused("key", query) == message
    for x in (-1, m, m + 92):
        message = f"precondition failed: point {x} is not one of the {m} points"
        queries = [
            lambda: crypto.decrypt_key_space(sys_, x, 0),
            lambda: crypto.discrete_log_candidates(sys_, x, 0),
            lambda: crypto.discrete_log_candidates(sys_, 0, x),
        ]
        if sys_.act.properties.locally_free:
            queries.append(lambda: crypto.locally_free_key_space(sys_, x, 0))
        for query in queries:
            assert refused("point", query) == message
        plaintext = f"precondition failed: plaintext {x} is not one of the {m} points"
        assert refused("plaintext", lambda: crypto.massey_omura(sys_, x, 0, 0)) == plaintext
        assert refused("plaintext", lambda: crypto.elgamal(sys_, x, 0, 0, 0)) == plaintext
    # the last key and point are still answered
    assert crypto.decrypt_key_space(sys_, m - 1, n - 1) == frozenset(
        t for t in range(n) if sys_.act.table[sys_.semigroup.table[t][n - 1]][m - 1] == m - 1
    )


def test_biact_runs_refuse_keys_out_of_range():
    S = fx("Z6")
    sys_ = band_system("Z6")
    biact = crypto.build_biact(sys_, [[S.mul(x, s) for s in S.elements] for x in S.elements])
    for key in (-1, 6):
        assert refused("key", lambda: crypto.massey_omura_rows(sys_, key, 0, biact)) == (
            f"precondition failed: key {key} is not one of the 6 keys"
        )
        assert refused("key", lambda: crypto.massey_omura_rows(sys_, 0, key, biact))


def test_modexp_units_and_points_out_of_range_are_refused():
    # measured before the checks: point_of(0) was -1, point_of(7) was 6,
    # unit_value(-1) was 6, and negative keys read keys from the end
    for p in (2, 5, 7):
        ms = crypto.modexp_system(p)
        units = [u for u in range(1, p) if math.gcd(u, p) == 1]
        assert [ms.point_of(u) for u in units] == list(range(len(units)))
        assert [ms.unit_value(x) for x in range(len(units))] == units
        for u in (-1, 0, p, p + 1):
            assert refused("unit", lambda: ms.point_of(u)) == (
                f"precondition failed: unit {u} is not one of the {len(units)} units"
            )
        for x in (-1, len(units)):
            assert refused("point", lambda: ms.unit_value(x)) == (
                f"precondition failed: point {x} is not one of the {len(units)} points"
            )
    ms = crypto.modexp_system(7)
    sys_ = ms.system
    with pytest.raises(PreconditionFailed):
        crypto.decrypt_key_space(sys_, -1, -1)
    with pytest.raises(PreconditionFailed):
        crypto.massey_omura(sys_, 0, -1, 1)
    with pytest.raises(PreconditionFailed):
        crypto.decrypt_key_space(sys_, 99, 0)


# --- the decrypt-key table against scans of the act ---------------------------


def reference_key_space(sys_, x, s):
    """K(s, x) by its definition: every t such that (t*s)x = x."""
    S = sys_.semigroup
    return frozenset(t for t in S.elements if sys_.act.act(S.mul(t, s), x) == x)


def reference_uniform_keys(sys_, s):
    """The intersection of K(s, x) over every point; empty with no points."""
    keys = None
    for x in sys_.act.points:
        k = reference_key_space(sys_, x, s)
        keys = k if keys is None else keys & k
    return keys if keys is not None else frozenset()


def reference_pointwise_decryptable(act):
    S = act.semigroup
    return all(
        any(act.act(S.mul(t, s), x) == x for t in S.elements)
        for x in act.points
        for s in S.elements
    )


def reference_systems():
    systems = verify._system_corpus()
    for p in (17, 19, 23):
        ms = crypto.modexp_system(p)
        systems.append((f"modexp-{p}", ms.system))
    return systems


REFERENCE_SYSTEMS = reference_systems()


@pytest.mark.parametrize("name,sys_", REFERENCE_SYSTEMS, ids=[n for n, _ in REFERENCE_SYSTEMS])
def test_key_table_matches_act_scans(name, sys_):
    S = sys_.semigroup
    sizes = set()
    for s in S.elements:
        for x in sys_.act.points:
            expected = reference_key_space(sys_, x, s)
            assert crypto.decrypt_key_space(sys_, x, s) == expected
            sizes.add(len(expected))
        expected = reference_uniform_keys(sys_, s)
        assert crypto.uniform_decrypt_keys(sys_, s) == expected
    assert crypto.key_space_sizes(sys_) == sizes
    commutative = all(S.mul(a, b) == S.mul(b, a) for a in S.elements for b in S.elements)
    assert S.structure.is_commutative == commutative
    assert crypto.stabilizers_left_dense(sys_.act) == reference_pointwise_decryptable(sys_.act)


def test_reference_systems_include_a_non_commutative_one():
    systems = dict(REFERENCE_SYSTEMS)
    assert not systems["B2"].semigroup.structure.is_commutative
    assert systems["Z6E"].semigroup.structure.is_commutative


def test_key_table_is_built_once_per_system(monkeypatch):
    # the uniform keys are built once per act, on first use
    built = []
    real = acts.PartialAct.uniform_keys.func
    counted = functools.cached_property(lambda act: built.append(act) or real(act))
    counted.__set_name__(acts.PartialAct, "uniform_keys")
    monkeypatch.setattr(acts.PartialAct, "uniform_keys", counted)
    sys_ = band_system()
    assert built == []
    for s in sys_.semigroup.elements:
        for x in sys_.act.points:
            crypto.decrypt_key_space(sys_, x, s)
        crypto.uniform_decrypt_keys(sys_, s)
    assert crypto.massey_omura(sys_, 0, 1, 2).ok
    assert built == [sys_.act]


def test_key_table_empty_carrier():
    S = fx("Z3")
    sys_ = crypto.build_cryptosystem(S, [[] for _ in S.elements])
    for s in S.elements:
        assert crypto.uniform_decrypt_keys(sys_, s) == reference_uniform_keys(sys_, s) == set()
    assert crypto.key_space_sizes(sys_) == set()


# --- modexp systems and key-space sizes against arithmetic --------------------


def phi(m):
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def oracle_key_space_sizes(p):
    """{phi(p-1)/phi(d) : d | p-1}: K(n, x) is a coset of Stab(x), whose
    size is phi(p-1)/phi(ord x), and every divisor d of p-1 is the order
    of some unit."""
    m = p - 1
    return {phi(m) // phi(d) for d in range(1, m + 1) if m % d == 0}


def oracle_non_free_units(p):
    """The units x with phi(ord x) != phi(p-1): Stab(x) has phi(p-1)/phi(ord x)
    exponents, so these are the units some exponent other than 1 fixes."""

    def order(x):
        d, y = 1, x
        while y != 1:
            y, d = y * x % p, d + 1
        return d

    return tuple(x for x in range(1, p) if phi(order(x)) != phi(p - 1))


PRIMES_TO_257 = [p for p in range(2, 258) if all(p % d for d in range(2, p))]


def test_modexp_systems_match_arithmetic_for_every_prime():
    assert len(PRIMES_TO_257) == 55
    for p in PRIMES_TO_257:
        ms = crypto.modexp_system(p)
        units = list(range(1, p))
        assert [ms.point_of(u) for u in units] == list(range(len(units))), f"p={p}"
        for n, row in zip(ms.exponents, ms.rows):
            assert [ms.unit_value(y) for y in row] == [pow(u, n, p) for u in units], f"p={p}"
        assert ms.system is ms.system, f"p={p}"
        sizes = crypto.key_space_sizes(ms.system)
        assert sizes == oracle_key_space_sizes(p), f"p={p}"
        expected = oracle_non_free_units(p)
        assert ms.non_free_units == expected, f"p={p}"
        assert ms.is_free is (not expected), f"p={p}"


def test_crypto_demo_reports_the_arithmetic_key_space_sizes(capsys):
    assert main(["crypto-demo", "--prime", "241", "--json"]) == 0
    witness = {f["name"]: f["witness"] for f in json.loads(capsys.readouterr().out)["findings"]}
    expected = " ".join(map(str, sorted(oracle_key_space_sizes(241))))
    assert witness["key-space-sizes"] == expected == "1 2 4 8 16 32 64"


def test_pointwise_decryptable_non_cancellative_matches_scan():
    S = fx("N2")
    rows, _ = acts.left_mult_total(S)
    raw = acts.PartialAct(S, tuple(tuple(r) for r in rows))
    assert crypto.stabilizers_left_dense(raw) == reference_pointwise_decryptable(raw) is False


# --- one-pass validation against the per-triple loops ---------------------------


def reference_validate_error(S, rows):
    """The first error of the point-by-point act validation, or None."""
    m = len(rows[0])
    for s, t in product(S.elements, repeat=2):
        st = S.mul(s, t)
        for x in range(m):
            tx = rows[t][x]
            via = None if tx is None else rows[s][tx]
            direct = rows[st][x]
            if (direct is None) != (via is None):
                return CompositionViolation(s, t, x, "(one side defined, the other not)")
            if direct is not None and direct != via:
                return CompositionViolation(s, t, x, f"({direct} != {via})")
    for s in S.elements:
        seen = {}
        for x in range(m):
            v = rows[s][x]
            if v is None:
                continue
            if v in seen:
                return NotCancellative(s, seen[v], x)
            seen[v] = x
    for s in S.elements:
        winv = core.weak_inverses(S, s)
        for x in range(m):
            v = rows[s][x]
            if v is not None and not any(rows[w][v] is not None for w in winv):
                return NotReflexive(s, x)
    return None


def reference_build_error(S, rows):
    """The first error of the per-triple cryptosystem checks on a total act."""
    m = len(rows[0])
    for s, t in product(S.elements, repeat=2):
        st = S.mul(s, t)
        for x in range(m):
            if rows[st][x] != rows[s][rows[t][x]]:
                return NotAssociativeAction(s, t, x)
    for s in S.elements:
        seen = {}
        for x in range(m):
            v = rows[s][x]
            if v in seen:
                return NotCancellative(s, seen[v], x)
            seen[v] = x
    return reference_validate_error(S, rows)


def outcome(fn, *args):
    try:
        fn(*args)
    except WorkbenchError as exc:
        return type(exc), str(exc)
    return None


def expected(error):
    return None if error is None else (type(error), str(error))


def corrupted(rows, rng, allow_undefined=False):
    """A copy of rows with one entry changed to another value."""
    rows = [list(r) for r in rows]
    s, x = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    choices = [v for v in range(len(rows[0])) if v != rows[s][x]]
    if allow_undefined and rows[s][x] is not None:
        choices.append(None)
    rows[s][x] = rng.choice(choices)
    return rows


def total_acts():
    out = []
    for name in construction.FIXTURE_NAMES:
        S = fx(name)
        rows, _ = acts.left_mult_total(S)
        out.append((name, S, rows))
    ms = crypto.modexp_system(13)
    out.append(("modexp-13", ms.semigroup, [list(r) for r in ms.rows]))
    return out


TOTAL_ACTS = total_acts()
SEEDS = range(8)


@pytest.mark.parametrize("name,S,rows", TOTAL_ACTS, ids=[n for n, _, _ in TOTAL_ACTS])
def test_build_cryptosystem_witnesses_match_triple_loops(name, S, rows):
    assert outcome(crypto.build_cryptosystem, S, rows) == expected(
        reference_build_error(S, rows)
    )
    for seed in SEEDS:
        bad = corrupted(rows, random.Random(f"{name}:{seed}"))
        assert outcome(crypto.build_cryptosystem, S, bad) == expected(
            reference_build_error(S, bad)
        ), (name, seed)


@pytest.mark.parametrize("name,S,rows", TOTAL_ACTS, ids=[n for n, _, _ in TOTAL_ACTS])
def test_validate_act_witnesses_match_triple_loops(name, S, rows):
    assert outcome(acts.validate_act, S, rows) == expected(reference_validate_error(S, rows))
    for seed in SEEDS:
        bad = corrupted(rows, random.Random(f"{name}:{seed}"), allow_undefined=True)
        assert outcome(acts.validate_act, S, bad) == expected(
            reference_validate_error(S, bad)
        ), (name, seed)


@pytest.mark.parametrize("name", SEMILATTICE_FIXTURES)
def test_validate_act_witnesses_match_on_partial_acts(name):
    S = fx(name)
    rows = [list(r) for r in acts.wagner_preston(S).table]
    assert outcome(acts.validate_act, S, rows) is None
    for seed in SEEDS:
        bad = corrupted(rows, random.Random(f"wp-{name}:{seed}"), allow_undefined=True)
        assert outcome(acts.validate_act, S, bad) == expected(
            reference_validate_error(S, bad)
        ), (name, seed)


def test_validate_act_matches_triple_loops_on_every_small_table():
    # every partial table with m <= 2 points over every semigroup of order
    # <= 2, and with one point over order 3, reaches each error class
    seen = set()
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
        for S in construction.enumerate_semigroups(n):
            for flat in product([None, *range(m)], repeat=n * m):
                rows = [list(flat[i * m : (i + 1) * m]) for i in range(n)]
                got = outcome(acts.validate_act, S, rows)
                assert got == expected(reference_validate_error(S, rows)), (S.table, rows)
                seen.add(got and got[0])
    assert seen == {None, CompositionViolation, NotCancellative, NotReflexive}


def test_build_cryptosystem_rejects_bad_input_without_asserts():
    S = fx("Z3")
    rows, _ = acts.left_mult_total(S)
    partial = [list(r) for r in rows]
    partial[1][2] = None
    with pytest.raises(PreconditionFailed, match="total_action 1\\*2 is undefined"):
        crypto.build_cryptosystem(S, partial)
    out_of_range = [list(r) for r in rows]
    out_of_range[2][0] = 3
    with pytest.raises(OutOfRangeEntry, match="entry \\[2\\]\\[0\\] = 3"):
        crypto.build_cryptosystem(S, out_of_range)


@pytest.mark.parametrize("bad", [0.5, 0.0, "0", "x", True, [0]], ids=repr)
def test_entries_that_are_not_int_ids_are_refused(bad):
    # 0.0 and True equal ids, 0.5 passes 0 <= v < m, "0" and "x" convert or
    # not under int(), and [0] is unhashable: each is refused where it stands
    S = fx("Z2")
    for build, rows in (
        (acts.validate_act, [[bad], [0]]),
        (acts.validate_act, [[0, 1], [1, bad]]),
        (crypto.build_cryptosystem, [[0, 1], [1, bad]]),
    ):
        with pytest.raises(OutOfRangeEntry) as exc:
            build(S, rows)
        assert exc.value.witness == (len(rows[0]) - 1, len(rows[0]) - 1, bad)


# --- the left-dense check against its bitmask loop ---------------------------------


def ref_left_dense_violations(systems):
    """The left-dense check as it was written on bitmasks of the act, with
    the subacts found by closing each point under the act."""
    for name, sys in systems:
        m = sys.act.carrier
        if m > 16:
            continue
        if not crypto.stabilizers_left_dense(sys.act):
            return f"{name}: stabilizers not left dense"
        reach = [0] * m
        for row in sys.act.table:
            for x, y in enumerate(row):
                reach[x] |= 1 << y

        def transitive(mask):
            return all(mask & ~reach[y] == 0 for y in range(m) if mask >> y & 1)

        cond2 = all(reach[x] >> x & 1 and transitive(reach[x]) for x in range(m))

        def closure(x):
            mask = 1 << x
            while True:
                grown = mask
                for y in range(m):
                    if mask >> y & 1:
                        grown |= reach[y]
                if grown == mask:
                    return mask
                mask = grown

        distinct = sorted({closure(x) for x in range(m)})
        cond3 = all(reach[x] >> x & 1 for x in range(m))
        for bits in range(1, 1 << len(distinct)):
            mask = 0
            for i, c in enumerate(distinct):
                if bits >> i & 1:
                    mask |= c
            points = [y for y in range(m) if mask >> y & 1]
            locally_cyclic = all(
                any(reach[z] >> y1 & 1 and reach[z] >> y2 & 1 for z in points)
                for y1 in points
                for y2 in points
            )
            if locally_cyclic and not transitive(mask):
                cond3 = False
                break
        if not (cond2 and cond3):
            return f"{name}: left-dense-equivalences (True,{cond2},{cond3})"


def cyclic_blocks(k, m):
    """Z_k acting on m points: s adds s mod k inside each full block of k
    points, and fixes the points left over; the trivial action for k = 1."""
    full = m - m % k
    return [[x - x % k + (x + s) % k if x < full else x for x in range(m)] for s in range(k)]


def left_dense_inputs():
    """Every system above; trivial and cyclic actions of Z2 and Z3 on 2 to
    6 points, each with several orbits; disjoint unions of corpus acts; and
    left multiplication of every order <= 3 table and of the fixtures, which
    need not be cancellative."""
    systems = list(REFERENCE_SYSTEMS) + [(f"band {n}", band_system(n)) for n in ("Z3E", "Z6E")]
    for name in ("Z2", "Z3"):
        S = fx(name)
        for k, m in product((1, S.n), range(2, 7)):
            rows = [cyclic_blocks(k, m)[s % k] for s in S.elements]
            systems.append((f"{name} by Z{k} on {m}", crypto.build_cryptosystem(S, rows)))
    for name, sys_ in verify._system_corpus():
        S = sys_.semigroup
        regular = acts.PartialAct(S, S.table)
        for other in (sys_.act, regular):
            union = crypto.Cryptosystem(acts.disjoint_union(sys_.act, other))
            systems.append((f"{name} and {other.carrier} points", union))
    tables = [*verify._small_tables(), *map(fx, construction.FIXTURE_NAMES)]
    systems += [(f"left {S.table}", crypto.Cryptosystem(acts.PartialAct(S, S.table))) for S in tables]
    return systems


def test_left_dense_check_matches_its_bitmask_loop(monkeypatch):
    inputs = left_dense_inputs()
    for system in inputs:
        assert verify._left_dense_violations([system]) == ref_left_dense_violations([system])
    # with every stabilizer taken as left dense, the two orbit forms are
    # judged on acts where they fail
    monkeypatch.setattr(crypto, "stabilizers_left_dense", lambda act: True)
    found = []
    for system in inputs:
        found.append(verify._left_dense_violations([system]))
        assert found[-1] == ref_left_dense_violations([system])
    # the orbit form fails, and so does the subact form
    assert any(w and "(True,False," in w for w in found)
    assert any(w and w.endswith(",False)") for w in found)


# --- the shared composition scan against the per-triple loops -------------------


def reference_total_action_error(S, rows):
    """The per-triple composition law of a total action, which ``wagner_preston``
    once checked on its total rows."""
    for s, t in product(S.elements, repeat=2):
        st = S.mul(s, t)
        for x in range(len(rows[0])):
            if rows[st][x] != rows[s][rows[t][x]]:
                return NotAssociativeAction(s, t, x)
    return None


def reference_biact_error(S, left, right):
    """The per-entry checks of ``build_cryptosystem`` on the left rows,
    then those of ``build_biact`` on the right rows, in their order: shape
    and range, the composition law, cancellativity at the first colliding
    pair of points, compatibility."""
    error = reference_build_error(S, left)
    if error is not None:
        return error
    m = len(left[0])
    if len(right) != m:
        return PreconditionFailed("act_shape", f"{len(right)} right rows for {m} points")
    for i, row in enumerate(right):
        if len(row) != S.n:
            return OutOfRangeEntry(i, len(row), -1)
        for j, v in enumerate(row):
            if not 0 <= v < m:
                return OutOfRangeEntry(i, j, v)
    for s, t in product(S.elements, repeat=2):
        st = S.mul(s, t)
        for x in range(m):
            if right[right[x][s]][t] != right[x][st]:
                return NotAssociativeAction(s, t, x)
    for s in S.elements:
        # x*s
        image = [right[x][s] for x in range(m)]
        for y in range(m):
            for x in range(y):
                if image[x] == image[y]:
                    return NotCancellative(s, x, y)
    for s, t in product(S.elements, repeat=2):
        for x in range(m):
            if right[left[s][x]][t] != left[s][right[x][t]]:
                return NotAssociativeAction(s, t, x)
    return None


@pytest.mark.parametrize("name", SEMILATTICE_FIXTURES)
def test_wagner_preston_composition_matches_triple_loop(name):
    S = fx(name)
    assert outcome(acts.wagner_preston, S) is None
    rows, _ = acts.left_mult_total(S)
    for seed in SEEDS:
        bad = corrupted(rows, random.Random(f"wp-total-{name}:{seed}"))
        error = reference_total_action_error(S, bad)
        witness = core._composition_witness(S, bad)
        assert witness == (None if error is None else error.witness), (name, seed)


def build_biact_of(S, left, right):
    """``build_biact`` on the cryptosystem of the left rows."""
    return crypto.build_biact(crypto.build_cryptosystem(S, left), right)


def biact_rows(name, S, rows):
    if name.startswith("modexp"):
        return [[rows[s][x] for s in S.elements] for x in range(len(rows[0]))]
    return [[S.mul(x, s) for s in S.elements] for x in S.elements]


@pytest.mark.parametrize("name,S,rows", TOTAL_ACTS, ids=[n for n, _, _ in TOTAL_ACTS])
def test_build_biact_witnesses_match_triple_loops(name, S, rows):
    right = biact_rows(name, S, rows)
    assert outcome(build_biact_of, S, rows, right) == expected(
        reference_biact_error(S, rows, right)
    )
    seen = set()
    for seed in range(3 * len(SEEDS)):
        # corrupt the left rows, the right rows, or both
        rng = random.Random(f"biact-{name}:{seed}")
        left = corrupted(rows, rng) if seed % 3 != 1 else rows
        right_bad = corrupted(right, rng) if seed % 3 != 0 else right
        error = reference_biact_error(S, left, right_bad)
        assert outcome(build_biact_of, S, left, right_bad) == expected(error), (name, seed)
        seen.add(type(error))
    assert NotAssociativeAction in seen


# --- the scans over generators, where the generators are few ------------------
#
# Every composition and compatibility scan takes its first factor from the
# greedy generators of S only.  On U_(p-1) acting on the units mod p they
# are a small part of S, so corrupting a row outside them, or inside, must
# still give the witness of the full per-triple loops.

MODEXP_PRIMES = (17, 41, 97)


def modexp_corruptions(p, seeds):
    """(rows, bad rows, corrupted row) for one-entry corruptions of the act
    rows of U_(p-1); the rows corrupted include rows of non-generators."""
    ms = crypto.modexp_system(p)
    rows = [list(r) for r in ms.rows]
    gens = ms.semigroup.structure.generators
    assert len(gens) < ms.semigroup.n // 2
    out = []
    for seed in range(seeds):
        bad = corrupted(rows, random.Random(f"modexp-{p}:{seed}"))
        s = next(s for s, (a, b) in enumerate(zip(rows, bad)) if a != b)
        out.append((bad, s))
    assert {s for _, s in out} - set(gens), "no row of a non-generator was corrupted"
    return ms.semigroup, rows, out


@pytest.mark.parametrize("p", MODEXP_PRIMES)
def test_act_validators_match_triple_loops_over_few_generators(p):
    S, rows, cases = modexp_corruptions(p, 12)
    assert outcome(acts.validate_act, S, rows) is None
    errors = set()
    for bad, s in cases:
        error = reference_build_error(S, bad)
        assert outcome(crypto.build_cryptosystem, S, bad) == expected(error), (p, s)
        assert outcome(acts.validate_act, S, bad) == expected(
            reference_validate_error(S, bad)
        ), (p, s)
        errors.add(type(error))
    assert NotAssociativeAction in errors


@pytest.mark.parametrize("p", MODEXP_PRIMES)
def test_build_biact_matches_triple_loops_over_few_generators(p):
    S, rows, cases = modexp_corruptions(p, 12)
    right = biact_rows("modexp", S, rows)
    for k, (bad, s) in enumerate(cases):
        # the corruption on the left, on the right (by transposing), or both
        left = bad if k % 3 != 1 else rows
        right_bad = biact_rows("modexp", S, bad) if k % 3 != 0 else right
        error = reference_biact_error(S, left, right_bad)
        assert outcome(build_biact_of, S, left, right_bad) == expected(error), (p, k)


@pytest.mark.parametrize("p", MODEXP_PRIMES)
def test_act_scans_reach_the_last_generator(p):
    # rows outside <gens[:-1]> twisted: the composition law fails first at
    # gens[-1]; and S acting on itself with the right action conjugated by
    # a map that commutes with <gens[:-1]> only: compatibility fails there
    ms = crypto.modexp_system(p)
    S, rows = ms.semigroup, [list(r) for r in ms.rows]
    gens = S.structure.generators
    bad, c = twist_outside(S.table, gens, rows)
    error = reference_build_error(S, bad)
    assert isinstance(error, NotAssociativeAction) and error.witness[0] == gens[-1]
    assert outcome(crypto.build_cryptosystem, S, bad) == expected(error)
    assert outcome(acts.validate_act, S, bad) == expected(reference_validate_error(S, bad))
    assert outcome(build_biact_of, S, bad, biact_rows("modexp", S, rows)) == expected(error)
    H = closure(S.table, gens[:-1])
    c_inv = next(d for d in S.elements if S.mul(c, d) == S.identity)
    pi = [x if x in H else S.mul(x, c) for x in S.elements]
    pi_inv = [x if x in H else S.mul(x, c_inv) for x in S.elements]
    left = [list(row) for row in S.table]
    right = [[pi_inv[S.mul(pi[x], t)] for t in S.elements] for x in S.elements]
    error = reference_biact_error(S, left, right)
    assert isinstance(error, NotAssociativeAction) and error.witness[0] == gens[-1]
    assert outcome(build_biact_of, S, left, right) == expected(error)


def test_composition_scan_multiplies_generators_only(monkeypatch):
    ms = crypto.modexp_system(241)
    gens = ms.semigroup.structure.generators
    products = []
    real = core.FiniteSemigroup.mul
    monkeypatch.setattr(
        core.FiniteSemigroup, "mul", lambda S, a, b: products.append(a) or real(S, a, b)
    )
    acts.validate_act(ms.semigroup, ms.rows)
    assert ms.semigroup.n == 64 and len(gens) < 8
    assert 0 < len(products) <= len(gens) * 64
    assert set(products) <= set(gens)


def test_a_biact_validates_its_right_action_only(monkeypatch):
    # the left action is the system's act, validated by build_cryptosystem;
    # build_biact runs the composition scan once, on the right rows
    S = fx("Z6")
    sys_ = crypto.locally_free_system(S)
    scanned = []
    real = core._composition_witness
    monkeypatch.setattr(
        core,
        "_composition_witness",
        lambda S, table, right=False: scanned.append((table, right)) or real(S, table, right),
    )
    crypto.build_biact(sys_, S.table)
    assert scanned == [(tuple(zip(*S.table)), True)]
    # the biact check of a corpus verify scans once for each of Z3 and Z6
    per_biact = []
    build = crypto.build_biact

    def counted(*args):
        before = len(scanned)
        biact = build(*args)
        per_biact.append(len(scanned) - before)
        return biact

    monkeypatch.setattr(crypto, "build_biact", counted)
    findings = {f.name: f for f in verify.suite_crypto()}
    assert findings["crypto.biact-roundtrip"].passed
    assert per_biact == [1, 1]


def test_modexp_systems_match_direct_builds():
    ms = crypto.modexp_system(41)
    sys_ = ms.system
    direct = crypto.build_cryptosystem(ms.semigroup, ms.rows, [str(u) for u in ms.units])
    assert sys_ == direct
    assert sys_.act.table == ms.rows
    assert sys_.act.point_labels == direct.act.point_labels
    assert sys_.act.uniform_keys == direct.act.uniform_keys
    for n in (3, ms.exponents[-1]):
        key = ms.element_of(n)
        for x in sys_.act.points:
            assert crypto.decrypt_key_space(sys_, x, key) == crypto.decrypt_key_space(direct, x, key)


def test_build_biact_later_checks_match_triple_loop():
    # two actions of Z6 that compose: a constant right action, which is not
    # cancellative, and addition seen through the swap of points 0 and 1,
    # which is cancellative but does not commute with the left action
    S = fx("Z6")
    rows, _ = acts.left_mult_total(S)
    sys_ = crypto.build_cryptosystem(S, rows)
    swap = [1, 0, 2, 3, 4, 5]
    constant = [[0] * 6 for _ in S.elements]
    swapped = [[swap[(swap[x] + s) % 6] for s in S.elements] for x in S.elements]
    for right, kind in ((constant, NotCancellative), (swapped, NotAssociativeAction)):
        error = reference_biact_error(S, rows, right)
        assert isinstance(error, kind)
        assert outcome(crypto.build_biact, sys_, right) == expected(error)


def test_build_biact_refuses_malformed_rows_by_name():
    # shape and range are checked before any law, so no row is indexed out
    # of range, and a collision names its two points
    S = fx("Z3")
    left = [list(row) for row in S.table]
    sys_ = crypto.build_cryptosystem(S, left)
    right = [[S.mul(x, s) for s in S.elements] for x in S.elements]
    constant = [[0] * 3 for _ in S.elements]
    cases = [
        ([right[0], right[1][:2], right[2]], OutOfRangeEntry, (1, 2, -1)),
        (right[:2], PreconditionFailed, None),
        ([right[0], right[1], [-1, 0, 1]], OutOfRangeEntry, (2, 0, -1)),
        (constant, NotCancellative, (0, 0, 1)),
    ]
    for rrows, kind, witness in cases:
        error = reference_biact_error(S, left, rrows)
        assert isinstance(error, kind) and getattr(error, "witness", None) == witness
        assert outcome(crypto.build_biact, sys_, rrows) == expected(error), rrows
    # malformed left rows are refused by build_cryptosystem, before any
    # biact of them can exist
    for lrows, kind, witness in (
        ([left[0], [1, 2, 3], left[2]], OutOfRangeEntry, (1, 2, 3)),
        (constant, NotCancellative, (0, 0, 1)),
    ):
        with pytest.raises(kind) as exc:
            crypto.build_cryptosystem(S, lrows)
        assert exc.value.witness == witness
    # a right action of all of S on a system on a 4-point ideal of Z4E
    z4e = construction.adjoined_band_semigroup(core.build_semigroup(cyclic_table(4)))
    with pytest.raises(PreconditionFailed, match="8 right rows for 4 points"):
        verify._biact_roundtrip_violations([("Z4E", crypto.locally_free_system(z4e))])
