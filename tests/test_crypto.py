"""Cryptosystems over cancellative acts: key spaces, protocol round
trips on the modular-exponentiation oracle, and the orbit classification."""

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

from conftest import SEMILATTICE_FIXTURES, closure, fx, twist_outside


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
    assert sys_.key_table.uniform == (frozenset(), frozenset())
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
    biact = crypto.build_biact(S, left, right)
    sys_ = crypto.build_cryptosystem(S, left)
    for x in range(6):
        t = crypto.massey_omura(sys_, x, 2, 5, biact=biact)
        assert t.ok


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


def test_classification_band_extension():
    S = fx("Z3E")
    sys_ = band_system()
    rep = crypto.classify_locally_free_cryptosystem(sys_.act, acts.wagner_preston(S))
    assert rep.minimum_idempotent == 3
    assert rep.locally_free and rep.is_disjoint_union_of_base
    assert rep.copies == 1
    assert rep.base_points == (3, 4, 5)


def test_classification_two_copies():
    S = fx("Z3E")
    sys_ = band_system()
    double = acts.disjoint_union(sys_.act, sys_.act)
    rep = crypto.classify_locally_free_cryptosystem(double, acts.wagner_preston(S))
    assert rep.is_disjoint_union_of_base and rep.copies == 2


def test_classification_needs_a_total_act_and_its_own_wagner_preston_act():
    wp = acts.wagner_preston(fx("CHAIN3"))
    with pytest.raises(PreconditionFailed) as partial:
        crypto.classify_locally_free_cryptosystem(wp, wp)
    assert partial.value.name == "total_action"
    with pytest.raises(PreconditionFailed) as other:
        crypto.classify_locally_free_cryptosystem(band_system().act, acts.wagner_preston(fx("Z3")))
    assert other.value.name == "same_semigroup"


def test_classification_modexp_7_honest():
    # the units mod 7 split into orbits {1}, {6}, {2,4}, {3,5}; only the
    # two-point orbits match the base, so no disjoint-union decomposition
    ms = crypto.modexp_system(7)
    rep = crypto.classify_locally_free_cryptosystem(ms.system.act, acts.wagner_preston(ms.semigroup))
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
    assert sys_.key_table.commutative == commutative
    assert crypto.stabilizers_left_dense(sys_.act) == reference_pointwise_decryptable(sys_.act)


def test_reference_systems_include_a_non_commutative_one():
    systems = dict(REFERENCE_SYSTEMS)
    assert not systems["B2"].key_table.commutative
    assert systems["Z6E"].key_table.commutative


def test_key_table_is_built_once_per_system(monkeypatch):
    built = []
    real = crypto.DecryptKeyTable.of
    monkeypatch.setattr(crypto.DecryptKeyTable, "of", lambda act: built.append(act) or real(act))
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
    """The per-triple checks of ``build_biact``, in their order."""
    m = len(left[0])
    for s, t in product(S.elements, repeat=2):
        st = S.mul(s, t)
        for x in range(m):
            if left[st][x] != left[s][left[t][x]]:
                return NotAssociativeAction(s, t, x)
            if right[right[x][s]][t] != right[x][st]:
                return NotAssociativeAction(s, t, x)
    for s in S.elements:
        if len({left[s][x] for x in range(m)}) != m:
            return NotCancellative(s, -1, -1)
        if len({right[x][s] for x in range(m)}) != m:
            return NotCancellative(s, -1, -1)
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


def biact_rows(name, S, rows):
    if name.startswith("modexp"):
        return [[rows[s][x] for s in S.elements] for x in range(len(rows[0]))]
    return [[S.mul(x, s) for s in S.elements] for x in S.elements]


@pytest.mark.parametrize("name,S,rows", TOTAL_ACTS, ids=[n for n, _, _ in TOTAL_ACTS])
def test_build_biact_witnesses_match_triple_loops(name, S, rows):
    right = biact_rows(name, S, rows)
    assert outcome(crypto.build_biact, S, rows, right) == expected(
        reference_biact_error(S, rows, right)
    )
    seen = set()
    for seed in range(3 * len(SEEDS)):
        # corrupt the left rows, the right rows, or both
        rng = random.Random(f"biact-{name}:{seed}")
        left = corrupted(rows, rng) if seed % 3 != 1 else rows
        right_bad = corrupted(right, rng) if seed % 3 != 0 else right
        error = reference_biact_error(S, left, right_bad)
        assert outcome(crypto.build_biact, S, left, right_bad) == expected(error), (name, seed)
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
        assert outcome(crypto.build_biact, S, left, right_bad) == expected(error), (p, k)


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
    assert outcome(crypto.build_biact, S, bad, biact_rows("modexp", S, rows)) == expected(error)
    H = closure(S.table, gens[:-1])
    c_inv = next(d for d in S.elements if S.mul(c, d) == S.identity)
    pi = [x if x in H else S.mul(x, c) for x in S.elements]
    pi_inv = [x if x in H else S.mul(x, c_inv) for x in S.elements]
    left = [list(row) for row in S.table]
    right = [[pi_inv[S.mul(pi[x], t)] for t in S.elements] for x in S.elements]
    error = reference_biact_error(S, left, right)
    assert isinstance(error, NotAssociativeAction) and error.witness[0] == gens[-1]
    assert outcome(crypto.build_biact, S, left, right) == expected(error)


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


def test_modexp_systems_match_direct_builds():
    ms = crypto.modexp_system(41)
    sys_ = ms.system
    direct = crypto.build_cryptosystem(ms.semigroup, ms.rows, [str(u) for u in ms.units])
    assert sys_ == direct
    assert sys_.act.table == ms.rows
    assert sys_.act.point_labels == direct.act.point_labels
    assert sys_.key_table == direct.key_table
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
    swap = [1, 0, 2, 3, 4, 5]
    constant = [[0] * 6 for _ in S.elements]
    swapped = [[swap[(swap[x] + s) % 6] for s in S.elements] for x in S.elements]
    for right, kind in ((constant, NotCancellative), (swapped, NotAssociativeAction)):
        error = reference_biact_error(S, rows, right)
        assert isinstance(error, kind)
        assert outcome(crypto.build_biact, S, rows, right) == expected(error)
