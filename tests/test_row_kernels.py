"""The row-level validators, up-sets and stabilizers against per-entry oracles.

The validators test a whole row with one builtin call and rescan a failing
row entry by entry.  The ``ref_*`` functions below are the per-entry loops
they replaced, kept here as the oracle: on seeded malformed inputs each
validator must raise the same error class with the same witness, and on
valid inputs return the same object.  The up-sets, the omega-closures
built from them and the act's stabilizers are checked against the
definitions they transpose.
"""

import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from edense import acts, closures, construction, core, cosets, crypto, verify
from edense.core import FiniteSemigroup
from edense.errors import (
    BadIdentityHint,
    BadSubsemigroup,
    CompositionViolation,
    NoDecryptKey,
    NonAssociative,
    NotCancellative,
    NotReflexive,
    OutOfRangeEntry,
    ParseError,
    PreconditionFailed,
    WorkbenchError,
)

from conftest import SEMILATTICE_FIXTURES, fx

ROOT = Path(__file__).resolve().parents[1]


# --- the per-entry loops ------------------------------------------------------


def ref_find_identity(table):
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            return e
    return None


def ref_check_range(rows, bound):
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if type(v) is not int or v not in range(bound):
                raise OutOfRangeEntry(i, j, v)


def ref_build_semigroup(rows, identity_hint=None, labels=None, name=""):
    table = tuple(tuple(row) for row in rows)
    n = len(table)
    if n == 0:
        raise ParseError(1, "empty table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise OutOfRangeEntry(i, len(row), -1)
        for j, v in enumerate(row):
            # an id is an int: 0.0 equals 0, but would fail as an index
            if type(v) is not int or v not in range(n):
                raise OutOfRangeEntry(i, j, v)
    identity = ref_find_identity(table)
    labels = None if labels is None else tuple(labels)
    S = FiniteSemigroup(table, identity, labels, name)
    witness = core._composition_witness(S, table)
    if witness:
        raise NonAssociative(*witness)
    if identity_hint is not None and identity_hint != identity:
        raise BadIdentityHint(identity_hint)
    if labels is not None and len(labels) != n:
        raise PreconditionFailed("labels", f"{len(labels)} labels for order {n}")
    return S


def ref_validate_act(S, rows, point_labels=None):
    table = tuple(tuple(row) for row in rows)
    if len(table) != S.n:
        raise PreconditionFailed("act_shape", f"{len(table)} rows for order {S.n}")
    m = len(table[0]) if table else 0
    for s, row in enumerate(table):
        if len(row) != m:
            raise PreconditionFailed("act_shape", f"row {s} has {len(row)} entries, expected {m}")
        for x, v in enumerate(row):
            # an entry is None or an int by type: True and 0.0 equal ids
            if v is not None and not (type(v) is int and 0 <= v < m):
                raise OutOfRangeEntry(s, x, v)
    witness = core._composition_witness(S, table)
    if witness:
        s, t, x = witness
        via = None if table[t][x] is None else table[s][table[t][x]]
        direct = table[S.mul(s, t)][x]
        if (direct is None) != (via is None):
            raise CompositionViolation(s, t, x, "(one side defined, the other not)")
        raise CompositionViolation(s, t, x, f"({direct} != {via})")
    for s, row in enumerate(table):
        defined = [v for v in row if v is not None]
        if len(set(defined)) != len(defined):
            seen = {}
            for x, v in enumerate(row):
                if v is None:
                    continue
                if v in seen:
                    raise NotCancellative(s, seen[v], x)
                seen[v] = x
    domains = [sum(1 << x for x, v in enumerate(row) if v is not None) for row in table]
    for s, row in enumerate(table):
        reached = 0
        for w in core.weak_inverses(S, s):
            reached |= domains[w]
        for x, v in enumerate(row):
            if v is not None and not reached >> v & 1:
                raise NotReflexive(s, x)
    return acts.PartialAct(S, table, tuple(point_labels) if point_labels else None)


def outcome(fn, *args):
    """The value of fn(*args), or the class and message of what it raised."""
    try:
        return fn(*args)
    except (WorkbenchError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


# --- seeded malformed inputs --------------------------------------------------


def _base_acts():
    """Partial acts (Wagner-Preston and Munn acts of the semilattice
    fixtures) and total ones (canonical systems, a modexp cipher), as
    (semigroup, rows)."""
    out = []
    for name in SEMILATTICE_FIXTURES:
        S = fx(name)
        out += [(S, acts.wagner_preston(S).table), (S, acts.munn_act(S).table)]
        out.append((S, crypto.locally_free_system(S).act.table))
    ms = crypto.modexp_system(13)
    out.append((ms.semigroup, ms.rows))
    return out


def _malformed(rows, kind, rng):
    """A copy of rows with one seeded defect of the given kind, or None
    when rows cannot carry it."""
    rows = [list(r) for r in rows]
    m = len(rows[0])
    s = rng.randrange(len(rows))
    if kind == "short":
        if not rows[s]:
            return None
        del rows[s][rng.randrange(m)]
        return rows
    cells = [(s, x) for s in range(len(rows)) for x in range(m) if rows[s][x] is not None]
    if not cells:
        return None
    s, x = rng.choice(cells)
    if kind == "too-large":
        rows[s][x] = m + rng.randrange(3)
    elif kind == "negative":
        rows[s][x] = -1 - rng.randrange(3)
    elif kind == "none-in-total":
        if any(None in r for r in rows):
            return None
        rows[s][x] = None
    elif kind == "repeated":
        others = [y for y in range(m) if y != x and rows[s][y] is not None]
        if not others:
            return None
        rows[s][x] = rows[s][rng.choice(others)]
    return rows


KINDS = ("short", "too-large", "negative", "none-in-total", "repeated")


@pytest.mark.parametrize("kind", KINDS)
def test_validate_act_names_the_witness_of_the_entry_loops(kind):
    rng = random.Random(f"act-{kind}")
    raised = set()
    for S, rows in _base_acts():
        for _ in range(6):
            bad = _malformed(rows, kind, rng)
            if bad is None:
                continue
            want = outcome(ref_validate_act, S, bad)
            assert outcome(acts.validate_act, S, bad) == want, (S.name, bad)
            if isinstance(want, tuple):
                raised.add(want[0])
    # each kind of defect is refused, by its own check or an earlier one
    assert raised, kind
    expected = {
        "short": PreconditionFailed,
        "too-large": OutOfRangeEntry,
        "negative": OutOfRangeEntry,
    }
    if kind in expected:
        assert expected[kind] in raised


def test_validate_act_refuses_repeated_values_like_the_entry_loop():
    """Left multiplication keeps the composition law, so a table with a
    repeated value in a row reaches the cancellativity check."""
    raised = set()
    for table in _tables():
        S = core.build_semigroup(table)
        rows, _ = acts.left_mult_total(S)
        want = outcome(ref_validate_act, S, rows)
        assert outcome(acts.validate_act, S, rows) == want, table
        if isinstance(want, tuple):
            raised.add(want[0])
    assert raised == {NotCancellative}


def test_validate_act_agrees_on_every_small_partial_table():
    """Every table with entries in {None, 0, ..m-1}, and one out of range,
    over small semigroups: the same act or the same first error, the
    unreachable values (NotReflexive) among them."""
    raised = set()
    for name, m in product(("N2", "LZ2", "Z2", "CHAIN3"), (1, 2)):
        S = fx(name)
        values = (None, *range(m))
        for flat in product(values, repeat=S.n * m):
            rows = [list(flat[s * m:(s + 1) * m]) for s in S.elements]
            want = outcome(ref_validate_act, S, rows)
            assert outcome(acts.validate_act, S, rows) == want, (name, rows)
            if isinstance(want, tuple):
                raised.add(want[0])
            rows[-1][-1] = m
            want = outcome(ref_validate_act, S, rows)
            assert outcome(acts.validate_act, S, rows) == want, (name, rows)
            raised.add(want[0])
    assert {NotReflexive, NotCancellative, CompositionViolation, OutOfRangeEntry} <= raised


def test_validate_act_converts_entries_like_the_entry_loop():
    # no entry is converted: one that is not None or an int id is refused
    S = fx("Z2")
    for rows in (
        [[True, 0], [0, 1]],
        [[0.0, 1], [1, 0]],
        [["1", "0"], [0, 1]],
        [["x", 0], [0, 1]],
        [[0, None], [None, 0]],
        iter([iter([0, 1]), iter([1, 0])]),
    ):
        rows = [list(r) for r in rows]
        assert outcome(acts.validate_act, S, rows) == outcome(ref_validate_act, S, rows), rows


def _tables():
    small = [S.table for n in (1, 2, 3) for S in construction.enumerate_semigroups(n)]
    return small + [fx(name).table for name in construction.FIXTURE_NAMES]


@pytest.mark.parametrize("kind", ("short", "too-large", "negative"))
def test_build_semigroup_names_the_witness_of_the_entry_loops(kind):
    rng = random.Random(f"table-{kind}")
    for table in _tables():
        bad = _malformed(table, kind, rng)
        want = outcome(ref_build_semigroup, bad)
        assert isinstance(want, tuple), bad
        assert outcome(core.build_semigroup, bad) == want, bad


def test_build_semigroup_agrees_on_valid_and_odd_tables():
    for table in _tables():
        assert core.build_semigroup(table) == ref_build_semigroup(table)
    for rows in ([[0.0]], [[True]], [[float("nan")]], [[1.5, 0], [0, 1]], [[0, 1], [1]], [[0, [1]], [1, 0]]):
        assert outcome(core.build_semigroup, rows) == outcome(ref_build_semigroup, rows), rows
    # 1.5 and 0.0 are no ids: refused by the range check, not at indexing
    assert outcome(core.build_semigroup, [[1.5, 0], [0, 1]]) == (
        OutOfRangeEntry,
        "entry [0][0] = 1.5 out of range",
    )
    assert outcome(core.build_semigroup, [[0.0]]) == (OutOfRangeEntry, "entry [0][0] = 0.0 out of range")


@pytest.mark.parametrize("odd", (None, "1", 0.0))
def test_entries_that_are_not_ints_are_out_of_range_at_every_entry_point(odd):
    # an id is tested by type as well as by membership, so an entry that
    # cannot be compared with an int, or that equals one but indexes
    # nothing (0.0), is refused by name, not by a TypeError
    want = (OutOfRangeEntry, f"entry [0][1] = {odd!r} out of range")
    Z2 = fx("Z2")
    assert outcome(core.build_semigroup, [[0, odd], [1, 0]]) == want
    sys_ = crypto.build_cryptosystem(Z2, Z2.table)
    assert outcome(crypto.build_biact, sys_, [[0, odd], [1, 0]]) == want
    assert outcome(construction.build_category, 2, [(0, odd), (1, 1)], {}) == want
    assert outcome(construction.build_category, 1, [(0, 0)], {(0, odd): 0}) == (
        OutOfRangeEntry, f"entry [0][{odd}] = 0 out of range"
    )
    assert outcome(construction.build_category, 1, [(0, 0)], {(0, 0): odd}) == (
        OutOfRangeEntry, f"entry [0][0] = {odd!r} out of range"
    )
    C = construction.build_category(
        1, [(0, 0), (0, 0)], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    )
    assert outcome(construction.validate_group_action, C, Z2, [[0], [0]], [[0, odd], [0, 1]]) == want
    action = construction.validate_group_action(C, Z2, [[0], [0]], [[0, 1], [0, 1]])
    assert outcome(construction.c_u_monoid, C, action, odd) == (
        PreconditionFailed, f"precondition failed: base_object {odd} is not one of the 1 objects"
    )
    # a fresh table, whose memos hold no base or carrier equal to {0.0}
    S = core.build_semigroup(Z2.table)
    assert outcome(cosets.coset_space, S, {odd}) == (
        BadSubsemigroup,
        f"subset is not a closed E-dense subsemigroup: member out of range (witness {[odd]})",
    )
    # the least value outside the ids is named, ints first
    carrier = (PreconditionFailed, f"precondition failed: carrier {odd} is not an element id 0..1")
    assert outcome(acts.left_mult_total, S, [1, odd]) == carrier
    assert outcome(acts.wagner_preston, S, [1, odd]) == carrier
    assert outcome(acts.wagner_preston, S, [1, odd, -1]) == (
        PreconditionFailed, "precondition failed: carrier -1 is not an element id 0..1"
    )
    # with a base, a carrier and a conjugacy answer stored that equal {0.0}
    # and [1, 0.0], the members are still refused by type, on every call
    cosets.coset_space(S, {0})
    acts.wagner_preston(S, [1, 0])
    cosets.are_conjugate(S, {0}, {0})
    bad_base = (
        BadSubsemigroup,
        f"subset is not a closed E-dense subsemigroup: member out of range (witness {[odd]})",
    )
    for _ in range(2):
        assert outcome(cosets.coset_space, S, {odd}) == bad_base
        assert outcome(cosets.are_conjugate, S, {odd}, {0}) == bad_base
        assert outcome(cosets.are_conjugate, S, {0}, {odd}) == bad_base
        assert outcome(acts.wagner_preston, S, [1, odd]) == carrier
    assert set(S.structure.coset_spaces) == {frozenset({0})}
    assert set(S.structure.wagner_preston_acts) == {frozenset({0, 1})}

    def refused(kind, what):
        return PreconditionFailed, f"precondition failed: {kind} {odd} is not one of the 2 {what}"

    assert outcome(crypto.decrypt_key_space, sys_, odd, 0) == refused("point", "points")
    assert outcome(crypto.decrypt_key_space, sys_, 0, odd) == refused("key", "keys")
    assert outcome(crypto.massey_omura, sys_, odd, 0, 0) == refused("plaintext", "points")
    assert outcome(crypto.discrete_log_candidates, sys_, 0, odd) == refused("point", "points")


def test_unhashable_members_are_refused_like_other_non_ids():
    # the memo key would be a frozenset of the members; an unhashable one
    # is refused by name first, as on a memo miss
    S = core.build_semigroup(fx("Z2").table)
    bad_base = (
        BadSubsemigroup,
        "subset is not a closed E-dense subsemigroup: member out of range (witness [[3]])",
    )
    assert outcome(cosets.coset_space, S, [[3]]) == bad_base
    assert outcome(cosets.are_conjugate, S, [[3]], {0}) == bad_base
    assert outcome(acts.wagner_preston, S, [[3]]) == (
        PreconditionFailed, "precondition failed: carrier [3] is not an element id 0..1"
    )
    assert outcome(cosets.coset_space, S, [0.0, 0.0, 1]) == (
        BadSubsemigroup,
        "subset is not a closed E-dense subsemigroup: member out of range (witness [0.0])",
    )


def test_check_range_names_the_witness_of_the_entry_loop():
    rng = random.Random("range")
    for _ in range(200):
        bound = rng.randrange(1, 6)
        rows = [
            [
                rng.randrange(-1, bound + 1) if rng.random() < 0.9 else rng.choice([None, "1", 0.0, True])
                for _ in range(rng.randrange(4))
            ]
            for _ in range(rng.randrange(1, 5))
        ]
        assert outcome(core._check_range, rows, bound) == outcome(ref_check_range, rows, bound)


def test_find_identity_matches_its_definition_on_every_small_table():
    tables = [S.table for n in (1, 2, 3) for S in construction.enumerate_semigroups(n)]
    assert len(tables) == 122
    for table in tables + [fx(name).table for name in construction.FIXTURE_NAMES]:
        n = len(table)
        two_sided = [
            e for e in range(n)
            if all(table[e][x] == x and table[x][e] == x for x in range(n))
        ]
        assert core._find_identity(table) == (two_sided[0] if two_sided else None), table
        assert core._find_identity(table) == ref_find_identity(table), table


# --- up-sets and closures -----------------------------------------------------


def _structure_cases():
    small = [S for n in (1, 2, 3) for S in construction.enumerate_semigroups(n)]
    return small + [core.build_semigroup(fx(n).table, name=n) for n in construction.FIXTURE_NAMES]


def test_up_sets_are_the_transposed_down_sets():
    for S in _structure_cases():
        st = S.structure
        for up, down in ((st.h_up, st.h_down), (st.natural_up, st.natural_down)):
            assert len(up) == S.n
            for a, b in product(S.elements, repeat=2):
                assert (b in up[a]) is (a in down[b]), (S.table, a, b)


def ref_omega(down, S, A):
    A = frozenset(A)
    return frozenset(s for s in S.elements if not down[s].isdisjoint(A))


def test_closures_of_odd_arguments_match_the_down_set_scan():
    for S in _structure_cases():
        n, st = S.n, S.structure
        for A in ([], [0], [-1], [n], [-1, n], [0, -1, n], list(S.elements), [n - 1, n + 5]):
            for make in (list, set, iter, lambda A: (a for a in A)):
                got_h = closures.omega_h(S, make(A))
                got_m = closures.omega_m(S, make(A))
                assert got_h == ref_omega(st.h_down, S, A), (S.table, A)
                assert got_m == ref_omega(st.natural_down, S, A), (S.table, A)
                assert type(got_h) is type(got_m) is frozenset


# --- stabilizers ----------------------------------------------------------------


def ref_stabilizers(act):
    """One column scan per point."""
    return tuple(
        frozenset(s for s in act.semigroup.elements if act.table[s][x] == x)
        for x in act.points
    )


def test_stabilizers_match_the_column_scan_on_every_corpus_act(monkeypatch):
    built = []
    for make in ("validate_act", "subact", "disjoint_union"):
        real = getattr(acts, make)

        def record(*args, _real=real, **kwargs):
            act = _real(*args, **kwargs)
            built.append(act)
            return act

        monkeypatch.setattr(acts, make, record)
    # fresh fixtures, so that no act comes from a record filled earlier
    construction.fixture.cache_clear()
    try:
        assert all(f.passed for f in verify.corpus_findings())
    finally:
        construction.fixture.cache_clear()
    assert len(built) > 50
    for act in built:
        assert act.stabilizers == ref_stabilizers(act)


PRIMES_TO_257 = [p for p in range(2, 258) if all(p % d for d in range(2, p))]


def test_stabilizers_match_the_column_scan_on_modexp_systems():
    assert len(PRIMES_TO_257) == 55
    for p in PRIMES_TO_257:
        act = crypto.modexp_system(p).system.act
        assert act.stabilizers == ref_stabilizers(act), p


# --- protocols refuse a plaintext that is not a point ---------------------------


@pytest.mark.parametrize("protocol", ("mo", "elgamal"))
def test_protocols_refuse_a_plaintext_outside_the_points(protocol):
    sys_ = crypto.locally_free_system(fx("Z3E"))
    key = min(s for s in sys_.semigroup.elements if crypto.uniform_decrypt_keys(sys_, s))
    run = crypto.massey_omura if protocol == "mo" else crypto.elgamal
    keys = (key,) * (2 if protocol == "mo" else 3)
    for x in (-1, sys_.act.carrier):
        with pytest.raises(PreconditionFailed, match="plaintext"):
            run(sys_, x, *keys)
    # every point is still accepted
    assert all(run(sys_, x, *keys).ok for x in sys_.act.points)


@pytest.mark.parametrize("protocol", ("mo", "elgamal"))
def test_protocols_refuse_every_plaintext_of_a_system_without_points(protocol):
    # no key has a uniform decrypt key on no points, and the keys are
    # found before the plaintext is read, as test_crypto pins for Massey-Omura
    S = fx("Z3E")
    empty = crypto.build_cryptosystem(S, [[] for _ in S.elements])
    run = crypto.massey_omura if protocol == "mo" else crypto.elgamal
    for x in (-1, 0, 1):
        with pytest.raises(NoDecryptKey):
            run(empty, x, *(4,) * (2 if protocol == "mo" else 3))


# --- a coset space that is not closed under the action is a finding -----------

COSET_MUTANT = """
import inspect, sys
from edense import cli, cosets
source = inspect.getsource(cosets.coset_space)
mutant = source.replace("core.set_mul(S, {s}, H))\\n", "core.set_mul(S, H, {s}))\\n", 1)
assert mutant != source
namespace = dict(vars(cosets))
exec(compile(mutant, cosets.__file__, "exec"), namespace)
cosets.coset_space = namespace["coset_space"]
sys.exit(cli.main(["verify", "--corpus", "--json"]))
"""


def test_coset_mutant_ends_in_a_failing_finding_not_a_traceback():
    """The cosets built as closures of H*s instead of s*H: the action then
    sends a coset outside the listed ones, which ``coset_space`` refuses
    with ``WellDefinednessViolation``.  Run in a child interpreter, so the
    mutant leaves no record behind."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", COSET_MUTANT],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    report = json.loads(done.stdout)
    failing = [f for f in report["findings"] if not f["pass"]]
    assert [f["name"] for f in failing] == ["WellDefinednessViolation"]
    assert "not a coset" in failing[0]["witness"]
