"""The lemma-verification suites must come back clean over the corpus,
must fail when the library returns a wrong result, and the one statement
we had to repair is pinned by its counterexample."""

import ast
import dataclasses
import functools
import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest

from edense import acts, closures, construction, core, cosets, crypto, verify
from edense.errors import OrderTooLarge
from edense.report import Finding

from conftest import cyclic_table, fx

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", construction.FIXTURE_NAMES)
def test_per_fixture_suites(name):
    failures = [f for f in verify.suites_for_table(fx(name)) if not f.passed]
    assert not failures, "\n".join(f.line() for f in failures)


def ref_closure_on_idempotents_violations(S):
    """``verify._closure_on_idempotents_violations`` over all 2^|E| subsets."""
    E = sorted(core.idempotents(S))
    for r in range(len(E) + 1):
        for sub in combinations(E, r):
            A = frozenset(sub)
            if closures.omega_m(S, A) != closures.omega_h(S, A):
                return f"A <= E but closures differ at {sorted(A)}"


def test_closures_on_idempotents_are_checked_on_the_singletons(monkeypatch):
    Zk = [core.build_semigroup(cyclic_table(k)) for k in range(1, 7)]
    tables = (
        list(verify._small_tables())
        + [fx(name) for name in construction.FIXTURE_NAMES]
        + [construction.adjoined_band_semigroup(G) for G in Zk]
    )
    for S in tables:
        assert verify._closure_on_idempotents_violations(S) is None
        assert ref_closure_on_idempotents_violations(S) is None
    # a stand-in omega_m, still a union of up-sets, that moves 0 in or out
    # of the up-set of the largest idempotent: both scans fail there
    witnesses = set()
    for S in tables:
        e = max(core.idempotents(S))
        ups = {a: up ^ {0} if a == e else up for a, up in S.structure.natural_up.items()}
        monkeypatch.setattr(closures, "omega_m", lambda S, A, ups=ups: frozenset().union(*map(ups.get, A)))
        got = verify._closure_on_idempotents_violations(S)
        assert got == ref_closure_on_idempotents_violations(S) == f"A <= E but closures differ at {[e]}"
        witnesses.add(e)
    assert len(witnesses) > 3


def test_small_order_sweep():
    (f,) = verify.small_order_sweep()
    assert f.passed, f.witness
    assert f.witness == "122 tables checked"


def test_small_tables_are_enumerated_once_per_run(monkeypatch):
    # the enumeration-count check and the small-order sweep read one pass
    # over each order
    calls = []
    real = construction.enumerate_semigroups
    monkeypatch.setattr(construction, "enumerate_semigroups", lambda n: calls.append(n) or real(n))
    verify._small_tables.cache_clear()
    verify.corpus_findings()
    assert calls == [1, 2, 3]


def chain(n):
    return core.build_semigroup([[min(i, j) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize(
    "S, reason",
    [
        (chain(13), "order beyond the desk-scale bound"),
        (fx("LZ2"), "idempotents not a semilattice"),
    ],
    ids=["chain13", "LZ2"],
)
def test_gate_skips_with_its_reason(S, reason):
    t = verify._tag(S)
    assert verify.suite_acts(S) == [Finding(f"acts.skipped{t}", True, reason)]
    assert verify.suite_cosets(S) == [Finding(f"cosets.skipped{t}", True, reason)]
    assert verify._lemma_subsemigroups(S) == ()


def test_construction_suite():
    failures = [f for f in verify.suite_construction() if not f.passed]
    assert not failures, "\n".join(f.line() for f in failures)


def test_crypto_suite():
    failures = [f for f in verify.suite_crypto() if not f.passed]
    assert not failures, "\n".join(f.line() for f in failures)


def test_weak_inverse_conjugation_needs_mutual_inverse():
    # For a bare weak inverse s' of s, W(s') = sW(s)s can fail: in the
    # 3-chain semilattice, 0 is a weak inverse of 1, W(0) = {0}, yet
    # 1*W(1)*1 = {0, 1}.  The equality does hold for mutual inverses,
    # which is all the downstream structure theory uses.
    S = fx("CHAIN3")
    assert 0 in core.weak_inverses(S, 1)
    assert 0 not in core.inverse_sets(S, 1).V
    assert core.weak_inverses(S, 0) == {0}
    assert core.set_mul(S, {1}, core.weak_inverses(S, 1), {1}) == {0, 1}
    for s in S.elements:
        for v in core.inverse_sets(S, s).V:
            assert core.weak_inverses(S, v) == core.set_mul(
                S, {s}, core.weak_inverses(S, s), {s}
            )


def test_e_dense_subsemigroups_refuses_large_orders():
    with pytest.raises(OrderTooLarge, match="subset scan limited to order 16, got 17"):
        closures.e_dense_subsemigroups(chain(closures.SUBSET_SCAN_BOUND + 1))


def ref_idempotent_closed_lemma_violations(S):
    # the lemma's loops with every test inside the loop over e
    if not core.classify_idempotents(S).is_semilattice or S.n > 12:
        return
    E = core.idempotents(S)
    for H in closures.e_dense_subsemigroups(S):
        Hc = closures.omega_h(S, H)
        for x in S.elements:
            for xp in core.weak_inverses(S, x):
                for e in E:
                    if S.prod(xp, e, x) in Hc and S.mul(xp, x) not in Hc:
                        yield f"part 1 at H={sorted(H)}, x={x}, x'={xp}, e={e}"
                        return
        for x, y in product(S.elements, repeat=2):
            for xp in core.weak_inverses(S, x):
                for yp in core.weak_inverses(S, y):
                    for e in E:
                        if (
                            S.prod(xp, e, y) in Hc
                            and S.mul(yp, y) in Hc
                            and S.mul(xp, y) not in Hc
                        ):
                            yield f"part 2 at H={sorted(H)}, x={x}, y={y}, e={e}"
                            return


def z_k_e(k):
    G = core.build_semigroup([[(i + j) % k for j in range(k)] for i in range(k)])
    return construction.adjoined_band_semigroup(G)


def lemma_tables():
    small = [S for n in (1, 2, 3) for S in construction.enumerate_semigroups(n)]
    return (
        [S for S in small if core.classify_idempotents(S).is_semilattice]
        + [fx(name) for name in construction.FIXTURE_NAMES]
        + [z_k_e(k) for k in range(1, 7)]
    )


def ref_mitsch_order_violations(S):
    """The natural-order check with one ``core.mitsch_leq`` call per pair
    and per triple."""
    els = S.elements
    for a in els:
        if not core.mitsch_leq(S, a, a):
            return f"not reflexive at {a}"
    for a, b in product(els, repeat=2):
        if a != b and core.mitsch_leq(S, a, b) and core.mitsch_leq(S, b, a):
            return f"not antisymmetric at ({a}, {b})"
    for a, b, c in product(els, repeat=3):
        if (
            core.mitsch_leq(S, a, b)
            and core.mitsch_leq(S, b, c)
            and not core.mitsch_leq(S, a, c)
        ):
            return f"not transitive at ({a}, {b}, {c})"


def test_mitsch_order_check_keeps_its_first_witness():
    # the real order of each table, and copies with one pair flipped in or
    # out, so that every kind of witness is compared
    rng = random.Random(0)
    kinds = set()
    for S in lemma_tables():
        down = S.structure.natural_down
        orders = [down]
        for _ in range(3):
            a, b = rng.choice(S.elements), rng.choice(S.elements)
            orders.append(down[:b] + (down[b] ^ {a},) + down[b + 1:])
        for order in orders:
            T = SimpleNamespace(elements=S.elements, structure=SimpleNamespace(natural_down=order))
            got = verify._mitsch_order_violations(T)
            assert got == ref_mitsch_order_violations(T), (S, order)
            kinds.add(got and got.split(" at ")[0])
    assert kinds == {None, "not reflexive", "not antisymmetric", "not transitive"}


PRODUCT_SCAN_CAP = 200000


def ref_act_map_exists(act, dst):
    """Whether some act map sends act to dst, trying all dst.carrier **
    act.carrier maps."""
    return any(
        acts.is_s_map(act, dst, list(candidate))
        for candidate in product(dst.points, repeat=act.carrier)
    )


def ref_graded_equivalence_converse(act, munn):
    """The converse of the graded-equivalence check as a product scan,
    run only up to ``PRODUCT_SCAN_CAP`` maps."""
    if munn.carrier ** act.carrier <= PRODUCT_SCAN_CAP and ref_act_map_exists(act, munn):
        return "ungraded act admits an act map to the idempotent act"


def suite_acts_collection(S):
    """The idempotent act of S and the acts ``verify.suite_acts`` checks."""
    wp, munn = acts.wagner_preston(S), acts.munn_act(S)
    return munn, [wp, munn] + [acts.subact(wp, sorted(O)) for O in wp.orbit_partition]


def is_graded(act):
    return isinstance(act.grading, acts.Grading)


def test_graded_equivalence_converse_agrees_with_the_product_scan():
    ungraded = graded = 0
    for S in lemma_tables():
        if verify._skip_reason(S):
            continue
        munn, collection = suite_acts_collection(S)
        for act in collection:
            if is_graded(act):
                # the scan stops at the first map; keep the graded acts
                # whose scan is short
                if munn.carrier ** act.carrier <= 4096:
                    assert verify._act_map_exists(act, munn) and ref_act_map_exists(act, munn)
                    graded += 1
                continue
            assert munn.carrier ** act.carrier <= PRODUCT_SCAN_CAP
            got = verify._graded_equivalence_violations(act, munn)
            assert got == ref_graded_equivalence_converse(act, munn), (S, act)
            assert verify._act_map_exists(act, munn) is ref_act_map_exists(act, munn) is False
            ungraded += 1
    assert ungraded == 93 and graded


def test_graded_equivalence_converse_runs_above_the_product_scan_cap():
    # three copies of the graded Wagner-Preston act of CHAIN3 and three
    # points no element acts on: 3**12 maps to the idempotent act
    S = fx("CHAIN3")
    wp, munn = acts.wagner_preston(S), acts.munn_act(S)
    dead = acts.validate_act(S, [[None] * 3 for _ in S.elements])
    ungraded = acts.disjoint_union(wp, wp, wp, dead)
    assert not is_graded(ungraded)
    assert munn.carrier ** ungraded.carrier > PRODUCT_SCAN_CAP
    assert ref_graded_equivalence_converse(ungraded, munn) is None  # scans nothing
    assert not verify._act_map_exists(ungraded, munn)
    assert verify._graded_equivalence_violations(ungraded, munn) is None
    # the graded orbits alone do map, and the per-orbit search sees it
    assert verify._act_map_exists(acts.disjoint_union(wp, wp, wp, wp), munn)


def test_coset_findings_fail_without_act_isomorphisms(monkeypatch):
    monkeypatch.setattr(acts, "find_act_isomorphism", lambda act1, act2: None)
    failed = {f.name: f.witness for f in verify.suite_cosets(fx("Z3E")) if not f.passed}
    assert failed == {
        "cosets.conjugacy-consistency[Z3E]": (
            "H=[0], K=[0]: conjugacy witness search and act isomorphism disagree"
        ),
        "cosets.orbit-stabilizer[Z3E]": (
            "orbit of 0 not isomorphic to the coset act of its stabilizer"
        ),
    }


# stand-ins for omega_h under which the lemma fails, so that witnesses are
# compared and not only empty outputs: with the identity part 1 fails, with
# every idempotent added part 1 holds and part 2 fails
CLOSURES = {
    "omega_h": (None, set()),
    "identity": (lambda S, A: frozenset(A), {"part 1"}),
    "adds-idempotents": (lambda S, A: frozenset(A) | core.idempotents(S), {"part 2"}),
}


@pytest.mark.parametrize("closure", CLOSURES)
def test_idempotent_closed_lemma_keeps_its_first_witness(monkeypatch, closure):
    stand_in, failing_parts = CLOSURES[closure]
    if stand_in is not None:
        monkeypatch.setattr(closures, "omega_h", stand_in)
    witnesses = []
    for S in lemma_tables():
        got = verify._idempotent_closed_lemma_violations(S)
        assert got == next(ref_idempotent_closed_lemma_violations(S), None), S
        if got is not None:
            witnesses.append(got)
    assert {w.split(" at ")[0] for w in witnesses} == failing_parts


def ref_closure_monotone_violations(S):
    # the monotonicity loop with omega_m called inside the loop over pairs
    fam = verify._subset_family(S)
    for A, B in product(fam, repeat=2):
        if A <= B and not closures.omega_m(S, A) <= closures.omega_m(S, B):
            return f"monotone fails at {sorted(A)} <= {sorted(B)}"
        if A <= closures.omega_m(S, B) and not (
            closures.omega_m(S, A) <= closures.omega_m(S, B)
        ):
            return f"A <= Bm but Am !<= Bm at {sorted(A)}, {sorted(B)}"


def _with_least_missing(S, A):
    missing = [s for s in S.elements if s not in A]
    return frozenset(A) | frozenset(missing[:1])


# stand-ins for omega_m: the complement reverses inclusion, so the monotone
# part fails; adding the least missing element keeps inclusion but is not
# idempotent, so only the "A <= Bm" part fails
M_CLOSURES = {
    "omega_m": (None, set()),
    "complement": (lambda S, A: frozenset(S.elements) - frozenset(A), {"monotone fails"}),
    "adds-least-missing": (_with_least_missing, {"A <= Bm but Am !<= Bm"}),
}


@pytest.mark.parametrize("closure", M_CLOSURES)
def test_monotonicity_check_keeps_its_first_witness(monkeypatch, closure):
    stand_in, failing_parts = M_CLOSURES[closure]
    if stand_in is not None:
        monkeypatch.setattr(closures, "omega_m", stand_in)
    tables = (
        [S for n in (1, 2, 3) for S in construction.enumerate_semigroups(n)]
        + [fx(name) for name in construction.FIXTURE_NAMES]
        + [z_k_e(k) for k in range(1, 7)]
    )
    assert len(tables) == 122 + len(construction.FIXTURE_NAMES) + 6
    witnesses = []
    for S in tables:
        got = verify._closure_monotone_violations(S)
        assert got == ref_closure_monotone_violations(S), S
        if got is not None:
            witnesses.append(got)
    assert {w.split(" at ")[0] for w in witnesses} == failing_parts


def test_monotonicity_check_closes_each_subset_once(monkeypatch):
    calls = []
    real = closures.omega_m
    monkeypatch.setattr(closures, "omega_m", lambda S, A: calls.append(A) or real(S, A))
    S = fx("Z6E")
    assert verify._closure_monotone_violations(S) is None
    assert len(calls) == len(verify._subset_family(S)) == 39


def test_key_space_check_finds_each_stabilizer_once(monkeypatch):
    # the stabilizers of an act are one record, filled once
    Z16 = core.build_semigroup(cyclic_table(16), name="Z16")
    sys_ = crypto.locally_free_system(construction.adjoined_band_semigroup(Z16))
    fills = []
    real = acts.PartialAct.stabilizers.func
    stabilizers = functools.cached_property(lambda act: fills.append(act) or real(act))
    stabilizers.__set_name__(acts.PartialAct, "stabilizers")
    monkeypatch.setattr(acts.PartialAct, "stabilizers", stabilizers)
    assert verify._key_space_violations([("Z16E", sys_)]) is None
    assert sys_.act.carrier == 16
    assert len(fills) == 1 and fills[0] is sys_.act


def count_subset_scans(monkeypatch):
    # each search for the subsemigroups of a table is one call
    scans = []
    real = closures._subsemigroup_search

    def counting(S):
        scans.append(S)
        return real(S)

    monkeypatch.setattr(closures, "_subsemigroup_search", counting)
    return scans


def test_suite_closures_scans_the_subsets_once(monkeypatch):
    scans = count_subset_scans(monkeypatch)
    verify.suite_closures(dataclasses.replace(fx("Z3E")))
    assert len(scans) == 1


def test_one_subset_scan_per_table(monkeypatch):
    # suite_closures and suite_cosets share the scan of the table
    scans = count_subset_scans(monkeypatch)
    S = dataclasses.replace(fx("Z3E"))
    verify.suites_for_table(S)
    assert len(scans) == 1
    subs = closures.e_dense_subsemigroups(S)
    assert isinstance(subs, tuple) and subs is closures.e_dense_subsemigroups(S)
    assert len(scans) == 1


# Each case breaks one library result the way a bug would, then runs the
# finding that checks it.  The checks are plain conditions in verify, so
# the finding fails with and without ``python -O``.


def _wrong_order_ideal(monkeypatch):
    real = acts.order_ideal
    monkeypatch.setattr(acts, "order_ideal", lambda S, e: real(S, e) - {e})
    return verify._order_ideal_violations(fx("CHAIN3"))


def _wrong_conjugacy_witness(monkeypatch):
    S = fx("Z6")
    bases = closures.closed_e_dense_subsemigroups(S)
    monkeypatch.setattr(cosets, "are_conjugate", lambda S, H, K: (0, 0))
    return verify._conjugacy_violations(S, bases)


def _swapped_rho_images(monkeypatch):
    S = fx("Z3E")
    bases = closures.closed_e_dense_subsemigroups(S)
    real = cosets.rho_representation

    def swapped(S, H):
        rho = real(S, H)
        perms = dict(rho.permutations)
        perms[1], perms[2] = perms[2], perms[1]
        return dataclasses.replace(rho, permutations=perms)

    monkeypatch.setattr(cosets, "rho_representation", swapped)
    return verify._self_conjugacy_violations(S, bases)


def _with_coset_act(rows_of):
    # a fresh Z3E whose coset act on H = {0, 3} has the rows rows_of(table)
    S = core.build_semigroup(fx("Z3E").table)
    H = frozenset({0, 3})
    space = cosets.coset_space(S, H)
    act = dataclasses.replace(space.act, table=rows_of(space.act.table))
    S.structure.coset_spaces[H] = dataclasses.replace(space, act=act)
    return verify._self_conjugacy_violations(S, closures.closed_e_dense_subsemigroups(S))


def _corrupted_coset_act_row(monkeypatch):
    # 4 lies in the coset {1, 4} and is given the row of 2
    return _with_coset_act(lambda table: (*table[:4], table[2], *table[5:]))


def _relabelled_coset_act(monkeypatch):
    # every row relabelled by swapping the cosets 1 and 2: rho keeps its
    # laws and kernel, and the quotient reads x, y -> y - x off the rows
    swap = (0, 2, 1)
    return _with_coset_act(
        lambda table: tuple(tuple(swap[row[swap[i]]] for i in range(3)) for row in table)
    )


def _swapped_displayed_map(monkeypatch):
    real = construction.adjoined_band_to_cu_map

    def swapped(G, k=2, name=""):
        S, cu, mapping = real(G, k, name)
        mapping[0], mapping[1] = mapping[1], mapping[0]
        return S, cu, mapping

    monkeypatch.setattr(construction, "adjoined_band_to_cu_map", swapped)
    (f,) = (
        f
        for f in verify.suite_construction()
        if f.name == "construction.direct-extension-matches-pair-monoid"
    )
    return None if f.passed else f.witness


def _flipped_decomposition(monkeypatch):
    real = crypto.classify_locally_free_cryptosystem

    def flipped(act):
        rep = real(act)
        return dataclasses.replace(
            rep, is_disjoint_union_of_base=not rep.is_disjoint_union_of_base
        )

    monkeypatch.setattr(crypto, "classify_locally_free_cryptosystem", flipped)
    return verify._classification_violations(verify._system_corpus())


def _wrong_key_space(monkeypatch):
    real = crypto.decrypt_key_space

    def without_largest_key(sys, x, key):
        K = real(sys, x, key)
        return K - {max(K)}

    monkeypatch.setattr(crypto, "decrypt_key_space", without_largest_key)
    return verify._key_space_violations(verify._system_corpus())


def _wrong_inverse(monkeypatch):
    # each element its own inverse: only the inverse and group forms read it
    real = core.inverse_sets
    monkeypatch.setattr(
        core, "inverse_sets", lambda S, s: dataclasses.replace(real(S, s), V=frozenset({s}))
    )
    return verify._key_space_violations(verify._system_corpus())


def _every_key_decrypts(monkeypatch):
    # K = S is closed and holds every triple, so only the band form can fail
    monkeypatch.setattr(
        crypto, "decrypt_key_space", lambda sys, x, key: frozenset(sys.semigroup.elements)
    )
    return verify._key_space_violations(verify._system_corpus())


def _left_dense_claimed_for_a_non_cancellative_act(monkeypatch):
    # on CHAIN3 every point is in its own image, but the subact {0, 1} is
    # locally cyclic and not transitive
    S = fx("CHAIN3")
    rows, _ = acts.left_mult_total(S)
    raw = acts.PartialAct(S, tuple(tuple(r) for r in rows))
    monkeypatch.setattr(crypto, "stabilizers_left_dense", lambda act: True)
    return verify._left_dense_violations([("CHAIN3", crypto.Cryptosystem(raw))])


def _stabilizer_outside_its_subsemigroup(monkeypatch):
    # Z3 acting by corrupted rows: the stabilizer of 0 is {0, 1}, which is
    # upward closed in a group but holds 1, and not 1*1 = 2
    S = fx("Z3")
    raw = acts.PartialAct(S, ((0, 1, 2), (0, 2, 1), (2, 0, 1)))
    assert raw.stabilizers[0] == {0, 1}
    return verify._stabilizer_closed_violations([("Z3", crypto.Cryptosystem(raw))])


WRONG_RESULTS = {
    "acts.order-ideal-forms": (_wrong_order_ideal, "e=0: [e] != W(e)"),
    "cosets.conjugacy-consistency": (
        _wrong_conjugacy_witness,
        "H=[0], K=[0, 3]: closure of s'Hs is not K, or of sKs' not H, at (0, 0)",
    ),
    "cosets.self-conjugacy-forms": (
        _swapped_rho_images,
        "H=[0, 3]: rho must be a homomorphism",
    ),
    "cosets.self-conjugacy-forms/act-row": (
        _corrupted_coset_act_row,
        "H=[0, 3]: rho must be a homomorphism",
    ),
    "cosets.self-conjugacy-forms/relabelled-act": (
        _relabelled_coset_act,
        "H=[0, 3]: the cosets do not form a group with identity H"
        " (table not associative at triple (1, 0, 0))",
    ),
    "construction.direct-extension-matches-pair-monoid": (
        _swapped_displayed_map,
        "Z2: map not multiplicative at (0, 0)",
    ),
    "crypto.classification-theorem": (
        _flipped_decomposition,
        "Z3: locally-free=True but copies-of-the-base-orbit=False",
    ),
    "crypto.key-space-theorem": (
        _wrong_key_space,
        "Z3: key-space-contains-closed-triple fails (s=0 x=0)",
    ),
    "crypto.key-space-theorem/band-form": (
        _every_key_decrypts,
        "Z3: key-space-equals-h-closed-triple fails (s=0 x=0)",
    ),
    "crypto.key-space-theorem/inverse-form": (
        _wrong_inverse,
        "Z3: key-space-inverse-form fails (s=1 x=0)",
    ),
    "crypto.left-dense-equivalences": (
        _left_dense_claimed_for_a_non_cancellative_act,
        "CHAIN3: left-dense-equivalences (True,False,False)",
    ),
    "crypto.stabilizers-closed": (
        _stabilizer_outside_its_subsemigroup,
        "Z3: stabilizer of 0 not an E-dense subsemigroup",
    ),
}


@pytest.mark.parametrize("name", WRONG_RESULTS)
def test_finding_fails_on_a_wrong_library_result(monkeypatch, name):
    breaks, witness = WRONG_RESULTS[name]
    assert breaks(monkeypatch) == witness


def test_findings_fail_on_a_wrong_library_result_under_optimize():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [
            sys.executable,
            "-O",
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            f"{Path(__file__).name}::test_finding_fails_on_a_wrong_library_result",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=Path(__file__).parent,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"{len(WRONG_RESULTS)} passed" in done.stdout


def test_key_space_check_names_the_first_failing_part(monkeypatch):
    # B2's key spaces without their largest key are no longer closed upward
    _wrong_key_space(monkeypatch)
    (b2,) = [(name, sys_) for name, sys_ in verify._system_corpus() if name == "B2"]
    assert verify._key_space_violations([b2]) == "B2: key-space-m-closed fails (s=0 x=0)"


@pytest.mark.parametrize("m", [16, 17])
def test_left_dense_check_skips_carriers_above_16(monkeypatch, m):
    S = fx("Z2")
    sys_ = crypto.Cryptosystem(acts.validate_act(S, [list(range(m))] * 2))
    scanned = []
    real = crypto.stabilizers_left_dense
    monkeypatch.setattr(crypto, "stabilizers_left_dense", lambda act: scanned.append(act) or real(act))
    assert verify._left_dense_violations([(f"Z2 on {m} points", sys_)]) is None
    assert len(scanned) == (m <= 16)


def test_fixtures_match_extension_fails_on_a_wrong_extension(monkeypatch):
    # the finding computes G u eG from the group table, so a broken builder
    # of the Z3E and Z6E fixtures shows
    def null_extension(G, k=2, name=""):
        n = k * G.n
        return core.build_semigroup([[0] * n for _ in range(n)], name=name)

    monkeypatch.setattr(construction, "adjoined_band_semigroup", null_extension)
    construction.fixture.cache_clear()
    try:
        (f,) = (
            f
            for f in verify.suite_construction()
            if f.name == "construction.fixtures-match-extension"
        )
    finally:
        monkeypatch.undo()
        construction.fixture.cache_clear()
    assert not f.passed
    assert f.witness == "Z3E differs from the band extension of Z3"


def test_pair_monoid_check_rejects_a_wrong_monoid():
    C, action = construction.derived_category(fx("Z3"))
    cu = construction.c_u_monoid(C, action, 0)
    assert verify._pair_monoid_violations(C, action, cu) is None
    wrong = dataclasses.replace(cu, semigroup=fx("CHAIN3"))
    assert verify._pair_monoid_violations(C, action, wrong) == (
        "idempotents are not the pairs with trivial group part"
    )
    G = fx("Z2")
    C, action = construction.adjoin_band_category(G, 2)
    cu = construction.c_u_monoid(C, action, G.identity)
    assert verify._pair_monoid_violations(C, action, cu) is None
    units = [i for i, (p, g) in enumerate(cu.pairs) if g == G.identity]
    pairs = list(cu.pairs)
    pairs[units[0]], pairs[units[1]] = pairs[units[1]], pairs[units[0]]
    wrong = dataclasses.replace(cu, pairs=tuple(pairs))
    assert verify._pair_monoid_violations(C, action, wrong) == "identity is not (0_u, 1)"


def test_verify_checks_are_plain_functions():
    # each check returns its first witness or None; finding() reads no stream
    path = ROOT / "src" / "edense" / "verify.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        assert not isinstance(node, (ast.Yield, ast.YieldFrom)), f"{path.name}:{node.lineno}"


def test_no_handler_in_the_package_catches_assertion_error():
    # a check that only catches an AssertionError raised inside the library
    # checks nothing under python -O, which strips every assert
    for path in sorted((ROOT / "src" / "edense").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {getattr(t, "id", getattr(t, "attr", None)) for t in caught}
            assert "AssertionError" not in names, f"{path.name}:{node.lineno}"


def test_only_the_checking_modules_build_findings():
    # the library returns data: only verify, cli and report build findings
    # (the package root re-exports the report types as public names)
    allowed = {"verify.py", "cli.py", "report.py", "__init__.py"}
    for path in sorted((ROOT / "src" / "edense").glob("*.py")):
        if path.name in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in node.names]
                if isinstance(node, ast.ImportFrom) and node.module:
                    modules = [node.module]
                assert not any(m.split(".")[-1] == "report" for m in modules), where
            assert getattr(node, "id", getattr(node, "attr", None)) != "Finding", where


def test_orbit_subacts_are_read_from_the_act():
    # the subact on an orbit is built once, by PartialAct.orbit_act
    for name in ("verify.py", "crypto.py"):
        path = ROOT / "src" / "edense" / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                assert callee != "subact", f"{name}:{node.lineno}"


def record_forwarders(source):
    """The public module-level functions whose body, after the docstring,
    is one return of an attribute or subscript read of a parameter,
    possibly copied by a builtin such as ``list``."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        value = body[0].value
        if (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", None) in ("list", "tuple", "set", "frozenset", "sorted")
            and len(value.args) == 1
        ):
            value = value.args[0]
        if not isinstance(value, (ast.Attribute, ast.Subscript)):
            continue
        while isinstance(value, (ast.Attribute, ast.Subscript)):
            value = value.value
        params = {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
        if isinstance(value, ast.Name) and value.id in params:
            found.append(f"{node.name}:{node.lineno}")
    return found


def test_act_data_are_read_from_the_act():
    # an act's orbits, stabilizers, properties, grading and uniform keys are
    # read from its record; no module function of the modules that read
    # records only hands a record field back (core's queries over
    # S.structure are its documented API, and stay out)
    for name in ("acts.py", "crypto.py", "cosets.py", "closures.py", "construction.py"):
        path = ROOT / "src" / "edense" / name
        assert record_forwarders(path.read_text()) == [], name
    forwarder = "def orbits(act):\n    \"\"\"Doc.\"\"\"\n    return list(act.orbit_partition)\n"
    assert record_forwarders(forwarder) == ["orbits:1"]
    forwarder = "def uniform_keys(sys):\n    return sys.act.uniform_keys\n"
    assert record_forwarders(forwarder) == ["uniform_keys:1"]


# each memo on the structure record, with the one module that fills and reads it
MEMO_OWNERS = {
    "coset_spaces": "cosets",
    "conjugacy": "cosets",
    "subsemigroups": "closures",
    "wagner_preston_acts": "acts",
}


def memo_trespasses(source, module):
    """The lines of ``source``, the text of ``module``, that touch a memo of
    the structure record that another module owns; core only sets them up,
    in ``Structure.__init__``."""
    tree = ast.parse(source)
    setup = set()
    for cls in tree.body:
        if module == "core" and isinstance(cls, ast.ClassDef) and cls.name == "Structure":
            for func in cls.body:
                if isinstance(func, ast.FunctionDef) and func.name == "__init__":
                    setup.update(ast.walk(func))
    return [
        f"{module}.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and MEMO_OWNERS.get(node.attr, module) != module
        and node not in setup
    ]


def test_each_memo_of_the_structure_record_has_one_owner():
    # one module fills and reads each memo, so every caller shares what it
    # holds, and no caller hands a memoised record to another by hand
    for path in sorted((ROOT / "src" / "edense").glob("*.py")):
        assert memo_trespasses(path.read_text(), path.stem) == []
    S = core.build_semigroup([[0]])
    assert set(MEMO_OWNERS) <= set(vars(S.structure))
    assert all(not vars(S.structure)[memo] for memo in MEMO_OWNERS)
    stray = "def f(S):\n    return S.structure.wagner_preston_acts\n"
    assert memo_trespasses(stray, "crypto") == ["crypto.py:2"]
    assert memo_trespasses(stray, "acts") == []
    assert memo_trespasses(stray, "core") == ["core.py:2"]


def test_coset_bases_are_validated_by_the_coset_space_alone():
    # one memo per base: coset_space validates a base on a memo miss, and
    # every other coset query reads the validated base from the space
    path = ROOT / "src" / "edense" / "cosets.py"
    tree = ast.parse(path.read_text(), str(path))
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, func.name) for node in ast.walk(func))
    callers = [
        owner.get(node, "<module>")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "check_base"
    ]
    assert callers == ["coset_space"]
    for path in sorted((ROOT / "src" / "edense").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "bases":
                assert getattr(node.value, "attr", getattr(node.value, "id", None)) != "structure", (
                    f"{path.name}:{node.lineno}"
                )


def test_module_level_caches_are_the_three_known_ones():
    # derived data live on the semigroup or act they belong to and die with
    # it; no module-level cache keys on a table.  Every use of functools.cache
    # or lru_cache in the package must be one of these decorators.
    allowed = {"cli.build_parser", "construction.fixture", "verify._small_tables"}
    found, decorators, uses = set(), set(), set()
    for path in sorted((ROOT / "src" / "edense").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if getattr(node, "id", getattr(node, "attr", None)) in ("cache", "lru_cache"):
                uses.add((path.name, node.lineno, node.col_offset))
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) in ("cache", "lru_cache"):
                    found.add(f"{path.stem}.{node.name}")
                    decorators.add((path.name, target.lineno, target.col_offset))
    assert found == allowed
    assert uses == decorators


def test_the_only_asserts_are_the_two_known_invariants():
    # checks must not rest on asserts, which python -O strips; the two left
    # are internal invariants of a protocol run and of the Munn act
    allowed = ["acts.munn_act", "crypto.elgamal_rows"]
    found = []
    for path in sorted((ROOT / "src" / "edense").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # ast.walk visits outer functions first, so the innermost one owns each assert
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        found += [
            f"{path.stem}.{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == allowed


def test_finite_is_e_dense_names_an_element_without_its_power_witness():
    # not associative: 2*2 = 1 but (1*2)*1 = 0, so h^2 = 1 is no weak inverse
    # of h = 2, though every element has the weak inverse 0
    S = core.FiniteSemigroup(((0, 0, 0), (0, 0, 1), (0, 0, 1)))
    assert core.is_e_dense(S)
    assert verify._e_dense_violations(S) == "h^2 is not a weak inverse of h=2"


def test_construction_findings_check_hom_sizes_at_every_object(monkeypatch):
    # one morphism too many in each hom-set leaving object 1, which is not
    # the base object of any pair monoid the findings build
    real = construction.FiniteCategory.hom
    monkeypatch.setattr(
        construction.FiniteCategory, "hom", lambda C, u, v: real(C, u, v) + [0] * (u == 1)
    )
    assert verify._derived_category_violations() == (
        "derived category of Z2 has fat hom-sets at u=1, g=0"
    )
    assert verify._adjoined_band_violations() == "Z2, k=2: hom-set size wrong at u=1, g=0"
