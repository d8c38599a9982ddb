"""The lemma-verification suites must come back clean over the corpus,
and the one statement we had to repair is pinned by its counterexample."""

from itertools import product

import pytest

from edense import closures, construction, core, verify
from edense.errors import OrderTooLarge

from conftest import fx


@pytest.mark.parametrize("name", construction.FIXTURE_NAMES)
def test_per_fixture_suites(name):
    failures = [f for f in verify.suites_for_table(fx(name)) if not f.passed]
    assert not failures, "\n".join(f.line() for f in failures)


def test_small_order_sweep():
    (f,) = verify.small_order_sweep()
    assert f.passed, f.witness
    assert f.witness == "122 tables checked"


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
    n = closures.SUBSET_SCAN_BOUND + 1
    chain = core.build_semigroup([[min(i, j) for j in range(n)] for i in range(n)])
    with pytest.raises(OrderTooLarge, match="subset scan limited to order 16, got 17"):
        verify.e_dense_subsemigroups(chain)


def ref_idempotent_closed_lemma_violations(S):
    # the lemma's loops with every test inside the loop over e
    if not core.classify_idempotents(S).is_semilattice or S.n > 12:
        return
    E = core.idempotents(S)
    for H in verify.e_dense_subsemigroups(S):
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
        got = list(verify._idempotent_closed_lemma_violations(S))
        assert got == list(ref_idempotent_closed_lemma_violations(S)), S
        witnesses += got
    assert {w.split(" at ")[0] for w in witnesses} == failing_parts
