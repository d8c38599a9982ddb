"""Coset spaces, conjugacy, quotient groups and the permutation
representation on cosets."""

import functools

import pytest

from edense import acts, closures, construction, core, cosets, verify
from edense.cli import main
from edense.errors import BadSubsemigroup, NotSelfConjugate

from conftest import cyclic_table, fx

H03 = frozenset({0, 3})


def test_pi_h_examples():
    S = fx("Z3E")
    assert cosets.pi_h_related(S, H03, 1, 4)
    assert not cosets.pi_h_related(S, H03, 1, 2)
    for h1 in H03:
        for h2 in H03:
            assert cosets.pi_h_related(S, H03, h1, h2)


def test_check_base_names_failures():
    S = fx("Z3E")
    with pytest.raises(BadSubsemigroup, match="upward closed"):
        cosets.check_base(S, {3})
    with pytest.raises(BadSubsemigroup, match="product"):
        cosets.check_base(fx("N2"), {1})
    with pytest.raises(BadSubsemigroup, match="empty"):
        cosets.check_base(S, set())


def test_bad_base_raises_on_every_call():
    S = core.build_semigroup(fx("Z3E").table)
    messages = []
    for _ in range(2):
        with pytest.raises(BadSubsemigroup, match="upward closed") as exc:
            cosets.check_base(S, {3})
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    with pytest.raises(BadSubsemigroup):
        cosets.coset_space(S, {3})


def test_corpus_validates_each_base_once(capsys, monkeypatch):
    # fresh fixtures, so that no earlier test has validated their bases
    monkeypatch.setattr(
        construction, "fixture", functools.lru_cache(construction.fixture.__wrapped__)
    )
    calls, validations, depth = [], [], [0]
    check_base, is_subsemigroup = cosets.check_base, core.is_subsemigroup

    def counting_check_base(S, H):
        calls.append((S, frozenset(H)))  # keeps S alive, so its id is not reused
        depth[0] += 1
        try:
            return check_base(S, H)
        finally:
            depth[0] -= 1

    def counting_is_subsemigroup(S, H):
        if depth[0]:
            validations.append((id(S), frozenset(H)))
        return is_subsemigroup(S, H)

    monkeypatch.setattr(cosets, "check_base", counting_check_base)
    monkeypatch.setattr(core, "is_subsemigroup", counting_is_subsemigroup)
    assert main(["verify", "--corpus", "--json"]) == 0
    capsys.readouterr()
    distinct = {(id(S), H) for S, H in calls}
    assert len(validations) == len(set(validations)) == len(distinct) == 27
    assert len(calls) == len(distinct)


def test_coset_examples():
    S = fx("Z3E")
    c = cosets.coset(S, H03, 1)
    assert c.members == {1, 4}
    assert cosets.coset(S, H03, 0).members == H03
    assert cosets.coset(S, H03, 3).members == H03


def test_coset_absent_outside_domain():
    S = fx("CHAIN3")
    assert cosets.coset(S, {2}, 0) is None
    assert cosets.coset(S, {2}, 2).members == {2}


def test_coset_space_band_extension():
    S = fx("Z3E")
    space = cosets.coset_space(S, H03)
    assert [sorted(c.members) for c in space.cosets] == [[0, 3], [1, 4], [2, 5]]
    assert space.domain == frozenset(range(6))
    assert space.act.properties.transitive


def test_coset_space_group_subgroup():
    space = cosets.coset_space(fx("Z6"), {0, 2, 4})
    assert [sorted(c.members) for c in space.cosets] == [[0, 2, 4], [1, 3, 5]]


def test_coset_space_chain():
    space = cosets.coset_space(fx("CHAIN3"), {2})
    assert [sorted(c.members) for c in space.cosets] == [[2]]
    assert space.domain == {2}


def test_conjugacy_self_witness():
    S = fx("Z3E")
    w = cosets.are_conjugate(S, H03, H03)
    assert w is not None
    s, sp = w
    assert sp in core.weak_inverses(S, s)


def test_conjugacy_distinct_subgroups_absent():
    S = fx("Z6")
    assert cosets.are_conjugate(S, {0, 2, 4}, {0, 3}) is None


def test_conjugacy_b2_corners():
    S = fx("B2")
    w = cosets.are_conjugate(S, frozenset({3}), frozenset({4}))
    assert w is not None
    s, sp = w
    assert core.set_mul(S, {sp}, {3}, {s}) <= {4}
    assert core.set_mul(S, {s}, {4}, {sp}) <= {3}


def test_wagner_preston_stabilizers_conjugate():
    S = fx("Z3E")
    wp = acts.wagner_preston(S)
    for s in S.elements:
        for x in wp.element_domain(s):
            assert cosets.are_conjugate(
                S, wp.stabilizers[x], wp.stabilizers[wp.act(s, x)]
            ) is not None


@pytest.mark.parametrize(
    "name,H,expected",
    [
        ("Z3E", (0, 3), True),
        ("Z6", (0, 3), True),
        ("Z6", (0, 2, 4), True),
        ("B2", (3,), False),
    ],
)
def test_self_conjugacy(name, H, expected):
    assert cosets.is_self_conjugate(fx(name), frozenset(H)) == expected


def test_quotient_band_extension_is_z3():
    S = fx("Z3E")
    Q = cosets.quotient_group(S, H03)
    assert core.is_group(Q)
    assert core.find_semigroup_isomorphism(Q, fx("Z3")) is not None
    assert Q.identity == 0  # the coset of H itself, first in canonical order


def test_quotient_of_group():
    Q = cosets.quotient_group(fx("Z6"), {0, 3})
    assert core.find_semigroup_isomorphism(Q, fx("Z3")) is not None


def test_quotient_by_everything_is_trivial():
    S = fx("Z3E")
    Q = cosets.quotient_group(S, frozenset(S.elements))
    assert Q.n == 1


def test_quotient_requires_self_conjugacy():
    # on B2, 1*2 = 3 lies in H = {3} and 2*1 does not; both raisers name it
    for build in (cosets.quotient_group, cosets.rho_representation):
        with pytest.raises(NotSelfConjugate, match=r"\(witness \(1, 2\)\)$"):
            build(fx("B2"), frozenset({3}))


def test_rho_representation():
    S = fx("Z3E")
    rep = cosets.rho_representation(S, H03)
    assert rep.permutations[1] == (1, 2, 0)
    for h in H03:
        assert rep.permutations[h] == (0, 1, 2)
    pi_pairs = {
        (s, t)
        for s in range(6)
        for t in range(6)
        if cosets.pi_h_related(S, H03, s, t)
    }
    assert rep.kernel_pairs() == pi_pairs


def coset_oracle_tables():
    """Every table of order <= 3 whose idempotents form a semilattice, the
    fixtures that have one, and Z_k with an adjoined idempotent, 2 <= k <= 6."""
    tables = [S for S in verify._small_tables() if core.classify_idempotents(S).is_semilattice]
    tables += [fx(name) for name in construction.FIXTURE_NAMES]
    tables = [S for S in tables if core.classify_idempotents(S).is_semilattice]
    return tables + [
        construction.adjoined_band_semigroup(core.build_semigroup(cyclic_table(k)))
        for k in range(2, 7)
    ]


def test_coset_queries_agree_with_the_coset_members():
    # the expected values come from the members of the cosets and the
    # Cayley table alone, never from the coset act or the element index
    bases = self_conjugate = 0
    for S in coset_oracle_tables():
        for H in closures.closed_e_dense_subsemigroups(S):
            bases += 1
            space = cosets.coset_space(S, H)
            members = [c.members for c in space.cosets]
            at = f"{S.table}, H={sorted(H)}"

            def holding(s):
                return next((i for i, m in enumerate(members) if s in m), None)

            for i, m in enumerate(members):
                assert space.cosets[i].representative == min(m), at
                assert space.index_of(m) == i and space.index_of(sorted(m)) == i, at
                for wrong in (m - {max(m)}, m | {-1}, m | members[i - 1]):
                    if wrong not in members:
                        with pytest.raises(KeyError):
                            space.index_of(wrong)
            with pytest.raises(KeyError):
                space.index_of(set())
            for s in [-1, *S.elements, S.n]:
                i = holding(s)
                if i is None:
                    with pytest.raises(KeyError):
                        space.coset_of(s)
                    assert cosets.coset(S, H, s) is None, at
                else:
                    assert space.coset_of(s) == i, at
                    assert cosets.coset(S, H, s) == cosets.OmegaCoset(H, s, members[i]), at

            def image(s, m):
                return holding(S.mul(s, min(m)))

            witness = next(
                (
                    (s, t)
                    for s in S.elements
                    for t in S.elements
                    if S.mul(s, t) in H and S.mul(t, s) not in H
                ),
                None,
            )
            if witness is not None:
                for build in (cosets.quotient_group, cosets.rho_representation):
                    with pytest.raises(NotSelfConjugate) as exc:
                        build(S, H)
                    assert exc.value.witness == witness, at
                continue
            self_conjugate += 1
            domain = sorted(frozenset().union(*members))
            rho = cosets.rho_representation(S, H)
            assert rho.permutations == {
                s: tuple(image(s, m) for m in members) for s in domain
            }, at
            Q = cosets.quotient_group(S, H)
            assert Q.table == tuple(
                tuple(image(min(a), b) for b in members) for a in members
            ), at
    assert (bases, self_conjugate) == (226, 224)
