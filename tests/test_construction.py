"""Categories with group actions, the pair-monoid construction, the
band-extension family, the enumerator and the fixture corpus."""

import random
from dataclasses import replace
from itertools import permutations, product

import pytest

from edense import construction, core
from edense.errors import (
    ActionAxiomViolation,
    BadComposability,
    MissingIdentity,
    NonAssociative,
    NotGroup,
    OrderTooLarge,
    OutOfRangeEntry,
    ParseError,
    PreconditionFailed,
    UnknownFixture,
    UnsupportedBand,
    WorkbenchError,
)

from conftest import cyclic_table, fx, product_table, twist_outside


def one_object_z2_category():
    # local monoid is the 2-element group: valid category, not a band
    morphisms = [(0, 0), (0, 0)]
    compose = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    return construction.build_category(1, morphisms, compose)


def test_build_category_flags():
    C = one_object_z2_category()
    assert C.is_strongly_connected()
    assert not C.is_locally_idempotent()

    two = construction.build_category(
        2, [(0, 0), (1, 1)], {(0, 0): 0, (1, 1): 1}
    )
    assert not two.is_strongly_connected()
    assert two.is_locally_idempotent()


def test_build_category_errors():
    # right-zero composition on two loops: total and associative, no unit
    right_zero = {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 1}
    with pytest.raises(MissingIdentity):
        construction.build_category(1, [(0, 0), (0, 0)], right_zero)
    with pytest.raises(BadComposability):
        construction.build_category(1, [(0, 0)], {})
    with pytest.raises(BadComposability):
        construction.build_category(
            2, [(0, 0), (1, 1), (0, 1)], {(0, 0): 0, (1, 1): 1, (0, 2): 2, (2, 1): 2, (1, 0): 0}
        )


def test_derived_category_counts():
    C2, _ = construction.derived_category(fx("Z2"))
    assert (C2.n_objects, C2.n_morphisms) == (2, 4)
    C3, _ = construction.derived_category(fx("Z3"))
    assert (C3.n_objects, C3.n_morphisms) == (3, 9)
    trivial = core.build_semigroup([[0]])
    C1, _ = construction.derived_category(trivial)
    assert (C1.n_objects, C1.n_morphisms) == (1, 1)


def test_derived_category_requires_group():
    with pytest.raises(NotGroup):
        construction.derived_category(fx("CHAIN3"))


def test_group_action_validation_flags():
    C = one_object_z2_category()
    Z2 = fx("Z2")
    # trivial action of Z2 on the one-object category: valid but not free
    on_objects = [[0], [0]]
    on_morphisms = [[0, 1], [0, 1]]
    action = construction.validate_group_action(C, Z2, on_objects, on_morphisms)
    assert action.transitive and not action.free


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z6"])
def test_pair_monoid_of_derived_category_recovers_group(name):
    G = fx(name)
    C, action = construction.derived_category(G)
    cu = construction.c_u_monoid(C, action, 0)
    assert core.find_semigroup_isomorphism(cu.semigroup, G) is not None


def test_pair_monoid_preconditions():
    C = one_object_z2_category()
    Z2 = fx("Z2")
    on_objects = [[0], [0]]
    on_morphisms = [[0, 1], [0, 1]]
    action = construction.validate_group_action(C, Z2, on_objects, on_morphisms)
    with pytest.raises(PreconditionFailed):
        construction.c_u_monoid(C, action, 0)


def test_band_extension_category_z3():
    G = fx("Z3")
    C, action = construction.adjoin_band_category(G, 2)
    assert C.n_morphisms == 18
    u = G.identity
    for g in G.elements:
        assert len(C.hom(u, action.obj(g, u))) == 2
    cu = construction.c_u_monoid(C, action, u)
    assert core.find_semigroup_isomorphism(cu.semigroup, fx("Z3E")) is not None


def test_band_extension_displayed_map():
    S, cu, mapping = construction.adjoined_band_to_cu_map(fx("Z3"))
    assert S.table == fx("Z3E").table
    # the flagged identity morphism carries the adjoined idempotent
    e_image = cu.semigroup.label(mapping[3])
    assert e_image.startswith("(e_0")


def test_band_extension_z2():
    G = fx("Z2")
    C, action = construction.adjoin_band_category(G, 2)
    cu = construction.c_u_monoid(C, action, 0)
    S = cu.semigroup
    assert S.n == 4
    assert len(core.idempotents(S)) == 2
    assert core.is_e_unitary(S) and core.is_e_dense(S)


def test_band_extension_larger_band():
    G = fx("Z2")
    C, action = construction.adjoin_band_category(G, 3)
    cu = construction.c_u_monoid(C, action, 0)
    assert cu.semigroup.n == 6
    assert len(core.idempotents(cu.semigroup)) == 3


def test_adjoined_band_semigroup_tables():
    assert construction.adjoined_band_semigroup(fx("Z3")).table == fx("Z3E").table
    assert construction.adjoined_band_semigroup(fx("Z6")).table == fx("Z6E").table
    trivial = core.build_semigroup([[0]])
    two = construction.adjoined_band_semigroup(trivial)
    assert two.table == ((0, 1), (1, 1))


def test_adjoined_band_errors():
    with pytest.raises(NotGroup):
        construction.adjoined_band_semigroup(fx("CHAIN3"))
    with pytest.raises(UnsupportedBand):
        construction.adjoined_band_semigroup(fx("Z2"), 1)


def brute_force_semigroups(n):
    """Every n x n table over range(n), in lexicographic order of its rows,
    kept when associative, with its two-sided identity or None: the
    n^(n*n) loop that the enumerator must reproduce."""
    ids = range(n)
    for flat in product(ids, repeat=n * n):
        t = tuple(flat[i * n : (i + 1) * n] for i in ids)
        if all(t[t[i][j]][k] == t[i][t[j][k]] for i, j, k in product(ids, repeat=3)):
            units = [e for e in ids if all(t[e][x] == x == t[x][e] for x in ids)]
            yield t, (units[0] if units else None)


def test_enumerate_counts():
    # the labelled semigroups of order 1, 2, 3 (OEIS A023814), table for
    # table and in the same order as the brute-force loop
    for n, count in ((1, 1), (2, 8), (3, 113)):
        got = [(S.table, S.identity) for S in construction.enumerate_semigroups(n)]
        assert got == list(brute_force_semigroups(n))
        assert len(got) == count


def test_enumerate_gate():
    with pytest.raises(OrderTooLarge):
        next(construction.enumerate_semigroups(4))


def test_fixture_corpus():
    B2 = fx("B2")
    assert B2.n == 5
    assert len(core.idempotents(B2)) == 3
    assert fx("Z3E").n == 6
    assert core.idempotents(fx("Z3E")) == {0, 3}
    with pytest.raises(UnknownFixture):
        construction.fixture("nope")


DERIVED_Z2_FILE = """
objects: 2
morphisms:
0 0 0
1 0 1
2 1 1
3 1 0
compose:
0 0 0
0 1 1
1 2 1
1 3 0
2 2 2
2 3 3
3 0 3
3 1 2
action:
0 obj 0 0
0 obj 1 1
0 mor 0 0
0 mor 1 1
0 mor 2 2
0 mor 3 3
1 obj 0 1
1 obj 1 0
1 mor 0 2
1 mor 1 3
1 mor 2 0
1 mor 3 1
"""


def test_parse_category_file():
    G = fx("Z2")
    C, action = construction.parse_category(DERIVED_Z2_FILE, G)
    assert action.transitive and action.free
    cu = construction.c_u_monoid(C, action, 0)
    assert core.find_semigroup_isomorphism(cu.semigroup, G) is not None


# --- witness equivalence with the per-triple checks ------------------------
#
# The category and action validators compare whole rows and rescan a
# failing row only to name its witness.  The functions below check the
# same axioms pair by pair and triple by triple, as an oracle: on every
# input both must raise the same class with the same witness and message,
# or accept with the same result.


def _loop_build_category(n_objects, morphisms, compose_map):
    source = tuple(src for src, _ in morphisms)
    target = tuple(dst for _, dst in morphisms)
    m = len(source)
    compose = [[None] * m for _ in range(m)]
    for (p, q), r in compose_map.items():
        if target[p] != source[q]:
            raise BadComposability(p, q, "pair is not composable")
        if source[r] != source[p] or target[r] != target[q]:
            raise BadComposability(p, q, f"composite {r} has wrong endpoints")
        compose[p][q] = r
    for p in range(m):
        for q in range(m):
            if target[p] == source[q] and compose[p][q] is None:
                raise BadComposability(p, q, "composable pair left undefined")
    for p in range(m):
        for q in range(m):
            if compose[p][q] is None:
                continue
            for r in range(m):
                if compose[q][r] is None:
                    continue
                if compose[compose[p][q]][r] != compose[p][compose[q][r]]:
                    raise NonAssociative(p, q, r, where="composition")
    identities = []
    for u in range(n_objects):
        loops = [p for p in range(m) if source[p] == u and target[p] == u]
        unit = None
        for e in loops:
            left = all(compose[e][q] == q for q in range(m) if source[q] == u)
            right = all(compose[p][e] == p for p in range(m) if target[p] == u)
            if left and right:
                unit = e
                break
        if unit is None:
            raise MissingIdentity(u)
        identities.append(unit)
    return tuple(tuple(row) for row in compose), tuple(identities)


def _loop_validate_group_action(C, G, on_objects, on_morphisms):
    one = G.identity
    for u in range(C.n_objects):
        if on_objects[one][u] != u:
            raise ActionAxiomViolation("identity must fix objects", u)
    for p in range(C.n_morphisms):
        if on_morphisms[one][p] != p:
            raise ActionAxiomViolation("identity must fix morphisms", p)
    for g, h in product(G.elements, repeat=2):
        gh = G.mul(g, h)
        for u in range(C.n_objects):
            if on_objects[g][on_objects[h][u]] != on_objects[gh][u]:
                raise ActionAxiomViolation("(gh)u != g(hu)", (g, h, u))
        for p in range(C.n_morphisms):
            if on_morphisms[g][on_morphisms[h][p]] != on_morphisms[gh][p]:
                raise ActionAxiomViolation("(gh)p != g(hp)", (g, h, p))
    for g in G.elements:
        for p in range(C.n_morphisms):
            gp = on_morphisms[g][p]
            if C.source[gp] != on_objects[g][C.source[p]] or C.target[gp] != on_objects[g][C.target[p]]:
                raise ActionAxiomViolation("gp must lie in hom(gu, gv)", (g, p))
        for p in range(C.n_morphisms):
            for q in range(C.n_morphisms):
                if C.compose[p][q] is None:
                    continue
                gp, gq = on_morphisms[g][p], on_morphisms[g][q]
                if C.compose[gp][gq] != on_morphisms[g][C.compose[p][q]]:
                    raise ActionAxiomViolation("g(p+q) != gp+gq", (g, p, q))
        for u in range(C.n_objects):
            if on_morphisms[g][C.identities[u]] != C.identities[on_objects[g][u]]:
                raise ActionAxiomViolation("g 0_u != 0_gu", (g, u))
    transitive = all(
        any(on_objects[g][u] == v for g in G.elements)
        for u in range(C.n_objects)
        for v in range(C.n_objects)
    )
    free = all(
        g == one
        for g in G.elements
        for u in range(C.n_objects)
        if on_objects[g][u] == u
    )
    return transitive, free


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except WorkbenchError as exc:
        return type(exc), getattr(exc, "witness", getattr(exc, "object", None)), str(exc)


def _category_outcome(n_objects, morphisms, compose_map):
    new = _outcome(construction.build_category, n_objects, morphisms, compose_map)
    return ("ok", (new[1].compose, new[1].identities)) if new[0] == "ok" else new


def _action_outcome(C, G, on_objects, on_morphisms):
    new = _outcome(construction.validate_group_action, C, G, on_objects, on_morphisms)
    return ("ok", (new[1].transitive, new[1].free)) if new[0] == "ok" else new


def _built():
    """The Z2 and Z3 derived and adjoin-band categories with their actions."""
    for name in ("Z2", "Z3"):
        G = fx(name)
        yield (G, *construction.derived_category(G))
        yield (G, *construction.adjoin_band_category(G, 2))


# (objects, morphisms, composition) of small hand-made categories: one
# morphism, a one-object group, two loops under right-zero composition
# (no identity), and two objects with two parallel arrows
SMALL_CATEGORIES = [
    (1, [(0, 0)], {(0, 0): 0}),
    (1, [(0, 0), (0, 0)], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}),
    (1, [(0, 0), (0, 0)], {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 1}),
    (
        2,
        [(0, 0), (1, 1), (0, 1), (0, 1)],
        {(0, 0): 0, (1, 1): 1, (0, 2): 2, (0, 3): 3, (2, 1): 2, (3, 1): 3},
    ),
]


def _compose_corruptions(morphisms, compose_map, rng, count):
    """One-entry corruptions of a composition map: a new composite with
    the right endpoints or anywhere, a removed pair, or an extra pair; and
    one-row corruptions, which remove every pair of one row."""
    m = len(morphisms)
    keys = list(compose_map)
    for _ in range(count):
        corrupt = dict(compose_map)
        kind = rng.randrange(5)
        p, q = rng.choice(keys)
        if kind == 0:
            ends = (morphisms[p][0], morphisms[q][1])
            corrupt[(p, q)] = rng.choice([r for r in range(m) if morphisms[r] == ends])
        elif kind == 1:
            corrupt[(p, q)] = rng.randrange(m)
        elif kind == 2:
            del corrupt[(p, q)]
        elif kind == 3:
            corrupt[(rng.randrange(m), rng.randrange(m))] = rng.randrange(m)
        else:
            corrupt = {pq: r for pq, r in corrupt.items() if pq[0] != p}
        yield corrupt


def test_build_category_witnesses_match_triple_loops():
    cases = list(SMALL_CATEGORIES)
    for _, C, _ in _built():
        morphisms = list(zip(C.source, C.target))
        compose_map = {
            (p, q): r for p, row in enumerate(C.compose) for q, r in enumerate(row) if r is not None
        }
        cases.append((C.n_objects, morphisms, compose_map))
    seen = set()
    for n_objects, morphisms, compose_map in cases:
        rng = random.Random(f"compose {n_objects} {len(morphisms)} {len(compose_map)}")
        maps = [compose_map, *_compose_corruptions(morphisms, compose_map, rng, 60)]
        for cm in maps:
            old = _outcome(_loop_build_category, n_objects, morphisms, cm)
            assert _category_outcome(n_objects, morphisms, cm) == old
            seen.add(old[0])
    assert seen == {"ok", BadComposability, NonAssociative, MissingIdentity}


def _action_corruptions(C, action, rng, count):
    """One-entry corruptions of an action's object or morphism rows."""
    for _ in range(count):
        on_objects = [list(row) for row in action.on_objects]
        on_morphisms = [list(row) for row in action.on_morphisms]
        rows, width = (on_objects, C.n_objects) if rng.randrange(3) == 0 else (on_morphisms, C.n_morphisms)
        rows[rng.randrange(len(rows))][rng.randrange(width)] = rng.randrange(width)
        yield on_objects, on_morphisms


def _law_keeping_actions(G, C, action):
    """Actions that keep the action law but break a later axiom: objects
    left fixed while morphisms move, or while g moves only the target of
    each morphism (both break hom-sets), and on the Z2 band category,
    g = 1 also swapping the flags 0 and e (functoriality)."""
    fixed = [list(range(C.n_objects))] * G.n
    yield fixed, action.on_morphisms
    # p : u -> v goes to the morphism u -> gv in the same place of its hom-set
    place = [C.hom(u, v).index(p) for p, (u, v) in enumerate(zip(C.source, C.target))]
    yield fixed, [
        [C.hom(u, G.mul(g, v))[place[p]] for p, (u, v) in enumerate(zip(C.source, C.target))]
        for g in G.elements
    ]
    if G.n == 2 and C.n_morphisms == 8:
        yield action.on_objects, [action.on_morphisms[0], [p ^ 1 for p in action.on_morphisms[1]]]


def test_validate_group_action_witnesses_match_triple_loops():
    # "g 0_u != 0_gu" cannot fail once the earlier axioms hold: a bijection
    # that keeps hom-sets and composition sends identities to identities
    seen = set()
    for G, C, action in _built():
        rng = random.Random(f"action {G.name} {C.n_morphisms}")
        cases = [*_action_corruptions(C, action, rng, 120), *_law_keeping_actions(G, C, action)]
        for on_objects, on_morphisms in cases:
            old = _outcome(_loop_validate_group_action, C, G, on_objects, on_morphisms)
            assert _action_outcome(C, G, on_objects, on_morphisms) == old
            seen.add(old[2].split(": ", 1)[1].split(" (witness")[0] if old[0] != "ok" else old)
    assert seen == {
        ("ok", (True, True)),
        "identity must fix objects",
        "identity must fix morphisms",
        "(gh)u != g(hu)",
        "(gh)p != g(hp)",
        "gp must lie in hom(gu, gv)",
        "g(p+q) != gp+gq",
    }


def _larger_built():
    """The derived and adjoin-band categories of Z6 and Z2 x Z4 with their
    actions, where the greedy generators are a small part of the group."""
    for name, table in (
        ("Z6", cyclic_table(6)),
        ("Z2xZ4", product_table(cyclic_table(2), cyclic_table(4))),
    ):
        G = core.build_semigroup(table, name=name)
        assert len(G.structure.generators) < G.n // 2
        yield (G, *construction.derived_category(G))
        yield (G, *construction.adjoin_band_category(G, 2))


def test_category_and_action_witnesses_match_loops_over_few_generators():
    seen = set()
    for G, C, action in _larger_built():
        morphisms = list(zip(C.source, C.target))
        compose_map = {
            (p, q): r for p, row in enumerate(C.compose) for q, r in enumerate(row) if r is not None
        }
        rng = random.Random(f"larger compose {G.name} {C.n_morphisms}")
        for cm in _compose_corruptions(morphisms, compose_map, rng, 12):
            old = _outcome(_loop_build_category, C.n_objects, morphisms, cm)
            assert _category_outcome(C.n_objects, morphisms, cm) == old
            seen.add(old[0])
        rng = random.Random(f"larger action {G.name} {C.n_morphisms}")
        cases = [*_action_corruptions(C, action, rng, 30), *_law_keeping_actions(G, C, action)]
        if C.n_morphisms == 2 * G.n**2:
            # the elements of odd id also swap the flags 0 and e: g -> g mod 2
            # is a homomorphism onto Z2 for both groups, so the action law
            # and hom-sets hold and functoriality fails
            swapped = [[p ^ g % 2 for p in row] for g, row in enumerate(action.on_morphisms)]
            cases.append((action.on_objects, swapped))
        for on_objects, on_morphisms in cases:
            old = _outcome(_loop_validate_group_action, C, G, on_objects, on_morphisms)
            assert _action_outcome(C, G, on_objects, on_morphisms) == old
            seen.add(old[2].split(": ", 1)[1].split(" (witness")[0] if old[0] != "ok" else old)
    assert {
        NonAssociative,
        "(gh)u != g(hu)",
        "(gh)p != g(hp)",
        "gp must lie in hom(gu, gv)",
        "g(p+q) != gp+gq",
    } <= seen


def _category_closure(C, gens):
    closed = set(gens)
    while True:
        more = closed | {
            C.compose[p][q] for p in closed for q in closed if C.target[p] == C.source[q]
        }
        if more == closed:
            return closed
        closed = more


def test_category_generators_are_greedy(monkeypatch):
    found = []
    real = core.greedy_generators
    monkeypatch.setattr(core, "greedy_generators", lambda *a: found.append(real(*a)) or found[-1])
    for _, C, _ in (*_built(), *_larger_built()):
        morphisms = list(zip(C.source, C.target))
        compose_map = {
            (p, q): r for p, row in enumerate(C.compose) for q, r in enumerate(row) if r is not None
        }
        found.clear()
        construction.build_category(C.n_objects, morphisms, compose_map)
        (gens,) = found
        assert _category_closure(C, gens) == set(range(C.n_morphisms))
        for i, g in enumerate(gens):
            assert g not in _category_closure(C, gens[:i])


def test_category_and_action_scans_reach_the_last_generator():
    # a monoid table whose rows outside <gens[:-1]> are twisted is a
    # one-object category failing associativity first at gens[-1]; the
    # same twist of an action's rows fails the action law first there
    G = core.build_semigroup(product_table(cyclic_table(2), cyclic_table(4)), name="Z2xZ4")
    gens = G.structure.generators
    table, _ = twist_outside(G.table, gens, G.table)
    morphisms = [(0, 0)] * G.n
    compose_map = {(p, q): r for p, row in enumerate(table) for q, r in enumerate(row)}
    old = _outcome(_loop_build_category, 1, morphisms, compose_map)
    assert old[0] is NonAssociative and old[1][0] == gens[-1]
    assert _category_outcome(1, morphisms, compose_map) == old
    C, action = construction.adjoin_band_category(G, 2)
    twisted_objects, _ = twist_outside(G.table, gens, action.on_objects)
    twisted_morphisms, _ = twist_outside(G.table, gens, action.on_morphisms)
    for rows, law in (
        ((twisted_objects, action.on_morphisms), "(gh)u != g(hu)"),
        ((action.on_objects, twisted_morphisms), "(gh)p != g(hp)"),
        # both laws first fail at the same (g, h): objects come first
        ((twisted_objects, twisted_morphisms), "(gh)u != g(hu)"),
    ):
        old = _outcome(_loop_validate_group_action, C, G, *rows)
        assert law in old[2] and old[1][0] == gens[-1]
        assert _action_outcome(C, G, *rows) == old


def test_action_law_names_the_first_failure_over_objects_and_morphisms():
    # one entry of a non-identity object row and one of a morphism row
    # changed at once, so both action laws can fail; the interleaved loop
    # names the failure with the smaller (g, h)
    laws = set()
    for G, C, action in (*_built(), *_larger_built()):
        rng = random.Random(f"both laws {G.name} {C.n_morphisms}")
        moving = [g for g in G.elements if g != G.identity]
        for _ in range(30):
            on_objects = [list(row) for row in action.on_objects]
            on_morphisms = [list(row) for row in action.on_morphisms]
            for rows, width in ((on_objects, C.n_objects), (on_morphisms, C.n_morphisms)):
                rows[rng.choice(moving)][rng.randrange(width)] = rng.randrange(width)
            old = _outcome(_loop_validate_group_action, C, G, on_objects, on_morphisms)
            assert _action_outcome(C, G, on_objects, on_morphisms) == old
            laws.add(old[2].split(": ", 1)[1].split(" (witness")[0] if old[0] != "ok" else "ok")
    assert {"(gh)u != g(hu)", "(gh)p != g(hp)"} <= laws


def _trivial_action(C, G):
    return [list(range(C.n_objects))] * G.n, [list(range(C.n_morphisms))] * G.n


def test_action_flags_match_loops():
    # free and transitive, and the trivial action, which is neither when
    # there are two objects and two group elements
    cases = [(C, G, action.on_objects, action.on_morphisms) for G, C, action in _built()]
    cases += [(C, G, *_trivial_action(C, G)) for G, C, _ in _built()]
    C = one_object_z2_category()
    cases.append((C, fx("Z2"), *_trivial_action(C, fx("Z2"))))
    flags = set()
    for C, G, on_objects, on_morphisms in cases:
        action = construction.validate_group_action(C, G, on_objects, on_morphisms)
        flags_of_action = (action.transitive, action.free)
        assert flags_of_action == _loop_validate_group_action(C, G, on_objects, on_morphisms)
        assert action.category is C
        flags.add(flags_of_action)
    assert flags == {(True, True), (True, False), (False, False)}


def test_c_u_monoid_rejects_action_of_another_category():
    C, action = construction.derived_category(fx("Z2"))
    twin, _ = construction.derived_category(fx("Z2"))
    assert twin == C and twin is not C
    with pytest.raises(PreconditionFailed) as exc:
        construction.c_u_monoid(twin, action, 0)
    assert exc.value.name == "action_category"


def test_build_category_range_errors():
    with pytest.raises(OutOfRangeEntry) as exc:
        construction.build_category(1, [(0, 0), (0, 1)], {(0, 0): 0})
    assert exc.value.witness == (1, 1, 1)
    with pytest.raises(OutOfRangeEntry) as exc:
        construction.build_category(1, [(0, 0)], {(0, 0): 0, (0, 5): 0})
    assert exc.value.witness == (0, 5, 0)
    with pytest.raises(OutOfRangeEntry) as exc:
        construction.build_category(1, [(0, 0)], {(0, 0): -1})
    assert exc.value.witness == (0, 0, -1)


def test_validate_group_action_shape_and_range():
    C = one_object_z2_category()
    Z2 = fx("Z2")
    with pytest.raises(PreconditionFailed) as exc:
        construction.validate_group_action(C, Z2, [[0]], [[0, 1], [0, 1]])
    assert exc.value.name == "action_shape"
    with pytest.raises(PreconditionFailed) as exc:
        construction.validate_group_action(C, Z2, [[0], [0]], [[0, 1], [0]])
    assert exc.value.name == "action_shape"
    with pytest.raises(OutOfRangeEntry) as exc:
        construction.validate_group_action(C, Z2, [[0], [0]], [[0, 1], [1, 2]])
    assert exc.value.witness == (1, 1, 2)
    with pytest.raises(OutOfRangeEntry) as exc:
        construction.validate_group_action(C, Z2, [[0], [-1]], [[0, 1], [0, 1]])
    assert exc.value.witness == (1, 0, -1)


def test_parse_category_errors():
    G = fx("Z2")
    with pytest.raises(ParseError, match="line 2: expected a count"):
        construction.parse_category("# header\nobjects: two\n", G)
    with pytest.raises(ParseError, match="line 3: expected 'p q r'"):
        construction.parse_category("objects: 1\ncompose:\n0 0 x\n", G)
    head, action = DERIVED_Z2_FILE.split("action:")
    kept = [line for line in action.splitlines() if line != "1 mor 2 0"]
    with pytest.raises(ParseError, match="missing action line '1 mor 2'"):
        construction.parse_category(head + "action:" + "\n".join(kept), G)


def test_parse_category_rejects_second_lines():
    # each first line alone would build; the second one must not overwrite it
    G = fx("Z2")
    twice = DERIVED_Z2_FILE.replace("0 1 1\n", "0 1 0\n0 1 1\n")
    with pytest.raises(ParseError, match=r"line 11: second compose line for \(0, 1\)"):
        construction.parse_category(twice, G)
    twice = DERIVED_Z2_FILE.replace("1 obj 0 1\n", "1 obj 0 0\n1 obj 0 1\n")
    with pytest.raises(ParseError, match="line 25: second action line for '1 obj 0'"):
        construction.parse_category(twice, G)
    twice = DERIVED_Z2_FILE.replace("1 mor 3 1\n", "1 mor 3 1\n1 mor 3 1\n")
    with pytest.raises(ParseError, match="line 30: second action line for '1 mor 3'"):
        construction.parse_category(twice, G)


def test_c_u_monoid_rejects_object_out_of_range():
    C, action = construction.derived_category(fx("Z2"))
    for u in (2, 9, -1):
        with pytest.raises(PreconditionFailed, match=f"base_object {u} is not one of the 2"):
            construction.c_u_monoid(C, action, u)


def _tuple_index_translation_category(G, k):
    """The translation category of G with k flags and its conjugation
    action, each morphism (u, s, f) numbered through a dict of the triples
    in lexicographic order and each inverse found by search."""
    morphs = [(u, s, f) for u in G.elements for s in G.elements for f in range(k)]
    index = {m: i for i, m in enumerate(morphs)}
    compose_map = {}
    for i, (u, s, f1) in enumerate(morphs):
        for t, f2 in product(G.elements, range(k)):
            compose_map[(i, index[(G.mul(s, u), t, f2)])] = index[(u, G.mul(t, s), f2 or f1)]
    C = construction.build_category(G.n, [(u, G.mul(s, u)) for u, s, _ in morphs], compose_map)
    inv = {g: next(h for h in G.elements if G.mul(g, h) == G.identity) for g in G.elements}
    on_objects = [[G.mul(g, u) for u in G.elements] for g in G.elements]
    on_morphisms = [
        [index[(G.mul(g, u), G.prod(g, s, inv[g]), f)] for u, s, f in morphs]
        for g in G.elements
    ]
    return C, construction.validate_group_action(C, G, on_objects, on_morphisms)


TRANSLATION_GROUPS = {
    "Z2": cyclic_table(2),
    "Z3": cyclic_table(3),
    "Z6": cyclic_table(6),
    "Z2xZ4": product_table(cyclic_table(2), cyclic_table(4)),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", list(TRANSLATION_GROUPS))
def test_translation_category_numbering_matches_a_tuple_index(name, k):
    G = core.build_semigroup(TRANSLATION_GROUPS[name], name=name)
    if k == 1:
        C, action = construction.derived_category(G)
    else:
        C, action = construction.adjoin_band_category(G, k)
    ref_C, ref_action = _tuple_index_translation_category(G, k)
    assert replace(C, morphism_labels=None) == ref_C
    assert C.morphism_labels is not None and len(C.morphism_labels) == C.n_morphisms
    for attr in ("on_objects", "on_morphisms", "transitive", "free"):
        assert getattr(action, attr) == getattr(ref_action, attr), attr


# --- the translation category against its defining formulas --------------


def _s3_table():
    """The permutations of three points, s*t the map x -> s(t(x))."""
    perms = list(permutations(range(3)))
    return [[perms.index(tuple(s[t[x]] for x in range(3))) for t in perms] for s in perms]


def _translation_oracle(G, k, conjugate):
    """The composition, identities and action of the translation category
    of G with k flags, from (u, s, f)(su, t, f') = (u, ts, f'') with f''
    = f' if f' else f, and g(u, s, f) = (gu, conjugate(g, s), f); the
    morphisms (u, s, f) are numbered in lexicographic order."""
    mul = G.mul
    morphs = [(u, s, f) for u in G.elements for s in G.elements for f in range(k)]
    compose = []
    for u, s, f in morphs:
        row = []
        for v, t, f2 in morphs:
            composable = v == mul(s, u)
            row.append(morphs.index((u, mul(t, s), f2 if f2 else f)) if composable else None)
        compose.append(tuple(row))
    identities = tuple(morphs.index((u, G.identity, 0)) for u in G.elements)
    on_objects = tuple(tuple(mul(g, u) for u in G.elements) for g in G.elements)
    on_morphisms = tuple(
        tuple(morphs.index((mul(g, u), conjugate(g, s), f)) for u, s, f in morphs)
        for g in G.elements
    )
    hom_sizes = {}
    for u, g in product(G.elements, repeat=2):
        hom_sizes[(u, g)] = sum(1 for v, s, _ in morphs if v == u and mul(s, u) == mul(g, u))
    return tuple(compose), identities, on_objects, on_morphisms, hom_sizes


def _inverse(G, g):
    return next(h for h in G.elements if G.mul(g, h) == G.identity)


ORACLE_GROUPS = {
    "Z2": cyclic_table(2),
    "Z3": cyclic_table(3),
    "Z6": cyclic_table(6),
    "S3": _s3_table(),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", list(ORACLE_GROUPS))
def test_translation_category_matches_its_formulas(name, k):
    G = core.build_semigroup(ORACLE_GROUPS[name], name=name)
    assert core.is_group(G)
    if k == 1:
        C, action = construction.derived_category(G)
    else:
        C, action = construction.adjoin_band_category(G, k)

    def conjugate(g, s):
        return G.mul(G.mul(g, s), _inverse(G, g))

    compose, identities, on_objects, on_morphisms, hom_sizes = _translation_oracle(
        G, k, conjugate
    )
    assert C.compose == compose
    assert C.identities == identities
    assert action.on_objects == on_objects
    assert action.on_morphisms == on_morphisms
    for (u, g), size in hom_sizes.items():
        assert len(C.hom(u, action.obj(g, u))) == size == k
    assert action.transitive and action.free


def test_translation_action_by_the_wrong_conjugation_is_refused():
    # g(u, s, f) = (gu, g^-1 s g, f) agrees with gsg^-1 on an abelian group
    # but sends (u, s, f) out of hom(gu, gsu) on S3
    G = core.build_semigroup(_s3_table(), name="S3")
    C, _ = construction.adjoin_band_category(G, 2)

    def wrong(g, s):
        return G.mul(G.mul(_inverse(G, g), s), g)

    _, _, on_objects, on_morphisms, _ = _translation_oracle(G, 2, wrong)
    with pytest.raises(ActionAxiomViolation):
        construction.validate_group_action(C, G, on_objects, on_morphisms)


ONE_MORPHISM_FILE = """\
objects: 1
morphisms:
0 0 0
compose:
0 0 0
action:
0 obj 0 0
0 mor 0 0
"""


def test_parse_category_rejects_action_lines_out_of_range():
    G = core.build_semigroup([[0]], name="1")
    C, action = construction.parse_category(ONE_MORPHISM_FILE, G)
    assert (C.n_morphisms, action.on_morphisms) == (1, ((0,),))
    for line, message in (
        ("7 obj 0 0", "line 9: the group has no element 7"),
        ("-1 mor 0 0", "line 9: the group has no element -1"),
        ("0 obj 4 0", "line 9: the category has no object 4"),
        ("0 mor 9 3", "line 9: the category has no morphism 9"),
    ):
        with pytest.raises(ParseError, match=f"^{message}$"):
            construction.parse_category(ONE_MORPHISM_FILE + line + "\n", G)


def test_parse_category_rejects_a_second_objects_line():
    G = core.build_semigroup([[0]], name="1")
    for text in ("objects: 1\n" + ONE_MORPHISM_FILE, ONE_MORPHISM_FILE + "objects: 1\n"):
        line = text.splitlines().index("objects: 1", 1) + 1
        with pytest.raises(ParseError, match=f"^line {line}: second objects: line$"):
            construction.parse_category(text, G)
