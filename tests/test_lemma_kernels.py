"""The row kernels of the costliest lemma checks against the loops they replaced.

Each check below builds its rows once per base, act or subsemigroup and
tests each inner quantifier with one set operation, rescanning only a
failing row to name its witness.  The ``ref_*`` functions are the
per-entry loops the checks ran before, kept here as the oracle: on every
input, and above all on inputs where a law fails, a check must return the
same witness string as its loop.  The inputs are every order <= 3 table
whose idempotents form a semilattice, fresh copies of the fixtures and
Z_kE for k <= 6, with subsets that are not coset bases, stand-ins for
``closures.omega_h``, raw act tables and, where the laws hold on every
semigroup, unvalidated tables.  Each failing part must be hit at least
three times.  The core-suite checks, the two act checks and
``acts.is_s_map``, which now read the table and the structure record
directly, are held to their loops the same way, with records that carry
one wrong datum among the inputs.

One witness order differs on purpose: the loops walked the set of pi_H
pairs in hash order for symmetry, transitivity and left compatibility;
the kernels name the least failing pair, so the oracle walks the pairs
in increasing order there.
"""

import dataclasses
import functools
import random
from collections import Counter
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from edense import acts, cli, closures, construction, core, cosets, verify
from edense.core import FiniteSemigroup

from conftest import fx

# --- the per-entry loops ------------------------------------------------------


def ref_pi_h(S, H, among):
    return {
        (s, t)
        for s, t in product(among, repeat=2)
        if any(S.mul(w, t) in H for w in core.weak_inverses(S, s))
    }


def ref_classes(S, H, d):
    return {s: closures.omega_h(S, core.set_mul(S, {s}, H)) for s in d}


def ref_pi_properties_violations(S, H, space):
    d = space.domain
    rel = ref_pi_h(S, H, S.elements)
    for s, t in sorted(rel):
        if s not in d or t not in d:
            return f"related pair ({s}, {t}) escapes the domain"
    for s in d:
        if (s, s) not in rel:
            return f"not reflexive on domain at {s}"
    for s, t in sorted(rel):
        if (t, s) not in rel:
            return f"not symmetric at ({s}, {t})"
    for s, t in sorted(rel):
        for r in d:
            if (t, r) in rel and (s, r) not in rel:
                return f"not transitive at ({s}, {t}, {r})"
    for (u, v) in sorted(rel):
        for r in S.elements:
            ru, rv = S.mul(r, u), S.mul(r, v)
            if (ru in d) != (rv in d):
                return f"left compatibility (domain) at r={r}, ({u}, {v})"
            if ru in d and (ru, rv) not in rel:
                return f"left compatibility (relation) at r={r}, ({u}, {v})"
    for x in S.elements:
        for a, b in product(S.elements, repeat=2):
            xa, xb = S.mul(x, a), S.mul(x, b)
            if (xa, xb) in rel and (a, b) not in rel:
                return f"left cancellation at x={x}, a={a}, b={b}"


def ref_coset_class_violations(S, H, space):
    d = space.domain
    members = [c.members for c in space.cosets]
    if H not in members:
        return "H is not a coset"
    if frozenset().union(*members) != d or sum(map(len, members)) != len(d):
        return "cosets do not partition D_H"
    if space.act.stabilizers[space.index_of(H)] != H:
        return "stabilizer of the coset H is not H"
    classes = ref_classes(S, H, d)
    for s, cls in classes.items():
        if cls not in members:
            return f"class of {s} is not a coset"
        if s not in cls:
            return f"{s} outside its own class"
    pi = ref_pi_h(S, H, d)
    for a, b in product(sorted(d), repeat=2):
        e1 = classes[a] == classes[b]
        e2 = (b, a) in pi
        e3 = a in classes[b]
        e4 = b in classes[a]
        if not (e1 == e2 == e3 == e4):
            return f"four-way equivalence fails at ({a}, {b})"


def ref_coset_lemma_violations(S, H, space):
    E = core.idempotents(S)
    with_idem = [c for c in space.cosets if c.members & E]
    if len(with_idem) != 1 or with_idem[0].members != H:
        return "idempotents distributed over cosets other than the base"
    for c in space.cosets:
        if closures.omega_h(S, c.members) != c.members:
            return f"coset {sorted(c.members)} not closed"
    members = {c.members for c in space.cosets}
    d = space.domain
    classes = ref_classes(S, H, d)
    for s, t in product(S.elements, repeat=2):
        st = S.mul(s, t)
        if t in d:
            s_tc = closures.omega_h(S, core.set_mul(S, {s}, classes[t]))
            if (st in d) != (s_tc in members):
                return f"part 4 (definedness) at s={s}, t={t}"
            if st in d and s_tc != classes[st]:
                return f"part 4 (equality) at s={s}, t={t}"
        elif st in d:
            return f"part 4 (st defined without t) at s={s}, t={t}"


def ref_idempotent_closed_lemma_violations(S):
    E = core.idempotents(S)
    for H in verify._lemma_subsemigroups(S):
        Hc = closures.omega_h(S, H)
        for x in S.elements:
            for xp in core.weak_inverses(S, x):
                if S.mul(xp, x) in Hc:
                    continue
                for e in E:
                    if S.prod(xp, e, x) in Hc:
                        return f"part 1 at H={sorted(H)}, x={x}, x'={xp}, e={e}"
        for x, y in product(S.elements, repeat=2):
            if not any(S.mul(yp, y) in Hc for yp in core.weak_inverses(S, y)):
                continue
            for xp in core.weak_inverses(S, x):
                if S.mul(xp, y) in Hc:
                    continue
                for e in E:
                    if S.prod(xp, e, y) in Hc:
                        return f"part 2 at H={sorted(H)}, x={x}, y={y}, e={e}"


def ref_basic_lemma_violations(act):
    S = act.semigroup
    E = core.idempotents(S)
    for x in act.points:
        dom = act.point_domains[x]
        stab = act.stabilizers[x]
        if not (E & dom) <= stab:
            return f"part 1 at x={x}"
        for s in S.elements:
            for w in core.weak_inverses(S, s):
                if (w in dom) != (S.mul(s, w) in dom):
                    return f"part 2 at x={x}, s={s}, s'={w}"
        for s in dom:
            y = act.act(s, x)
            back = any(act.table[w][y] == x for w in core.weak_inverses(S, s))
            if not back:
                return f"part 3 at x={x}, s={s}"
        for s, t in product(dom, repeat=2):
            same = act.act(s, x) == act.act(t, x)
            witnesses = [w for w in core.weak_inverses(S, s) if S.mul(w, t) in stab]
            if same != bool(witnesses):
                return f"part 4 at x={x}, s={s}, t={t}"
            if same:
                sx = act.act(s, x)
                for w in witnesses:
                    if not act.defined(w, sx):
                        return f"part 4 (domain) at x={x}, s={s}, s'={w}"


def ref_are_conjugate(S, H, K):
    for s in S.elements:
        for w in core.weak_inverses(S, s):
            if core.set_mul(S, {w}, H, {s}) <= K and core.set_mul(S, {s}, K, {w}) <= H:
                return (s, w)
    return None


def ref_conjugacy_witness(S, H):
    return next(
        (
            (s, t)
            for s in S.elements
            for t in S.elements
            if S.mul(s, t) in H and S.mul(t, s) not in H
        ),
        None,
    )


def ref_self_conjugacy_violations(S, bases):
    for H in bases:
        crit = cosets.is_self_conjugate(S, H)
        form2 = all(
            core.set_mul(S, {s}, H, {w}) <= H
            for s in S.elements
            for w in core.weak_inverses(S, s)
            if S.mul(w, s) in H
        )
        only_self = all((cosets.are_conjugate(S, H, K) is None) == (H != K) for K in bases)
        if not (crit == form2 == only_self):
            return f"H={sorted(H)}: product-criterion={crit}, conjugation-form={form2}, only-self={only_self}"
        if crit:
            d = cosets.domain_d_h(S, H)
            if closures.omega_h(S, d) != d or not closures.is_e_dense_subsemigroup(S, d):
                return f"D_H not a closed E-dense subsemigroup for H={sorted(H)}"
            v = ref_quotient_violations(S, H)
            if v:
                return f"H={sorted(H)}: {v}"


def ref_quotient_violations(S, H):
    space = cosets.coset_space(S, H)
    rho = cosets.rho_representation(S, H)
    perms, k = rho.permutations, len(space.cosets)
    for s, images in perms.items():
        if None in images:
            return "D_H must be closed under products"
        if sorted(images) != list(range(k)):
            return "each rho_s must be a bijection"
    for s, t in product(perms, repeat=2):
        st = S.mul(s, t)
        if st not in perms or perms[st] != tuple(perms[s][i] for i in perms[t]):
            return "rho must be a homomorphism"
    if rho.kernel_pairs() != ref_pi_h(S, H, space.domain):
        return "kernel of rho must be the coset congruence"
    try:
        Q = cosets.quotient_group(S, H)
    except Exception as exc:
        return f"the cosets do not form a group with identity H ({exc})"
    if not core.is_group(Q) or Q.identity != space.index_of(H):
        return "the cosets do not form a group with identity H"


def ref_wvl_violations(S):
    for s in S.elements:
        iv = core.inverse_sets(S, s)
        if not (iv.V <= iv.W <= iv.L):
            return f"s={s}"
        for t in iv.L:
            if S.prod(t, s, t) not in iv.W:
                return f"s={s}, t={t}: tst not a weak inverse"


def ref_band_weak_inverse_violations(S):
    band = core.classify_idempotents(S).is_band
    for s, t in product(S.elements, repeat=2):
        lhs = core.weak_inverses(S, S.mul(s, t))
        rhs = core.set_mul(S, core.weak_inverses(S, t), core.weak_inverses(S, s))
        if band and lhs != rhs:
            return f"band but W(st) != W(t)W(s) at s={s}, t={t}"
        if not band and lhs != rhs:
            return None  # non-band direction satisfied by this witness
    if not band:
        return "E not a band yet W(st) = W(t)W(s) everywhere"


def ref_weak_self_conjugacy_violations(S):
    if not core.classify_idempotents(S).is_band:
        return None
    E = core.idempotents(S)
    for s in S.elements:
        for w in core.weak_inverses(S, s):
            for e in E:
                if S.prod(s, e, w) not in E or S.prod(w, e, s) not in E:
                    return f"s={s}, s'={w}, e={e}"


def ref_mitsch_order_violations(S):
    # down[b] is {a : a <= b}, the relation ``core.mitsch_leq`` reads
    down = S.structure.natural_down
    els = S.elements
    for a in els:
        if a not in down[a]:
            return f"not reflexive at {a}"
    for a, b in product(els, repeat=2):
        if a != b and a in down[b] and b in down[a]:
            return f"not antisymmetric at ({a}, {b})"
    for a, b, c in product(els, repeat=3):
        if a in down[b] and b in down[c] and a not in down[c]:
            return f"not transitive at ({a}, {b}, {c})"


def ref_h_refines_mitsch_violations(S):
    for a, b in product(S.elements, repeat=2):
        if core.h_leq(S, a, b) and not core.mitsch_leq(S, a, b):
            return f"({a}, {b})"


def ref_regular_orders_violations(S):
    reg = core.regular_elements(S)
    for a in reg:
        for b in S.elements:
            if core.h_leq(S, a, b) != core.mitsch_leq(S, a, b):
                return f"regular a={a}, b={b}"


def ref_idempotent_witness_violations(S):
    E = core.idempotents(S)
    for a, b in product(S.elements, repeat=2):
        witnessed = any(S.mul(e, b) == a for e in E) and any(
            S.mul(b, f) == a for f in E
        )
        if witnessed and not core.mitsch_leq(S, a, b):
            return f"({a}, {b})"


def ref_weak_inverse_lemma_violations(S):
    if not core.classify_idempotents(S).is_semilattice:
        return None
    E = core.idempotents(S)
    els = S.elements
    for s in els:
        W = core.weak_inverses(S, s)
        for w in W:
            for e, f in product(E, repeat=2):
                if S.prod(e, w, f) not in W:
                    return f"part 1 at s={s}, s'={w}, e={e}, f={f}"
        for w, v in product(W, repeat=2):
            meet = S.prod(w, s, v)
            if meet not in W:
                return f"part 2 (membership) at s={s}"
            if meet != S.prod(v, s, w):
                return f"part 2 (symmetry) at s={s}"
            if not (core.h_leq(S, meet, w) and core.h_leq(S, meet, v)):
                return f"part 2 (lower bound) at s={s}, {w}, {v}"
            for t in W:
                if (
                    core.h_leq(S, t, w)
                    and core.h_leq(S, t, v)
                    and not core.h_leq(S, t, meet)
                ):
                    return f"part 2 (greatest) at s={s}, t={t}"
        for w in W:
            for u in core.weak_inverses(S, w):
                if u != S.prod(u, w, s) or u != S.prod(s, w, u):
                    return f"part 3 (identities) at s={s}, s'={w}, s'*={u}"
                if not core.h_leq(S, u, s):
                    return f"part 3 (below s) at s={s}, s'*={u}"
                for e in E:
                    if not core.h_leq(S, S.mul(e, u), s):
                        return f"part 3 (es'* below s) at s={s}, e={e}"
            # for a bare weak inverse only one inclusion survives; the
            # displayed equality needs a mutual inverse (see the pinned
            # counterexample in the tests)
            conjugated = core.set_mul(S, {s}, W, {s})
            if not core.weak_inverses(S, w) <= conjugated:
                return f"part 4 (W(s') inside sW(s)s) at s={s}, s'={w}"
            if core.inverse_sets(S, w).V != {S.prod(s, w, s)}:
                return f"part 4 (V(s')) at s={s}, s'={w}"
            for v in W:
                if S.prod(s, w, s, v, s) not in core.weak_inverses(S, w):
                    return f"part 4 (ss'ss*s) at s={s}, s'={w}, s*={v}"
        for w in core.inverse_sets(S, s).V:
            if core.weak_inverses(S, w) != core.set_mul(S, {s}, W, {s}):
                return f"part 4 (W(s') = sW(s)s for mutual inverses) at s={s}, s'={w}"
    regular = core.regular_elements(S)
    all_weak = frozenset().union(*(core.weak_inverses(S, s) for s in els))
    if all_weak != regular:
        return "part 5: union of weak inverses differs from the regular elements"
    for a, b in product(all_weak, repeat=2):
        if S.mul(a, b) not in all_weak:
            return f"part 5: not closed at ({a}, {b})"
    for w in all_weak:
        if len(core.inverse_sets(S, w).V) != 1:
            return f"part 5: non-unique inverse at {w}"
    for s in els:
        w1 = core.weak_inverses(S, s)
        w2 = frozenset().union(*(core.weak_inverses(S, a) for a in w1)) if w1 else frozenset()
        w3 = frozenset().union(*(core.weak_inverses(S, a) for a in w2)) if w2 else frozenset()
        if w3 != w1:
            return f"part 6 at s={s}"


def ref_locally_free_iff_violations(act):
    S = act.semigroup
    lf = act.properties.locally_free
    stabs = act.stabilizers
    cond = all(
        any(S.mul(s, e) == S.mul(t, e) for e in stabs[x])
        for x in act.points
        for s, t in product(act.point_domains[x], repeat=2)
        if act.act(s, x) == act.act(t, x)
    )
    if lf != cond:
        return f"locally-free={lf}, gluing-condition={cond}"


def ref_grading_law_violations(act):
    S = act.semigroup
    g = act.grading
    if not isinstance(g, acts.Grading):
        return None
    p = g.p
    E = core.idempotents(S)
    for x in act.points:
        fixing = act.stabilizers[x] & E
        if p[x] not in fixing or not all(core.h_leq(S, p[x], f) for f in fixing):
            return f"p({x}) is not the minimum stabilizing idempotent"
        for w in core.weak_inverses(S, p[x]):
            if act.defined(w, x) and w != p[x]:
                return f"weak inverse of p({x}) acting on x differs from p(x)"
    for s in S.elements:
        for x in act.points:
            if not act.defined(s, x):
                continue
            sx = act.act(s, x)
            for w in core.weak_inverses(S, s):
                if S.mul(w, s) == p[x] and S.mul(s, w) != p[sx]:
                    return f"s's = p(x) but ss' != p(sx) at s={s}, x={x}"
                if act.defined(w, sx) and p[sx] != S.prod(s, p[x], w):
                    return f"p(sx) != s p(x) s' at s={s}, x={x}, s'={w}"
    # the points graded into the order ideal of each idempotent; s's and ss'
    # are idempotent for every weak inverse s'
    ideals = {e: acts.order_ideal(S, e) for e in E}
    graded_into = {e: frozenset(x for x in act.points if p[x] in ideals[e]) for e in E}
    for s in S.elements:
        dom = act.element_domain(s)
        union = frozenset()
        image_union = frozenset()
        for w in core.weak_inverses(S, s):
            union |= graded_into[S.mul(w, s)]
            image_union |= graded_into[S.mul(s, w)]
        if dom != union:
            return f"domain formula fails at s={s}"
        if frozenset(act.act(s, x) for x in dom) != image_union:
            return f"image formula fails at s={s}"


# --- the inputs ---------------------------------------------------------------


def z_k_e(k):
    G = core.build_semigroup([[(i + j) % k for j in range(k)] for i in range(k)])
    return construction.adjoined_band_semigroup(G, name=f"Z{k}E")


def kernel_tables():
    """Every order <= 3 table whose idempotents form a semilattice, fresh
    copies of the fixtures the coset suite runs on, and Z_kE for k <= 6."""
    small = [S for n in (1, 2, 3) for S in construction.enumerate_semigroups(n)]
    fixtures = [core.build_semigroup(fx(n).table, name=n) for n in construction.FIXTURE_NAMES]
    return [
        S
        for S in small + fixtures + [z_k_e(k) for k in range(1, 7)]
        if not verify._skip_reason(S)
    ]


def magmas(count, seed):
    """Unvalidated tables of order 2 to 4: the pi_H laws hold for every
    semigroup, so only a table that is not one breaks the later ones."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 4)
        yield FiniteSemigroup(tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)))


def subsets(S):
    """Every nonempty subset up to order 4, else the closures suite's family."""
    if S.n <= 4:
        return [frozenset(c) for r in range(1, S.n + 1) for c in combinations(S.elements, r)]
    return [A for A in verify._subset_family(S) if A]


def space_of(S, H, d):
    """A stand-in for the coset space of H with domain d: the distinct
    classes of d as its cosets, and H as the stabilizer of each."""
    distinct = list(dict.fromkeys(ref_classes(S, H, d).values()))
    return SimpleNamespace(
        domain=d,
        cosets=[SimpleNamespace(members=c) for c in distinct],
        index_of=distinct.index,
        act=SimpleNamespace(stabilizers=[H] * len(distinct)),
    )


def domains(S, H):
    """D_H, all of S, and the s whose pi_H row is not empty."""
    rel = ref_pi_h(S, H, S.elements)
    return {cosets.domain_d_h(S, H), frozenset(S.elements), frozenset(s for s, _ in rel)}


def part(witness):
    """The failing part a witness names: its text before " at "."""
    head = witness.split(" at ")[0]
    return "related pair" if head.startswith("related pair") else head


# the stand-ins for omega_h: with the identity the classes are the products sH
STAND_INS = {
    "omega_h": None,
    "identity": lambda S, A: frozenset(A),
    "adds-idempotents": lambda S, A: frozenset(A) | core.idempotents(S),
}


# unvalidated tables on which transitivity fails at (s, t) for several r,
# so that the least r is told apart (found by a seeded search), with H
SEVERAL_WITNESSES = (
    (((3, 2, 0, 4, 2), (2, 4, 4, 4, 4), (1, 0, 4, 0, 1), (3, 4, 0, 2, 2), (1, 1, 0, 2, 2)), {1, 3, 4}),
    (((0, 2, 1, 3), (3, 2, 1, 2), (0, 3, 1, 0), (1, 0, 0, 0)), {0, 2}),
    (((2, 2, 0, 0), (0, 1, 1, 1), (0, 2, 2, 2), (0, 3, 2, 2)), {2}),
    (((4, 4, 0, 4, 3), (4, 2, 1, 4, 1), (2, 0, 2, 1, 1), (3, 4, 1, 3, 3), (1, 4, 2, 1, 2)), {2, 3}),
)


def coset_inputs(monkeypatch):
    """(S, H, space) triples under each stand-in for omega_h, on the
    semigroups and on unvalidated tables."""
    real = closures.omega_h
    for name, stand_in in STAND_INS.items():
        monkeypatch.setattr(closures, "omega_h", stand_in or real)
        for S in kernel_tables():
            for H in subsets(S):
                for d in domains(S, H):
                    yield S, H, space_of(S, H, d)
        if stand_in is not None:
            for S in magmas(500, name):
                # a sampled subset, and the idempotents, which reach the coset laws
                sample = frozenset(random.Random(str(S.table)).sample(range(S.n), 1 + S.n // 2))
                for H in {sample, core.idempotents(S)} - {frozenset()}:
                    for d in domains(S, H):
                        yield S, H, space_of(S, H, d)
            for table, H in SEVERAL_WITNESSES:
                S, H = FiniteSemigroup(table), frozenset(H)
                for d in domains(S, H):
                    yield S, H, space_of(S, H, d)
    monkeypatch.setattr(closures, "omega_h", real)


# --- the coset suite ----------------------------------------------------------

COSET_CHECKS = {
    "partial-congruence": (verify._pi_properties_violations, ref_pi_properties_violations),
    "classes-are-cosets": (verify._coset_class_violations, ref_coset_class_violations),
    "coset-laws": (verify._coset_lemma_violations, ref_coset_lemma_violations),
}

COSET_PARTS = {
    "partial-congruence": {
        "related pair",
        "not reflexive on domain",
        "not symmetric",
        "not transitive",
        "left compatibility (domain)",
        "left compatibility (relation)",
        "left cancellation",
    },
    "classes-are-cosets": {"four-way equivalence fails"},
    "coset-laws": {"part 4 (definedness)", "part 4 (equality)", "part 4 (st defined without t)"},
}


@pytest.mark.parametrize("check", COSET_CHECKS)
def test_coset_checks_name_the_first_witness_of_the_pair_scans(monkeypatch, check):
    kernel, ref = COSET_CHECKS[check]
    seen = Counter()
    for S, H, space in coset_inputs(monkeypatch):
        got = kernel(S, H, space)
        assert got == ref(S, H, space), (S.table, sorted(H), sorted(space.domain))
        if got is not None:
            seen[part(got)] += 1
    assert all(seen[p] >= 3 for p in COSET_PARTS[check]), seen


def test_partial_congruence_holds_on_every_closed_base():
    for S in kernel_tables():
        for H in closures.closed_e_dense_subsemigroups(S):
            space = cosets.coset_space(S, H)
            for check in COSET_CHECKS.values():
                assert check[0](S, H, space) is None, (S.table, sorted(H))


def test_conjugacy_kernels_name_the_first_witness_of_the_scans():
    found = Counter()
    for S in kernel_tables():
        bases = closures.closed_e_dense_subsemigroups(S)
        for H, K in product(bases, repeat=2):
            got = cosets.are_conjugate(S, H, K)
            assert got == ref_are_conjugate(S, H, K), (S.table, sorted(H), sorted(K))
            found["conjugate" if got else "not conjugate"] += 1
        for H in subsets(S):
            got = cosets._conjugacy_witness(S, H)
            assert got == ref_conjugacy_witness(S, H), (S.table, sorted(H))
            found["witness" if got else "no witness"] += 1
    for S in magmas(300, "conjugacy"):
        for H in subsets(S):
            got = cosets._conjugacy_witness(S, H)
            assert got == ref_conjugacy_witness(S, H), (S.table, sorted(H))
            found["witness" if got else "no witness"] += 1
    assert min(found.values()) >= 3 and len(found) == 4, found


def _broken_rho(rng):
    """A stand-in for ``cosets.rho_representation`` that corrupts one
    image tuple, chosen by ``rng``, in one of four ways."""
    real = cosets.rho_representation

    def broken(S, H):
        rho = real(S, H)
        perms = dict(rho.permutations)
        s, t = rng.choice(list(perms)), rng.choice(list(perms))
        kind = rng.randrange(4)
        if kind == 0:
            perms[s], perms[t] = perms[t], perms[s]
        elif kind == 1:
            perms[s] = (None, *perms[s][1:])
        elif kind == 2:
            perms[s] = (perms[s][0],) * len(perms[s])
        else:
            perms[s] = perms[s][::-1]
        return dataclasses.replace(rho, permutations=perms)

    return broken


def test_self_conjugacy_check_matches_its_loops_under_broken_results(monkeypatch):
    rng = random.Random("rho")
    seen = Counter()
    real_self_conjugate = cosets.is_self_conjugate
    tables = kernel_tables()
    for trial in range(6):
        monkeypatch.setattr(cosets, "rho_representation", _broken_rho(rng))
        if trial % 2:
            # the product criterion flipped: the witness prints the other two forms
            monkeypatch.setattr(cosets, "is_self_conjugate", lambda S, H: not real_self_conjugate(S, H))
        else:
            monkeypatch.setattr(cosets, "is_self_conjugate", real_self_conjugate)
        for S in tables:
            bases = closures.closed_e_dense_subsemigroups(S)
            state = rng.getstate()
            got = verify._self_conjugacy_violations(S, bases)
            rng.setstate(state)
            assert got == ref_self_conjugacy_violations(S, bases), S.name
            if got is not None:
                seen[got.split(": ", 1)[1].split(",")[0]] += 1
    parts = (
        "rho must be a homomorphism",
        "each rho_s must be a bijection",
        "D_H must be closed under products",
        "product-criterion=False",
        "product-criterion=True",
    )
    assert all(seen[p] >= 3 for p in parts), seen


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_self_conjugacy_check_matches_its_loops_on_subsets_that_are_not_bases(monkeypatch):
    # the two library criteria replaced by the test-local scans, which take
    # any subset: the conjugation form is then compared on every subset
    monkeypatch.setattr(cosets, "is_self_conjugate", lambda S, H: ref_conjugacy_witness(S, H) is None)
    monkeypatch.setattr(cosets, "are_conjugate", ref_are_conjugate)
    forms = Counter()
    for S in kernel_tables():
        family = subsets(S)
        for H in family:
            got = outcome(verify._self_conjugacy_violations, S, [H, *family[:3]])
            assert got == outcome(ref_self_conjugacy_violations, S, [H, *family[:3]]), (S.table, H)
            if isinstance(got, str) and "conjugation-form" in got:
                forms[got.split("conjugation-form=")[1].split(",")[0]] += 1
    assert forms["True"] >= 3 and forms["False"] >= 3, forms


def test_rho_kernel_is_compared_on_the_domain_of_the_space():
    # the stored coset space of a self-conjugate base with its largest
    # domain element dropped: pi_H then relates elements outside the domain,
    # and only the pairs inside it enter the kernel comparison
    seen = Counter()
    for S in kernel_tables():
        for H in closures.closed_e_dense_subsemigroups(S):
            if not cosets.is_self_conjugate(S, H) or len(cosets.coset_space(S, H).domain) < 2:
                continue
            space = cosets.coset_space(S, H)
            S.structure.coset_spaces[H] = dataclasses.replace(space, domain=space.domain - {max(space.domain)})
            got = verify._quotient_violations(S, H)
            assert got == ref_quotient_violations(S, H), (S.table, sorted(H))
            seen[got] += 1
            S.structure.coset_spaces[H] = space
    assert sum(n for w, n in seen.items() if w) >= 3, seen


# --- the closures and act suites ----------------------------------------------

SANDWICH_STAND_INS = {
    **STAND_INS,
    # no idempotent, so y'y may miss Hc and part 2's hypothesis decides
    "drops-idempotents": lambda S, A: (frozenset(A) - core.idempotents(S)) | {S.n - 1},
}


def test_sandwich_laws_name_the_first_witness_of_the_loops(monkeypatch):
    real = closures.omega_h
    seen = Counter()
    for stand_in in SANDWICH_STAND_INS.values():
        monkeypatch.setattr(closures, "omega_h", stand_in or real)
        for S in kernel_tables():
            got = verify._idempotent_closed_lemma_violations(S)
            assert got == ref_idempotent_closed_lemma_violations(S), (S.table, stand_in)
            if got is not None:
                seen[part(got)] += 1
    assert seen["part 1"] >= 3 and seen["part 2"] >= 3, seen


def test_basic_act_laws_name_the_first_witness_on_raw_tables():
    # in most tables an idempotent acting on x fixes it, so part 1 holds
    # and the later parts are reached
    rng = random.Random("raw basic laws")
    seen = Counter()
    for S in kernel_tables():
        E = core.idempotents(S)
        for k in range(6 if S.n > 3 else 3):
            m = rng.randint(1, 4)
            fixing = E if k % 3 else ()
            table = tuple(
                tuple(rng.choice([None, x] if s in fixing else [None, *range(m)]) for x in range(m))
                for s in S.elements
            )
            act = acts.PartialAct(S, table)
            got = verify._basic_lemma_violations(act)
            assert got == ref_basic_lemma_violations(act), (S.table, table)
            if got is not None:
                seen[part(got)] += 1
        # the suite's acts, on which every part holds
        act = acts.wagner_preston(S)
        assert verify._basic_lemma_violations(act) is None is ref_basic_lemma_violations(act)
    parts = ("part 1", "part 2", "part 3", "part 4", "part 4 (domain)")
    assert all(seen[p] >= 3 for p in parts), seen


# --- the product count ----------------------------------------------------------


def test_one_corpus_verify_makes_at_most_40000_products(monkeypatch, capsys):
    # fresh fixtures, so that no earlier test has filled their records; a
    # check that slides back to one product per triple fails here
    monkeypatch.setattr(
        construction, "fixture", functools.lru_cache(construction.fixture.__wrapped__)
    )
    calls = [0]
    real = FiniteSemigroup.mul

    def mul(S, a, b):
        calls[0] += 1
        return real(S, a, b)

    monkeypatch.setattr(FiniteSemigroup, "mul", mul)
    assert cli.main(["verify", "--corpus", "--json"]) == 0
    capsys.readouterr()
    assert 0 < calls[0] <= 40_000, calls[0]


# --- the core suite and the act record readers --------------------------------

CORE_CHECKS = (
    "_wvl_violations",
    "_band_weak_inverse_violations",
    "_weak_self_conjugacy_violations",
    "_mitsch_order_violations",
    "_h_refines_mitsch_violations",
    "_regular_orders_violations",
    "_idempotent_witness_violations",
    "_weak_inverse_lemma_violations",
)


def perturbed_records(tables, seed):
    """Fresh copies of ``tables`` with one datum of the structure record
    replaced, the way a wrong library result would be: a row of either
    order grown or changed, or W(s) grown, or V(s) replaced."""
    rng = random.Random(seed)
    for S in tables:
        R = FiniteSemigroup(S.table)
        st, n = R.structure, R.n

        def some():
            return frozenset(rng.sample(range(n), rng.randint(0, n)))

        kind, s = rng.randrange(4), rng.randrange(n)
        if kind == 0:
            st.h_down = tuple(row | some() if b == s else row for b, row in enumerate(st.h_down))
        elif kind == 1:
            st.natural_down = tuple(row ^ some() if b == s else row for b, row in enumerate(st.natural_down))
        else:
            ivs = list(st.inverse_sets)
            if kind == 2:
                ivs[s] = dataclasses.replace(ivs[s], W=ivs[s].W | some())
            else:
                ivs[s] = dataclasses.replace(ivs[s], V=some())
            st.inverse_sets = tuple(ivs)
        yield R


def test_core_checks_name_the_first_witness_of_their_loops():
    # every table of order <= 3, the fixtures, Z_kE, unvalidated tables and
    # records with one wrong datum; the checks read the record directly and
    # test an order's laws row by row, rescanning only when one fails
    small = [S for n in (1, 2, 3) for S in construction.enumerate_semigroups(n)]
    fixtures = [core.build_semigroup(fx(n).table) for n in construction.FIXTURE_NAMES]
    tables = small + fixtures + [z_k_e(k) for k in range(1, 7)]
    seen = Counter()
    inputs = [*tables, *magmas(1000, "core"), *perturbed_records(tables * 3, "records")]
    for S in inputs:
        for name in CORE_CHECKS:
            got = outcome(getattr(verify, name), S)
            assert got == outcome(globals()["ref" + name], S), (name, S.table)
            if isinstance(got, str):
                seen[name, part(got)] += 1
    wanted = [
        ("_mitsch_order_violations", "not transitive"),
        ("_weak_inverse_lemma_violations", "part 2 (greatest)"),
        ("_weak_inverse_lemma_violations", "part 3 (es'* below s)"),
        ("_band_weak_inverse_violations", "band but W(st) != W(t)W(s)"),
    ]
    assert all(seen[w] >= 3 for w in wanted), seen
    for name in CORE_CHECKS:
        assert sum(n for (check, _), n in seen.items() if check == name) >= 3, name


def test_act_record_readers_match_their_loops_on_raw_tables():
    # raw tables over each semigroup: the gluing condition is compared as a
    # flag, the grading laws by their first witness
    rng = random.Random("raw act readers")
    seen = Counter()
    for S in kernel_tables():
        E = core.idempotents(S)
        for k in range(8 if S.n > 3 else 4):
            m = rng.randint(1, 4)
            fixing = E if k % 4 else ()
            table = tuple(
                tuple(rng.choice([None, x] if s in fixing else [None, *range(m)]) for x in range(m))
                for s in S.elements
            )
            act = acts.PartialAct(S, table)
            for check in ("_locally_free_iff_violations", "_grading_law_violations"):
                got = outcome(getattr(verify, check), act)
                assert got == outcome(globals()["ref" + check], act), (check, S.table, table)
                if isinstance(got, str):
                    seen[check, part(got)] += 1
        for act in (acts.wagner_preston(S), acts.munn_act(S)):
            assert verify._locally_free_iff_violations(act) is None
            assert verify._grading_law_violations(act) is None
    assert sum(n for (check, _), n in seen.items() if check == "_locally_free_iff_violations") >= 3, seen
    assert sum(n for (check, _), n in seen.items() if check == "_grading_law_violations") >= 3, seen


def ref_is_s_map(src, dst, mapping):
    S = src.semigroup
    pairs = mapping.items() if isinstance(mapping, dict) else enumerate(mapping)
    for x, y in pairs:
        for s in S.elements:
            if src.defined(s, x) != dst.defined(s, y):
                return False
            if src.defined(s, x) and mapping[src.act(s, x)] != dst.act(s, y):
                return False
    return True


def test_s_map_test_matches_its_loop_on_raw_tables():
    # lists and dicts, maps that hold and maps that fail, and dicts that
    # miss a point the action reaches (a KeyError, raised by both)
    rng = random.Random("s-maps")
    seen = Counter()
    for S in kernel_tables():
        for _ in range(4):
            m = rng.randint(1, 3)

            def raw():
                return acts.PartialAct(
                    S, tuple(tuple(rng.choice([None, *range(m)]) for _ in range(m)) for _ in S.elements)
                )

            src, dst = raw(), raw()
            for mapping in (
                list(range(m)),
                [rng.randrange(m) for _ in range(m)],
                {x: rng.randrange(m) for x in rng.sample(range(m), rng.randint(1, m))},
            ):
                for a, b in ((src, dst), (src, src)):
                    got = outcome(acts.is_s_map, a, b, mapping)
                    assert got == outcome(ref_is_s_map, a, b, mapping), (S.table, a.table, b.table, mapping)
                    seen[got if isinstance(got, bool) else got[0].__name__] += 1
    assert all(seen[k] >= 3 for k in (True, False, "KeyError")), seen
