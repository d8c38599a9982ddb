"""Exhaustive verification suites for the structural facts the package
relies on: weak-inverse laws, order and closure laws, act and coset
structure theorems, the pair-monoid construction, and the decrypt-key
space results.  Each named check scans every instance in range and
returns the first counterexample as its witness, or None when it finds
none.
"""

from __future__ import annotations

import functools
from itertools import combinations, compress, count, product
from operator import eq, le, ne, xor

from . import acts, closures, core, cosets, construction, crypto
from .core import FiniteSemigroup
from .errors import WorkbenchError
from .report import Finding

SUITE_NAMES = ("core", "closures", "acts", "cosets", "construction", "crypto")

# the largest order the act and coset suites and the subsemigroup lemmas run on
_DESK_SCALE_BOUND = 12
_NOTHING = frozenset()


def finding(name: str, witness: str | None) -> Finding:
    """The finding of a check that returned ``witness``: it passes on None."""
    return Finding(name, witness is None, witness)


def _skip_reason(S: FiniteSemigroup) -> str | None:
    """Why the act and coset suites and the subsemigroup lemmas skip S, or
    None when they run on it."""
    if not core.classify_idempotents(S).is_semilattice:
        return "idempotents not a semilattice"
    if S.n > _DESK_SCALE_BOUND:
        return "order beyond the desk-scale bound"


@functools.cache
def _small_tables() -> tuple[FiniteSemigroup, ...]:
    """Every associative table of order 1 to 3 in enumeration order: the
    enumeration-count check and the small-order sweep both read it."""
    return tuple(S for n in (1, 2, 3) for S in construction.enumerate_semigroups(n))


def _into_rows(S: FiniteSemigroup, A) -> list[frozenset[int]]:
    """Row a holds every y with a*y in A, from one pass over row a of the
    table."""
    elements, inside = S.elements, A.__contains__
    return [frozenset(compress(elements, map(inside, row))) for row in S.table]


def _tag(S: FiniteSemigroup) -> str:
    return f"[{S.name}]" if S.name else f"[n={S.n}]"


# --- core suite ------------------------------------------------------------


def _wvl_violations(S):
    rows = S.table
    for s, iv in enumerate(S.structure.inverse_sets):
        if not (iv.V <= iv.W <= iv.L):
            return f"s={s}"
        for t in iv.L:
            if rows[rows[t][s]][t] not in iv.W:
                return f"s={s}, t={t}: tst not a weak inverse"


def _band_weak_inverse_violations(S):
    band = core.classify_idempotents(S).is_band
    rows = S.table
    W = [iv.W for iv in S.structure.inverse_sets]
    for s, t in product(S.elements, repeat=2):
        # W(t)W(s), the products of a weak inverse of t by one of s
        if W[rows[s][t]] != frozenset([rows[a][b] for a in W[t] for b in W[s]]):
            if band:
                return f"band but W(st) != W(t)W(s) at s={s}, t={t}"
            return None  # non-band direction satisfied by this witness
    if not band:
        return "E not a band yet W(st) = W(t)W(s) everywhere"


def _weak_self_conjugacy_violations(S):
    if not core.classify_idempotents(S).is_band:
        return None
    E, rows = core.idempotents(S), S.table
    for s, iv in enumerate(S.structure.inverse_sets):
        for w in iv.W:
            for e in E:
                if rows[rows[s][e]][w] not in E or rows[rows[w][e]][s] not in E:
                    return f"s={s}, s'={w}, e={e}"


def _mitsch_order_violations(S):
    """Reflexivity, antisymmetry and transitivity of the natural order,
    read off the rows down[b] = {a : a <= b}.  Transitivity is row
    inclusion, down[b] inside down[c] for each b in down[c]; the witness
    is the least (a, b, c) of the rows c where it fails."""
    down = S.structure.natural_down
    els = S.elements
    for a in els:
        if a not in down[a]:
            return f"not reflexive at {a}"
    for a, b in product(els, repeat=2):
        if a != b and a in down[b] and b in down[a]:
            return f"not antisymmetric at ({a}, {b})"
    failing = [c for c, row in enumerate(down) if not row >= _NOTHING.union(*map(down.__getitem__, row))]
    if failing:
        a, b, c = min((a, b, c) for c in failing for b in down[c] for a in down[b] - down[c])
        return f"not transitive at ({a}, {b}, {c})"


def _h_refines_mitsch_violations(S):
    h, m = S.structure.h_down, S.structure.natural_down
    failing = [b for b, ok in enumerate(map(le, h, m)) if not ok]
    if failing:
        a, b = min((min(h[b] - m[b]), b) for b in failing)
        return f"({a}, {b})"


def _regular_orders_violations(S):
    """The two orders agree at each regular a; the witness is the least (a, b)."""
    h, m, reg = S.structure.h_down, S.structure.natural_down, core.regular_elements(S)
    failing = [(b, diff) for b, diff in enumerate(map(xor, h, m)) if not reg.isdisjoint(diff)]
    if failing:
        a, b = min((min(reg & diff), b) for b, diff in failing)
        return f"regular a={a}, b={b}"


def _group_criteria_violations(S):
    via_l = all(len(core.left_pre_inverses(S, s)) == 1 for s in S.elements)
    direct = core.is_group(S)
    via_e = core.is_e_dense(S) and S.is_monoid() and len(core.idempotents(S)) == 1
    if not (via_l == direct == via_e):
        return f"|L|=1: {via_l}, direct: {direct}, E-dense monoid with |E|=1: {via_e}"


def _e_unitary_criteria_violations(S):
    u1 = core.is_e_unitary(S)
    E = core.idempotents(S)
    u2 = core.classify_idempotents(S).is_band and closures.omega_h(S, E) == E
    if u1 != u2:
        return f"unitary-def: {u1}, band-and-closed: {u2}"


def _e_dense_violations(S):
    """S is E-dense, and each h has the weak inverse h^q: with index i and
    period r, q in i..i+r-1 with r | q+1 gives h^q*h*h^q = h^(q+q+1) = h^q."""
    if not core.is_e_dense(S):
        return "finite semigroup not E-dense"
    for h in S.elements:
        powers, y = [h], S.mul(h, h)
        while y not in powers:
            powers.append(y)
            y = S.mul(y, h)
        index = powers.index(y) + 1
        q = index + (-index - 1) % (len(powers) - index + 1)
        t = powers[q - 1]
        if S.mul(S.mul(t, h), t) != t:
            return f"h^{q} is not a weak inverse of h={h}"


def _idempotent_witness_violations(S):
    # witnessed[b] holds every a = e*b = b*f with e, f idempotent: column b
    # read at E, intersected with row b read at E
    E, rows, columns = core.idempotents(S), S.table, S.structure.columns
    down = S.structure.natural_down
    witnessed = [
        frozenset(map(col.__getitem__, E)).intersection(map(row.__getitem__, E))
        for row, col in zip(rows, columns)
    ]
    failing = [b for b, ok in enumerate(map(le, witnessed, down)) if not ok]
    if failing:
        a, b = min((min(witnessed[b] - down[b]), b) for b in failing)
        return f"({a}, {b})"


def _weak_inverse_lemma_violations(S):
    """The weak-inverse lemma, part by part for each s, reading the table,
    the sets W, V and the idempotent-witnessed order off the structure
    record; the loops and the witness order are those of the lemma."""
    if not core.classify_idempotents(S).is_semilattice:
        return None
    E, rows, columns = core.idempotents(S), S.table, S.structure.columns
    ivs, down = S.structure.inverse_sets, S.structure.h_down
    els = S.elements
    for s in els:
        W, row_s = ivs[s].W, rows[s]
        for w in W:
            for e, f in product(E, repeat=2):
                if rows[rows[e][w]][f] not in W:
                    return f"part 1 at s={s}, s'={w}, e={e}, f={f}"
        for w, v in product(W, repeat=2):
            meet = rows[rows[w][s]][v]
            if meet not in W:
                return f"part 2 (membership) at s={s}"
            if meet != rows[rows[v][s]][w]:
                return f"part 2 (symmetry) at s={s}"
            if not (meet in down[w] and meet in down[v]):
                return f"part 2 (lower bound) at s={s}, {w}, {v}"
            if not W & down[w] & down[v] <= down[meet]:
                t = next(t for t in W if t in down[w] and t in down[v] and t not in down[meet])
                return f"part 2 (greatest) at s={s}, t={t}"
        # sW(s)s, the conjugates of the weak inverses of s
        conjugated = frozenset([rows[row_s[w]][s] for w in W])
        for w in W:
            for u in ivs[w].W:
                if u != rows[rows[u][w]][s] or u != rows[row_s[w]][u]:
                    return f"part 3 (identities) at s={s}, s'={w}, s'*={u}"
                if u not in down[s]:
                    return f"part 3 (below s) at s={s}, s'*={u}"
                if not down[s].issuperset(map(columns[u].__getitem__, E)):
                    e = next(e for e in E if rows[e][u] not in down[s])
                    return f"part 3 (es'* below s) at s={s}, e={e}"
            # for a bare weak inverse only one inclusion survives; the
            # displayed equality needs a mutual inverse (see the pinned
            # counterexample in the tests)
            if not ivs[w].W <= conjugated:
                return f"part 4 (W(s') inside sW(s)s) at s={s}, s'={w}"
            sws = rows[row_s[w]][s]
            if ivs[w].V != {sws}:
                return f"part 4 (V(s')) at s={s}, s'={w}"
            for v in W:
                if rows[rows[sws][v]][s] not in ivs[w].W:
                    return f"part 4 (ss'ss*s) at s={s}, s'={w}, s*={v}"
        for w in ivs[s].V:
            if ivs[w].W != conjugated:
                return f"part 4 (W(s') = sW(s)s for mutual inverses) at s={s}, s'={w}"
    regular = core.regular_elements(S)
    all_weak = frozenset().union(*(iv.W for iv in ivs))
    if all_weak != regular:
        return "part 5: union of weak inverses differs from the regular elements"
    for a, b in product(all_weak, repeat=2):
        if rows[a][b] not in all_weak:
            return f"part 5: not closed at ({a}, {b})"
    for w in all_weak:
        if len(ivs[w].V) != 1:
            return f"part 5: non-unique inverse at {w}"
    for s in els:
        w1 = ivs[s].W
        w2 = frozenset().union(*(ivs[a].W for a in w1)) if w1 else frozenset()
        w3 = frozenset().union(*(ivs[a].W for a in w2)) if w2 else frozenset()
        if w3 != w1:
            return f"part 6 at s={s}"


def suite_core(S: FiniteSemigroup) -> list[Finding]:
    t = _tag(S)
    return [
        finding(f"core.weak-inverse-containments{t}", _wvl_violations(S)),
        finding(f"core.band-iff-weak-inverse-products{t}", _band_weak_inverse_violations(S)),
        finding(f"core.weak-self-conjugacy{t}", _weak_self_conjugacy_violations(S)),
        finding(f"core.natural-order-is-partial-order{t}", _mitsch_order_violations(S)),
        finding(f"core.h-order-refines-natural{t}", _h_refines_mitsch_violations(S)),
        finding(f"core.orders-agree-on-regulars{t}", _regular_orders_violations(S)),
        finding(f"core.group-criteria-agree{t}", _group_criteria_violations(S)),
        finding(f"core.e-unitary-criteria-agree{t}", _e_unitary_criteria_violations(S)),
        finding(f"core.finite-is-e-dense{t}", _e_dense_violations(S)),
        finding(f"core.idempotent-witness-implies-leq{t}", _idempotent_witness_violations(S)),
        finding(f"core.weak-inverse-laws{t}", _weak_inverse_lemma_violations(S)),
    ]


# --- closures suite --------------------------------------------------------


def _subset_family(S):
    if S.n <= 4:
        fam = []
        for r in range(S.n + 1):
            fam.extend(frozenset(c) for c in combinations(S.elements, r))
        return fam
    fam = {frozenset(), core.idempotents(S)}
    fam.update(frozenset({s}) for s in S.elements)
    fam.update(core.weak_inverses(S, s) for s in S.elements)
    E = sorted(core.idempotents(S))
    fam.update(frozenset({e, s}) for e in E[:2] for s in S.elements)
    return sorted(fam, key=lambda A: (len(A), sorted(A)))


def _lemma_subsemigroups(S):
    """The E-dense subsemigroups the three subsemigroup lemmas scan: all of
    them on a table the gate admits, none otherwise."""
    if _skip_reason(S):
        return ()
    return closures.e_dense_subsemigroups(S)


def _closure_law_violations(S):
    for A in _subset_family(S):
        am, ah = closures.omega_m(S, A), closures.omega_h(S, A)
        if closures.omega_m(S, am) != am:
            return f"m-closure not idempotent at {sorted(A)}"
        if closures.omega_h(S, ah) != ah:
            return f"h-closure not idempotent at {sorted(A)}"
        if not (A <= ah <= am):
            return f"A <= Ah <= Am fails at {sorted(A)}"


def _closure_monotone_violations(S):
    fam = _subset_family(S)
    closed = [closures.omega_m(S, A) for A in fam]
    for (A, Am), (B, Bm) in product(zip(fam, closed), repeat=2):
        if A <= B and not Am <= Bm:
            return f"monotone fails at {sorted(A)} <= {sorted(B)}"
        if A <= Bm and not Am <= Bm:
            return f"A <= Bm but Am !<= Bm at {sorted(A)}, {sorted(B)}"


def _closure_on_idempotents_violations(S):
    """omega_m(A) = omega_h(A) for every A <= E, checked on singletons:
    both closures are unions of the up-sets of the members of A, so they
    agree on every A <= E once they agree on each {e}, and the least
    failing subset (by size, then members) is the least failing singleton.
    They do agree: for e idempotent, e <= b in the natural order exactly
    when e <= b in the idempotent-witnessed one.  If e = f*b = b*g for
    idempotents f, g, take x = f and y = g.  If e = x*b = b*y with
    x*e = e = e*y, then f = e*x and g = y*e are idempotent
    ((e*x)(e*x) = e(x*e)x = e*x, and likewise g), and f*b = e*e = b*g."""
    for e in sorted(core.idempotents(S)):
        if closures.omega_m(S, {e}) != closures.omega_h(S, {e}):
            return f"A <= E but closures differ at {[e]}"


def _subsemigroup_closure_violations(S):
    for H in _lemma_subsemigroups(S):
        Hc = closures.omega_h(S, H)
        if not closures.is_e_dense_subsemigroup(S, Hc):
            return f"closure of {sorted(H)} not an E-dense subsemigroup"


def _three_way_closed_violations(S):
    for H in _lemma_subsemigroups(S):
        ch = closures.is_omega_h_closed(S, H)
        cu = closures.is_unitary(S, H)
        cm = closures.is_omega_m_closed(S, H)
        if not (ch == cu == cm):
            return f"{sorted(H)}: h-closed={ch}, unitary={cu}, m-closed={cm}"


def _idempotent_closed_lemma_violations(S):
    """Both parts over every E-dense subsemigroup H, with Hc its closure.
    For each H the rows ``into[a] = {y : ay in Hc}`` are built once, and
    ``bad[x']``, the y with x'ey in Hc for some idempotent e but x'y
    outside Hc, is their union over the x'e less ``into[x']``.  Part 1 is
    then one membership test per (x, x'), part 2 one union over the x' of
    x.  In part 2 the witness x' is the first with y in ``bad[x']``, and
    in both parts the first e with x'ey in Hc is named."""
    E, rows = core.idempotents(S), S.table
    W = [iv.W for iv in S.structure.inverse_sets]
    for H in _lemma_subsemigroups(S):
        Hc = closures.omega_h(S, H)
        into = _into_rows(S, Hc)
        bad = [_NOTHING.union(*(into[row[e]] for e in E)) - into[a] for a, row in enumerate(rows)]
        # x'ex in Hc forces x'x in Hc
        for x in S.elements:
            for xp in W[x]:
                if x in bad[xp]:
                    e = next(e for e in E if S.prod(xp, e, x) in Hc)
                    return f"part 1 at H={sorted(H)}, x={x}, x'={xp}, e={e}"
        # x'ey in Hc and y'y in Hc, for some weak inverse y' of y, force x'y in Hc
        undone = frozenset(y for y in S.elements if any(y in into[yp] for yp in W[y]))
        for x in S.elements:
            failing = undone & _NOTHING.union(*(bad[xp] for xp in W[x]))
            if failing:
                y = min(failing)
                xp = next(xp for xp in W[x] if y in bad[xp])
                e = next(e for e in E if S.prod(xp, e, y) in Hc)
                return f"part 2 at H={sorted(H)}, x={x}, y={y}, e={e}"


def suite_closures(S: FiniteSemigroup) -> list[Finding]:
    t = _tag(S)
    return [
        finding(f"closures.idempotence-and-ordering{t}", _closure_law_violations(S)),
        finding(f"closures.monotonicity{t}", _closure_monotone_violations(S)),
        finding(f"closures.agree-on-idempotent-subsets{t}", _closure_on_idempotents_violations(S)),
        finding(f"closures.subsemigroup-closure{t}", _subsemigroup_closure_violations(S)),
        finding(f"closures.closed-unitary-equivalence{t}", _three_way_closed_violations(S)),
        finding(f"closures.idempotent-sandwich-laws{t}", _idempotent_closed_lemma_violations(S)),
    ]


# --- acts suite ------------------------------------------------------------


def _basic_lemma_violations(act):
    """The four parts at each point x.  Part 2 compares, for every pair
    (s, s') of an element and a weak inverse, whether s' and ss' act on x,
    as two maps over fixed lists.  Part 4 reads the fibres of the column of
    x over D^x and the rows ``into_stab[s'] = {t : s't in S_x}``: the t
    sending x where s does are the t of D^x with a witness s', so each s is
    one set equality.  A failing s names the first t of D^x in their
    symmetric difference or in the fibre through an s' not acting on sx."""
    S, table, rows = act.semigroup, act.table, act.semigroup.table
    E = core.idempotents(S)
    W = [iv.W for iv in S.structure.inverse_sets]
    pairs = [(s, w) for s in S.elements for w in W[s]]
    firsts, products = [w for s, w in pairs], [rows[s][w] for s, w in pairs]
    into_by_stab = {}
    for x in act.points:
        dom = act.point_domains[x]
        stab = act.stabilizers[x]
        if not (E & dom) <= stab:
            return f"part 1 at x={x}"
        inside = dom.__contains__
        i = next(compress(count(), map(ne, map(inside, firsts), map(inside, products))), None)
        if i is not None:
            s, w = pairs[i]
            return f"part 2 at x={x}, s={s}, s'={w}"
        col = [row[x] for row in table]
        for s in dom:
            y = col[s]
            back = any(table[w][y] == x for w in W[s])
            if not back:
                return f"part 3 at x={x}, s={s}"
        fibres = {}
        for t in dom:
            fibres.setdefault(col[t], set()).add(t)
        into_stab = into_by_stab.get(stab)
        if into_stab is None:
            into_stab = into_by_stab[stab] = _into_rows(S, stab)
        for s in dom:
            sx, Ws = col[s], W[s]
            same = fibres[sx]
            reached = dom & _NOTHING.union(*(into_stab[w] for w in Ws))
            if reached == same and all(
                table[w][sx] is not None or into_stab[w].isdisjoint(same) for w in Ws
            ):
                continue
            lost = [w for w in Ws if table[w][sx] is None]
            wrong, blocked = reached ^ same, same & _NOTHING.union(*(into_stab[w] for w in lost))
            t = next(t for t in dom if t in wrong or t in blocked)
            if t in wrong:
                return f"part 4 at x={x}, s={s}, t={t}"
            w = next(w for w in lost if t in into_stab[w])
            return f"part 4 (domain) at x={x}, s={s}, s'={w}"


def _orbit_partition_violations(act):
    orbs = act.orbit_sets
    for x, y in product(act.points, repeat=2):
        if (y in orbs[x]) != (orbs[x] == orbs[y]):
            return f"x={x}, y={y}"


def _effective_orbit_violations(act):
    # a point that no element acts on is an orbit of its own, and is skipped
    for O in act.orbit_partition:
        x = min(O)
        if not act.point_domains[x]:
            continue
        props = act.orbit_act(x).properties
        if not (props.effective and props.transitive):
            return f"orbit of {x} not effective transitive"
    props = act.properties
    if props.effective and props.transitive and len(act.orbit_partition) != 1:
        return "effective transitive act with several orbits"


def _wp_domain_forms_violations(S):
    # D_s = {x : x = s'sx for some s' in W(s)} = {s'sx : x, s' in W(s)}
    rows, _ = acts.left_mult_total(S)
    for s in S.elements:
        image_form = {
            rows[S.mul(w, s)][x] for w in core.weak_inverses(S, s) for x in range(S.n)
        }
        if acts.wagner_preston(S).element_domain(s) != image_form:
            return f"s={s}"


def _wp_idempotent_orbit_violations(S):
    E, wp = core.idempotents(S), acts.wagner_preston(S)
    for e in E:
        if wp.stabilizers[e] != closures.omega_h(S, {e}):
            return f"stabilizer of idempotent {e}"
        if wp.orbit_sets[e] != core.green_l_class(S, e):
            return f"orbit of idempotent {e}"
    regular = core.regular_elements(S)
    for s in S.elements:
        stab = wp.stabilizers[s]
        orb = wp.orbit_sets[s]
        hits = []
        for w in core.weak_inverses(S, s):
            up = closures.omega_h(S, {S.mul(s, w)})
            if not stab <= up:
                return f"part 2 (containment) at s={s}, s'={w}"
            hits.append(stab == up)
        if not orb <= core.green_l_class(S, s):
            return f"part 2 (orbit inside L-class) at s={s}"
        if any(hits) != (s in regular):
            return f"part 2 (equality iff regular) at s={s}"
        if s in regular:
            V = core.inverse_sets(S, s).V
            if not any(stab == closures.omega_h(S, {S.mul(s, v)}) for v in V):
                return f"part 2 (witness in V) at s={s}"
            if orb != core.green_l_class(S, s):
                return f"part 2 (orbit equals L-class) at s={s}"
        for w in core.weak_inverses(S, s):
            if wp.stabilizers[w] != closures.omega_h(S, {S.mul(w, s)}):
                return f"part 4 (stabilizer) at s={s}, s'={w}"
            if wp.orbit_sets[w] != core.green_l_class(S, w):
                return f"part 4 (orbit) at s={s}, s'={w}"
    for e in E:
        for se in wp.orbit_sets[e]:
            stab = wp.stabilizers[se]
            ok = any(
                stab == closures.omega_h(S, {S.prod(s, e, w)})
                for s in S.elements
                if wp.defined(s, e) and wp.act(s, e) == se
                for w in core.weak_inverses(S, s)
            ) or (se == e and stab == closures.omega_h(S, {e}))
            if not ok:
                return f"part 3 at e={e}, point {se}"
            if wp.orbit_sets[se] != core.green_l_class(S, se):
                return f"part 3 (orbit) at point {se}"


def _locally_free_iff_violations(act):
    """Locally free exactly when s and t that agree at x agree on some e in
    S_x.  The pairs that agree at x are the pairs of a fibre of the column
    of x, and each s enters as its row read at S_x."""
    rows = act.semigroup.table
    lf = act.properties.locally_free
    cond = True
    for x, stab in enumerate(act.stabilizers):
        at_stab = core._picker(sorted(stab))
        fibres = {}
        for s in act.point_domains[x]:
            fibres.setdefault(act.table[s][x], []).append(at_stab(rows[s]))
        cond = all(any(map(eq, a, b)) for fibre in fibres.values() for a, b in product(fibre, repeat=2))
        if not cond:
            break
    if lf != cond:
        return f"locally-free={lf}, gluing-condition={cond}"


def _graded_equivalence_violations(act, munn):
    S = act.semigroup
    E = sorted(core.idempotents(S))
    pos = {e: i for i, e in enumerate(E)}
    g = act.grading
    graded = isinstance(g, acts.Grading)
    effective = all(act.point_domains[x] for x in act.points)
    fixing = [act.stabilizers[x] & core.idempotents(S) for x in act.points]
    minima = all(any(all(core.h_leq(S, e, f) for f in F) for e in F) for F in fixing)
    cond3 = effective and minima
    if graded != cond3:
        return f"graded={graded}, effective-with-minima={cond3}"
    # an act map to the idempotent act exists iff the act is graded
    if graded:
        mapping = [pos[g.p[x]] for x in act.points]
        if not acts.is_s_map(act, munn, mapping):
            return "grading is not an act map to the idempotent act"
    elif _act_map_exists(act, munn):
        return "ungraded act admits an act map to the idempotent act"


def _act_map_exists(act, dst):
    """Whether some act map sends act to dst.  Orbits are closed and
    disjoint, and a map of an orbit is forced by the image of its least
    point, so one exists exactly when each orbit has a target in dst whose
    forced map is an act map."""
    return all(
        any(
            f is not None and acts.is_s_map(act, dst, f)
            for f in (acts.forced_map(act, min(O), dst, y0) for y0 in dst.points)
        )
        for O in act.orbit_partition
    )


def _grading_law_violations(act):
    S, table, rows = act.semigroup, act.table, act.semigroup.table
    g = act.grading
    if not isinstance(g, acts.Grading):
        return None
    p = g.p
    E, down = core.idempotents(S), S.structure.h_down
    W = [iv.W for iv in S.structure.inverse_sets]
    for x in act.points:
        fixing = act.stabilizers[x] & E
        if p[x] not in fixing or not all(p[x] in down[f] for f in fixing):
            return f"p({x}) is not the minimum stabilizing idempotent"
        for w in W[p[x]]:
            if table[w][x] is not None and w != p[x]:
                return f"weak inverse of p({x}) acting on x differs from p(x)"
    for s, row in enumerate(table):
        for x, sx in enumerate(row):
            if sx is None:
                continue
            for w in W[s]:
                if rows[w][s] == p[x] and rows[s][w] != p[sx]:
                    return f"s's = p(x) but ss' != p(sx) at s={s}, x={x}"
                if table[w][sx] is not None and p[sx] != rows[rows[s][p[x]]][w]:
                    return f"p(sx) != s p(x) s' at s={s}, x={x}, s'={w}"
    # the points graded into the order ideal of each idempotent; s's and ss'
    # are idempotent for every weak inverse s'
    ideals = {e: acts.order_ideal(S, e) for e in E}
    graded_into = {e: frozenset(x for x in act.points if p[x] in ideals[e]) for e in E}
    for s, row in enumerate(table):
        dom = act.element_domain(s)
        union = _NOTHING.union(*[graded_into[rows[w][s]] for w in W[s]])
        image_union = _NOTHING.union(*[graded_into[rows[s][w]] for w in W[s]])
        if dom != union:
            return f"domain formula fails at s={s}"
        if frozenset(map(row.__getitem__, dom)) != image_union:
            return f"image formula fails at s={s}"


def _free_transitive_graded_violations(S, collection):
    E = core.idempotents(S)
    orbit_acts = {e: acts.wagner_preston(S).orbit_act(e) for e in E}
    for e, oa in orbit_acts.items():
        props = oa.properties
        if not (props.locally_free and props.transitive):
            return f"orbit of idempotent {e} not locally free transitive"
        if not isinstance(oa.grading, acts.Grading):
            return f"orbit of idempotent {e} not graded"
    for name, act in collection:
        props = act.properties
        lhs = (
            props.locally_free
            and props.transitive
            and isinstance(act.grading, acts.Grading)
        )
        rhs = any(acts.find_act_isomorphism(act, oa) is not None for oa in orbit_acts.values())
        if lhs != rhs:
            return f"{name}: locally-free+transitive+graded={lhs} but iso-to-idempotent-orbit={rhs}"


def _graded_quotient_violations(act):
    S, g = act.semigroup, act.grading
    if not isinstance(g, acts.Grading):
        return None
    wp = acts.wagner_preston(S)
    for O in act.orbit_partition:
        x = min(O)
        px = g.p[x]
        source_points = sorted(wp.orbit_sets[px])
        # map s*p(x) -> s*x; well-definedness and the act-map law are the claim
        mapping = []
        target_points = sorted(O)
        tpos = {p: i for i, p in enumerate(target_points)}
        for q in source_points:
            images = set()
            for s in S.elements:
                if wp.defined(s, px) and wp.act(s, px) == q:
                    if not act.defined(s, x):
                        return f"{s} acts on p({x}) but not on {x}"
                    images.add(act.act(s, x))
            if len(images) != 1:
                return f"map undefined or inconsistent at orbit point {q}"
            mapping.append(tpos[images.pop()])
        if set(mapping) != set(range(len(target_points))):
            return f"map not onto the orbit of {x}"
        if not acts.is_s_map(wp.orbit_act(px), act.orbit_act(x), mapping):
            return f"quotient map is not an act map on the orbit of {x}"


def _stabilizers_closed_violations(act):
    S = act.semigroup
    for x in act.points:
        stab = act.stabilizers[x]
        if not stab:
            continue
        if not closures.is_e_dense_subsemigroup(S, stab):
            return f"stabilizer of {x} not an E-dense subsemigroup"
        if closures.omega_h(S, stab) != stab:
            return f"stabilizer of {x} not closed"


def suite_acts(S: FiniteSemigroup) -> list[Finding]:
    """The act findings of S, over the Wagner-Preston act that S keeps."""
    t = _tag(S)
    reason = _skip_reason(S)
    if reason:
        return [Finding(f"acts.skipped{t}", True, reason)]
    wp = acts.wagner_preston(S)
    munn = acts.munn_act(S)
    collection = [("wp-self", wp), ("munn", munn)]
    collection += [(f"wp-orbit-{min(O)}", wp.orbit_act(min(O))) for O in wp.orbit_partition]
    out = [
        Finding(f"acts.constructions-validate{t}", True, f"{len(collection)} acts"),
        finding(f"acts.wp-domain-forms{t}", _wp_domain_forms_violations(S)),
        finding(f"acts.wp-idempotent-orbits{t}", _wp_idempotent_orbit_violations(S)),
        finding(
            f"acts.free-transitive-graded-classification{t}",
            _free_transitive_graded_violations(S, collection),
        ),
        finding(f"acts.order-ideal-forms{t}", _order_ideal_violations(S)),
        finding(f"acts.munn-grading-is-identity{t}", _munn_grading_violations(S, munn)),
    ]
    for name, act in collection:
        nt = f"{t}[{name}]"
        out += [
            finding(f"acts.basic-act-laws{nt}", _basic_lemma_violations(act)),
            finding(f"acts.orbits-partition{nt}", _orbit_partition_violations(act)),
            finding(f"acts.effective-orbits{nt}", _effective_orbit_violations(act)),
            finding(f"acts.locally-free-iff{nt}", _locally_free_iff_violations(act)),
            finding(f"acts.graded-equivalence{nt}", _graded_equivalence_violations(act, munn)),
            finding(f"acts.grading-laws{nt}", _grading_law_violations(act)),
            finding(f"acts.graded-quotient-of-locally-free{nt}", _graded_quotient_violations(act)),
            finding(f"acts.stabilizers-closed{nt}", _stabilizers_closed_violations(act)),
        ]
    return out


def _order_ideal_violations(S):
    # [e] = eE = W(e) = {s : s below e in the idempotent-witnessed order}
    for e in sorted(core.idempotents(S)):
        ideal = acts.order_ideal(S, e)
        if ideal != core.weak_inverses(S, e):
            return f"e={e}: [e] != W(e)"
        if ideal != frozenset(s for s in S.elements if core.h_leq(S, s, e)):
            return f"e={e}: [e] != the elements below e"


def _munn_grading_violations(S, munn):
    g = munn.grading
    if not isinstance(g, acts.Grading):
        return f"idempotent act not graded: {g.reason}"
    E = sorted(core.idempotents(S))
    if tuple(E[i] for i in range(len(E))) != g.p:
        return f"grading is {g.p}, expected the identity on {E}"


# --- cosets suite ----------------------------------------------------------


def _pi_rows(S, H) -> tuple[frozenset[int], ...]:
    """Row s of pi_H: the t with s't in H for some weak inverse s' of s,
    the union of the rows {t : s't in H} over W(s)."""
    into = _into_rows(S, H)
    return tuple(_NOTHING.union(*map(into.__getitem__, iv.W)) for iv in S.structure.inverse_sets)


def _classes(S, H, d):
    """The class (sH)^ of each s in the domain d of pi_H."""
    rows = S.table
    return {s: closures.omega_h(S, frozenset(map(rows[s].__getitem__, H))) for s in d}


def _pi_properties_violations(S, H, space):
    """pi_H is a left cancellative left congruence on D_H, checked on its
    rows: reflexivity and symmetry are row membership, transitivity row
    inclusion; left compatibility asks that r carry row u into row ru, or
    out of D_H when ru is outside it, and left cancellation that the t with
    xt in row xa lie in row a.  Each witness is the least related pair
    that a failing row leaves out of place."""
    d, rows, columns, elements = space.domain, S.table, S.structure.columns, S.elements
    pi = _pi_rows(S, H)
    for s, row in enumerate(pi):
        if row and not (s in d and row <= d):
            return f"related pair ({s}, {min(row if s not in d else row - d)}) escapes the domain"
    # from here every row lies in D_H
    for s in d:
        if s not in pi[s]:
            return f"not reflexive on domain at {s}"
    back = core._transpose(pi)  # back[t] holds the s with t in row s
    for s, row in enumerate(pi):
        if not row <= back[s]:
            return f"not symmetric at ({s}, {min(row - back[s])})"
    for s, row in enumerate(pi):
        if not row.issuperset(_NOTHING.union(*map(pi.__getitem__, row))):
            t = min(t for t in row if not pi[t] <= row)
            return f"not transitive at ({s}, {t}, {min(pi[t] - row)})"
    # r must carry row u into the place of ru: row ru, or the elements
    # outside D_H when ru is outside it
    outside = frozenset(elements) - d
    place = [row if s in d else outside for s, row in enumerate(pi)]
    for u, row in enumerate(pi):
        if all(place[ru].issuperset(map(rrow.__getitem__, row)) for rrow, ru in zip(rows, columns[u])):
            continue
        # the least v of row u that some r carries out of place
        v, r = min(
            (min(bad), r)
            for r, (rrow, ru) in enumerate(zip(rows, columns[u]))
            if (bad := row.difference(compress(elements, map(place[ru].__contains__, rrow))))
        )
        part = "domain" if (rows[r][u] in d) != (rows[r][v] in d) else "relation"
        return f"left compatibility ({part}) at r={r}, ({u}, {v})"
    # left cancellative: the b with xb in row xa, for each value xa, by x
    for x, xrow in enumerate(rows):
        lifted = {c: set(compress(elements, map(pi[c].__contains__, xrow))) for c in set(xrow)}
        for a, xa in enumerate(xrow):
            bad = lifted[xa] - pi[a]
            if bad:
                return f"left cancellation at x={x}, a={a}, b={min(bad)}"


def _coset_class_violations(S, H, space):
    """The cosets partition D_H with H among them, and for a, b in D_H the
    four relations (same class, pi_H, a in the class of b, b in the class
    of a) agree: for each a they are four sets of b, and a failing a names
    the least b on which they split."""
    d = space.domain
    members = [c.members for c in space.cosets]
    if H not in members:
        return "H is not a coset"
    if frozenset().union(*members) != d or sum(map(len, members)) != len(d):
        return "cosets do not partition D_H"
    if space.act.stabilizers[space.index_of(H)] != H:
        return "stabilizer of the coset H is not H"
    classes = _classes(S, H, d)
    for s, cls in classes.items():
        if cls not in members:
            return f"class of {s} is not a coset"
        if s not in cls:
            return f"{s} outside its own class"
    # from here the classes are the cosets, which partition D_H
    pi = _pi_rows(S, H)
    same, related, inside = {}, {a: set() for a in d}, {a: set() for a in d}
    for b in d:
        same.setdefault(classes[b], set()).add(b)
        for a in pi[b] & d:
            related[a].add(b)
        for a in classes[b]:
            inside[a].add(b)
    for a in sorted(d):
        rel = same[classes[a]], related[a], inside[a], classes[a]
        if not rel[0] == rel[1] == rel[2] == rel[3]:
            # the b in some of the four sets but not in all
            b = min(_NOTHING.union(*rel) - classes[a].intersection(*rel))
            return f"four-way equivalence fails at ({a}, {b})"


def _coset_lemma_violations(S, H, space):
    E = core.idempotents(S)
    with_idem = [c for c in space.cosets if c.members & E]
    if len(with_idem) != 1 or with_idem[0].members != H:
        return "idempotents distributed over cosets other than the base"
    for c in space.cosets:
        if closures.omega_h(S, c.members) != c.members:
            return f"coset {sorted(c.members)} not closed"
    members = {c.members for c in space.cosets}
    d = space.domain
    classes = _classes(S, H, d)
    for s, row in enumerate(S.table):
        # the closure of s times a class, once per class
        closed = {}
        for t, st in enumerate(row):
            if t not in d:
                if st in d:
                    return f"part 4 (st defined without t) at s={s}, t={t}"
                continue
            s_tc = closed.get(classes[t])
            if s_tc is None:
                s_tc = closures.omega_h(S, frozenset(map(row.__getitem__, classes[t])))
                closed[classes[t]] = s_tc
            if (st in d) != (s_tc in members):
                return f"part 4 (definedness) at s={s}, t={t}"
            if st in d and s_tc != classes[st]:
                return f"part 4 (equality) at s={s}, t={t}"


def _conjugacy_violations(S, bases):
    coset_acts = {H: cosets.coset_space(S, H).act for H in bases}
    for H, K in product(bases, repeat=2):
        at = f"H={sorted(H)}, K={sorted(K)}"
        witness = cosets.are_conjugate(S, H, K)
        if H == K and witness is None:
            return f"H={sorted(H)} not conjugate to itself"
        if witness is not None:
            s, w = witness
            if (
                closures.omega_h(S, core.set_mul(S, {w}, H, {s})) != K
                or closures.omega_h(S, core.set_mul(S, {s}, K, {w})) != H
            ):
                return f"{at}: closure of s'Hs is not K, or of sKs' not H, at {witness}"
            if S.mul(s, w) not in H or S.mul(w, s) not in K:
                return f"{at}: ss' not in H or s's not in K at {witness}"
        iso = acts.find_act_isomorphism(coset_acts[H], coset_acts[K])
        if (witness is None) != (iso is None):
            return f"{at}: conjugacy witness search and act isomorphism disagree"


def _stabilizer_conjugacy_violations(S):
    wp = acts.wagner_preston(S)
    for s in S.elements:
        for x in wp.element_domain(s):
            stab_x = wp.stabilizers[x]
            sx = wp.act(s, x)
            stab_sx = wp.stabilizers[sx]
            for w in core.weak_inverses(S, s):
                if not wp.defined(w, sx):
                    continue
                conj = core.set_mul(S, {s}, stab_x, {w})
                if closures.omega_h(S, conj) != stab_sx:
                    return f"(s S_x s')^ != S_sx at s={s}, x={x}, s'={w}"
                if not closures.is_e_dense_subsemigroup(S, conj):
                    return f"s S_x s' not an E-dense subsemigroup at s={s}, x={x}"
            if cosets.are_conjugate(S, stab_x, stab_sx) is None:
                return f"S_x and S_sx not conjugate at s={s}, x={x}"


def _conjugate_subsemigroup_remark_violations(S, bases):
    for H in bases:
        for s in S.elements:
            for w in core.weak_inverses(S, s):
                if S.mul(s, w) in H:
                    conj = core.set_mul(S, {w}, H, {s})
                    if not closures.is_e_dense_subsemigroup(S, conj):
                        return f"s'Hs not E-dense subsemigroup at H={sorted(H)}, s={s}"


def _self_conjugacy_violations(S, bases):
    rows, columns = S.table, S.structure.columns
    for H in bases:
        crit = cosets.is_self_conjugate(S, H)
        # sHs' is column s' read at row s over H
        form2 = all(
            H.issuperset(map(columns[w].__getitem__, map(rows[s].__getitem__, H)))
            for s in S.elements
            for w in core.weak_inverses(S, s)
            if rows[w][s] in H
        )
        only_self = all(
            (cosets.are_conjugate(S, H, K) is None) == (H != K) for K in bases
        )
        if not (crit == form2 == only_self):
            return f"H={sorted(H)}: product-criterion={crit}, conjugation-form={form2}, only-self={only_self}"
        if crit:
            d = cosets.domain_d_h(S, H)
            if closures.omega_h(S, d) != d or not closures.is_e_dense_subsemigroup(S, d):
                return f"D_H not a closed E-dense subsemigroup for H={sorted(H)}"
            v = _quotient_violations(S, H)
            if v:
                return f"H={sorted(H)}: {v}"


def _quotient_violations(S, H):
    # rho: D_H -> Sym(cosets) is a homomorphism whose kernel is pi_H, and the
    # cosets of a self-conjugate H form a group with identity H; rho reads
    # every row of the coset act, so it is checked before the quotient is built
    space = cosets.coset_space(S, H)
    rho = cosets.rho_representation(S, H)
    perms, k = rho.permutations, len(space.cosets)
    for s, images in perms.items():
        if None in images:
            return "D_H must be closed under products"
        if sorted(images) != list(range(k)):
            return "each rho_s must be a bijection"
    # rho_st = rho_s after rho_t: each rho_t picks from every whole row rho_s
    columns = S.structure.columns
    for t, images in perms.items():
        compose = core._picker(images)
        if any(perms.get(columns[t][s]) != compose(row) for s, row in perms.items()):
            return "rho must be a homomorphism"
    # the kernel and pi_H, as their nonempty rows on D_H
    fibres = {}
    for s, images in perms.items():
        fibres.setdefault(images, set()).add(s)
    d, pi = space.domain, _pi_rows(S, H)
    pi_on_d = {s: row for s in d if (row := pi[s] & d)}
    if {s: fibres[images] for s, images in perms.items()} != pi_on_d:
        return "kernel of rho must be the coset congruence"
    try:
        Q = cosets.quotient_group(S, H)
    except WorkbenchError as exc:  # the table of the coset product is refused
        return f"the cosets do not form a group with identity H ({exc})"
    if not core.is_group(Q) or Q.identity != space.index_of(H):
        return "the cosets do not form a group with identity H"


def _orbit_stabilizer_violations(S):
    wp = acts.wagner_preston(S)
    for x in wp.points:
        if not wp.point_domains[x]:
            continue
        space = cosets.coset_space(S, wp.stabilizers[x])
        if acts.find_act_isomorphism(wp.orbit_act(x), space.act) is None:
            return f"orbit of {x} not isomorphic to the coset act of its stabilizer"


def suite_cosets(S: FiniteSemigroup) -> list[Finding]:
    """The coset findings of S, over the Wagner-Preston act that S keeps."""
    t = _tag(S)
    reason = _skip_reason(S)
    if reason:
        return [Finding(f"cosets.skipped{t}", True, reason)]
    bases = closures.closed_e_dense_subsemigroups(S)
    out = [Finding(f"cosets.bases{t}", True, f"{len(bases)} closed E-dense subsemigroups")]
    for H in bases:
        ht = f"{t}[H={','.join(map(str, sorted(H)))}]"
        space = cosets.coset_space(S, H)
        out += [
            finding(f"cosets.partial-congruence{ht}", _pi_properties_violations(S, H, space)),
            finding(f"cosets.classes-are-cosets{ht}", _coset_class_violations(S, H, space)),
            finding(f"cosets.coset-laws{ht}", _coset_lemma_violations(S, H, space)),
        ]
    out += [
        finding(f"cosets.conjugacy-consistency{t}", _conjugacy_violations(S, bases)),
        finding(f"cosets.self-conjugacy-forms{t}", _self_conjugacy_violations(S, bases)),
        finding(
            f"cosets.conjugate-subsemigroup-remark{t}",
            _conjugate_subsemigroup_remark_violations(S, bases),
        ),
        finding(f"cosets.stabilizer-conjugacy{t}", _stabilizer_conjugacy_violations(S)),
        finding(f"cosets.orbit-stabilizer{t}", _orbit_stabilizer_violations(S)),
    ]
    return out


# --- construction suite ----------------------------------------------------


def _pair_monoid_violations(C, action, cu):
    """The pair monoid over u is an E-unitary E-dense monoid with identity
    (0_u, 1) whose idempotents are the pairs with trivial group part; it is
    a group exactly when every hom(u, gu) has one morphism."""
    S, G, u = cu.semigroup, action.group, cu.base_object
    one = G.identity
    if core.idempotents(S) != frozenset(i for i, (p, g) in enumerate(cu.pairs) if g == one):
        return "idempotents are not the pairs with trivial group part"
    unit = (C.identities[u], one)
    if unit not in cu.pairs or S.identity != cu.pairs.index(unit):
        return "identity is not (0_u, 1)"
    if not (core.is_e_dense(S) and core.is_e_unitary(S)):
        return "not E-unitary dense"
    group_iff = all(len(C.hom(u, action.obj(g, u))) == 1 for g in G.elements)
    if core.is_group(S) != group_iff:
        return f"group={core.is_group(S)}, but singleton hom-sets={group_iff}"


def _enumeration_count_violations():
    # the labelled semigroup counts of OEIS A023814
    for n, want in {1: 1, 2: 8, 3: 113}.items():
        got = sum(S.n == n for S in _small_tables())
        if got != want:
            return f"order {n}: {got} associative tables, expected {want}"


def _derived_category_violations():
    for name in ("Z2", "Z3", "Z6"):
        G = construction.fixture(name)
        C, action = construction.derived_category(G)
        for i in range(C.n_morphisms):
            u, v = C.source[i], C.target[i]
            if not any(
                C.compose[i][j] == C.identities[u] and C.compose[j][i] == C.identities[v]
                for j in C.hom(v, u)
            ):
                return f"derived category of {name}: morphism {i} not invertible"
        cu = construction.c_u_monoid(C, action, 0)
        v = _pair_monoid_violations(C, action, cu)
        if v:
            return f"{name}: {v}"
        if core.find_semigroup_isomorphism(cu.semigroup, G) is None:
            return f"pair monoid over the derived category of {name} not isomorphic to it"
        for u, g in product(G.elements, repeat=2):
            if len(C.hom(u, action.obj(g, u))) != 1:
                return f"derived category of {name} has fat hom-sets at u={u}, g={g}"


def _adjoined_band_violations():
    for name, k in (("Z2", 2), ("Z3", 2), ("Z6", 2), ("Z2", 3), ("Z3", 3)):
        G = construction.fixture(name)
        C, action = construction.adjoin_band_category(G, k)
        u = G.identity
        cu = construction.c_u_monoid(C, action, u)
        S = cu.semigroup
        if len(core.idempotents(S)) != k:
            return f"{name}, k={k}: wrong idempotent count"
        v = _pair_monoid_violations(C, action, cu)
        if v:
            return f"{name}, k={k}: {v}"
        for w, g in product(G.elements, repeat=2):
            if len(C.hom(w, action.obj(g, w))) != k:
                return f"{name}, k={k}: hom-set size wrong at u={w}, g={g}"
        # flags slide across translations: t_g + e_gu = e_u + t_g
        n = G.n
        for g in G.elements:
            tg = (u * n + g) * k  # morphism (u, g, flag 0)
            e_u = (u * n + G.identity) * k + 1
            gu = action.obj(g, u)
            e_gu = (gu * n + G.identity) * k + 1
            if C.compose[tg][e_gu] != C.compose[e_u][tg]:
                return f"{name}, k={k}: commutation fails at g={g}"
            if C.compose[tg][e_gu] == tg:
                return f"{name}, k={k}: flagged translation collapsed at g={g}"


def _displayed_map_violations():
    for name in ("Z2", "Z3", "Z6"):
        S, cu, mapping = construction.adjoined_band_to_cu_map(construction.fixture(name))
        for a, b in product(S.elements, repeat=2):
            if mapping[S.mul(a, b)] != cu.semigroup.mul(mapping[a], mapping[b]):
                return f"{name}: map not multiplicative at ({a}, {b})"
        if sorted(mapping.values()) != list(cu.semigroup.elements):
            return f"{name}: map not a bijection onto the pair monoid"


def _fixtures_match_violations():
    # G u eG computed from the group table: f*n + g times f'*n + h is
    # max(f, f')*n + gh
    for name, group in (("Z3E", "Z3"), ("Z6E", "Z6")):
        G = construction.fixture(group)
        table = tuple(
            tuple(max(f1, f2) * G.n + G.mul(g, h) for f2 in (0, 1) for h in G.elements)
            for f1 in (0, 1)
            for g in G.elements
        )
        if construction.fixture(name).table != table:
            return f"{name} differs from the band extension of {group}"


def suite_construction() -> list[Finding]:
    return [
        finding("construction.enumeration-counts", _enumeration_count_violations()),
        finding("construction.derived-category-recovers-group", _derived_category_violations()),
        finding("construction.adjoined-band-structure", _adjoined_band_violations()),
        finding("construction.direct-extension-matches-pair-monoid", _displayed_map_violations()),
        finding("construction.fixtures-match-extension", _fixtures_match_violations()),
    ]


# --- crypto suite ----------------------------------------------------------


def _system_corpus():
    fixtures = ("Z3", "Z6", "B2", "Z3E", "Z6E", "CHAIN3")
    systems = [(name, crypto.locally_free_system(construction.fixture(name))) for name in fixtures]
    return systems + [(f"modexp-{p}", crypto.modexp_system(p).system) for p in (5, 7, 11, 13)]


def _cancellative_lemma_violations():
    for name in construction.FIXTURE_NAMES:
        S = construction.fixture(name)
        rows, _ = acts.left_mult_total(S)
        E = core.idempotents(S)
        ec = closures.omega_h(S, E)
        m = len(rows[0])
        stabs = [frozenset(s for s in S.elements if rows[s][x] == x) for x in range(m)]
        c1 = all(len(set(rows[s])) == m for s in S.elements)
        c2 = all(E <= st for st in stabs)
        c3 = all(ec <= st for st in stabs)
        c4 = all(
            S.mul(w, s) in st
            for s in S.elements
            for w in core.left_pre_inverses(S, s)
            for st in stabs
        )
        if not (c1 == c2 == c3 == c4):
            return f"{name}: cancellative={c1}, E-fixes={c2}, closure-fixes={c3}, L-products-fix={c4}"


def _pre_inverse_uniform_violations(systems):
    for name, sys in systems:
        S = sys.semigroup
        for s in S.elements:
            L = core.left_pre_inverses(S, s)
            for x in sys.act.points:
                values = {sys.act.act(t, x) for t in L}
                if len(values) > 1:
                    return f"{name}: pre-inverses of {s} act differently on {x}"


def _stabilizer_closed_violations(systems):
    for name, sys in systems:
        violation = _stabilizers_closed_violations(sys.act)
        if violation:
            return f"{name}: {violation}"


def _key_space_violations(systems):
    """The decrypt-key space theorem, part by part, for every key s and
    point x: K(s, x) is closed upward in the natural order and contains
    the closure of the triple product S_x W(s) S_sx; with a band of
    idempotents the H-closure of that product is K; in an inverse
    semigroup K is the closure of S_x s^-1; in a group K = S_x s^-1 with
    |K| = |S_x|.  The witness names the first part that fails."""
    for name, sys in systems:
        S, act = sys.semigroup, sys.act
        band = core.classify_idempotents(S).is_band
        inverse = core.is_inverse_semigroup(S)
        group = core.is_group(S)
        for s in S.elements:
            W_s = core.weak_inverses(S, s)
            if inverse:
                (s_inv,) = core.inverse_sets(S, s).V
            # every part is a function of s and (K, S_x, S_sx): each
            # distinct triple that passes is judged once
            passed = set()
            for x in act.points:
                K = crypto.decrypt_key_space(sys, x, s)
                S_x, S_sx = act.stabilizers[x], act.stabilizers[act.act(s, x)]
                if (K, S_x, S_sx) in passed:
                    continue
                triple = core.set_mul(S, S_x, W_s, S_sx)
                if closures.omega_m(S, K) != K:
                    part = "key-space-m-closed"
                elif not closures.omega_m(S, triple) <= K:
                    part = "key-space-contains-closed-triple"
                elif band and closures.omega_h(S, triple) != K:
                    part = "key-space-equals-h-closed-triple"
                elif inverse and closures.omega_h(S, core.set_mul(S, S_x, {s_inv})) != K:
                    part = "key-space-inverse-form"
                elif group and not (core.set_mul(S, S_x, {s_inv}) == K and len(K) == len(S_x)):
                    part = "key-space-group-form"
                else:
                    passed.add((K, S_x, S_sx))
                    continue
                return f"{name}: {part} fails (s={s} x={x})"


def _left_ideal_violations():
    for name in construction.FIXTURE_NAMES:
        S = construction.fixture(name)
        if not core.classify_idempotents(S).is_band:
            continue
        E = core.idempotents(S)
        ec = closures.omega_h(S, E)
        for a in S.elements:
            ideal = sorted({S.mul(t, a) for t in S.elements} | {a})
            rows, _ = acts.left_mult_total(S, ideal)
            m = len(ideal)
            cancellative = all(len(set(rows[s])) == m for s in S.elements)
            for i in range(m):
                st = frozenset(s for s in S.elements if rows[s][i] == i)
                if not st <= ec:
                    return f"{name}: ideal of {a}: stabilizer escapes the idempotent closure"
                if cancellative and st != ec:
                    return f"{name}: cancellative ideal act of {a} not locally free"


def _roundtrip_violations(systems):
    """Both protocols recover every plaintext under every choice of
    decryptable keys, on commutative systems.  Each key choice is one run
    over all plaintexts, and the witness is the least (plaintext,
    protocol, keys) over the runs that fail, Massey-Omura first."""
    for name, sys in systems:
        decryptable = [s for s, uniform in enumerate(sys.key_table.uniform) if uniform]
        points = tuple(sys.act.points)
        failing = [
            (_first_miss(row), 0, s, t)
            for s, t in product(decryptable, repeat=2)
            if (row := crypto.massey_omura_rows(sys, s, t)[-1]) != points
        ]
        failing += [
            (_first_miss(row), 1)
            for s, c, d in product(decryptable, repeat=3)
            if (row := crypto.elgamal_rows(sys, s, c, d)[-1]) != points
        ]
        if failing:
            x, elgamal, *keys = min(failing)
            if elgamal:
                return f"{name}: key-trace protocol fails at x={x}"
            return f"{name}: three-pass fails at x={x}, s={keys[0]}, t={keys[1]}"


def _biact_roundtrip_violations(systems):
    """The three-pass protocol through the biact of each system, whose act
    must be left multiplication on all of S; S acts on the right by product.
    The witness is the least (plaintext, keys) over the runs that fail."""
    for name, sys in systems:
        S = sys.semigroup
        biact = crypto.build_biact(sys, S.table)  # x*s is S.table[x][s]
        points = tuple(sys.act.points)
        failing = [
            (_first_miss(row), s, t)
            for s, t in product(S.elements, repeat=2)
            if (row := crypto.massey_omura_rows(sys, s, t, biact)[-1]) != points
        ]
        if failing:
            x, s, t = min(failing)
            return f"{name}: biact three-pass fails at x={x}, s={s}, t={t}"


def _first_miss(recovered) -> int:
    """The least plaintext x that a run's recovered row does not send back to x."""
    return next(compress(count(), map(ne, recovered, count())))


def _left_dense_violations(systems):
    """Pointwise decryptability in its three equivalent forms on a total
    act of at most 16 points: left dense stabilizers; every orbit
    transitive with x in its own image; every locally cyclic subact
    transitive with x in its own image."""
    for name, sys in systems:
        m = sys.act.carrier
        if m > 16:
            continue
        if not crypto.stabilizers_left_dense(sys.act):
            return f"{name}: stabilizers not left dense"
        # reach[x] is the bitmask of {s*x : s in S}
        reach = [0] * m
        for row in sys.act.table:
            for x, y in enumerate(row):
                reach[x] |= 1 << y

        def transitive(mask):
            return all(mask & ~reach[y] == 0 for y in range(m) if mask >> y & 1)

        cond2 = all(reach[x] >> x & 1 and transitive(reach[x]) for x in range(m))

        # subacts of a total act are exactly the unions of forward closures,
        # so scanning unions of the distinct reach-closures covers them all
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


def _classification_violations(systems):
    for name, sys in systems:
        rep = crypto.classify_locally_free_cryptosystem(sys.act)
        if rep.locally_free != rep.is_disjoint_union_of_base:
            return (
                f"{name}: locally-free={rep.locally_free} but "
                f"copies-of-the-base-orbit={rep.is_disjoint_union_of_base}"
            )
        # a system that is S acting on the base orbit by left multiplication
        # is one copy of it
        rows, _ = acts.left_mult_total(sys.semigroup, rep.base_points)
        if tuple(map(tuple, rows)) == sys.act.table:
            if not (rep.locally_free and rep.copies == 1):
                return f"{name}: expected one copy of the base orbit"


def _unitary_key_space_violations(systems):
    """Each E-unitary locally free system has K = omega_h(W(s)) = L(s)."""
    for name, sys in systems:
        S = sys.semigroup
        for s in S.elements:
            expected = closures.omega_h(S, core.weak_inverses(S, s))
            for x in sys.act.points:
                K = crypto.locally_free_key_space(sys, x, s)
                if K != expected or len(K) != len(expected):
                    return f"{name}: key space differs from closed weak inverses at s={s}"
                if K != core.left_pre_inverses(S, s):
                    return f"{name}: key space differs from L(s) at s={s}"


def suite_crypto() -> list[Finding]:
    """The crypto findings, over the systems of ``_system_corpus``."""
    systems = _system_corpus()
    # each check below takes the systems that meet its hypotheses
    commutative = [(name, sys) for name, sys in systems if sys.key_table.commutative]
    left_regular = [(name, sys) for name, sys in systems if sys.act.table == sys.semigroup.table]
    unitary = [
        (name, sys)
        for name, sys in systems
        if core.classify_idempotents(sys.semigroup).is_semilattice
        and core.is_e_unitary(sys.semigroup)
        and sys.act.properties.locally_free
    ]
    return [
        finding("crypto.cancellative-equivalents", _cancellative_lemma_violations()),
        finding("crypto.pre-inverses-act-uniformly", _pre_inverse_uniform_violations(systems)),
        finding("crypto.stabilizers-closed", _stabilizer_closed_violations(systems)),
        finding("crypto.key-space-theorem", _key_space_violations(systems)),
        finding("crypto.left-ideals-locally-free", _left_ideal_violations()),
        finding("crypto.protocol-roundtrips", _roundtrip_violations(commutative)),
        finding("crypto.biact-roundtrip", _biact_roundtrip_violations(left_regular)),
        finding("crypto.left-dense-equivalences", _left_dense_violations(systems)),
        finding("crypto.classification-theorem", _classification_violations(systems)),
        finding("crypto.unitary-key-spaces", _unitary_key_space_violations(unitary)),
    ]


# --- entry points ----------------------------------------------------------


def suites_for_table(S: FiniteSemigroup, names=SUITE_NAMES) -> list[Finding]:
    """Run the per-semigroup suites applicable to one table."""
    suites = {"core": suite_core, "closures": suite_closures, "acts": suite_acts, "cosets": suite_cosets}
    out = []
    for name, suite in suites.items():
        if name in names:
            out += suite(S)
    return out


def table_findings(S: FiniteSemigroup, names=SUITE_NAMES) -> list[Finding]:
    """What ``edense verify TABLE`` reports: the per-table suites and, with
    the crypto suite, the key-space theorem on the canonical system of S,
    or the info finding ``crypto-skipped`` when S has none."""
    out = suites_for_table(S, names)
    if "crypto" in names:
        try:
            sys = crypto.locally_free_system(S)
        except WorkbenchError as exc:
            out.append(Finding("crypto-skipped", True, str(exc)))
        else:
            out.append(finding("crypto.key-space-theorem", _key_space_violations([(S.name, sys)])))
    return out


def small_order_sweep() -> list[Finding]:
    """The core lemma suite over every associative table of order <= 3; a
    failure names the first three failing checks."""
    tables = _small_tables()
    bad = []
    for S in tables:
        bad += [f"{f.name}: table {S.table} ({f.witness})" for f in suite_core(S) if not f.passed]
        if len(bad) >= 3:
            break
    if bad:
        return [Finding("core.small-order-sweep", False, "; ".join(bad[:3]))]
    return [Finding("core.small-order-sweep", True, f"{len(tables)} tables checked")]


def corpus_findings(names=SUITE_NAMES) -> list[Finding]:
    """Everything: per-fixture suites plus the global construction and
    crypto suites and the small-order sweep."""
    out = []
    for name in construction.FIXTURE_NAMES:
        out += suites_for_table(construction.fixture(name), names)
    if "core" in names:
        out += small_order_sweep()
    if "construction" in names:
        out += suite_construction()
    if "crypto" in names:
        out += suite_crypto()
    return out
