"""Constructions: fixture corpus, small-order enumeration, and monoids
built from free transitive group actions on locally idempotent categories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, product

from . import core
from .core import FiniteSemigroup, build_semigroup
from .errors import (
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
)

FIXTURE_NAMES = ("CHAIN3", "LZ2", "N2", "Z2", "Z3", "Z6", "T2", "B2", "Z3E", "Z6E")


def _cyclic_group(n: int, name: str) -> FiniteSemigroup:
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return build_semigroup(rows, name=name)


@lru_cache(maxsize=None)
def fixture(name: str) -> FiniteSemigroup:
    """The frozen fixture corpus; every table is validated on first use."""
    if name == "CHAIN3":
        # min on the chain 0 < 1 < 2
        return build_semigroup([[0, 0, 0], [0, 1, 1], [0, 1, 2]], name=name)
    if name == "LZ2":
        # left-zero band: x*y = x
        return build_semigroup([[0, 0], [1, 1]], name=name)
    if name == "N2":
        # null semigroup {0, a} with a*a = 0
        return build_semigroup([[0, 0], [0, 0]], name=name)
    if name == "Z2":
        return _cyclic_group(2, name)
    if name == "Z3":
        return _cyclic_group(3, name)
    if name == "Z6":
        return _cyclic_group(6, name)
    if name == "T2":
        # all maps on {0,1}: 0=id, 1=swap, 2=const0, 3=const1; row*col = row o col
        rows = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 2, 2, 2], [3, 3, 3, 3]]
        return build_semigroup(rows, labels=("id", "swap", "c0", "c1"), name=name)
    if name == "B2":
        # five-element Brandt semigroup {0, a, a', aa', a'a}
        rows = [
            [0, 0, 0, 0, 0],
            [0, 0, 3, 0, 1],
            [0, 4, 0, 2, 0],
            [0, 1, 0, 3, 0],
            [0, 0, 2, 0, 4],
        ]
        return build_semigroup(rows, labels=("0", "a", "a'", "aa'", "a'a"), name=name)
    if name == "Z3E":
        return adjoined_band_semigroup(_cyclic_group(3, "Z3"), name=name)
    if name == "Z6E":
        return adjoined_band_semigroup(_cyclic_group(6, "Z6"), name=name)
    raise UnknownFixture(name)


def corpus() -> list[FiniteSemigroup]:
    return [fixture(name) for name in FIXTURE_NAMES]


def enumerate_semigroups(n: int):
    """Stream all associative tables on n elements (no isomorphism
    reduction), in lexicographic order of their rows.

    A backtracking search fills the cells in row-major order, each with
    its values in increasing order, and refuses a partial table as soon
    as a triple whose four products are all filled breaks associativity.
    """
    if n > 3:
        raise OrderTooLarge(n, 3)
    ids = range(n)
    table = [[None] * n for _ in ids]
    triples = list(product(ids, repeat=3))

    def consistent():
        for i, j, k in triples:
            ij, jk = table[i][j], table[j][k]
            if ij is None or jk is None:
                continue
            left, right = table[ij][k], table[i][jk]
            if left is not None and right is not None and left != right:
                return False
        return True

    def fill(cell):
        if cell == n * n:
            rows = tuple(map(tuple, table))
            yield FiniteSemigroup(rows, core._find_identity(rows))
            return
        i, j = divmod(cell, n)
        for v in ids:
            table[i][j] = v
            if consistent():
                yield from fill(cell + 1)
        table[i][j] = None

    yield from fill(0)


# --- adjoined-band family -------------------------------------------------
#
# S = G u e1.G u ... u e[k-1].G where the flags {0, e1, ..., e[k-1]} form a
# band with identity 0 and right-zero products among the nonzero flags, and
# every flag commutes with G.  k = 2 is the classical G u eG.


def _combine_flags(f1: int, f2: int) -> int:
    return f2 if f2 else f1


def adjoined_band_semigroup(G: FiniteSemigroup, k: int = 2, name="") -> FiniteSemigroup:
    """Extend a group by a k-element band of commuting flags (default G u eG).

    That the table is the pair monoid over the enlarged derived category
    (``adjoined_band_to_cu_map``) is the finding
    ``construction.direct-extension-matches-pair-monoid``.
    """
    if not core.is_group(G):
        raise NotGroup()
    if k < 2:
        raise UnsupportedBand(k)
    n = G.n

    def eid(flag, g):
        return flag * n + g

    rows = [
        [eid(_combine_flags(f1, f2), G.mul(g, h)) for f2 in range(k) for h in range(n)]
        for f1 in range(k)
        for g in range(n)
    ]
    labels = [G.label(g) for g in range(n)]
    for f in range(1, k):
        suffix = str(f) if k > 2 else ""
        labels += [f"e{suffix}.{G.label(g)}" for g in range(n)]
    return build_semigroup(rows, labels=labels, name=name or f"{G.name}+E{k}")


# --- finite categories and group actions ----------------------------------


def _leaving(n_objects: int, source) -> tuple[tuple[int, ...], ...]:
    """The morphisms leaving each object, in increasing order."""
    out = [[] for _ in range(n_objects)]
    for p, u in enumerate(source):
        out[u].append(p)
    return tuple(map(tuple, out))


@dataclass(frozen=True)
class FiniteCategory:
    """A small category as data: morphisms with sources/targets, a partial
    composition table, and one identity morphism per object.

    The hom-sets and the morphisms leaving each object are indexed once,
    on construction."""

    n_objects: int
    source: tuple[int, ...]
    target: tuple[int, ...]
    compose: tuple[tuple[int | None, ...], ...]  # compose[p][q] = p then q
    identities: tuple[int, ...]
    morphism_labels: tuple[str, ...] | None = None
    leaving: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _homs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        homs = {}
        for p, uv in enumerate(zip(self.source, self.target)):
            homs.setdefault(uv, []).append(p)
        object.__setattr__(self, "leaving", _leaving(self.n_objects, self.source))
        object.__setattr__(self, "_homs", {uv: tuple(ps) for uv, ps in homs.items()})

    @property
    def n_morphisms(self) -> int:
        return len(self.source)

    def hom(self, u: int, v: int) -> list[int]:
        return list(self._homs.get((u, v), ()))

    def is_locally_idempotent(self) -> bool:
        return all(
            self.compose[p][p] == p
            for p in range(self.n_morphisms)
            if self.source[p] == self.target[p]
        )

    def is_strongly_connected(self) -> bool:
        return len(self._homs) == self.n_objects**2

    def mlabel(self, p: int) -> str:
        return self.morphism_labels[p] if self.morphism_labels else str(p)


@dataclass(frozen=True)
class GroupCategoryAction:
    """A group acting on a category, objectwise and morphismwise.

    Building one validates it against ``category`` (see
    ``validate_group_action``) and records whether it is transitive on
    objects and free."""

    group: FiniteSemigroup
    on_objects: tuple[tuple[int, ...], ...]  # on_objects[g][u]
    on_morphisms: tuple[tuple[int, ...], ...]
    category: FiniteCategory = field(repr=False)
    transitive: bool = field(init=False)
    free: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "on_objects", tuple(map(tuple, self.on_objects)))
        object.__setattr__(self, "on_morphisms", tuple(map(tuple, self.on_morphisms)))
        transitive, free = _check_group_action(
            self.category, self.group, self.on_objects, self.on_morphisms
        )
        object.__setattr__(self, "transitive", transitive)
        object.__setattr__(self, "free", free)

    def obj(self, g: int, u: int) -> int:
        return self.on_objects[g][u]

    def mor(self, g: int, p: int) -> int:
        return self.on_morphisms[g][p]


def build_category(n_objects, morphisms, compose_map, labels=None) -> FiniteCategory:
    """Validate category data and return it.

    ``morphisms`` is a sequence of (source, target) pairs, ``compose_map``
    maps composable pairs (p, q) to p-then-q.  Ids outside the objects or
    the morphisms are refused here; the category axioms are checked on
    the rows of the map by ``_category_from_rows``.
    """
    core._check_range(morphisms, n_objects)
    m = len(morphisms)
    rows = [[None] * m for _ in range(m)]
    for (p, q), r in compose_map.items():
        if not (0 <= p < m and 0 <= q < m and 0 <= r < m):
            raise OutOfRangeEntry(p, q, r)
        rows[p][q] = r
    source = tuple(src for src, _ in morphisms)
    target = tuple(dst for _, dst in morphisms)
    return _category_from_rows(n_objects, source, target, rows, labels)


def _category_from_rows(n_objects, source, target, rows, labels) -> FiniteCategory:
    """The category with composition rows[p][q] = p then q (None where
    undefined), after checking every axiom a row at a time.

    Row p must define exactly the q leaving the target of p, each with a
    composite from the source of p to the target of q; a failing row is
    rescanned to name its first bad q, an undefined composable pair last.
    Identities are detected, one per object.  Associativity (pq)r = p(qr)
    is checked with p over the greedy generators of the morphisms under
    composition, and for each such p a row at a time: for each q leaving
    the target of p, over the morphisms r leaving the target of q.  That
    is still exhaustive: the p for which the law holds are closed under
    composition, ((ab)q)r = a(b(qr)) = (ab)(qr), so the least failing p is
    a generator and the scan names the first failing triple of a full scan.
    """
    compose = tuple(map(tuple, rows))
    m = len(source)
    leaving = _leaving(n_objects, source)
    # then[v] picks the entries of a row at the morphisms leaving v
    then = [core._picker(out) for out in leaving]
    then_of = [then[v] for v in target]
    # the targets of the morphisms leaving each object
    ends = [get(target) for get in then]
    for p, row in enumerate(compose):
        composites = then_of[p](row)
        if (
            None in composites
            or m - row.count(None) != len(composites)
            or core._picker(composites)(source) != (source[p],) * len(composites)
            or core._picker(composites)(target) != ends[target[p]]
        ):
            for q, r in enumerate(row):
                if r is not None and target[p] != source[q]:
                    raise BadComposability(p, q, "pair is not composable")
                if r is not None and (source[r] != source[p] or target[r] != target[q]):
                    raise BadComposability(p, q, f"composite {r} has wrong endpoints")
            q = next(q for q in leaving[target[p]] if row[q] is None)
            raise BadComposability(p, q, "composable pair left undefined")
    # after[q] picks the entries of a row at the composites q.r
    after = [core._picker(then_of[q](row)) for q, row in enumerate(compose)]
    arriving = _leaving(n_objects, target)
    generators = core.greedy_generators(
        m,
        lambda x, inside: [compose[x][q] for q in leaving[target[x]] if q in inside]
        + [compose[q][x] for q in arriving[source[x]] if q in inside],
    )
    for p in generators:
        # (pq)r against p(qr), for each q after p over the r after q
        row_p, out = compose[p], leaving[target[p]]
        if [then_of[q](compose[row_p[q]]) for q in out] != [after[q](row_p) for q in out]:
            for q in out:
                for r in leaving[target[q]]:
                    if compose[row_p[q]][r] != row_p[compose[q][r]]:
                        raise NonAssociative(p, q, r, where="composition")
    identities = []
    for u in range(n_objects):
        # the first loop e at u with e.q = q after it and p.e = p before it
        for e in leaving[u]:
            if target[e] == u and then[u](compose[e]) == leaving[u]:
                if all(compose[p][e] == p for p in arriving[u]):
                    identities.append(e)
                    break
        else:
            raise MissingIdentity(u)
    return FiniteCategory(
        n_objects, source, target, compose, tuple(identities), tuple(labels) if labels else None
    )


def validate_group_action(C: FiniteCategory, G: FiniteSemigroup, on_objects, on_morphisms):
    """Check the action axioms exhaustively and return the action.

    Each law is checked with g over the greedy generators of G and every
    other argument in full: the action law (gh)u = g(hu) over all h, then
    hom-sets, functoriality and identities for each g.  That is still
    exhaustive: the g for which a law holds are closed under products
    (given the action law, (ab)p = a(bp), so ab keeps hom-sets,
    composites and identities when a and b do), so the least failing g is
    a generator, with the witness of a full scan.

    The action records C and whether it is transitive and free, and
    ``c_u_monoid`` trusts its flags for C alone.
    """
    return GroupCategoryAction(G, on_objects, on_morphisms, C)


def _check_group_action(C: FiniteCategory, G: FiniteSemigroup, on_objects, on_morphisms):
    """The action axioms, each law compared a whole row at a time, with g
    over the generators of G; a failing row is rescanned only to name its
    first witness.  The action law is the composition law of G acting on
    objects and on morphisms (``core._composition_witness``).  Returns
    (transitive, free)."""
    if not core.is_group(G):
        raise NotGroup()
    n, m = C.n_objects, C.n_morphisms
    for rows, width, what in ((on_objects, n, "objects"), (on_morphisms, m, "morphisms")):
        if len(rows) != G.n or any(len(row) != width for row in rows):
            raise PreconditionFailed(
                "action_shape", f"on_{what} must be {G.n} rows of {width} entries"
            )
        core._check_range(rows, width)
    one = G.identity
    for u in range(n):
        if on_objects[one][u] != u:
            raise ActionAxiomViolation("identity must fix objects", u)
    for p in range(m):
        if on_morphisms[one][p] != p:
            raise ActionAxiomViolation("identity must fix morphisms", p)
    # the action law (gh)x = g(hx) on objects and on morphisms; the failure
    # with the smaller (g, h) comes first, objects first on a tie
    witnesses = [core._composition_witness(G, rows) for rows in (on_objects, on_morphisms)]
    failing = [(w[:2], i) for i, w in enumerate(witnesses) if w]
    if failing:
        i = min(failing)[1]
        raise ActionAxiomViolation(("(gh)u != g(hu)", "(gh)p != g(hp)")[i], witnesses[i])
    of_source, of_target = core._picker(C.source), core._picker(C.target)
    of_identity = core._picker(C.identities)
    then = [core._picker(out) for out in C.leaving]
    # the composites p.q over the q leaving the target of p, as a picker
    composite = [core._picker(then[C.target[p]](row)) for p, row in enumerate(C.compose)]
    for g in G.structure.generators:
        objs, mors = on_objects[g], on_morphisms[g]
        mor_then = core._picker(mors)
        if mor_then(C.source) != of_source(objs) or mor_then(C.target) != of_target(objs):
            for p in range(m):
                gp = mors[p]
                if C.source[gp] != objs[C.source[p]] or C.target[gp] != objs[C.target[p]]:
                    raise ActionAxiomViolation("gp must lie in hom(gu, gv)", (g, p))
        # gq over the q leaving each object v, as a picker on the row of gp
        then_g = [core._picker(get(mors)) for get in then]
        for p, gp in enumerate(mors):
            if then_g[C.target[p]](C.compose[gp]) != composite[p](mors):
                for q in C.leaving[C.target[p]]:
                    if C.compose[gp][mors[q]] != mors[C.compose[p][q]]:
                        raise ActionAxiomViolation("g(p+q) != gp+gq", (g, p, q))
        if of_identity(mors) != core._picker(objs)(C.identities):
            for u in range(n):
                if mors[C.identities[u]] != C.identities[objs[u]]:
                    raise ActionAxiomViolation("g 0_u != 0_gu", (g, u))
    transitive = all(len(set(column)) == n for column in zip(*on_objects))
    free = all(
        g == one or all(v != u for u, v in enumerate(row))
        for g, row in enumerate(on_objects)
    )
    return transitive, free


@dataclass(frozen=True)
class CuMonoid:
    """The monoid of pairs (p, g) with p a morphism from u to gu."""

    semigroup: FiniteSemigroup
    pairs: tuple[tuple[int, int], ...]
    base_object: int


def c_u_monoid(C: FiniteCategory, action: GroupCategoryAction, u: int) -> CuMonoid:
    """Build the pair monoid over base object u.

    Requires the category strongly connected and locally idempotent and
    the action transitive and free, which the action records for the
    category it was validated on.  That the result is an E-unitary E-dense
    monoid whose idempotents are exactly the pairs with trivial group part
    is checked by the findings ``construction.derived-category-recovers-group``
    and ``construction.adjoined-band-structure``.
    """
    if action.category is not C:
        raise PreconditionFailed("action_category", "action was validated on another category")
    if not 0 <= u < C.n_objects:
        raise PreconditionFailed("base_object", f"{u} is not one of the {C.n_objects} objects")
    G = action.group
    if not C.is_strongly_connected():
        raise PreconditionFailed("strongly_connected")
    if not C.is_locally_idempotent():
        raise PreconditionFailed("locally_idempotent")
    if not action.transitive:
        raise PreconditionFailed("transitive_action")
    if not action.free:
        raise PreconditionFailed("free_action")

    pairs = [(p, g) for g in G.elements for p in C.hom(u, action.obj(g, u))]
    index = {pair: i for i, pair in enumerate(pairs)}
    # (p, g)(q, h) = (p then gq, gh); gq leaves gu, where p ends
    rows = [
        [index[(C.compose[p][action.mor(g, q)], G.mul(g, h))] for q, h in pairs]
        for p, g in pairs
    ]
    labels = [f"({C.mlabel(p)},{G.label(g)})" for p, g in pairs]
    S = build_semigroup(rows, labels=labels, name=f"C_{u}")
    return CuMonoid(S, tuple(pairs), u)


def derived_category(G: FiniteSemigroup):
    """Objects are the group elements; morphisms (u, s, su) compose by
    left translation; the group acts by conjugation on the middle slot.
    That every morphism is invertible is checked by the finding
    ``construction.derived-category-recovers-group``."""
    if not core.is_group(G):
        raise NotGroup()
    return _translation_category(G, 1)


def adjoin_band_category(G: FiniteSemigroup, k: int = 2):
    """The derived category of G with each local monoid enlarged to a
    k-element band of flags that commute with the translations."""
    if not core.is_group(G):
        raise NotGroup()
    if k < 2:
        raise UnsupportedBand(k)
    return _translation_category(G, k)


def _morphism_id(n: int, k: int, u: int, s: int, f: int) -> int:
    """The id of the morphism (u, s, f) of ``_translation_category`` over a
    group of order n with k flags: its place in lexicographic order."""
    return (u * n + s) * k + f


def _translation_category(G: FiniteSemigroup, k: int):
    """Morphisms (u, s, f) : u -> su, with f one of k flags (flag 0 only
    for the derived category), numbered by ``_morphism_id``.  The
    composition rows, (u, s, f) then (su, t, f') = (u, ts, ff') with ff'
    the band product of the flags, and the action rows, g(u, s, f) =
    (gu, gsg^-1, f), are written straight from the group table."""
    n, table = G.n, G.table
    morphs = list(product(G.elements, G.elements, range(k)))
    # the row of (u, s, f) is defined on the n*k morphisms (su, t, f') leaving su
    width = n * k
    after = list(product(G.elements, range(k)))
    # the composites of (0, s, f), one block per (s, f); those of (u, s, f)
    # are the same block shifted by the id of (u, 0, 0)
    blocks = [
        [_morphism_id(n, k, 0, table[t][s], _combine_flags(f, f2)) for t, f2 in after]
        for s, f in after
    ]
    # undefined before and after the block: pads[v] covers v objects' morphisms
    pads = [(None,) * (v * width) for v in range(n)]
    rows = []
    for (u, s, f), block in zip(morphs, blocks * n):
        su = table[s][u]
        rows.append((*pads[su], *map((u * width).__add__, block), *pads[n - 1 - su]))

    def mlabel(u, s, f):
        base = f"({G.label(u)},{G.label(s)},{G.label(G.mul(s, u))})"
        if f == 0:
            return base
        e = f"e{f}" if k > 2 else "e"
        return f"{e}_{G.label(u)}+{base}"

    source = tuple(u for u, _, _ in morphs)
    target = tuple(table[s][u] for u, s, _ in morphs)
    labels = [mlabel(*m) for m in morphs]
    C = _category_from_rows(n, source, target, rows, labels)

    inv = [row.index(G.identity) for row in table]
    conjugate = [[table[table[g][s]][inv[g]] for s in G.elements] for g in G.elements]
    # g(u, s, f) is g(0, s, f) shifted by the id of (gu, 0, 0)
    on_morphisms = []
    for g, row in enumerate(table):
        block = [_morphism_id(n, k, 0, conjugate[g][s], f) for s, f in after]
        on_morphisms.append(
            list(chain.from_iterable(map((gu * width).__add__, block) for gu in row))
        )
    # g acts on the objects by left multiplication: its row of the table
    return C, validate_group_action(C, G, table, on_morphisms)


def adjoined_band_to_cu_map(G: FiniteSemigroup, k: int = 2, name=""):
    """The displayed correspondence between the direct band extension of G
    and the pair monoid over its enlarged derived category.

    Returns (S, cu, mapping) where mapping[i] is the C_u element id of the
    band-extension element i.  That it is an isomorphism is the finding
    ``construction.direct-extension-matches-pair-monoid``.
    """
    S = adjoined_band_semigroup(G, k, name=name)
    C, action = adjoin_band_category(G, k)
    u = G.identity
    cu = c_u_monoid(C, action, u)
    pair_index = {pair: i for i, pair in enumerate(cu.pairs)}
    # flag f, group part g  ->  (e_u^f + (u, g, gu), g)
    mapping = {}
    n = G.n
    for f in range(k):
        for g in G.elements:
            mapping[f * n + g] = pair_index[(_morphism_id(n, k, u, g, f), g)]
    return S, cu, mapping


def parse_category(text: str, G: FiniteSemigroup):
    """Parse the category text format used by the CLI.

    Sections: ``objects: <count>``, then ``morphisms:`` with ``id src dst``
    lines, ``compose:`` with ``p q r`` lines (p then q equals r), and
    ``action:`` with ``g obj u v`` / ``g mor p q`` lines.  ``#`` comments.
    Every object and every morphism needs an action line for every g, and
    an action line must name an element of G and an object or morphism.
    Returns ``(C, action)``.
    """

    def ints(lineno, toks, expected):
        try:
            return [int(t) for t in toks]
        except ValueError:
            raise ParseError(lineno, f"expected {expected}") from None

    n_objects = None
    morphisms = []
    compose_map = {}
    action_lines = {}  # (kind, g, a) -> (line number, b)
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low.startswith("objects:"):
            if n_objects is not None:
                raise ParseError(lineno, "second objects: line")
            (n_objects,) = ints(lineno, [line.split(":", 1)[1]], "a count after 'objects:'")
            if n_objects < 0:
                raise ParseError(lineno, "object count must not be negative")
            continue
        header, colon, _ = low.partition(":")
        if colon and header in ("morphisms", "compose", "action"):
            section = header
            continue
        toks = line.split()
        if section == "morphisms":
            if len(toks) != 3:
                raise ParseError(lineno, "expected 'id src dst'")
            mid, src, dst = ints(lineno, toks, "'id src dst'")
            if mid != len(morphisms):
                raise ParseError(lineno, "morphism ids must be sequential")
            morphisms.append((src, dst))
        elif section == "compose":
            if len(toks) != 3:
                raise ParseError(lineno, "expected 'p q r'")
            p, q, r = ints(lineno, toks, "'p q r'")
            if (p, q) in compose_map:
                raise ParseError(lineno, f"second compose line for ({p}, {q})")
            compose_map[(p, q)] = r
        elif section == "action":
            if len(toks) != 4 or toks[1] not in ("obj", "mor"):
                raise ParseError(lineno, "expected 'g obj u v' or 'g mor p q'")
            kind = toks[1]
            g, a, b = ints(lineno, toks[:1] + toks[2:], "'g obj u v' or 'g mor p q'")
            if (kind, g, a) in action_lines:
                raise ParseError(lineno, f"second action line for '{g} {kind} {a}'")
            action_lines[(kind, g, a)] = lineno, b
        else:
            raise ParseError(lineno, f"unexpected line {line!r}")
    if n_objects is None:
        raise ParseError(0, "missing objects: section")
    width = {"obj": n_objects, "mor": len(morphisms)}
    for (kind, g, a), (lineno, _) in action_lines.items():
        if not 0 <= g < G.n:
            raise ParseError(lineno, f"the group has no element {g}")
        if not 0 <= a < width[kind]:
            noun = "object" if kind == "obj" else "morphism"
            raise ParseError(lineno, f"the category has no {noun} {a}")
    C = build_category(n_objects, morphisms, compose_map)

    def rows(kind):
        for g, a in product(G.elements, range(width[kind])):
            if (kind, g, a) not in action_lines:
                raise ParseError(0, f"missing action line '{g} {kind} {a}'")
        return [[action_lines[(kind, g, a)][1] for a in range(width[kind])] for g in G.elements]

    action = validate_group_action(C, G, rows("obj"), rows("mor"))
    return C, action
