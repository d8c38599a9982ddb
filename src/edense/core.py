"""Finite semigroups on Cayley tables and their element-level invariants.

Elements are dense integer ids 0..n-1; a semigroup is just its n x n
multiplication table, validated associative on construction.  The queries
below read its ``Structure`` record, ``S.structure``, which computes each
datum by an exhaustive scan on first use and dies with S: at desk scale
this is fast and trustworthy enough to serve as the package's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import itemgetter

from .errors import (
    BadIdentityHint,
    NonAssociative,
    OutOfRangeEntry,
    ParseError,
    PreconditionFailed,
)


@dataclass(frozen=True)
class FiniteSemigroup:
    """A finite semigroup given by its Cayley table.

    ``table[i][j]`` is the id of the product i*j.  ``identity`` is the
    two-sided identity if one exists.  ``labels`` are display-only.
    """

    table: tuple[tuple[int, ...], ...]
    identity: int | None = None
    labels: tuple[str, ...] | None = None
    name: str = ""

    @property
    def n(self) -> int:
        return len(self.table)

    @property
    def elements(self) -> range:
        return range(len(self.table))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def prod(self, *ids: int) -> int:
        it = iter(ids)
        acc = next(it)
        for b in it:
            acc = self.table[acc][b]
        return acc

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels else str(a)

    def is_monoid(self) -> bool:
        return self.identity is not None

    def __len__(self) -> int:
        return len(self.table)

    @cached_property
    def structure(self) -> Structure:
        """The derived-data record of this semigroup, built on first use."""
        return Structure(self.table)


@dataclass(frozen=True)
class InverseSets:
    """Weak inverses W, inverses V and left pre-inverses L of one element."""

    W: frozenset[int]
    V: frozenset[int]
    L: frozenset[int]


@dataclass(frozen=True)
class IdempotentStructure:
    is_band: bool
    is_semilattice: bool


class Structure:
    """The derived data of one Cayley table, each part computed on first use.
    ``cosets`` memoises validated bases, coset spaces and conjugacy
    witnesses here, by subset, and ``closures`` the E-dense subsemigroups."""

    def __init__(self, table):
        self.table, self.bases, self.coset_spaces, self.conjugacy = table, set(), {}, {}
        self.subsemigroups = None

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The greedy generating set of the table, in id order (see
        ``greedy_generators``)."""
        t = self.table
        return greedy_generators(
            len(t), lambda x, inside: [t[x][y] for y in inside] + [t[y][x] for y in inside]
        )

    @cached_property
    def idempotents(self) -> frozenset[int]:
        return frozenset(e for e, row in enumerate(self.table) if row[e] == e)

    @cached_property
    def idempotent_structure(self) -> IdempotentStructure:
        t, E = self.table, self.idempotents
        band = all(t[e][f] in E for e in E for f in E)
        return IdempotentStructure(band, band and all(t[e][f] == t[f][e] for e in E for f in E))

    @cached_property
    def inverse_sets(self) -> tuple[InverseSets, ...]:
        t, E, out = self.table, self.idempotents, []
        for s, row_s in enumerate(t):
            W = frozenset(x for x, row in enumerate(t) if t[row[s]][x] == x)
            V = frozenset(x for x in W if t[row_s[x]][s] == s)
            L = frozenset(x for x, row in enumerate(t) if row[s] in E)
            out.append(InverseSets(W, V, L))
        return tuple(out)

    @cached_property
    def natural_down(self) -> tuple[frozenset[int], ...]:
        # row b holds every a <= b: a == b, or a = x*b = b*y with x*a = a = a*y
        t = self.table
        left = [{x[b] for x in t if x[x[b]] == x[b]} for b in range(len(t))]
        right = [{a for y, a in enumerate(row) if t[a][y] == a} for row in t]
        return tuple(frozenset(lb & rb | {b}) for b, (lb, rb) in enumerate(zip(left, right)))

    @cached_property
    def h_down(self) -> tuple[frozenset[int], ...]:
        # row b holds every a <= b: a == b, or a = f*b = b*e for idempotents e, f
        t, E = self.table, self.idempotents
        return tuple(
            frozenset({t[f][b] for f in E} & {row[e] for e in E}) | {b} for b, row in enumerate(t)
        )

    @cached_property
    def l_classes(self) -> tuple[frozenset[int], ...]:
        # a and b are L-related when S^1 a = S^1 b
        ideals = [frozenset(col) | {a} for a, col in enumerate(zip(*self.table))]
        return tuple(frozenset(b for b, J in enumerate(ideals) if J == I) for I in ideals)

    @cached_property
    def regular(self) -> frozenset[int]:
        t = self.table
        return frozenset(x for x, row in enumerate(t) if any(t[xy][x] == x for xy in row))

    @cached_property
    def is_group(self) -> bool:
        t, full = self.table, set(range(len(self.table)))
        return _find_identity(t) is not None and all(set(r) == full for r in (*t, *zip(*t)))


def greedy_generators(n: int, products) -> tuple[int, ...]:
    """The ids 0..n-1, in increasing order, that the ids taken before
    them do not generate: every other id is a product of smaller ones.

    ``products(x, inside)`` returns, as a list, the defined products of x
    with each member of ``inside`` (x included), in either order; ``inside``
    is the closure generated so far.

    This is what lets a law be checked with its first factor over the
    generators only: when the ids satisfying a law as first factor are
    closed under products, the least id failing it is a generator.
    """
    inside, gens = set(), []
    for g in range(n):
        if g in inside:
            continue
        gens.append(g)
        inside.add(g)
        todo = [g]
        while todo:
            for z in products(todo.pop(), inside):
                if z not in inside:
                    inside.add(z)
                    todo.append(z)
    return tuple(gens)


def _find_identity(table) -> int | None:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            return e
    return None


def build_semigroup(rows, identity_hint=None, labels=None, name="") -> FiniteSemigroup:
    """Validate a square table and return the semigroup it defines.

    Associativity (ij)k = i(jk) is the composition law (st)x = s(tx) of
    the table acting on itself by left multiplication, so it is checked by
    ``_composition_witness``: i over the greedy generators of the table,
    then j, k over every element, which names the first failing triple of
    a full n^3 scan.  A two-sided identity is detected automatically;
    ``identity_hint`` is only checked against it.
    """
    table = tuple(tuple(row) for row in rows)
    n = len(table)
    if n == 0:
        raise ParseError(1, "empty table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise OutOfRangeEntry(i, len(row), -1)
        for j, v in enumerate(row):
            if not (0 <= v < n):
                raise OutOfRangeEntry(i, j, v)
    identity = _find_identity(table)
    labels = None if labels is None else tuple(labels)
    S = FiniteSemigroup(table, identity, labels, name)
    witness = _composition_witness(S, table)
    if witness:
        raise NonAssociative(*witness)
    if identity_hint is not None and identity_hint != identity:
        raise BadIdentityHint(identity_hint)
    if labels is not None and len(labels) != n:
        raise PreconditionFailed("labels", f"{len(labels)} labels for order {n}")
    return S


def _composition_witness(S: FiniteSemigroup, table, right=False):
    """The first (s, t, x) where (st)x and s(tx), defined or not, differ,
    or None.

    With ``right``, ``table[s][x]`` is x*s and x(st) is compared with
    (xs)t.  s ranges over the greedy generators of S, t and x over
    everything.  That is exhaustive: the s for which the law holds are
    closed under products, ((ab)t)x = (a(bt))x = a((bt)x) = a(b(tx)) =
    (ab)(tx) (and the mirror image on the right), so the least failing s
    is a generator.  A failing row is rescanned only to name its first
    point.
    """
    m = len(table[0]) if table else 0
    if not m:
        return None
    # slot m stands for "undefined", and every element keeps it there; it
    # also keeps each row two entries long, so itemgetter returns tuples
    if any(None in row for row in table):
        full = [tuple(m if v is None else v for v in row) + (m,) for row in table]
    else:
        full = [(*row, m) for row in table]
    then = [itemgetter(*row) for row in full]
    for s, t in product(S.structure.generators, S.elements):
        inner, outer = (s, t) if right else (t, s)
        row = full[S.mul(s, t)]
        if then[inner](full[outer]) != row:
            return next(
                (s, t, x) for x in range(m) if full[outer][full[inner][x]] != row[x]
            )
    return None


def parse_cayley_table(text: str, name="") -> FiniteSemigroup:
    """Parse the Cayley table text format.

    Line 1 is the order n, the next n lines hold the rows, an optional
    trailing ``identity <id>`` names the identity, ``#`` starts a comment.
    """
    rows = []
    n = None
    identity_hint = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ParseError(lineno, f"expected order, got {line!r}") from None
            if n <= 0:
                raise ParseError(lineno, "order must be positive")
            continue
        if line.startswith("identity"):
            try:
                (identity_hint,) = map(int, line.split()[1:])
            except ValueError:
                raise ParseError(lineno, "expected 'identity <id>'") from None
            continue
        if len(rows) == n:
            raise ParseError(lineno, "unexpected extra row")
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(lineno, f"bad row {line!r}") from None
        if len(row) != n:
            raise ParseError(lineno, f"expected {n} entries, got {len(row)}")
        rows.append(row)
    if n is None or len(rows) != n:
        raise ParseError(0, "incomplete table")
    return build_semigroup(rows, identity_hint=identity_hint, name=name)


def format_cayley_table(S: FiniteSemigroup) -> str:
    lines = [str(S.n)]
    lines += [" ".join(str(v) for v in row) for row in S.table]
    if S.identity is not None:
        lines.append(f"identity {S.identity}")
    return "\n".join(lines) + "\n"


def idempotents(S: FiniteSemigroup) -> frozenset[int]:
    """All e with e*e == e."""
    return S.structure.idempotents


def classify_idempotents(S: FiniteSemigroup) -> IdempotentStructure:
    """Whether E(S) is closed under the product (a band), and commutative."""
    return S.structure.idempotent_structure


def weak_inverses(S: FiniteSemigroup, s: int) -> frozenset[int]:
    """W(s): all t with t*s*t == t."""
    return S.structure.inverse_sets[s].W


def inverse_sets(S: FiniteSemigroup, s: int) -> InverseSets:
    """W(s), V(s) and L(s) for one element; always V <= W <= L."""
    return S.structure.inverse_sets[s]


def left_pre_inverses(S: FiniteSemigroup, s: int) -> frozenset[int]:
    """L(s): all t with t*s idempotent."""
    return S.structure.inverse_sets[s].L


def mitsch_leq(S: FiniteSemigroup, a: int, b: int) -> bool:
    """The natural partial order: a == b, or a = x*b = b*y with x*a = a*y = a.

    The degenerate clause makes the relation reflexive on semigroups
    without local left/right identities (equivalently, witnesses may be
    taken in the monoid obtained by adjoining an identity).
    """
    return a in S.structure.natural_down[b]


def h_leq(S: FiniteSemigroup, a: int, b: int) -> bool:
    """Idempotent-witnessed refinement of the natural order.

    a <= b iff a == b or a = b*e and a = f*b for idempotents e, f.
    """
    return a in S.structure.h_down[b]


def green_l_class(S: FiniteSemigroup, a: int) -> frozenset[int]:
    """The L-class of a: all b generating the same principal left ideal."""
    return S.structure.l_classes[a]


def is_e_dense(S: FiniteSemigroup) -> bool:
    """Every element has left and right products landing in E.

    True for every finite semigroup; kept as a sanity assertion.
    """
    E = idempotents(S)
    return all(iv.L for iv in S.structure.inverse_sets) and all(map(E.intersection, S.table))


def is_group(S: FiniteSemigroup) -> bool:
    """An identity, and every row and column a permutation."""
    return S.structure.is_group


def is_unitary_subset(S: FiniteSemigroup, A) -> bool:
    """s*a in A or a*s in A (a in A) forces s in A, both sides."""
    A = frozenset(A)
    for s in S.elements:
        if s in A:
            continue
        for a in A:
            if S.mul(s, a) in A or S.mul(a, s) in A:
                return False
    return True


def is_e_unitary(S: FiniteSemigroup) -> bool:
    """Whether the idempotents form a unitary subset."""
    return is_unitary_subset(S, idempotents(S))


def regular_elements(S: FiniteSemigroup) -> frozenset[int]:
    """All x with x*y*x == x for some y."""
    return S.structure.regular


def is_inverse_semigroup(S: FiniteSemigroup) -> bool:
    """Every element has exactly one inverse."""
    return all(len(iv.V) == 1 for iv in S.structure.inverse_sets)


def set_mul(S: FiniteSemigroup, *sets) -> frozenset[int]:
    """Elementwise product of subsets, e.g. set_mul(S, A, B) = {a*b}."""
    rows, acc = S.table, frozenset(sets[0])
    for other in sets[1:]:
        acc = frozenset(rows[a][b] for a in acc for b in other)
    return acc


def is_subsemigroup(S: FiniteSemigroup, H) -> bool:
    H = frozenset(H)
    return bool(H) and all(S.mul(a, b) in H for a in H for b in H)


def _element_signature(S: FiniteSemigroup, x: int):
    # index and period of the cyclic subsemigroup generated by x, plus
    # ideal sizes: cheap isomorphism invariants used to prune search
    seen = {x: 1}
    y = x
    k = 1
    while True:
        y = S.mul(y, x)
        k += 1
        if y in seen:
            index, period = seen[y], k - seen[y]
            break
        seen[y] = k
    Sx = {S.mul(t, x) for t in S.elements}
    xS = {S.mul(x, t) for t in S.elements}
    return (index, period, S.mul(x, x) == x, len(Sx), len(xS), len(Sx & xS))


def find_semigroup_isomorphism(S: FiniteSemigroup, T: FiniteSemigroup):
    """A table isomorphism S -> T, as a dict, or None.

    Only the images of the greedy generators of S are searched, each among
    the unused elements of T with its signature.  After each choice the
    partial map is closed under x = g*y for the generators g chosen so far,
    with phi(x) = phi(g)*phi(y), and the branch dies as soon as such an
    image is already used or disagrees with an earlier one.  A map that
    reaches every element is then a bijection with phi(g*y) = phi(g)*phi(y)
    for every generator g and every y.  The s satisfying that law for every
    y are closed under products, so it holds for all s.  An isomorphism is
    fixed by its generator images, so the search misses none.
    """
    if S.n != T.n:
        return None
    sig_s = [_element_signature(S, x) for x in S.elements]
    sig_t = [_element_signature(T, x) for x in T.elements]
    if sorted(sig_s) != sorted(sig_t):
        return None
    gens, s, t = S.structure.generators, S.table, T.table

    def closed(phi, used, chosen):
        todo = list(phi)
        while todo:
            y = todo.pop()
            for g in chosen:
                x, image = s[g][y], t[phi[g]][phi[y]]
                if x in phi:
                    if phi[x] != image:
                        return False
                elif image in used:
                    return False
                else:
                    phi[x] = image
                    used.add(image)
                    todo.append(x)
        return True

    def extend(k, phi, used):
        if len(phi) == S.n:
            return {x: phi[x] for x in S.elements}
        g = gens[k]
        for c in T.elements:
            if sig_t[c] == sig_s[g] and c not in used:
                phi_c, used_c = {**phi, g: c}, used | {c}
                if closed(phi_c, used_c, gens[: k + 1]):
                    found = extend(k + 1, phi_c, used_c)
                    if found is not None:
                        return found
        return None

    return extend(0, {}, set())
