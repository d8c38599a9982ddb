"""Subset algebra: omega-closures, unitary subsets, E-dense subsemigroups."""

from __future__ import annotations

from itertools import repeat

from . import core
from .core import FiniteSemigroup
from .errors import NotSemilattice, OrderTooLarge, ParseError

SUBSET_SCAN_BOUND = 16
_NOTHING = frozenset()


def omega_m(S: FiniteSemigroup, A) -> frozenset[int]:
    """Upward closure of A under the natural partial order: the union of
    the up-sets ``S.structure.natural_up`` of its members, ids outside
    0..n-1 ignored."""
    return _NOTHING.union(*map(S.structure.natural_up.get, A, repeat(_NOTHING)))


def omega_h(S: FiniteSemigroup, A) -> frozenset[int]:
    """Upward closure of A under the idempotent-witnessed order: the union
    of the up-sets ``S.structure.h_up`` of its members, ids outside 0..n-1
    ignored."""
    return _NOTHING.union(*map(S.structure.h_up.get, A, repeat(_NOTHING)))


def is_omega_h_closed(S: FiniteSemigroup, A) -> bool:
    return frozenset(A) == omega_h(S, A)


def is_omega_m_closed(S: FiniteSemigroup, A) -> bool:
    return frozenset(A) == omega_m(S, A)


def is_unitary(S: FiniteSemigroup, A) -> bool:
    """s*a in A or a*s in A (with a in A) forces s in A."""
    return core.is_unitary_subset(S, A)


def is_e_dense_subsemigroup(S: FiniteSemigroup, H) -> bool:
    """H is a nonempty subset closed under the product.  Each member then
    has a weak inverse in H, since S is finite: h^q, for q at least the
    index of h and q = -1 modulo its period (``core.finite-is-e-dense``)."""
    return core.is_subsemigroup(S, H)


def require_semilattice(S: FiniteSemigroup) -> None:
    cls = core.classify_idempotents(S)
    if not cls.is_semilattice:
        E = sorted(core.idempotents(S))
        witness = None
        for e in E:
            for f in E:
                if S.mul(e, f) not in E or S.mul(e, f) != S.mul(f, e):
                    witness = (e, f)
                    break
            if witness:
                break
        raise NotSemilattice(witness)


def _subsemigroup_search(S: FiniteSemigroup) -> dict[int, list[int]]:
    """Every subsemigroup of S, as a bitmask mapped to its members.

    The search runs depth-first from the empty set: the children of H are
    the closures <H u {s}> for s outside H, and each set is visited once.
    A subsemigroup is reached by adding its members one at a time, so
    none is missed.
    """
    t, n = S.table, S.n
    # products[x][y] holds the bits of x*y and y*x
    products = [[1 << t[x][y] | 1 << t[y][x] for y in range(n)] for x in range(n)]
    found, todo = {}, [(0, [])]
    while todo:
        H, members = todo.pop()
        for s in range(n):
            if H >> s & 1:
                continue
            K, inside, fresh = H | 1 << s, members + [s], [s]
            while fresh:
                row, grown = products[fresh.pop()], K
                for y in inside:
                    grown |= row[y]
                if grown != K:
                    added = [z for z in range(n) if (grown & ~K) >> z & 1]
                    K = grown
                    inside += added
                    fresh += added
            if K not in found:
                found[K] = inside
                todo.append((K, inside))
    return found


def e_dense_subsemigroups(S: FiniteSemigroup) -> tuple[frozenset[int], ...]:
    """Every E-dense subsemigroup, closed or not, in order of size and then
    of sorted members: every subsemigroup of S, found by a search that
    visits each once.  Each is E-dense because S is finite (see
    ``is_e_dense_subsemigroup``).  The search runs once per semigroup; its
    result is kept in ``S.structure.subsemigroups``."""
    if S.n > SUBSET_SCAN_BOUND:
        raise OrderTooLarge(S.n, SUBSET_SCAN_BOUND, "subset scan")
    st = S.structure
    if st.subsemigroups is None:
        found = map(frozenset, _subsemigroup_search(S).values())
        st.subsemigroups = tuple(sorted(found, key=lambda H: (len(H), sorted(H))))
    return st.subsemigroups


def closed_e_dense_subsemigroups(S: FiniteSemigroup) -> list[frozenset[int]]:
    """All omega-closed E-dense subsemigroups, in the order of the scan.

    Requires a semilattice of idempotents.  That the three closure
    characterisations (h-closed, unitary, m-closed) agree on every E-dense
    subsemigroup is the finding ``closures.closed-unitary-equivalence``.
    """
    require_semilattice(S)
    return [H for H in e_dense_subsemigroups(S) if is_omega_h_closed(S, H)]


def parse_subset(text: str) -> frozenset[int]:
    """Space-separated base-10 ids on one line."""
    try:
        return frozenset(int(tok) for tok in text.split())
    except ValueError:
        raise ParseError(1, f"expected space-separated ids, got {text!r}") from None


def format_subset(A) -> str:
    return " ".join(str(a) for a in sorted(A))
