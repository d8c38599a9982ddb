"""Subset algebra: omega-closures, unitary subsets, E-dense subsemigroups."""

from __future__ import annotations

from itertools import combinations

from . import core
from .core import FiniteSemigroup
from .errors import NotSemilattice, OrderTooLarge, ParseError

SUBSET_SCAN_BOUND = 16


def omega_m(S: FiniteSemigroup, A) -> frozenset[int]:
    """Upward closure of A under the natural partial order."""
    down, A = S.structure.natural_down, frozenset(A)
    return frozenset(s for s in S.elements if not down[s].isdisjoint(A))


def omega_h(S: FiniteSemigroup, A) -> frozenset[int]:
    """Upward closure of A under the idempotent-witnessed order."""
    down, A = S.structure.h_down, frozenset(A)
    return frozenset(s for s in S.elements if not down[s].isdisjoint(A))


def is_omega_h_closed(S: FiniteSemigroup, A) -> bool:
    return frozenset(A) == omega_h(S, A)


def is_omega_m_closed(S: FiniteSemigroup, A) -> bool:
    return frozenset(A) == omega_m(S, A)


def is_unitary(S: FiniteSemigroup, A) -> bool:
    """s*a in A or a*s in A (with a in A) forces s in A."""
    return core.is_unitary_subset(S, A)


def is_e_dense_subsemigroup(S: FiniteSemigroup, H) -> bool:
    """H is closed under the product and every member has a weak inverse in H."""
    H = frozenset(H)
    if not core.is_subsemigroup(S, H):
        return False
    return all(core.weak_inverses(S, h) & H for h in H)


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


def e_dense_subsemigroups(S: FiniteSemigroup) -> tuple[frozenset[int], ...]:
    """Every E-dense subsemigroup, closed or not, by power-set scan, in
    order of size and then of sorted members.  The scan runs once per
    semigroup; its result is kept in ``S.structure.subsemigroups``."""
    if S.n > SUBSET_SCAN_BOUND:
        raise OrderTooLarge(S.n, SUBSET_SCAN_BOUND, "subset scan")
    st = S.structure
    if st.subsemigroups is None:
        st.subsemigroups = tuple(
            H
            for r in range(1, S.n + 1)
            for H in map(frozenset, combinations(S.elements, r))
            if is_e_dense_subsemigroup(S, H)
        )
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
