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


def closed_e_dense_subsemigroups(S: FiniteSemigroup) -> list[frozenset[int]]:
    """All omega-closed E-dense subsemigroups, by power-set scan.

    Requires a semilattice of idempotents; on each candidate the three
    closure characterisations (h-closed, unitary, m-closed) are asserted
    to agree -- a disagreement is a bug, not a data condition.
    """
    require_semilattice(S)
    if S.n > SUBSET_SCAN_BOUND:
        raise OrderTooLarge(S.n, SUBSET_SCAN_BOUND, "subset scan")
    found = []
    universe = list(S.elements)
    for r in range(1, S.n + 1):
        for subset in combinations(universe, r):
            H = frozenset(subset)
            if not is_e_dense_subsemigroup(S, H):
                continue
            closed_h = is_omega_h_closed(S, H)
            unitary = is_unitary(S, H)
            closed_m = is_omega_m_closed(S, H)
            assert closed_h == unitary == closed_m, (
                f"closure characterisations disagree on {sorted(H)}: "
                f"h-closed={closed_h} unitary={unitary} m-closed={closed_m}"
            )
            if closed_h:
                found.append(H)
    found.sort(key=lambda H: (len(H), sorted(H)))
    return found


def parse_subset(text: str) -> frozenset[int]:
    """Space-separated base-10 ids on one line."""
    try:
        return frozenset(int(tok) for tok in text.split())
    except ValueError:
        raise ParseError(1, f"expected space-separated ids, got {text!r}") from None


def format_subset(A) -> str:
    return " ".join(str(a) for a in sorted(A))
