"""Coset machinery for closed E-dense subsemigroups: the left partial
congruence, omega-cosets, the coset act, conjugacy and quotient groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from . import acts, closures, core
from .core import FiniteSemigroup
from .errors import (
    BadSubsemigroup,
    NotSelfConjugate,
    PreconditionFailed,
    WellDefinednessViolation,
)


@dataclass(frozen=True)
class OmegaCoset:
    """One left omega-coset (sH) closed upward, canonical by member set."""

    base: frozenset[int]
    representative: int
    members: frozenset[int]


@dataclass(frozen=True)
class CosetSpace:
    """All cosets of H, with the transitive act of S on them; ``positions``
    maps each member of a coset to the coset's index."""

    semigroup: FiniteSemigroup
    base: frozenset[int]
    cosets: tuple[OmegaCoset, ...]
    domain: frozenset[int]  # D_H
    act: acts.PartialAct
    positions: dict[int, int] = field(compare=False, repr=False)

    def index_of(self, members) -> int:
        members = frozenset(members)
        i = self.positions.get(min(members, default=None))
        if i is None or self.cosets[i].members != members:
            raise KeyError(f"not a coset: {sorted(members)}")
        return i

    def coset_of(self, s: int) -> int:
        i = self.positions.get(s)
        if i is None:
            raise KeyError(f"{s} lies in no coset")
        return i


def check_base(S: FiniteSemigroup, H) -> frozenset[int]:
    """Validate that H qualifies as a coset base; name the failure if not.

    Each call validates H afresh, so a failing base raises on every call;
    ``coset_space`` calls it once per base, on a memo miss, and on every
    call whose H holds a member that is not an int.  Such a member may be
    unhashable, so the members are tested before H becomes a set.
    """
    closures.require_semilattice(S)
    if not H:
        raise BadSubsemigroup("empty subset")
    outside = [h for h in H if not core._is_id(h, S.n)]
    if outside:
        distinct = [h for i, h in enumerate(outside) if h not in outside[:i]]
        raise BadSubsemigroup("member out of range", sorted(distinct, key=core._id_key))
    H = frozenset(H)
    if not core.is_subsemigroup(S, H):
        bad = next(
            (h, k) for h in H for k in H if S.mul(h, k) not in H
        )
        raise BadSubsemigroup("not closed under the product", bad)
    closure = closures.omega_h(S, H)
    if closure != H:
        raise BadSubsemigroup(
            "not upward closed", sorted(closure - H)
        )
    return H


def domain_d_h(S: FiniteSemigroup, H) -> frozenset[int]:
    """D_H: elements s with some weak inverse s' such that s's lies in H."""
    H = frozenset(H)
    return frozenset(
        s
        for s in S.elements
        if any(S.mul(w, s) in H for w in core.weak_inverses(S, s))
    )


def pi_h_related(S: FiniteSemigroup, H, s: int, t: int) -> bool:
    """The left partial congruence: some weak inverse of s sends t into H.
    s and t must be element ids 0..n-1 (``PreconditionFailed("element")``)."""
    H = coset_space(S, H).base
    for v in (s, t):
        if not core._is_id(v, S.n):
            raise PreconditionFailed("element", f"{v} is not one of the {S.n} elements")
    return any(S.mul(w, t) in H for w in core.weak_inverses(S, s))


def coset(S: FiniteSemigroup, H, s: int):
    """The omega-coset of s, or None when s is outside the domain."""
    space = coset_space(S, H)
    if s not in space.domain:
        return None
    return OmegaCoset(space.base, s, space.cosets[space.coset_of(s)].members)


def coset_space(S: FiniteSemigroup, H) -> CosetSpace:
    """Materialize all cosets of H and the act of S on them.

    The act is validated against the partial-act axioms.  That H is one of
    the cosets, that the cosets partition D_H and that the stabilizer of
    the coset H is H is the finding ``cosets.classes-are-cosets``.
    """
    spaces = S.structure.coset_spaces
    # a member that is not an int (0.0, or one that is unhashable) must not
    # find a stored base equal to H: check_base refuses it on every call
    if core._all_ints(H):
        H = frozenset(H)
        if H in spaces:
            return spaces[H]
    H = check_base(S, H)
    d_h = domain_d_h(S, H)
    by_members = {}
    for s in sorted(d_h):
        members = closures.omega_h(S, core.set_mul(S, {s}, H))
        if members not in by_members:
            by_members[members] = OmegaCoset(H, s, members)
    cosets = tuple(
        sorted(by_members.values(), key=lambda c: min(c.members))
    )
    positions = {s: i for i, c in enumerate(cosets) for s in c.members}

    # s acts on the coset of t exactly when st stays inside the domain;
    # membership is representative-independent because the relation is a
    # left partial congruence
    index = {c.members: i for i, c in enumerate(cosets)}
    targets = {}  # the closure of st*H, once per product st
    rows = []
    for s in S.elements:
        row = []
        for c in cosets:
            t = min(c.members)
            st = S.mul(s, t)
            if st in d_h:
                target = targets.get(st)
                if target is None:
                    target = targets[st] = closures.omega_h(S, core.set_mul(S, {st}, H))
                if target not in index:
                    raise WellDefinednessViolation(
                        f"{s} sends the coset {sorted(c.members)} to {sorted(target)}, not a coset"
                    )
                row.append(index[target])
            else:
                row.append(None)
        rows.append(row)
    labels = ["{" + ",".join(str(x) for x in sorted(c.members)) + "}" for c in cosets]
    act = acts.validate_act(S, rows, labels)
    return spaces.setdefault(H, CosetSpace(S, H, cosets, d_h, act, positions))


def are_conjugate(S: FiniteSemigroup, H, K):
    """A witness (s, s') with s'Hs inside K and sKs' inside H, or None.

    That a witness meets the sharper characterisation ((s'Hs) closure
    equals K, and symmetrically) and that one exists exactly when the two
    coset acts are isomorphic is the finding
    ``cosets.conjugacy-consistency``.
    """
    answers = S.structure.conjugacy
    if not (core._all_ints(H) and core._all_ints(K)):
        # the refusal of a member that is not an int, as on a memo miss
        coset_space(S, H)
        coset_space(S, K)
    key = frozenset(H), frozenset(K)
    if key in answers:
        return answers[key]
    H, K = coset_space(S, H).base, coset_space(S, K).base
    rows, columns = S.table, S.structure.columns
    # s'Hs is column s read at row s' over H, and sKs' column s' at row s over K
    witness = next(
        (
            (s, w)
            for s in S.elements
            for w in core.weak_inverses(S, s)
            if K.issuperset(map(columns[s].__getitem__, map(rows[w].__getitem__, H)))
            and H.issuperset(map(columns[w].__getitem__, map(rows[s].__getitem__, K)))
        ),
        None,
    )
    return answers.setdefault(key, witness)


def _conjugacy_witness(S: FiniteSemigroup, H):
    """The first (s, t) with st in H and ts not in H, or None: for each s,
    the t with st in H (from row s) must have ts in H (from column s); a
    failing s names its least such t."""
    elements, inside = S.elements, H.__contains__
    for s, (row, col) in enumerate(zip(S.table, S.structure.columns)):
        bad = set(compress(elements, map(inside, row)))
        bad.difference_update(compress(elements, map(inside, col)))
        if bad:
            return s, min(bad)
    return None


def is_self_conjugate(S: FiniteSemigroup, H) -> bool:
    """Whether st in H always forces ts in H."""
    return _conjugacy_witness(S, coset_space(S, H).base) is None


def _self_conjugate_space(S: FiniteSemigroup, H) -> CosetSpace:
    """The coset space of H, or ``NotSelfConjugate`` at the first witness."""
    space = coset_space(S, H)
    witness = _conjugacy_witness(S, space.base)
    if witness is not None:
        raise NotSelfConjugate(witness)
    return space


def quotient_group(S: FiniteSemigroup, H) -> FiniteSemigroup:
    """The group of cosets of a self-conjugate base: row i is the coset act's
    row at the representative s of coset i, so (coset of s)(coset of t) =
    coset of st.  That it is a group with the coset H as identity is the
    finding ``cosets.self-conjugacy-forms``."""
    space = _self_conjugate_space(S, H)
    rows = [space.act.table[c.representative] for c in space.cosets]
    name = f"{S.name}/H" if S.name else "S/H"
    return core.build_semigroup(rows, labels=space.act.point_labels, name=name)


@dataclass(frozen=True)
class RhoRepresentation:
    """For each element of D_H, the images of the cosets under it, in coset
    order; ``None`` marks a coset it carries out of D_H."""

    space: CosetSpace
    permutations: dict[int, tuple[int | None, ...]]

    def kernel_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (s, t)
            for s in self.permutations
            for t in self.permutations
            if self.permutations[s] == self.permutations[t]
        )


def rho_representation(S: FiniteSemigroup, H) -> RhoRepresentation:
    """The map from D_H to the symmetric group on the cosets.

    Each element s acts by its row of the coset act.  That each image is a
    permutation, that the map is a homomorphism and that its kernel is the
    coset congruence is the finding ``cosets.self-conjugacy-forms``.
    """
    space = _self_conjugate_space(S, H)
    return RhoRepresentation(space, {s: space.act.table[s] for s in sorted(space.domain)})
