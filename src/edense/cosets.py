"""Coset machinery for closed E-dense subsemigroups: the left partial
congruence, omega-cosets, the coset act, conjugacy and quotient groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import acts, closures, core
from .core import FiniteSemigroup
from .errors import BadSubsemigroup, NotSelfConjugate


@dataclass(frozen=True)
class OmegaCoset:
    """One left omega-coset (sH) closed upward, canonical by member set."""

    base: frozenset[int]
    representative: int
    members: frozenset[int]


@dataclass(frozen=True)
class CosetSpace:
    """All cosets of H, with the transitive act of S on them."""

    semigroup: FiniteSemigroup
    base: frozenset[int]
    cosets: tuple[OmegaCoset, ...]
    domain: frozenset[int]  # D_H
    act: acts.PartialAct

    def index_of(self, members) -> int:
        members = frozenset(members)
        for i, c in enumerate(self.cosets):
            if c.members == members:
                return i
        raise KeyError(f"not a coset: {sorted(members)}")

    def coset_of(self, s: int) -> int:
        for i, c in enumerate(self.cosets):
            if s in c.members:
                return i
        raise KeyError(f"{s} lies in no coset")


def check_base(S: FiniteSemigroup, H) -> frozenset[int]:
    """Validate that H qualifies as a coset base; name the failure if not.

    A base that passes is remembered in ``S.structure.bases`` and not
    validated again; a failing one raises on every call.
    """
    H = frozenset(H)
    bases = S.structure.bases
    if H in bases:
        return H
    closures.require_semilattice(S)
    if not H:
        raise BadSubsemigroup("empty subset")
    outside = sorted(h for h in H if not 0 <= h < S.n)
    if outside:
        raise BadSubsemigroup("member out of range", outside)
    if not core.is_subsemigroup(S, H):
        bad = next(
            (h, k) for h in H for k in H if S.mul(h, k) not in H
        )
        raise BadSubsemigroup("not closed under the product", bad)
    missing = [h for h in H if not core.weak_inverses(S, h) & H]
    if missing:
        raise BadSubsemigroup("member without weak inverse inside", missing[0])
    closure = closures.omega_h(S, H)
    if closure != H:
        raise BadSubsemigroup(
            "not upward closed", sorted(closure - H)
        )
    bases.add(H)
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
    """The left partial congruence: some weak inverse of s sends t into H."""
    H = check_base(S, H)
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

    # s acts on the coset of t exactly when st stays inside the domain;
    # membership is representative-independent because the relation is a
    # left partial congruence
    index = {c.members: i for i, c in enumerate(cosets)}
    rows = []
    for s in S.elements:
        row = []
        for c in cosets:
            t = min(c.members)
            st = S.mul(s, t)
            if st in d_h:
                target = closures.omega_h(S, core.set_mul(S, {st}, H))
                row.append(index[target])
            else:
                row.append(None)
        rows.append(row)
    labels = ["{" + ",".join(str(x) for x in sorted(c.members)) + "}" for c in cosets]
    act = acts.validate_act(S, rows, labels)
    return spaces.setdefault(H, CosetSpace(S, H, cosets, d_h, act))


def are_conjugate(S: FiniteSemigroup, H, K):
    """A witness (s, s') with s'Hs inside K and sKs' inside H, or None.

    That a witness meets the sharper characterisation ((s'Hs) closure
    equals K, and symmetrically) and that one exists exactly when the two
    coset acts are isomorphic is the finding
    ``cosets.conjugacy-consistency``.
    """
    answers = S.structure.conjugacy
    key = frozenset(H), frozenset(K)
    if key in answers:
        return answers[key]
    H, K = check_base(S, H), check_base(S, K)
    witness = None
    for s in S.elements:
        for w in core.weak_inverses(S, s):
            if core.set_mul(S, {w}, H, {s}) <= K and core.set_mul(S, {s}, K, {w}) <= H:
                witness = (s, w)
                break
        if witness:
            break
    return answers.setdefault(key, witness)


def _conjugacy_witness(S: FiniteSemigroup, H):
    """The first (s, t) with st in H and ts not in H, or None."""
    return next(
        (
            (s, t)
            for s in S.elements
            for t in S.elements
            if S.mul(s, t) in H and S.mul(t, s) not in H
        ),
        None,
    )


def is_self_conjugate(S: FiniteSemigroup, H) -> bool:
    """Whether st in H always forces ts in H."""
    return _conjugacy_witness(S, check_base(S, H)) is None


def quotient_group(S: FiniteSemigroup, H) -> FiniteSemigroup:
    """The group of cosets of a self-conjugate base, multiplying by
    (coset of s)(coset of t) = coset of st.  That it is a group with the
    coset H as identity is the finding ``cosets.self-conjugacy-forms``."""
    H = check_base(S, H)
    witness = _conjugacy_witness(S, H)
    if witness is not None:
        raise NotSelfConjugate(witness)
    space = coset_space(S, H)
    reps = [min(c.members) for c in space.cosets]
    rows = [
        [space.coset_of(S.mul(a, b)) for b in reps]
        for a in reps
    ]
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

    Each element acts by multiplying cosets.  That each image is a
    permutation, that the map is a homomorphism and that its kernel is the
    coset congruence is the finding ``cosets.self-conjugacy-forms``.
    """
    H = check_base(S, H)
    witness = _conjugacy_witness(S, H)
    if witness is not None:
        raise NotSelfConjugate(witness)
    space = coset_space(S, H)
    perms = {}
    for s in sorted(space.domain):
        images = []
        for c in space.cosets:
            st = S.mul(s, min(c.members))
            images.append(space.coset_of(st) if st in space.domain else None)
        perms[s] = tuple(images)
    return RhoRepresentation(space, perms)
