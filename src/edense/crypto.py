"""Cryptosystems over total cancellative semigroup acts: decrypt key
spaces, the Massey-Omura and generalised ElGamal protocol simulations,
the classic modular-exponentiation cipher, and the decomposition of
locally free systems into copies of the minimal idempotent's orbit.

Everything here is desk scale: keys and key spaces are found by
exhaustive scans, and hardness is illustrative only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from operator import and_
from typing import NamedTuple

from . import acts, closures, core
from .core import FiniteSemigroup
from .errors import (
    CompositionViolation,
    NoDecryptKey,
    NoMinimumIdempotent,
    NotAssociativeAction,
    NotCancellative,
    NotPrime,
    OrderTooLarge,
    PreconditionFailed,
)


@dataclass(frozen=True)
class DecryptKeyTable:
    """What every decrypt-key query reads, built once per act.

    ``stabilizers[x]`` is the act's stabilizer of point x as a bitmask;
    ``columns[s][t]`` is the product t*s; ``uniform[s]`` is the set of t
    such that t*s fixes every point (empty on an empty carrier), and
    ``least_uniform[s]`` its least member, or None when it is empty.  Then
    K(s, x) = {t : t*s fixes x} is read off column s and mask x.
    """

    stabilizers: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]
    uniform: tuple[frozenset[int], ...]
    least_uniform: tuple[int | None, ...]
    commutative: bool

    @classmethod
    def of(cls, act: acts.PartialAct) -> "DecryptKeyTable":
        S = act.semigroup
        stabilizers = tuple(sum(1 << s for s in fixing) for fixing in act.stabilizers)
        columns = tuple(zip(*S.table))
        if stabilizers:
            fix_all = reduce(and_, stabilizers)
            uniform = tuple(
                frozenset(t for t, u in enumerate(col) if fix_all >> u & 1)
                for col in columns
            )
        else:
            uniform = (frozenset(),) * S.n
        least = tuple(min(keys, default=None) for keys in uniform)
        return cls(stabilizers, columns, uniform, least, columns == S.table)


@dataclass(frozen=True)
class Cryptosystem:
    """A validated total act, which ``build_cryptosystem`` checks; keys are
    elements of its semigroup, passed to each query.

    The decrypt-key table is built on first use, once per system.
    """

    act: acts.PartialAct  # total: every entry defined

    @property
    def semigroup(self) -> FiniteSemigroup:
        return self.act.semigroup

    @cached_property
    def key_table(self) -> DecryptKeyTable:
        return DecryptKeyTable.of(self.act)


def build_cryptosystem(S: FiniteSemigroup, rows, point_labels=None) -> Cryptosystem:
    """Validate totality, associativity and cancellativity of the action.

    A total cancellative act over an E-dense semigroup automatically
    satisfies the partial-act axioms with full domains, so the act
    validator checks it once; a broken composition law is reported as
    ``NotAssociativeAction`` at the validator's witness.
    """
    rows = [list(r) for r in rows]
    _require_total(rows)
    try:
        act = acts.validate_act(S, rows, point_labels)
    except CompositionViolation as exc:
        raise NotAssociativeAction(*exc.witness) from None
    return Cryptosystem(act)


def _require_total(rows) -> None:
    for s, row in enumerate(rows):
        if None in row:
            raise PreconditionFailed("total_action", f"{s}*{row.index(None)} is undefined")


def locally_free_system(S: FiniteSemigroup) -> Cryptosystem:
    """The canonical system of S: left multiplication on the orbit of the
    minimum idempotent (a left ideal carrying a locally free act)."""
    f = minimum_idempotent(S)
    carrier = sorted({S.mul(t, f) for t in S.elements} | {f})
    rows, labels = acts.left_mult_total(S, carrier)
    return build_cryptosystem(S, rows, labels)


def minimum_idempotent(S: FiniteSemigroup) -> int:
    """The least idempotent in the idempotent-witnessed order, if any."""
    closures.require_semilattice(S)
    E = core.idempotents(S)
    minima = [e for e in E if all(core.h_leq(S, e, f) for f in E)]
    if not minima:
        raise NoMinimumIdempotent(f"among {sorted(E)}")
    assert len(minima) == 1
    return minima[0]


def decrypt_key_space(sys: Cryptosystem, x: int, key: int) -> frozenset[int]:
    """K(key, x): all t such that t*key fixes x."""
    table = sys.key_table
    fixing = table.stabilizers[x]
    return frozenset(t for t, u in enumerate(table.columns[key]) if fixing >> u & 1)


def key_space_sizes(sys: Cryptosystem) -> frozenset[int]:
    """The sizes |K(s, x)| over every key s and every point x.

    A point enters K(s, x) only through its stabilizer mask, so column s
    is counted once per distinct mask, and no key space is built.
    """
    table = sys.key_table
    masks = set(table.stabilizers)
    return frozenset(
        sum(fixing >> u & 1 for u in col) for col in table.columns for fixing in masks
    )


def uniform_decrypt_keys(sys: Cryptosystem, key: int) -> frozenset[int]:
    """Decrypt keys valid for every point: the intersection of K(s, x) over x."""
    return sys.key_table.uniform[key]


def _uniform_key(sys: Cryptosystem, key: int) -> int:
    least = sys.key_table.least_uniform[key]
    if least is None:
        raise NoDecryptKey(key)
    return least


def locally_free_key_space(sys: Cryptosystem, x: int, key: int) -> frozenset[int]:
    """K(s, x) in the locally free E-unitary case, where it collapses to
    the closure of the weak inverses of s (equivalently, to L(s)); both
    forms are checked by the finding ``crypto.unitary-key-spaces``."""
    S = sys.act.semigroup
    closures.require_semilattice(S)
    if not core.is_e_unitary(S):
        raise PreconditionFailed("e_unitary")
    if not sys.act.properties.locally_free:
        raise PreconditionFailed("locally_free")
    return decrypt_key_space(sys, x, key)


class ProtocolTranscript(NamedTuple):
    """Message flow of one protocol run; values are element/point ids."""

    entries: tuple[tuple[str, str, int], ...]
    recovered: int
    plaintext: int

    @property
    def ok(self) -> bool:
        return self.recovered == self.plaintext

    def render(self) -> str:
        return "\n".join(f"{party}: {kind} = {value}" for party, kind, value in self.entries)


@dataclass(frozen=True)
class BiactTable:
    """Compatible left and right total cancellative actions on one set."""

    semigroup: FiniteSemigroup
    left: tuple[tuple[int, ...], ...]  # left[s][x] = s*x
    right: tuple[tuple[int, ...], ...]  # right[x][s] = x*s


def build_biact(S: FiniteSemigroup, left_rows, right_rows) -> BiactTable:
    """Check both actions and their compatibility, a whole row at a time.

    Every law is scanned with s over the greedy generators of S and the
    other arguments in full.  That is exhaustive: once both composition
    laws hold, the s with (sx)t = s(xt) for all x, t are closed under
    products, ((ab)x)t = a(b(xt)) = (ab)(xt), so the least failing s is a
    generator, as it is for the composition laws themselves (see
    ``core._composition_witness``).
    """
    left = tuple(tuple(r) for r in left_rows)
    right = tuple(tuple(r) for r in right_rows)
    m = len(left[0])
    by_element = [tuple(row[s] for row in right) for s in S.elements]  # x*s, by s
    witnesses = [core._composition_witness(S, left), core._composition_witness(S, by_element, True)]
    if any(witnesses):
        raise NotAssociativeAction(*min(w for w in witnesses if w))
    for s in S.elements:
        if len(set(left[s])) != m or len(set(by_element[s])) != m:
            raise NotCancellative(s, -1, -1)
    for s, t in product(S.structure.generators, S.elements):
        # (sx)t against s(xt)
        after, before = left[s], by_element[t]
        if [before[v] for v in after] != [after[v] for v in before]:
            x = next(x for x in range(m) if before[after[x]] != after[before[x]])
            raise NotAssociativeAction(s, t, x)
    return BiactTable(S, left, right)


def massey_omura(
    sys: Cryptosystem, x: int, alice_key: int, bob_key: int, biact: BiactTable | None = None
) -> ProtocolTranscript:
    """Three-pass key-free exchange: lock, lock again, unlock, unlock.

    With a commutative semigroup the two locks slide past each other;
    otherwise a compatible right action takes Bob's place.
    """
    S, act = sys.act.semigroup, sys.act.table  # total: every entry defined
    s, t = alice_key, bob_key
    if biact is None:
        if not sys.key_table.commutative:
            raise PreconditionFailed("commutative", "supply a biact for this semigroup")
        s_inv = _uniform_key(sys, s)
        t_inv = _uniform_key(sys, t)
        m1 = act[s][x]
        m2 = act[t][m1]
        m3 = act[s_inv][m2]
        recovered = act[t_inv][m3]
    else:
        s_inv = _uniform_key(sys, s)
        t_row = S.table[t]
        t_right_keys = frozenset(
            r
            for r in S.elements
            if all(biact.right[y][t_row[r]] == y for y in sys.act.points)
        )
        if not t_right_keys:
            raise NoDecryptKey(t)
        t_inv = min(t_right_keys)
        m1 = biact.left[s][x]
        m2 = biact.right[m1][t]
        m3 = biact.left[s_inv][m2]
        recovered = biact.right[m3][t_inv]
    entries = (
        ("alice", "ciphertext-1", m1),
        ("bob", "ciphertext-2", m2),
        ("alice", "ciphertext-3", m3),
        ("bob", "recovered", recovered),
    )
    return ProtocolTranscript(entries, recovered, x)


def elgamal(sys: Cryptosystem, x: int, shared: int, alice_key: int, bob_key: int) -> ProtocolTranscript:
    """Generalised ElGamal over the act: Bob publishes shared*bob_key,
    Alice sends the pair ((alice_key*(shared*bob_key))x, alice_key*shared),
    Bob rebuilds the masking key by associativity and undoes it."""
    mul, act = sys.act.semigroup.table, sys.act.table  # total: every entry defined
    s, c, d = shared, alice_key, bob_key
    public = mul[s][d]
    mask = mul[c][public]
    ciphertext = act[mask][x]
    trace = mul[c][s]
    bob_mask = mul[trace][d]
    assert bob_mask == mask
    k = _uniform_key(sys, bob_mask)
    recovered = act[k][ciphertext]
    entries = (
        ("bob", "public-key", public),
        ("alice", "ciphertext", ciphertext),
        ("alice", "key-trace", trace),
        ("bob", "recovered", recovered),
    )
    return ProtocolTranscript(entries, recovered, x)


@dataclass(frozen=True)
class ModExpSystem:
    """The classic discrete-log cipher: exponent units acting on the
    units mod p by x -> x^n.

    With d the multiplicative order of x mod p, x^n = x exactly when
    n = 1 mod d.  So Stab(x) = {n : n = 1 mod d}, of size phi(p-1)/phi(d);
    K(n, x) = {t : tn = 1 mod d}, which always holds n^-1 mod p-1; and the
    orbits are the classes of units of one order, one per divisor d of
    p-1, of size phi(d).  The action is free at x exactly when
    phi(d) = phi(p-1), so it is never free at 1 or p-1 once p > 3:
    `is_free` is False and `non_free_units` lists the other units.

    The cryptosystem is built and validated on first use, once per cipher.
    """

    p: int
    exponents: tuple[int, ...]
    units: tuple[int, ...]
    semigroup: FiniteSemigroup
    rows: tuple[tuple[int, ...], ...]

    def element_of(self, n: int) -> int:
        """The element of S that is the exponent n, the key of x -> x^n."""
        if n not in self.exponents:
            raise PreconditionFailed("exponent", f"{n} is not a unit mod {self.p - 1}")
        return self.exponents.index(n)

    def point_of(self, x: int) -> int:
        return x - 1  # the units are 1..p-1

    def unit_value(self, point: int) -> int:
        return self.units[point]

    @cached_property
    def system(self) -> Cryptosystem:
        """The cryptosystem of this cipher; the key of exponent n is
        ``element_of(n)``."""
        return build_cryptosystem(self.semigroup, self.rows, [str(u) for u in self.units])

    @property
    def non_free_units(self) -> tuple[int, ...]:
        """The units fixed by some exponent other than 1: those whose
        stabilizer holds more than the exponent 1."""
        stabilizers = self.system.act.stabilizers
        return tuple(u for u, fixing in zip(self.units, stabilizers) if len(fixing) > 1)

    @property
    def is_free(self) -> bool:
        return not self.non_free_units


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def modexp_system(p: int) -> ModExpSystem:
    """Build the exponentiation system mod a small prime.

    The group of units mod p-1 acts on the units mod p by exponentiation;
    every key has a unique uniform decrypt key (the modular inverse of the
    exponent), and the freeness of the action is read off the stabilizers
    of its act.
    """
    if p > 257:
        raise OrderTooLarge(p, 257, "modulus")
    if not _is_prime(p):
        raise NotPrime(p)
    modulus = p - 1
    exponents = tuple(
        n for n in range(1, max(modulus, 2)) if math.gcd(n, modulus) == 1
    )

    def emul(a, b):
        r = (a * b) % modulus
        return r if r else modulus

    position = {n: i for i, n in enumerate(exponents)}
    table = [[position[emul(a, b)] for b in exponents] for a in exponents]
    S = core.build_semigroup(
        table, labels=[str(n) for n in exponents], name=f"U_{modulus}"
    )
    units = tuple(range(1, p)) if p > 2 else (1,)
    # unit u is point u - 1
    rows = tuple(tuple(pow(x, n, p) - 1 for x in units) for n in exponents)
    return ModExpSystem(p, exponents, units, S, rows)


def stabilizers_left_dense(act: acts.PartialAct) -> bool:
    """Whether every stabilizer is left dense: each key has a pointwise
    decrypt key (for all x and s there is t with (ts)x = x), that is, each
    left ideal S*s meets every stabilizer.

    That two orbit formulations of pointwise decryptability agree with
    this scan is the finding ``crypto.left-dense-equivalences``.
    """
    _require_total(act.table)
    ideals = [frozenset(col) for col in zip(*act.semigroup.table)]
    return all(not ideal.isdisjoint(fixing) for fixing in act.stabilizers for ideal in ideals)


@dataclass(frozen=True)
class ClassificationReport:
    """Decomposition of a system against the orbit of the minimum idempotent."""

    minimum_idempotent: int
    base_points: tuple[int, ...]
    orbit_results: tuple[tuple[tuple[int, ...], bool], ...]
    locally_free: bool
    is_disjoint_union_of_base: bool
    copies: int | None


def classify_locally_free_cryptosystem(act: acts.PartialAct, wp: acts.PartialAct) -> ClassificationReport:
    """Decide whether a total act decomposes into disjoint copies of the
    orbit of the minimum idempotent in ``wp``, its Wagner-Preston act.

    The decomposition exists exactly when the act is locally free (every
    stabilizer equals the closure of the idempotents); that the two fields
    of the report agree is the finding ``crypto.classification-theorem``.
    """
    _require_total(act.table)
    acts._require_same_semigroup(act.semigroup, wp)
    f = minimum_idempotent(act.semigroup)
    base_points = tuple(sorted(wp.orbit_sets[f]))
    base_act = wp.orbit_act(f)
    results = []
    all_iso = True
    for O in act.orbit_partition:
        iso = acts.find_act_isomorphism(act.orbit_act(min(O)), base_act)
        results.append((tuple(sorted(O)), iso is not None))
        all_iso = all_iso and iso is not None
    return ClassificationReport(
        f,
        base_points,
        tuple(results),
        act.properties.locally_free,
        all_iso,
        len(results) if all_iso else None,
    )


def discrete_log_candidates(sys: Cryptosystem, x: int, y: int) -> frozenset[int]:
    """All keys s with s*x = y: the brute-force discrete log."""
    return frozenset(s for s in sys.act.semigroup.elements if sys.act.act(s, x) == y)
