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
from typing import NamedTuple

from . import acts, closures, core
from .core import FiniteSemigroup
from .errors import (
    CompositionViolation,
    NoDecryptKey,
    NotAssociativeAction,
    NotCancellative,
    NotPrime,
    OrderTooLarge,
    PreconditionFailed,
)


@dataclass(frozen=True)
class DecryptKeyTable:
    """What every decrypt-key query reads, built once per act.

    ``columns[s][t]`` is the product t*s; ``uniform[s]`` is the set of t
    such that t*s fixes every point (empty on an empty carrier), and
    ``least_uniform[s]`` its least member, or None when it is empty.  Then
    K(s, x) = {t : t*s fixes x} is read off column s and the act's
    stabilizer of x.
    """

    columns: tuple[tuple[int, ...], ...]
    uniform: tuple[frozenset[int], ...]
    least_uniform: tuple[int | None, ...]
    commutative: bool

    @classmethod
    def of(cls, act: acts.PartialAct) -> "DecryptKeyTable":
        S = act.semigroup
        columns = S.structure.columns
        if act.stabilizers:
            fix_all = frozenset.intersection(*act.stabilizers)
            uniform = tuple(
                frozenset(t for t, u in enumerate(col) if u in fix_all) for col in columns
            )
        else:
            uniform = (frozenset(),) * S.n
        least = tuple(min(keys, default=None) for keys in uniform)
        return cls(columns, uniform, least, columns == S.table)


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
    """The least idempotent in the idempotent-witnessed order.  Needs a
    semilattice of idempotents, whose product e has e*f = e for each f."""
    closures.require_semilattice(S)
    return reduce(S.mul, core.idempotents(S))


def _require_in(kind: str, v, values, what: str):
    """v, when it is an int and one of ``values``; anything else is refused
    with ``PreconditionFailed(kind)``.  Used as an index, a negative v would
    read a row from its end, one too large would fail with a bare
    ``IndexError``, and 0.0, which equals 0, with a bare ``TypeError``."""
    if type(v) is not int or v not in values:
        raise PreconditionFailed(kind, f"{v} is not one of the {len(values)} {what}")
    return v


def _require_keys(sys: Cryptosystem, *keys: int) -> None:
    elements = sys.semigroup.elements
    for key in keys:
        _require_in("key", key, elements, "keys")


def decrypt_key_space(sys: Cryptosystem, x: int, key: int) -> frozenset[int]:
    """K(key, x): all t such that t*key fixes x."""
    fixing = sys.act.stabilizers[_require_in("point", x, sys.act.points, "points")]
    _require_keys(sys, key)
    return frozenset(t for t, u in enumerate(sys.key_table.columns[key]) if u in fixing)


def key_space_sizes(sys: Cryptosystem) -> frozenset[int]:
    """The sizes |K(s, x)| over every key s and every point x.

    A point enters K(s, x) only through its stabilizer, so column s is
    counted once per distinct stabilizer, and no key space is built.
    """
    stabilizers = set(sys.act.stabilizers)
    return frozenset(
        sum(map(fixing.__contains__, col))
        for col in sys.key_table.columns
        for fixing in stabilizers
    )


def uniform_decrypt_keys(sys: Cryptosystem, key: int) -> frozenset[int]:
    """Decrypt keys valid for every point: the intersection of K(s, x) over x."""
    _require_keys(sys, key)
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
    """A cryptosystem with a compatible right total cancellative action on
    its points, kept by element, and the least right decrypt key of each
    t: the least r such that x(tr) = x for every point x, or None."""

    system: Cryptosystem
    right: tuple[tuple[int, ...], ...]  # right[s][x] = x*s
    least_right_key: tuple[int | None, ...]


def build_biact(sys: Cryptosystem, right_rows) -> BiactTable:
    """Check a right action on the points of ``sys`` and its compatibility
    with the system's act, which ``build_cryptosystem`` has validated, a
    whole row at a time.

    ``right_rows[x][s]`` is x*s.  Their shape and range are checked first.
    Every law is scanned with s over the greedy generators of S and the
    other arguments in full.  That is exhaustive: once both composition
    laws hold, the s with (sx)t = s(xt) for all x, t are closed under
    products, ((ab)x)t = a(b(xt)) = (ab)(xt), so the least failing s is a
    generator, as it is for the composition law itself (see
    ``core._composition_witness``).
    """
    S, left, m = sys.semigroup, sys.act.table, sys.act.carrier
    by_point = tuple(tuple(r) for r in right_rows)
    if len(by_point) != m:
        raise PreconditionFailed("act_shape", f"{len(by_point)} right rows for {m} points")
    core._check_range(by_point, m, width=S.n)
    right = tuple(zip(*by_point)) if m else ((),) * S.n  # x*s, by s
    witness = core._composition_witness(S, right, True)
    if witness:
        raise NotAssociativeAction(*witness)
    for s, row in enumerate(right):
        if len(set(row)) != m:
            # the first point whose image an earlier point already has
            y = next(y for y, v in enumerate(row) if row.index(v) != y)
            raise NotCancellative(s, row.index(row[y]), y)
    for s, t in product(S.structure.generators, S.elements):
        # (sx)t against s(xt)
        after, before = left[s], right[t]
        if [before[v] for v in after] != [after[v] for v in before]:
            x = next(x for x in range(m) if before[after[x]] != after[before[x]])
            raise NotAssociativeAction(s, t, x)
    points = tuple(range(m))
    fixes_all = [row == points for row in right]
    least_right_key = tuple(
        next((r for r, tr in enumerate(row) if fixes_all[tr]), None) for row in S.table
    )
    return BiactTable(sys, right, least_right_key)


def _encrypt(rows, x: int) -> tuple[int, ...]:
    """The entries at the plaintext x of a run's rows, the first of them
    x's ciphertext; an x outside the points, which would index the rows
    from their end, is refused.  A run finds its decrypt keys before it
    reads a row, so a system with no points refuses the keys first."""
    _require_in("plaintext", x, range(len(rows[0])), "points")
    return tuple(row[x] for row in rows)


def massey_omura_rows(
    sys: Cryptosystem, alice_key: int, bob_key: int, biact: BiactTable | None = None
) -> tuple[tuple[int, ...], ...]:
    """The three-pass exchange run once over every plaintext: the rows of
    the three ciphertexts and of the recovered plaintexts, each indexed by
    plaintext.

    With a commutative semigroup the two locks slide past each other;
    otherwise the right action of a biact of this system takes Bob's
    place, and a biact of another system is refused.  Both decrypt
    keys are found first; then each pass after the first is one
    whole-row composition.
    """
    act = sys.act.table  # total: every entry defined
    s, t = alice_key, bob_key
    _require_keys(sys, s, t)
    if biact is None and not sys.key_table.commutative:
        raise PreconditionFailed("commutative", "supply a biact for this semigroup")
    if biact is not None and biact.system != sys:
        raise PreconditionFailed("biact", "the biact was built on another system")
    s_inv = _uniform_key(sys, s)
    if biact is None:
        right = act
        t_inv = _uniform_key(sys, t)
    else:
        right = biact.right
        t_inv = biact.least_right_key[t]
        if t_inv is None:
            raise NoDecryptKey(t)
    m1 = act[s]
    m2 = core._picker(m1)(right[t])
    m3 = core._picker(m2)(act[s_inv])
    return m1, m2, m3, core._picker(m3)(right[t_inv])


def massey_omura(
    sys: Cryptosystem, x: int, alice_key: int, bob_key: int, biact: BiactTable | None = None
) -> ProtocolTranscript:
    """Three-pass key-free exchange of the plaintext x: lock, lock again,
    unlock, unlock; the entries at x of ``massey_omura_rows``."""
    m1, m2, m3, recovered = _encrypt(massey_omura_rows(sys, alice_key, bob_key, biact), x)
    entries = (
        ("alice", "ciphertext-1", m1),
        ("bob", "ciphertext-2", m2),
        ("alice", "ciphertext-3", m3),
        ("bob", "recovered", recovered),
    )
    return ProtocolTranscript(entries, recovered, x)


def elgamal_rows(
    sys: Cryptosystem, shared: int, alice_key: int, bob_key: int
) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """Generalised ElGamal run once over every plaintext: Bob's public key
    shared*bob_key, Alice's key trace alice_key*shared, and the rows of
    ciphertexts (alice_key*(shared*bob_key))x and of recovered
    plaintexts, indexed by plaintext x.  Bob rebuilds the masking key from
    the trace by associativity and undoes it with one whole-row
    composition."""
    mul, act = sys.act.semigroup.table, sys.act.table  # total: every entry defined
    s, c, d = shared, alice_key, bob_key
    _require_keys(sys, s, c, d)
    public = mul[s][d]
    mask = mul[c][public]
    trace = mul[c][s]
    bob_mask = mul[trace][d]
    assert bob_mask == mask
    k = _uniform_key(sys, bob_mask)
    ciphertexts = act[mask]
    return public, trace, ciphertexts, core._picker(ciphertexts)(act[k])


def elgamal(sys: Cryptosystem, x: int, shared: int, alice_key: int, bob_key: int) -> ProtocolTranscript:
    """Generalised ElGamal for the plaintext x: the entries at x of
    ``elgamal_rows``."""
    public, trace, *rows = elgamal_rows(sys, shared, alice_key, bob_key)
    ciphertext, recovered = _encrypt(rows, x)
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
        """The point of the unit x; the units are 1..p-1, at points 0..p-2."""
        return _require_in("unit", x, self.units, "units") - 1

    def unit_value(self, point: int) -> int:
        return self.units[_require_in("point", point, range(len(self.units)), "points")]

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


def _primitive_root(p: int) -> int:
    """The least generator of the units mod the prime p: g with
    g^((p-1)/q) != 1 for every prime q dividing p-1."""
    modulus = p - 1
    primes = [q for q in range(2, modulus + 1) if modulus % q == 0 and _is_prime(q)]
    return next(g for g in range(1, p) if all(pow(g, modulus // q, p) != 1 for q in primes))


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
    position = {n: i for i, n in enumerate(exponents)}
    # exponents multiply mod p-1, with p-1 standing for 0 (only at p = 2)
    table = [[position[a * b % modulus or modulus] for b in exponents] for a in exponents]
    S = core.build_semigroup(
        table, labels=[str(n) for n in exponents], name=f"U_{modulus}"
    )
    units = tuple(range(1, p)) if p > 2 else (1,)
    # with x = g^j for a primitive root g, x^n = g^(jn mod p-1); unit u is point u - 1
    g = _primitive_root(p)
    power = [1]
    for _ in range(modulus - 1):
        power.append(power[-1] * g % p)
    log = {x: j for j, x in enumerate(power)}
    point = [x - 1 for x in power]
    logs = [log[x] for x in units]
    rows = tuple(tuple([point[j * n % modulus] for j in logs]) for n in exponents)
    return ModExpSystem(p, exponents, units, S, rows)


def stabilizers_left_dense(act: acts.PartialAct) -> bool:
    """Whether every stabilizer is left dense: each key has a pointwise
    decrypt key (for all x and s there is t with (ts)x = x), that is, each
    left ideal S*s meets every stabilizer.

    That two orbit formulations of pointwise decryptability agree with
    this scan is the finding ``crypto.left-dense-equivalences``.
    """
    _require_total(act.table)
    ideals = [frozenset(col) for col in act.semigroup.structure.columns]
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


def classify_locally_free_cryptosystem(act: acts.PartialAct) -> ClassificationReport:
    """Decide whether a total act decomposes into disjoint copies of the
    orbit of the minimum idempotent in the Wagner-Preston act of its
    semigroup, which ``acts.wagner_preston`` keeps on the semigroup.

    The decomposition exists exactly when the act is locally free (every
    stabilizer equals the closure of the idempotents); that the two fields
    of the report agree is the finding ``crypto.classification-theorem``.
    """
    _require_total(act.table)
    f = minimum_idempotent(act.semigroup)
    wp = acts.wagner_preston(act.semigroup)
    base_points = tuple(sorted(wp.orbit_sets[f]))
    base_act = wp.orbit_act(f)
    results = tuple(
        (tuple(sorted(O)), acts.find_act_isomorphism(act.orbit_act(min(O)), base_act) is not None)
        for O in act.orbit_partition
    )
    all_iso = all(iso for _, iso in results)
    return ClassificationReport(
        f,
        base_points,
        results,
        act.properties.locally_free,
        all_iso,
        len(results) if all_iso else None,
    )


def discrete_log_candidates(sys: Cryptosystem, x: int, y: int) -> frozenset[int]:
    """All keys s with s*x = y: the brute-force discrete log."""
    for v in (x, y):
        _require_in("point", v, sys.act.points, "points")
    return frozenset(s for s in sys.act.semigroup.elements if sys.act.act(s, x) == y)
