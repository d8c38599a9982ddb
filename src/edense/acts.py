"""Partial actions of E-dense semigroups: validation, the restricted
left-multiplication and idempotent-conjugation actions, orbits,
stabilizers, gradings and act isomorphisms.

An act stores an n x m table of point ids with ``None`` for undefined,
so every domain query is a direct lookup and validation sees the whole
definedness structure.  The point queries, the orbits and their subacts,
the properties and the grading read the act's derived data, which it
computes once, on first use, and which die with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from operator import eq

from . import closures, core
from .core import FiniteSemigroup
from .errors import (
    CompositionViolation,
    NotCancellative,
    NotIdempotent,
    NotReflexive,
    OutOfRangeEntry,
    ParseError,
    PreconditionFailed,
    WellDefinednessViolation,
)

@dataclass(frozen=True)
class PartialAct:
    """A validated partial act; ``table[s][x]`` is s*x or None.

    The derived data below are ``cached_property`` values kept in the
    instance ``__dict__``: they do not enter ``==`` or ``hash``, and each is
    immutable.  A query that raises stores nothing and raises again.
    """

    semigroup: FiniteSemigroup
    table: tuple[tuple[int | None, ...], ...]
    point_labels: tuple[str, ...] | None = None

    @property
    def carrier(self) -> int:
        return len(self.table[0]) if self.table else 0

    @property
    def points(self) -> range:
        return range(self.carrier)

    def defined(self, s: int, x: int) -> bool:
        return self.table[s][x] is not None

    def act(self, s: int, x: int) -> int:
        v = self.table[s][x]
        if v is None:
            raise PreconditionFailed("defined", f"{s}*{x} is undefined")
        return v

    def element_domain(self, s: int) -> frozenset[int]:
        """D_s: the points s acts on."""
        return frozenset(x for x in self.points if self.table[s][x] is not None)

    def plabel(self, x: int) -> str:
        return self.point_labels[x] if self.point_labels else str(x)

    def orbit_act(self, x: int) -> PartialAct:
        """The subact on the orbit of x; the act itself when it has one orbit."""
        if len(self.orbit_partition) == 1:
            return self
        return self.orbit_acts[x]

    @cached_property
    def point_domains(self) -> tuple[frozenset[int], ...]:
        """D^x, the elements acting on x, of every point x: one column of
        the table each."""
        return tuple(
            frozenset(s for s, v in enumerate(col) if v is not None) for col in zip(*self.table)
        )

    @cached_property
    def orbit_sets(self) -> tuple[frozenset[int], ...]:
        """Sx = {sx : s acts on x} together with x, of every point x."""
        return tuple(frozenset({x, *col} - {None}) for x, col in enumerate(zip(*self.table)))

    @cached_property
    def stabilizers(self) -> tuple[frozenset[int], ...]:
        """The elements fixing x, of every point x, from one pass over the
        rows: each row gives its fixed points."""
        points = self.points
        fixing = [[] for _ in points]
        for s, row in enumerate(self.table):
            for x in compress(points, map(eq, row, points)):
                fixing[x].append(s)
        return tuple(map(frozenset, fixing))

    @cached_property
    def orbit_partition(self) -> tuple[frozenset[int], ...]:
        """The distinct orbits, ordered by their least points."""
        return tuple(sorted(dict.fromkeys(self.orbit_sets), key=min))

    @cached_property
    def orbit_acts(self) -> tuple[PartialAct, ...]:
        """The subact on the orbit of every point, one per orbit; see ``orbit_act``."""
        pieces = {O: subact(self, O) for O in self.orbit_partition}
        return tuple(pieces[O] for O in self.orbit_sets)

    @cached_property
    def properties(self) -> ActProperties:
        """Whether the act is effective, transitive, indecomposable and
        locally free (each stabilizer is the closure of the idempotents
        acting on its point)."""
        S, m = self.semigroup, self.carrier
        E = core.idempotents(S)
        return ActProperties(
            effective=all(self.point_domains),
            # every point reaches every point, itself included, under some s
            transitive=all(len(set(col) - {None}) == m for col in zip(*self.table)),
            indecomposable=len(self.orbit_partition) == 1,
            locally_free=all(
                stab == closures.omega_h(S, E & dom)
                for stab, dom in zip(self.stabilizers, self.point_domains)
            ),
        )

    @cached_property
    def grading(self) -> Grading | GradingObstruction:
        """The grading of the act, or the obstruction to one.

        The grading sends x to the minimum idempotent in its stabilizer
        (``acts.grading-laws`` checks its laws).  Needs a semilattice of
        idempotents.  An act has one exactly when it is effective: an
        idempotent fixes each point it acts on (cancellativity), and if s
        acts on x then so does s's, for s' the weak inverse of reflexivity.
        So the product of the idempotents fixing x is their least member.
        """
        S = self.semigroup
        closures.require_semilattice(S)
        E = core.idempotents(S)
        p = []
        for x, (dom, stab) in enumerate(zip(self.point_domains, self.stabilizers)):
            if not dom:
                return GradingObstruction("non-effective point", x)
            if stab.isdisjoint(E):
                return GradingObstruction("stabilizer without minimum idempotent", x)
            p.append(reduce(S.mul, stab & E))
        return Grading(tuple(p))


@dataclass(frozen=True)
class ActProperties:
    effective: bool
    transitive: bool
    indecomposable: bool
    locally_free: bool


@dataclass(frozen=True)
class Grading:
    """Point-to-idempotent map sending x to the minimum idempotent fixing it."""

    p: tuple[int, ...]


@dataclass(frozen=True)
class GradingObstruction:
    reason: str
    witness: int


_POINT_TYPES = frozenset({int, type(None)})


def _point_row(row) -> tuple[int | None, ...]:
    """The row as a tuple of ints and Nones; a row of those alone is kept
    as it is, any other converts entry by entry with ``int``."""
    row = tuple(row)
    if _POINT_TYPES.issuperset(map(type, row)):
        return row
    return tuple(v if v is None else int(v) for v in row)


def validate_act(S: FiniteSemigroup, rows, point_labels=None) -> PartialAct:
    """Check the act axioms exhaustively and return the act.

    The composition law is checked in both directions: (st)x is defined
    exactly when s(tx) is, and then they agree.  s ranges over the greedy
    generators of S and t, x over everything, which still finds the first
    failing (s, t, x) of a full scan (see ``core._composition_witness``).  The
    action must be cancellative and reflexive (some weak inverse of s acts
    on every defined sx).

    Each law is checked a whole row at a time; a failing row is rescanned
    point by point only to name its first witness.
    """
    table = tuple(map(_point_row, rows))
    if len(table) != S.n:
        raise PreconditionFailed("act_shape", f"{len(table)} rows for order {S.n}")
    m = len(table[0]) if table else 0
    entries = frozenset([*range(m), None])
    for s, row in enumerate(table):
        if len(row) != m:
            raise PreconditionFailed("act_shape", f"row {s} has {len(row)} entries, expected {m}")
        if not entries.issuperset(row):
            for x, v in enumerate(row):
                if v is not None and not 0 <= v < m:
                    raise OutOfRangeEntry(s, x, v)
    witness = core._composition_witness(S, table)
    if witness:
        s, t, x = witness
        via = None if table[t][x] is None else table[s][table[t][x]]
        direct = table[S.mul(s, t)][x]
        if (direct is None) != (via is None):
            raise CompositionViolation(s, t, x, "(one side defined, the other not)")
        raise CompositionViolation(s, t, x, f"({direct} != {via})")
    undefined = [row.count(None) for row in table]
    for s, (row, k) in enumerate(zip(table, undefined)):
        # the defined entries are distinct: the set holds them and one None
        if len(set(row)) != m - k + (k > 0):
            seen = {}
            for x, v in enumerate(row):
                if v is None:
                    continue
                if v in seen:
                    raise NotCancellative(s, seen[v], x)
                seen[v] = x
    full = (1 << m) - 1
    domains = [
        sum(1 << x for x, v in enumerate(row) if v is not None) if k else full
        for row, k in zip(table, undefined)
    ]
    for s, row in enumerate(table):
        reached = 0
        for w in core.weak_inverses(S, s):
            reached |= domains[w]
        if reached == full:
            continue
        for x, v in enumerate(row):
            if v is not None and not reached >> v & 1:
                raise NotReflexive(s, x)
    return PartialAct(S, table, tuple(point_labels) if point_labels else None)


def left_mult_total(S: FiniteSemigroup, carrier=None):
    """Total action of S on itself, or on a left ideal, by multiplication.

    Returns (rows, labels); ``carrier`` must be a set of element ids
    closed under left multiplication.
    """
    ids = list(S.elements if carrier is None else carrier)
    outside = [e for e in ids if not core._is_id(e, S.n)]
    if outside:
        least = min(outside, key=core._id_key)
        raise PreconditionFailed("carrier", f"{least} is not an element id 0..{S.n - 1}")
    ids.sort()
    pos = {e: i for i, e in enumerate(ids)}
    rows = [[pos.get(S.mul(s, e)) for e in ids] for s in S.elements]
    for s, row in enumerate(rows):
        if None in row:
            raise PreconditionFailed("left_ideal", f"{s}*{ids[row.index(None)]} escapes the carrier")
    return rows, [S.label(e) for e in ids]


def wagner_preston(S: FiniteSemigroup, carrier=None) -> PartialAct:
    """Restrict left multiplication, on S or on the left ideal ``carrier``,
    to the domains where some weak inverse undoes the element:
    D_s = {x : x = s'sx for some s' in W(s)}.

    Left multiplication is a total act because S is associative, so only
    the restricted table is validated.  Needs a semilattice of idempotents.

    The act is kept in ``S.structure.wagner_preston_acts`` by carrier (a
    set, or None for all of S), so every caller shares it and it dies with
    S; a refused semigroup or carrier stores nothing and is refused again.
    A carrier holding a member that is not an int is refused before the
    memo is read, so 0.0 is not taken for the id 0.
    """
    built = S.structure.wagner_preston_acts
    if carrier is not None and not core._all_ints(carrier):
        left_mult_total(S, carrier)  # refuses the ids that are not ints
    key = None if carrier is None else frozenset(carrier)
    if key not in built:
        rows, labels = left_mult_total(S, key)
        closures.require_semilattice(S)
        table = []
        for s, row in enumerate(rows):
            # the rows of s's for the weak inverses s' of s
            undo = [rows[S.mul(w, s)] for w in core.weak_inverses(S, s)]
            table.append([v if any(u[x] == x for u in undo) else None for x, v in enumerate(row)])
        built[key] = validate_act(S, table, labels)
    return built[key]


def order_ideal(S: FiniteSemigroup, e: int) -> frozenset[int]:
    """[e] = eE, the idempotents below e.  That it equals W(e) and the set
    of elements under e in the idempotent-witnessed order is the finding
    ``acts.order-ideal-forms``."""
    closures.require_semilattice(S)
    if S.mul(e, e) != e:
        raise NotIdempotent(e)
    E = core.idempotents(S)
    return frozenset(S.mul(e, f) for f in E)


def munn_act(S: FiniteSemigroup) -> PartialAct:
    """Action of S on its semilattice of idempotents by conjugation:
    s acts on the order ideal of s's and sends x to s x s'."""
    closures.require_semilattice(S)
    E = sorted(core.idempotents(S))
    pos = {e: i for i, e in enumerate(E)}
    table = []
    for s in S.elements:
        winv = core.weak_inverses(S, s)
        row = [None] * len(E)
        for x in E:
            values = {
                S.prod(s, x, w)
                for w in winv
                if x in order_ideal(S, S.mul(w, s))
            }
            if not values:
                continue
            if len(values) > 1:
                raise WellDefinednessViolation((s, x, sorted(values)))
            value = values.pop()
            assert value in pos
            row[pos[x]] = pos[value]
        table.append(row)
    return validate_act(S, table, [S.label(e) for e in E])


def subact(act: PartialAct, points) -> PartialAct:
    """Restriction to a subset closed under the action."""
    pts = sorted(points)
    pos = {x: i for i, x in enumerate(pts)}
    table = []
    for s, row in enumerate(act.table):
        for x in pts:
            if row[x] is not None and row[x] not in pos:
                raise PreconditionFailed("closed_subset", f"{s}*{x} leaves the subset")
        table.append(tuple(None if row[x] is None else pos[row[x]] for x in pts))
    labels = tuple(act.plabel(x) for x in pts)
    return PartialAct(act.semigroup, tuple(table), labels)


def _require_same_semigroup(S: FiniteSemigroup, *acts: PartialAct) -> None:
    if any(a.semigroup.table != S.table for a in acts):
        raise PreconditionFailed("same_semigroup", "the acts are over different semigroups")


def disjoint_union(*acts: PartialAct) -> PartialAct:
    S = acts[0].semigroup
    _require_same_semigroup(S, *acts)
    table = [[] for _ in S.elements]
    labels = []
    for k, a in enumerate(acts):
        offset = len(labels)
        for s in S.elements:
            table[s].extend(
                None if a.table[s][x] is None else a.table[s][x] + offset
                for x in a.points
            )
        labels.extend(f"{k}:{a.plabel(x)}" for x in a.points)
    return PartialAct(S, tuple(tuple(r) for r in table), tuple(labels))


def is_s_map(src: PartialAct, dst: PartialAct, mapping) -> bool:
    """Whether mapping satisfies: x in D_s iff f(x) in D_s, and f(sx) = s f(x).

    ``mapping`` is a list indexed by the points of src, or a dict on a set
    of points that the action keeps, such as an orbit.
    """
    pairs = mapping.items() if isinstance(mapping, dict) else enumerate(mapping)
    for x, y in pairs:
        # s*x and s*y, for each s in turn, read off the two tables
        for row, image_row in zip(src.table, dst.table):
            sx, sy = row[x], image_row[y]
            if (sx is None) != (sy is None):
                return False
            if sx is not None and mapping[sx] != sy:
                return False
    return True


def forced_map(src: PartialAct, x0: int, dst: PartialAct, y0: int):
    """The map of the orbit of x0 that sends x0 to y0, as a dict, or None.

    An act map that sends x0 to y0 must send s*x0 to s*y0, so it is forced
    on the orbit of x0.  None when that is not a function, or when some s
    acts on one of x0, y0 and not on the other.  Otherwise, in validated
    acts, the composition law makes it an act map of the orbit onto the
    orbit of y0.
    """
    image = {x0: y0}
    for s in src.semigroup.elements:
        x, y = src.table[s][x0], dst.table[s][y0]
        if (x is None) != (y is None):
            return None
        if x is not None and image.setdefault(x, y) != y:
            return None
    return image


def find_act_isomorphism(act1: PartialAct, act2: PartialAct):
    """A bijection satisfying the act-map law both ways, as a dict, or None.

    The orbits of a validated act partition its points.  The orbit of each
    least point x0 of act1 goes to the orbit of the first unused y0 of act2
    whose forced map is one-to-one, an isomorphism of the two orbits (their
    tables, relabelled in the order s*x0 and s*y0 first reach each point,
    are equal).  Isomorphism of orbits is an equivalence, so the first such
    y0 never blocks a later orbit.  No carrier bound: each orbit tries at
    most m targets of n lookups each.
    """
    _require_same_semigroup(act1.semigroup, act2)
    if act1.carrier != act2.carrier:
        return None
    image = {}
    for O in act1.orbit_partition:
        used = set(image.values())
        for y0 in act2.points:
            f = None if y0 in used else forced_map(act1, min(O), act2, y0)
            if f is not None and len(set(f.values())) == len(f):
                image.update(f)
                break
        else:
            return None
    return image if is_s_map(act1, act2, image) else None


def parse_act(text: str, S: FiniteSemigroup) -> PartialAct:
    """Partial-act text format: first line ``n m``, then n rows of m
    entries, each a point id or ``-`` for undefined; with m = 0 the header
    alone will do.  ``#`` starts a comment; errors name the line of the
    file."""
    lines = [
        (lineno, ln.split("#", 1)[0].strip())
        for lineno, ln in enumerate(text.splitlines(), start=1)
    ]
    lines = [(lineno, ln) for lineno, ln in lines if ln]
    if not lines:
        raise ParseError(0, "empty act file")
    lineno, head = lines[0]
    try:
        n, m = map(int, head.split())
    except ValueError:
        raise ParseError(lineno, "expected 'n m' header") from None
    if n != S.n:
        raise ParseError(lineno, f"act has {n} rows but semigroup has order {S.n}")
    if m == 0 and len(lines) == 1:
        # the rows of an act on no points are blank, and so skipped above
        lines += [(lineno, "")] * n
    if len(lines) != n + 1:
        raise ParseError(lines[-1][0], f"expected {n} rows, got {len(lines) - 1}")
    rows = []
    for lineno, ln in lines[1:]:
        toks = ln.split()
        if len(toks) != m:
            raise ParseError(lineno, f"expected {m} entries, got {len(toks)}")
        try:
            rows.append([None if t == "-" else int(t) for t in toks])
        except ValueError:
            raise ParseError(lineno, f"bad row {ln!r}") from None
    return validate_act(S, rows)


def format_act(act: PartialAct) -> str:
    lines = [f"{act.semigroup.n} {act.carrier}"]
    for row in act.table:
        lines.append(" ".join("-" if v is None else str(v) for v in row))
    return "\n".join(lines) + "\n"
