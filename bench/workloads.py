"""Seeded inputs for the three benchmark workloads, with expectations.

Everything here is independent of the ``edense`` package: tables are
generated, relabelled and characterised by the benchmark's own code, so
an expectation never comes from the run it checks.
"""

from __future__ import annotations

import random
from itertools import product
from pathlib import Path

# OEIS A023814: associative binary operations on n labelled elements.
LABELLED_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3492}


def labelled_semigroups(n: int):
    """Every associative n x n table, in lexicographic order of its cells.

    Cells are filled in row-major order; after each assignment every
    triple whose four products are all known is checked, so a partial
    table that is already non-associative is abandoned.
    """
    cells = n * n
    table = [[-1] * n for _ in range(n)]
    ids = range(n)

    def consistent(i, j):
        # only triples that read the cell just filled can have changed
        for a, b, c in product(ids, repeat=3):
            ab, bc = table[a][b], table[b][c]
            if ab < 0 or bc < 0:
                continue
            if not ((a, b) == (i, j) or (b, c) == (i, j) or ab == i and c == j or a == i and bc == j):
                continue
            left, right = table[ab][c], table[a][bc]
            if left >= 0 and right >= 0 and left != right:
                return False
        return True

    def fill(k):
        if k == cells:
            yield tuple(tuple(row) for row in table)
            return
        i, j = divmod(k, n)
        for v in ids:
            table[i][j] = v
            if consistent(i, j):
                yield from fill(k + 1)
        table[i][j] = -1

    yield from fill(0)


def small_tables() -> list[tuple[tuple[int, ...], ...]]:
    """All labelled tables of order 1 to 3; the counts are checked
    against OEIS A023814 so a generator bug cannot pass silently."""
    out = []
    for n in (1, 2, 3):
        tables = list(labelled_semigroups(n))
        if len(tables) != LABELLED_COUNTS[n]:
            raise RuntimeError(
                f"order {n}: generated {len(tables)} tables, OEIS A023814 says {LABELLED_COUNTS[n]}"
            )
        out.extend(tables)
    return out


# --- table helpers ----------------------------------------------------------


def cyclic_group(n: int):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def band_extension(G):
    """G u eG with a central idempotent e: element f*n + g for flag f in
    {0, 1}; flags combine by max, group parts by the product of G."""
    n = len(G)
    return tuple(
        tuple(max(f1, f2) * n + G[g][h] for f2 in (0, 1) for h in range(n))
        for f1 in (0, 1)
        for g in range(n)
    )


def direct_product(A, B):
    """A x B with (a, b) numbered a * |B| + b."""
    nb = len(B)
    return tuple(
        tuple(A[a1][a2] * nb + B[b1][b2] for a2 in range(len(A)) for b2 in range(nb))
        for a1 in range(len(A))
        for b1 in range(nb)
    )


def relabel(table, perm):
    """The isomorphic table in which element x is called perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return tuple(tuple(row) for row in out)


def format_table(table) -> str:
    return f"{len(table)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table)


def identity_of(table):
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            return e
    return None


def idempotents_of(table):
    return [e for e in range(len(table)) if table[e][e] == e]


def is_band(table) -> bool:
    E = idempotents_of(table)
    return all(table[e][f] in E for e in E for f in E)


def is_semilattice(table) -> bool:
    E = idempotents_of(table)
    return is_band(table) and all(table[e][f] == table[f][e] for e in E for f in E)


def is_group(table) -> bool:
    full = set(range(len(table)))
    return (
        identity_of(table) is not None
        and all(set(row) == full for row in table)
        and all({row[j] for row in table} == full for j in full)
    )


# --- operations and their expectations ----------------------------------------
#
# An operation is a CLI argument list plus an expectation.  An operation
# must exit with status "exit" (default 0), report "ok" true exactly when
# that status is 0, and have every finding pass except those listed in
# "failing" (default none).  An expectation adds the finding names, exact
# ("names") or as a subset ("required"), and witness strings the benchmark
# knows from the input alone ("witness").  A "golden" expectation compares
# stdout byte for byte.

CORE_CHECKS = (
    "weak-inverse-containments",
    "band-iff-weak-inverse-products",
    "weak-self-conjugacy",
    "natural-order-is-partial-order",
    "h-order-refines-natural",
    "orders-agree-on-regulars",
    "group-criteria-agree",
    "e-unitary-criteria-agree",
    "finite-is-e-dense",
    "idempotent-witness-implies-leq",
    "weak-inverse-laws",
)

GOLDEN_CORPUS = "golden/verify_corpus.json"


def _op(argv, **expect):
    return {"argv": [*argv, "--json"], "expect": expect}


def analyze_op(path: str, table):
    n = len(table)
    e = identity_of(table)
    names = ["table-valid"] + (["identity"] if e is not None else [])
    names += ["idempotents", "band", "semilattice", "e-dense", "e-unitary", "group"]
    names += ["inverse-semigroup", "regular-elements"]
    names += [f"inverses[{s}]" for s in range(n)]
    witness = {
        "table-valid": f"order {n}",
        "idempotents": " ".join(map(str, idempotents_of(table))),
        "band": str(is_band(table)),
        "semilattice": str(is_semilattice(table)),
        "e-dense": "True",
        "group": str(is_group(table)),
    }
    if e is not None:
        witness["identity"] = str(e)
    return _op(["analyze", path], names=names, witness=witness)


def act_op(path: str, table):
    """The Wagner-Preston act; its precondition is that the idempotents
    form a semilattice, and without it the command reports one failing
    NotSemilattice finding and exits 1."""
    if not is_semilattice(table):
        return _op(["act", path], exit=1, names=["NotSemilattice"], failing=["NotSemilattice"])
    n = len(table)
    required = ["act-valid", "effective", "transitive", "indecomposable", "locally-free"]
    required += [f"stabilizer[{x}]" for x in range(n)]
    return _op(["act", path], required=required, witness={"act-valid": f"{n} points"})


def verify_op(path: str, table):
    tag = f"[{Path(path).stem}]"
    required = [f"core.{check}{tag}" for check in CORE_CHECKS]
    if len(table) > 12 or not is_semilattice(table):
        required += [f"acts.skipped{tag}", f"cosets.skipped{tag}"]
    return _op(["verify", path], required=required)


def table_ops(path: str, table):
    return [analyze_op(path, table), act_op(path, table), verify_op(path, table)]


def _write(work: Path, name: str, table) -> str:
    path = work / f"{name}.tbl"
    path.write_text(format_table(table))
    return str(path)


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def corpus_ops(seed: int, work: Path):
    """The flagship command over the frozen corpus; the seed is unused."""
    return [_op(["verify", "--corpus"], golden=GOLDEN_CORPUS)]


SCALE_GROUP_ORDERS = (8, 12, 16)
SCALE_PRIMES = (199, 241)


def scale_ops(seed: int, work: Path):
    """Few large inputs: pair monoids over Z_n with an adjoined band, the
    matching Z_nE tables, and protocol runs on large modexp systems."""
    rng = random.Random(seed)
    ops = []
    for n in SCALE_GROUP_ORDERS:
        G = relabel(cyclic_group(n), _shuffled(rng, n))
        ops.append(
            _op(
                ["build-cu", "--group", _write(work, f"z{n}", G), "--adjoin-band", "2"],
                names=[
                    "objects",
                    "morphisms",
                    "strongly-connected",
                    "locally-idempotent",
                    "action-transitive",
                    "action-free",
                    "pair-monoid",
                    "e-unitary-dense",
                    "idempotents",
                    "elements",
                ],
                witness={
                    "objects": str(n),
                    "morphisms": str(2 * n * n),
                    "pair-monoid": f"order {2 * n}",
                    "idempotents": "2",
                },
            )
        )
        S = relabel(band_extension(cyclic_group(n)), _shuffled(rng, 2 * n))
        path = _write(work, f"z{n}e", S)
        ops += [analyze_op(path, S), verify_op(path, S)]
    for p in SCALE_PRIMES:
        for protocol in ("mo", "elgamal"):
            argv = ["crypto-demo", "--prime", str(p), "--protocol", protocol]
            ops.append(
                _op(
                    [*argv, "--seed", str(rng.randrange(1 << 30))],
                    names=[
                        "key-space-sizes",
                        "plaintext",
                        "recovered-plaintext",
                        "discrete-log-candidates",
                    ],
                    recovered=True,
                )
            )
    return ops


# (order of A, order of B, products per stratum) for the products A x B.
# A stratum fixes whether A's idempotents form a semilattice and how many
# idempotents B has (B's always form one).  The cost of a product's
# commands depends mostly on these two, so a fixed number of products per
# stratum keeps the work of a pass nearly the same from seed to seed; the
# seed picks the factors within each stratum and the relabelling.
SWEEP_PRODUCTS = ((2, 2, 4), (2, 3, 2), (3, 2, 3))


def sweep_ops(seed: int, work: Path):
    """Many small distinct tables: every labelled table of order <= 3,
    then a seeded, stratified sample of relabelled direct products of
    order 4 (16 tables) and 6 (24 tables)."""
    rng = random.Random(seed)
    tables = small_tables()
    ops = []
    for i, table in enumerate(tables):
        ops += table_ops(_write(work, f"t{len(table)}_{i:03d}", table), table)
    i = 0
    for a, b, count in SWEEP_PRODUCTS:
        for a_semilattice in (True, False):
            As = [t for t in tables if len(t) == a and is_semilattice(t) == a_semilattice]
            for k in range(1, b + 1):
                Bs = [
                    t for t in tables
                    if len(t) == b and is_semilattice(t) and len(idempotents_of(t)) == k
                ]
                for _ in range(count):
                    A, B = rng.choice(As), rng.choice(Bs)
                    P = relabel(direct_product(A, B), _shuffled(rng, a * b))
                    ops += table_ops(_write(work, f"p{a * b}_{i:03d}", P), P)
                    i += 1
    return ops


WORKLOADS = {"corpus": corpus_ops, "scale": scale_ops, "sweep": sweep_ops}
