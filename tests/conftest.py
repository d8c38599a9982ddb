import pytest

from edense import construction

SEMILATTICE_FIXTURES = ("CHAIN3", "N2", "Z2", "Z3", "Z6", "B2", "Z3E", "Z6E")


@pytest.fixture(scope="session")
def corpus():
    return {name: construction.fixture(name) for name in construction.FIXTURE_NAMES}


def fx(name):
    return construction.fixture(name)


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_table(A, B):
    """A x B with (a, b) numbered a * |B| + b."""
    nb = len(B)
    return [
        [A[a1][a2] * nb + B[b1][b2] for a2 in range(len(A)) for b2 in range(nb)]
        for a1 in range(len(A))
        for b1 in range(nb)
    ]


def relabelled(table, perm):
    """The isomorphic table in which element x is called perm[x]."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            out[perm[a]][perm[b]] = perm[ab]
    return out


def closure(table, gens):
    """The subsemigroup generated by gens, by brute force."""
    closed = set(gens)
    while True:
        more = closed | {table[a][b] for a in closed for b in closed}
        if more == closed:
            return closed
        closed = more


def twist_outside(table, gens, rows):
    """``rows``, one per element of a commutative table, with the row of each
    r outside H = <gens[:-1]> replaced by the row of r*c, for the first c in
    H whose square is not idempotent.  A law (associativity, an act's
    composition law) then still holds for every first factor in H, and the
    least first factor breaking it is gens[-1].  Returns (rows, c)."""
    H = closure(table, gens[:-1])
    c = next(c for c in sorted(H) if table[table[c][c]][table[c][c]] != table[c][c])
    return [list(row) if r in H else list(rows[table[r][c]]) for r, row in enumerate(rows)], c
