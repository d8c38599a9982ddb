"""Element-level invariants, checked against values computed by direct
table scans (frozen below) and against the documented fixture corpus."""

import random
from itertools import combinations, permutations, product

import pytest

from edense import construction, core
from edense.errors import (
    BadIdentityHint,
    NonAssociative,
    OutOfRangeEntry,
    ParseError,
    PreconditionFailed,
)

from conftest import closure, cyclic_table, fx, product_table, relabelled, twist_outside

CHAIN3_TABLE = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]


def test_build_detects_identity():
    S = core.build_semigroup(CHAIN3_TABLE)
    assert S.identity == 2
    assert S.n == 3


def test_build_accepts_z2():
    S = core.build_semigroup([[0, 1], [1, 0]])
    assert core.is_group(S)


def test_build_rejects_non_associative():
    with pytest.raises(NonAssociative) as exc:
        core.build_semigroup([[1, 1], [1, 0]])
    i, j, k = exc.value.witness
    table = [[1, 1], [1, 0]]
    assert table[table[i][j]][k] != table[i][table[j][k]]


def test_build_rejects_out_of_range():
    with pytest.raises(OutOfRangeEntry):
        core.build_semigroup([[0, 2], [1, 0]])


def _triple_loop_witness(table):
    """The first non-associative triple in (i, j, k) order, or None, found
    triple by triple as an oracle for the row-wise check."""
    n = len(table)
    for i, j, k in product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return (i, j, k)
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_witness_matches_triple_loop_on_every_table(n):
    # all n^(n*n) labelled tables of order n
    counts = {True: 0, False: 0}
    for flat in product(range(n), repeat=n * n):
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        witness = _triple_loop_witness(rows)
        if witness is None:
            S = core.build_semigroup(rows)
            assert S.table == tuple(map(tuple, rows))
            assert S.identity == core._find_identity(S.table)
        else:
            with pytest.raises(NonAssociative) as exc:
                core.build_semigroup(rows)
            assert exc.value.witness == witness
            assert str(exc.value) == str(NonAssociative(*witness))
        counts[witness is None] += 1
    # associative tables of order 1, 2, 3: OEIS A023814
    assert counts[True] == {1: 1, 2: 8, 3: 113}[n]


# --- greedy generators --------------------------------------------------------
#
# build_semigroup scans associativity with i over the greedy generators
# only; ``closure`` in conftest closes a set under the product by brute force.


def test_generators_generate_and_none_is_redundant():
    tables = [S.table for n in (1, 2, 3) for S in construction.enumerate_semigroups(n)]
    assert len(tables) == 122
    tables += [S.table for S in construction.corpus()]
    for table in tables:
        gens = core.Structure(table).generators
        assert list(gens) == sorted(set(gens)), table
        assert closure(table, gens) == set(range(len(table))), table
        for i, g in enumerate(gens):
            # greedy: no generator is a product of the smaller ones
            assert g not in closure(table, gens[:i]), table


def _z_ke(k):
    G = core.build_semigroup(cyclic_table(k))
    return [list(row) for row in construction.adjoined_band_semigroup(G).table]


def _larger_tables():
    """Tables whose greedy generators are a small part of the elements."""
    rng = random.Random("larger tables")
    z2xz4 = product_table(cyclic_table(2), cyclic_table(4))
    yield "Z4E", _z_ke(4)
    yield "Z6E", _z_ke(6)
    yield "Z8E", _z_ke(8)
    yield "Z8 relabelled", relabelled(cyclic_table(8), rng.sample(range(8), 8))
    yield "Z2xZ4 relabelled", relabelled(z2xz4, rng.sample(range(8), 8))


@pytest.mark.parametrize("name,rows", list(_larger_tables()), ids=[n for n, _ in _larger_tables()])
def test_build_witness_matches_triple_loop_on_corrupted_rows(name, rows):
    S = core.build_semigroup(rows)
    gens = S.structure.generators
    assert len(gens) < S.n // 2
    rng = random.Random(name)
    corrupted_rows = set()
    for _ in range(40):
        bad = [list(row) for row in rows]
        i, j = rng.randrange(S.n), rng.randrange(S.n)
        bad[i][j] = rng.choice([v for v in S.elements if v != rows[i][j]])
        corrupted_rows.add(i)
        witness = _triple_loop_witness(bad)
        if witness is None:
            assert core.build_semigroup(bad).table == tuple(map(tuple, bad))
            continue
        with pytest.raises(NonAssociative) as exc:
            core.build_semigroup(bad)
        assert exc.value.witness == witness, (name, i, j)
        assert str(exc.value) == str(NonAssociative(*witness))
    assert corrupted_rows - set(gens), "no row of a non-generator was corrupted"


@pytest.mark.parametrize("name", ["Z4E", "Z6E", "Z8E", "Z2xZ4 relabelled"])
def test_build_scans_the_last_generator(name):
    rows = dict(_larger_tables())[name]
    gens = core.build_semigroup(rows).structure.generators
    bad, _ = twist_outside(rows, gens, rows)
    witness = _triple_loop_witness(bad)
    assert witness[0] == gens[-1]
    with pytest.raises(NonAssociative) as exc:
        core.build_semigroup(bad)
    assert exc.value.witness == witness


# --- the composition scan on small and partial tables --------------------------
#
# Total tables skip the None-to-m copy; every row still gets the slot m, so
# a one-point table still compares tuples, not bare ids.


def _act_triple_loop_witness(S, rows):
    """The first (s, t, x) where (st)x and s(tx), defined or not, differ."""
    for s, t in product(S.elements, repeat=2):
        for x in range(len(rows[0])):
            tx = rows[t][x]
            if rows[S.mul(s, t)][x] != (None if tx is None else rows[s][tx]):
                return (s, t, x)
    return None


@pytest.mark.parametrize(
    "S, rows, witness",
    [
        # order 1: on itself, and on two points by a swap that squares wrong
        (core.build_semigroup([[0]]), [[0]], None),
        (core.build_semigroup([[0]]), [[1, 0]], (0, 0, 0)),
        # one point: total, then partial with one element acting nowhere
        (core.build_semigroup(cyclic_table(2)), [[0], [0]], None),
        (core.build_semigroup(cyclic_table(2)), [[0], [None]], (1, 1, 0)),
        (core.build_semigroup(cyclic_table(2)), [[None], [0]], (0, 1, 0)),
        # a partial act of CHAIN3, then with one entry changed or dropped
        (fx("CHAIN3"), [[0, None, None], [0, 1, None], [0, 1, 2]], None),
        (fx("CHAIN3"), [[0, None, None], [0, 1, None], [0, 0, 2]], (0, 2, 1)),
        (fx("CHAIN3"), [[0, None, None], [0, 1, None], [0, None, 2]], (1, 2, 1)),
        (fx("CHAIN3"), [[0, None, None], [None, 1, None], [0, 1, 2]], (0, 1, 0)),
    ],
    ids=["order1", "order1-2pt", "1pt-total", "1pt-partial", "1pt-partial-identity",
         "partial", "partial-changed", "partial-dropped", "partial-dropped-2"],
)
def test_composition_witness_on_small_and_partial_tables(S, rows, witness):
    assert core._composition_witness(S, rows) == witness
    assert core._composition_witness(S, tuple(map(tuple, rows))) == witness
    assert _act_triple_loop_witness(S, rows) == witness


def test_build_rejects_wrong_label_count():
    with pytest.raises(PreconditionFailed) as exc:
        core.build_semigroup([[0, 1], [1, 0]], labels=("a",))
    assert exc.value.name == "labels"


def test_build_rejects_bad_identity_hint():
    with pytest.raises(BadIdentityHint):
        core.build_semigroup(CHAIN3_TABLE, identity_hint=0)


def test_idempotents():
    assert core.idempotents(fx("CHAIN3")) == {0, 1, 2}
    assert core.idempotents(fx("Z3E")) == {0, 3}
    assert core.idempotents(fx("Z6")) == {0}


@pytest.mark.parametrize(
    "name,band,semilattice",
    [("T2", True, False), ("Z3E", True, True), ("B2", True, True), ("LZ2", True, False)],
)
def test_classify_idempotents(name, band, semilattice):
    cls = core.classify_idempotents(fx(name))
    assert cls.is_band == band
    assert cls.is_semilattice == semilattice


def test_t2_band_witness():
    # the two constant maps multiply to constants, in either order
    S = fx("T2")
    assert S.mul(2, 3) == 2
    assert S.mul(3, 2) == 3


def test_inverse_sets_group():
    iv = core.inverse_sets(fx("Z6"), 2)
    assert iv.W == iv.V == iv.L == {4}


def test_inverse_sets_rectangular_band():
    S = fx("LZ2")
    for s in S.elements:
        iv = core.inverse_sets(S, s)
        assert iv.W == iv.V == {0, 1}


def test_inverse_sets_band_extension():
    iv = core.inverse_sets(fx("Z3E"), 1)
    assert iv.W == {2, 5}
    assert iv.V == {2}
    assert iv.L == {2, 5}


def test_mitsch_reflexive_everywhere(corpus):
    for S in corpus.values():
        for a in S.elements:
            assert core.mitsch_leq(S, a, a)


def test_mitsch_examples():
    assert core.mitsch_leq(fx("CHAIN3"), 0, 2)
    assert not core.mitsch_leq(fx("Z6"), 1, 2)


def test_h_leq_examples():
    assert core.h_leq(fx("Z3E"), 3, 0)
    assert core.h_leq(fx("CHAIN3"), 0, 2)
    assert not core.h_leq(fx("Z6"), 1, 2)


def test_green_l_classes():
    assert core.green_l_class(fx("B2"), 3) == {2, 3}
    assert core.green_l_class(fx("Z6"), 4) == frozenset(range(6))
    assert core.green_l_class(fx("CHAIN3"), 1) == {1}


def test_e_dense(corpus):
    for S in corpus.values():
        assert core.is_e_dense(S)
    assert core.is_e_dense(core.build_semigroup([[0]]))


@pytest.mark.parametrize(
    "name,group,unitary",
    [("Z6", True, True), ("Z3E", False, True), ("B2", False, False)],
)
def test_group_and_unitary_flags(name, group, unitary):
    S = fx(name)
    assert core.is_group(S) == group
    assert core.is_e_unitary(S) == unitary


def test_regular_elements():
    assert core.regular_elements(fx("B2")) == frozenset(range(5))
    assert core.regular_elements(fx("Z6")) == frozenset(range(6))
    assert core.regular_elements(fx("N2")) == {0}


def test_inverse_semigroup_flags():
    assert core.is_inverse_semigroup(fx("B2"))
    assert core.is_inverse_semigroup(fx("Z3E"))
    assert not core.is_inverse_semigroup(fx("LZ2"))


def test_parse_format_roundtrip():
    S = fx("Z3E")
    again = core.parse_cayley_table(core.format_cayley_table(S))
    assert again.table == S.table
    assert again.identity == S.identity


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        core.parse_cayley_table("2\n0 1\n1\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        core.parse_cayley_table("x\n")


def test_parse_comments_and_identity_line():
    text = "# chain\n3\n0 0 0\n0 1 1  # row for 1\n0 1 2\nidentity 2\n"
    S = core.parse_cayley_table(text)
    assert S.identity == 2


def assert_isomorphism(S, T, iso):
    """iso is a bijection S -> T that preserves all n^2 products."""
    assert iso is not None
    assert sorted(iso) == list(S.elements) and sorted(iso.values()) == list(T.elements)
    assert all(T.mul(iso[a], iso[b]) == iso[S.mul(a, b)] for a in S.elements for b in S.elements)


def z4_by_z4():
    """Z4 x| Z4, (a, b)(c, d) = (a + (-1)^b c, b + d), with (a, b) numbered 4a + b."""
    return [
        [(a + (-1) ** b * c) % 4 * 4 + (b + d) % 4 for c in range(4) for d in range(4)]
        for a in range(4)
        for b in range(4)
    ]


def s3():
    """The permutations of three points under composition, (pq)(x) = p(q(x))."""
    perms = list(permutations(range(3)))
    return [[perms.index(tuple(p[q[x]] for x in range(3))) for q in perms] for p in perms]


def test_semigroup_isomorphism_search():
    Z6 = fx("Z6")
    T = core.build_semigroup(relabelled(Z6.table, [3, 1, 4, 0, 5, 2]))
    assert_isomorphism(Z6, T, core.find_semigroup_isomorphism(Z6, T))
    assert core.find_semigroup_isomorphism(fx("Z2"), fx("LZ2")) is None
    assert core.find_semigroup_isomorphism(fx("Z6"), fx("Z3E")) is None
    # Z4 x Z4 and Z4 x| Z4 share every element signature; S3 has the order of Z6;
    # Z4 x| Z4 and S3 are groups that are not abelian
    Z4xZ4 = core.build_semigroup(product_table(cyclic_table(4), cyclic_table(4)))
    Z4sdZ4, S3 = core.build_semigroup(z4_by_z4()), core.build_semigroup(s3())
    signatures = [sorted(core._element_signature(S, x) for x in S.elements) for S in (Z4xZ4, Z4sdZ4)]
    assert signatures[0] == signatures[1]
    for G in (Z4sdZ4, S3):
        assert G.table != tuple(zip(*G.table)) and core.is_group(G)
    for A, B in [(Z4xZ4, Z4sdZ4), (S3, Z6)]:
        assert core.find_semigroup_isomorphism(A, B) is None
        assert core.find_semigroup_isomorphism(B, A) is None


def test_semigroup_isomorphism_has_no_order_bound():
    Z2 = cyclic_table(2)
    Z2_6 = Z2
    for _ in range(5):
        Z2_6 = product_table(Z2_6, Z2)
    Z16 = core.build_semigroup(cyclic_table(16))
    tables = {
        "Z17": cyclic_table(17),
        "Z32": cyclic_table(32),
        "Z16E": construction.adjoined_band_semigroup(Z16).table,
        "Z2^6": Z2_6,
        "CHAIN16": [[min(i, j) for j in range(16)] for i in range(16)],
        "LZ16": [[i] * 16 for i in range(16)],
    }
    assert [len(table) for table in tables.values()] == [17, 32, 32, 64, 16, 16]
    rng = random.Random(16)
    for table in tables.values():
        S = core.build_semigroup(table)
        T = core.build_semigroup(relabelled(table, rng.sample(range(S.n), S.n)))
        assert_isomorphism(S, T, core.find_semigroup_isomorphism(S, T))
    # unequal orders
    Z17 = core.build_semigroup(cyclic_table(17))
    assert core.find_semigroup_isomorphism(Z17, Z16) is None
    assert core.find_semigroup_isomorphism(Z16, Z17) is None


def labelled_tables(n):
    """Every associative n x n table, filling the cells row by row and
    backtracking as soon as a triple whose four products are all filled in
    breaks (ab)c = a(bc)."""
    t = [[None] * n for _ in range(n)]
    cells = list(product(range(n), repeat=2))

    def associative_so_far():
        for a, b, c in product(range(n), repeat=3):
            ab, bc = t[a][b], t[b][c]
            if ab is not None and bc is not None:
                left, right = t[ab][c], t[a][bc]
                if left is not None and right is not None and left != right:
                    return False
        return True

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, t))
            return
        i, j = cells[k]
        for v in range(n):
            t[i][j] = v
            if associative_so_far():
                yield from fill(k + 1)
        t[i][j] = None

    return list(fill(0))


@pytest.mark.parametrize("n, labelled, classes", [(1, 1, 1), (2, 8, 5), (3, 113, 24), (4, 3492, 188)])
def test_semigroup_isomorphism_against_every_bijection(n, labelled, classes):
    # OEIS A023814 (labelled tables) and A027851 (tables up to isomorphism);
    # the class of a table is its least relabelling over all n! bijections
    tables = labelled_tables(n)
    least = {
        t: min(tuple(map(tuple, relabelled(t, p))) for p in permutations(range(n))) for t in tables
    }
    reps = {r: core.build_semigroup(r) for r in sorted(set(least.values()))}
    assert (len(tables), len(reps)) == (labelled, classes)
    for t in tables:
        S, R = core.build_semigroup(t), reps[least[t]]
        assert_isomorphism(S, R, core.find_semigroup_isomorphism(S, R))
    for A, B in combinations(reps.values(), 2):
        assert core.find_semigroup_isomorphism(A, B) is None
