"""The derived data of a partial act against the definitions it replaced.

A ``PartialAct`` computes the domain, orbit and stabilizer of every point,
its orbit partition, its properties and its grading once, on first use,
and keeps them.  The functions below compute the same data one query at a
time straight from the table, as the package did before the act kept
them, and serve as the oracle on every act the act and coset suites build.
"""

import gc
import random
import weakref
from itertools import product

import pytest

from edense import acts, cli, closures, construction, core, cosets, verify
from edense.errors import NotSemilattice

from conftest import fx


def ref_point_domain(act, x):
    return frozenset(s for s in act.semigroup.elements if act.table[s][x] is not None)


def ref_orbit(act, x):
    return frozenset(act.act(s, x) for s in ref_point_domain(act, x)) | {x}


def ref_stabilizer(act, x):
    return frozenset(
        s for s in act.semigroup.elements if act.defined(s, x) and act.act(s, x) == x
    )


def ref_orbits(act):
    seen = {}
    for x in act.points:
        seen.setdefault(ref_orbit(act, x), []).append(x)
    return sorted(seen.keys(), key=min)


def ref_act_properties(act):
    S = act.semigroup
    E = core.idempotents(S)
    effective = all(ref_point_domain(act, x) for x in act.points)
    transitive = all(
        len({row[x] for row in act.table} - {None}) == act.carrier for x in act.points
    )
    indecomposable = len(ref_orbits(act)) == 1
    locally_free = all(
        ref_stabilizer(act, x) == closures.omega_h(S, E & ref_point_domain(act, x))
        for x in act.points
    )
    return acts.ActProperties(effective, transitive, indecomposable, locally_free)


def ref_grading(act):
    S = act.semigroup
    closures.require_semilattice(S)
    E = core.idempotents(S)
    p = []
    for x in act.points:
        if not ref_point_domain(act, x):
            return acts.GradingObstruction("non-effective point", x)
        fixing = ref_stabilizer(act, x) & E
        minima = [e for e in fixing if all(core.h_leq(S, e, f) for f in fixing)]
        if not minima:
            return acts.GradingObstruction("stabilizer without minimum idempotent", x)
        assert len(minima) == 1
        p.append(minima[0])
    return acts.Grading(tuple(p))


def z_k_e(k):
    G = core.build_semigroup([[(i + j) % k for j in range(k)] for i in range(k)])
    return construction.adjoined_band_semigroup(G, name=f"Z{k}E")


def record_tables():
    """Every order <= 3 table whose idempotents form a semilattice, fresh
    copies of the fixtures, and Z_kE for k <= 6."""
    small = [S for n in (1, 2, 3) for S in construction.enumerate_semigroups(n)]
    return (
        [S for S in small if core.classify_idempotents(S).is_semilattice]
        + [core.build_semigroup(fx(n).table, name=n) for n in construction.FIXTURE_NAMES]
        + [z_k_e(k) for k in range(1, 7)]
    )


def suite_acts_of(S):
    """The acts the act and coset suites build on S: the Wagner-Preston and
    Munn acts, the subact on every orbit of each, and the coset-space act of
    every closed base."""
    wp, munn = acts.wagner_preston(S), acts.munn_act(S)
    found = [wp, munn]
    for act in (wp, munn):
        found += [acts.subact(act, sorted(O)) for O in ref_orbits(act)]
    found += [cosets.coset_space(S, H).act for H in closures.closed_e_dense_subsemigroups(S)]
    return found


def check_record(act):
    for x in act.points:
        assert act.point_domains[x] == ref_point_domain(act, x), x
        assert act.orbit_sets[x] == ref_orbit(act, x), x
        assert act.stabilizers[x] == ref_stabilizer(act, x), x
    assert list(act.orbit_partition) == ref_orbits(act)
    assert act.properties == ref_act_properties(act)
    assert act.grading == ref_grading(act)
    # a second query reads the same record
    assert act.properties is act.properties
    assert act.grading is act.grading


def test_record_matches_the_definitions_on_every_suite_act():
    checked = 0
    for S in record_tables():
        if verify._skip_reason(S):
            continue
        for act in suite_acts_of(S):
            check_record(act)
            checked += 1
    assert checked > 500


def test_record_values_are_immutable():
    act = acts.wagner_preston(z_k_e(3))
    act.grading, act.properties
    for name in ("point_domains", "orbit_sets", "stabilizers", "orbit_partition"):
        value = vars(act)[name]
        assert isinstance(value, tuple) and all(isinstance(v, frozenset) for v in value), name
    for name in ("properties", "grading"):
        with pytest.raises(AttributeError):
            vars(act)[name].p = ()


def test_grading_raises_again_on_every_call():
    # the empty act of a table whose idempotents are no semilattice
    S = core.build_semigroup(fx("LZ2").table)
    act = acts.validate_act(S, [[None] * 2 for _ in S.elements])
    for _ in range(2):
        with pytest.raises(NotSemilattice):
            act.grading
    with pytest.raises(NotSemilattice):
        ref_grading(act)
    assert "grading" not in vars(act)
    for x in act.points:
        assert act.point_domains[x] == ref_point_domain(act, x) == frozenset()
    assert list(act.orbit_partition) == ref_orbits(act) == [{0}, {1}]
    assert act.properties == ref_act_properties(act)


def test_record_is_kept_on_the_act_and_dies_with_it():
    S = core.build_semigroup(fx("Z3E").table)
    act = acts.wagner_preston(S)
    twin = acts.wagner_preston(S)
    assert twin == act and hash(twin) == hash(act)
    assert act.properties is act.properties
    assert twin.properties is not act.properties
    ref = weakref.ref(act)
    del act
    gc.collect()
    assert ref() is None


def test_orbit_act_is_the_subact_on_the_orbit():
    one_orbit = several = 0
    for S in record_tables():
        if verify._skip_reason(S):
            continue
        for act in suite_acts_of(S):
            for x in act.points:
                O = act.orbit_sets[x]
                piece = act.orbit_act(x)
                assert piece.table == acts.subact(act, sorted(O)).table, (S, x)
                assert all(act.orbit_act(y) is piece for y in O), (S, x)
            if len(ref_orbits(act)) == 1:
                assert act.orbit_act(0) is act
                one_orbit += 1
            elif act.carrier:
                several += 1
    assert one_orbit > 100 and several > 100


def test_orbit_acts_hold_no_reference_to_their_act():
    # each act has two orbits on Z3E and one on Z3
    for S, build in product([fx("Z3E"), fx("Z3")], [acts.wagner_preston, acts.munn_act]):
        act = build(S)
        ref, piece = weakref.ref(act), weakref.ref(act.orbit_act(act.carrier - 1))
        del act
        # freed by reference counts alone: neither the act nor a piece is in a cycle
        assert ref() is None and piece() is None


def test_one_corpus_verify_restricts_each_orbit_once(monkeypatch):
    calls = []
    real = acts.subact

    def subact(act, points):
        # the calls list holds every act, so no id is reused during the run
        calls.append((act, frozenset(points)))
        return real(act, points)

    monkeypatch.setattr(acts, "subact", subact)
    assert cli.main(["verify", "--corpus", "--json"]) == 0
    keys = [(id(act), points) for act, points in calls]
    assert len(keys) == len(set(keys))
    assert calls and all(len(points) < act.carrier for act, points in calls)


def test_one_verify_builds_one_wagner_preston_act(monkeypatch, tmp_path):
    path = tmp_path / "z6e.tbl"
    path.write_text(core.format_cayley_table(fx("Z6E")))
    calls = []
    real = acts.wagner_preston
    monkeypatch.setattr(
        acts, "wagner_preston", lambda S, carrier=None: calls.append(S) or real(S, carrier)
    )
    assert cli.main(["verify", str(path), "--json"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "suite, builds", [("all", 12), ("core", 0), ("acts", 8), ("cosets", 8), ("crypto", 10)]
)
def test_one_corpus_verify_shares_its_wagner_preston_acts(monkeypatch, suite, builds):
    # the crypto classification reads the act that the act and coset suites
    # read; only the four modexp systems build their own
    calls = {"wagner_preston": 0, "subact": 0}

    def counted(name):
        real = getattr(acts, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(acts, name, counted(name))
    assert cli.main(["verify", "--corpus", "--suite", suite, "--json"]) == 0
    assert calls["wagner_preston"] <= builds
    if suite == "all":
        assert calls["subact"] <= 38


# --- checks that build one subact per orbit, against per-point scans ----------


def ref_effective_orbit_violations(act):
    """``verify._effective_orbit_violations`` with one subact per point."""
    for x in act.points:
        if not act.point_domains[x]:
            continue
        props = acts.subact(act, sorted(act.orbit_sets[x])).properties
        if not (props.effective and props.transitive):
            return f"orbit of {x} not effective transitive"
    props = act.properties
    if props.effective and props.transitive and len(act.orbit_partition) != 1:
        return "effective transitive act with several orbits"


def ref_orbit_stabilizer_violations(S, wp):
    """``verify._orbit_stabilizer_violations`` with one subact per point."""
    for x in wp.points:
        if not wp.point_domains[x]:
            continue
        piece = acts.subact(wp, sorted(wp.orbit_sets[x]))
        space = cosets.coset_space(S, wp.stabilizers[x])
        if acts.find_act_isomorphism(piece, space.act) is None:
            return f"orbit of {x} not isomorphic to the coset act of its stabilizer"


def test_orbit_checks_name_the_same_first_witness(monkeypatch):
    # break the orbit pieces of one size at a time; the checks must then fail
    # at the same point as the per-point scans
    real_props, real_iso = acts.PartialAct.properties.func, acts.find_act_isomorphism
    effective_failures = orbit_failures = 0
    for S in [z_k_e(k) for k in (2, 3, 4)] + [fx("B2"), fx("CHAIN3")]:
        wp = acts.wagner_preston(S)
        collection = [wp, acts.munn_act(S)] + [acts.subact(wp, sorted(O)) for O in ref_orbits(wp)]
        for size in [None] + sorted({len(O) for O in ref_orbits(wp)}):
            monkeypatch.setattr(
                acts.PartialAct,
                "properties",
                property(
                    lambda a: real_props(a) if a.carrier != size
                    else acts.ActProperties(True, False, True, True)
                ),
            )
            monkeypatch.setattr(
                acts,
                "find_act_isomorphism",
                lambda a, b: None if a.carrier == size else real_iso(a, b),
            )
            for act in collection:
                got = verify._effective_orbit_violations(act)
                assert got == ref_effective_orbit_violations(act), (S, size)
                effective_failures += got is not None
            got = verify._orbit_stabilizer_violations(S, wp)
            assert got == ref_orbit_stabilizer_violations(S, wp), (S, size)
            orbit_failures += got is not None
    assert effective_failures >= 10 and orbit_failures >= 5


def ref_orbit_partition_violations(act):
    """``verify._orbit_partition_violations`` with two orbit queries per pair."""
    for x in act.points:
        for y in act.points:
            ox, oy = act.orbit_sets[x], act.orbit_sets[y]
            if (y in ox) != (ox == oy):
                return f"x={x}, y={y}"


def ref_basic_lemma_violations(act):
    """``verify._basic_lemma_violations`` with a definedness lookup and an
    action per entry."""
    S = act.semigroup
    E = core.idempotents(S)
    for x in act.points:
        dom = act.point_domains[x]
        stab = act.stabilizers[x]
        if not (E & dom) <= stab:
            return f"part 1 at x={x}"
        for s in S.elements:
            for w in core.weak_inverses(S, s):
                if act.defined(w, x) != act.defined(S.mul(s, w), x):
                    return f"part 2 at x={x}, s={s}, s'={w}"
        for s in dom:
            y = act.act(s, x)
            back = any(
                act.defined(w, y) and act.act(w, y) == x
                for w in core.weak_inverses(S, s)
            )
            if not back:
                return f"part 3 at x={x}, s={s}"
        for s, t in product(dom, repeat=2):
            same = act.act(s, x) == act.act(t, x)
            witnesses = [w for w in core.weak_inverses(S, s) if S.mul(w, t) in stab]
            if same != bool(witnesses):
                return f"part 4 at x={x}, s={s}, t={t}"
            if same:
                sx = act.act(s, x)
                for w in witnesses:
                    if not act.defined(w, sx):
                        return f"part 4 (domain) at x={x}, s={s}, s'={w}"


def test_act_checks_name_the_same_first_witness_on_raw_tables():
    # unvalidated tables, so that the checks fail; an idempotent fixes
    # every point it acts on, so part 1 of the basic laws holds
    rng = random.Random("raw acts")
    seen = {}
    for S in [fx("CHAIN3"), fx("B2"), fx("Z3E"), z_k_e(2)]:
        E = core.idempotents(S)
        for _ in range(80):
            m = rng.randint(1, 4)
            table = tuple(
                tuple(
                    rng.choice([None, x] if s in E else [None, *range(m)])
                    for x in range(m)
                )
                for s in S.elements
            )
            act = acts.PartialAct(S, table)
            got = verify._orbit_partition_violations(act)
            assert got == ref_orbit_partition_violations(act), table
            seen["partition"] = seen.get("partition", 0) + (got is not None)
            got = verify._basic_lemma_violations(act)
            assert got == ref_basic_lemma_violations(act), table
            if got is not None:
                part = got.split(" at ")[0]
                seen[part] = seen.get(part, 0) + 1
    kinds = ("partition", "part 2", "part 3", "part 4", "part 4 (domain)")
    assert all(seen.get(k, 0) >= 3 for k in kinds), seen
