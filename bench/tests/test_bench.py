"""Tests of the benchmark itself: input generators, tracing, output checks.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import contextlib
import io
import json
import subprocess
import sys

import pytest

import child
import run
import workloads
from conftest import BENCH_DIR
from tracer import LAYERS, Tracer

import edense
from edense import cli, construction, core
from edense.errors import OrderTooLarge

SRC = str(BENCH_DIR.parent / "src")


@pytest.fixture
def tracer():
    t = Tracer()
    t.install(edense)
    yield t
    t.uninstall()


def test_generator_matches_oeis_a023814():
    for n, want in workloads.LABELLED_COUNTS.items():
        assert sum(1 for _ in workloads.labelled_semigroups(n)) == want


def test_generator_matches_brute_force_enumerator():
    for n in (1, 2, 3):
        ours = list(workloads.labelled_semigroups(n))
        theirs = [S.table for S in construction.enumerate_semigroups(n)]
        assert ours == theirs


def test_relabelled_products_stay_associative_and_keep_invariants():
    A, B = workloads.small_tables()[5], workloads.small_tables()[40]
    P = workloads.direct_product(A, B)
    Q = workloads.relabel(P, [5, 3, 0, 1, 4, 2][: len(P)])
    core.build_semigroup(Q)  # raises unless associative
    assert len(workloads.idempotents_of(Q)) == len(workloads.idempotents_of(P))
    assert workloads.is_semilattice(Q) == workloads.is_semilattice(P)


def test_band_extension_is_the_fixture_table():
    for n, name in ((3, "Z3E"), (6, "Z6E")):
        ext = workloads.band_extension(workloads.cyclic_group(n))
        assert ext == construction.fixture(name).table


def test_rebinding_catches_calls_through_an_alias(tracer):
    original = core.build_semigroup.__wrapped__
    assert construction.build_semigroup is core.build_semigroup
    assert construction.build_semigroup is not original
    construction._cyclic_group(4, "Z4")  # calls build_semigroup by its alias
    assert tracer.calls["core.build_semigroup"] == 1
    assert tracer.counters["core.build_semigroup.triples"] == 4**3


def test_uninstall_restores_every_binding():
    before = {m: dict(vars(m)) for m in (core, construction, edense)}
    t = Tracer()
    t.install(edense)
    t.uninstall()
    for module, names in before.items():
        for attr, obj in names.items():
            assert getattr(module, attr) is obj, f"{module.__name__}.{attr}"


def test_repeat_ratio_counts_equal_tables_and_keyword_calls(tracer):
    S = core.build_semigroup(workloads.cyclic_group(5))
    T = core.build_semigroup(workloads.cyclic_group(5))  # equal, not the same object
    core.mitsch_leq(S, 1, 2)
    core.mitsch_leq(T, 1, 2)
    core.mitsch_leq(S=S, a=1, b=2)
    core.mitsch_leq(S, 2, 1)
    metrics = tracer.layer_metrics()
    assert metrics["core.mitsch_leq.calls"] == 4
    assert metrics["core.query.repeat_ratio"] == 2 / 4


def test_generator_spans_cover_each_next(tracer):
    tables = list(construction.enumerate_semigroups(2))
    assert len(tables) == 8
    assert tracer.calls["construction.enumerate_semigroups"] == 9  # 8 items, then exhaustion
    assert tracer.layer_metrics()["construction.enumerate_semigroups.yield_ratio"] == 8 / 2**4


def test_yield_ratio_ignores_an_enumeration_that_raises(tracer):
    list(construction.enumerate_semigroups(2))
    with pytest.raises(OrderTooLarge):
        list(construction.enumerate_semigroups(4))
    assert tracer.counters["construction.enumerate_semigroups.candidates"] == 2**4
    assert tracer.layer_metrics()["construction.enumerate_semigroups.yield_ratio"] == 8 / 2**4


def test_child_spans_nest_and_self_times_fit_in_wall(tracer, tmp_path):
    table = workloads.small_tables()[20]
    path = tmp_path / "t.tbl"
    path.write_text(workloads.format_table(table))
    start = tracer.clock()
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("analyze", "act", "verify"):
            assert cli.main([command, str(path), "--json"]) == 0
    wall = tracer.clock() - start

    spans = tracer.spans()
    assert spans, "no spans recorded"
    roots = 0
    for name, parent, begin, end in spans:
        assert begin <= end
        if parent < 0:
            roots += 1
            continue
        _, _, pbegin, pend = spans[parent]
        assert pbegin <= begin and end <= pend, f"{name} escapes {spans[parent][0]}"
    assert roots == 3  # one cli.main span per command
    assert all(v >= 0 for v in tracer.self_s.values())
    assert sum(tracer.self_s.values()) <= wall
    metrics = tracer.layer_metrics()
    assert sum(metrics[f"{layer}.self_s"] for layer in LAYERS) <= wall


def test_traced_corpus_run_matches_golden(tmp_path):
    spec = tmp_path / "spec.json"
    ops = workloads.corpus_ops(0, tmp_path)
    spec.write_text(json.dumps({"src": SRC, "trace": True, "ops": [op["argv"] for op in ops]}))
    result = run.run_child(spec, tmp_path / "result.json")
    assert run.check_output(ops[0], result["codes"][0], result["outputs"][0]) is None
    layers = result["layers"]
    assert layers["verify.suite_crypto.total_s"] > 0
    assert layers["construction.enumerate_semigroups.yield_ratio"] == 122 / (1 + 2**4 + 3**9)


def test_check_output_flags_wrong_outputs():
    op = workloads.corpus_ops(0, None)[0]
    golden = (BENCH_DIR / workloads.GOLDEN_CORPUS).read_text()
    assert run.check_output(op, 0, golden) is None
    assert run.check_output(op, 0, golden.replace('"pass": true', '"pass": false', 1))
    assert run.check_output(op, 1, golden)

    op = workloads.analyze_op("x.tbl", ((0, 0), (0, 1)))
    out = {"command": "analyze x.tbl", "ok": True, "findings": []}
    assert "finding names" in run.check_output(op, 0, json.dumps(out))
    for broken in ({"ok": True}, {"ok": True, "findings": [{"pass": True}]}, [], None):
        assert "named findings" in run.check_output(op, 0, json.dumps(broken))
    out["findings"] = [{"name": "table-valid", "witness": "order 2"}]  # no "pass"
    assert "failing findings" in run.check_output(op, 0, json.dumps(out))


def test_act_without_a_semilattice_expects_one_failing_finding():
    band = ((0, 1, 2, 3), (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3))  # 1 * 2 = 1, 2 * 1 = 2
    assert not workloads.is_semilattice(band)
    op = workloads.act_op("x.tbl", band)
    finding = {"name": "NotSemilattice", "pass": False, "witness": "(1, 2)"}
    out = {"command": "act", "findings": [finding], "ok": False}
    assert run.check_output(op, 1, json.dumps(out)) is None
    assert "exit status" in run.check_output(op, 0, json.dumps(out))
    assert '"ok"' in run.check_output(op, 1, json.dumps(dict(out, ok=True)))
    finding["pass"] = True
    assert "failing findings" in run.check_output(op, 1, json.dumps(out))


def test_scale_and_sweep_inputs_pass_their_expectations(tmp_path):
    """One in-process pass over the seeded part of each workload."""
    largest = str(max(workloads.SCALE_PRIMES))
    scale = [op for op in workloads.scale_ops(7, tmp_path) if largest not in op["argv"]]
    sweep = workloads.sweep_ops(7, tmp_path)
    sweep = sweep[:30] + sweep[-60:]  # small tables, then relabelled products
    assert any(op["expect"].get("exit") == 1 for op in sweep)  # act's NotSemilattice path
    ops = scale + sweep
    result = child.run({"src": SRC, "trace": False, "ops": [op["argv"] for op in ops]})
    for op, code, out in zip(ops, result["codes"], result["outputs"]):
        assert run.check_output(op, code, out) is None, op["argv"]


def _inputs(build, seed, work):
    work.mkdir()
    ops = build(seed, work)
    files = {p.name: p.read_text() for p in work.iterdir()}
    return [op["expect"] for op in ops], files


def test_same_seed_same_inputs(tmp_path):
    for build in (workloads.scale_ops, workloads.sweep_ops):
        first = _inputs(build, 3, tmp_path / f"{build.__name__}-a")
        assert first == _inputs(build, 3, tmp_path / f"{build.__name__}-b")
        assert first != _inputs(build, 4, tmp_path / f"{build.__name__}-c")


def test_run_fails_without_a_source_tree(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
