"""Command-line interface: reports, JSON schema, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from edense import core
from edense.cli import main

from conftest import cyclic_table, fx

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def z3e_file(tmp_path):
    path = tmp_path / "z3e.tbl"
    path.write_text(core.format_cayley_table(fx("Z3E")))
    return str(path)


@pytest.fixture()
def z6_file(tmp_path):
    path = tmp_path / "z6.tbl"
    path.write_text(core.format_cayley_table(fx("Z6")))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_text(capsys, z3e_file):
    code, out = run(capsys, "analyze", z3e_file)
    assert code == 0
    assert "[PASS] e-unitary  [True]" in out
    assert "[PASS] idempotents  [0 3]" in out


def test_analyze_json_schema(capsys, z3e_file):
    code, out = run(capsys, "analyze", z3e_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["command"].startswith("analyze")
    for f in payload["findings"]:
        assert set(f) <= {"name", "pass", "witness"}
        assert isinstance(f["pass"], bool)


def test_analyze_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("3\n0 0 0\n0 1\n0 1 2\n")
    code, out = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "ParseError" in out and "line 3" in out


def test_analyze_non_associative(capsys, tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("2\n1 1\n1 0\n")
    code, out = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "NonAssociative" in out


def test_cosets_command(capsys, z3e_file):
    code, out = run(capsys, "cosets", z3e_file, "--subsemigroup", "0 3")
    assert code == 0
    assert "0 3\n1 4\n2 5" in out
    assert "[PASS] quotient-group  [order 3]" in out


def test_cosets_group_subgroup(capsys, z6_file):
    code, out = run(capsys, "cosets", z6_file, "--subsemigroup", "0 2 4")
    assert code == 0
    assert "[PASS] base-valid  [2 cosets]" in out


def test_cosets_bad_base(capsys, z3e_file):
    code, out = run(capsys, "cosets", z3e_file, "--subsemigroup", "3")
    assert code == 1
    assert "BadSubsemigroup" in out and "upward closed" in out


def test_act_command(capsys, z3e_file):
    code, out = run(capsys, "act", z3e_file, "--carrier", "3 4 5")
    assert code == 0
    assert "[PASS] locally-free  [True]" in out
    assert "[PASS] grading  [3 3 3]" in out


def test_act_munn(capsys, z3e_file):
    code, out = run(capsys, "act", z3e_file, "--munn")
    assert code == 0
    assert "[PASS] act-valid  [2 points]" in out


def test_act_file_roundtrip(capsys, tmp_path, z3e_file):
    from edense import acts

    S = fx("Z3E")
    wp = acts.wagner_preston(S, [3, 4, 5])
    act_path = tmp_path / "eg.act"
    act_path.write_text(acts.format_act(wp))
    code, out = run(capsys, "act", z3e_file, "--act-file", str(act_path))
    assert code == 0
    assert "[PASS] transitive  [True]" in out


def test_act_file_out_of_range_entry(capsys, tmp_path, z3e_file):
    # a 3-point act whose row 1 sends point 2 to a point that does not exist
    rows = ["0 1 2"] * 6
    rows[1] = "1 2 3"
    act_path = tmp_path / "bad.act"
    act_path.write_text("6 3\n" + "\n".join(rows) + "\n")
    code, out = run(capsys, "act", z3e_file, "--act-file", str(act_path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["findings"] == [
        {"name": "OutOfRangeEntry", "pass": False, "witness": "entry [1][2] = 3 out of range"}
    ]


@pytest.mark.parametrize(
    "text, witness",
    [
        ("3 x\n0\n0\n0\n", "line 1: expected 'n m' header"),
        ("# a comment line\n3 1\nz\n0\n0\n", "line 3: bad row 'z'"),
    ],
)
def test_act_file_not_integers(capsys, tmp_path, text, witness):
    table = tmp_path / "chain3.tbl"
    table.write_text(core.format_cayley_table(fx("CHAIN3")))
    act_path = tmp_path / "bad.act"
    act_path.write_text(text)
    finding = _single_failure(capsys, "act", str(table), "--act-file", str(act_path))
    assert finding == {"name": "ParseError", "pass": False, "witness": witness}


def test_build_cu_derived(capsys, z6_file):
    code, out = run(capsys, "build-cu", "--group", z6_file)
    assert code == 0
    assert "[PASS] pair-monoid  [order 6]" in out


def test_build_cu_adjoin_band(capsys, z6_file):
    code, out = run(capsys, "build-cu", "--group", z6_file, "--adjoin-band", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    by_name = {f["name"]: f for f in payload["findings"]}
    assert by_name["pair-monoid"]["witness"] == "order 12"
    assert by_name["e-unitary-dense"]["pass"] is True


def test_crypto_demo_prime_deterministic(capsys):
    code1, out1 = run(capsys, "crypto-demo", "--prime", "11", "--protocol", "mo", "--seed", "1")
    code2, out2 = run(capsys, "crypto-demo", "--prime", "11", "--protocol", "mo", "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "recovered-plaintext" in out1


def test_crypto_demo_fixture_key_sizes(capsys):
    code, out = run(capsys, "crypto-demo", "--fixture", "Z3E", "--protocol", "elgamal", "--seed", "3")
    assert code == 0
    assert "[PASS] key-space-sizes  [2]" in out


def test_crypto_demo_not_prime(capsys):
    code, out = run(capsys, "crypto-demo", "--prime", "4", "--seed", "0")
    assert code == 1
    assert "NotPrime" in out


def test_crypto_demo_prime_zero(capsys):
    finding = _single_failure(capsys, "crypto-demo", "--prime", "0")
    assert finding == {
        "name": "NotPrime", "pass": False, "witness": "0 is not a prime in the supported range"
    }


def test_build_cu_rejects_a_table_that_is_not_a_group(capsys, tmp_path):
    grp = tmp_path / "chain3.tbl"
    grp.write_text(core.format_cayley_table(fx("CHAIN3")))
    finding = _single_failure(capsys, "build-cu", "--group", str(grp))
    assert finding == {"name": "NotGroup", "pass": False, "witness": "semigroup is not a group"}


def test_build_cu_adjoin_band_zero(capsys, tmp_path):
    grp = tmp_path / "z3.tbl"
    grp.write_text(core.format_cayley_table(fx("Z3")))
    finding = _single_failure(capsys, "build-cu", "--group", str(grp), "--adjoin-band", "0")
    assert finding == {
        "name": "UnsupportedBand",
        "pass": False,
        "witness": "adjoined band of size 0 not supported (need k >= 2)",
    }


def test_verify_table(capsys, z3e_file):
    code, out = run(capsys, "verify", z3e_file, "--suite", "cosets")
    assert code == 0
    assert "cosets.orbit-stabilizer" in out


def test_verify_corpus_all(capsys):
    code, out = run(capsys, "verify", "--corpus")
    assert code == 0
    assert "[FAIL]" not in out
    assert "core.small-order-sweep" in out


def test_verify_needs_target(capsys):
    with pytest.raises(SystemExit):
        main(["verify"])


def test_verify_corrupted_table(capsys, tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("2\n1 1\n1 0\n")
    code, out = run(capsys, "verify", str(bad))
    assert code == 1
    assert "NonAssociative" in out


def test_verify_table_crypto_suite(capsys, z3e_file):
    code, out = run(capsys, "verify", z3e_file, "--suite", "crypto")
    assert code == 0
    assert "crypto.key-space-theorem" in out


def test_verify_table_reports_a_failing_key_space_part_once(capsys, monkeypatch, z3e_file):
    from edense import crypto

    real = crypto.decrypt_key_space

    def without_largest_key(sys, x, key):
        K = real(sys, x, key)
        return K - {max(K)}

    monkeypatch.setattr(crypto, "decrypt_key_space", without_largest_key)
    code, out = run(capsys, "verify", z3e_file, "--suite", "crypto", "--json")
    assert code == 1
    named = [f for f in json.loads(out)["findings"] if f["name"] == "crypto.key-space-theorem"]
    assert named == [
        {
            "name": "crypto.key-space-theorem",
            "pass": False,
            "witness": "z3e: key-space-contains-closed-triple fails (s=0 x=0)",
        }
    ]


def test_verify_table_without_a_cryptosystem_skips_crypto(capsys, tmp_path):
    # the idempotents of the left-zero band are no semilattice, so the table
    # has no canonical system: an info finding, and the command still passes
    path = tmp_path / "LZ2.tbl"
    path.write_text(core.format_cayley_table(fx("LZ2")))
    code, out = run(capsys, "verify", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    named = [f for f in payload["findings"] if f["name"].startswith("crypto")]
    assert named == [
        {
            "name": "crypto-skipped",
            "pass": True,
            "witness": "idempotents do not form a semilattice (witness (0, 1))",
        }
    ]


def test_build_cu_category_file(capsys, tmp_path):
    from test_construction import DERIVED_Z2_FILE

    cat = tmp_path / "derived_z2.cat"
    cat.write_text(DERIVED_Z2_FILE)
    grp = tmp_path / "z2.tbl"
    grp.write_text(core.format_cayley_table(fx("Z2")))
    code, out = run(capsys, "build-cu", "--group", str(grp), "--category", str(cat))
    assert code == 0
    assert "[PASS] pair-monoid  [order 2]" in out


def _build_cu_finding(capsys, tmp_path, category_text):
    cat = tmp_path / "bad.cat"
    cat.write_text(category_text)
    grp = tmp_path / "z2.tbl"
    grp.write_text(core.format_cayley_table(fx("Z2")))
    code, out = run(capsys, "build-cu", "--group", str(grp), "--category", str(cat), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    (finding,) = payload["findings"]
    assert finding["pass"] is False
    return finding


def test_build_cu_category_compose_out_of_range(capsys, tmp_path):
    # one morphism, and a composition line naming morphism 5
    text = "objects: 1\nmorphisms:\n0 0 0\ncompose:\n0 0 0\n0 5 0\n"
    finding = _build_cu_finding(capsys, tmp_path, text)
    assert finding == {
        "name": "OutOfRangeEntry", "pass": False, "witness": "entry [0][5] = 0 out of range"
    }


def test_build_cu_category_action_out_of_range(capsys, tmp_path):
    from test_construction import DERIVED_Z2_FILE

    finding = _build_cu_finding(
        capsys, tmp_path, DERIVED_Z2_FILE.replace("1 mor 0 2\n", "1 mor 0 7\n")
    )
    assert finding == {
        "name": "OutOfRangeEntry", "pass": False, "witness": "entry [1][0] = 7 out of range"
    }


def test_build_cu_category_missing_action_line(capsys, tmp_path):
    from test_construction import DERIVED_Z2_FILE

    head, action = DERIVED_Z2_FILE.split("action:")
    kept = [line for line in action.splitlines() if not line.startswith("1 ")]
    finding = _build_cu_finding(capsys, tmp_path, head + "action:" + "\n".join(kept))
    assert finding == {
        "name": "ParseError", "pass": False, "witness": "line 0: missing action line '1 obj 0'"
    }


def _single_failure(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    (finding,) = payload["findings"]
    assert finding["pass"] is False
    return finding


@pytest.mark.parametrize("u", ["9", "-1"])
def test_build_cu_object_out_of_range(capsys, tmp_path, u):
    grp = tmp_path / "z2.tbl"
    grp.write_text(core.format_cayley_table(fx("Z2")))
    finding = _single_failure(capsys, "build-cu", "--group", str(grp), "--object", u)
    assert finding == {
        "name": "PreconditionFailed",
        "pass": False,
        "witness": f"precondition failed: base_object {u} is not one of the 2 objects",
    }


def test_analyze_identity_not_an_id(capsys, tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("2\n0 1\n1 0\nidentity x\n")
    finding = _single_failure(capsys, "analyze", str(bad))
    assert finding == {
        "name": "ParseError", "pass": False, "witness": "line 4: expected 'identity <id>'"
    }


def test_cosets_subsemigroup_not_ids(capsys, z3e_file):
    finding = _single_failure(capsys, "cosets", z3e_file, "--subsemigroup", "0,9")
    assert finding == {
        "name": "ParseError",
        "pass": False,
        "witness": "line 1: expected space-separated ids, got '0,9'",
    }


def test_cosets_member_out_of_range_names_it(capsys, z6_file):
    finding = _single_failure(capsys, "cosets", z6_file, "--subsemigroup", "0 9")
    assert finding == {
        "name": "BadSubsemigroup",
        "pass": False,
        "witness": "subset is not a closed E-dense subsemigroup: member out of range (witness [9])",
    }


def test_missing_table_file(capsys, tmp_path):
    missing = str(tmp_path / "missing.tbl")
    finding = _single_failure(capsys, "analyze", missing)
    assert finding == {
        "name": "UnreadableFile",
        "pass": False,
        "witness": f"cannot read {missing}: No such file or directory",
    }


@pytest.mark.parametrize("option", ["--act-file", "--category"])
def test_empty_file_option_is_an_unreadable_file(capsys, z6_file, option):
    # an empty file name is a file that cannot be read, not an absent option
    command = ["act", z6_file] if option == "--act-file" else ["build-cu", "--group", z6_file]
    finding = _single_failure(capsys, *command, option, "")
    assert finding["name"] == "UnreadableFile"
    assert finding["witness"].startswith("cannot read : ")


def test_empty_carrier_is_the_empty_carrier(capsys, z3e_file):
    _, blank = run(capsys, "act", z3e_file, "--carrier", " ", "--json")
    code, empty = run(capsys, "act", z3e_file, "--carrier", "", "--json")
    assert code == 0
    assert empty == blank
    assert {"name": "act-valid", "pass": True, "witness": "0 points"} in json.loads(empty)["findings"]


def test_parser_is_built_once_per_process(capsys, monkeypatch, z3e_file):
    run(capsys, "analyze", z3e_file)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out = run(capsys, "analyze", z3e_file)
    assert code == 0 and "[PASS] e-unitary  [True]" in out
    assert built == []


@pytest.mark.parametrize("bad_argv", [["verify"], ["no-such-command"]])
def test_main_works_after_an_argparse_exit(capsys, z3e_file, bad_argv):
    with pytest.raises(SystemExit) as exc:
        main(bad_argv)
    assert exc.value.code == 2
    capsys.readouterr()
    code, out = run(capsys, "analyze", z3e_file, "--json")
    assert code == 0
    assert json.loads(out)["command"] == f"analyze {z3e_file}"


def test_options_do_not_leak_between_calls(capsys, z3e_file):
    _, out = run(capsys, "act", z3e_file, "--munn", "--json")
    assert json.loads(out)["command"] == f"act {z3e_file} (munn)"
    _, out = run(capsys, "act", z3e_file, "--json")
    assert json.loads(out)["command"] == f"act {z3e_file} (wagner-preston)"
    _, out = run(capsys, "crypto-demo", "--prime", "7", "--protocol", "elgamal", "--json")
    assert json.loads(out)["command"] == "crypto-demo modexp p=7 protocol=elgamal seed=0"
    _, out = run(capsys, "crypto-demo", "--prime", "7", "--json")
    assert json.loads(out)["command"] == "crypto-demo modexp p=7 protocol=mo seed=0"


CARRIER_ONLY_WP = "--carrier applies only to the Wagner-Preston act"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["act", "{table}", "--munn", "--carrier", "0"], CARRIER_ONLY_WP),
        (["act", "{table}", "--act-file", "F", "--carrier", "0"], CARRIER_ONLY_WP),
        (["verify", "{table}", "--corpus"], "verify takes a table file or --corpus, not both"),
    ],
    ids=["munn-carrier", "act-file-carrier", "verify-table-corpus"],
)
def test_ignored_options_are_refused(capsys, z3e_file, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([a.format(table=z3e_file) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def _edense(argv, stdout):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as on a plain shell
    return subprocess.Popen(
        [sys.executable, "-m", "edense", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


def test_stdout_closed_after_one_line_exits_quietly(tmp_path):
    # the act of Z200 prints about 160 kB, more than a pipe holds, so the
    # command is still writing when the reader closes the pipe
    table = tmp_path / "z200.tbl"
    table.write_text(core.format_cayley_table(core.build_semigroup(cyclic_table(200))))
    proc = _edense(["act", str(table)], subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert first == f"# act {table} (wagner-preston)\n".encode()
    assert err == b""


def test_stdout_closed_before_a_short_report_exits_quietly():
    # a report shorter than the stdout buffer fails only when it is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _edense(["crypto-demo", "--prime", "7"], write_end)
    os.close(write_end)
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize("carrier,bad", [("0 9", 9), ("-1", -1)])
def test_act_carrier_outside_the_table(capsys, z3e_file, carrier, bad):
    code, out = run(capsys, "act", z3e_file, "--carrier", carrier, "--json")
    assert code == 1
    assert json.loads(out)["findings"] == [
        {
            "name": "PreconditionFailed",
            "pass": False,
            "witness": f"precondition failed: carrier {bad} is not an element id 0..5",
        }
    ]
