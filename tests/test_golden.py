"""The behaviour fingerprints: ``verify --corpus --json``, ``build-cu``
over Z8 and Z16 with an adjoined band, ``verify`` on Z16E and three
seeded ``crypto-demo`` runs must reproduce their checked-in golden files
byte for byte, with and without ``python -O`` (which strips every
``assert``).

``z16.tbl`` and ``z16e.tbl`` are the cyclic group of order 16 and its
extension by a central idempotent (order 32), each relabelled by a fixed
permutation, so that neither identity is element 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from edense.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "bench" / "golden" / "verify_corpus.json"
# table files are given by their paths relative to the repository root,
# because the report's command line names them
BUILD_CU = ["build-cu", "--group", "tests/golden/z8.tbl", "--adjoin-band", "2", "--json"]
BUILD_CU_GOLDEN = ROOT / "tests" / "golden" / "build_cu_z8_band2.json"
# the order-32 pair monoid over 512 morphisms, and verify at order 32
TABLE_COMMANDS = {
    "build_cu_z16_band2.json": [
        "build-cu", "--group", "tests/golden/z16.tbl", "--adjoin-band", "2", "--json"
    ],
    "verify_z16e.json": ["verify", "tests/golden/z16e.tbl", "--json"],
}
CRYPTO_DEMOS = {
    "crypto_demo_p241_mo_seed1.json": [
        "crypto-demo", "--prime", "241", "--protocol", "mo", "--seed", "1", "--json"
    ],
    "crypto_demo_p199_elgamal_seed2.json": [
        "crypto-demo", "--prime", "199", "--protocol", "elgamal", "--seed", "2", "--json"
    ],
    "crypto_demo_z3e_elgamal_seed3.json": [
        "crypto-demo", "--fixture", "Z3E", "--protocol", "elgamal", "--seed", "3", "--json"
    ],
}


def _run_optimized(argv):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "edense", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_verify_corpus_json_matches_golden(capsys):
    code = main(["verify", "--corpus", "--json"])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_verify_corpus_json_matches_golden_under_optimize():
    assert _run_optimized(["verify", "--corpus", "--json"]) == GOLDEN.read_text()


def test_build_cu_json_matches_golden(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(BUILD_CU)
    assert code == 0
    assert capsys.readouterr().out == BUILD_CU_GOLDEN.read_text()


def test_build_cu_json_matches_golden_under_optimize():
    assert _run_optimized(BUILD_CU) == BUILD_CU_GOLDEN.read_text()


@pytest.mark.parametrize("golden", TABLE_COMMANDS)
def test_table_command_json_matches_golden(capsys, monkeypatch, golden):
    monkeypatch.chdir(ROOT)
    assert main(TABLE_COMMANDS[golden]) == 0
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / golden).read_text()


@pytest.mark.parametrize("golden", TABLE_COMMANDS)
def test_table_command_json_matches_golden_under_optimize(golden):
    assert _run_optimized(TABLE_COMMANDS[golden]) == (ROOT / "tests" / "golden" / golden).read_text()


@pytest.mark.parametrize("golden", CRYPTO_DEMOS)
def test_crypto_demo_json_matches_golden(capsys, golden):
    assert main(CRYPTO_DEMOS[golden]) == 0
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / golden).read_text()


@pytest.mark.parametrize("golden", CRYPTO_DEMOS)
def test_crypto_demo_json_matches_golden_under_optimize(golden):
    assert _run_optimized(CRYPTO_DEMOS[golden]) == (ROOT / "tests" / "golden" / golden).read_text()
