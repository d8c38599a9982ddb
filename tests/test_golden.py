"""The corpus report is the behaviour fingerprint: ``verify --corpus --json``
must reproduce the checked-in golden file byte for byte, with and without
``python -O`` (which strips every ``assert``)."""

import os
import subprocess
import sys
from pathlib import Path

from edense.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "bench" / "golden" / "verify_corpus.json"


def test_verify_corpus_json_matches_golden(capsys):
    code = main(["verify", "--corpus", "--json"])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_verify_corpus_json_matches_golden_under_optimize():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "edense", "verify", "--corpus", "--json"],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == GOLDEN.read_text()
