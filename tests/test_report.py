"""Findings and report plumbing: rendering, JSON schema, exit status."""

import json

from edense.report import Finding, Report
from edense.verify import finding


def test_finding_lines():
    assert Finding("x", True).line() == "[PASS] x"
    assert Finding("x", False, "bad").line() == "[FAIL] x  [bad]"


def test_finding_from_violation_stream():
    # a check returns its first witness, or None when it finds none
    assert finding("ok", None) == Finding("ok", True)
    bad = finding("bad", "first")
    assert not bad.passed
    assert bad.witness == "first"


def test_report_exit_status_and_render():
    r = Report("demo")
    r.info("value", 7)
    assert r.ok and r.exit_status == 0
    r.add(Finding("broken", False, "why"))
    assert not r.ok and r.exit_status == 1
    rendered = r.render()
    assert rendered.startswith("# demo")
    assert rendered.endswith("# FAILED")


def test_report_json_omits_null_witness():
    r = Report("demo")
    r.add(Finding("plain", True))
    r.add(Finding("detailed", False, "w"))
    payload = json.loads(r.to_json())
    assert payload["ok"] is False
    assert "witness" not in payload["findings"][0]
    assert payload["findings"][1]["witness"] == "w"
