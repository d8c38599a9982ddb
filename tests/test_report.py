"""Findings and report plumbing: rendering, JSON schema, exit status."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

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


def reference_json(report):
    """The report as the indenting encoder writes it."""
    payload = {
        "command": report.command,
        "findings": [
            {"name": f.name, "pass": f.passed}
            | ({"witness": f.witness} if f.witness is not None else {})
            for f in report.findings
        ],
        "ok": report.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=False)


# any code point, lone surrogates included, with the characters JSON escapes
# (quotes, backslashes, control characters) and non-BMP ones drawn often
TEXT = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=()),
        st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\U0001f600\U00010000'),
    )
)
FINDINGS = st.lists(
    st.builds(Finding, TEXT, st.booleans(), st.one_of(st.none(), TEXT)), max_size=6
)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(command=TEXT, findings=FINDINGS)
def test_json_writer_matches_the_indenting_encoder(command, findings):
    report = Report(command, findings)
    assert report.to_json() == reference_json(report)


def test_json_writer_edge_cases():
    for findings in ([], [Finding("", True, "")], [Finding("x", False, None)]):
        report = Report("", findings)
        assert report.to_json() == reference_json(report)
    assert Report("demo").to_json() == '{\n  "command": "demo",\n  "findings": [],\n  "ok": true\n}'
