"""Fuzzing the table and subset parsers through the command line.

Whatever a table file or a ``--subsemigroup`` argument holds, a command
must end in a JSON findings report with exit status 0 or 1, and raise
nothing.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from edense import core
from edense.cli import main

from conftest import fx

# digits, separators, the format's words, and characters that Python
# reads as digits or whitespace, or that str.splitlines splits on
ALPHABET = "0123456789 \t\n\r#-+_.,identyx\x0b\x0c\x1c\x85\u00a0\u2028\u0663\u00b2\u00e9"
TEXT = st.text(alphabet=ALPHABET)
# near-misses of the table format: orders, entries, identity lines and junk
TOKENS = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from(["identity", "x", "-", "#", "1.5", "0,1", "+1", "1_0", "\u0663"]),
    st.text(alphabet=ALPHABET, max_size=3),
)
LINES = st.lists(TOKENS, max_size=5).map(" ".join)
FIXTURES = st.sampled_from(["LZ2", "N2", "Z3", "T2", "B2", "Z3E"]).map(
    lambda name: core.format_cayley_table(fx(name))
)
TABLES = st.one_of(
    TEXT,
    st.lists(LINES, max_size=7).map("\n".join),
    FIXTURES,
    # a valid table, then a junk identity line
    st.tuples(FIXTURES, LINES).map(lambda pair: pair[0] + "identity " + pair[1]),
)
SUBSETS = st.one_of(TEXT, st.lists(st.integers(-1, 7), max_size=4).map(
    lambda ids: " ".join(map(str, ids))
))
FUZZ = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def run_json(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--json"])
    assert code in (0, 1), code
    report = json.loads(out.getvalue())
    assert report["ok"] is (code == 0)
    assert report["findings"]
    return report


@FUZZ
@given(text=TABLES, subset=SUBSETS)
def test_any_table_and_subset_give_a_report(text, subset):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.tbl"
        path.write_text(text, encoding="utf-8")
        run_json("analyze", str(path))
        run_json("cosets", str(path), f"--subsemigroup={subset}")
