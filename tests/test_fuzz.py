"""Fuzzing the table, subset, act and category parsers through the
command line, and act isomorphism on relabelled acts.

Whatever a table file, a ``--subsemigroup`` or ``--carrier`` argument,
an act file or a category file holds, a command must end in a JSON
findings report with exit status 0 or 1, and raise nothing.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from edense import acts, core
from edense.cli import main

from conftest import SEMILATTICE_FIXTURES, fx
from test_acts import relabelled_act
from test_construction import DERIVED_Z2_FILE

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


ACT_TABLES = st.sampled_from(["LZ2", "N2", "Z3", "B2", "Z3E"])
Z3E_ACT = acts.format_act(acts.munn_act(fx("Z3E"))).splitlines()


@st.composite
def near_miss_acts(draw):
    """The act format with a right or wrong header and one row too few,
    enough or one too many, each row of the header's width."""
    name = draw(ACT_TABLES)
    n, m = fx(name).n, draw(st.integers(0, 4))
    head = draw(st.one_of(st.just(f"{n} {m}"), LINES))
    entry = st.one_of(st.integers(-1, 5).map(str), st.just("-"), TOKENS)
    row = st.lists(entry, min_size=m, max_size=m).map(" ".join)
    rows = draw(st.lists(row, min_size=n - 1, max_size=n + 1))
    return name, "\n".join([head, *rows])


@st.composite
def edited_acts(draw):
    """The Munn act of Z3E with one line replaced by a near miss."""
    i = draw(st.integers(0, len(Z3E_ACT) - 1))
    return "Z3E", "\n".join(Z3E_ACT[:i] + [draw(LINES)] + Z3E_ACT[i + 1:])


TABLES_AND_ACTS = st.one_of(st.tuples(ACT_TABLES, TEXT), near_miss_acts(), edited_acts())


@FUZZ
@given(pair=TABLES_AND_ACTS)
def test_any_act_file_gives_a_report(pair):
    name, text = pair
    with tempfile.TemporaryDirectory() as tmp:
        table_path, act_path = Path(tmp) / "fuzz.tbl", Path(tmp) / "fuzz.act"
        table_path.write_text(core.format_cayley_table(fx(name)), encoding="utf-8")
        act_path.write_text(text, encoding="utf-8")
        run_json("act", str(table_path), f"--act-file={act_path}")


@FUZZ
@given(name=ACT_TABLES, carrier=SUBSETS)
def test_any_carrier_gives_a_report(name, carrier):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.tbl"
        path.write_text(core.format_cayley_table(fx(name)), encoding="utf-8")
        run_json("act", str(path), f"--carrier={carrier}")


CATEGORY_LINES = DERIVED_Z2_FILE.strip().splitlines()
# category-format words next to the table near-misses
CATEGORY_TOKENS = st.one_of(
    TOKENS, st.sampled_from(["objects:", "morphisms:", "compose:", "action:", "obj", "mor"])
)


@st.composite
def edited_categories(draw):
    """The derived category of Z2 with one line replaced by a near miss,
    or with a near miss inserted."""
    line = draw(st.lists(CATEGORY_TOKENS, max_size=5).map(" ".join))
    i = draw(st.integers(0, len(CATEGORY_LINES)))
    keep = i + 1 if draw(st.booleans()) else i
    return "\n".join(CATEGORY_LINES[:i] + [line] + CATEGORY_LINES[keep:])


@FUZZ
@given(text=st.one_of(TEXT, edited_categories()))
def test_any_category_file_gives_a_report(text):
    with tempfile.TemporaryDirectory() as tmp:
        group_path, category_path = Path(tmp) / "z2.tbl", Path(tmp) / "fuzz.cat"
        group_path.write_text(core.format_cayley_table(fx("Z2")), encoding="utf-8")
        category_path.write_text(text, encoding="utf-8")
        run_json("build-cu", f"--group={group_path}", f"--category={category_path}")


@st.composite
def validated_acts(draw):
    """A disjoint union of one to three of the Wagner-Preston and Munn
    acts of a semilattice fixture and their orbits, validated."""
    S = fx(draw(st.sampled_from(SEMILATTICE_FIXTURES)))
    wp, munn = acts.wagner_preston(S), acts.munn_act(S)
    pieces = [wp, munn] + [acts.subact(a, sorted(O)) for a in (wp, munn) for O in a.orbit_partition]
    union = acts.disjoint_union(*draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=3)))
    return acts.validate_act(S, union.table)


@st.composite
def relabelled_pairs(draw):
    act = draw(validated_acts())
    return act, relabelled_act(act, draw(st.permutations(range(act.carrier))))


@FUZZ
@given(pair=relabelled_pairs())
def test_an_act_is_isomorphic_to_any_relabelling(pair):
    act, relabelled = pair
    iso = acts.find_act_isomorphism(act, relabelled)
    assert iso is not None
    assert sorted(iso.values()) == list(relabelled.points)
    assert acts.is_s_map(act, relabelled, iso)
