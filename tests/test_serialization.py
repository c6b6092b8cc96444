"""The bulk serializer against the recursive one it replaced.

``oracles.oracle_canonical_json`` is the recursive canonical serializer as it
was, and ``oracle_reports_doc`` / ``oracle_reports_to_csv`` build the report
documents the old way: a full dict rendered in one recursive walk, and the
inputs rendered again for every sort key.  The library renders lists a key
column at a time, in pieces of 64 elements; it must produce the same bytes,
or raise the same exception type, on every input.
"""

import dataclasses
import math
from collections import OrderedDict
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osb.campaigns import run_lemmas, run_verify_lp, run_verify_main
from osb.families import FamilySpec
from osb.reports import (
    VerificationReport,
    canonical_json,
    inequality_report,
    reports_to_csv,
    reports_to_json,
    vacuous_report,
)

from oracles import (
    oracle_canonical_json,
    oracle_reports_doc,
    oracle_reports_to_csv,
)


def _outcome(render, doc):
    try:
        return "ok", render(doc)
    except Exception as exc:  # the exception type is part of the contract
        return "raises", type(exc)


_TRICKY_CHARS = '"\\/\x00\x01\x08\x0c\n\r\t\x1f\x7fé  ퟿\U0001f600'

_strings = st.one_of(
    st.text(max_size=8),
    st.text(alphabet=_TRICKY_CHARS, max_size=8),
)
_floats = st.one_of(
    st.floats(),  # includes nan, +-inf, -0.0 and subnormals
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-310, math.inf, -math.inf, math.nan, 0.1, 1 / 3]),
)
_ints = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-(2**200), 2**200),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    _floats,
    _strings,
    st.fractions(),
    _floats.map(np.float64),
    st.integers(-(2**62), 2**62).map(np.int64),
)
_keys = st.one_of(
    _strings, _ints, st.booleans(), st.none(), _floats, st.fractions(),
    st.tuples(st.integers(0, 3), _strings),
)


def _containers(children):
    dicts = st.dictionaries(_keys, children, max_size=5)
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        dicts,
        dicts.map(MappingProxyType),
    )


_documents = st.recursive(_scalars, _containers, max_leaves=25)


# Lists of records, as the bulk path renders them a key column at a time:
# dicts sharing a few key sets, each key a column of one kind.  The values
# come from a drawn random generator, so a list can run to 300 records.
_RECORD_KEYS = ["a", "b", "%s", "%(x)d", 'q"t', "sp ace", "é", "", "z"]
_COLUMN_KINDS = ["int", "float", "str", "none", "bool", "mixed", "dict",
                 "int list", "float list"]


def _value(rnd, kind):
    if kind == "int":
        return rnd.choice([rnd.randint(-1000, 1000), rnd.randint(-(2**70), 2**70)])
    if kind == "float":
        return rnd.choice([rnd.random(), -0.0, 5e-324, 1e300, rnd.uniform(-1e6, 1e6)])
    if kind == "str":
        return rnd.choice(["", "x", 'q"', "é\n", "%", "a b", "\x00\\"])
    if kind == "none":
        return None
    if kind == "bool":
        return rnd.random() < 0.5
    if kind == "mixed":  # bools among ints, numpy floats, Fractions
        return rnd.choice([1, True, False, 0.5, np.float64(0.25), None,
                           Fraction(1, 3), "s", 2**65, np.int64(7)])
    if kind == "dict":  # nested records, mostly of one key set
        keys = ["u", "v"] if rnd.random() < 0.8 else ["v", "w", "u"]
        return {k: _value(rnd, rnd.choice(["int", "float", "str"])) for k in keys}
    width = rnd.randint(0, 5)
    if kind == "int list":
        return [rnd.randint(0, 9) for _ in range(width)]
    return [rnd.random() for _ in range(width)]


class _Renamed(str):
    def __str__(self):
        return "renamed"


@st.composite
def _record_lists(draw):
    rnd = draw(st.randoms(use_true_random=False))
    shapes = draw(st.lists(
        st.lists(st.sampled_from(_RECORD_KEYS), max_size=4, unique=True),
        min_size=1, max_size=3))
    kinds = {k: draw(st.sampled_from(_COLUMN_KINDS)) for k in _RECORD_KEYS}
    count = draw(st.integers(0, 300))
    records = []
    for _ in range(count):
        shape = rnd.choice(shapes)
        records.append({k: _value(rnd, kinds[k]) for k in shape})
    wrap = draw(st.sampled_from([None, MappingProxyType, OrderedDict, "int key"]))
    if records and wrap is not None:  # one record the bulk path must not take
        i = rnd.randrange(len(records))
        records[i] = ({**records[i], 1: "x"} if wrap == "int key"
                      else wrap(records[i]))
    poison = draw(st.sampled_from([None, math.nan, math.inf, {1, 2}]))
    if poison is not None and count:  # an unrenderable value in a later record
        i = rnd.randrange(count // 2, count)
        records[i] = {**records[i], rnd.choice(_RECORD_KEYS): poison}
    return draw(st.sampled_from([list, tuple]))(records)


_nested_lists = st.one_of(
    st.lists(st.lists(st.integers(-(2**70), 2**70), max_size=6), max_size=40),
    st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
             max_size=40),
    st.lists(st.lists(st.one_of(st.integers(0, 9), st.booleans()), max_size=6),
             max_size=10),
    st.lists(st.lists(st.floats(), max_size=6).map(tuple), max_size=10),
)


@settings(max_examples=400, deadline=None)
@given(_documents)
@example({1: "int key", "1": "str key", True: "bool", "True": "text"})
@example({"b": [1, 2.5, -0.0], "a": {"z": None, "y": (True, False)}})
@example({"é": '"quoted"\\', "\x00": "\x1f", "\U0001f600": " "})
@example([Fraction(-3, 4), 5e-324, 10**40, -(10**40)])
@example(MappingProxyType({"x": np.float64(0.5), "y": 1}))
@example({"nested": [1.0, math.nan]})
@example({"n": np.int64(3)})
@example([1, {1, 2}])
def test_canonical_json_matches_recursive_oracle(doc):
    assert _outcome(canonical_json, doc) == _outcome(oracle_canonical_json, doc)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_record_lists(), _nested_lists))
@example([{"a": 1, "b": 0.5}, {"b": 1.5, "a": 2}, {"a": 3}])
@example([{"x": 1}] * 70 + [{"x": math.nan}])
@example([{"x": 1}] * 70 + [{"x": {1, 2}}, {"x": math.nan}])
@example([{"x": math.nan}, {"x": {1, 2}}, {"y": "z"}])
@example([{}, {}, {"": None}])
@example([[1, 2, 3], [True, 2], (4,), []])
# column order meets the set first, document order the NaN
@example([{"a": 1, "b": math.nan}, {"a": {1, 2}, "b": 1}])
# a str subclass key renders as str(key), which a column would not
@example([{_Renamed("k"): 1}, {_Renamed("k"): 2}])
def test_record_lists_match_recursive_oracle(doc):
    assert _outcome(canonical_json, doc) == _outcome(oracle_canonical_json, doc)
    assert _outcome(canonical_json, {"rows": doc}) == _outcome(
        oracle_canonical_json, {"rows": doc})


def test_canonical_json_pinned_bytes():
    doc = {
        "s": 'q"b\\c\x01é', "f": [0.1, -0.0, 5e-324, 1e22], "i": 10**20,
        "b": [True, False, None], "fr": Fraction(-3, 4), 2: "two",
    }
    assert canonical_json(doc) == (
        '{"2":"two","b":[true,false,null],'
        '"f":[0.10000000000000001,-0,4.9406564584124654e-324,1e+22],'
        '"fr":"-3/4","i":100000000000000000000,'
        '"s":"q\\"b\\\\c\\u0001é"}'
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_float_is_value_error(bad):
    with pytest.raises(ValueError):
        canonical_json({"x": [bad]})


# ---------------------------------------------------------------------------
# whole report documents


def _assert_equal_text(got, want):
    # report documents run to megabytes; point at the first differing byte
    # instead of letting the assertion diff them
    if got != want:
        i = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y),
                 min(len(got), len(want)))
        lo = max(i - 60, 0)
        pytest.fail(f"outputs differ at offset {i} (lengths {len(got)}, "
                    f"{len(want)}): {got[lo:i + 60]!r} != {want[lo:i + 60]!r}")


def _assert_same_bytes(reports):
    _assert_equal_text(reports_to_json(reports),
                       oracle_canonical_json(oracle_reports_doc(reports)) + "\n")
    _assert_equal_text(reports_to_csv(reports), oracle_reports_to_csv(reports))


MAP, SYM = FamilySpec("map"), FamilySpec("sym")


@pytest.fixture(scope="module")
def campaign_reports(small_corpus):
    return {
        "verify-main map": run_verify_main(small_corpus, MAP),
        "verify-main sym reduced": run_verify_main(small_corpus, SYM, reduce_top=True),
        "verify-main map mc": run_verify_main(small_corpus, MAP, samples=64, seed=3),
        "verify-lp sym": run_verify_lp(small_corpus, SYM, [1.0, 1.5, 3.0]),
        "verify-lp map mc": run_verify_lp(small_corpus, MAP, [2.0], samples=64, seed=3),
        "lemmas map": run_lemmas(small_corpus, MAP),
        "lemmas sym per-instance": run_lemmas(small_corpus, SYM, aggregate=False),
    }


@pytest.mark.parametrize("campaign", [
    "verify-main map", "verify-main sym reduced", "verify-main map mc",
    "verify-lp sym", "verify-lp map mc", "lemmas map", "lemmas sym per-instance",
])
def test_campaign_bytes_match_oracle(campaign_reports, campaign):
    reports = campaign_reports[campaign]
    assert reports
    _assert_same_bytes(reports)
    _assert_same_bytes(list(reversed(reports)))


def test_campaigns_cover_mc_and_vacuous_rows(campaign_reports):
    everything = [r for reports in campaign_reports.values() for r in reports]
    assert any(r.mode == "mc" and r.stderr is not None for r in everything)
    assert any(r.status == "vacuous" for r in everything)
    assert any(r.status == "vacuous" for r in campaign_reports["lemmas map"])


def test_empty_report_list():
    _assert_same_bytes([])


def test_hand_built_reports_match_oracle():
    """Ties on the sort key keep input order; numpy scalars, int constants,
    read-only mappings and non-ASCII text render as the oracle renders them."""
    reports = [
        inequality_report("b", {"m": 2}, 1.0, 2.0),
        inequality_report("a", {"m": 1, "tag": "é\"x\""}, 0.5, 1 / 3),
        inequality_report("a", {"m": 1, "tag": "é\"x\""}, 0.25, 1 / 3),
        vacuous_report("a", {"m": 0}, "none"),
        inequality_report("c", {"m": 3}, 1.0, 1.0, mode="mc", stderr=0.0),
        VerificationReport(
            check_id="d", inputs=MappingProxyType({"z": 1, "y": [1.5, None]}),
            lhs=np.float64(-0.0), rhs=np.float64(5e-324), margin=np.float64(1e-310),
            status="pass", direction="ge", constant=2,
            extra=MappingProxyType({"worst_case": {"m": 1}, 3: "int key"}),
        ),
    ]
    for order in (reports, reports[::-1], reports[2:] + reports[:2]):
        _assert_same_bytes(order)


def _many_reports(count=250):
    """Hand-built reports enough for several pieces: check ids csv.writer
    quotes, inputs of several key sets, constants and stderrs present and
    absent, empty and nested extras, numpy and int values."""
    import random

    rnd = random.Random(11)
    check_ids = ["thm/a", "thm/b", 'q"uote', "com,ma", "line\nbreak", "cr\rid", ""]
    reports = []
    for i in range(count):
        inputs = rnd.choice([
            {"m": i % 7, "cell": f"{i % 3}x2"},
            {"cell": "1x1", "p": rnd.choice([1.0, 1.5]), "tag": 'é"%'},
            MappingProxyType({"k": i}),
        ])
        extra = rnd.choice([{}, {}, {"ratio": rnd.random()},
                            {"worst_case": {"m": i}, "note": "a,b"},
                            MappingProxyType({3: "int key"})])
        reports.append(VerificationReport(
            check_id=rnd.choice(check_ids), inputs=inputs,
            lhs=rnd.choice([rnd.random(), np.float64(0.5), 2]),
            rhs=rnd.random(), margin=rnd.uniform(-1, 1),
            status=rnd.choice(["pass", "fail", "vacuous"]),
            direction=rnd.choice(["le", "ge"]), mode=rnd.choice(["exact", "mc"]),
            constant=rnd.choice([None, 2, 0.5, np.float64(1.5)]),
            stderr=rnd.choice([None, None, 0.0, 1e-3]), extra=extra,
        ))
    return reports


def test_a_long_report_document_matches_oracle():
    reports = _many_reports()
    _assert_same_bytes(reports)
    _assert_same_bytes(reports[::-1])
    # columns of one kind: every constant and stderr absent, every extra empty
    plain = [VerificationReport(check_id="c", inputs={"m": i}, lhs=1.0, rhs=2.0,
                                margin=1.0, status="pass") for i in range(200)]
    _assert_same_bytes(plain)


@pytest.mark.parametrize("at", [0, 130, 249])
@pytest.mark.parametrize("field,bad", [
    ("lhs", math.nan), ("stderr", math.inf), ("constant", [1.5]),
    ("extra", {"s": {1, 2}}), ("inputs", {"s": math.nan}),
])
def test_a_bad_report_value_raises_as_the_oracle_does(at, field, bad):
    reports = _many_reports()
    reports[at] = dataclasses.replace(reports[at], **{field: bad})
    assert _outcome(reports_to_json, reports) == _outcome(
        lambda rs: oracle_canonical_json(oracle_reports_doc(rs)), reports)
    assert _outcome(reports_to_csv, reports) == _outcome(oracle_reports_to_csv, reports)


def test_errors_in_two_rows_raise_in_document_order():
    # row "a" fails at lhs, row "b" earlier in key order, at extra: a
    # column at a time would meet row b's error first
    reports = [
        VerificationReport(check_id="a", inputs={}, lhs=math.nan, rhs=1.0,
                           margin=0.0, status="pass"),
        VerificationReport(check_id="b", inputs={}, lhs=1.0, rhs=1.0, margin=0.0,
                           status="pass", extra={"s": {1, 2}}),
    ]
    want = _outcome(lambda rs: oracle_canonical_json(oracle_reports_doc(rs)), reports)
    assert want[1] is not TypeError
    assert _outcome(reports_to_json, reports) == want


def test_to_json_obj_renders_like_the_document_row():
    r = inequality_report("a", {"m": 1}, 0.5, 1 / 3, extra={"k": [1, 2]})
    text = reports_to_json([r])
    assert text.startswith('{"reports":[' + canonical_json(r.to_json_obj()) + "]")
