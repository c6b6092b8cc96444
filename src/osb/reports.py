"""Structured verification reports and their canonical JSON/CSV renderings.

Reports are deterministic: identical inputs produce byte-identical output.
Floats are rendered with 17 significant digits, object keys are sorted, and
report lists are sorted by (check_id, canonical inputs).
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from json.encoder import encode_basestring
from math import isfinite
from operator import attrgetter, itemgetter
from typing import Optional

from .matrices import render_float

EXACT_SLACK = 1e-12
_UNIT_ROUNDOFF = 2.0**-53

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_VACUOUS = "vacuous"


def _text(value):
    return value


def _optional_float(value):
    return None if value is None else float(value)


# The one definition of the row format: each key, in sorted order, with the
# function that reads its value from the report.  to_json_obj, the JSON rows
# and the CSV rows all read it.
_ROW = {
    "check_id": _text, "constant": _optional_float, "direction": _text,
    "extra": dict, "inputs": dict, "lhs": float, "margin": float, "mode": _text,
    "rhs": float, "status": _text, "stderr": _optional_float,
}


@dataclass(frozen=True)
class VerificationReport:
    """One directed inequality check.

    ``direction`` is "le" for lhs <= rhs and "ge" for lhs >= rhs; ``margin``
    is the signed distance into the passing region, so a check passes iff
    margin >= -slack, where slack is 1e-12 in exact mode and 4*stderr, with
    a floor from the rounding of the mean, in Monte Carlo mode (see
    ``inequality_report``).  ``extra`` carries auxiliary recorded values
    (ratios, norms) that do not enter the pass/fail decision.
    """

    check_id: str
    inputs: Mapping[str, object]
    lhs: float
    rhs: float
    margin: float
    status: str
    direction: str = "le"
    mode: str = "exact"
    constant: Optional[float] = None
    stderr: Optional[float] = None
    extra: Mapping[str, object] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {key: read(getattr(self, key)) for key, read in _ROW.items()}


def inequality_report(
    check_id: str,
    inputs: Mapping[str, object],
    lhs: float,
    rhs: float,
    *,
    constant: float | None = None,
    mode: str = "exact",
    stderr: float | None = None,
    extra: Mapping[str, object] | None = None,
) -> VerificationReport:
    """Check lhs <= rhs with the mode's slack.

    The exact slack is EXACT_SLACK.  In Monte Carlo mode one side is the
    mean of S = inputs["samples"] nonnegative draws, and the slack is
    max(4 * stderr, g * max(|lhs|, |rhs|)) with g = gamma(6 S), a bound on
    the rounding of that mean (0 when the inputs name no draw count): where
    every draw is equal the stderr is about 0, and a slack of 4 * stderr
    alone would fail on the mean's last bits.

    Here gamma(k) = k u / (1 - k u) with u = 2**-53.  Adding nonnegative
    terms in any order has relative error at most gamma(terms - 1), and
    products of (1 + gamma) factors add their k's (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., sections 3.1 and 4.2):

    - the top-ell estimator adds each column over all S draws, divides by S
      and adds the ell quotients with fsum: gamma(S + 1);
    - the lp estimator takes each chunk's numpy mean, gamma(b) for b draws,
      and folds it in as m += (mu - m) * b / T over J = ceil(S / 65536)
      chunks.  The first fold rounds twice.  In a later fold b <= T - b, so
      |mu - m| * b / T is at most the exact fold of the two nonnegative
      means, and its four roundings add gamma(4): gamma(S + 4 J) in all.

    Both are relative to the exact mean of the draws; as S + 4 J <= 3 S
    and gamma(k) / (1 - gamma(k)) <= gamma(2 k), gamma(6 S) bounds the error
    relative to the computed side.  MC ``lhs``, ``rhs`` and ``margin`` are
    as computed; only the status uses this floor.
    """
    margin = float(rhs) - float(lhs)
    if mode == "exact":
        slack = EXACT_SLACK
    else:
        k = 6.0 * inputs.get("samples", 0) * _UNIT_ROUNDOFF
        scale = max(abs(float(lhs)), abs(float(rhs)))
        slack = max(4.0 * (stderr or 0.0), k / (1.0 - k) * scale)
    status = STATUS_PASS if margin >= -slack else STATUS_FAIL
    return VerificationReport(
        check_id=check_id, inputs=dict(inputs), lhs=float(lhs), rhs=float(rhs),
        margin=margin, status=status, mode=mode,
        constant=constant, stderr=stderr, extra=dict(extra or {}),
    )


def vacuous_report(
    check_id: str, inputs: Mapping[str, object], note: str
) -> VerificationReport:
    return VerificationReport(
        check_id=check_id, inputs=dict(inputs), lhs=0.0, rhs=0.0, margin=0.0,
        status=STATUS_VACUOUS, extra={"note": note},
    )


# ---------------------------------------------------------------------------
# canonical serialization


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    Mapping keys are rendered as ``str(key)`` and sorted by that string
    (stably, so keys with equal strings keep their order); Fractions become
    "p/q" strings; tuples render as lists.  Anything else raises TypeError.
    """
    if isinstance(obj, str):
        return encode_basestring(obj)  # = json.dumps(obj, ensure_ascii=False)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return render_float(obj)
    if isinstance(obj, Fraction):
        return encode_basestring(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, Mapping):
        return _mapping_json(obj)
    if isinstance(obj, (list, tuple)):  # elements a key column at a time
        return "".join(["[", ",".join(_pieces(obj, _column, canonical_json)), "]"])
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _mapping_json(obj) -> str:
    items = sorted([(str(k), v) for k, v in obj.items()], key=itemgetter(0))
    return "{" + ",".join(
        [encode_basestring(k) + ":" + canonical_json(v) for k, v in items]
    ) + "}"


# elements rendered together, whose key columns are held at once: columns
# over whole lists raised the Orlicz sweep's peak RSS from 61.9 to 69.9 MB,
# and pieces of 16 or 256 read within 0.15 MB of 64
_PIECE = 64


def _pieces(seq, render, one) -> list[str]:
    """render(piece) over seq, _PIECE elements at a time.  A piece that
    fails is rendered again by one(element) in order, so the error raised
    is the one document order raises."""
    out = []
    for lo in range(0, len(seq), _PIECE):
        piece = seq[lo : lo + _PIECE]
        try:
            out += render(piece)
        except Exception:
            out += map(one, piece)
    return out


def _column(values) -> list[str]:
    """canonical_json of each value: one map for a column of one exact type
    (finite float, str, int, None), the record rule for exact dicts, and
    each list for exact lists or tuples; anything else value by value."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float and all(map(isfinite, values)):
        return list(map(float.__format__, values, repeat(".17g")))
    if kind is str:
        return list(map(encode_basestring, values))
    if kind is int:
        return list(map(int.__repr__, values))
    if kind is dict:
        return _records(values)
    if kind is list or kind is tuple:
        return ["[" + ",".join(_column(v)) + "]" for v in values]
    if kind is type(None):
        return ["null"] * len(values)
    return list(map(canonical_json, values))


def _records(dicts) -> list[str]:
    """canonical_json of exact dicts: those sharing a key tuple are rendered
    a key column at a time."""
    shapes = list(map(tuple, dicts))
    distinct = dict.fromkeys(shapes)
    if len(distinct) == 1:
        return _same_keys(dicts, shapes[0])
    out = [""] * len(dicts)
    for shape in distinct:
        at = list(compress(range(len(dicts)), map(shape.__eq__, shapes)))
        for i, text in zip(at, _same_keys([dicts[i] for i in at], shape)):
            out[i] = text
    return out


def _same_keys(dicts, keys) -> list[str]:
    if not all(type(k) is str for k in keys):
        return list(map(_mapping_json, dicts))
    keys = sorted(keys)
    return _objects(keys, [_column(list(map(itemgetter(k), dicts))) for k in keys],
                    len(dicts))


def _objects(keys, columns, count) -> list[str]:
    """``count`` JSON objects from their sorted keys and each key's rendered
    column, each joined once at its exact size."""
    parts = []
    for i, (key, column) in enumerate(zip(keys, columns)):
        parts += (repeat(("," if i else "{") + encode_basestring(key) + ":"), column)
    parts.append(repeat("}"))
    return list(map("".join, zip(*parts))) if keys else ["{}"] * count


def summarize(reports: Sequence[VerificationReport]) -> dict:
    """Pass/fail counts overall and worst margin per check_id."""
    by_check: dict[str, dict] = {}
    counts = {"pass": 0, "fail": 0, "vacuous": 0}
    for r in reports:
        counts[r.status] += 1
        slot = by_check.setdefault(
            r.check_id, {"checks": 0, "failed": 0, "vacuous": 0, "worst_margin": None}
        )
        slot["checks"] += 1
        if r.status == STATUS_FAIL:
            slot["failed"] += 1
        if r.status == STATUS_VACUOUS:
            slot["vacuous"] += 1
        else:
            worst = slot["worst_margin"]
            if worst is None or r.margin < worst:
                slot["worst_margin"] = r.margin
    return {
        "total": len(reports),
        "passed": counts["pass"],
        "failed": counts["fail"],
        "vacuous": counts["vacuous"],
        "by_check": {k: by_check[k] for k in sorted(by_check)},
    }


def _keyed(reports: Iterable[VerificationReport]) -> list[tuple]:
    """(check_id, canonical inputs, report), stably sorted on the first two:
    the inputs are rendered once, for the sort key and the emitted row alike."""
    reports = list(reports)
    inputs = _pieces(list(map(attrgetter("inputs"), reports)), _column, canonical_json)
    return sorted(zip(map(attrgetter("check_id"), reports), inputs, reports),
                  key=itemgetter(0, 1))


def _field(read, values: list, for_csv: bool) -> list:
    """One row field over a piece of reports, as JSON text; for CSV, text
    as read and None as an empty cell."""
    if read is _text and for_csv:
        return values
    if read is _text or read is dict:
        return _column(values)
    cells = _column(list(map(read if None in values else float, values)))
    # a float never renders as null, so "null" cells are the Nones
    return list(map({"null": ""}.get, cells, cells)) if for_csv else cells


def _piece_columns(piece, fields, for_csv: bool) -> list[list]:
    """The rendered columns of a piece of keyed reports, one per field."""
    reports = list(map(itemgetter(2), piece))
    return [
        list(map(itemgetter(1), piece)) if key == "inputs"
        else _field(_ROW[key], list(map(attrgetter(key), reports)), for_csv)
        for key in fields
    ]


def _json_rows(piece) -> list[str]:
    return _objects(list(_ROW), _piece_columns(piece, _ROW, False), len(piece))


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    """The canonical JSON document {"reports": [...], "summary": {...}}."""
    keyed = _keyed(reports)
    summary = summarize([r for _, _, r in keyed])
    rows = ",".join(_pieces(keyed, _json_rows, lambda k: canonical_json(k[2].to_json_obj())))
    # one join: each + of a chain would copy the whole document again
    return "".join(['{"reports":[', rows, '],"summary":', canonical_json(summary), "}\n"])


_CSV_FIELDS = (
    "check_id", "status", "direction", "mode", "lhs", "rhs", "constant",
    "margin", "stderr", "inputs", "extra",
)


@lru_cache(maxsize=1024)
def _csv_text(value) -> str:
    """A text cell as ``csv.writer`` writes it: its quoting, which for CR
    differs across Python versions, is taken from csv, once per value."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[:-2]  # the empty cell's comma and the newline


def _csv_json(column: list) -> list[str]:
    """JSON cells as ``csv.writer`` writes them.  JSON text holds no CR or
    LF, so a cell is quoted, quotes doubled, exactly when it has a comma or
    a quote."""
    return ['"' + t.replace('"', '""') + '"' if "," in t or '"' in t else t for t in column]


def _csv_rows(piece) -> list[str]:
    """The CSV lines of a piece of keyed reports, joined here: a float cell
    or an empty one needs no quoting."""
    columns = _piece_columns(piece, _CSV_FIELDS, True)
    for i, key in enumerate(_CSV_FIELDS):
        if key in ("inputs", "extra"):
            columns[i] = _csv_json(columns[i])
        elif _ROW[key] is _text:
            columns[i] = list(map(_csv_text, columns[i]))
    return ["\n".join(map(",".join, zip(*columns))) + "\n"]


def reports_to_csv(reports: Sequence[VerificationReport]) -> str:
    rows = _pieces(_keyed(reports), _csv_rows, lambda one: _csv_rows([one])[0])
    return "".join([",".join(_CSV_FIELDS) + "\n", *rows])


def all_passed(reports: Sequence[VerificationReport]) -> bool:
    return all(r.status != STATUS_FAIL for r in reports)


def format_summary(summary: dict) -> str:
    lines = [
        f"checks: {summary['total']}  pass: {summary['passed']}  "
        f"fail: {summary['failed']}  vacuous: {summary['vacuous']}"
    ]
    for check_id, slot in summary["by_check"].items():
        worst = slot["worst_margin"]
        worst_s = "n/a" if worst is None else render_float(worst)
        lines.append(
            f"  {check_id}: {slot['checks']} checks, {slot['failed']} failed, "
            f"worst margin {worst_s}"
        )
    return "\n".join(lines)
