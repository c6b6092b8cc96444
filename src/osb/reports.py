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
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Optional

from .matrices import render_float

EXACT_SLACK = 1e-12
_UNIT_ROUNDOFF = 2.0**-53

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_VACUOUS = "vacuous"


# the keys of a report row, sorted
_ROW_KEYS = (
    "check_id", "constant", "direction", "extra", "inputs", "lhs", "margin",
    "mode", "rhs", "status", "stderr",
)


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

    def _row_values(self) -> tuple:
        # the one definition of the row format: values in _ROW_KEYS order
        # (to_json_obj and reports_to_json both read it)
        return (
            self.check_id,
            None if self.constant is None else float(self.constant),
            self.direction,
            dict(self.extra),
            dict(self.inputs),
            float(self.lhs),
            float(self.margin),
            self.mode,
            float(self.rhs),
            self.status,
            None if self.stderr is None else float(self.stderr),
        )

    def to_json_obj(self) -> dict:
        return dict(zip(_ROW_KEYS, self._row_values()))


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
    if isinstance(obj, dict):
        return _mapping_json(obj)
    if isinstance(obj, Fraction):
        return encode_basestring(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, Mapping):
        return _mapping_json(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([canonical_json(v) for v in obj]) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _mapping_json(obj) -> str:
    items = [(str(k), v) for k, v in obj.items()]
    items.sort(key=itemgetter(0))
    return "{" + ",".join(
        [encode_basestring(k) + ":" + canonical_json(v) for k, v in items]
    ) + "}"


def _keyed(reports: Iterable[VerificationReport]) -> list[tuple]:
    """(check_id, canonical inputs, report), stably sorted on the first two:
    the inputs are rendered once, for the sort key and the emitted row alike."""
    keyed = [(r.check_id, canonical_json(dict(r.inputs)), r) for r in reports]
    keyed.sort(key=itemgetter(0, 1))
    return keyed


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


_ROW_PREFIXES = tuple(
    ("{" if i == 0 else ",") + encode_basestring(k) + ":"
    for i, k in enumerate(_ROW_KEYS)
)
_INPUTS = _ROW_KEYS.index("inputs")


def _report_json(r: VerificationReport, inputs: str) -> str:
    # canonical_json(r.to_json_obj()), written field by field in _ROW_KEYS
    # order with the inputs already rendered
    values = r._row_values()
    return "".join([
        prefix + (inputs if i == _INPUTS else canonical_json(values[i]))
        for i, prefix in enumerate(_ROW_PREFIXES)
    ]) + "}"


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    """The canonical JSON document {"reports": [...], "summary": {...}}."""
    keyed = _keyed(reports)
    summary = summarize([r for _, _, r in keyed])
    rows = ",".join([_report_json(r, inputs) for _, inputs, r in keyed])
    return '{"reports":[' + rows + '],"summary":' + canonical_json(summary) + "}\n"


_CSV_FIELDS = (
    "check_id", "status", "direction", "mode", "lhs", "rhs", "constant",
    "margin", "stderr", "inputs", "extra",
)


def reports_to_csv(reports: Sequence[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    writer.writerows([
        r.check_id, r.status, r.direction, r.mode,
        render_float(r.lhs), render_float(r.rhs),
        "" if r.constant is None else render_float(r.constant),
        render_float(r.margin),
        "" if r.stderr is None else render_float(r.stderr),
        inputs,
        canonical_json(dict(r.extra)),
    ] for _, inputs, r in _keyed(reports))
    return buf.getvalue()


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
