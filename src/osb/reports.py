"""Structured verification reports and their canonical JSON/CSV renderings.

Reports are deterministic: identical inputs produce byte-identical output.
Floats are rendered with 17 significant digits, object keys are sorted, and
report lists are sorted by (check_id, canonical inputs).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .matrices import render_float

EXACT_SLACK = 1e-12
EXACT_SLACK_FRACTION = Fraction(1, 10**12)

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_VACUOUS = "vacuous"


@dataclass(frozen=True)
class VerificationReport:
    """One directed inequality check.

    ``direction`` is "le" for lhs <= rhs and "ge" for lhs >= rhs; ``margin``
    is the signed distance into the passing region, so a check passes iff
    margin >= -slack, where slack is 1e-12 in exact mode and 4*stderr in
    Monte Carlo mode.  ``extra`` carries auxiliary recorded values (ratios,
    norms) that do not enter the pass/fail decision.
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

    @property
    def passed(self) -> bool:
        return self.status != STATUS_FAIL

    def to_json_obj(self) -> dict:
        return {
            "check_id": self.check_id,
            "inputs": dict(self.inputs),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "direction": self.direction,
            "constant": None if self.constant is None else float(self.constant),
            "margin": float(self.margin),
            "status": self.status,
            "mode": self.mode,
            "stderr": None if self.stderr is None else float(self.stderr),
            "extra": dict(self.extra),
        }


def _signed_margin(lhs, rhs, direction):
    if direction == "le":
        return rhs - lhs
    if direction == "ge":
        return lhs - rhs
    raise ValueError(f"direction must be 'le' or 'ge', got {direction!r}")


def inequality_report(
    check_id: str,
    inputs: Mapping[str, object],
    lhs: float,
    rhs: float,
    *,
    direction: str = "le",
    constant: float | None = None,
    mode: str = "exact",
    stderr: float | None = None,
    extra: Mapping[str, object] | None = None,
) -> VerificationReport:
    """Check the directed inequality with the mode's slack."""
    margin = _signed_margin(float(lhs), float(rhs), direction)
    slack = EXACT_SLACK if mode == "exact" else 4.0 * (stderr or 0.0)
    status = STATUS_PASS if margin >= -slack else STATUS_FAIL
    return VerificationReport(
        check_id=check_id, inputs=dict(inputs), lhs=float(lhs), rhs=float(rhs),
        margin=float(margin), status=status, direction=direction, mode=mode,
        constant=constant, stderr=stderr, extra=dict(extra or {}),
    )


def exact_inequality_report(
    check_id: str,
    inputs: Mapping[str, object],
    lhs: Fraction,
    rhs: Fraction,
    *,
    direction: str = "le",
    constant: float | None = None,
    extra: Mapping[str, object] | None = None,
) -> VerificationReport:
    """Like inequality_report, but decided in exact rational arithmetic."""
    margin = _signed_margin(lhs, rhs, direction)
    status = STATUS_PASS if margin >= -EXACT_SLACK_FRACTION else STATUS_FAIL
    return VerificationReport(
        check_id=check_id, inputs=dict(inputs), lhs=float(lhs), rhs=float(rhs),
        margin=float(margin), status=status, direction=direction, mode="exact",
        constant=constant, extra=dict(extra or {}),
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
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return render_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, Fraction):
        return json.dumps(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, Mapping):
        items = ",".join(
            f"{json.dumps(str(k), ensure_ascii=False)}:{canonical_json(v)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def sort_reports(reports: Iterable[VerificationReport]) -> list[VerificationReport]:
    return sorted(reports, key=lambda r: (r.check_id, canonical_json(dict(r.inputs))))


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


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    ordered = sort_reports(reports)
    doc = {
        "reports": [r.to_json_obj() for r in ordered],
        "summary": summarize(ordered),
    }
    return canonical_json(doc) + "\n"


_CSV_FIELDS = (
    "check_id", "status", "direction", "mode", "lhs", "rhs", "constant",
    "margin", "stderr", "inputs", "extra",
)


def reports_to_csv(reports: Sequence[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for r in sort_reports(reports):
        writer.writerow([
            r.check_id, r.status, r.direction, r.mode,
            render_float(r.lhs), render_float(r.rhs),
            "" if r.constant is None else render_float(r.constant),
            render_float(r.margin),
            "" if r.stderr is None else render_float(r.stderr),
            canonical_json(dict(r.inputs)),
            canonical_json(dict(r.extra)),
        ])
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
