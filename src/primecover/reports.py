"""Audit reports: one named bound per record, with verdict and tolerance.

Verdict contract: "fail" only when a hard mathematical assertion is violated;
comparisons against asymptotic constants are "recorded".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

PASS = "pass"
FAIL = "fail"
RECORDED = "recorded"


def fmt_float(v: float) -> str:
    """Floats in CSV carry 12 significant digits."""
    return f"{v:.12g}"


def _clean(v: Any) -> Any:
    """Make a value JSON-friendly and deterministic."""
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, float):
        return float(fmt_float(v))
    if isinstance(v, dict):
        return {str(k): _clean(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_clean(x) for x in v]
    if hasattr(v, "item"):  # numpy scalars
        return _clean(v.item())
    return v


@dataclass
class AuditReport:
    """Outcome of checking one named bound."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)
    computed: float | None = None
    bound: float | None = None
    ratio: float | None = None
    verdict: str = RECORDED
    tolerance: float | None = None
    witness: Any = None
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in (PASS, FAIL, RECORDED):
            raise ValueError(f"unknown verdict {self.verdict!r}")

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "params": _clean(self.params),
            "computed": _clean(self.computed),
            "bound": _clean(self.bound),
            "ratio": _clean(self.ratio),
            "verdict": self.verdict,
            "tolerance": _clean(self.tolerance),
            "witness": _clean(self.witness),
            "details": _clean(self.details),
        }


def reports_to_json(reports: list[AuditReport]) -> str:
    return json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True) + "\n"


_CSV_COLUMNS = ("name", "verdict", "computed", "bound", "ratio", "tolerance", "params", "witness")


def _csv_cell(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, dict):
        return ";".join(f"{k}={_csv_cell(x)}" for k, x in v.items())
    return str(v).replace(",", ";")


def reports_to_csv(reports: list[AuditReport]) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for r in reports:
        row = r.as_dict()
        lines.append(",".join(_csv_cell(row[c]) for c in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"
