"""Verification and residual reports.

Every check in the package reports through one of two shapes:

* ``VerificationReport`` for exact checks -- carries the first failure
  and the taint that ``core.outcome``, the one verdict rule, gives, and
  derives the status: "fail" at a failure, else "inconclusive" where a
  truncation mark poisoned a comparison (never a success), else "pass".

* ``ResidualReport`` for float checks -- carries the evaluation grid,
  the per-direction residual maxima and, where the check probes an
  intertwining relation from both sides, which direction holds.

Both serialize to JSON with sorted keys and to flat RFC-4180 CSV.
Rationals are rendered with the "p/q" literal format.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from typing import Any, Sequence

from .core import Record, format_rational

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def _plain(value: Any) -> Any:
    """Render parameter values JSON-safely and deterministically."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


class VerificationReport(Record):
    __slots__ = _fields = ("check", "model", "params", "tainted", "max_residual", "first_failure")

    def __init__(
        self, check: str, model: str | None, params: dict[str, Any] | None = None,
        tainted: bool = False, max_residual: float | None = None, first_failure: Any = None,
    ) -> None:
        self.check, self.model, self.params = check, model, {} if params is None else params
        self.tainted, self.max_residual, self.first_failure = tainted, max_residual, first_failure

    @property
    def status(self) -> str:
        """A located failure fails; otherwise a tainted comparison
        certifies nothing and is inconclusive; otherwise a pass."""
        if self.first_failure is not None:
            return FAIL
        return INCONCLUSIVE if self.tainted else PASS

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict[str, Any]:
        return {
            "check": self.check,
            "model": self.model,
            "params": _plain(self.params),
            "status": self.status,
            "max_residual": _plain(self.max_residual),
            "first_failure": _plain(self.first_failure),
            "direction_holding": None,  # exact checks probe no direction
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class ResidualReport(Record):
    __slots__ = _fields = (
        "check", "params", "grid", "residuals", "max_residual", "direction_holding")

    def __init__(
        self, check: str, params: dict[str, Any] | None = None, grid: Sequence[float] = (),
        residuals: dict[str, float] | None = None, max_residual: float = 0.0,
        direction_holding: str | None = None,
    ) -> None:
        self.check, self.params, self.grid = check, {} if params is None else params, grid
        self.residuals = {} if residuals is None else residuals
        self.max_residual, self.direction_holding = max_residual, direction_holding

    @property
    def passed(self) -> bool:
        """Within the tolerance the check records in ``params["tol"]``."""
        return self.max_residual <= self.params["tol"]

    def to_dict(self) -> dict[str, Any]:
        return {
            "check": self.check,
            "params": _plain(self.params),
            "grid": list(self.grid),
            "residuals": dict(self.residuals),
            "max_residual": self.max_residual,
            "direction_holding": self.direction_holding,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


def rows_to_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """RFC-4180 CSV with a header row and CRLF line endings."""
    import csv  # here, not at the top: only the csv format pays its import

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_plain(v) for v in row])
    return buf.getvalue()
