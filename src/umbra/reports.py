"""Verification and residual reports.

Every check in the package reports through one of two shapes:

* ``VerificationReport`` for exact checks -- status is "pass", "fail"
  or "inconclusive" (the last when a truncation flag poisoned the
  computation, which is never counted as success).

* ``ResidualReport`` for float checks -- carries the evaluation grid,
  the per-direction residual maxima and, where the check probes an
  intertwining relation from both sides, which direction holds.

Both serialize to JSON with sorted keys and to flat RFC-4180 CSV.
Rationals are rendered with the "p/q" literal format.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .core import format_rational

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def status_of(first_failure: Any, tainted: bool = False) -> str:
    """The status rule for every exact check: a located failure fails;
    otherwise a truncation-tainted comparison certifies nothing and is
    inconclusive; otherwise the check passes."""
    if first_failure is not None:
        return FAIL
    return INCONCLUSIVE if tainted else PASS


def _plain(value: Any) -> Any:
    """Render parameter values JSON-safely and deterministically."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


@dataclass
class VerificationReport:
    check: str
    model: str | None
    params: dict[str, Any] = field(default_factory=dict)
    status: str = PASS
    max_residual: float | None = None
    first_failure: Any = None

    def __post_init__(self) -> None:
        if self.status not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == FAIL and self.first_failure is None:
            raise ValueError("failed report must locate the first failure")

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


@dataclass
class ResidualReport:
    check: str
    params: dict[str, Any] = field(default_factory=dict)
    grid: tuple[float, ...] = ()
    residuals: dict[str, float] = field(default_factory=dict)
    max_residual: float = 0.0
    direction_holding: str | None = None

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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_plain(v) for v in row])
    return buf.getvalue()
