"""Verification report assembly and serialization.

Reports are deterministic for a fixed config and seed: every volatile value
(timestamp, wall clock) lives under the single ``runtime_info`` key, which
consumers ignore when comparing runs byte for byte.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, dataclass, field, fields

from . import __version__


@dataclass
class ReportItem:
    name: str
    kind: str  # relation | spectrum | eigencheck
    mode: str  # symbolic | numeric
    status: str  # zero | residual | inapplicable | ok | fail
    passed: bool | None
    expectation: str | None = None
    group: str | None = None
    note: str = ""
    residual: dict | None = None
    data: dict | None = None

    def to_json(self) -> dict:
        """Every field without a default, and each defaulted field that is set."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.default is MISSING or getattr(self, f.name)}


@dataclass
class VerificationReport:
    config: dict
    items: list = field(default_factory=list)
    started: float = field(default_factory=time.time)

    def add(self, item: ReportItem):
        self.items.append(item)

    def summary(self) -> dict:
        passed = sum(1 for i in self.items if i.passed is True)
        failed = sum(1 for i in self.items if i.passed is False)
        recorded = sum(1 for i in self.items if i.expectation == "record")
        controls = sum(
            1
            for i in self.items
            if i.expectation == "nonzero" and i.status == "residual"
        )
        return {
            "total": len(self.items),
            "passed": passed,
            "failed": failed,
            "recorded": recorded,
            "controls_flagged": controls,
        }

    def all_passed(self) -> bool:
        return all(i.passed is not False for i in self.items)

    def control_flagged(self) -> bool:
        """Negative controls that fired (nonzero as designed)."""
        return any(
            i.expectation == "nonzero" and i.status == "residual" for i in self.items
        )

    def exit_code(self) -> int:
        """0 all pass; 1 on any failure or on designed control flags."""
        if not self.all_passed():
            return 1
        if self.control_flagged():
            return 1
        return 0

    def to_json(self) -> dict:
        return {
            "version": __version__,
            "config": self.config,
            "items": [i.to_json() for i in self.items],
            "summary": self.summary(),
            "runtime_info": {
                "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "wall_clock_seconds": round(time.time() - self.started, 3),
            },
        }

    def to_text(self) -> str:
        lines = [f"blocksep verification report ({len(self.items)} items)"]
        for i in self.items:
            flag = {True: "PASS", False: "FAIL", None: "----"}[i.passed]
            lines.append(f"  [{flag}] {i.name:44s} {i.mode:8s} {i.status}")
            if i.note:
                lines.append(f"         {i.note}")
        s = self.summary()
        lines.append(
            f"summary: {s['passed']}/{s['total']} passed, {s['failed']} failed, "
            f"{s['recorded']} recorded, {s['controls_flagged']} controls flagged"
        )
        return "\n".join(lines)


def serialize(report: VerificationReport, drop_runtime: bool = False) -> str:
    doc = report.to_json()
    if drop_runtime:
        doc.pop("runtime_info", None)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"

