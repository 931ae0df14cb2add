"""Structured pass/fail records for numerical identity and condition checks."""

from dataclasses import dataclass, field
import math


@dataclass
class Residual:
    label: str
    value: float
    tol: float
    level: int | None = None
    node: int | None = None

    @property
    def ok(self) -> bool:
        # A non-finite residual never passes, even against an infinite tolerance.
        if not math.isfinite(self.value):
            return False
        return self.value <= self.tol

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "value": float(self.value),
            "tol": float(self.tol),
            "level": self.level,
            "node": self.node,
        }


@dataclass
class CheckReport:
    """Named collection of residuals; passes iff every residual is within tolerance."""

    name: str
    residuals: list[Residual] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, label, value, tol, level=None, node=None):
        self.residuals.append(Residual(label, float(value), float(tol), level, node))

    def note(self, text):
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.residuals)

    @property
    def worst(self) -> Residual | None:
        """Residual with the largest tolerance overshoot (None if empty)."""
        if not self.residuals:
            return None

        def overshoot(r):
            if not math.isfinite(r.value):
                return math.inf
            if r.tol == 0.0:
                return math.inf if r.value > 0 else -math.inf
            return r.value / r.tol if math.isfinite(r.tol) else -math.inf

        return max(self.residuals, key=overshoot)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "residuals": [r.to_dict() for r in self.residuals],
            "notes": list(self.notes),
        }

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        worst = self.worst
        if worst is None:
            return f"[{status}] {self.name} (no residuals)"
        return (
            f"[{status}] {self.name}: worst {worst.label} = {worst.value:.3e}"
            f" (tol {worst.tol:.1e})"
        )
