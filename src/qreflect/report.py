"""Structured pass/fail records returned by every verifier."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Failure:
    """First counterexample of a failed verification."""

    location: str
    lhs: str = ""
    rhs: str = ""

    def __str__(self) -> str:
        if self.lhs or self.rhs:
            return f"{self.location}: lhs={self.lhs} rhs={self.rhs}"
        return self.location


@dataclass
class VerificationReport:
    """Outcome of a verification run.

    passed is True iff first_failure is absent; checked counts the
    individual identities/inputs examined, and failures those that failed.
    """

    name: str
    passed: bool = True
    checked: int = 0
    first_failure: Failure | None = None
    notes: list[str] = field(default_factory=list)
    failures: int = 0

    def count(self) -> None:
        self.checked += 1

    def fail(self, location: str, lhs: str = "", rhs: str = "") -> None:
        self.failures += 1
        if self.passed:
            self.passed = False
            self.first_failure = Failure(location, lhs, rhs)

    def record(self, ok: bool, location: str, lhs: str = "", rhs: str = "") -> bool:
        self.checked += 1
        if not ok:
            self.fail(location, lhs, rhs)
        return ok

    def attempt(self, fn, *args, **kwargs):
        """Run fn, a cross-check that raises VerificationError on a mismatch:
        one check, whose failure records the exception text.  Returns fn's
        value, or None when it raised."""
        try:
            value = fn(*args, **kwargs)
        except VerificationError as exc:
            self.record(False, str(exc))
            return None
        self.count()
        return value

    def absorb(self, other: VerificationReport) -> None:
        self.checked += other.checked
        self.failures += other.failures
        self.notes.extend(other.notes)
        if not other.passed and self.passed:
            self.passed = False
            self.first_failure = other.first_failure

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{self.name}: {self.checked} checked, {status}"
        if self.first_failure is not None:
            line += f" ({self.first_failure})"
        if not self.passed:
            line += f", {self.failures} failed"
        return line

    def to_json(self) -> dict:
        data: dict = {"name": self.name, "passed": self.passed, "checked": self.checked}
        if not self.passed:
            data["failures"] = self.failures
        if self.first_failure is not None:
            data["first_failure"] = {
                "location": self.first_failure.location,
                "lhs": self.first_failure.lhs,
                "rhs": self.first_failure.rhs,
            }
        if self.notes:
            data["notes"] = list(self.notes)
        return data


class VerificationError(AssertionError):
    """Raised when a construction-time cross-check fails."""


def cross_check(element, key: tuple[int, ...], routes: tuple[str, ...]):
    """element(*key, route=r) for every r in routes, which must all agree.

    Returns the first route's value; raises VerificationError naming the
    first route that disagrees with it.
    """
    first, *rest = routes
    value = element(*key, route=first)
    for route in rest:
        if element(*key, route=route) != value:
            raise VerificationError(f"route {route} disagrees with {first} at {key}")
    return value
