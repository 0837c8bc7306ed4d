"""Validation findings shared by every checker in the package."""

from __future__ import annotations

from ._value import frozen


@frozen
class Finding:
    """One rule violation, printable as a single diagnostic line."""

    code: str
    location: str
    message: str
    severity: str = "error"

    def line(self) -> str:
        return f"{self.severity} {self.code} {self.location} {self.message}"


@frozen
class ValidationReport:
    """An ordered collection of findings; empty means the check passed."""

    findings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def codes(self) -> set[str]:
        return {f.code for f in self.findings}

    def merged(self, *others: "ValidationReport") -> "ValidationReport":
        out = list(self.findings)
        for other in others:
            out.extend(other.findings)
        return ValidationReport(tuple(out))

    def __len__(self) -> int:
        return len(self.findings)


def report_from(findings: list[Finding]) -> ValidationReport:
    return ValidationReport(tuple(findings))
