"""Validation findings shared by every checker in the package."""

from __future__ import annotations

from operator import attrgetter

from ._value import frozen

_findings = attrgetter("findings")


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
        """The findings of this report, then of each of ``others``; this
        very report when it and each of ``others`` are empty."""
        if not self.findings and not any(map(_findings, others)):
            return self
        out = list(self.findings)
        for other in others:
            out.extend(other.findings)
        return ValidationReport(tuple(out))

    def __len__(self) -> int:
        return len(self.findings)


#: The one report that :func:`report_from` gives for no findings.
_EMPTY = ValidationReport()


def report_from(findings: list[Finding]) -> ValidationReport:
    """A report of ``findings``, in order. No findings give one shared
    empty report, so a check that passes builds none."""
    return ValidationReport(tuple(findings)) if findings else _EMPTY
