"""Exception types shared across the package."""

from __future__ import annotations


class RoundFoldError(ValueError):
    """Base class for all domain errors raised by this package."""


class InvalidPageError(RoundFoldError):
    """A labeled Reeb graph violates the page invariants.

    Carries the full validation report in ``report``.
    """

    def __init__(self, report):
        self.report = report
        super().__init__("invalid page: " + "; ".join(v.message for v in report.violations))


class InvalidDescriptorError(RoundFoldError):
    """A round fold descriptor violates its invariants."""

    def __init__(self, report):
        self.report = report
        super().__init__("invalid descriptor: " + "; ".join(v.message for v in report.violations))


class NonOrientableError(RoundFoldError):
    """An operation defined only for orientable total spaces was applied to a
    non-orientable one (directions of critical spheres are undefined there)."""


class OpenBookUnsupportedError(RoundFoldError):
    """The open book of a 4-dimensional descriptor with nonzero clutching is
    outside the trivial-monodromy model and is reported as unsupported."""


class PageFormatError(RoundFoldError):
    """A JSON document does not match the page schema.

    ``problems`` lists human-readable messages, each prefixed with the JSON
    path of the offending element.
    """

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.problems))


class ManifoldSpecError(RoundFoldError):
    """A textual manifold spec does not match the mini-grammar."""
