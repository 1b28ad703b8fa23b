"""Exception types, one for each way a caller handles a failure.

Every error the package raises on purpose is a CordialError: any bad input
or usage, on which the CLI exits 2. Its subclasses are the kinds callers
tell apart: ParseError, an edge-list fault with its line; MalformedCertificate,
a broken certificate (the CLI prints `Malformed:`); NotApplicable, a
construction absent at that size; and SelfCheckFailed, a bug in this package
(the CLI exits 1).
"""


class CordialError(Exception):
    """Any bad input or usage; the base of every error the package raises on purpose."""


class ParseError(CordialError):
    """Malformed edge-list text. Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NotApplicable(CordialError):
    """The requested construction or closed form does not exist for this parameter."""


class MalformedCertificate(CordialError):
    """A certificate is structurally broken, as opposed to semantically rejected."""


class SelfCheckFailed(CordialError):
    """An internal invariant failed: a bug in this package, not a bad input."""
