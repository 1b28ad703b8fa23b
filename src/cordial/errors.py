"""Exception types shared across the toolkit, and the self-check raising one."""


class CordialError(Exception):
    """Base class for every error this package raises on purpose."""


class LoopRejected(CordialError):
    """An edge with identical endpoints was supplied; loops are not allowed."""


class IdOutOfRange(CordialError):
    """A vertex id is not an integer or falls outside 0..n-1 for the graph at hand."""


class SizeTooSmall(CordialError):
    """A vertex count or family size is not an integer or is below its valid range."""


class ParseError(CordialError):
    """Malformed edge-list text. Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class LengthMismatch(CordialError):
    """A labeling's length does not equal the graph's vertex count."""


class SizeLimitExceeded(CordialError):
    """The graph is larger than the configured exhaustive-search bound."""


class NotApplicable(CordialError):
    """The requested construction does not exist for this parameter."""


class StrictlyNoncordial(CordialError):
    """No edge-balanced labeling exists, so no finite vertex deficiency does."""


class MalformedCertificate(CordialError):
    """A certificate is structurally broken, as opposed to semantically rejected."""


class SelfCheckFailed(CordialError):
    """An internal invariant failed: a bug in this package, not a bad input."""
