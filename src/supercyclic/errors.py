"""Exception types shared across the package, and the one digit rule."""


def is_number(text: str) -> bool:
    """ASCII decimal digits, nothing else: ``int`` alone would also take a
    sign, underscores, surrounding spaces and the digits of other scripts."""
    return text.isascii() and text.isdigit()


class SupercyclicError(Exception):
    """Base class for every error raised by this library."""


class InputError(SupercyclicError):
    """An argument violates an operation's contract (bad side, bad range, ...)."""


class FormatError(SupercyclicError):
    """Malformed text in the graph interchange format."""


class CapacityError(SupercyclicError):
    """The request exceeds a documented desk-scale cap."""


class PreconditionError(InputError):
    """A classification was requested on a graph outside its domain.

    Carries the report of the failed prerequisite so callers can see why.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
