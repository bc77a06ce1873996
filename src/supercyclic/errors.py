"""Exception types shared across the package, and the one digit rule."""

import sys


def is_number(text: str) -> bool:
    """ASCII decimal digits, nothing else, and no more than ``int`` reads
    from text: ``int`` alone would take a sign, underscores, spaces and the
    digits of other scripts, and raise past its digit limit."""
    # the limit is never below 640 (sys.int_info.str_digits_check_threshold)
    # and Python before 3.10.7 has none: getattr's int() reads as 0, no limit
    return text.isascii() and text.isdigit() and (
        len(text) <= 640
        or not 0 < getattr(sys, "get_int_max_str_digits", int)() < len(text))


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
