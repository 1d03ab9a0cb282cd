import sys


class EpsIndepError(Exception):
    """Base class for all library errors."""


class EnumerationLimitError(EpsIndepError):
    """A tuple is longer than the CLI's size cap (--cap, else
    EPSINDEP_MAX_N); the library functions take no cap."""


class DomainError(EpsIndepError):
    """A stated precondition on the inputs does not hold."""


class TableError(EpsIndepError):
    """Missing, too-short, or wrong-kind cumulant/moment data."""


class InputError(EpsIndepError):
    """Malformed external input (JSON files, CLI arguments)."""


def unlimited_int_digits(fn, *args):
    """fn(*args) with the interpreter's limit on the digits of an
    int-to-str conversion (3.10.7 and later) lifted."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return fn(*args)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def excerpt(value, width=40):
    """repr(value) for an error message, cut to its first width
    characters plus the length of the text when longer, whatever the
    digits of the numbers in it."""
    shown = unlimited_int_digits(repr, value)
    if len(shown) <= width:
        return shown
    size = len(value) if isinstance(value, str) else len(shown)
    return f"{shown[:width]}... ({size} characters)"
