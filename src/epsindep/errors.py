class EpsIndepError(Exception):
    """Base class for all library errors."""


class EnumerationLimitError(EpsIndepError):
    """A tuple is longer than the CLI's size cap (--cap, else
    EPSINDEP_MAX_N); the library functions take no cap."""


class DimensionMismatchError(EpsIndepError):
    """Objects built over different ground-set sizes were combined."""


class DomainError(EpsIndepError):
    """A stated precondition on the inputs does not hold."""


class TableError(EpsIndepError):
    """Missing, too-short, or wrong-kind cumulant/moment data."""


class InputError(EpsIndepError):
    """Malformed external input (JSON files, CLI arguments)."""


def excerpt(value, width=40):
    """repr(value) for an error message, cut to its first width
    characters plus the length of the text when longer."""
    shown = repr(value)
    if len(shown) <= width:
        return shown
    size = len(value) if isinstance(value, str) else len(shown)
    return f"{shown[:width]}... ({size} characters)"
