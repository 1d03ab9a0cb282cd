"""Exact mixed moments for prescribed mixtures of classical and free
independence, with cross-validating evaluators."""

from .cumulants import (
    CLASSICAL,
    FREE,
    CumulantTable,
    arcsine_moments,
    arcsine_table,
    format_fraction,
    kappa_pi,
)
from .epsilon import (
    EpsilonMatrix,
    is_admissible_tuple,
)
from .errors import (
    DomainError,
    EnumerationLimitError,
    EpsIndepError,
    InputError,
    TableError,
)
from .graphgroup import (
    generator_mixed_moment,
    reduce_word,
)
from .moments import (
    factorization_shortcut,
    mixed_moment_by_definition,
    mixed_moment_cumulant,
)
from .ncpartitions import (
    enumerate_nc_epsilon,
    is_epsilon_noncrossing,
    reduction_membership,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
