"""Exact mixed moments for prescribed mixtures of classical and free
independence, with cross-validating evaluators."""

from .cumulants import (
    CLASSICAL,
    FREE,
    CumulantTable,
    arcsine_moments,
    arcsine_table,
    classical_cumulants_to_moments,
    free_cumulants_to_moments,
    format_fraction,
    kappa_pi,
    moments_to_classical_cumulants,
    moments_to_free_cumulants,
    semicircle_table,
)
from .epsilon import (
    EpsilonMatrix,
    complete_graph_matrix,
    cycle_graph_matrix,
    empty_graph_matrix,
    is_admissible_tuple,
)
from .errors import (
    DimensionMismatchError,
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
    moments_from_tables,
    normalize_tuple,
)
from .ncpartitions import (
    enumerate_nc_epsilon,
    is_epsilon_noncrossing,
    reduction_membership,
)
from .partitions import (
    SetPartition,
    bell_numbers,
    catalan_numbers,
    enumerate_noncrossing,
    enumerate_set_partitions,
    is_noncrossing,
    kernel,
    refines,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
