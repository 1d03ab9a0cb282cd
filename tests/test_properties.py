"""Property tests: the depth-first enumerator and the shape-grouped cumulant
sum against generate-and-test, and the moment/cumulant conversions."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from epsindep import (
    CLASSICAL,
    FREE,
    CumulantTable,
    EpsilonMatrix,
    classical_cumulants_to_moments,
    enumerate_nc_epsilon,
    free_cumulants_to_moments,
    is_epsilon_noncrossing,
    kappa_pi,
    mixed_moment_cumulant,
    moments_to_classical_cumulants,
    moments_to_free_cumulants,
)
from epsindep.crosscheck import partitions_below_kernel

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def instances(draw, max_labels=4, max_n=8):
    """A random epsilon-matrix with a random diagonal and a tuple over it."""
    size = draw(st.integers(1, max_labels))
    pairs = [p for p in combinations(range(size), 2) if draw(st.booleans())]
    diag = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    entries = draw(st.lists(st.integers(0, size - 1), max_size=max_n))
    return tuple(entries), EpsilonMatrix(size, pairs, diag=diag)


def oracle_members(entries, e):
    """Generate-and-test: every partition below the kernel, filtered."""
    members = [p for p in partitions_below_kernel(entries) if is_epsilon_noncrossing(p, entries, e)]
    return sorted(members, key=lambda p: p.blocks)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_enumeration_matches_generate_and_test(instance):
    entries, e = instance
    assert enumerate_nc_epsilon(entries, e) == oracle_members(entries, e)


@settings(max_examples=100, deadline=None)
@given(instances(), st.data())
def test_cumulant_moment_matches_per_partition_sum(instance, data):
    entries, e = instance
    n = max(len(entries), 1)
    tables = {
        label: CumulantTable(
            CLASSICAL if e.diagonal(label) else FREE,
            data.draw(st.lists(rationals, min_size=n, max_size=n)),
        )
        for label in range(e.size)
    }
    want = sum(kappa_pi(p, entries, tables) for p in oracle_members(entries, e))
    assert mixed_moment_cumulant(entries, e, tables) == want


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([FREE, CLASSICAL]), st.lists(rationals, min_size=1, max_size=10))
def test_conversions_round_trip(kind, seq):
    to_moments, to_cumulants = {
        FREE: (free_cumulants_to_moments, moments_to_free_cumulants),
        CLASSICAL: (classical_cumulants_to_moments, moments_to_classical_cumulants),
    }[kind]
    assert to_moments(to_cumulants(seq)) == seq
    assert to_cumulants(to_moments(seq)) == seq
    table = CumulantTable.from_moments(kind, seq)
    assert table.moments() == seq
    assert table == CumulantTable(kind, to_cumulants(seq))
    assert CumulantTable(kind, table.cumulants).moments() == seq
