"""Property tests: the enumerator against generate-and-test, the cumulant
route against generate-and-test (also on tables whose nonzero cumulant
sizes leave gaps), against its fold-free form
(oracles.cumulant_by_first_blocks) on long tuples and against the table's
own moment on constant tuples, the greedy reduce-to-empty check against a
literal search, the kernel test against the kernel partition's, the
definition route's and the group trace's left-to-right folds against
literal expansions, the group trace's indifference to the diagonal, the
moment/cumulant conversions against each other and against partition sums, the word
reducer, every route's invariance under relabeling and under the dihedral
symmetry, the order to which every route reads each table, the
plain-numeral rule and the moment-list parser against the eager one, the
named semicircle's moments against its cumulants, and the CLI's exit
codes on random input files."""

import io
import json
import os
import tempfile
from bisect import bisect
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsindep import (
    CLASSICAL,
    FREE,
    CumulantTable,
    EpsilonMatrix,
    InputError,
    TableError,
    arcsine_table,
    enumerate_nc_epsilon,
    factorization_shortcut,
    generator_mixed_moment,
    is_epsilon_noncrossing,
    kappa_pi,
    mixed_moment_by_definition,
    mixed_moment_cumulant,
    reduce_word,
    reduction_membership,
)
from epsindep.cli import main
from epsindep.crosscheck import _restrict
from epsindep.cumulants import (
    _PLAIN,
    arcsine_moments,
    bernoulli_moments,
    parse_fraction,
    semicircle_moments,
    spec_moments,
)
from epsindep.ncpartitions import (
    bar_masks,
    crossings,
    crossings_allowed,
    encode,
    kernel_noncrossing,
    reduces_masks,
)
from epsindep.partitions import restricted_growth
from oracles import (
    admissible_by_definition,
    bell_numbers,
    canon,
    classical_cumulants_to_moments,
    cumulant_by_first_blocks,
    free_cumulants_to_moments,
    kernel,
    moments_to_classical_cumulants,
    moments_to_free_cumulants,
    normalize_tuple,
    parse_moments_eagerly,
    semicircle_table,
    table_from_cumulants,
)
from test_cumulants import classical_cumulants_mobius, classical_moments_oracle, free_moments_oracle
from test_ncpartitions import partitions_below_kernel

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
sparse = st.one_of(st.just(0), st.just(0), st.just(0), rationals)


@st.composite
def instances(draw, max_labels=4, max_n=8, min_n=0):
    """A random epsilon-matrix with a random diagonal and a tuple over it."""
    size = draw(st.integers(1, max_labels))
    pairs = [p for p in combinations(range(size), 2) if draw(st.booleans())]
    diag = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    entries = draw(st.lists(st.integers(0, size - 1), min_size=min_n, max_size=max_n))
    return tuple(entries), EpsilonMatrix(size, pairs, diag=diag)


def oracle_members(entries, e):
    """Generate-and-test: every partition below the kernel, filtered."""
    members = [p for p in partitions_below_kernel(entries) if is_epsilon_noncrossing(p, entries, e)]
    return sorted(members)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_enumeration_matches_generate_and_test(instance):
    entries, e = instance
    assert enumerate_nc_epsilon(entries, e) == oracle_members(entries, e)


@st.composite
def with_sequences(draw, values, max_n=8, min_n=0, max_labels=4):
    """An instance plus one sequence per label, entries drawn from values,
    as long as the tuple (at least 1)."""
    entries, e = draw(instances(max_labels=max_labels, max_n=max_n, min_n=min_n))
    n = max(len(entries), 1)
    return entries, e, {
        label: draw(st.lists(values, min_size=n, max_size=n)) for label in range(e.size)
    }


def cumulant_tables(e, sequences):
    return {
        label: table_from_cumulants(CLASSICAL if e.diagonal(label) else FREE, seq)
        for label, seq in sequences.items()
    }


def moment_tables(e, sequences):
    return {
        label: CumulantTable.from_moments(CLASSICAL if e.diagonal(label) else FREE, seq)
        for label, seq in sequences.items()
    }


# Labels with one point in the tuple, which the cumulant route factors out
# first: every label has one point; a kappa_1 = 0 point lies between two
# points of a label free with it; one lies inside the crossing {1,4}{2,5}
# of two independent labels.
ALL_ONE_POINT = ((2, 0, 1), EpsilonMatrix(3, [(0, 2)], diag=[0, 1, 0]), {
    0: [Fraction(3, 2), 1, 0], 1: [-2, 0, 5], 2: [Fraction(1, 3), 2, 2]})
ZERO_MEAN_POINT = ((0, 1, 0), EpsilonMatrix(2), {0: [1, 2, 0], 1: [0, 3, 1]})
POINT_IN_CROSSING = ((0, 2, 1, 0, 2), EpsilonMatrix(3, [(0, 2)]), {
    0: [1, 2, -1, 0, 1], 1: [Fraction(-5, 4), 1, 0, 0, 0], 2: [2, Fraction(1, 2), 0, 0, 3]})
# A label with kappa_2 = 0 and kappa_3 != 0 is factored out at 2 points
# (kappa_1 squared), not at 3, where it heads the block {1,4,6}; beside it
# a 2-point label with kappa_2 != 0, never factored, and in the second a
# 2-point label with kappa_1 and kappa_3 only, factored.
KAPPA_3_AT_TWO_POINTS = ((0, 1, 0, 1), EpsilonMatrix(2), {
    0: [Fraction(3, 2), 0, 1, 0], 1: [-1, 2, 0, 0]})
KAPPA_3_AT_THREE_POINTS = ((0, 1, 2, 0, 1, 0, 2), EpsilonMatrix(3, [(0, 1), (1, 2)], [0, 1, 0]), {
    0: [Fraction(3, 2), 0, 1, 0, 0, 0, 0], 1: [-1, 2, 0, 1, 0, 0, 0], 2: [2, 0, 5, 0, 0, 0, 0]})


@settings(max_examples=100, deadline=None)
@given(with_sequences(rationals))
@example(ALL_ONE_POINT)
@example(ZERO_MEAN_POINT)
@example(POINT_IN_CROSSING)
@example(KAPPA_3_AT_TWO_POINTS)
@example(KAPPA_3_AT_THREE_POINTS)
def test_cumulant_moment_matches_per_partition_sum(instance):
    entries, e, cumulants = instance
    tables = cumulant_tables(e, cumulants)
    want = sum(kappa_pi(p, entries, tables) for p in oracle_members(entries, e))
    assert mixed_moment_cumulant(entries, e, tables) == want


@settings(max_examples=150, deadline=None)
@given(with_sequences(sparse, max_n=9))
# only the gap mark of ncpartitions._remove_block keeps {1,3}{2,4} out
@example(((0, 0, 0, 0), EpsilonMatrix(1, diag=[0]), {0: [0, 1, 0, 0]}))
@example(ALL_ONE_POINT)
@example(ZERO_MEAN_POINT)
@example(POINT_IN_CROSSING)
@example(KAPPA_3_AT_TWO_POINTS)
@example(KAPPA_3_AT_THREE_POINTS)
def test_cumulant_moment_with_sparse_tables(instance):
    """Tables where most cumulants are exactly 0, so the recursion skips
    most block sizes."""
    entries, e, cumulants = instance
    tables = cumulant_tables(e, cumulants)
    want = sum(kappa_pi(p, entries, tables) for p in oracle_members(entries, e))
    assert mixed_moment_cumulant(entries, e, tables) == want


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([FREE, CLASSICAL]),
    st.lists(st.one_of(rationals, sparse), min_size=1, max_size=12),
)
def test_cumulant_moment_of_constant_tuple(kind, moments):
    """A constant tuple's epsilon-non-crossing set is NC(n) for a free
    label and every partition for a classical one, so the sum is the
    table's own m_n, found without listing a partition."""
    e = EpsilonMatrix(1, diag=[int(kind == CLASSICAL)])
    table = CumulantTable.from_moments(kind, moments)
    n = len(moments)
    assert mixed_moment_cumulant((0,) * n, e, {0: table}) == table.moment(n)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        with_sequences(rationals, max_n=11, min_n=8),
        with_sequences(sparse, max_n=11, min_n=8),
    )
)
def test_cumulant_moment_matches_first_blocks_sum_on_long_tuples(instance):
    """Lengths 8 to 11, where the fold and the splits do most of the work."""
    entries, e, cumulants = instance
    tables = cumulant_tables(e, cumulants)
    assert mixed_moment_cumulant(entries, e, tables) == cumulant_by_first_blocks(entries, e, tables)


@st.composite
def with_gapped_cumulants(draw, max_n=8):
    """An instance plus one cumulant sequence per label, as long as the
    tuple, nonzero only at sizes from a set without 1: the multiples of 2
    or of 3, {2, 5}, {3, 4} or a random subset of 2..n."""
    entries, e = draw(instances(max_n=max_n))
    n = max(len(entries), 1)
    gapped = [set(range(2, n + 1, 2)), set(range(3, n + 1, 3)), {2, 5}, {3, 4}]
    sizes = st.one_of(st.sampled_from(gapped), st.sets(st.integers(2, max(n, 2))))
    cumulants = {}
    for label in range(e.size):
        nonzero = draw(sizes)
        cumulants[label] = [draw(rationals.filter(bool)) if p in nonzero else 0 for p in range(1, n + 1)]
    return entries, e, cumulants


FREE1, CLASSICAL1 = EpsilonMatrix(1, diag=[0]), EpsilonMatrix(1, diag=[1])


@settings(max_examples=150, deadline=None)
@given(with_gapped_cumulants())
# a free semicircle: every odd state sums to 0, the even ones do not
@example(((0,) * 7, FREE1, {0: [0, 1, 0, 0, 0, 0, 0]}))
@example(((0,) * 8, FREE1, {0: [0, 1, 0, 0, 0, 0, 0, 0]}))
@example(((0,) * 8, FREE1, {0: list(arcsine_table(FREE, 8).cumulants)}))
@example(((0,) * 8, CLASSICAL1, {0: list(arcsine_table(CLASSICAL, 8).cumulants)}))
# kappa_3 only: 3 and 6 points fill, 1, 2, 4 and 5 do not
@example(((0,) * 6, CLASSICAL1, {0: [0, 0, Fraction(2, 3), 0, 0, 0]}))
# two eps-dependent labels, only label 0 without kappa_1 and so masked
@example(((0, 1, 0, 0, 1, 0, 1), EpsilonMatrix(2), {
    0: [0, 2, 0, -1, 0, 0, 0], 1: [1, Fraction(1, 2), 3, 0, 0, 0, 0]}))
def test_cumulant_moment_with_gapped_sizes(instance):
    """Labels whose nonzero cumulant sizes leave gaps, so that a state can
    hold a count of a label's points that no blocks of those sizes fill."""
    entries, e, cumulants = instance
    tables = cumulant_tables(e, cumulants)
    want = sum(kappa_pi(p, entries, tables) for p in oracle_members(entries, e))
    assert mixed_moment_cumulant(entries, e, tables) == want


def phi_by_masks(word, e, moments, cache):
    """The centering recursion expanded literally: phi of a reduced word
    is minus the sum, over the 2^m - 1 proper subsets of its syllables, of
    the product of the left-out means, signed by their number, times phi
    of the reduced subword."""
    word = reduce_word(word, e)
    if not word:
        return Fraction(1)
    if len(word) == 1:
        lbl, pw = word[0]
        return moments[lbl][pw - 1]
    hit = cache.get(word)
    if hit is not None:
        return hit
    m = len(word)
    means = [moments[lbl][pw - 1] for lbl, pw in word]
    total = Fraction(0)
    for mask in range((1 << m) - 1):
        sub = tuple(word[k] for k in range(m) if mask >> k & 1)
        coeff = Fraction(1)
        for k in range(m):
            if not mask >> k & 1:
                coeff *= means[k]
        sign = -1 if (m - bin(mask).count("1")) % 2 else 1
        total -= sign * coeff * phi_by_masks(sub, e, moments, cache)
    cache[word] = total
    return total


@settings(max_examples=200, deadline=None)
@given(with_sequences(sparse))
def test_definition_route_matches_mask_expansion(instance):
    """Moments mostly 0, so the fold often has a single choice."""
    entries, e, moments = instance
    want = phi_by_masks(tuple((lbl, 1) for lbl in entries), e, moments, {})
    assert mixed_moment_by_definition(entries, e, moment_tables(e, moments)) == want


@settings(max_examples=300, deadline=None)
@given(with_sequences(rationals))
# dropping the singleton x2 lets the two x1 merge into x1^2
@example(((0, 1, 0), EpsilonMatrix(2), {
    0: [Fraction(1, 2), Fraction(3), Fraction(-2, 3)],
    1: [Fraction(2), Fraction(5, 7), Fraction(1)],
}))
# every syllable a singleton: the moment is the product of the means
@example(((0, 1, 2), EpsilonMatrix(3, [(0, 2)]), {
    0: [Fraction(-3, 4)] * 3,
    1: [Fraction(5)] * 3,
    2: [Fraction(2, 9)] * 3,
}))
# the singleton x3 has mean 0, so the moment is 0
@example(((0, 1, 0, 2, 1), EpsilonMatrix(3), {
    0: [Fraction(k, 3) for k in range(1, 6)],
    1: [Fraction(-2)] * 5,
    2: [Fraction(0), Fraction(4), Fraction(1), Fraction(1), Fraction(1)],
}))
# x1^2 merges into x1^2 once x2 is dropped, and x1^4 into the last x1
@example(((0, 0, 1, 0, 0, 1, 0), EpsilonMatrix(2), {
    0: [Fraction(1, 2), Fraction(3), Fraction(-2, 3), Fraction(5, 4), Fraction(1), Fraction(2), Fraction(1)],
    1: [Fraction(2), Fraction(-1, 3), Fraction(4), Fraction(1), Fraction(1), Fraction(1), Fraction(1)],
}))
# x1 merges into x1 across x2, which commutes with it, once x3 is dropped
@example(((0, 1, 2, 0, 1, 2), EpsilonMatrix(3, [(0, 1)]), {
    0: [Fraction(2), Fraction(3), Fraction(1), Fraction(1), Fraction(1), Fraction(1)],
    1: [Fraction(-1), Fraction(5, 2), Fraction(1), Fraction(1), Fraction(1), Fraction(1)],
    2: [Fraction(1, 3), Fraction(2), Fraction(1), Fraction(1), Fraction(1), Fraction(1)],
}))
# the merging label x1 is classical
@example(((0, 1, 0, 1, 0), EpsilonMatrix(2, diag=[1, 0]), {
    0: [Fraction(3, 2), Fraction(1, 5), Fraction(-2), Fraction(1), Fraction(1)],
    1: [Fraction(-1, 2), Fraction(4), Fraction(1), Fraction(1), Fraction(1)],
}))
# x1 has mean 0 and merges into x1^2, whose mean is not 0
@example(((0, 0, 1, 0, 1, 0), EpsilonMatrix(2), {
    0: [Fraction(0), Fraction(2), Fraction(1, 3), Fraction(4), Fraction(-1), Fraction(3)],
    1: [Fraction(5), Fraction(-2, 7), Fraction(1), Fraction(1), Fraction(1), Fraction(1)],
}))
# phi(x1 x1) = phi(x1)^2: merging x1 into x1 leaves no constant term
@example(((0, 1, 0, 1, 0), EpsilonMatrix(2), {
    0: [Fraction(2), Fraction(4), Fraction(1), Fraction(3), Fraction(-1)],
    1: [Fraction(-3), Fraction(1, 2), Fraction(1), Fraction(1), Fraction(1)],
}))
def test_definition_route_matches_mask_expansion_dense(instance):
    """Moments mostly nonzero, so few terms of the definition route's
    fold vanish.  The examples reach each term of t° x = (tx)° - m_t x°
    + (phi(tx) - m_t m_x) when x merges into t°."""
    entries, e, moments = instance
    want = phi_by_masks(tuple((lbl, 1) for lbl in entries), e, moments, {})
    assert mixed_moment_by_definition(entries, e, moment_tables(e, moments)) == want


def inverse(word):
    return tuple((lbl, -exp) for lbl, exp in reversed(word))


def sign_sum_trace(entries, e):
    """Trace of the product of the u + u^-1 expanded literally: one term
    per sign vector, which counts iff its word reduces to the identity."""
    return sum(
        not reduce_word(zip(entries, signs), e)
        for signs in product((1, -1), repeat=len(entries))
    )


@settings(max_examples=200, deadline=None)
@given(instances())
def test_group_trace_matches_expanded_product(instance):
    """The pruned fold against the sum over all 2^n sign vectors."""
    entries, e = instance
    assert generator_mixed_moment(entries, e) == sign_sum_trace(entries, e)


@settings(max_examples=150, deadline=None)
@given(instances(max_labels=5), st.data())
def test_group_trace_ignores_the_diagonal(instance, data):
    """The premise of the battery's one trace per commutation pattern:
    a matrix that differs only on the diagonal gives the same trace."""
    entries, e = instance
    diag = data.draw(st.lists(st.integers(0, 1), min_size=e.size, max_size=e.size))
    pairs = [(a, b) for a, b in combinations(range(e.size), 2) if e.eps(a, b)]
    other = EpsilonMatrix(e.size, pairs, diag=diag)
    assert generator_mixed_moment(entries, other) == generator_mixed_moment(entries, e)


def reduces_to_empty(p, entries, e):
    """The reduce-to-empty definition searched literally: every state
    reachable by swapping adjacent points whose labels have eps = 1 or by
    removing a block whose points are consecutive.  A state is the
    remaining points in order, each as (label, block index)."""
    block_of = {x: b for b, block in enumerate(p) for x in block}
    start = tuple((entries[x - 1], block_of[x]) for x in range(1, len(entries) + 1))
    seen = {start}
    stack = [start]
    while stack:
        state = stack.pop()
        if not state:
            return True
        moves = [
            state[:k] + (state[k + 1], state[k]) + state[k + 2 :]
            for k in range(len(state) - 1)
            if e.eps(state[k][0], state[k + 1][0]) == 1
        ]
        for b in {b for _, b in state}:
            at = [k for k, (_, c) in enumerate(state) if c == b]
            if at[-1] - at[0] == len(at) - 1:
                moves.append(state[: at[0]] + state[at[-1] + 1 :])
        for nxt in moves:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


@settings(max_examples=500, deadline=None)
@given(instances(max_n=7))
@example(((0, 0, 0, 0), EpsilonMatrix(1, diag=[1])))  # {1,3}{2,4} needs the diagonal
def test_greedy_reduction_matches_search(instance):
    entries, e = instance
    for p in partitions_below_kernel(entries):
        assert reduction_membership(p, entries, e) == reduces_to_empty(p, entries, e)


def blocks_cross(p, i_block, j_block):
    """Whether blocks with given indices interleave (ABAB pattern): the
    points of one fall into more than one gap of the other, and not just
    before and after it."""
    a = p[i_block]
    gaps = {bisect(a, x) for x in p[j_block]}
    return len(gaps) > 1 and gaps != {0, len(a)}


def pairwise_by_gaps(p, entries, e):
    """The pairwise characterization block pair by block pair, with
    crossings found by bisecting into the gaps of a block, for p below the
    kernel of the tuple."""
    nb = len(p)
    for a in range(nb):
        la = entries[p[a][0] - 1]
        for b in range(a + 1, nb):
            lb = entries[p[b][0] - 1]
            if e.eps(la, lb) == 1:
                continue
            if blocks_cross(p, a, b):
                return False
    return True


@st.composite
def below_kernel(draw, max_n=8):
    """An instance and one partition below the kernel of its tuple, in
    canonical form: each point joins an open block of its label or opens
    one."""
    entries, e = draw(instances(max_n=max_n))
    blocks = []
    for x, lbl in enumerate(entries, 1):
        same = [b for b in blocks if entries[b[0] - 1] == lbl]
        k = draw(st.integers(0, len(same)))
        if k < len(same):
            same[k].append(x)
        else:
            blocks.append([x])
    return entries, e, tuple(map(tuple, blocks))


@settings(max_examples=600, deadline=None)
@given(below_kernel())
@example(((0, 0, 0, 0), EpsilonMatrix(1), ((1, 3), (2, 4))))
@example(((0, 1, 0), EpsilonMatrix(2), ((1, 3), (2,))))
def test_mask_cores_match_references(instance):
    """The battery's two cores on the tuple's bitmask encoding against the
    gap-bisecting pairwise test and the literal reduce-to-empty search:
    the pairwise core is crossings, then the eps test."""
    entries, e, p = instance
    bars = bar_masks(e.against, encode(entries))
    blocks = [(sum(1 << (x - 1) for x in b), entries[b[0] - 1]) for b in p]
    assert crossings_allowed(crossings(blocks), e.against) == pairwise_by_gaps(p, entries, e)
    assert reduces_masks(blocks, bars, len(entries)) == reduces_to_empty(p, entries, e)


@settings(max_examples=300, deadline=None)
@given(instances())
@example(((0, 1, 0, 1), EpsilonMatrix(2)))  # the kernel crosses between free labels
@example(((2, 0, 2, 0), EpsilonMatrix(3, [(0, 2)])))  # ... between independent ones
def test_kernel_noncrossing_matches_kernel_partition(instance):
    """The one-block-per-label kernel test against is_epsilon_noncrossing
    and the gap-bisecting pairwise test on the kernel partition."""
    entries, e = instance
    ker = kernel(entries)
    want = is_epsilon_noncrossing(ker, entries, e)
    assert kernel_noncrossing(entries, e) == want == pairwise_by_gaps(ker, entries, e)


def stirling2(n, k):
    """S(n, k) by S(n, k) = k S(n-1, k) + S(n-1, k-1), S(0, 0) = 1."""
    row = [1]  # S(0, .)
    for m in range(1, n + 1):
        row = [(j * row[j] if j < m else 0) + (row[j - 1] if j else 0) for j in range(m + 1)]
    return row[k] if k < len(row) else 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8))
def test_restricted_growth(n):
    strings = list(restricted_growth(n))
    for s in strings:
        assert len(s) == n
        assert all(v <= max(s[:i], default=-1) + 1 for i, v in enumerate(s))
    assert all(a < b for a, b in zip(strings, strings[1:]))  # strictly lexicographic
    by_k = [list(restricted_growth(n, k)) for k in range(n + 2)]
    for k, exact in enumerate(by_k):
        assert exact == [s for s in strings if len(set(s)) == k]
        assert len(exact) == stirling2(n, k)
    assert sum(map(len, by_k)) == len(strings) == bell_numbers(n)[n]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([FREE, CLASSICAL]), st.lists(rationals, min_size=1, max_size=10))
def test_conversions_round_trip(kind, seq):
    """from_moments against the oracle conversions, which share no code
    with it, in both directions: seq read as moments and as cumulants."""
    to_moments = {FREE: free_cumulants_to_moments, CLASSICAL: classical_cumulants_to_moments}[kind]
    table = CumulantTable.from_moments(kind, seq)
    assert table.moments() == seq
    assert to_moments(table.cumulants) == seq
    assert CumulantTable.from_moments(kind, to_moments(seq)).cumulants == tuple(seq)
    # the table holds d, the common denominator of its moments, and the
    # integers value_p * d**p of both sides
    assert table.d == lcm(*(v.denominator for v in seq))
    for p in range(1, len(seq) + 1):
        for scaled, value in ((table.scaled_cumulants, table.cumulant(p)),
                              (table.scaled_moments, table.moment(p))):
            assert type(scaled[p - 1]) is int
            assert scaled[p - 1] == value * table.d**p


# denominators up to 60, so the common denominator of a sequence runs far
# beyond each entry's
mixed_denominators = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-30, max_value=30, max_denominator=60)
)
COPRIME = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), Fraction(0), Fraction(-4, 7),
           Fraction(5, 11), Fraction(6, 13), Fraction(-7, 17)]


# zeros where the conversions skip terms: every odd entry (arcsine,
# Bernoulli, semicircle), the first two, every one, all but the first
# (read as cumulants, the point mass at 1, whose moments are all 1), and
# a single entry
STRUCTURED_ZEROS = [
    arcsine_moments(8),
    bernoulli_moments(8),
    semicircle_moments(Fraction(3, 2), 8),
    [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2), Fraction(-3, 4)],
    [Fraction(0)] * 6,
    [Fraction(1)] + [Fraction(0)] * 5,
    [Fraction(-2, 3)],
]


def structured_zeros(test):
    """test with an @example of each STRUCTURED_ZEROS sequence, for
    either kind."""
    for seq in STRUCTURED_ZEROS:
        for kind in (FREE, CLASSICAL):
            test = example(kind, seq)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([FREE, CLASSICAL]), st.lists(mixed_denominators, min_size=1, max_size=8))
@example(FREE, COPRIME)
@example(CLASSICAL, COPRIME)
@structured_zeros
def test_conversions_match_partition_sums(kind, seq):
    """Both directions against the lattice sums over NC(n) or all
    partitions and, classically, the Moebius sum."""
    if kind == FREE:
        assert free_cumulants_to_moments(seq) == free_moments_oracle(seq)
        cumulants = moments_to_free_cumulants(seq)
        assert free_moments_oracle(cumulants) == seq
    else:
        assert classical_cumulants_to_moments(seq) == classical_moments_oracle(seq)
        cumulants = moments_to_classical_cumulants(seq)
        assert cumulants == classical_cumulants_mobius(seq)
    table = CumulantTable.from_moments(kind, seq)
    assert table.cumulants == tuple(cumulants)
    assert all(type(c) is Fraction for c in table.cumulants)


@st.composite
def words(draw, max_labels=4, max_n=8):
    """A random epsilon-matrix and a word of nonzero exponents over it."""
    entries, e = draw(instances(max_labels, max_n))
    n = len(entries)
    exponents = draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=n, max_size=n))
    return tuple(zip(entries, exponents)), e


@settings(max_examples=200, deadline=None)
@given(words(), st.lists(st.integers(0, 7), max_size=20))
def test_normal_form_invariant_under_commutations(word, swaps):
    """Commuting adjacent syllables keeps the element: the moved word
    times the inverse of the original reduces to the empty word."""
    word, e = word
    moved = list(word)
    for k in swaps:
        if k + 1 < len(moved):
            a, b = moved[k][0], moved[k + 1][0]
            if a != b and e.eps(a, b):
                moved[k], moved[k + 1] = moved[k + 1], moved[k]
    assert reduce_word(tuple(moved) + inverse(word), e) == ()


@settings(max_examples=200, deadline=None)
@given(words())
def test_word_times_inverse_reduces_to_empty(word):
    word, e = word
    assert reduce_word(word + inverse(word), e) == ()


@settings(max_examples=200, deadline=None)
@given(instances())
def test_reduction_keeps_exactly_the_admissible_tuples(instance):
    entries, e = instance
    reduced = reduce_word(((lbl, 1) for lbl in entries), e)
    assert (len(reduced) == len(entries)) == admissible_by_definition(entries, e)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_normalize_tuple_groups_partition_positions(instance):
    entries, e = instance
    labels, groups = normalize_tuple(entries, e)
    assert sorted(pos for group in groups for pos in group) == list(range(1, len(entries) + 1))
    assert len(labels) == len(groups)
    for label, group in zip(labels, groups):
        assert {entries[pos - 1] for pos in group} == {label}


# -- dihedral symmetry: rotating or reversing the tuple, renaming labels -----


@st.composite
def dihedral_images(draw):
    """An instance with a rational cumulant sequence per label, and its
    image: the tuple rotated left by a drawn shift, reversed or not, with
    its labels renamed by a drawn permutation, which the matrix follows.
    Returns (entries, e, cumulants, image entries, image e, image
    cumulants, position map)."""
    entries, e, cumulants = draw(with_sequences(rationals))
    n = len(entries)
    shift = draw(st.integers(0, max(n - 1, 0)))
    flip = draw(st.booleans())
    perm = draw(st.permutations(range(e.size)))

    def moved(x):  # the position of point x in the image
        j = (x - 1 - shift) % n
        return (n - 1 - j if flip else j) + 1

    image = [None] * n
    for x, lbl in enumerate(entries, 1):
        image[moved(x) - 1] = perm[lbl]
    pairs = [(perm[a], perm[b]) for a, b in combinations(range(e.size), 2) if e.eps(a, b) == 1]
    diag = [0] * e.size
    for a in range(e.size):
        diag[perm[a]] = e.diagonal(a)
    image_e = EpsilonMatrix(e.size, pairs, diag=diag)
    image_cumulants = {perm[lbl]: seq for lbl, seq in cumulants.items()}
    return entries, e, cumulants, tuple(image), image_e, image_cumulants, moved


@settings(max_examples=100, deadline=None)
@given(dihedral_images())
def test_nc_set_maps_onto_image(instance):
    """Crossings and kernel refinement depend only on the cyclic order of
    the points and on which labels are equal or independent."""
    entries, e, _, image, image_e, _, moved = instance
    want = {canon([moved(x) for x in b] for b in p) for p in enumerate_nc_epsilon(entries, e)}
    assert set(enumerate_nc_epsilon(image, image_e)) == want


@settings(max_examples=100, deadline=None)
@given(dihedral_images())
def test_every_route_invariant_under_dihedral_image(instance):
    """The cumulant sum only reads block sizes and labels; the definition
    route and the group trace never use the symmetry, so each is checked
    on its own."""
    entries, e, cumulants, image, image_e, image_cumulants, _ = instance
    tables = cumulant_tables(e, cumulants)
    image_tables = cumulant_tables(image_e, image_cumulants)
    value = mixed_moment_cumulant(entries, e, tables)
    assert mixed_moment_cumulant(image, image_e, image_tables) == value
    value = mixed_moment_by_definition(entries, e, tables)
    assert mixed_moment_by_definition(image, image_e, image_tables) == value
    assert generator_mixed_moment(image, image_e) == generator_mixed_moment(entries, e)


@settings(max_examples=100, deadline=None)
@given(with_sequences(rationals, max_labels=6))
# only labels 3 and 5 of 6, independent, 3 classical, 5 first
@example(((5, 3, 5, 3, 3), EpsilonMatrix(6, [(3, 5), (0, 1)], diag=[0, 0, 0, 1, 0, 0]), {
    3: [Fraction(1, 2), Fraction(2), Fraction(-1, 3), Fraction(1), Fraction(3)],
    5: [Fraction(0), Fraction(1), Fraction(2, 5), Fraction(-1), Fraction(1, 7)],
}))
# ... free of each other, so the kernel crosses; 5 classical
@example(((3, 5, 3, 5, 5, 3), EpsilonMatrix(6, [(0, 5), (2, 3)], diag=[0, 0, 0, 0, 0, 1]), {
    3: [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-1), Fraction(0), Fraction(5)],
    5: [Fraction(1, 2), Fraction(-2), Fraction(1), Fraction(3), Fraction(1, 4), Fraction(1)],
}))
def test_every_result_invariant_under_relabeling(instance):
    """crosscheck checks canonical instances only: the tuple renumbered
    by first occurrence, on the matrix restricted to its labels
    (crosscheck._restrict).  Every route must give the canonical
    instance's results on the tuple itself, whatever its labels are."""
    entries, e, cumulants = instance
    order = list(dict.fromkeys(entries))
    canon = tuple(order.index(a) for a in entries)
    ce = _restrict(e, order)
    tables = cumulant_tables(e, cumulants)
    canon_tables = {k: tables[a] for k, a in enumerate(order)}
    for route in (mixed_moment_cumulant, mixed_moment_by_definition, factorization_shortcut):
        assert route(canon, ce, canon_tables) == route(entries, e, tables)
    for route in (kernel_noncrossing, enumerate_nc_epsilon, generator_mixed_moment):
        assert route(canon, ce) == route(entries, e)


@settings(max_examples=100, deadline=None)
@given(with_sequences(rationals))
def test_tables_to_each_labels_multiplicity(instance):
    """Every route reads label l's table only to l's multiplicity in the
    tuple: tables cut to it give the full tables' values exactly, and a
    table one order shorter is refused."""
    entries, e, moments = instance
    routes = (mixed_moment_cumulant, mixed_moment_by_definition, factorization_shortcut)
    full = moment_tables(e, moments)
    cut = moment_tables(e, {a: moments[a][: entries.count(a)] for a in set(entries)})
    for route in routes:
        assert route(entries, e, cut) == route(entries, e, full)
    for a in set(entries):
        if entries.count(a) >= 2:
            short = {**cut, **moment_tables(e, {a: moments[a][: entries.count(a) - 1]})}
            for route in routes:
                with pytest.raises(TableError):
                    route(entries, e, short)


# -- the CLI on random files: exit 0 or 2, never a traceback -----------------

NAMES = ["a", "b", "c"]


def json_containers(inner):
    """Arrays and objects of what inner draws: st.recursive's extend,
    a named function so that hypothesis reads its source whole."""
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    json_containers,
    max_leaves=6,
)


def mostly(strategy):
    """The strategy three times in four, otherwise any JSON value."""
    return st.one_of(strategy, strategy, strategy, json_values)


label_names = mostly(st.sampled_from(NAMES + ["zz"]))
pairs = mostly(st.lists(label_names, min_size=2, max_size=2))
graphs = st.fixed_dictionaries(
    {"labels": mostly(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))},
    optional={
        "independent_pairs": mostly(st.lists(pairs, max_size=4)),
        "diagonal": mostly(
            st.dictionaries(st.sampled_from(NAMES), mostly(st.integers(0, 1)), max_size=3)
        ),
    },
)
# a numeral over the interpreter's 4,300-digit int limit, and one whose
# products soon give results over it
LONG_NUMERALS = ["9" * 5000, "1/" + "9" * 1000]
moment_entries = st.sampled_from(["0", "1", "2", "-1/2", "3/4"] + LONG_NUMERALS) | st.floats()
specs = st.fixed_dictionaries(
    {},
    optional={
        "label": label_names,
        "kind": mostly(st.sampled_from(["free", "classical"])),
        "moments": mostly(st.lists(mostly(moment_entries), max_size=6)),
        "named": mostly(st.sampled_from(["semicircle", "arcsine", "bernoulli", "point_mass"])),
        "variance": mostly(st.sampled_from(["1", "2"])),
        "value": mostly(st.sampled_from(["1", "-1/2"])),
    },
)
distributions = st.one_of(
    st.dictionaries(st.sampled_from(NAMES), mostly(specs), max_size=3),
    st.lists(mostly(specs), max_size=3),
)
file_texts = st.one_of(mostly(graphs | distributions).map(json.dumps), st.text(max_size=8))


@st.composite
def cli_calls(draw):
    """Graph and distribution file contents plus an argv naming them."""
    command = draw(st.sampled_from(["enumerate", "moment", "crosscheck"]))
    args = [command, "--cap", str(draw(st.integers(-2, 6)))]
    if command == "crosscheck":
        args += ["--max-n", str(draw(st.integers(-2, 3)))]
        args += ["--instances", str(draw(st.integers(0, 5)))]
    else:
        names = draw(st.lists(st.sampled_from(NAMES + ["zz", ""]), max_size=5))
        args += ["--tuple", ",".join(names)]
    if command == "moment":
        args += ["--method", draw(st.sampled_from(["cumulant", "definition", "both"]))]
    if draw(st.booleans()):
        args.append("--table")
    return draw(file_texts), draw(file_texts), args


@settings(max_examples=300, deadline=None)
@given(cli_calls())
def test_cli_exits_0_or_2_on_random_files(call):
    graph_text, dist_text, args = call
    with tempfile.TemporaryDirectory() as tmp:
        graph, dist = os.path.join(tmp, "graph.json"), os.path.join(tmp, "dist.json")
        for path, text in ((graph, graph_text), (dist, dist_text)):
            with open(path, "w") as fh:
                fh.write(text)
        files = ["--graph", graph] + (["--dist", dist] if args[0] == "moment" else [])
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(args + files)
    assert code in (0, 2)


# moment entries near the plain-numeral rule: strings over the characters
# that tell "-p/q" from the other forms Fraction reads (signs, separators,
# decimals, exponents, blanks, a non-ASCII digit), valid plain numerals,
# numerals one digit over the rule's 640 and over the 4,300-digit int
# limit, and JSON values that are not strings
numeral_texts = st.text(st.sampled_from(list("0123456789١-+/_.e 0")), max_size=8)
moment_values = st.one_of(
    numeral_texts,
    rationals.map(str),
    st.sampled_from(["7" * 641, "7" * 4301, "1/" + "3" * 641, "9" * 640 + "/0" + "3" * 639]),
    st.sampled_from([True, False, None, [1]]),
    st.integers(-5, 5),
    rationals,
)


@settings(max_examples=500, deadline=None)
@given(moment_values)
@example("0/00")
@example("٣")
@example("-" + "9" * 640 + "/" + "0" * 639 + "1")
def test_plain_numerals_are_fractions_of_their_integers(value):
    plain = _PLAIN.fullmatch(value) if isinstance(value, str) else None
    if plain:
        want = Fraction(int(plain[1]), int(plain[2] or 1))
        assert Fraction(value) == want
        assert parse_fraction(value) == want


@settings(max_examples=400, deadline=None)
@given(st.lists(moment_values, min_size=1, max_size=6), st.data())
def test_spec_moments_validates_every_entry_and_builds_to_order(moments, data):
    order = data.draw(st.integers(0, len(moments) + 2))
    try:
        want = parse_moments_eagerly(moments)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            spec_moments({"moments": moments}, order)
        assert str(got.value) == str(exc)
    else:
        assert spec_moments({"moments": moments}, order) == want[:order]


@settings(max_examples=100, deadline=None)
@given(rationals, st.integers(1, 14))
@example(Fraction(3, 2), 14)
def test_named_semicircle_matches_its_cumulants(variance, order):
    # the closed form C_k v**k against the free conversion of the
    # cumulants (0, v, 0, ...), an independent route; order 0 builds no
    # table, so it only validates the spec
    spec = {"named": "semicircle", "variance": str(variance)}
    assert spec_moments(spec, order) == semicircle_table(variance, order).moments()
    assert spec_moments(spec, 0) == []
