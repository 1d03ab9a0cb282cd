import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from epsindep import (
    CumulantTable,
    DomainError,
    EpsilonMatrix,
    enumerate_nc_epsilon,
    is_epsilon_noncrossing,
    kappa_pi,
    reduction_membership,
)
from epsindep.crosscheck import mask_partitions_below_kernel
from epsindep.ncpartitions import encode
from epsindep.partitions import partitions_of_set
from oracles import (
    all_matrices,
    canon,
    catalan_numbers,
    complete_graph_matrix,
    empty_graph_matrix,
    enumerate_noncrossing,
    enumerate_set_partitions,
    kernel,
    refines,
)


def partitions_below_kernel(entries):
    """All partitions refining the kernel of the tuple, canonical:
    generate-and-test's candidates, built block by block apart from the
    battery's bitmasks."""
    per_block = [partitions_of_set(b) for b in kernel(entries)]
    for combo in product(*per_block):
        yield canon(blk for part in combo for blk in part)


CROSSING = ((1, 3), (2, 4))
FREE2 = empty_graph_matrix(2)
INDEP2 = complete_graph_matrix(2)


class TestPairwiseMembership:
    def test_crossing_allowed_when_independent(self):
        assert is_epsilon_noncrossing(CROSSING, (0, 1, 0, 1), INDEP2)

    def test_crossing_forbidden_when_free(self):
        assert not is_epsilon_noncrossing(CROSSING, (0, 1, 0, 1), FREE2)

    def test_same_algebra_crossing_forbidden_by_default(self):
        assert not is_epsilon_noncrossing(CROSSING, (0, 0, 0, 0), FREE2)

    def test_same_algebra_crossing_allowed_with_classical_diagonal(self):
        e = EpsilonMatrix(1, [], diag=[1])
        assert is_epsilon_noncrossing(CROSSING, (0, 0, 0, 0), e)

    def test_kernel_refinement_required(self):
        assert not is_epsilon_noncrossing(((1, 2),), (0, 1), INDEP2)
        # the block's mismatched point comes last
        assert not is_epsilon_noncrossing(((1, 2, 3),), (0, 0, 1), INDEP2)


class TestReduction:
    def test_single_interval_block(self):
        assert reduction_membership(((1, 2),), (0, 0), FREE2)

    def test_swap_then_remove(self):
        assert reduction_membership(CROSSING, (0, 1, 0, 1), INDEP2)

    def test_no_reduction_when_free(self):
        assert not reduction_membership(CROSSING, (0, 1, 0, 1), FREE2)

    def test_kernel_precondition(self):
        with pytest.raises(DomainError):
            reduction_membership(((1, 2),), (0, 1), INDEP2)
        with pytest.raises(DomainError):
            reduction_membership(((1, 2, 3),), (0, 0, 1), INDEP2)


def block_routes(entries, e):
    """The three functions that read a partition as its blocks, each on
    the tuple and matrix given; kappa_pi with distinct cumulants per label
    and order."""
    tables = {
        a: CumulantTable("free", [Fraction(3 * a + r + 1, r + 2) for r in range(len(entries))])
        for a in set(entries)
    }
    return {
        "is_epsilon_noncrossing": lambda p: is_epsilon_noncrossing(p, entries, e),
        "reduction_membership": lambda p: reduction_membership(p, entries, e),
        "kappa_pi": lambda p: kappa_pi(p, entries, tables),
    }


class TestBlockTuples:
    def test_bad_blocks_rejected(self):
        # blocks that do not split 1..n into nonempty blocks: one error
        # class from all three, whatever the labels
        bad = [
            ((1, 2),),  # too few points
            ((1, 2), (2, 3)),  # a point twice
            ((0, 2), (3,)),  # a point 0 ...
            ((0, 1, 2), (3,)),
            ((1, 2), (4,)),  # ... or n + 1
            ((1, 2, 3), (4,)),
            ((1, 2, 3), ()),  # an empty block
        ]
        for entries in [(0, 0, 0), (0, 1, 0)]:
            for route in block_routes(entries, INDEP2).values():
                for blocks in bad:
                    with pytest.raises(DomainError):
                        route(blocks)

    def test_members_accepted_in_any_block_order(self):
        # the enumerator's members as returned, and every partition below
        # the kernel with its blocks and their points in reverse order
        rng = random.Random(7)
        mats = list(all_matrices(3, diag=[0, 1, 0]))
        for _ in range(60):
            e = rng.choice(mats)
            entries = tuple(rng.randrange(3) for _ in range(rng.randint(1, 6)))
            routes = block_routes(entries, e)
            members = enumerate_nc_epsilon(entries, e)
            for p in members:
                assert routes["is_epsilon_noncrossing"](p)
                assert routes["reduction_membership"](p)
                assert routes["kappa_pi"](p) != 0
            for p in partitions_below_kernel(entries):
                flipped = tuple(tuple(reversed(b)) for b in reversed(p))
                for route in routes.values():
                    assert route(flipped) == route(p)
                assert routes["is_epsilon_noncrossing"](flipped) == (p in members)


class TestEquivalence:
    def test_two_definitions_agree_small(self):
        # reduce-to-empty search vs pairwise crossing characterization
        for e in all_matrices(2):
            for n in range(7):
                for entries in product(range(2), repeat=n):
                    for p in partitions_below_kernel(entries):
                        assert reduction_membership(
                            p, entries, e
                        ) == is_epsilon_noncrossing(p, entries, e)

    def test_two_definitions_agree_with_classical_diagonal(self):
        rng = random.Random(11)
        for _ in range(120):
            diag = [rng.randint(0, 1) for _ in range(3)]
            pairs = [p for p in combinations(range(3), 2) if rng.random() < 0.5]
            e = EpsilonMatrix(3, pairs, diag=diag)
            n = rng.randint(1, 5)
            entries = tuple(rng.randrange(3) for _ in range(n))
            for p in partitions_below_kernel(entries):
                assert reduction_membership(p, entries, e) == is_epsilon_noncrossing(
                    p, entries, e
                )

    def test_battery_lists_every_partition_below_the_kernel_once(self):
        # the membership check's bitmask partitions, one set-partition
        # table per block size shared across tuples, against the
        # block-by-block enumeration above; blocks carry their labels.
        # The battery reads one tuple's partitions once per matrix, so
        # they come as a list, not as a generator spent after one pass.
        tables = {}
        tuples = [(), (0,), (0, 0, 1, 0), (0, 1, 0, 1, 2, 0), (1, 1, 1, 1, 1), (0, 0, 0, 1, 1, 1)]
        for entries in tuples:
            n = len(entries)
            got = []
            partitions = mask_partitions_below_kernel(encode(entries), tables)
            assert isinstance(partitions, list)
            for blocks in partitions:
                pos = [[j + 1 for j in range(n) if m >> j & 1] for m, _ in blocks]
                assert all(entries[x - 1] == k for (_, k), b in zip(blocks, pos) for x in b)
                got.append(canon(pos))
            assert sorted(got) == sorted(partitions_below_kernel(entries))


class TestEnumeration:
    def test_constant_tuple_is_noncrossing_set(self):
        for e in all_matrices(2):
            got = enumerate_nc_epsilon((0,) * 3, e)
            assert got == sorted(enumerate_noncrossing(3))

    def test_alternating_free(self):
        got = enumerate_nc_epsilon((0, 1, 0, 1), FREE2)
        expected = [
            ((1,), (2,), (3,), (4,)),
            ((1,), (2, 4), (3,)),
            ((1, 3), (2,), (4,)),
        ]
        assert got == sorted(expected)

    def test_alternating_independent(self):
        got = enumerate_nc_epsilon((0, 1, 0, 1), INDEP2)
        assert len(got) == 4
        assert CROSSING in got

    def test_all_zero_matches_restricted_noncrossing(self):
        for nlabels in (2, 3):
            e = empty_graph_matrix(nlabels)
            for n in range(1, 6):
                for entries in product(range(nlabels), repeat=n):
                    ker = kernel(entries)
                    expected = sorted(
                        p for p in enumerate_noncrossing(n) if refines(p, ker)
                    )
                    assert enumerate_nc_epsilon(entries, e) == expected

    def test_all_one_factorizes_over_kernel_blocks(self):
        cat = catalan_numbers(6)
        for nlabels in (2, 3):
            e = complete_graph_matrix(nlabels)
            for n in range(1, 6):
                for entries in product(range(nlabels), repeat=n):
                    expected = 1
                    for b in kernel(entries):
                        expected *= cat[len(b)]
                    assert len(enumerate_nc_epsilon(entries, e)) == expected

    @pytest.mark.parametrize("n", range(1, 8))
    def test_constant_tuple_counts(self, n):
        cat = catalan_numbers(8)
        e_free = EpsilonMatrix(1, [], diag=[0])
        e_classical = EpsilonMatrix(1, [], diag=[1])
        assert len(enumerate_nc_epsilon((0,) * n, e_free)) == cat[n]
        assert len(enumerate_nc_epsilon((0,) * n, e_classical)) == len(
            enumerate_set_partitions(n)
        )

    def test_singleton_adjunction_preserves_membership(self):
        # inserting a singleton block anywhere never changes membership
        rng = random.Random(3)
        mats = list(all_matrices(3))
        for _ in range(200):
            e = rng.choice(mats)
            n = rng.randint(1, 5)
            entries = tuple(rng.randrange(3) for _ in range(n))
            members = set(enumerate_nc_epsilon(entries, e))
            for p in partitions_below_kernel(entries):
                base = p in members
                pos = rng.randint(0, n)
                new_entries = entries[:pos] + (rng.randrange(3),) + entries[pos:]
                shifted = [
                    [x if x <= pos else x + 1 for x in b] for b in p
                ]
                shifted.append([pos + 1])
                assert (
                    is_epsilon_noncrossing(shifted, new_entries, e) == base
                )
