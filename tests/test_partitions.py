import json
import math

import pytest

from epsindep import DomainError
from oracles import (
    bell_numbers,
    canon,
    catalan_numbers,
    enumerate_noncrossing,
    enumerate_set_partitions,
    is_noncrossing,
    kernel,
    refines,
)


def bell_oracle(n):
    # B(n+1) = sum C(n,k) B(k), independent of the triangle recursion
    b = [1]
    for m in range(n):
        b.append(sum(math.comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


def catalan_oracle(n):
    return math.comb(2 * n, n) // (n + 1)


class TestEnumeration:
    def test_empty_ground_set(self):
        parts = enumerate_set_partitions(0)
        assert parts == [()]

    @pytest.mark.parametrize("n,count", [(3, 5), (4, 15)])
    def test_small_counts(self, n, count):
        assert len(enumerate_set_partitions(n)) == count

    @pytest.mark.parametrize("n", range(9))
    def test_bell_counts(self, n):
        parts = enumerate_set_partitions(n)
        assert len(parts) == bell_oracle(n)
        assert len(set(parts)) == len(parts)

    @pytest.mark.parametrize("n", range(9))
    def test_catalan_counts(self, n):
        assert len(enumerate_noncrossing(n)) == catalan_oracle(n)

    def test_helper_sequences_match_oracles(self):
        assert bell_numbers(8) == [bell_oracle(n) for n in range(9)]
        assert catalan_numbers(8) == [catalan_oracle(n) for n in range(9)]


class TestCanonicalForm:
    def test_normalization(self):
        assert canon([[4, 2], [3, 1]]) == ((1, 3), (2, 4))

    def test_equality_and_hash(self):
        a = canon([[2], [1, 3]])
        b = canon([[3, 1], [2]])
        assert a == b and hash(a) == hash(b)

    def test_json_round_trip(self):
        # json writes a tuple of blocks as nested arrays
        p = ((1, 3), (2,), (4,))
        blocks = json.loads(json.dumps(p))
        assert blocks == [[1, 3], [2], [4]]
        assert canon(blocks) == p


class TestNoncrossing:
    def test_canonical_crossing(self):
        assert not is_noncrossing(((1, 3), (2, 4)))

    def test_nested_pairing(self):
        assert is_noncrossing(((1, 4), (2, 3)))

    def test_disjoint_intervals(self):
        assert is_noncrossing(((1, 2), (3, 4)))

    def test_interval_block_removal_invariance(self):
        # dropping a block of consecutive points and renumbering preserves
        # the crossing status
        for n in range(2, 7):
            for p in enumerate_set_partitions(n):
                for b in p:
                    if b[-1] - b[0] != len(b) - 1:
                        continue
                    lo, hi = b[0], b[-1]
                    width = hi - lo + 1
                    q = tuple(
                        tuple(x if x < lo else x - width for x in other)
                        for other in p
                        if other != b
                    )
                    assert canon(q) == q
                    if is_noncrossing(p):
                        assert is_noncrossing(q)


class TestKernel:
    def test_examples(self):
        assert kernel((1, 2, 1)) == ((1, 3), (2,))
        assert kernel((7, 7, 7)) == ((1, 2, 3),)
        assert kernel((1, 2, 3)) == ((1,), (2,), (3,))

    def test_kernel_is_maximal(self):
        # any partition connecting only equal-value positions refines ker
        i = (1, 2, 1, 2, 1)
        ker = kernel(i)
        for p in enumerate_set_partitions(5):
            ok = all(
                i[x - 1] == i[b[0] - 1] for b in p for x in b
            )
            if ok:
                assert refines(p, ker)


class TestRefines:
    def test_examples(self):
        fine = ((1,), (2,), (3,))
        mid = ((1, 3), (2,))
        coarse = ((1, 2, 3),)
        assert refines(fine, mid)
        assert not refines(coarse, mid)
        assert refines(mid, mid)

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            refines(((1,), (2,)), ((1, 2, 3),))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_partial_order(self, n):
        parts = enumerate_set_partitions(n)
        for p in parts:
            assert refines(p, p)
        for p in parts:
            for q in parts:
                if refines(p, q) and refines(q, p):
                    assert p == q
                for r in parts:
                    if refines(p, q) and refines(q, r):
                        assert refines(p, r)
