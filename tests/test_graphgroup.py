import math
import random
from fractions import Fraction
from itertools import combinations, product

from epsindep import (
    EpsilonMatrix,
    generator_mixed_moment,
    is_admissible_tuple,
    reduce_word,
)
from oracles import all_matrices, complete_graph_matrix, empty_graph_matrix
from test_properties import inverse, sign_sum_trace

F = Fraction
FREE2 = empty_graph_matrix(2)
INDEP2 = complete_graph_matrix(2)


class TestReduction:
    def test_inverse_cancellation(self):
        assert reduce_word(((0, 1), (0, -1)), FREE2) == ()

    def test_commute_and_cancel(self):
        w = reduce_word(((0, 1), (1, 1), (0, -1)), INDEP2)
        assert w == ((1, 1),)

    def test_no_cancellation_when_free(self):
        w = reduce_word(((0, 1), (1, 1), (0, -1)), FREE2)
        assert len(w) == 3 and w != ()

    def test_exponent_merge(self):
        assert reduce_word(((0, 2), (0, 3)), FREE2) == ((0, 5),)
        assert reduce_word(((0, 2), (0, -2)), FREE2) == ()


class TestNormalForm:
    """Two words name the same group element iff one times the inverse of
    the other reduces to the empty word."""

    def test_uniqueness_under_commutation(self):
        # any legal adjacent exchange yields the same element
        rng = random.Random(31)
        mats = list(all_matrices(3))
        for _ in range(300):
            e = rng.choice(mats)
            word = tuple(
                (rng.randrange(3), rng.choice((-2, -1, 1, 2))) for _ in range(6)
            )
            for k in range(len(word) - 1):
                a, b = word[k][0], word[k + 1][0]
                if a != b and e.eps(a, b):
                    swapped = (
                        word[:k] + (word[k + 1], word[k]) + word[k + 2 :]
                    )
                    assert reduce_word(swapped + inverse(word), e) == ()

    def test_two_letter_exhaustive_associativity(self):
        for e in (FREE2, INDEP2):
            words = [
                tuple(syl)
                for syl in product(
                    [(0, 1), (0, -1), (1, 1), (1, -1)], repeat=2
                )
            ] + [(), ((0, 1),), ((1, -1),)]
            for a in words:
                for b in words:
                    for c in words:
                        ab_c = reduce_word(reduce_word(a + b, e) + c, e)
                        a_bc = reduce_word(a + reduce_word(b + c, e), e)
                        assert reduce_word(ab_c + inverse(a_bc), e) == ()

    def test_random_associativity_and_inverses(self):
        rng = random.Random(32)
        mats = list(all_matrices(4))
        for _ in range(200):
            e = rng.choice(mats)
            words = [
                tuple(
                    (rng.randrange(4), rng.choice((-2, -1, 1, 2)))
                    for _ in range(rng.randint(0, 8))
                )
                for _ in range(3)
            ]
            a, b, c = words
            ab_c = reduce_word(reduce_word(a + b, e) + c, e)
            a_bc = reduce_word(a + reduce_word(b + c, e), e)
            assert reduce_word(ab_c + inverse(a_bc), e) == ()
            assert reduce_word(a + inverse(a), e) == ()
            assert reduce_word(inverse(a) + a, e) == ()


class TestTrace:
    def test_identity(self):
        assert generator_mixed_moment((), FREE2) == F(1)

    def test_single_generator(self):
        assert reduce_word(((0, 1),), FREE2) != ()
        assert generator_mixed_moment((0,), FREE2) == F(0)

    def test_commutator(self):
        word = ((0, 1), (1, 1), (0, -1), (1, -1))
        assert reduce_word(word, INDEP2) == ()
        assert reduce_word(word, FREE2) != ()

    def test_algebra_arithmetic(self):
        # (u + u^-1)^2 = u^2 + 2 + u^-2
        assert generator_mixed_moment((0, 0), INDEP2) == F(2)
        assert sign_sum_trace((0, 0), INDEP2) == 2


class TestGeneratorMoments:
    def test_central_binomial(self):
        e = empty_graph_matrix(1)
        for n in range(0, 9):
            expected = F(math.comb(n, n // 2)) if n % 2 == 0 else F(0)
            assert generator_mixed_moment((0,) * n, e) == expected

    def test_alternating(self):
        assert generator_mixed_moment((0, 1, 0, 1), FREE2) == F(0)
        assert generator_mixed_moment((0, 1, 0, 1), INDEP2) == F(4)

    def test_matches_group_algebra_expansion(self):
        rng = random.Random(33)
        mats = list(all_matrices(3))
        for _ in range(50):
            e = rng.choice(mats)
            n = rng.randint(1, 5)
            entries = tuple(rng.randrange(3) for _ in range(n))
            assert generator_mixed_moment(entries, e) == sign_sum_trace(entries, e)

    def test_odd_count_exit_matches_expansion(self):
        # a label of odd count gives 0 before the fold; a tuple whose
        # counts are all even still folds, as the expansion says
        rng = random.Random(36)
        cases = [
            # an odd label 1 between a label that commutes with it (0)
            # and one that does not (2)
            ((0, 1, 2, 0, 2, 1, 1), EpsilonMatrix(3, [(0, 1)])),
            ((2, 1, 0, 1, 0, 2, 1), EpsilonMatrix(3, [(0, 1)])),
            ((0, 2, 1, 2, 0), EpsilonMatrix(4, [(0, 1), (1, 3)])),
            ((3, 1, 2, 1, 3, 1, 2), EpsilonMatrix(4, [(1, 3)])),
        ]
        for _ in range(300):
            size = rng.randint(2, 4)
            e = EpsilonMatrix(size, [p for p in combinations(range(size), 2) if rng.random() < 0.5])
            half = [rng.randrange(size) for _ in range(rng.randint(1, 4))]
            # every count even, or one position dropped so one count is odd
            entries = rng.sample(half * 2, 2 * len(half))[: 2 * len(half) - rng.randint(0, 1)]
            cases.append((tuple(entries), e))
        odd = 0
        for entries, e in cases:
            value = generator_mixed_moment(entries, e)
            assert value == sign_sum_trace(entries, e)
            if any(entries.count(a) % 2 for a in entries):
                odd += 1
                assert value == 0
        assert 100 < odd < len(cases) - 100

    def test_admissible_single_powers_vanish(self):
        rng = random.Random(34)
        mats = list(all_matrices(4))
        for _ in range(300):
            e = rng.choice(mats)
            n = rng.randint(1, 7)
            entries = tuple(rng.randrange(4) for _ in range(n))
            if not is_admissible_tuple(entries, e):
                continue
            exponents = [rng.choice((-1, 1)) for _ in range(n)]
            assert reduce_word(zip(entries, exponents), e) != ()

    def test_complete_graph_is_free_abelian(self):
        e = complete_graph_matrix(3)
        rng = random.Random(35)
        for _ in range(300):
            n = rng.randint(0, 8)
            entries = tuple(rng.randrange(3) for _ in range(n))
            exponents = [rng.choice((-1, 1)) for _ in range(n)]
            sums = [0, 0, 0]
            for lbl, x in zip(entries, exponents):
                sums[lbl] += x
            trivial = all(s == 0 for s in sums)
            assert (reduce_word(zip(entries, exponents), e) == ()) == trivial

    def test_length_cap_given(self):
        e = empty_graph_matrix(1)
        assert generator_mixed_moment((0,) * 14, e) == F(math.comb(14, 7))
