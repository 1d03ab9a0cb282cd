import math
import random
import sys
from fractions import Fraction

import pytest

from epsindep import (
    CumulantTable,
    DomainError,
    InputError,
    TableError,
    arcsine_moments,
    format_fraction,
    kappa_pi,
)
from epsindep.cumulants import bernoulli_moments, spec_moments
from oracles import (
    JointMomentOracle,
    classical_cumulants_to_moments,
    enumerate_noncrossing,
    enumerate_set_partitions,
    free_cumulants_to_moments,
    moments_to_classical_cumulants,
    moments_to_free_cumulants,
    product_as_arguments_check,
    random_joint_oracle,
    semicircle_table,
)

F = Fraction


def free_moments_oracle(kappa):
    """Brute lattice sum m_n = sum over NC(n) of the block-size cumulant
    products, independent of the production recursion."""
    out = []
    for n in range(1, len(kappa) + 1):
        total = F(0)
        for p in enumerate_noncrossing(n):
            term = F(1)
            for b in p:
                term *= kappa[len(b) - 1]
            total += term
        out.append(total)
    return out


def classical_moments_oracle(kappa):
    """Same lattice sum over all partitions of {1,...,n}."""
    out = []
    for n in range(1, len(kappa) + 1):
        total = F(0)
        for p in enumerate_set_partitions(n):
            term = F(1)
            for b in p:
                term *= kappa[len(b) - 1]
            total += term
        out.append(total)
    return out


def classical_cumulants_mobius(moments):
    """Explicit Moebius sum over the full partition lattice."""
    out = []
    for n in range(1, len(moments) + 1):
        total = F(0)
        for p in enumerate_set_partitions(n):
            k = len(p)
            term = F((-1) ** (k - 1) * math.factorial(k - 1))
            for b in p:
                term *= moments[len(b) - 1]
            total += term
        out.append(total)
    return out


class TestFreeConversion:
    def test_semicircle_moments_frozen(self):
        # expected values counted as non-crossing pair partitions
        expected = []
        for n in range(1, 7):
            pairings = [
                p
                for p in enumerate_noncrossing(n)
                if all(len(b) == 2 for b in p)
            ]
            expected.append(F(len(pairings)))
        assert expected == [F(0), F(1), F(0), F(2), F(0), F(5)]
        assert moments_to_free_cumulants(expected) == [F(0), F(1)] + [F(0)] * 4

    def test_semicircle_round_trip(self):
        kappa = [F(0), F(1), F(0), F(0), F(0), F(0)]
        assert free_cumulants_to_moments(kappa) == [F(0), F(1), F(0), F(2), F(0), F(5)]

    def test_point_mass(self):
        moments = [F(1)] * 6
        kappa = moments_to_free_cumulants(moments)
        assert kappa[0] == F(1)
        assert free_cumulants_to_moments(kappa) == moments

    def test_kappa1_only_gives_constant_moments(self):
        assert free_cumulants_to_moments([F(1)] + [F(0)] * 5) == [F(1)] * 6

    def test_zero_maps_to_zero(self):
        assert free_cumulants_to_moments([F(0)] * 5) == [F(0)] * 5

    def test_arcsine_inversion(self):
        moments = arcsine_moments(6)
        assert moments == [F(0), F(2), F(0), F(6), F(0), F(20)]
        kappa = moments_to_free_cumulants(moments)
        assert kappa[0] == F(0) and kappa[1] == F(2) and kappa[2] == F(0)
        assert free_cumulants_to_moments(kappa) == moments

    def test_against_lattice_sum_oracle(self):
        rng = random.Random(5)
        for _ in range(30):
            kappa = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
            assert free_cumulants_to_moments(kappa) == free_moments_oracle(kappa)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_round_trip(self, order):
        rng = random.Random(order)
        moments = [F(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(order)]
        kappa = moments_to_free_cumulants(moments)
        assert free_cumulants_to_moments(kappa) == moments


class TestClassicalConversion:
    def test_gaussian(self):
        moments = [F(0), F(1), F(0), F(3), F(0), F(15)]
        assert moments_to_classical_cumulants(moments) == [F(0), F(1)] + [F(0)] * 4

    def test_point_mass(self):
        kappa = moments_to_classical_cumulants([F(1)] * 6)
        assert kappa == [F(1)] + [F(0)] * 5

    def test_bernoulli(self):
        kappa = moments_to_classical_cumulants([F(0), F(1), F(0), F(1)])
        assert kappa == [F(0), F(1), F(0), F(-2)]

    def test_against_mobius_oracle(self):
        rng = random.Random(6)
        for _ in range(20):
            moments = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)]
            assert moments_to_classical_cumulants(moments) == classical_cumulants_mobius(
                moments
            )

    def test_against_lattice_sum_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            kappa = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)]
            assert classical_cumulants_to_moments(kappa) == classical_moments_oracle(
                kappa
            )

    @pytest.mark.parametrize("order", range(1, 11))
    def test_round_trip(self, order):
        rng = random.Random(100 + order)
        moments = [F(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(order)]
        kappa = moments_to_classical_cumulants(moments)
        assert classical_cumulants_to_moments(kappa) == moments


class TestKindsAgree:
    def test_orders_one_and_two(self):
        rng = random.Random(8)
        for _ in range(20):
            moments = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            assert (
                moments_to_free_cumulants(moments)
                == moments_to_classical_cumulants(moments)
            )


class TestKappaPi:
    def test_pair_block(self):
        sc = semicircle_table(1, 4)
        assert kappa_pi(((1, 2),), (0, 0), {0: sc}) == F(1)

    def test_crossing_pairing_product(self):
        sc = semicircle_table(1, 4)
        assert kappa_pi(((1, 3), (2, 4)), (0, 1, 0, 1), {0: sc, 1: sc}) == F(1)

    def test_singleton_with_centered_table_vanishes(self):
        rng = random.Random(9)
        for n in range(2, 6):
            moments = [F(0)] + [F(rng.randint(-9, 9)) for _ in range(n - 1)]
            table = CumulantTable.from_moments("free", moments)
            for p in enumerate_set_partitions(n):
                if any(len(b) == 1 for b in p):
                    assert kappa_pi(p, (0,) * n, {0: table}) == F(0)

    def test_full_partition_is_top_cumulant(self):
        table = CumulantTable("free", [F(3), F(-2), F(5)])
        assert kappa_pi(((1, 2, 3),), (0, 0, 0), {0: table}) == F(5)

    def test_kernel_precondition(self):
        sc = semicircle_table(1, 4)
        with pytest.raises(DomainError):
            kappa_pi(((1, 2),), (0, 1), {0: sc, 1: sc})

    def test_order_overflow(self):
        table = CumulantTable("free", [F(1)])
        with pytest.raises(TableError):
            kappa_pi(((1, 2),), (0, 0), {0: table})


class TestTableSpecs:
    def test_moment_list_spec(self):
        moments = spec_moments({"label": "x", "kind": "free", "moments": ["0", "1", "0", "2"]}, 4)
        assert moments == [F(0), F(1), F(0), F(2)]
        t = CumulantTable.from_moments("free", moments)
        assert t.cumulants == (F(0), F(1), F(0), F(0))

    def test_moment_list_built_to_order_validated_in_full(self):
        moments = ["1/2", "-3", "0", "2", "5", "7/3"]
        assert spec_moments({"moments": moments}, order=2) == [F(1, 2), F(-3)]
        moments[4] = "1/0"
        with pytest.raises(InputError, match="bad rational '1/0'"):
            spec_moments({"moments": moments}, order=2)

    def test_named_semicircle_classical_kind(self):
        moments = spec_moments(
            {"label": "x", "named": "semicircle", "variance": "1", "kind": "classical"},
            order=6,
        )
        assert moments == [F(0), F(1), F(0), F(2), F(0), F(5)]

    def test_bernoulli_and_point_mass(self):
        assert spec_moments({"named": "bernoulli", "kind": "classical"}, 4) == [F(0), F(1), F(0), F(1)]
        assert spec_moments({"named": "point_mass", "value": "3/2"}, 3) == [F(3, 2), F(9, 4), F(27, 8)]

    def test_empty_moments_rejected(self):
        with pytest.raises(TableError):
            moments_to_free_cumulants([])

    @pytest.mark.parametrize("kind", ["free", "classical"])
    def test_empty_sequence_rejected_on_either_side(self, kind):
        # no table has order 0, whichever side it is built from
        with pytest.raises(TableError, match="empty sequence of moments"):
            CumulantTable.from_moments(kind, [])
        with pytest.raises(TableError, match="empty sequence of cumulants"):
            CumulantTable(kind, [])


    @pytest.mark.parametrize("generate", [arcsine_moments, bernoulli_moments])
    @pytest.mark.parametrize("kind", ["free", "classical"])
    def test_integer_named_laws(self, generate, kind):
        # the generators give ints, equal to the Fractions they stand for,
        # and a table of them is the table of those Fractions
        for order in range(1, 11):
            moments = generate(order)
            assert all(type(m) is int for m in moments)
            fractions = [F(m) for m in moments]
            by_ints = CumulantTable.from_moments(kind, moments)
            by_fractions = CumulantTable.from_moments(kind, fractions)
            assert by_ints.d == by_fractions.d == 1
            assert by_ints.scaled_moments == by_fractions.scaled_moments
            assert by_ints.scaled_cumulants == by_fractions.scaled_cumulants


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
class TestFormatFractionAtTheDigitLimit:
    """640 is the lowest limit Python accepts.  602 digits fit under 2,000
    bits, the bound below which the limit is left alone; 603 do not; 641
    would raise ValueError at 640 if the limit were not lifted."""

    @pytest.mark.parametrize("digits", [602, 603, 641, 5000])
    @pytest.mark.parametrize("side", ["numerator", "denominator"])
    def test_prints_exactly_and_restores_the_limit(self, digits, side):
        big = 10 ** (digits - 1) + 7  # not a multiple of 3
        text = "1" + "0" * (digits - 2) + "7"
        value, want = (F(-big, 3), f"-{text}/3") if side == "numerator" else (F(3, big), f"3/{text}")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            got = format_fraction(value)
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == want

    def test_not_a_fraction(self):
        assert format_fraction(-7) == "-7/1"
        assert format_fraction("6/4") == "3/2"


class TestProductsAsArguments:
    def test_semicircle_square(self):
        # kappa_1(x^2) = kappa_2(x,x) + kappa_1(x)^2 for a standard semicircle
        sc = [F(0), F(1), F(0), F(2), F(0), F(5)]
        oracle = JointMomentOracle(1, default_factory=lambda word: sc[len(word) - 1])
        assert oracle.cumulant(((0, 0),)) == F(1)
        assert oracle.cumulant(((0,), (0,))) == F(1)
        assert product_as_arguments_check(0, oracle, first=(0, 0))

    def test_unit_argument_absorbed(self):
        # symbol 1 acts as the unit: its insertions do not change moments
        rng = random.Random(10)
        base = {k: F(rng.randint(-9, 9), rng.randint(1, 9)) for k in range(1, 8)}

        def phi(word):
            k = sum(1 for x in word if x == 0)
            return F(1) if k == 0 else base[k]

        oracle = JointMomentOracle(2, default_factory=phi)
        assert product_as_arguments_check(1, oracle, first=(0, 1), rest=(0,))
        assert product_as_arguments_check(2, oracle, first=(1, 0), rest=(0, 0))

    def test_random_oracles(self):
        rng = random.Random(11)
        for trial in range(40):
            nvars = rng.randint(2, 4)
            oracle = random_joint_oracle(rng, nvars)
            p = rng.randint(0, 4)
            rest = tuple(rng.randrange(nvars) for _ in range(p))
            first = (rng.randrange(nvars), rng.randrange(nvars))
            assert product_as_arguments_check(p, oracle, first=first, rest=rest)
