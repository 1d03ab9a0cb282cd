import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from epsindep import (
    CLASSICAL,
    FREE,
    CumulantTable,
    DomainError,
    EpsilonMatrix,
    TableError,
    arcsine_table,
    factorization_shortcut,
    generator_mixed_moment,
    is_admissible_tuple,
    mixed_moment_by_definition,
    mixed_moment_cumulant,
)
from epsindep.cumulants import arcsine_moments, kappa_pi
from epsindep.ncpartitions import (
    eligible_points,
    is_epsilon_noncrossing,
    kernel_noncrossing,
    trim_gaps,
)
from oracles import (
    all_matrices,
    admissible_by_definition,
    complete_graph_matrix,
    cumulant_by_first_blocks,
    cycle_graph_matrix,
    empty_graph_matrix,
    normalize_tuple,
    semicircle_table,
)
from test_ncpartitions import partitions_below_kernel

F = Fraction
FREE2 = empty_graph_matrix(2)
INDEP2 = complete_graph_matrix(2)


def random_tables(rng, e, order, centered=False):
    tables = {}
    for label in range(e.size):
        moments = [
            F(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(order)
        ]
        if centered:
            moments[0] = F(0)
        kind = "classical" if e.diagonal(label) == 1 else "free"
        tables[label] = CumulantTable.from_moments(kind, moments)
    return tables


class TestNormalizeTuple:
    def test_commute_then_merge(self):
        labels, groups = normalize_tuple((0, 1, 0), INDEP2)
        assert labels == (0, 1)
        assert groups == [[1, 3], [2]]

    def test_already_admissible(self):
        labels, groups = normalize_tuple((0, 1, 0), FREE2)
        assert labels == (0, 1, 0)
        assert groups == [[1], [2], [3]]

    def test_adjacent_merge(self):
        labels, groups = normalize_tuple((0, 0, 1), FREE2)
        assert labels == (0, 1)
        assert groups == [[1, 2], [3]]

    def test_output_always_admissible(self):
        rng = random.Random(21)
        mats = list(all_matrices(4))
        for _ in range(500):
            e = rng.choice(mats)
            n = rng.randint(1, 7)
            entries = tuple(rng.randrange(4) for _ in range(n))
            labels, groups = normalize_tuple(entries, e)
            assert admissible_by_definition(labels, e)
            flat = sorted(x for g in groups for x in g)
            assert flat == list(range(1, n + 1))
            for lbl, g in zip(labels, groups):
                assert all(entries[x - 1] == lbl for x in g)


class TestCumulantEvaluator:
    def test_alternating_semicircles(self):
        sc = semicircle_table(1, 4)
        tabs = {0: sc, 1: sc}
        assert mixed_moment_cumulant((0, 1, 0, 1), FREE2, tabs) == F(0)
        assert mixed_moment_cumulant((0, 1, 0, 1), INDEP2, tabs) == F(1)

    def test_single_semicircle_fourth_moment(self):
        sc = semicircle_table(1, 4)
        assert mixed_moment_cumulant((0, 0, 0, 0), FREE2, {0: sc, 1: sc}) == F(2)

    # every route checks its tuple and tables the same way (moments._check_tables)
    routes = pytest.mark.parametrize(
        "route",
        [mixed_moment_cumulant, mixed_moment_by_definition, factorization_shortcut],
        ids=["cumulant", "definition", "shortcut"],
    )

    @routes
    @pytest.mark.parametrize("entries, bad", [((0, 2), 2), ((-1, 0), -1), ((0, 1, 7, 0, 5), 7)])
    def test_label_out_of_range(self, route, entries, bad):
        # the error names the first bad label of the tuple
        sc = semicircle_table(1, 4)
        with pytest.raises(DomainError, match=f"label {bad} out of range"):
            route(entries, FREE2, {0: sc, 1: sc})

    @routes
    def test_missing_table(self, route):
        with pytest.raises(TableError):
            route((0, 1), FREE2, {0: semicircle_table(1, 2)})

    @routes
    def test_kind_mismatch(self, route):
        e = EpsilonMatrix(1, [], diag=[1])
        with pytest.raises(TableError):
            route((0, 0), e, {0: semicircle_table(1, 2)})

    @routes
    def test_order_overflow(self, route):
        with pytest.raises(TableError):
            route((0,) * 5, FREE2, {0: semicircle_table(1, 4), 1: semicircle_table(1, 4)})

    @routes
    @pytest.mark.parametrize(
        "entries, given, error, match",
        [
            # label 0 has no table, label 7 is out of range
            ((0, 7), {1}, TableError, "no table for label 0"),
            ((7, 0), {1}, DomainError, "label 7 out of range"),
            # label 0's table is too short, label 1's is free on a classical label
            ((0, 1, 0), {0, 1}, TableError, "table for label 0 covers order 1, need 2"),
        ],
    )
    def test_first_faulty_label_raises(self, route, entries, given, error, match):
        # labels are checked in order of first occurrence, each for range,
        # table, kind and order, and the first fault found raises
        e = EpsilonMatrix(2, [], diag=[0, 1])
        tables = {0: semicircle_table(1, 1), 1: semicircle_table(1, 2)}
        with pytest.raises(error, match=match):
            route(entries, e, {a: tables[a] for a in given})

    @routes
    def test_order_of_multiplicity(self, route):
        # each table need only reach its label's multiplicity, 4 and 2,
        # not the tuple's length 6: phi(x0^4) phi(x1^2) = 2 * 2
        entries = (0, 1, 0, 1, 0, 0)
        full = {0: semicircle_table(1, 6), 1: semicircle_table(2, 6)}
        cut = {0: semicircle_table(1, 4), 1: semicircle_table(2, 2)}
        assert route(entries, INDEP2, cut) == route(entries, INDEP2, full) == F(4)

    def test_tables_built_either_way(self):
        # equal laws with different d: from the moments d = 105, from the
        # cumulants 1,488,375 (free) or 297,675 (classical)
        moments = [F(1, 3), F(-2, 5), F(4, 7), F(1, 15), F(-3, 35), F(2, 21)]
        e = EpsilonMatrix(3, [(0, 2)], diag=[0, 0, 1])
        by_moments = {
            lbl: CumulantTable.from_moments(CLASSICAL if e.diagonal(lbl) else FREE, moments)
            for lbl in range(3)
        }
        by_cumulants = {lbl: CumulantTable(t.kind, t.cumulants) for lbl, t in by_moments.items()}
        for lbl in range(3):
            assert by_moments[lbl].kind == by_cumulants[lbl].kind
            assert by_moments[lbl].cumulants == by_cumulants[lbl].cumulants
        assert all(by_moments[lbl].d != by_cumulants[lbl].d for lbl in range(3))
        for entries in [(0, 1, 0, 1, 2, 0), (2, 0, 2, 1, 0, 1), (1, 0, 0, 1, 2, 2)]:
            for route in (mixed_moment_cumulant, mixed_moment_by_definition):
                assert route(entries, e, by_moments) == route(entries, e, by_cumulants) != 0

    @pytest.mark.parametrize("kind", [FREE, CLASSICAL])
    def test_kappa_1_only_table_never_folds(self, kind, monkeypatch):
        # a point mass has only kappa_1: its points can only be singleton
        # blocks, so the route factors them out and folds the other labels;
        # the sum asks for a state's eligible points once per state it folds
        folded = []

        def spy(lab, gaps):
            folded.append(lab)
            return eligible_points(lab, gaps)

        monkeypatch.setattr("epsindep.ncpartitions.eligible_points", spy)
        n = 8
        diag = 1 if kind == CLASSICAL else 0
        mass = CumulantTable.from_moments(kind, [F(3, 2) ** k for k in range(1, n + 1)])
        e = EpsilonMatrix(1, [], diag=[diag])
        assert mixed_moment_cumulant((0,) * n, e, {0: mass}) == F(3, 2) ** n
        assert folded == []
        # beside a free semicircle label, which folds: (3/2)**3 * phi(x1**4)
        e = EpsilonMatrix(2, [], diag=[diag, 0])
        tables = {0: mass, 1: semicircle_table(1, 4)}
        assert mixed_moment_cumulant((0, 1, 0, 1, 1, 0, 1), e, tables) == F(3, 2) ** 3 * 2
        assert folded and all(0 not in lab for lab in folded)

    @pytest.mark.parametrize("kind", [FREE, CLASSICAL])
    def test_symmetric_law_folds_no_odd_state(self, kind, monkeypatch):
        # the arcsine law is symmetric, so its odd cumulants are 0 and a
        # state with an odd number of its points sums to 0 without a fold:
        # an odd-length tuple folds no state at all
        folded = []

        def spy(lab, gaps):
            folded.append(lab)
            return eligible_points(lab, gaps)

        monkeypatch.setattr("epsindep.ncpartitions.eligible_points", spy)
        e = EpsilonMatrix(1, [], diag=[1 if kind == CLASSICAL else 0])
        for n in range(6, 10):
            folded.clear()
            table = arcsine_table(kind, n)
            assert mixed_moment_cumulant((0,) * n, e, {0: table}) == table.moment(n)
            assert all(len(lab) % 2 == 0 for lab in folded)
            assert bool(folded) == (n % 2 == 0)


class TestDefinitionEvaluator:
    def test_alternating_semicircles(self):
        sc = semicircle_table(1, 4)
        tabs = {0: sc, 1: sc}
        assert mixed_moment_by_definition((0, 1, 0, 1), INDEP2, tabs) == F(1)
        assert mixed_moment_by_definition((0, 1, 0, 1), FREE2, tabs) == F(0)

    def test_single_label_reproduces_moments(self):
        rng = random.Random(22)
        for e in (FREE2, INDEP2):
            moments = {0: [F(rng.randint(-9, 9)) for _ in range(6)], 1: [F(0)] * 6}
            tables = {lbl: CumulantTable.from_moments(FREE, seq) for lbl, seq in moments.items()}
            for n in range(1, 7):
                assert (
                    mixed_moment_by_definition((0,) * n, e, tables) == moments[0][n - 1]
                )

    def test_agrees_with_cumulant_evaluator(self):
        rng = random.Random(23)
        mats = list(all_matrices(3)) + [
            EpsilonMatrix(3, [(0, 1)], diag=[1, 0, 1]),
            EpsilonMatrix(3, [], diag=[1, 1, 1]),
        ]
        for _ in range(150):
            e = rng.choice(mats)
            n = rng.randint(1, 6)
            entries = tuple(rng.randrange(3) for _ in range(n))
            tables = random_tables(rng, e, n)
            a = mixed_moment_cumulant(entries, e, tables)
            b = mixed_moment_by_definition(entries, e, tables)
            assert a == b, (entries, e)

    def test_long_free_pair_agrees_with_cumulants(self):
        # (x1,x2)^10: twenty points, all reduced syllables, no mean 0
        rng = random.Random(27)
        tables = {
            lbl: CumulantTable.from_moments(
                FREE, [F(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 20)) for _ in range(10)]
            )
            for lbl in (0, 1)
        }
        entries = (0, 1) * 10
        value = mixed_moment_by_definition(entries, FREE2, tables)
        assert value == mixed_moment_cumulant(entries, FREE2, tables)

    def test_swap_invariance(self):
        rng = random.Random(24)
        mats = list(all_matrices(3))
        for _ in range(100):
            e = rng.choice(mats)
            n = rng.randint(2, 6)
            entries = tuple(rng.randrange(3) for _ in range(n))
            tables = random_tables(rng, e, n)
            base = mixed_moment_cumulant(entries, e, tables)
            for k in range(n - 1):
                if e.eps(entries[k], entries[k + 1]) == 1:
                    swapped = (
                        entries[:k] + (entries[k + 1], entries[k]) + entries[k + 2 :]
                    )
                    assert mixed_moment_cumulant(swapped, e, tables) == base

    def test_vanishing_for_centered_admissible(self):
        rng = random.Random(25)
        mats = list(all_matrices(3))
        for _ in range(100):
            e = rng.choice(mats)
            n = rng.randint(1, 6)
            entries = tuple(rng.randrange(3) for _ in range(n))
            if not is_admissible_tuple(entries, e):
                continue
            tables = random_tables(rng, e, n, centered=True)
            assert mixed_moment_cumulant(entries, e, tables) == F(0)
            assert (
                mixed_moment_by_definition(entries, e, tables)
                == F(0)
            )


class TestFactorization:
    def test_alternating_independent(self):
        sc = semicircle_table(1, 4)
        tabs = {0: sc, 1: sc}
        assert factorization_shortcut((0, 1, 0, 1), INDEP2, tabs) == F(1)

    def test_alternating_free_not_applicable(self):
        sc = semicircle_table(1, 4)
        assert factorization_shortcut((0, 1, 0, 1), FREE2, {0: sc, 1: sc}) is None

    def test_noncrossing_kernel(self):
        sc = semicircle_table(1, 4)
        for e in (FREE2, INDEP2):
            assert factorization_shortcut((0, 0, 1, 1), e, {0: sc, 1: sc}) == F(1)

    def test_agrees_with_cumulant_evaluator(self):
        rng = random.Random(26)
        mats = list(all_matrices(3))
        for _ in range(200):
            e = rng.choice(mats)
            n = rng.randint(1, 6)
            entries = tuple(rng.randrange(3) for _ in range(n))
            tables = random_tables(rng, e, n)
            short = factorization_shortcut(entries, e, tables)
            if short is not None:
                assert short == mixed_moment_cumulant(entries, e, tables)


class TestFiveCycle:
    def test_intro_example_moments(self):
        e = cycle_graph_matrix(5)
        sc = semicircle_table(1, 4)
        tabs = {k: sc for k in range(5)}
        # neighbours on the cycle are free, non-neighbours independent
        assert mixed_moment_cumulant((0, 1, 0, 1), e, tabs) == F(0)
        assert mixed_moment_cumulant((0, 2, 0, 2), e, tabs) == F(1)
        assert mixed_moment_by_definition((0, 1, 0, 1), e, tabs) == F(0)
        assert mixed_moment_by_definition((0, 2, 0, 2), e, tabs) == F(1)


class TestLengthTwelve:
    """The 5-cycle with x3 (label 2) on the classical diagonal: at length
    12 the cumulant route still agrees with the group trace."""

    E = EpsilonMatrix(
        5,
        [(a, b) for a, b in combinations(range(5), 2) if cycle_graph_matrix(5).eps(a, b)],
        diag=[0, 0, 1, 0, 0],
    )

    @pytest.mark.parametrize(
        "entries",
        [(2,) * 12, (0,) * 12, (0, 2) * 6, (0, 1) * 6],
        ids=["x3^12", "x1^12", "(x1,x3)^6", "(x1,x2)^6"],
    )
    def test_agrees_with_group_trace(self, entries):
        e = self.E
        tables = {
            lbl: arcsine_table(CLASSICAL if e.diagonal(lbl) else FREE, 12) for lbl in set(entries)
        }
        assert mixed_moment_cumulant(entries, e, tables) == generator_mixed_moment(entries, e)

    @pytest.mark.parametrize(
        "entries",
        [
            (0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1),
            (0, 1, 0, 2, 1, 3, 2, 4, 3, 0, 4, 1),
            (0, 2, 4, 1, 3, 0, 2, 4, 1, 3, 0, 2),
        ],
        ids=["(x1..x5)^2,x1,x2", "x1,x2,x1,x3,x2,x4,x3,x5,x4,x1,x5,x2", "(x1,x3,x5,x2,x4)^2,x1,x3"],
    )
    def test_definition_agrees_with_cumulants(self, entries):
        # five labels, random nonzero moments: no factor of the centered
        # words has mean 0, so the definition route expands them in full
        e = self.E
        rng = random.Random(repr(entries))
        tables = {
            lbl: CumulantTable.from_moments(
                CLASSICAL if e.diagonal(lbl) else FREE,
                [F(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 20)) for _ in range(12)],
            )
            for lbl in range(5)
        }
        value = mixed_moment_by_definition(entries, e, tables)
        assert value == mixed_moment_cumulant(entries, e, tables)

    def test_one_cap_for_both_evaluators(self):
        entries = (0, 2) * 6
        tables = {lbl: arcsine_table(FREE, 12) for lbl in (0, 2)}
        e = cycle_graph_matrix(5)
        assert mixed_moment_by_definition(entries, e, tables) == F(400)


def per_partition_sum(entries, e, tables):
    """kappa_pi summed over every partition below the kernel that
    is_epsilon_noncrossing accepts: generate-and-test."""
    members = [p for p in partitions_below_kernel(entries) if is_epsilon_noncrossing(p, entries, e)]
    return sum((kappa_pi(p, entries, tables) for p in members), F(0))


def folded_states(monkeypatch):
    """The (labels, gaps) of every state noncrossing_sum folds or steps
    past, in order: it asks for each one's eligible points once."""
    states = []

    def spy(lab, gaps):
        states.append((lab, gaps))
        return eligible_points(lab, gaps)

    monkeypatch.setattr("epsindep.ncpartitions.eligible_points", spy)
    return states


# the 5-cycle of the moment benchmark: neighbours free, x3 (label 2) classical
CYCLE5 = EpsilonMatrix(
    5, [(a, b) for a, b in combinations(range(5), 2) if cycle_graph_matrix(5).eps(a, b)], diag=[0, 0, 1, 0, 0]
)


class TestFoldSteps:
    """noncrossing_sum's two shortcuts: a first point with no eligible
    partner is its kappa_1 times the rest, and a join whose pending gap
    bars the open segment's labels still to come closes it."""

    @pytest.mark.parametrize("kappa_1", [F(0), F(3, 2)], ids=["kappa_1=0", "kappa_1=3/2"])
    @pytest.mark.parametrize("diag", [0, 1], ids=["free", "classical"])
    def test_first_point_behind_a_barring_gap(self, kappa_1, diag, monkeypatch):
        # x (label 1) is free with b (label 0), y (label 2) independent of
        # it; b's block {1,4} marks the gap between y(3) and y(5) with
        # against[b], which bars x but not y, so the segment x,y,y,x stays
        # one state whose first x has no eligible partner behind that gap
        e = EpsilonMatrix(3, [(0, 2)], diag=[0, diag, 0])
        tables = {
            0: CumulantTable(FREE, [1, F(1, 2)]),
            1: CumulantTable(CLASSICAL if diag else FREE, [kappa_1, 2]),
            2: CumulantTable(FREE, [F(-1, 3), F(-2, 3)]),
        }
        entries = (0, 1, 2, 0, 2, 1)
        states = folded_states(monkeypatch)
        value = mixed_moment_cumulant(entries, e, tables)
        monkeypatch.undo()
        assert value == cumulant_by_first_blocks(entries, e, tables) == per_partition_sum(entries, e, tables)
        assert ((1, 2, 2, 1), (0, 1 << 1, 0)) in states
        # the state left without the first x is trimmed again: x no longer
        # lies on the left of the barring gap
        assert (((2, 2, 1), (0, 0)) in states) == bool(kappa_1)
        assert all(gaps == trim_gaps(lab, gaps) for lab, gaps in states)

    @pytest.mark.parametrize(
        "entries", [(0,) * 8, (0, 1, 0, 0, 1, 0), (2,) * 8, (0, 2, 0, 0, 2, 0, 0, 2)],
        ids=["x1^8", "x1,x2,x1,x1,x2,x1", "x3^8", "x1,x3,x1,x1,x3,x1,x1,x3"],
    )
    @pytest.mark.parametrize("law", ["arcsine", "random"])
    def test_runs_of_joins_with_kept_points_between(self, entries, law):
        # x1 free: every join of x1 marks its gap with x1 and so bars the
        # segment's x1 points still to come; x3 classical marks nothing of
        # its own label
        rng = random.Random(repr((entries, law)))
        n = len(entries)
        tables = {}
        for lbl in set(entries):
            kind = CLASSICAL if CYCLE5.diagonal(lbl) else FREE
            if law == "arcsine":
                moments = arcsine_moments(n)
            else:
                moments = [F(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(n)]
            tables[lbl] = CumulantTable.from_moments(kind, moments)
        value = mixed_moment_cumulant(entries, CYCLE5, tables)
        assert value == cumulant_by_first_blocks(entries, CYCLE5, tables)
        assert value == per_partition_sum(entries, CYCLE5, tables)
        if law == "arcsine" and len(set(entries)) == 1:
            assert value == tables[entries[0]].moment(n)

    def test_every_folded_state_is_trimmed(self, monkeypatch):
        # a canonical state shares one memo entry with every equal one
        rng = random.Random(37)
        states = folded_states(monkeypatch)
        for _ in range(60):
            n = rng.randint(4, 9)
            entries = tuple(rng.randrange(5) for _ in range(n))
            tables = random_tables(rng, CYCLE5, n)
            mixed_moment_cumulant(entries, CYCLE5, tables)
        assert states and all(gaps == trim_gaps(lab, gaps) for lab, gaps in states)


class TestOneLabelTuple:
    @pytest.mark.parametrize("diag", [0, 1], ids=["free", "classical"])
    def test_kernel_is_a_member_and_shortcut_gives_m_n(self, diag):
        # one label is one kernel block, which crosses nothing
        e = EpsilonMatrix(3, [(0, 2)], diag=[diag, 0, 1])
        rng = random.Random(diag)
        moments = [F(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(9)]
        table = CumulantTable.from_moments(e.kind(0), moments)
        for n in range(1, 10):
            entries = (0,) * n
            assert kernel_noncrossing(entries, e) is True
            assert factorization_shortcut(entries, e, {0: table}) == table.moment(n) == moments[n - 1]

