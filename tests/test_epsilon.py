import random
from itertools import combinations, product

import pytest

from epsindep import (
    DomainError,
    EpsilonMatrix,
    InputError,
    complete_graph_matrix,
    cycle_graph_matrix,
    empty_graph_matrix,
    is_admissible_tuple,
)


def all_matrices(size, diag=None):
    pairs = list(combinations(range(size), 2))
    for mask in range(1 << len(pairs)):
        chosen = [p for k, p in enumerate(pairs) if mask >> k & 1]
        yield EpsilonMatrix(size, chosen, diag=diag)


class TestConstruction:
    def test_pure_freeness(self):
        e = EpsilonMatrix.from_edge_list(2, [])
        assert e.eps(0, 1) == 0 and e.eps(1, 0) == 0

    def test_pure_independence(self):
        e = EpsilonMatrix.from_edge_list(2, [(0, 1)])
        assert e.eps(0, 1) == 1 and e.eps(1, 0) == 1
        assert e.diagonal(0) == 0

    def test_five_cycle(self):
        # free exactly on the cycle edges, independent elsewhere
        e = cycle_graph_matrix(5)
        cycle = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)}
        for a in range(5):
            for b in range(5):
                if a == b:
                    continue
                on_cycle = (a, b) in cycle or (b, a) in cycle
                assert e.eps(a, b) == (0 if on_cycle else 1)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            EpsilonMatrix.from_edge_list(2, [(0, 2)])
        with pytest.raises(DomainError):
            EpsilonMatrix.from_edge_list(2, [(1, 1)])

    def test_symmetry_everywhere(self):
        for e in all_matrices(3):
            for a in range(3):
                for b in range(3):
                    assert e.eps(a, b) == e.eps(b, a)

    def test_json_round_trip(self):
        data = {
            "labels": ["x", "y", "z"],
            "independent_pairs": [["x", "z"]],
            "diagonal": {"y": 1},
        }
        e = EpsilonMatrix.from_json(data)
        assert e.eps(0, 2) == 1 and e.eps(0, 1) == 0
        assert e.diagonal(1) == 1 and e.diagonal(0) == 0
        again = EpsilonMatrix.from_json(e.to_json())
        assert again == e

    def test_json_errors(self):
        with pytest.raises(InputError):
            EpsilonMatrix.from_json({"labels": ["a", "a"]})
        with pytest.raises(InputError):
            EpsilonMatrix.from_json({"labels": ["a"], "independent_pairs": [["a", "a"]]})
        with pytest.raises(InputError):
            EpsilonMatrix.from_json({"labels": ["a"], "independent_pairs": [["a", "b"]]})

    @pytest.mark.parametrize(
        "spec",
        [
            {"labels": ["a", "b"], "independent_pairs": [5]},
            {"labels": ["a", "b"], "independent_pairs": ["ab"]},
            {"labels": ["a", "b"], "independent_pairs": [[["a"], "b"]]},
            {"labels": ["a", "b"], "diagonal": [0, 1]},
            {"labels": [["a"], "b"]},
        ],
    )
    def test_malformed_spec(self, spec):
        with pytest.raises(InputError):
            EpsilonMatrix.from_json(spec)


class TestAdmissibility:
    def test_separator_present(self):
        assert is_admissible_tuple((0, 1, 0), empty_graph_matrix(2))

    def test_no_free_separator(self):
        assert not is_admissible_tuple((0, 1, 0), complete_graph_matrix(2))

    def test_adjacent_equal(self):
        for e in all_matrices(2):
            assert not is_admissible_tuple((0, 0), e)

    def test_distinct_labels_always_admissible(self):
        for e in all_matrices(4):
            assert is_admissible_tuple((0, 1, 2, 3), e)

    def test_all_free_means_no_equal_neighbours(self):
        e = empty_graph_matrix(3)
        for n in range(1, 6):
            for entries in product(range(3), repeat=n):
                expected = all(a != b for a, b in zip(entries, entries[1:]))
                assert is_admissible_tuple(entries, e) == expected

    def test_swap_invariance_three_labels_exhaustive(self):
        for e in all_matrices(3):
            for n in range(2, 7):
                for entries in product(range(3), repeat=n):
                    base = is_admissible_tuple(entries, e)
                    for k in range(n - 1):
                        if e.eps(entries[k], entries[k + 1]) != 1:
                            continue
                        swapped = (
                            entries[:k]
                            + (entries[k + 1], entries[k])
                            + entries[k + 2 :]
                        )
                        assert is_admissible_tuple(swapped, e) == base

    def test_swap_invariance_four_labels_random(self):
        rng = random.Random(7)
        mats = list(all_matrices(4))
        for _ in range(400):
            e = rng.choice(mats)
            n = rng.randint(2, 6)
            entries = tuple(rng.randrange(4) for _ in range(n))
            base = is_admissible_tuple(entries, e)
            for k in range(n - 1):
                if e.eps(entries[k], entries[k + 1]) == 1:
                    swapped = (
                        entries[:k] + (entries[k + 1], entries[k]) + entries[k + 2 :]
                    )
                    assert is_admissible_tuple(swapped, e) == base
