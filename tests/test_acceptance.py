"""Acceptance battery.  Every criterion is exact (zero tolerance) and
prints one PASS/FAIL line; instances are deduplicated up to relabeling
(the canonical tuple plus the matrix restricted to its labels determines
every result).
"""

import math
import random
from fractions import Fraction
from itertools import combinations, product

from epsindep import (
    CumulantTable,
    EpsilonMatrix,
    enumerate_nc_epsilon,
    factorization_shortcut,
    generator_mixed_moment,
    is_admissible_tuple,
    mixed_moment_by_definition,
    mixed_moment_cumulant,
)
from epsindep.crosscheck import (
    CheckResult,
    canonical_instances,
    mask_partitions_below_kernel,
    membership_equivalence_check,
)
from epsindep.cumulants import CLASSICAL, FREE, arcsine_table
from epsindep.ncpartitions import crossings, encode
from oracles import (
    all_matrices,
    bell_numbers,
    catalan_numbers,
    complete_graph_matrix,
    cycle_graph_matrix,
    empty_graph_matrix,
    enumerate_noncrossing,
    kernel,
    product_as_arguments_check,
    random_joint_oracle,
    refines,
    semicircle_table,
)
from test_ncpartitions import partitions_below_kernel

F = Fraction


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def random_matrix(rng, size, with_diag=False):
    pairs = [p for p in combinations(range(size), 2) if rng.random() < 0.5]
    diag = [rng.randint(0, 1) for _ in range(size)] if with_diag else None
    return EpsilonMatrix(size, pairs, diag=diag)


_ARCSINE_CACHE = {}


def arcsine_tables_for(entries, e):
    n = max(len(entries), 2)
    tables = {}
    for lbl in set(entries):
        kind = CLASSICAL if e.diagonal(lbl) == 1 else FREE
        key = (kind, n)
        if key not in _ARCSINE_CACHE:
            _ARCSINE_CACHE[key] = arcsine_table(kind, n)
        tables[lbl] = _ARCSINE_CACHE[key]
    return tables


def test_criterion_1_definition_equivalence():
    """Reduce-to-empty search agrees with the pairwise characterization."""
    seen = set()
    res = CheckResult("membership_equivalence")
    tables = {}
    rng = random.Random(20260823)
    graphs = list(all_matrices(3)) + [random_matrix(rng, 4) for _ in range(200)]
    for e in graphs:
        for entries, ce in canonical_instances(e, 6, seen):
            points = encode(entries)
            partitions = [(p, crossings(p)) for p in mask_partitions_below_kernel(points, tables)]
            membership_equivalence_check(res, entries, ce, points, partitions)
    cases = res.cases
    report("1 definition-equivalence", res.failures == 0 and cases > 0, f"{cases} cases")


def test_criterion_2_evaluator_equivalence():
    """Cumulant formula equals the definition-based centering recursion."""
    cases = failures = 0
    rng = random.Random(2)
    for _ in range(1000):
        size = rng.randint(2, 4)
        e = random_matrix(rng, size, with_diag=True)
        n = rng.randint(1, 6)
        entries = tuple(rng.randrange(size) for _ in range(n))
        tables = {}
        for lbl in range(size):
            moments = [
                F(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(n)
            ]
            kind = CLASSICAL if e.diagonal(lbl) == 1 else FREE
            tables[lbl] = CumulantTable.from_moments(kind, moments)
        a = mixed_moment_cumulant(entries, e, tables)
        b = mixed_moment_by_definition(entries, e, tables)
        cases += 1
        failures += a != b
    # exhaustive semicircle instances
    seen = set()
    sc6 = semicircle_table(1, 6)
    for e in all_matrices(3):
        for entries, ce in canonical_instances(e, 6, seen):
            tables = {lbl: sc6 for lbl in set(entries)}
            a = mixed_moment_cumulant(entries, ce, tables)
            b = mixed_moment_by_definition(entries, ce, tables)
            cases += 1
            failures += a != b
    report("2 evaluator-equivalence", failures == 0, f"{cases} cases")


def test_criterion_3_group_model():
    """Group-product trace of products of u + u^-1 equals the cumulant
    formula with arcsine tables, tuples up to length 8 over <= 4 labels."""
    rng = random.Random(3)
    graphs = [cycle_graph_matrix(5), empty_graph_matrix(4), complete_graph_matrix(4)]
    graphs += [random_matrix(rng, rng.randint(3, 5)) for _ in range(50)]
    seen = set()
    cases = failures = 0
    for g in graphs:
        for entries, ce in canonical_instances(g, 8, seen):
            if max(entries) >= 4:
                break  # instances come in order of label count
            group_value = generator_mixed_moment(entries, ce)
            cumulant_value = mixed_moment_cumulant(
                entries, ce, arcsine_tables_for(entries, ce)
            )
            cases += 1
            failures += group_value != cumulant_value
    report("3 group-model", failures == 0 and cases > 0, f"{cases} cases")


def test_criterion_4_extreme_cases():
    """Fourth moment of a sum of two standard semicirculars, free vs
    independent, plus the all-zero / all-one set identities."""
    sc = semicircle_table(1, 4)
    tabs = {0: sc, 1: sc}
    # independent oracles first: semicircle moments by pairing counts
    pairings4 = [
        p for p in enumerate_noncrossing(4) if all(len(b) == 2 for b in p)
    ]
    free_expected = F(sum(2 ** len(p) for p in pairings4))  # var-2 semicircle
    sc_moments = [F(0), F(1), F(0), F(2)]
    padded = [F(1)] + sc_moments
    indep_expected = sum(
        math.comb(4, k) * padded[k] * padded[4 - k] for k in range(5)
    )
    assert free_expected == F(8) and indep_expected == F(10)
    failures = 0
    for e, expected in ((empty_graph_matrix(2), F(8)), (complete_graph_matrix(2), F(10))):
        main = sum(
            mixed_moment_cumulant(t, e, tabs) for t in product((0, 1), repeat=4)
        )
        by_def = sum(
            mixed_moment_by_definition(t, e, tabs)
            for t in product((0, 1), repeat=4)
        )
        failures += not (main == by_def == expected)
    report("4a sum-of-semicirculars", failures == 0)

    # all-zero eps: the set is the non-crossing partitions below the kernel
    cases = failures = 0
    for nlabels in (2, 3):
        for entries, cz in canonical_instances(empty_graph_matrix(nlabels), 6):
            ker = kernel(entries)
            expected = sorted(
                p for p in enumerate_noncrossing(len(entries)) if refines(p, ker)
            )
            cases += 1
            failures += enumerate_nc_epsilon(entries, cz) != expected
        for entries, co in canonical_instances(complete_graph_matrix(nlabels), 6):
            ker = kernel(entries)
            got = set(enumerate_nc_epsilon(entries, co))
            expected_set = {
                q
                for q in partitions_below_kernel(entries)
                if all(_restricted_noncrossing(q, b) for b in ker)
            }
            cases += 1
            failures += got != expected_set
    report("4b set-identities", failures == 0, f"{cases} cases")


def _restricted_noncrossing(q, positions):
    """The blocks of q inside the given position set form a non-crossing
    partition of that set (after order-preserving renumbering)."""
    from oracles import is_noncrossing

    rank = {x: r + 1 for r, x in enumerate(sorted(positions))}
    return is_noncrossing(tuple(tuple(rank[x] for x in b) for b in q if b[0] in rank))


def test_criterion_5_counting_identities():
    cat = catalan_numbers(8)
    bell = bell_numbers(8)
    free_e = EpsilonMatrix(1, [], diag=[0])
    classical_e = EpsilonMatrix(1, [], diag=[1])
    failures = 0
    for n in range(9):
        failures += len(enumerate_nc_epsilon((0,) * n, free_e)) != cat[n]
        failures += len(enumerate_nc_epsilon((0,) * n, classical_e)) != bell[n]
    report("5 counting-identities", failures == 0, "n <= 8")


def test_criterion_6_factorization():
    """Wherever the kernel is a member, the shortcut equals the full sum."""
    rng = random.Random(6)
    seen = set()
    cases = failures = 0
    for e in all_matrices(3):
        for entries, ce in canonical_instances(e, 6, seen):
            n = len(entries)
            tables = {}
            for lbl in set(entries):
                moments = [
                    F(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(n)
                ]
                kind = CLASSICAL if ce.diagonal(lbl) == 1 else FREE
                tables[lbl] = CumulantTable.from_moments(kind, moments)
            short = factorization_shortcut(entries, ce, tables)
            if short is None:
                continue
            cases += 1
            failures += short != mixed_moment_cumulant(entries, ce, tables)
    report("6 factorization", failures == 0 and cases > 0, f"{cases} cases")


def test_criterion_7_products_as_arguments():
    rng = random.Random(7)
    cases = failures = 0
    for _ in range(200):
        nvars = rng.randint(2, 4)
        oracle = random_joint_oracle(rng, nvars)
        p = rng.randint(0, 4)
        rest = tuple(rng.randrange(nvars) for _ in range(p))
        first = (rng.randrange(nvars), rng.randrange(nvars))
        cases += 1
        failures += not product_as_arguments_check(p, oracle, first=first, rest=rest)
    report("7 products-as-arguments", failures == 0, f"{cases} cases")


def test_criterion_8_vanishing_condition():
    """Centered variables over admissible tuples have zero mixed moment."""
    rng = random.Random(8)
    seen = set()
    cases = failures = 0
    for e in all_matrices(3):
        for entries, ce in canonical_instances(e, 6, seen):
            if not is_admissible_tuple(entries, ce):
                continue
            n = len(entries)
            tables = {}
            for lbl in set(entries):
                moments = [F(0)] + [
                    F(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(n - 1)
                ]
                kind = CLASSICAL if ce.diagonal(lbl) == 1 else FREE
                tables[lbl] = CumulantTable.from_moments(kind, moments)
            cases += 1
            value = mixed_moment_cumulant(entries, ce, tables)
            by_def = mixed_moment_by_definition(entries, ce, tables)
            failures += not (value == by_def == F(0))
    report("8 vanishing-condition", failures == 0 and cases > 0, f"{cases} cases")
