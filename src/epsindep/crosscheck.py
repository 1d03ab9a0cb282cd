"""Cross-validation suites: the two membership definitions, the two
moment evaluators, and the group-model oracle, run against each other.

Instances are deduplicated up to relabeling: a tuple together with the
restriction of the matrix to its labels determines every result, so each
canonical (tuple, restricted matrix) pair is checked once.
"""

import random
from fractions import Fraction
from itertools import product

from .cumulants import CLASSICAL, FREE, CumulantTable, arcsine_table
from .epsilon import EpsilonMatrix
from .graphgroup import generator_mixed_moment
from .moments import (
    factorization_shortcut,
    mixed_moment_by_definition,
    mixed_moment_cumulant,
    moments_from_tables,
)
from .ncpartitions import is_epsilon_noncrossing, reduction_membership
from .partitions import kernel, partitions_of_set, SetPartition


def canonical_instance(entries, e):
    """Relabel a tuple by first occurrence and restrict the matrix to the
    labels it uses; results are invariant under this renaming."""
    order = []
    for v in entries:
        if v not in order:
            order.append(v)
    relabel = {v: k for k, v in enumerate(order)}
    new_entries = tuple(relabel[v] for v in entries)
    k = len(order)
    pairs = [
        (a, b)
        for a in range(k)
        for b in range(a + 1, k)
        if e.eps(order[a], order[b]) == 1
    ]
    diag = [e.diagonal(v) for v in order]
    return new_entries, EpsilonMatrix(k, pairs, diag=diag)


def all_tuples(nlabels, max_n, min_n=1):
    for n in range(min_n, max_n + 1):
        yield from product(range(nlabels), repeat=n)


def canonical_instances(e, max_n, seen=None):
    """The canonical (tuple, restricted matrix) pairs of the tuples up to
    max_n, each once; seen holds the keys already checked and is extended."""
    seen = set() if seen is None else seen
    for entries in all_tuples(e.size, max_n):
        canon, ce = canonical_instance(entries, e)
        key = (canon, ce.key())
        if key not in seen:
            seen.add(key)
            yield canon, ce


def partitions_below_kernel(entries):
    """All partitions refining the kernel of the tuple."""
    ker = kernel(entries)
    per_block = [partitions_of_set(b) for b in ker.blocks]
    n = len(entries)
    for combo in product(*per_block):
        yield SetPartition(n, [blk for part in combo for blk in part])


class CheckResult:
    def __init__(self, name):
        self.name = name
        self.cases = 0
        self.failures = 0
        self.examples = []

    def record(self, ok, detail=None):
        self.cases += 1
        if not ok:
            self.failures += 1
            if detail is not None and len(self.examples) < 5:
                self.examples.append(detail)

    def to_json(self):
        out = {"name": self.name, "cases": self.cases, "failures": self.failures}
        if self.examples:
            out["examples"] = self.examples
        return out


def membership_equivalence_check(e, max_n, seen=None):
    """Pairwise-crossing characterization vs reduce-to-empty search, for
    every partition below the kernel of every tuple up to max_n.  One
    reduction cache serves the whole check."""
    result = CheckResult("membership_equivalence")
    cache = {}
    for canon, ce in canonical_instances(e, max_n, seen):
        for p in partitions_below_kernel(canon):
            fast = is_epsilon_noncrossing(p, canon, ce)
            slow = reduction_membership(p, canon, ce, cache)
            result.record(
                fast == slow,
                detail={"tuple": list(canon), "partition": p.to_json(), "fast": fast, "slow": slow},
            )
    return result


def _random_tables(rng, e, entries, max_num=20, max_den=20):
    """Random moments of order len(entries) for every label, drawn in label
    order; tables only for the labels of the tuple."""
    tables = {}
    for label in range(e.size):
        moments = [
            Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
            for _ in range(len(entries))
        ]
        if label in entries:
            kind = CLASSICAL if e.diagonal(label) == 1 else FREE
            tables[label] = CumulantTable.from_moments(kind, moments)
    return tables


def evaluator_equivalence_check(e, max_n, rng, instances=200, corrupt=False):
    """Cumulant-formula evaluator vs definition-based centering recursion
    on random tuples with random rational moment data."""
    result = CheckResult("evaluator_equivalence")
    for _ in range(instances):
        n = rng.randint(1, max_n)
        entries = tuple(rng.randrange(e.size) for _ in range(n))
        tables = _random_tables(rng, e, entries)
        moments = moments_from_tables(tables)
        if corrupt:
            lbl = entries[0]
            moments[lbl] = list(moments[lbl])
            moments[lbl][-1] += 1
        a = mixed_moment_cumulant(entries, e, tables)
        b = mixed_moment_by_definition(entries, e, moments)
        result.record(
            a == b,
            detail={"tuple": list(entries), "cumulant": str(a), "definition": str(b)},
        )
    return result


def _arcsine_tables(entries, e, arcsine):
    """Arcsine tables of order max(n, 2) for the labels of a tuple, taken
    from (and added to) arcsine, a dict keyed by (kind, order)."""
    order = max(len(entries), 2)
    tables = {}
    for lbl in set(entries):
        key = (CLASSICAL if e.diagonal(lbl) == 1 else FREE, order)
        if key not in arcsine:
            arcsine[key] = arcsine_table(*key)
        tables[lbl] = arcsine[key]
    return tables


def group_model_check(e, max_n, seen=None, arcsine=None):
    """Trace of products of u+u^{-1} in the graph product group vs the
    cumulant formula with arcsine tables, for every tuple up to max_n.
    arcsine caches the tables by (kind, order) across calls."""
    result = CheckResult("group_model")
    arcsine = {} if arcsine is None else arcsine
    for canon, ce in canonical_instances(e, max_n, seen):
        tables = _arcsine_tables(canon, ce, arcsine)
        group_value = generator_mixed_moment(canon, ce)
        cumulant_value = mixed_moment_cumulant(canon, ce, tables)
        result.record(
            group_value == cumulant_value,
            detail={
                "tuple": list(canon),
                "group": str(group_value),
                "cumulant": str(cumulant_value),
            },
        )
    return result


def factorization_check(e, max_n, seen=None, arcsine=None):
    """Wherever the kernel is epsilon-non-crossing, the shortcut must
    agree with the cumulant evaluator (arcsine data, cached as in
    group_model_check)."""
    result = CheckResult("factorization")
    arcsine = {} if arcsine is None else arcsine
    for canon, ce in canonical_instances(e, max_n, seen):
        tables = _arcsine_tables(canon, ce, arcsine)
        short = factorization_shortcut(canon, ce, tables)
        if short is None:
            continue
        full = mixed_moment_cumulant(canon, ce, tables)
        result.record(
            short == full,
            detail={"tuple": list(canon), "shortcut": str(short), "full": str(full)},
        )
    return result


def run_crosscheck(e, max_n, seed=0, instances=200, corrupt=False):
    """The whole battery; returns (report dict, ok flag)."""
    rng = random.Random(seed)
    arcsine = {}
    checks = [
        membership_equivalence_check(e, min(max_n, 6)),
        evaluator_equivalence_check(e, min(max_n, 6), rng, instances, corrupt=corrupt),
        group_model_check(e, max_n, arcsine=arcsine),
        factorization_check(e, min(max_n, 6), arcsine=arcsine),
    ]
    report = {
        "max_n": max_n,
        "seed": seed,
        "checks": [c.to_json() for c in checks],
        "total_cases": sum(c.cases for c in checks),
        "total_failures": sum(c.failures for c in checks),
    }
    return report, report["total_failures"] == 0
