"""Cross-validation suites: the two membership definitions (pairwise
crossings, and reduce-to-empty by greedy removal of blocks that swaps can
bring together), the two moment evaluators, and the group-model oracle,
run against each other.

Instances are deduplicated up to relabeling: a tuple together with the
restriction of the matrix to its labels determines every result, so each
canonical (tuple, restricted matrix) pair is generated and checked once.
"""

import random
from fractions import Fraction
from itertools import permutations, product

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


def _restrict(e, order):
    """The matrix of e restricted to the labels in order, relabeled 0..k-1."""
    k = len(order)
    pairs = [
        (a, b)
        for a in range(k)
        for b in range(a + 1, k)
        if e.eps(order[a], order[b]) == 1
    ]
    return EpsilonMatrix(k, pairs, diag=[e.diagonal(v) for v in order])


def _restricted_growth_tuples(n, k):
    """The tuples of length n over the labels 0..k-1 in which each label
    first occurs after all smaller ones, in lexicographic order."""

    def extend(prefix, used):
        left = n - len(prefix)
        if used + left < k:
            return
        if left == 0:
            yield prefix
            return
        for v in range(min(used + 1, k)):
            yield from extend(prefix + (v,), max(used, v + 1))

    return extend((), 0)


def canonical_instances(e, max_n, seen=None):
    """The canonical (tuple, restricted matrix) pairs of the tuples up to
    max_n, each once, in order of the number of labels; seen holds the
    keys already checked and is extended.

    A canonical tuple over k labels is a restricted-growth tuple and its
    matrix is e restricted to some ordered choice of k labels, so the
    pairs are generated directly rather than by canonicalizing every one
    of the e.size**n tuples."""
    seen = set() if seen is None else seen
    for k in range(1, min(e.size, max_n) + 1):
        matrices = {}
        for order in permutations(range(e.size), k):
            ce = _restrict(e, order)
            matrices.setdefault(ce.key(), ce)
        tuples = [t for n in range(k, max_n + 1) for t in _restricted_growth_tuples(n, k)]
        for ce in matrices.values():
            for canon in tuples:
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
    """Pairwise-crossing characterization vs reduce-to-empty by greedy
    block removal (no cache, no crossing test), for every partition below
    the kernel of every tuple up to max_n."""
    result = CheckResult("membership_equivalence")
    for canon, ce in canonical_instances(e, max_n, seen):
        for p in partitions_below_kernel(canon):
            fast = is_epsilon_noncrossing(p, canon, ce)
            slow = reduction_membership(p, canon, ce)
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


def evaluator_equivalence_check(e, max_n, rng, instances=200, corrupt=False, cap=None):
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
        a = mixed_moment_cumulant(entries, e, tables, cap=cap)
        b = mixed_moment_by_definition(entries, e, moments, cap=cap)
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


def group_model_check(e, max_n, seen=None, arcsine=None, cap=None):
    """Trace of products of u+u^{-1} in the graph product group vs the
    cumulant formula with arcsine tables, for every tuple up to max_n.
    arcsine caches the tables by (kind, order) across calls."""
    result = CheckResult("group_model")
    arcsine = {} if arcsine is None else arcsine
    for canon, ce in canonical_instances(e, max_n, seen):
        tables = _arcsine_tables(canon, ce, arcsine)
        group_value = generator_mixed_moment(canon, ce, cap=cap)
        cumulant_value = mixed_moment_cumulant(canon, ce, tables, cap=cap)
        result.record(
            group_value == cumulant_value,
            detail={
                "tuple": list(canon),
                "group": str(group_value),
                "cumulant": str(cumulant_value),
            },
        )
    return result


def factorization_check(e, max_n, seen=None, arcsine=None, cap=None):
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
        full = mixed_moment_cumulant(canon, ce, tables, cap=cap)
        result.record(
            short == full,
            detail={"tuple": list(canon), "shortcut": str(short), "full": str(full)},
        )
    return result


def run_crosscheck(e, max_n, seed=0, instances=200, corrupt=False, cap=None):
    """The whole battery; returns (report dict, ok flag).  cap is the
    length limit of every evaluator call (the enumeration cap unless
    given)."""
    rng = random.Random(seed)
    arcsine = {}
    checks = [
        membership_equivalence_check(e, min(max_n, 6)),
        evaluator_equivalence_check(e, min(max_n, 6), rng, instances, corrupt=corrupt, cap=cap),
        group_model_check(e, max_n, arcsine=arcsine, cap=cap),
        factorization_check(e, min(max_n, 6), arcsine=arcsine, cap=cap),
    ]
    report = {
        "max_n": max_n,
        "seed": seed,
        "checks": [c.to_json() for c in checks],
        "total_cases": sum(c.cases for c in checks),
        "total_failures": sum(c.failures for c in checks),
    }
    return report, report["total_failures"] == 0
