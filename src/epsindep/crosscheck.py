"""Cross-validation suites: the two membership definitions (pairwise
crossings, and reduce-to-empty by greedy removal of blocks that swaps can
bring together), the two moment evaluators, and the group-model oracle,
run against each other.

Instances are deduplicated up to relabeling: a tuple together with the
restriction of the matrix to its labels determines every result, so each
canonical (tuple, restricted matrix) pair is generated once.  The battery
walks them tuple by tuple.  What depends on the tuple alone, its encoding,
its partitions below the kernel and each partition's crossings, is built
once per tuple, so a matrix costs the pairwise membership route one AND
per crossing label of a partition; the group trace, which ignores the
diagonal, once per commutation pattern of the tuple's matrices.  Each
instance's cumulant sum is computed once and handed to the per-instance
checks that need it.
"""

import random
from fractions import Fraction
from itertools import groupby, permutations, product
from operator import itemgetter

from .cumulants import CLASSICAL, FREE, CumulantTable, arcsine_table, format_fraction
from .epsilon import EpsilonMatrix
from .graphgroup import generator_mixed_moment
from .moments import factorization_shortcut, mixed_moment_by_definition, mixed_moment_cumulant
from .ncpartitions import bar_masks, crossings, crossings_allowed, encode, reduces_masks
# not called here: bench/worker.py wraps these three names in this module
from .moments import moments_from_tables  # noqa: F401
from .ncpartitions import is_epsilon_noncrossing, reduction_membership  # noqa: F401
from .partitions import partitions_of_set, restricted_growth


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


def canonical_instances(e, max_n, seen=None):
    """The canonical (tuple, restricted matrix) pairs of the tuples up to
    max_n, each once, in order of the number of labels, then by tuple, so
    a tuple's pairs are consecutive; seen holds the pairs already checked
    and is extended.

    A canonical tuple over k labels is a restricted-growth tuple and its
    matrix is e restricted to some ordered choice of k labels, so the
    pairs are generated directly rather than by canonicalizing every one
    of the e.size**n tuples."""
    seen = set() if seen is None else seen
    for k in range(1, min(e.size, max_n) + 1):
        matrices = dict.fromkeys(_restrict(e, order) for order in permutations(range(e.size), k))
        for n in range(k, max_n + 1):
            for canon in restricted_growth(n, k):
                for ce in matrices:
                    if (canon, ce) not in seen:
                        seen.add((canon, ce))
                        yield canon, ce


def mask_partitions_below_kernel(points, tables):
    """The list of all partitions refining the kernel of a tuple, given
    encode's points, each a list of (block bitmask, its label); tables
    maps a block size k to the partitions of range(k) and gains the sizes
    missing."""
    per_block = []
    for label, mask in points.items():
        bits = []  # the label's positions as one-bit masks, ascending
        while mask:
            bits.append(mask & -mask)
            mask &= mask - 1
        if len(bits) not in tables:
            tables[len(bits)] = partitions_of_set(range(len(bits)))
        per_block.append([[(sum(bits[i] for i in c), label) for c in q] for q in tables[len(bits)]])
    return [[blk for part in combo for blk in part] for combo in product(*per_block)]


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

    def compare(self, entries, name_a, a, name_b, b):
        """Record whether the rationals a and b agree; a failing case
        keeps the tuple and both values, as "p/q", under their names."""
        if a == b:
            self.record(True)
        else:
            detail = {"tuple": list(entries), name_a: format_fraction(a), name_b: format_fraction(b)}
            self.record(False, detail)

    def to_json(self):
        out = {"name": self.name, "cases": self.cases, "failures": self.failures}
        if self.examples:
            out["examples"] = self.examples
        return out


def membership_equivalence_check(result, entries, e, points, partitions):
    """Pairwise-crossing characterization vs reduce-to-empty by greedy
    block removal (no cache, no crossing test) under e, for every
    partition below the kernel of the tuple: points is encode(entries)
    and partitions pairs each partition of mask_partitions_below_kernel
    of it with its crossings, which do not depend on e."""
    against = e.against
    bars = bar_masks(against, points)
    for blocks, crossed in partitions:
        fast = crossings_allowed(crossed, against)
        slow = reduces_masks(blocks, bars, len(entries))
        if fast == slow:
            result.record(True)
        else:
            # the partition's canonical form: blocks ascending, by first point
            part = sorted([j + 1 for j in range(len(entries)) if m >> j & 1] for m, _ in blocks)
            detail = {"tuple": list(entries), "partition": part, "fast": fast, "slow": slow}
            result.record(False, detail)


def evaluator_equivalence_check(e, max_n, rng, instances, corrupt):
    """Cumulant-formula evaluator vs definition-based centering recursion
    on random tuples.  Each label of the tuple, in sorted order, draws one
    moment p/q (|p| <= 20, 1 <= q <= 20) per point, as far as any evaluator
    reads; corrupt raises the last, m_k, of entries[0]'s label by 1 for the
    definition route: the highest moment of that label the tuple reads."""
    result = CheckResult("evaluator_equivalence")
    for _ in range(instances):
        n = rng.randint(1, max_n)
        entries = tuple(rng.randrange(e.size) for _ in range(n))
        drawn, tables = {}, {}
        for label in sorted(set(entries)):
            k = entries.count(label)
            drawn[label] = [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(k)]
            tables[label] = CumulantTable.from_moments(e.kind(label), drawn[label])
        a = mixed_moment_cumulant(entries, e, tables)
        if corrupt:
            drawn[entries[0]][-1] += 1
            tables[entries[0]] = CumulantTable.from_moments(e.kind(entries[0]), drawn[entries[0]])
        b = mixed_moment_by_definition(entries, e, tables)
        result.compare(entries, "cumulant", a, "definition", b)
    return result


def group_model_check(result, entries, e, value, traces):
    """Trace of the product of u+u^{-1} in the graph product group vs
    value, the tuple's cumulant sum under e with arcsine tables.  The
    trace ignores the diagonal, so traces maps each commutation pattern
    (against with every label's own bit cleared) met for this tuple to
    its trace, and gains the pattern of e."""
    pattern = tuple(bar & ~(1 << a) for a, bar in enumerate(e.against))
    if pattern not in traces:
        traces[pattern] = generator_mixed_moment(entries, e)
    result.compare(entries, "group", traces[pattern], "cumulant", value)


def factorization_check(result, entries, e, tables, value):
    """Where the kernel is epsilon-non-crossing, the shortcut on tables
    vs value, the cumulant sum on the same tables."""
    short = factorization_shortcut(entries, e, tables)
    if short is not None:
        result.compare(entries, "shortcut", short, "full", value)


def run_crosscheck(e, max_n, seed=0, instances=200, corrupt=False):
    """The whole battery; returns (report dict, ok flag)."""
    rng = random.Random(seed)
    membership = CheckResult("membership_equivalence")
    evaluator = evaluator_equivalence_check(e, min(max_n, 6), rng, instances, corrupt=corrupt)
    group = CheckResult("group_model")
    factorization = CheckResult("factorization")
    # arcsine moments and cumulants of order n do not depend on the order
    # of the table, so one table per kind serves every instance
    arcsine = {kind: arcsine_table(kind, max(max_n, 2)) for kind in (FREE, CLASSICAL)}
    rgs = {}  # block size -> its set partitions, for the membership check
    for entries, pairs in groupby(canonical_instances(e, max_n), key=itemgetter(0)):
        checked = len(entries) <= 6  # by membership and factorization
        if checked:
            points = encode(entries)
            partitions = [(p, crossings(p)) for p in mask_partitions_below_kernel(points, rgs)]
        traces = {}  # this tuple's traces by commutation pattern
        for _, ce in pairs:
            tables = {lbl: arcsine[ce.kind(lbl)] for lbl in set(entries)}
            value = mixed_moment_cumulant(entries, ce, tables)
            group_model_check(group, entries, ce, value, traces)
            if checked:
                membership_equivalence_check(membership, entries, ce, points, partitions)
                factorization_check(factorization, entries, ce, tables, value)
    checks = [membership, evaluator, group, factorization]
    report = {
        "max_n": max_n,
        "seed": seed,
        "checks": [c.to_json() for c in checks],
        "total_cases": sum(c.cases for c in checks),
        "total_failures": sum(c.failures for c in checks),
    }
    return report, report["total_failures"] == 0
