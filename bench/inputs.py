"""Seeded inputs for the three workloads, and the case counts the
crosscheck gate expects.  Pure standard library: nothing here imports
epsindep, so the expected counts do not come from the code under test.

Every input is a function of (workload, seed, index) alone, so a run that
stops after k queries has used exactly the first k inputs of the seed's
stream, whatever the speed of the code.
"""

import random
from itertools import product

KERNEL_HEAVY = "moment-kernel-heavy"
MANY_LABELS = "moment-many-labels"
BATTERY = "crosscheck-battery"
WORKLOADS = (KERNEL_HEAVY, MANY_LABELS, BATTERY)

LABELS = ("x1", "x2", "x3", "x4", "x5")
SIZE = len(LABELS)

# crosscheck arguments; --instances is passed explicitly so that the
# evaluator case count the gate expects is not a hidden default
BATTERY_MAX_N = 5
BATTERY_INSTANCES = 200
# (independent pairs, classical labels) of the battery's two mixed-diagonal
# graphs: the first two draws with 900-1300 canonical instances from a
# stream where each pair is independent with probability 1/2 and two random
# labels are classical.  They have 1038 and 1128 instances.
BASE_GRAPHS = (
    ([(1, 3), (1, 4), (2, 3), (2, 4)], (1, 2)),
    ([(0, 3), (1, 2), (2, 4)], (1, 4)),
)

ARCSINE_DIST = {name: {"named": "arcsine"} for name in LABELS}
MANY_LABELS_MOMENTS = 10  # covers the longest many-labels tuple


def cycle_pairs():
    """Independent pairs of cycle_graph_matrix(5): every pair that is not
    an edge of the 5-cycle."""
    return [(a, b) for a in range(SIZE) for b in range(a + 1, SIZE) if (b - a) % SIZE not in (1, SIZE - 1)]


def graph_spec(pairs, classical=()):
    """Graph file contents in the CLI's schema."""
    return {
        "labels": list(LABELS),
        "independent_pairs": [[LABELS[a], LABELS[b]] for a, b in pairs],
        "diagonal": {LABELS[k]: 1 for k in sorted(classical)},
    }


# the moment workloads: 5-cycle with x3 on the classical diagonal
MOMENT_GRAPH = graph_spec(cycle_pairs(), classical=(2,))


def moment_query(workload, seed, index):
    """(entries, distribution) of query `index`; entries are label
    indices, distribution is None when the shared arcsine file is used.

    Lengths cycle with the index, so every prefix of the stream has the
    same length mix."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == KERNEL_HEAVY:
        if index % 4:
            # three queries in four use one label; each (length, label)
            # pair comes once per 20 of them, so the costliest queries
            # enter every run in the same share and the p50 and p90 fall
            # inside groups of like cost, not in the gaps between them
            j = 3 * (index // 4) + index % 4 - 1
            return (j % SIZE,) * (6 + j % 4), None
        pair = rng.sample(range(SIZE), 2)
        return tuple(rng.choice(pair) for _ in range(6 + index // 4 % 4)), None
    n = 7 + index % 4
    while True:
        entries = tuple(rng.randrange(SIZE) for _ in range(n))
        if admissible_class(admissible_length(entries, cycle_pairs())) == many_labels_class(index):
            break
    dist = {
        name: {
            "moments": [f"{rng.randint(-20, 20)}/{rng.randint(1, 20)}" for _ in range(MANY_LABELS_MOMENTS)]
        }
        for name in LABELS
    }
    return entries, dist


def admissible_length(entries, pairs):
    """Factors left after merging equal labels that only labels
    independent of them separate: the word the definition recursion
    expands, whose cost doubles with each factor."""
    indep = {frozenset(p) for p in pairs}
    labels = list(entries)
    merged = True
    while merged:
        merged = False
        for k in range(len(labels)):
            for l in range(k + 1, len(labels)):
                if labels[l] == labels[k]:
                    del labels[l]
                    merged = True
                    break
                if frozenset((labels[k], labels[l])) not in indep:
                    break
            if merged:
                break
    return len(labels)


def admissible_class(length):
    return length if length >= 9 else None


def many_labels_class(index):
    """The admissible-length class query `index` must have: 10 once and 9
    five times per 100 queries, about their natural rates, spread evenly
    so that the rare costly queries enter every run in the same share.
    All of these indices have length 10."""
    if index % 100 == 3:
        return 10
    if index % 20 == 7:
        return 9
    return None


def canonical_instances(pairs, classical, max_n=BATTERY_MAX_N):
    """Distinct (tuple, restricted matrix) pairs up to relabeling by first
    occurrence, over all tuples of length 1..max_n; the crosscheck battery
    checks each once."""
    indep = {frozenset(p) for p in pairs}
    seen = set()
    for n in range(1, max_n + 1):
        for entries in product(range(SIZE), repeat=n):
            order = list(dict.fromkeys(entries))
            relabel = {v: k for k, v in enumerate(order)}
            restricted = tuple(
                1 if frozenset((order[a], order[b])) in indep else 0
                for a in range(len(order))
                for b in range(a + 1, len(order))
            )
            diag = tuple(1 if v in classical else 0 for v in order)
            seen.add((tuple(relabel[v] for v in entries), restricted, diag))
    return [inst[0] for inst in seen]


def bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def candidates(entries):
    """Partitions below the kernel of a tuple: the product of Bell numbers
    of the kernel block sizes."""
    total = 1
    for label in set(entries):
        total *= bell(entries.count(label))
    return total


def expected_cases(pairs, classical):
    """Per-check case counts of `epsindep crosscheck --max-n 5`."""
    instances = canonical_instances(pairs, classical)
    return {
        "membership_equivalence": sum(candidates(t) for t in instances),
        "evaluator_equivalence": BATTERY_INSTANCES,
        "group_model": len(instances),
    }


def battery_graphs(seed, battery):
    """The graphs of one battery: the plain 5-cycle (all free) and the two
    BASE_GRAPHS under a seeded random relabeling.

    Relabeling changes the graph files, the order in which the battery
    meets its instances and the evaluator's random tuples, but not the set
    of canonical instances, so every battery does the same amount of
    checking; random graphs drawn afresh made the battery's cost swing by
    +-20 % from seed to seed.

    Returns a list of (graph spec, crosscheck seed, expected case counts)."""
    rng = random.Random(f"{BATTERY}:{seed}:{battery}")
    graphs = [(cycle_pairs(), ())]
    for pairs, classical in BASE_GRAPHS:
        perm = rng.sample(range(SIZE), SIZE)
        graphs.append((
            sorted(tuple(sorted((perm[a], perm[b]))) for a, b in pairs),
            tuple(sorted(perm[k] for k in classical)),
        ))
    return [
        (graph_spec(pairs, classical), rng.randrange(1 << 30), expected_cases(pairs, classical))
        for pairs, classical in graphs
    ]
