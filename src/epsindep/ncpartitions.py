"""Membership and enumeration for the epsilon-non-crossing partition sets.

Membership has two routes: the polynomial pairwise-crossing
characterization (production path) and the reduce-to-empty search over
interval-block removals and allowed adjacent swaps (verification oracle).

Enumeration is a depth-first search over positions that never produces a
non-member: each point joins an earlier block of its label or opens a new
block, and a join is pruned the moment it would complete a crossing
between two blocks whose labels are not independent.  Filtering every
partition below the kernel through is_epsilon_noncrossing
(generate-and-test) is the reference the tests compare it against.
"""

from collections import deque

from .errors import DimensionMismatchError, DomainError
from .partitions import (
    SetPartition,
    _check_cap,
    blocks_cross,
    kernel,
    partitions_of_set,  # noqa: F401 -- not called; bench/worker.py wraps it
    refines,
)


def is_epsilon_noncrossing(p, entries, e):
    """True iff p refines the kernel of the tuple and every crossing
    between two blocks happens between independent (eps = 1) labels."""
    if p.n != len(entries):
        raise DimensionMismatchError(f"partition size {p.n} != tuple length {len(entries)}")
    e.check_tuple(entries)
    ker = kernel(entries)
    if not refines(p, ker):
        return False
    nb = len(p.blocks)
    for a in range(nb):
        la = entries[p.blocks[a][0] - 1]
        for b in range(a + 1, nb):
            lb = entries[p.blocks[b][0] - 1]
            if e.eps(la, lb) == 1:
                continue
            if blocks_cross(p, a, b):
                return False
    return True


def _interval_removals(blocks, labels):
    """Successor states obtained by deleting one block of consecutive points."""
    for idx, b in enumerate(blocks):
        if b[-1] - b[0] != len(b) - 1:
            continue
        lo, hi = b[0], b[-1]
        width = hi - lo + 1
        new_blocks = []
        for j, other in enumerate(blocks):
            if j == idx:
                continue
            new_blocks.append(tuple(x if x < lo else x - width for x in other))
        new_labels = labels[: lo - 1] + labels[hi:]
        yield _canon(new_blocks), new_labels


def _swaps(blocks, labels, e):
    """Successor states from exchanging adjacent points k, k+1 with eps=1."""
    n = len(labels)
    for k in range(1, n):  # swap points k and k+1 (1-based)
        if e.eps(labels[k - 1], labels[k]) != 1:
            continue
        new_blocks = []
        for b in blocks:
            nb = []
            for x in b:
                if x == k:
                    nb.append(k + 1)
                elif x == k + 1:
                    nb.append(k)
                else:
                    nb.append(x)
            nb.sort()
            new_blocks.append(tuple(nb))
        new_labels = labels[: k - 1] + (labels[k], labels[k - 1]) + labels[k + 1 :]
        yield _canon(new_blocks), new_labels


def _canon(blocks):
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def reduction_membership(p, entries, e, cache=None):
    """Decide membership by searching for a reduction to the empty
    partition via interval-block removals and allowed adjacent swaps.

    cache maps (eps key, blocks, labels) to the answer for every state
    decided so far.  Sharing one dict across calls is sound, because the
    states reachable from a successor are reachable from the state itself;
    without one, each call starts from a fresh dict."""
    cache = {} if cache is None else cache
    if p.n != len(entries):
        raise DimensionMismatchError(f"partition size {p.n} != tuple length {len(entries)}")
    e.check_tuple(entries)
    if not refines(p, kernel(entries)):
        raise DomainError("partition does not refine the kernel of the tuple")

    ekey = e.key()
    start = (p.blocks, tuple(entries))
    full_key = (ekey, *start)
    if full_key in cache:
        return cache[full_key]

    parent = {start: None}
    queue = deque([start])
    goal = None
    while queue:
        state = queue.popleft()
        blocks, labels = state
        if not blocks:
            goal = state
            break
        cached = cache.get((ekey, *state))
        if cached is True:
            goal = state
            break
        if cached is False:
            continue
        for nxt in _interval_removals(blocks, labels):
            if nxt not in parent:
                parent[nxt] = state
                queue.append(nxt)
        for nxt in _swaps(blocks, labels, e):
            if nxt not in parent:
                parent[nxt] = state
                queue.append(nxt)

    if goal is None:
        for state in parent:
            cache[(ekey, *state)] = False
        return False
    while goal is not None:
        cache[(ekey, *goal)] = True
        goal = parent[goal]
    return True


def _search(entries, e, cap):
    """Depth-first search over the epsilon-non-crossing partitions of a
    tuple, one leaf per member and no dead ends.

    Point x joins an earlier block B of its label unless some other block C
    has min(C) < last(B) < last(C) and eps(label B, label C) != 1: then C
    has a point in the gap (last(B), x), and the join would complete a
    forbidden crossing.  Any first crossing between two blocks shows up
    this way when its largest point is placed, and a new block can cross
    nothing, so every path reaches a leaf.

    Yields, per member, the search's own list of block indices per
    position (blocks numbered by their minima), valid until the next step.
    """
    n = len(entries)
    _check_cap(n, cap)
    e.check_tuple(entries)
    labels = sorted(set(entries))
    lab = [labels.index(v) for v in entries]
    # against[k][j]: blocks of the k-th and j-th labels may not cross
    against = [[e.eps(a, b) != 1 for b in labels] for a in labels]

    rgs = [0] * n
    blab, bmin, blast = [], [], []
    saved = [0] * n  # last point of the block x joined, or -1 for a new block
    tried = [0] * (n + 1)  # next block index to try at each depth
    x = 0
    while True:
        if x < n:
            k = lab[x]
            row = against[k]
            nb = len(blab)
            b = tried[x]
            while b < nb:  # first joinable block from b on, else nb
                if blab[b] == k:
                    last = blast[b]
                    for c in range(nb):
                        if bmin[c] < last < blast[c] and row[blab[c]]:
                            break  # C would cross B
                    else:
                        break
                b += 1
            if b <= nb:
                if b < nb:
                    saved[x] = blast[b]
                    blast[b] = x
                else:
                    saved[x] = -1
                    blab.append(k)
                    bmin.append(x)
                    blast.append(x)
                rgs[x] = b
                tried[x] = b + 1
                x += 1
                tried[x] = 0
                continue
        else:
            yield rgs
        # backtrack: undo the choice at the previous position
        x -= 1
        if x < 0:
            return
        if saved[x] < 0:
            blab.pop()
            bmin.pop()
            blast.pop()
        else:
            blast[rgs[x]] = saved[x]


def enumerate_nc_epsilon(entries, e, cap=None):
    """All partitions below the kernel of the tuple that are
    epsilon-non-crossing, in lexicographic order of canonical form."""
    n = len(entries)
    out = []
    for rgs in _search(entries, e, cap):
        blocks = [[] for _ in range(max(rgs, default=-1) + 1)]
        for x, b in enumerate(rgs, start=1):
            blocks[b].append(x)
        out.append(SetPartition(n, blocks))
    out.sort(key=lambda p: p.blocks)
    return out

