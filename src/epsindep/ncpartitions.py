"""Membership and enumeration for the epsilon-non-crossing partition sets.

Membership has two routes: the pairwise-crossing characterization
(production path) and the reduce-to-empty definition (verification
oracle), decided by greedily removing a block that adjacent swaps of
eps = 1 points can bring together; both are polynomial and keep no cache.
Each is a core on blocks as (position bitmask, label) over encode, the
one encoding of a tuple, wrapped for a partition given as its blocks of
points.  The pairwise route is geometry, then eps: crossings lists which
labels' blocks cross which, independent of the matrix, and
crossings_allowed checks them against EpsilonMatrix.against, one AND per
crossing label, so a caller that meets one partition under many matrices
computes its crossings once.  kernel_noncrossing runs it on the tuple's
kernel, one block per label.  bar_masks, the positions each label may not
cross or pass, serves the reduce-to-empty oracle only.  A label is its own
bit in every label mask, as in EpsilonMatrix.against.

Enumeration and the cumulant sum share one state: the points not yet in
a block, with a mask per gap of the labels that may not span it, cut to
the labels on both of its sides by trim_gaps.  first_blocks lists the
blocks the first remaining point may head without a forbidden crossing,
each with the state it leaves.  enumerate_nc_epsilon expands it over
every block size, one member per leaf and no dead ends.  noncrossing_sum,
the sum the cumulant route (moments.mixed_moment_cumulant) evaluates,
memoises the states and folds each first block point by point instead of
listing its subsets; a state holding a count of some label's points that
no blocks with nonzero cumulants fill sums to 0 without a fold, and one
whose first point has no partner is that point's kappa_1 times the rest.
Filtering every partition below the kernel through
is_epsilon_noncrossing (generate-and-test) is the reference the tests
compare both against.
"""

from itertools import combinations

from .errors import DomainError
from .partitions import (
    below_kernel,
    partitions_of_set,  # noqa: F401 -- not called; bench/worker.py wraps it
)


def _masks(blocks, entries, e):
    """Validate the blocks; as (position bitmask, label), or None if they
    do not refine the kernel of the tuple."""
    e.check_tuple(entries)
    if not below_kernel(blocks, entries):
        return None
    return [(sum([1 << (x - 1) for x in b]), entries[b[0] - 1]) for b in blocks]


def is_epsilon_noncrossing(blocks, entries, e):
    """True iff the blocks refine the kernel of the tuple and every
    crossing between two of them happens between independent (eps = 1)
    labels."""
    masks = _masks(blocks, entries, e)
    return masks is not None and crossings_allowed(crossings(masks), e.against)


def kernel_noncrossing(entries, e):
    """True iff the kernel of the tuple, the partition of its positions
    by label, is epsilon-non-crossing: at once for one label, whose one
    block crosses nothing."""
    points = encode(entries)
    if len(points) < 2:
        return True
    kernel = [(m, a) for a, m in points.items()]
    return crossings_allowed(crossings(kernel), e.against)


def crossings(blocks):
    """The pairwise route's geometry on blocks as (position bitmask,
    label): (label, the mask of labels whose blocks cross one of its
    blocks) for each label with a crossing block, as a tuple.
    Block b crosses block a iff b has points inside a's span and also
    points outside it or on both sides of some point of a."""
    crossed = {}
    for i, (a, k) in enumerate(blocks):
        span = (1 << a.bit_length()) - (a & -a)
        for b, l in blocks[i + 1 :]:
            inner = b & span
            if inner and (b & ~span or a & ((1 << inner.bit_length()) - (inner & -inner))):
                crossed[k] = crossed.get(k, 0) | 1 << l
                crossed[l] = crossed.get(l, 0) | 1 << k
    return tuple(crossed.items())


def crossings_allowed(crossed, against):
    """The pairwise route's eps test on crossings(blocks): no label
    crossed by a label in against[label], that is, every crossing is
    between labels with eps = 1."""
    for label, mask in crossed:
        if mask & against[label]:
            return False
    return True


def reduction_membership(blocks, entries, e):
    """Membership by the reduce-to-empty definition: remove blocks of
    consecutive points, after swaps of adjacent points with eps = 1."""
    masks = _masks(blocks, entries, e)
    if masks is None:
        raise DomainError("partition does not refine the kernel of the tuple")
    return reduces_masks(masks, bar_masks(e.against, encode(entries)), len(entries))


def reduces_masks(blocks, bars, n):
    """The reduce-to-empty route on blocks as (position bitmask, label)
    below the kernel of a tuple of length n.

    Swaps leave only the dependency order, the transitive closure of
    i < j with eps != 1 (for equal labels, the diagonal), and a block can
    be brought together and removed iff it is convex in that order.  The
    points of a block share one label l, so a chain from one of them up to
    another begins with a point inside the block's span that depends on l:
    the block is convex iff no other remaining point inside its span
    depends on l.  Removing points never makes a convex block non-convex,
    so removing any convex block at each step empties the partition
    whenever some sequence of removals does."""
    blocks = list(blocks)
    left = (1 << n) - 1  # the points not yet removed
    while blocks:
        for block, k in blocks:
            span = (1 << block.bit_length()) - (block & -block)
            if not span & left & bars[k] & ~block:
                break
        else:
            return False
        blocks.remove((block, k))
        left &= ~block
    return True


def encode(entries):
    """points: each label of the tuple mapped to the bitmask of its
    positions (bit j for position j + 1)."""
    points = {}
    for j, a in enumerate(entries):
        points[a] = points.get(a, 0) | 1 << j
    return points


def bar_masks(against, points):
    """bars[l] for each label l of points (see encode): the bitmask of
    positions whose label has eps != 1 with l (bit set in against[l]),
    which can neither cross nor be swapped past a block of label l."""
    bars = {}
    for a in points:
        mask, bar = against[a], 0
        for b, m in points.items():
            if mask >> b & 1:
                bar |= m
        bars[a] = bar
    return bars


def trim_gaps(lab, gaps):
    """The gap masks of a state with lab's labels, each cut down to the
    labels that occur on both of its sides: only those could span it."""
    if not any(gaps):
        return tuple(gaps)
    out = []
    seen = 0
    for g, label in enumerate(lab[:-1]):
        seen |= 1 << label
        out.append(gaps[g] & seen)
    seen = 0
    for g in range(len(out) - 1, -1, -1):
        seen |= 1 << lab[g + 1]
        out[g] &= seen
    return tuple(out)


def _remove_block(lab, gaps, block, mark):
    """The state left when the points in block (a bitmask over positions,
    position 0 among them) form a block: the gap masks around each removed
    point merge, a merged gap that held a point of the block gains mark,
    and trim_gaps cuts each gap to the labels that could span it."""
    new_lab = []
    new_gaps = []
    acc = 0
    for j in range(1, len(lab)):
        acc |= gaps[j - 1]
        if block >> j & 1:
            acc |= mark
            continue
        if new_lab:
            new_gaps.append(acc)
        new_lab.append(lab[j])
        acc = 0
    return tuple(new_lab), trim_gaps(new_lab, new_gaps)


def eligible_points(lab, gaps):
    """The later points that may join the first point's block: those of
    its label that lie before the first gap barring that label."""
    k = lab[0]
    bit = 1 << k
    eligible = []
    for j in range(1, len(lab)):
        if gaps[j - 1] & bit:
            break
        if lab[j] == k:
            eligible.append(j)
    return eligible


def first_blocks(lab, gaps, against):
    """The blocks the first point of a state can head, as (r, block,
    next state) with r the block's further points, r ascending; block is
    a bitmask over the state's positions.

    A state is the labels of the points not yet in a block, plus one
    bitmask per gap between consecutive points: the labels (bit l for
    label l) whose blocks may not have points on both sides of that gap.
    The first point (label l) forms a block B with any set of later
    l-points that lie before the first gap barring l.  A later block
    crosses B exactly when it has points in two of B's gaps, that is,
    when it spans a gap that held a point of B; so removing B marks those
    gaps with against[l], the labels with eps != 1 with l (as in
    EpsilonMatrix.against).  The singleton (r = 0) is always allowed, so
    every state has a completion and the expansion never dead-ends.
    """
    mark = against[lab[0]]
    eligible = eligible_points(lab, gaps)
    for r in range(len(eligible) + 1):
        for chosen in combinations(eligible, r):
            block = 1
            for j in chosen:
                block |= 1 << j
            yield r, block, _remove_block(lab, gaps, block, mark)


def enumerate_nc_epsilon(entries, e):
    """The epsilon-non-crossing partitions below the kernel of the tuple,
    each as its blocks of points 1..n in canonical form, in sorted order:
    the expansion visits each state's children sorted by the points taken."""
    n = len(entries)
    e.check_tuple(entries)
    out = []
    blocks = []  # the path's blocks, each holding the first point left: canonical
    children = {}  # state -> (indices taken, indices kept, next state): states recur

    def expand(state, pos):
        if not state[0]:
            out.append(tuple(blocks))
            return
        kids = children.get(state)
        if kids is None:
            m = range(len(pos))
            kids = children[state] = [
                ([j for j in m if block >> j & 1], [j for j in m if not block >> j & 1], nxt)
                for _, block, nxt in first_blocks(*state, e.against)
            ]
            kids.sort(key=lambda kid: kid[0])  # by indices taken; states never compare
        for take, keep, nxt in kids:
            blocks.append(tuple([pos[j] for j in take]))
            expand(nxt, [pos[j] for j in keep])
            blocks.pop()

    expand((tuple(entries), (0,) * max(n - 1, 0)), range(1, n + 1))
    return out


def noncrossing_sum(lab, against, kappas):
    """The sum of kappa_pi over the epsilon-non-crossing partitions below
    the kernel of lab, a block of label l and r + 1 points weighing
    kappas[l][r] (0 if r is missing; no kappas[l] is empty), with
    against[l] as in EpsilonMatrix.against.  A memoised recursion on the
    states first_blocks walks, one frame per removed block: a state sums
    over its first point's blocks by folding the points left to right, an
    eligible point joining the block or staying, every other one staying.

    A partial child is (kept segment, its label mask, pending gap, r), the
    segment a tuple label, gap, label, ..., label; equal partial children
    merge by adding their coefficients.  A kept gap that bars every label
    of the segment to its left that can still occur to its right closes
    the segment, and its total goes into the coefficient.  Proof: a block
    spanning that gap would have its label on both sides, where it is
    barred; so every block lies on one side, blocks of different sides do
    not cross, and the child's total is the product of its sides' totals.
    After the last point every segment closes.  A join closes it too when
    the pending gap (the gaps and marks gathered since the segment's last
    point) already bars every label of the segment still to come: each
    later kept gap holds the pending one, so the segment would close at
    the next kept point anyway, and equal partial children merge a step
    sooner.

    A state whose first point has no eligible point sums to kappa_1 of its
    label times the state without that point, its gaps trimmed again, with
    no fold: the point is a singleton in every partition of the state, a
    singleton crosses and bars nothing, and removing the first point
    merges no gap.

    A state in which some label's point count is not a sum of block sizes
    with nonzero cumulants of that label sums to 0, with no fold.  Proof:
    every partition of the state's points lies below the kernel, so the
    label's blocks split its points in the state; one of them has a size
    whose cumulant is 0, and so has kappa_pi.  fillable[l], for a label
    without kappa_1, has bit c set iff c points can be so split; a label
    with kappa_1 fills every count and gets no mask."""
    memo = {(): 1}  # states (labels, gaps) and the fold's segments, () the empty one
    fillable = []  # (label, its mask) for each label without kappa_1
    for a in set(lab):
        if not kappas[a].get(0):
            c = lab.count(a)
            fill = 1
            for r, kappa in kappas[a].items():
                if kappa:
                    for _ in range(c // (r + 1)):  # c // (r + 1) blocks at most
                        fill |= fill << r + 1
            fillable.append((a, fill))

    def total(lab, gaps):
        state = (lab, gaps)
        value = memo.get(state)
        if value is not None:
            return value
        for a, fill in fillable:
            if not fill >> lab.count(a) & 1:
                memo[state] = 0
                return 0
        sizes = kappas[lab[0]]
        eligible = eligible_points(lab, gaps)
        if not eligible:
            # the first point is a singleton, which crosses nothing
            value = sizes.get(0, 0)
            if value and len(lab) > 1:
                rest = lab[1:]
                value *= total(rest, trim_gaps(rest, gaps[1:]))
            memo[state] = value
            return value
        n = len(lab)
        later = [0] * (n + 1)  # labels at positions j and after
        for j in range(n - 1, 0, -1):
            later[j] = later[j + 1] | 1 << lab[j]
        mark = against[lab[0]]
        top = max(sizes)
        last = eligible[-1]
        eligible = set(eligible)
        done = ((), 0, 0, 0)
        parts = {done: 1}
        for j in range(1, n + 1):
            if j < n:
                label = lab[j]
                bit = 1 << label
                gap_in = gaps[j - 1]
                join = j in eligible
            out = {}
            for (seg, seen, acc, r), c in parts.items():
                if j < n:
                    if join and r < top:
                        pending = acc | gap_in | mark
                        if seen & later[j + 1] & ~pending:
                            key = (seg, seen, pending, r + 1)
                            out[key] = out.get(key, 0) + c
                        else:
                            # the pending gap bars every label of the segment
                            # still to come (if any): close it here
                            value = memo.get(seg)
                            if value is None:
                                labels = seg[::2]
                                value = memo[seg] = total(labels, trim_gaps(labels, seg[1::2]))
                            if value:
                                key = ((), 0, 0, r + 1)
                                out[key] = out.get(key, 0) + c * value
                    if not seg:
                        key = ((label,), bit, 0, r)
                        out[key] = out.get(key, 0) + c
                        continue
                    gap = acc | gap_in
                    if seen & later[j] & ~gap:
                        key = (seg + (gap, label), seen | bit, 0, r)
                        out[key] = out.get(key, 0) + c
                        continue
                # close the segment; memo also keys it by its untrimmed form
                value = memo.get(seg)
                if value is None:
                    labels = seg[::2]
                    value = memo[seg] = total(labels, trim_gaps(labels, seg[1::2]))
                c *= value
                if c:
                    key = ((label,), bit, 0, r) if j < n else done
                    out[key] = out.get(key, 0) + c
            parts = out
            if j == last:
                # the block is complete: weigh each child by its cumulant
                parts = {}
                for (seg, seen, acc, r), c in out.items():
                    kappa = sizes.get(r)
                    if kappa:
                        key = (seg, seen, acc, 0)
                        parts[key] = parts.get(key, 0) + c * kappa
        value = memo[state] = parts.get(done, 0)
        return value

    return total(lab, (0,) * (len(lab) - 1))
