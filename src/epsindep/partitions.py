"""Set partitions of {1,...,n}, each a tuple of blocks of points:
restricted-growth strings, and refinement of the kernel of a tuple."""

from .errors import DomainError


def restricted_growth(n, k=None):
    """The restricted-growth strings of length n, in lexicographic order:
    tuples over 0, 1, ... in which each value first occurs after all
    smaller ones.  With k, only those with exactly k distinct values."""

    def extend(prefix, used):
        left = n - len(prefix)
        if k is not None and used + left < k:
            return
        if left == 0:
            yield prefix
            return
        for v in range(used + 1 if k is None else min(used + 1, k)):
            yield from extend(prefix + (v,), max(used, v + 1))

    return extend((), 0)


def partitions_of_set(positions):
    """All partitions of a finite set of integers, as tuples of blocks in
    canonical form, in restricted-growth order."""
    positions = sorted(positions)
    out = []
    for rgs in restricted_growth(len(positions)):
        blocks = [[] for _ in range(max(rgs, default=-1) + 1)]
        for pos, c in zip(positions, rgs):
            blocks[c].append(pos)
        # blocks open in order of their first point: canonical already
        out.append(tuple(map(tuple, blocks)))
    return out


def below_kernel(blocks, entries):
    """True iff every point of each block carries the label of the
    block's first point: the blocks refine the kernel of the tuple.
    Neither the order of the blocks nor that inside a block matters."""
    n = len(entries)
    if not all(blocks) or sorted(x for b in blocks for x in b) != list(range(1, n + 1)):
        raise DomainError(f"blocks do not partition 1..{n} into nonempty blocks")
    return all(entries[x - 1] == entries[b[0] - 1] for b in blocks for x in b)
