"""Set partitions of {1,...,n}: canonical form, restricted-growth strings,
and refinement of the kernel of a tuple."""


class SetPartition:
    """A partition of {1,...,n}, kept in canonical form.

    Canonical form: blocks sorted by their minimum, elements inside a
    block ascending.  Equality and hashing go through that form, so two
    partitions are equal iff they are the same partition.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        canon = sorted(tuple(sorted(b)) for b in blocks)
        if not all(canon) or sorted(x for b in canon for x in b) != list(range(1, n + 1)):
            raise ValueError(f"blocks do not partition 1..{n} into nonempty blocks")
        self.n = n
        self.blocks = tuple(canon)

    def __eq__(self, other):
        return (
            isinstance(other, SetPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        inner = "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"SetPartition({self.n}, {inner or '{}'})"


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


def below_kernel(p, entries):
    """True iff every point of each block of p carries the label of the
    block's first point: p refines the kernel of the tuple."""
    return all(entries[x - 1] == entries[b[0] - 1] for b in p.blocks for x in b)
