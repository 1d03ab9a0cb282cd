"""Set partitions of {1,...,n}: canonical form, refinement, crossing tests."""

from .errors import DimensionMismatchError


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

    @classmethod
    def _canonical(cls, n, blocks):
        """A partition from blocks that partition 1..n in canonical form,
        as a tuple of tuples; nothing is checked."""
        p = object.__new__(cls)
        p.n = n
        p.blocks = blocks
        return p

    def block_indices(self):
        """At x - 1, the index (into .blocks) of the block holding point x."""
        out = [0] * self.n
        for idx, b in enumerate(self.blocks):
            for x in b:
                out[x - 1] = idx
        return out

    def to_json(self):
        return [list(b) for b in self.blocks]

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


EMPTY_PARTITION = SetPartition(0, [])


def enumerate_set_partitions(n):
    """All partitions of {1,...,n} in lexicographic RGS order.

    Count is the n-th Bell number.
    """
    if n == 0:
        return [EMPTY_PARTITION]
    out = []
    # depth-first over restricted-growth strings
    labels = [0] * n

    def rec(pos, nclasses):
        if pos == n:
            blocks = [[] for _ in range(nclasses)]
            for i, c in enumerate(labels):
                blocks[c].append(i + 1)
            # blocks open in order of their first point: canonical already
            out.append(SetPartition._canonical(n, tuple(map(tuple, blocks))))
            return
        for c in range(nclasses + 1):
            labels[pos] = c
            rec(pos + 1, max(nclasses, c + 1))

    rec(0, 0)
    return out


def partitions_of_set(positions):
    """All partitions of an arbitrary finite set of integers (as block tuples)."""
    positions = sorted(positions)
    n = len(positions)
    out = []
    for p in enumerate_set_partitions(n):
        out.append(tuple(tuple(positions[x - 1] for x in b) for b in p.blocks))
    return out


def is_noncrossing(p):
    """True iff no p1<q1<p2<q2 has p1~p2 and q1~q2 in different blocks.

    Linear scan: a revisited block must sit on top of the stack of open
    blocks, otherwise some block opened in between is still open."""
    stack = []
    block_of = p.block_indices()
    for x in range(1, p.n + 1):
        idx = block_of[x - 1]
        block = p.blocks[idx]
        if x == block[0]:
            stack.append(idx)
        elif stack[-1] != idx:
            return False
        if x == block[-1]:
            stack.pop()
    return True


def enumerate_noncrossing(n):
    """All non-crossing partitions of {1,...,n}; count is Catalan(n)."""
    return [p for p in enumerate_set_partitions(n) if is_noncrossing(p)]


def kernel(entries):
    """Partition of positions 1..n grouping equal values of the tuple."""
    groups = {}
    for pos, v in enumerate(entries, start=1):
        groups.setdefault(v, []).append(pos)
    return SetPartition(len(entries), list(groups.values()))


def refines(p, q):
    """True iff every block of p lies inside some block of q."""
    if p.n != q.n:
        raise DimensionMismatchError(f"sizes differ: {p.n} vs {q.n}")
    qb = q.block_indices()
    for b in p.blocks:
        tag = qb[b[0] - 1]
        if any(qb[x - 1] != tag for x in b[1:]):
            return False
    return True


def bell_numbers(upto):
    """Bell numbers B(0)..B(upto) by the Bell-triangle recursion."""
    row = [1]
    out = [1]
    for _ in range(upto):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        out.append(row[0])
    return out


def catalan_numbers(upto):
    """Catalan numbers C(0)..C(upto) by the convolution recursion."""
    out = [1]
    for n in range(1, upto + 1):
        out.append(sum(out[k] * out[n - 1 - k] for k in range(n)))
    return out
