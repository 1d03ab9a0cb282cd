"""Set partitions of {1,...,n}: canonical form, refinement, crossing tests."""

import os

from .errors import DimensionMismatchError, EnumerationLimitError

DEFAULT_ENUMERATION_CAP = int(os.environ.get("EPSINDEP_MAX_N", "12"))


class SetPartition:
    """A partition of {1,...,n}, kept in canonical form.

    Canonical form: blocks sorted by their minimum, elements inside a
    block ascending.  Equality and hashing go through that form, so two
    partitions are equal iff they are the same partition.
    """

    __slots__ = ("n", "blocks", "_block_of", "_hash")

    def __init__(self, n, blocks):
        seen = set()
        canon = []
        for b in blocks:
            b = tuple(sorted(b))
            if not b:
                raise ValueError("empty block")
            canon.append(b)
            seen.update(b)
        if len(seen) != sum(len(b) for b in canon) or seen != set(range(1, n + 1)):
            raise ValueError(f"blocks do not partition 1..{n}")
        canon.sort(key=lambda b: b[0])
        self.n = n
        self.blocks = tuple(canon)
        block_of = [0] * n
        for idx, b in enumerate(canon):
            for x in b:
                block_of[x - 1] = idx
        self._block_of = tuple(block_of)
        self._hash = hash((n, self.blocks))

    def block_index(self, x):
        """Index (into .blocks) of the block containing point x."""
        return self._block_of[x - 1]

    def rgs(self):
        """Restricted-growth string: class label per point, first-seen order."""
        return self._block_of

    def to_json(self):
        return [list(b) for b in self.blocks]

    @classmethod
    def from_json(cls, data):
        blocks = [tuple(b) for b in data]
        n = sum(len(b) for b in blocks)
        return cls(n, blocks)

    def __eq__(self, other):
        return (
            isinstance(other, SetPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"SetPartition({self.n}, {inner or '{}'})"


EMPTY_PARTITION = SetPartition(0, [])


def _check_cap(n, cap):
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > limit:
        raise EnumerationLimitError(f"n={n} exceeds enumeration cap {limit}")


def enumerate_set_partitions(n, cap=None):
    """All partitions of {1,...,n} in lexicographic RGS order.

    Count is the n-th Bell number.
    """
    _check_cap(n, cap)
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
            out.append(SetPartition(n, blocks))
            return
        for c in range(nclasses + 1):
            labels[pos] = c
            rec(pos + 1, max(nclasses, c + 1))

    rec(0, 0)
    return out


def partitions_of_set(positions, cap=None):
    """All partitions of an arbitrary finite set of integers (as block tuples)."""
    positions = sorted(positions)
    n = len(positions)
    out = []
    for p in enumerate_set_partitions(n, cap=cap):
        out.append(tuple(tuple(positions[x - 1] for x in b) for b in p.blocks))
    return out


def is_noncrossing(p):
    """True iff no p1<q1<p2<q2 has p1~p2 and q1~q2 in different blocks.

    Linear scan: a revisited block must sit on top of the stack of open
    blocks, otherwise some block opened in between is still open."""
    stack = []
    for x in range(1, p.n + 1):
        idx = p.block_index(x)
        block = p.blocks[idx]
        if x == block[0]:
            stack.append(idx)
        elif stack[-1] != idx:
            return False
        if x == block[-1]:
            stack.pop()
    return True


def enumerate_noncrossing(n, cap=None):
    """All non-crossing partitions of {1,...,n}; count is Catalan(n)."""
    return [p for p in enumerate_set_partitions(n, cap=cap) if is_noncrossing(p)]


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
    qb = q._block_of
    for b in p.blocks:
        tag = qb[b[0] - 1]
        if any(qb[x - 1] != tag for x in b[1:]):
            return False
    return True


def blocks_cross(p, i_block, j_block):
    """Whether blocks with given indices interleave (ABAB pattern)."""
    merged = sorted(
        [(x, 0) for x in p.blocks[i_block]] + [(x, 1) for x in p.blocks[j_block]]
    )
    runs = 1
    for (_, a), (_, b) in zip(merged, merged[1:]):
        if a != b:
            runs += 1
    return runs >= 4


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
