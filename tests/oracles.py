"""What only the tests call: set-partition combinatorics (non-crossing
partitions, the kernel of a tuple, refinement, Bell and Catalan numbers),
conversion wrappers, the eager moment-list parser, named tables and
graphs, admissibility by its definition, the cumulant route without its
fold or splits, and the products-as-arguments harness (free cumulants of
one algebra's joint moments, by recursion over non-crossing partitions,
against the product-in-first-slot expansion)."""

from fractions import Fraction
from itertools import combinations

from epsindep import (
    CLASSICAL,
    FREE,
    CumulantTable,
    DomainError,
    EpsilonMatrix,
    reduce_word,
)
from epsindep.cumulants import parse_fraction
from epsindep.ncpartitions import first_blocks
from epsindep.partitions import partitions_of_set


def canon(blocks):
    """A partition's blocks in canonical form: each block ascending, the
    blocks sorted by their first point."""
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def block_indices(p):
    """At x - 1, the index (into the blocks p) of the block holding point x."""
    out = [0] * sum(map(len, p))
    for idx, b in enumerate(p):
        for x in b:
            out[x - 1] = idx
    return out


def enumerate_set_partitions(n):
    """All partitions of {1,...,n}, canonical, in lexicographic RGS order;
    Bell(n) of them."""
    return partitions_of_set(range(1, n + 1))


def kernel(entries):
    """Partition of positions 1..n grouping equal values of the tuple,
    canonical."""
    groups = {}
    for pos, v in enumerate(entries, start=1):
        groups.setdefault(v, []).append(pos)
    return tuple(map(tuple, groups.values()))


def is_noncrossing(p):
    """True iff no p1<q1<p2<q2 has p1~p2 and q1~q2 in different blocks of
    the canonical blocks p.

    Linear scan: a revisited block must sit on top of the stack of open
    blocks, otherwise some block opened in between is still open."""
    stack = []
    block_of = block_indices(p)
    for x in range(1, len(block_of) + 1):
        idx = block_of[x - 1]
        block = p[idx]
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


def refines(p, q):
    """True iff every block of p lies inside some block of q."""
    qb = block_indices(q)
    if sum(map(len, p)) != len(qb):
        raise DomainError(f"sizes differ: {sum(map(len, p))} vs {len(qb)}")
    for b in p:
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


def free_cumulants_to_moments(cumulants):
    return CumulantTable(FREE, cumulants).moments()


def moments_to_free_cumulants(moments):
    return list(CumulantTable.from_moments(FREE, moments).cumulants)


def classical_cumulants_to_moments(cumulants):
    return CumulantTable(CLASSICAL, cumulants).moments()


def moments_to_classical_cumulants(moments):
    return list(CumulantTable.from_moments(CLASSICAL, moments).cumulants)


def semicircle_table(variance=1, max_order=12):
    """Free analogue of the Gaussian: only the second free cumulant."""
    cum = [Fraction(0)] * max_order
    if max_order >= 2:
        cum[1] = Fraction(variance)
    return CumulantTable(FREE, cum)


def parse_moments_eagerly(moments):
    """Every entry of a moment list as a Fraction, in list order: what
    spec_moments returns to its order, and the first error it raises."""
    return [parse_fraction(m) for m in moments]


def normalize_tuple(entries, e):
    """Bring same-label entries together through allowed commutations and
    merge them.

    Returns (labels, groups): the label per merged factor and, for each
    factor, the original 1-based positions it absorbed (the word's
    exponents are position lists, which reduce_word concatenates).  The
    returned label sequence is always admissible: it is a reduced word.
    """
    e.check_tuple(entries)
    factors = reduce_word(((lbl, [pos]) for pos, lbl in enumerate(entries, start=1)), e)
    return tuple(f[0] for f in factors), [f[1] for f in factors]


def admissible_by_definition(entries, e):
    """The admissible tuple set by its definition, a pairwise scan:
    whenever i(k)=i(l), some position strictly between carries a
    different label that is free from it (eps = 0).  The reference for
    epsilon.is_admissible_tuple, which decides it by reduce_word."""
    n = len(entries)
    for k in range(n):
        for l in range(k + 1, n):
            if entries[k] != entries[l]:
                continue
            if not any(
                entries[p] != entries[k] and e.eps(entries[k], entries[p]) == 0
                for p in range(k + 1, l)
            ):
                return False
    return True


def cumulant_by_first_blocks(entries, e, tables):
    """The mixed moment as a memoised sum over every block that
    ncpartitions.first_blocks lists for the first point, in Fractions,
    with no fold, no split at barred gaps and no split into independent
    label groups: the reference for moments.mixed_moment_cumulant."""
    e.check_tuple(entries)
    n = len(entries)
    kappas = {
        a: {r: kappa for r, kappa in enumerate(tables[a].cumulants[:n]) if kappa}
        for a in set(entries)
    }
    memo = {}

    def total(lab, gaps):
        if not lab:
            return Fraction(1)
        key = (lab, gaps)
        if key not in memo:
            sizes = kappas[lab[0]]
            blocks = first_blocks(lab, gaps, e.against)
            memo[key] = sum(
                (sizes[r] * total(*state) for r, _, state in blocks if r in sizes), Fraction(0)
            )
        return memo[key]

    return total(tuple(entries), (0,) * max(n - 1, 0))


def all_matrices(size, diag=None):
    """Every ε-matrix on size labels: each subset of the label pairs as
    the independent pairs, in the order of the subset's bitmask."""
    pairs = list(combinations(range(size), 2))
    for mask in range(1 << len(pairs)):
        chosen = [p for k, p in enumerate(pairs) if mask >> k & 1]
        yield EpsilonMatrix(size, chosen, diag=diag)


def cycle_graph_matrix(size):
    """Matrix whose free pairs are the edges of the size-cycle and all
    other pairs independent (the five-variable introductory example for
    size=5)."""
    cycle_edges = {frozenset((k, (k + 1) % size)) for k in range(size)}
    pairs = [
        (a, b)
        for a in range(size)
        for b in range(a + 1, size)
        if frozenset((a, b)) not in cycle_edges
    ]
    return EpsilonMatrix(size, pairs)


def complete_graph_matrix(size):
    """All distinct pairs independent (classical independence)."""
    pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
    return EpsilonMatrix(size, pairs)


def empty_graph_matrix(size):
    """No independent pairs (free independence)."""
    return EpsilonMatrix(size, [])


class JointMomentOracle:
    """Joint moments of finitely many symbols of one algebra.

    phi() maps a word (tuple of symbol indices) to a rational; the empty
    word has moment 1, any other word's moment is default_factory(word),
    asked once.  Values may be arbitrary: the identity under test is
    purely combinatorial in the moment data.
    """

    def __init__(self, nvars, default_factory):
        self.nvars = nvars
        self.values = {}
        self.default_factory = default_factory
        self._kappa_cache = {}

    def phi(self, word):
        word = tuple(word)
        if not word:
            return Fraction(1)
        if word not in self.values:
            self.values[word] = Fraction(self.default_factory(word))
        return self.values[word]

    def cumulant(self, args):
        """Multivariate free cumulant; each argument is a word (a product
        of symbols), spliced into moments by concatenation."""
        args = tuple(tuple(a) for a in args)
        if args in self._kappa_cache:
            return self._kappa_cache[args]
        n = len(args)
        total = self.phi(tuple(x for a in args for x in a))
        if n > 1:
            for p in enumerate_noncrossing(n):
                if len(p) == 1:
                    continue
                term = Fraction(1)
                for block in p:
                    term *= self.cumulant(tuple(args[r - 1] for r in block))
                total -= term
        self._kappa_cache[args] = total
        return total


def random_joint_oracle(rng, nvars):
    """Random rational joint moments p/q, |p| <= 20 and 1 <= q <= 20,
    drawn lazily on first access."""

    def draw(_word):
        return Fraction(rng.randint(-20, 20), rng.randint(1, 20))

    return JointMomentOracle(nvars, default_factory=draw)


def product_as_arguments_check(p, oracle, first=(0, 1), rest=None):
    """Check the two-factor product-in-first-slot expansion of a free
    cumulant against its order-(p+2) refinement plus split terms."""
    b1, b1t = first
    rest = tuple(rest if rest is not None else range(2, 2 + p))
    if len(rest) != p:
        raise DomainError(f"need exactly p={p} trailing positions, got {len(rest)}")
    lhs = oracle.cumulant(((b1, b1t),) + tuple((r,) for r in rest))
    rhs = oracle.cumulant(((b1,), (b1t,)) + tuple((r,) for r in rest))
    for q in range(p + 1):
        left = oracle.cumulant(((b1,),) + tuple((r,) for r in rest[q:]))
        right = oracle.cumulant(((b1t,),) + tuple((r,) for r in rest[:q]))
        rhs += left * right
    return lhs == rhs
