"""Mixed-moment evaluators: cumulant summation, definition-based
centering recursion, and the kernel-factorization shortcut."""

from fractions import Fraction
from itertools import combinations
from math import lcm

from .cumulants import CLASSICAL, FREE
from .errors import TableError
from .graphgroup import reduce_word
from .ncpartitions import is_epsilon_noncrossing
from .partitions import _check_cap, kernel

# Not called here: bench/worker.py wraps these module attributes to trace
# the per-partition path, which now shows zero calls.
from .cumulants import kappa_pi  # noqa: F401
from .ncpartitions import enumerate_nc_epsilon  # noqa: F401


def _check_tables(entries, e, tables):
    for label in set(entries):
        if label not in tables:
            raise TableError(f"no table for label {label}")
        table = tables[label]
        want = CLASSICAL if e.diagonal(label) == 1 else FREE
        if table.kind != want:
            raise TableError(
                f"label {label} has diagonal {e.diagonal(label)} but a "
                f"{table.kind} table (expected {want})"
            )
        if table.max_order < len(entries):
            raise TableError(
                f"table for label {label} covers order {table.max_order}, "
                f"need {len(entries)}"
            )


def _remove_block(lab, gaps, block, mark):
    """The state left when the points in block (a bitmask over positions,
    position 0 among them) form a block: the gap masks around each removed
    point merge, and a merged gap that held a point of the block gains
    mark.  A gap keeps only the labels that occur on both of its sides,
    the only ones that could span it."""
    new_lab = []
    new_gaps = []
    before = []  # labels occurring up to each kept point
    seen = 0
    acc = 0
    hit = False
    for j in range(1, len(lab)):
        acc |= gaps[j - 1]
        if block >> j & 1:
            hit = True
            continue
        if new_lab:
            new_gaps.append(acc | mark if hit else acc)
        label = lab[j]
        new_lab.append(label)
        seen |= 1 << label
        before.append(seen)
        acc = 0
        hit = False
    after = 0
    for g in range(len(new_gaps) - 1, -1, -1):
        after |= 1 << new_lab[g + 1]
        new_gaps[g] &= before[g] & after
    return tuple(new_lab), tuple(new_gaps)


def mixed_moment_cumulant(entries, e, tables, cap=None):
    """Sum of block cumulant products over the epsilon-non-crossing set,
    by a memoised recursion on the block that holds the first point.

    A state is the labels of the points not yet in a block, plus one
    bitmask per gap between consecutive points: the labels whose blocks
    may not have points on both sides of that gap.  The first point
    (label l) forms a block B with any set of later l-points that lie
    before the first gap barring l.  A later block crosses B exactly when
    it has points in two of B's gaps, that is, when it spans a gap that
    held a point of B; so removing B marks those gaps with the labels
    whose eps with l is not 1.  Block sizes whose cumulant is 0 are
    skipped.  Partitions are never listed.

    The sum runs in integers: with d_l the common denominator of label
    l's cumulants, a block of size s contributes kappa_l(s) * d_l**s, and
    the product over any partition carries d_l once per l-point, so the
    total is divided by prod(d_l ** count_l) at the end.
    """
    n = len(entries)
    _check_cap(n, cap)
    e.check_tuple(entries)
    _check_tables(entries, e, tables)
    labels = sorted(set(entries))
    lab = tuple(labels.index(v) for v in entries)
    against = [sum(1 << j for j, b in enumerate(labels) if e.eps(a, b) != 1) for a in labels]
    # (further points in the block, scaled cumulant) for the nonzero ones
    sizes = []
    scale = 1
    for a in labels:
        kappas = tables[a].cumulants[:n]
        d = lcm(*(kappa.denominator for kappa in kappas))
        sizes.append(
            [(r, kappa.numerator * d ** (r + 1) // kappa.denominator)
             for r, kappa in enumerate(kappas) if kappa]
        )
        scale *= d ** entries.count(a)
    memo = {}

    def total(lab, gaps):
        if not lab:
            return 1
        key = (lab, gaps)
        hit = memo.get(key)
        if hit is not None:
            return hit
        k = lab[0]
        bit = 1 << k
        eligible = []
        for j in range(1, len(lab)):
            if gaps[j - 1] & bit:
                break
            if lab[j] == k:
                eligible.append(j)
        value = 0
        for r, kappa in sizes[k]:
            if r > len(eligible):
                break
            for chosen in combinations(eligible, r):
                block = 1
                for j in chosen:
                    block |= 1 << j
                value += kappa * total(*_remove_block(lab, gaps, block, against[k]))
        memo[key] = value
        return value

    return Fraction(total(lab, (0,) * max(n - 1, 0)), scale)


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


def _phi_word(word, e, moments, cache):
    word = reduce_word(word, e)
    if not word:
        return Fraction(1)
    if len(word) == 1:
        lbl, pw = word[0]
        return moments[lbl][pw - 1]
    hit = cache.get(word)
    if hit is not None:
        return hit
    m = len(word)
    means = [moments[lbl][pw - 1] for lbl, pw in word]
    # centering: the fully-centered term vanishes (the merged label
    # sequence is admissible), the rest telescopes over proper subsets
    total = Fraction(0)
    for mask in range((1 << m) - 1):
        sub = tuple(word[k] for k in range(m) if mask >> k & 1)
        coeff = Fraction(1)
        for k in range(m):
            if not mask >> k & 1:
                coeff *= means[k]
        sign = -1 if (m - bin(mask).count("1")) % 2 else 1
        total -= sign * coeff * _phi_word(sub, e, moments, cache)
    cache[word] = total
    return total


def mixed_moment_by_definition(entries, e, moments, cap=None):
    """Evaluate the mixed moment straight from the independence
    definition: normalize, center each factor, expand, recurse on
    strictly shorter words.  Exponential; an oracle, not a fast path.

    moments maps each label to its moment sequence m_1..m_N (N >= n).
    The length cap is the enumeration cap unless given.
    """
    n = len(entries)
    _check_cap(n, cap)
    e.check_tuple(entries)
    for label in set(entries):
        if label not in moments:
            raise TableError(f"no moments for label {label}")
        if len(moments[label]) < n:
            raise TableError(f"moments for label {label} too short for order {n}")
    word = tuple((lbl, 1) for lbl in entries)
    return _phi_word(word, e, moments, {})


def factorization_shortcut(entries, e, tables):
    """If the kernel itself is epsilon-non-crossing the moment factorizes
    over kernel blocks; returns None when the shortcut does not apply."""
    e.check_tuple(entries)
    ker = kernel(entries)
    if not is_epsilon_noncrossing(ker, entries, e):
        return None
    _check_tables(entries, e, tables)
    total = Fraction(1)
    for block in ker.blocks:
        label = entries[block[0] - 1]
        total *= tables[label].moment(len(block))
    return total


def moments_from_tables(tables):
    """Per-label moment sequences for the definition-based evaluator."""
    return {label: table.moments() for label, table in tables.items()}
