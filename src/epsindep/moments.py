"""Mixed-moment evaluators: cumulant summation, definition-based
centering recursion, and the kernel-factorization shortcut."""

from fractions import Fraction

from .cumulants import CLASSICAL, FREE
from .errors import EnumerationLimitError, TableError
from .ncpartitions import count_nc_epsilon_by_shape, is_epsilon_noncrossing
from .partitions import kernel

# Not called here: bench/worker.py wraps these module attributes to trace
# the per-partition path, which now shows zero calls.
from .cumulants import kappa_pi  # noqa: F401
from .ncpartitions import enumerate_nc_epsilon  # noqa: F401

DEFINITION_CAP = 10


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


def mixed_moment_cumulant(entries, e, tables, cap=None):
    """Sum of block cumulant products over the epsilon-non-crossing set.

    kappa_pi depends on a partition only through its multiset of (label,
    block size), so the members are counted per shape and each shape's
    cumulant product is formed once."""
    e.check_tuple(entries)
    _check_tables(entries, e, tables)
    total = Fraction(0)
    for shape, count in count_nc_epsilon_by_shape(entries, e, cap).items():
        num, den = count, 1
        for (label, size), mult in shape:
            kappa = tables[label].cumulant(size)
            num *= kappa.numerator ** mult
            den *= kappa.denominator ** mult
        if num:
            total += Fraction(num, den)
    return total


def normalize_tuple(entries, e):
    """Bring same-label entries together through allowed commutations and
    merge them.

    Returns (labels, groups): the label per merged factor and, for each
    factor, the original 1-based positions it absorbed.  The returned
    label sequence is always admissible: any violating pair of minimal
    gap has only eps=1 intermediates, so it can be merged.
    """
    e.check_tuple(entries)
    factors = [(lbl, [pos]) for pos, lbl in enumerate(entries, start=1)]
    while True:
        best = None
        for k in range(len(factors)):
            for l in range(k + 1, len(factors)):
                if factors[k][0] != factors[l][0]:
                    continue
                if any(
                    factors[p][0] != factors[k][0]
                    and e.eps(factors[k][0], factors[p][0]) == 0
                    for p in range(k + 1, l)
                ):
                    continue  # separated: not a violation
                if best is None or l - k < best[1] - best[0]:
                    best = (k, l)
        if best is None:
            break
        k, l = best
        lbl, group_l = factors.pop(l)
        factors[k] = (lbl, factors[k][1] + group_l)
    return tuple(f[0] for f in factors), [f[1] for f in factors]


def _merge_word(word, e):
    """normalize_tuple on (label, power) factors; powers add on merge."""
    factors = list(word)
    while True:
        best = None
        for k in range(len(factors)):
            for l in range(k + 1, len(factors)):
                if factors[k][0] != factors[l][0]:
                    continue
                if any(
                    factors[p][0] != factors[k][0]
                    and e.eps(factors[k][0], factors[p][0]) == 0
                    for p in range(k + 1, l)
                ):
                    continue
                if best is None or l - k < best[1] - best[0]:
                    best = (k, l)
        if best is None:
            break
        k, l = best
        lbl, pw = factors.pop(l)
        factors[k] = (lbl, factors[k][1] + pw)
    return tuple(factors)


def _phi_word(word, e, moments, cache):
    word = _merge_word(word, e)
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


def mixed_moment_by_definition(entries, e, moments, cap=DEFINITION_CAP):
    """Evaluate the mixed moment straight from the independence
    definition: normalize, center each factor, expand, recurse on
    strictly shorter words.  Exponential; an oracle, not a fast path.

    moments maps each label to its moment sequence m_1..m_N (N >= n).
    """
    n = len(entries)
    if n > cap:
        raise EnumerationLimitError(f"tuple length {n} exceeds definition cap {cap}")
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
