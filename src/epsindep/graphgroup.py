"""Graph products of copies of Z: reduced words and generator mixed
moments.

Commutation between generators follows the off-diagonal entries of the
independence matrix; diagonal entries play no role here.  A reduced
nonempty word is never the identity, so triviality is a syntactic check.
_merge_target decides where a syllable merges, for the reducer here and
for the definition route's fold in moments.
"""

from fractions import Fraction

from .errors import DomainError


def _merge_target(word, lbl, e):
    """The index of the syllable that a syllable of label lbl appended to
    the reduced word merges into, or None: the unique same-label syllable
    with only commuting syllables after it.  The one place of the package
    that decides whether two occurrences of a label merge."""
    bar = e.against[lbl]  # the labels that do not commute with lbl
    for idx in range(len(word) - 1, -1, -1):
        wl = word[idx][0]
        if wl == lbl:
            return idx
        if bar >> wl & 1:
            return None
    return None


def _append_syllable(word, lbl, exp, idx):
    """Append one syllable to a reduced word, keeping it reduced: merged
    into the syllable at idx, its _merge_target, unless that is None, and
    dropped with it if their exponents cancel."""
    if idx is None:
        return word + ((lbl, exp),)
    merged = word[idx][1] + exp
    if merged:
        return word[:idx] + ((lbl, merged),) + word[idx + 1 :]
    return word[:idx] + word[idx + 1 :]


def reduce_word(syllables, e):
    """Fold the syllables, zero exponents dropped, onto the empty word by
    _append_syllable.  Exponents combine with +, so any type with + works
    (position lists, say, which concatenate)."""
    word = ()
    for lbl, exp in syllables:
        if not 0 <= lbl < e.size:
            raise DomainError(f"label {lbl} out of range")
        if exp:
            word = _append_syllable(word, lbl, exp, _merge_target(word, lbl, e))
    return word


def generator_mixed_moment(entries, e):
    """Trace of the product over positions of u + u^{-1}: the coefficient
    of () after folding the positions left to right on a dict from
    reduced prefix to coefficient, each prefix taking u and u^{-1} by
    _append_syllable from one _merge_target lookup, and equal results
    merging.  A coefficient counts sign vectors, so it is never 0.

    A child is pruned before it is built when its weight, the appended
    label's sum of |exponent|, exceeds the label's count among the
    positions left: the prefix's weight plus 1 without a merge target,
    or minus |q| plus |q +- 1| when merging into exponent q.  Such a
    child reduces to no more of the label, yet must equal the prefix's
    inverse, and all reduced forms of an element carry the same syllables
    (E. R. Green, Graph products of groups, Leeds 1990).

    A tuple in which some label occurs an odd number of times has trace
    0, returned before the fold: the abelianization sends each signed
    term to its vector of per-label exponent sums, and a label's sum has
    the parity of its count, so no term is the identity.  The weight
    prune would kill every prefix at that label's last occurrence."""
    e.check_tuple(entries)
    if any(entries.count(lbl) % 2 for lbl in set(entries)):
        return Fraction(0)
    prefixes = {(): 1}
    for k, lbl in enumerate(entries):
        left = entries[k + 1 :].count(lbl)
        out = {}
        for word, coeff in prefixes.items():
            weight = sum([abs(x) for wl, x in word if wl == lbl])
            idx = _merge_target(word, lbl, e)
            q = 0 if idx is None else word[idx][1]
            for exp in (1, -1):
                if weight - abs(q) + abs(q + exp) <= left:
                    nxt = _append_syllable(word, lbl, exp, idx)
                    out[nxt] = out.get(nxt, 0) + coeff
        prefixes = out
    return Fraction(prefixes.get((), 0))
