"""Graph products of copies of Z: reduced words and generator mixed
moments.

Commutation between generators follows the off-diagonal entries of the
independence matrix; diagonal entries play no role here.  A reduced
nonempty word is never the identity, so triviality is a syntactic check.
_fold_step expands products of sums of syllables, merging equal reduced
prefixes, for the group trace and the definition route in moments.
"""

from fractions import Fraction

from .errors import DomainError


def _append_syllable(word, lbl, exp, e):
    """Append one syllable to a reduced word, keeping it reduced: the one
    same-label merge of the package.

    The merge target, if any, is the unique same-label syllable with
    only commuting syllables after it."""
    bar = e.against[lbl]  # the labels that do not commute with lbl
    for idx in range(len(word) - 1, -1, -1):
        wl = word[idx][0]
        if wl == lbl:
            merged = word[idx][1] + exp
            if merged:
                return word[:idx] + ((lbl, merged),) + word[idx + 1 :]
            return word[:idx] + word[idx + 1 :]
        if bar >> wl & 1:
            break
    return word + ((lbl, exp),)


def _fold_step(prefixes, choices, e):
    """One position of a prefix-merged expansion: each prefix (a reduced
    word, mapped to its coefficient) takes each choice (syllable or None,
    factor) by _append_syllable (None keeps it) times the factor; equal
    results merge and zero coefficients are dropped."""
    out = {}
    for word, coeff in prefixes.items():
        for syllable, factor in choices:
            nxt = word if syllable is None else _append_syllable(word, *syllable, e)
            out[nxt] = out.get(nxt, 0) + coeff * factor
    return {word: coeff for word, coeff in out.items() if coeff}


def reduce_word(syllables, e):
    """Fold the syllables, zero exponents dropped, onto the empty word by
    _append_syllable.  Exponents combine with +, so any type with + works
    (position lists, say, which concatenate)."""
    word = ()
    for lbl, exp in syllables:
        if not 0 <= lbl < e.size:
            raise DomainError(f"label {lbl} out of range")
        if exp:
            word = _append_syllable(word, lbl, exp, e)
    return word


def generator_mixed_moment(entries, e):
    """Trace of the product over positions of u + u^{-1}: the coefficient
    of () after folding the choices u, u^{-1} per position (_fold_step).
    A prefix is dropped once the appended label's sum of |exponent|
    exceeds its count among the positions left: these reduce to no more
    of the label, yet must equal the prefix's inverse, and all reduced
    forms of an element carry the same syllables (E. R. Green, Graph
    products of groups, Leeds 1990)."""
    e.check_tuple(entries)
    prefixes = {(): 1}
    for k, lbl in enumerate(entries):
        left = entries[k + 1 :].count(lbl)
        step = _fold_step(prefixes, (((lbl, 1), 1), ((lbl, -1), 1)), e)
        prefixes = {w: c for w, c in step.items() if sum(abs(x) for wl, x in w if wl == lbl) <= left}
    return Fraction(prefixes.get((), 0))
