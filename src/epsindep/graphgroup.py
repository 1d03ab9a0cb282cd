"""Graph products of copies of Z (and Z/2) with reduced words, a unique
normal form, the canonical trace, and generator mixed moments.

Commutation between generators follows the off-diagonal entries of the
independence matrix; diagonal entries play no role here.  A reduced
nonempty word is never the identity, so triviality is a syntactic check.
_fold_step expands products of sums of syllables, merging equal reduced
prefixes, for the group trace and the definition route in moments.
"""

from fractions import Fraction

from .errors import DomainError, EnumerationLimitError

GENERATOR_MOMENT_CAP = 14


def _norm_exp(exp, modulus):
    return exp % modulus if modulus else exp


def _append_syllable(word, lbl, exp, e, modulus):
    """Append one syllable to a reduced word, keeping it reduced: the one
    same-label merge of the package.

    The merge target, if any, is the unique same-label syllable with
    only commuting syllables after it."""
    for idx in range(len(word) - 1, -1, -1):
        wl = word[idx][0]
        if wl == lbl:
            merged = _norm_exp(word[idx][1] + exp, modulus)
            if merged:
                return word[:idx] + ((lbl, merged),) + word[idx + 1 :]
            return word[:idx] + word[idx + 1 :]
        if not e.independent(lbl, wl):
            break
    return word + ((lbl, _norm_exp(exp, modulus)),)


def _fold_step(prefixes, choices, e):
    """One position of a prefix-merged expansion: each prefix (a reduced
    word, mapped to its coefficient) takes each choice (syllable or None,
    factor) by _append_syllable (None keeps it) times the factor; equal
    results merge and zero coefficients are dropped."""
    out = {}
    for word, coeff in prefixes.items():
        for syllable, factor in choices:
            nxt = word if syllable is None else _append_syllable(word, *syllable, e, None)
            out[nxt] = out.get(nxt, 0) + coeff * factor
    return {word: coeff for word, coeff in out.items() if coeff}


def reduce_word(syllables, e, modulus=None):
    """Fold the syllables, zero exponents dropped, onto the empty word by
    _append_syllable.  Exponents combine with +, so any type with + works
    (moments.normalize_tuple merges position lists)."""
    word = ()
    for lbl, exp in syllables:
        if not 0 <= lbl < e.size:
            raise DomainError(f"label {lbl} out of range")
        exp = _norm_exp(exp, modulus)
        if exp:
            word = _append_syllable(word, lbl, exp, e, modulus)
    return word


def normal_form(syllables, e, modulus=None):
    """Unique representative of the commutation class: reduce, then emit
    layer by layer the syllables with no earlier non-commuting syllable,
    ordered by label inside each layer."""
    rem = list(reduce_word(syllables, e, modulus))
    out = []
    while rem:
        layer = [
            idx
            for idx, (lbl, _) in enumerate(rem)
            if all(e.independent(lbl, rem[j][0]) for j in range(idx))
        ]
        layer.sort(key=lambda idx: rem[idx][0])
        out.extend(rem[idx] for idx in layer)
        for idx in sorted(layer, reverse=True):
            del rem[idx]
    return tuple(out)


def multiply_reduce(w1, w2, e, modulus=None):
    """Product of two words in canonical normal form."""
    return normal_form(tuple(w1) + tuple(w2), e, modulus)


def invert_word(w, modulus=None):
    return tuple((lbl, _norm_exp(-exp, modulus)) for lbl, exp in reversed(w))


def word_to_json(w):
    return [[lbl, exp] for lbl, exp in w]


def word_from_json(data):
    return tuple((int(lbl), int(exp)) for lbl, exp in data)


class GroupAlgebraElement:
    """Finitely supported rational combination of normal-form words."""

    __slots__ = ("e", "modulus", "coeffs")

    def __init__(self, e, coeffs=None, modulus=None):
        self.e = e
        self.modulus = modulus
        self.coeffs = {}
        for word, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                w = normal_form(word, e, modulus)
                self.coeffs[w] = self.coeffs.get(w, Fraction(0)) + c
        self.coeffs = {w: c for w, c in self.coeffs.items() if c}

    @classmethod
    def from_word(cls, e, word, modulus=None):
        return cls(e, {tuple(word): Fraction(1)}, modulus)

    @classmethod
    def generator(cls, e, label, exponent=1, modulus=None):
        return cls.from_word(e, ((label, exponent),), modulus)

    @classmethod
    def one(cls, e, modulus=None):
        return cls.from_word(e, (), modulus)

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, Fraction(0)) + c
        return GroupAlgebraElement(self.e, out, self.modulus)

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            out = {}
            for w1, c1 in self.coeffs.items():
                for w2, c2 in other.coeffs.items():
                    w = multiply_reduce(w1, w2, self.e, self.modulus)
                    out[w] = out.get(w, Fraction(0)) + c1 * c2
            return GroupAlgebraElement(self.e, out, self.modulus)
        return GroupAlgebraElement(
            self.e,
            {w: c * Fraction(other) for w, c in self.coeffs.items()},
            self.modulus,
        )

    __rmul__ = __mul__

    def trace(self):
        return self.coeffs.get((), Fraction(0))


def trace(x):
    """Coefficient of the neutral element."""
    return x.trace()


def single_power_trace(entries, exponents, e, modulus=None):
    """Trace of a product of single generator powers u_{i(k)}^{exponents[k]}."""
    if len(entries) != len(exponents):
        raise DomainError("entries and exponents differ in length")
    e.check_tuple(entries)
    return Fraction(not reduce_word(zip(entries, exponents), e, modulus))


def generator_mixed_moment(entries, e, cap=GENERATOR_MOMENT_CAP):
    """Trace of the product over positions of u + u^{-1}: the coefficient
    of () after folding the choices u, u^{-1} per position (_fold_step).
    A prefix is dropped once the appended label's sum of |exponent|
    exceeds its count among the positions left: these reduce to no more
    of the label, yet must equal the prefix's inverse, and all reduced
    forms of an element carry the same syllables (E. R. Green, Graph
    products of groups, Leeds 1990)."""
    n = len(entries)
    if n > cap:
        raise EnumerationLimitError(f"length {n} exceeds cap {cap}")
    e.check_tuple(entries)
    prefixes = {(): 1}
    for k, lbl in enumerate(entries):
        left = entries[k + 1 :].count(lbl)
        step = _fold_step(prefixes, (((lbl, 1), 1), ((lbl, -1), 1)), e)
        prefixes = {w: c for w, c in step.items() if sum(abs(x) for wl, x in w if wl == lbl) <= left}
    return Fraction(prefixes.get((), 0))
