"""Graph products of copies of Z (and Z/2) with reduced words, a unique
normal form, the canonical trace, and generator mixed moments.

Commutation between generators follows the off-diagonal entries of the
independence matrix; diagonal entries play no role here.  A reduced
nonempty word is never the identity, so triviality is a syntactic check.
"""

from fractions import Fraction

from .errors import DomainError, EnumerationLimitError

GENERATOR_MOMENT_CAP = 14


def _norm_exp(exp, modulus):
    return exp % modulus if modulus else exp


def reduce_word(syllables, e, modulus=None):
    """Merge same-label syllables whenever everything between commutes
    with their label; drop zero exponents.  Returns a reduced word."""
    work = []
    for lbl, exp in syllables:
        if not 0 <= lbl < e.size:
            raise DomainError(f"label {lbl} out of range")
        exp = _norm_exp(exp, modulus)
        if exp:
            work.append((lbl, exp))
    changed = True
    while changed:
        changed = False
        for a in range(len(work)):
            la = work[a][0]
            for b in range(a + 1, len(work)):
                if work[b][0] != la:
                    continue
                if all(e.independent(la, work[p][0]) for p in range(a + 1, b)):
                    exp = _norm_exp(work[a][1] + work[b][1], modulus)
                    del work[b]
                    if exp:
                        work[a] = (la, exp)
                    else:
                        del work[a]
                    changed = True
                break
            if changed:
                break
    return tuple(work)


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


def _append_syllable(word, lbl, exp, e, modulus):
    """Append one syllable to a reduced word, keeping it reduced.

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


def single_power_trace(entries, exponents, e, modulus=None):
    """Trace of a product of single generator powers u_{i(k)}^{exponents[k]}."""
    if len(entries) != len(exponents):
        raise DomainError("entries and exponents differ in length")
    e.check_tuple(entries)
    word = ()
    for lbl, exp in zip(entries, exponents):
        exp = _norm_exp(exp, modulus)
        if exp:
            word = _append_syllable(word, lbl, exp, e, modulus)
    return Fraction(1) if not word else Fraction(0)


def generator_mixed_moment(entries, e, exponent_pattern="selfadjoint", modulus=None, cap=GENERATOR_MOMENT_CAP):
    """Trace of the product over positions of u+u^{-1} (self-adjoint sum
    mode) or of prescribed single powers; exact, expansion over sign
    patterns with prefix merging."""
    n = len(entries)
    if n > cap:
        raise EnumerationLimitError(f"length {n} exceeds cap {cap}")
    e.check_tuple(entries)
    if exponent_pattern != "selfadjoint":
        return single_power_trace(entries, exponent_pattern, e, modulus)

    cache = {}

    def count(k, word):
        if k == n:
            return 1 if not word else 0
        key = (k, word)
        hit = cache.get(key)
        if hit is not None:
            return hit
        lbl = entries[k]
        total = count(k + 1, _append_syllable(word, lbl, 1, e, modulus)) + count(
            k + 1, _append_syllable(word, lbl, -1, e, modulus)
        )
        cache[key] = total
        return total

    return Fraction(count(0, ()))

