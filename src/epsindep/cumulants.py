"""Exact cumulant/moment conversions and block-product evaluation.

Free cumulants invert moments over non-crossing partitions, classical
cumulants over all partitions; both by the same subtraction recursion
(peel everything except the full block).  Values are exact rationals,
computed internally as scaled integers.
"""

import re
import sys
from fractions import Fraction
from math import comb, lcm
from operator import add

from .epsilon import CLASSICAL, FREE
from .errors import DomainError, InputError, TableError, excerpt, unlimited_int_digits
from .partitions import below_kernel


def _convert(seq, kind, given):
    """(d, scaled moments, scaled cumulants) of moments m_1..m_N or of
    cumulants kappa_1..kappa_N, given ("moments" or "cumulants") naming
    seq's side: d is the common denominator of seq, and the p-th entries
    are the integers m_p * d**p and kappa_p * d**p.

    m_n = kappa_n + rest_n, where rest_n sums over the partitions whose
    block containing point 1 has size s < n (m_0 = 1):
    - classical: choose the block's other s-1 points, the remaining n-s
      points partition freely, so rest_n = sum C(n-1, s-1) kappa_s m_{n-s},
      its binomials read off one Pascal row, row n-1 at order n;
    - free: the s gaps the block leaves fill independently, so
      rest_n = sum kappa_s [z^(n-s)] M(z)^s with M(z) = sum m_i z^i.
      powers[s][t] = [z^t] M(z)^s gains column t = n-1 at order n, from
      the moments known by then, so the pass costs O(N^3) operations.
    Both sums run over `nonzero`, the i >= 1 with m_i != 0, each added once
    m_i is known; the free one takes the m_0 = 1 term directly.
    Both are homogeneous of degree n, so they run unchanged on the scaled
    integers, and every output is an integer too.  An empty seq, on either
    side, is a TableError.
    """
    if not seq:
        raise TableError(f"empty sequence of {given}")
    order = len(seq)
    d = lcm(*(v.denominator for v in seq))
    moments = [1]
    cumulants = []
    nonzero = []
    powers = [[1] + [0] * order] + [[] for _ in range(order)]
    pascal = [1]  # C(n-1, j) for j = 0..n-1
    dn = 1  # d**n
    for n in range(1, order + 1):
        dn *= d
        rest = 0
        if kind == FREE:
            t = n - 1
            for s in range(1, order - t + 1):
                prev = powers[s - 1]
                acc = prev[t]
                for i in nonzero:
                    acc += moments[i] * prev[t - i]
                powers[s].append(acc)
            for s in range(1, n):
                rest += cumulants[s - 1] * powers[s][n - s]
        else:
            for i in nonzero:
                rest += pascal[i] * cumulants[n - i - 1] * moments[i]
            pascal = [1, *map(add, pascal, pascal[1:]), 1]
        value = seq[n - 1].numerator * (dn // seq[n - 1].denominator)
        if given == "moments":
            moments.append(value)
            cumulants.append(value - rest)
        else:
            cumulants.append(value)
            moments.append(value + rest)
        if moments[n]:
            nonzero.append(n)
    return d, tuple(moments[1:]), tuple(cumulants)


def _fractions(seq):
    """seq with each entry that is not an int or a Fraction (say a str)
    made a Fraction: _convert reads only numerator and denominator, which
    an int has too."""
    return tuple(v if isinstance(v, (int, Fraction)) else Fraction(v) for v in seq)


class CumulantTable:
    """The law of one variable, free or classical flavour, held as d and
    the integers m_p * d**p and kappa_p * d**p (_convert), d the common
    denominator of the sequence it was built from, of order 1 or more."""

    __slots__ = ("kind", "d", "scaled_moments", "scaled_cumulants")

    def __init__(self, kind, cumulants):
        self._fill(kind, cumulants, "cumulants")

    @classmethod
    def from_moments(cls, kind, moments, label=None):
        """The table of the moments m_1..m_N.  label is accepted and
        ignored: bench/worker.py's counting wrapper still passes it."""
        table = cls.__new__(cls)
        table._fill(kind, moments, "moments")
        return table

    def _fill(self, kind, seq, given):
        if kind not in (FREE, CLASSICAL):
            raise TableError(f"unknown kind {kind!r}")
        self.kind = kind
        self.d, self.scaled_moments, self.scaled_cumulants = _convert(_fractions(seq), kind, given)

    @property
    def max_order(self):
        return len(self.scaled_cumulants)

    @property
    def cumulants(self):
        return tuple(self.cumulant(p) for p in range(1, self.max_order + 1))

    def moments(self):
        return [self.moment(p) for p in range(1, self.max_order + 1)]

    def cumulant(self, order):
        return Fraction(self._scaled(self.scaled_cumulants, order), self.d**order)

    def moment(self, order):
        return Fraction(self._scaled(self.scaled_moments, order), self.d**order)

    def _scaled(self, values, order):
        if not 1 <= order <= len(values):
            raise TableError(f"order {order} outside table (max {len(values)})")
        return values[order - 1]


def kappa_pi(blocks, entries, tables):
    """Product over blocks of the block-size cumulant from the table of
    the block's label.  Requires the partition to sit below the kernel."""
    if not below_kernel(blocks, entries):
        raise DomainError("partition does not refine the kernel of the tuple")
    total = Fraction(1)
    for block in blocks:
        label = entries[block[0] - 1]
        if label not in tables:
            raise TableError(f"no cumulant table for label {label}")
        total *= tables[label].cumulant(len(block))
    return total


# -- named distributions ----------------------------------------------------


def arcsine_moments(max_order):
    """Even moments are central binomials C(2k,k), odd are 0.

    This is the distribution of a group generator plus its inverse under
    the canonical trace.  The moments are ints."""
    return [0 if n % 2 else comb(n, n // 2) for n in range(1, max_order + 1)]


def arcsine_table(kind, max_order):
    return CumulantTable.from_moments(kind, arcsine_moments(max_order))


def semicircle_moments(variance, max_order):
    """Free Gaussian: m_2k = C_k v**k, C_k the Catalan number counting the
    non-crossing pairings of 2k points; odd moments are 0."""
    v = Fraction(variance)
    return [
        Fraction(0) if n % 2 else comb(n, n // 2) // (n // 2 + 1) * v ** (n // 2)
        for n in range(1, max_order + 1)
    ]


def bernoulli_moments(max_order):
    """Symmetric +/-1 coin: moments alternate 0, 1, as ints."""
    return [0 if n % 2 else 1 for n in range(1, max_order + 1)]


def point_mass_moments(value, max_order):
    v = Fraction(value)
    return [v**n for n in range(1, max_order + 1)]


_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*$", re.IGNORECASE)
# a plain numeral "-?p/q", ASCII digits, q not all zeros: what it fully
# matches parse_fraction accepts as Fraction(int(p), int(q or 1)); 640 is
# the lowest nonzero int-to-str digit limit, so int() never raises on it
_PLAIN = re.compile(r"(-?[0-9]{1,640})(?:/(?=0*[1-9])([0-9]{1,640}))?")


def parse_fraction(text):
    """A rational from a JSON number or string.  A string in exponent
    notation is rejected, before its value is built, when the exponent
    exceeds the interpreter's int-to-str digit limit: the policy for a
    numeral with that many digits.  A JSON boolean is not a number, though
    Fraction(True) == 1."""
    plain = _PLAIN.fullmatch(text) if isinstance(text, str) else None
    if plain:
        return Fraction(int(plain[1]), int(plain[2] or 1))
    try:
        if isinstance(text, bool):
            raise TypeError("a boolean is not a number")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        exponent = _EXPONENT.search(text) if isinstance(text, str) and limit else None
        if exponent and abs(int(exponent[1])) > limit:
            raise ValueError(f"exponent beyond the {limit}-digit limit on integers")
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"bad rational {excerpt(text)}: {exc}")


def format_fraction(f):
    """f, a Fraction as given or anything else Fraction reads, as "p/q",
    exactly, whatever its number of digits.  The int-to-str digit limit is
    lifted only when p or q has 2,000 bits or more: a smaller int has at
    most 602 digits, below 640, the lowest limit Python accepts."""
    if not isinstance(f, Fraction):
        f = Fraction(f)
    p, q = f.numerator, f.denominator
    if p.bit_length() < 2000 and q.bit_length() < 2000:
        return f"{p}/{q}"
    return unlimited_int_digits(lambda: f"{p}/{q}")


# the named laws of a distribution spec: each one's moment generator, and
# the key of its one parameter (default 1), None if it takes none
_NAMED = {
    "semicircle": (semicircle_moments, "variance"),
    "arcsine": (arcsine_moments, None),
    "bernoulli": (bernoulli_moments, None),
    "point_mass": (point_mass_moments, "value"),
}


def spec_moments(spec, order):
    """Validate a JSON distribution spec and return its moments to the
    given order (order 0 only validates the spec).

    Either {"kind": "free"|"classical", "moments": ["p/q", ...]}, whose
    moments are validated in full, first bad entry first, but built only
    up to order, or a named one, e.g. {"named": "semicircle", "variance":
    "1", "kind": ...}, generated to order by its _NAMED generator.  "kind"
    may be left out, and a given one is only checked to be a kind: the
    caller decides the label's kind.  "label" is allowed; any other key is
    an input error.
    """
    if not isinstance(spec, dict):
        raise InputError(f"distribution spec must be a JSON object: {excerpt(spec)}")
    if spec.get("kind", FREE) not in (FREE, CLASSICAL):
        raise InputError(f"unknown kind {excerpt(spec['kind'])}")
    if "moments" in spec and "named" in spec:
        raise InputError(f"distribution spec gives both 'moments' and 'named': {excerpt(spec)}")
    name = spec.get("named")
    if "moments" in spec:
        allowed = ("label", "kind", "moments")
    elif isinstance(name, str) and name in _NAMED:
        generate, param = _NAMED[name]
        allowed = ("label", "kind", "named") + ((param,) if param else ())
    else:
        raise InputError(f"distribution spec needs 'moments' or a known 'named': {excerpt(spec)}")
    for key in spec:
        if key not in allowed:
            raise InputError(
                f"unknown key {excerpt(key)} in distribution spec (allowed: {', '.join(allowed)})"
            )
    if "moments" in spec:
        if not isinstance(spec["moments"], list) or not spec["moments"]:
            raise InputError(f"'moments' must be a non-empty array: {excerpt(spec)}")
        read = [parse_fraction(m) for m in spec["moments"][:order]]
        for m in spec["moments"][order:]:
            if not (isinstance(m, str) and _PLAIN.fullmatch(m)):
                parse_fraction(m)
        return read
    if param is None:
        return generate(order)
    return generate(parse_fraction(spec.get(param, "1")), order)
