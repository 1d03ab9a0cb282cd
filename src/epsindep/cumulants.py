"""Exact cumulant/moment conversions and block-product evaluation.

Free cumulants invert moments over non-crossing partitions, classical
cumulants over all partitions; both by the same subtraction recursion
(peel everything except the full block).  Values are exact rationals,
computed internally as scaled integers.
"""

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm

from .errors import DomainError, InputError, TableError, excerpt
from .partitions import kernel, refines

FREE = "free"
CLASSICAL = "classical"


def _convert(seq, kind, given):
    """The cumulants of moments m_1..m_N or the moments of cumulants
    kappa_1..kappa_N: given ("moments" or "cumulants") names seq's side.

    m_n = kappa_n + rest_n, where rest_n sums over the partitions whose
    block containing point 1 has size s < n (m_0 = 1):
    - classical: choose the block's other s-1 points, the remaining n-s
      points partition freely, so rest_n = sum C(n-1, s-1) kappa_s m_{n-s};
    - free: the s gaps the block leaves fill independently, so
      rest_n = sum kappa_s [z^(n-s)] M(z)^s with M(z) = sum m_i z^i.
      powers[s][t] = [z^t] M(z)^s gains column t = n-1 at order n, from
      the moments known by then, so the pass costs O(N^3) operations.
    Both are homogeneous of degree n, so they run unchanged on the integers
    value_p * d**p (seq holds Fractions, d their common denominator), and
    each output is divided by d**p once.
    """
    order = len(seq)
    d = lcm(*(v.denominator for v in seq))
    scale = [d**p for p in range(order + 1)]
    moments = [1]
    cumulants = []
    powers = [[1] + [0] * order] + [[] for _ in range(order)]
    for n in range(1, order + 1):
        if kind == FREE:
            t = n - 1
            for s in range(1, order - t + 1):
                prev = powers[s - 1]
                powers[s].append(sum(moments[i] * prev[t - i] for i in range(t + 1) if prev[t - i]))
            rest = sum(cumulants[s - 1] * powers[s][n - s] for s in range(1, n))
        else:
            rest = sum(comb(n - 1, s - 1) * cumulants[s - 1] * moments[n - s] for s in range(1, n))
        value = seq[n - 1].numerator * (scale[n] // seq[n - 1].denominator)
        if given == "moments":
            moments.append(value)
            cumulants.append(value - rest)
        else:
            cumulants.append(value)
            moments.append(value + rest)
    out = cumulants if given == "moments" else moments[1:]
    return [Fraction(x, scale[p]) for p, x in enumerate(out, 1)]


def _fractions(seq):
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in seq)


def _to_cumulants(moments, kind):
    if not moments:
        raise TableError("empty moment sequence")
    return _convert(_fractions(moments), kind, "moments")


def free_cumulants_to_moments(cumulants):
    return _convert(_fractions(cumulants), FREE, "cumulants")


def moments_to_free_cumulants(moments):
    return _to_cumulants(moments, FREE)


def classical_cumulants_to_moments(cumulants):
    return _convert(_fractions(cumulants), CLASSICAL, "cumulants")


def moments_to_classical_cumulants(moments):
    return _to_cumulants(moments, CLASSICAL)


@dataclass(frozen=True)
class CumulantTable:
    """Cumulant sequence of one variable, free or classical flavour."""

    kind: str
    cumulants: tuple
    label: object = None
    # the moment sequence, computed at most once per table
    _moments: tuple = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in (FREE, CLASSICAL):
            raise TableError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "cumulants", _fractions(self.cumulants))

    @classmethod
    def from_moments(cls, kind, moments, label=None):
        moments = _fractions(moments)
        table = cls(kind, _to_cumulants(moments, kind), label=label)
        object.__setattr__(table, "_moments", moments)
        return table

    @property
    def max_order(self):
        return len(self.cumulants)

    def cumulant(self, order):
        if not 1 <= order <= len(self.cumulants):
            raise TableError(
                f"order {order} outside table (max {len(self.cumulants)})"
            )
        return self.cumulants[order - 1]

    def _moment_tuple(self):
        if self._moments is None:
            object.__setattr__(self, "_moments", tuple(_convert(self.cumulants, self.kind, "cumulants")))
        return self._moments

    def moments(self):
        return list(self._moment_tuple())

    def moment(self, order):
        if not 1 <= order <= len(self.cumulants):
            raise TableError(
                f"order {order} outside table (max {len(self.cumulants)})"
            )
        return self._moment_tuple()[order - 1]


def kappa_pi(p, entries, tables):
    """Product over blocks of the block-size cumulant from the table of
    the block's label.  Requires the partition to sit below the kernel."""
    if p.n != len(entries):
        raise DomainError("partition size differs from tuple length")
    if not refines(p, kernel(entries)):
        raise DomainError("partition does not refine the kernel of the tuple")
    total = Fraction(1)
    for block in p.blocks:
        label = entries[block[0] - 1]
        if label not in tables:
            raise TableError(f"no cumulant table for label {label}")
        total *= tables[label].cumulant(len(block))
    return total


# -- named distributions ----------------------------------------------------


def semicircle_table(variance=1, max_order=12, label=None):
    """Free analogue of the Gaussian: only the second free cumulant."""
    cum = [Fraction(0)] * max_order
    if max_order >= 2:
        cum[1] = Fraction(variance)
    return CumulantTable(FREE, cum, label=label)


def arcsine_moments(max_order=12):
    """Even moments are central binomials C(2k,k), odd are 0.

    This is the distribution of a group generator plus its inverse under
    the canonical trace."""
    return [Fraction(comb(n, n // 2)) if n % 2 == 0 else Fraction(0) for n in range(1, max_order + 1)]


def arcsine_table(kind=FREE, max_order=12, label=None):
    return CumulantTable.from_moments(kind, arcsine_moments(max_order), label=label)


def bernoulli_moments(max_order=12):
    """Symmetric +/-1 coin: moments alternate 0, 1."""
    return [Fraction(0) if n % 2 else Fraction(1) for n in range(1, max_order + 1)]


def point_mass_moments(value, max_order=12):
    v = Fraction(value)
    return [v**n for n in range(1, max_order + 1)]


_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*$", re.IGNORECASE)


def parse_fraction(text):
    """A rational from a JSON number or string.  A string in exponent
    notation is rejected, before its value is built, when the exponent
    exceeds the interpreter's int-to-str digit limit: the policy for a
    numeral with that many digits."""
    try:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        exponent = _EXPONENT.search(text) if isinstance(text, str) and limit else None
        if exponent and abs(int(exponent[1])) > limit:
            raise ValueError(f"exponent beyond the {limit}-digit limit on integers")
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"bad rational {excerpt(text)}: {exc}")


def format_fraction(f):
    """f as "p/q", exactly: the interpreter's limit on the digits of an
    int-to-str conversion (3.10.7 and later) is lifted while formatting."""
    f = Fraction(f)
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return f"{f.numerator}/{f.denominator}"
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return f"{f.numerator}/{f.denominator}"
    finally:
        set_limit(limit)


def spec_moments(spec, order=12):
    """Validate a JSON distribution spec and return (kind, moments).

    Either {"kind": "free"|"classical", "moments": ["p/q", ...]}, whose
    moments are returned in full, or a named one, e.g. {"named":
    "semicircle", "variance": "1", "kind": ...}, generated to the given
    order (order 0 only validates it).  kind defaults to free.
    """
    if not isinstance(spec, dict):
        raise InputError(f"distribution spec must be a JSON object: {excerpt(spec)}")
    kind = spec.get("kind", FREE)
    if kind not in (FREE, CLASSICAL):
        raise InputError(f"unknown kind {excerpt(kind)}")
    if "moments" in spec:
        if not isinstance(spec["moments"], list) or not spec["moments"]:
            raise InputError(f"'moments' must be a non-empty array: {excerpt(spec)}")
        return kind, [parse_fraction(m) for m in spec["moments"]]
    name = spec.get("named")
    if name == "semicircle":
        variance = parse_fraction(str(spec.get("variance", "1")))
        cumulants = ([Fraction(0), variance] + [Fraction(0)] * order)[:order]
        return kind, free_cumulants_to_moments(cumulants)
    if name == "arcsine":
        return kind, arcsine_moments(order)
    if name == "bernoulli":
        return kind, bernoulli_moments(order)
    if name == "point_mass":
        value = parse_fraction(str(spec.get("value", "1")))
        return kind, point_mass_moments(value, order)
    raise InputError(f"distribution spec needs 'moments' or a known 'named': {excerpt(spec)}")
