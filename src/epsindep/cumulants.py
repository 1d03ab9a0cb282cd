"""Exact cumulant/moment conversions and block-product evaluation.

Free cumulants invert moments over non-crossing partitions, classical
cumulants over all partitions; both by the same subtraction recursion
(peel everything except the full block).  All arithmetic is Fraction.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .errors import DomainError, InputError, TableError
from .partitions import enumerate_noncrossing, kernel, refines

FREE = "free"
CLASSICAL = "classical"


def _convert(seq, kind, given):
    """Moment and cumulant sequences from either one, in one pass over the
    orders; given is "moments" or "cumulants" and says which seq holds.

    m_n = kappa_n + rest_n, where rest_n sums over the partitions whose
    block containing point 1 has size s < n (m_0 = 1):
    - classical: choose the block's other s-1 points, the remaining n-s
      points partition freely, so rest_n = sum C(n-1, s-1) kappa_s m_{n-s};
    - free: the s gaps the block leaves fill independently, so
      rest_n = sum kappa_s [z^(n-s)] M(z)^s with M(z) = sum m_i z^i.
      powers[s][t] = [z^t] M(z)^s gains column t = n-1 at order n, from
      the moments known by then, so the pass costs O(N^3) Fraction
      operations.
    """
    order = len(seq)
    moments = [Fraction(1)]
    cumulants = []
    powers = [[Fraction(1)] + [Fraction(0)] * order] + [[] for _ in range(order)]
    for n in range(1, order + 1):
        if kind == FREE:
            t = n - 1
            for s in range(1, order - t + 1):
                prev = powers[s - 1]
                terms = (moments[i] * prev[t - i] for i in range(t + 1) if prev[t - i])
                powers[s].append(sum(terms))
            rest = sum(cumulants[s - 1] * powers[s][n - s] for s in range(1, n))
        else:
            rest = sum(
                comb(n - 1, s - 1) * cumulants[s - 1] * moments[n - s] for s in range(1, n)
            )
        value = Fraction(seq[n - 1])
        if given == "moments":
            moments.append(value)
            cumulants.append(value - rest)
        else:
            cumulants.append(value)
            moments.append(value + rest)
    return moments[1:], cumulants


def _to_moments(cumulants, kind):
    return _convert(cumulants, kind, "cumulants")[0]


def _to_cumulants(moments, kind):
    if not moments:
        raise TableError("empty moment sequence")
    return _convert(moments, kind, "moments")[1]


def free_cumulants_to_moments(cumulants):
    return _to_moments(cumulants, FREE)


def moments_to_free_cumulants(moments):
    return _to_cumulants(moments, FREE)


def classical_cumulants_to_moments(cumulants):
    return _to_moments(cumulants, CLASSICAL)


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
        object.__setattr__(self, "cumulants", tuple(Fraction(c) for c in self.cumulants))

    @classmethod
    def from_moments(cls, kind, moments, label=None):
        table = cls(kind, _to_cumulants(moments, kind), label=label)
        object.__setattr__(table, "_moments", tuple(Fraction(m) for m in moments))
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
            object.__setattr__(self, "_moments", tuple(_to_moments(self.cumulants, self.kind)))
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


def arcsine_moments(max_order=12, scale=1):
    """Even moments are central binomials C(2k,k)*scale^2k, odd are 0.

    This is the distribution of a group generator plus its inverse under
    the canonical trace."""
    s = Fraction(scale)
    return [
        Fraction(comb(n, n // 2)) * s**n if n % 2 == 0 else Fraction(0)
        for n in range(1, max_order + 1)
    ]


def arcsine_table(kind=FREE, max_order=12, label=None):
    return CumulantTable.from_moments(kind, arcsine_moments(max_order), label=label)


def bernoulli_moments(max_order=12):
    """Symmetric +/-1 coin: moments alternate 0, 1."""
    return [Fraction(0) if n % 2 else Fraction(1) for n in range(1, max_order + 1)]


def bernoulli_table(kind=FREE, max_order=12, label=None):
    return CumulantTable.from_moments(kind, bernoulli_moments(max_order), label=label)


def point_mass_moments(value, max_order=12):
    v = Fraction(value)
    return [v**n for n in range(1, max_order + 1)]


def point_mass_table(value, kind=FREE, max_order=12, label=None):
    return CumulantTable.from_moments(kind, point_mass_moments(value, max_order), label=label)


def parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}")


def format_fraction(f):
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def table_from_spec(spec, max_order=12):
    """Build a table from a JSON distribution spec.

    Either {"label": name, "kind": "free"|"classical",
    "moments": ["p/q", ...]} or a named one, e.g. {"label": name,
    "named": "semicircle", "variance": "1", "kind": ...}.
    """
    label = spec.get("label")
    kind = spec.get("kind", FREE)
    if kind not in (FREE, CLASSICAL):
        raise InputError(f"unknown kind {kind!r}")
    if "moments" in spec:
        moments = [parse_fraction(m) for m in spec["moments"]]
        return CumulantTable.from_moments(kind, moments, label=label)
    name = spec.get("named")
    if name == "semicircle":
        variance = parse_fraction(str(spec.get("variance", "1")))
        moments = _to_moments(
            [Fraction(0), variance] + [Fraction(0)] * (max_order - 2), FREE
        )
        return CumulantTable.from_moments(kind, moments, label=label)
    if name == "arcsine":
        return arcsine_table(kind, max_order, label=label)
    if name == "bernoulli":
        return bernoulli_table(kind, max_order, label=label)
    if name == "point_mass":
        value = parse_fraction(str(spec.get("value", "1")))
        return point_mass_table(value, kind, max_order, label=label)
    raise InputError(f"distribution spec needs 'moments' or a known 'named': {spec!r}")


# -- products-as-arguments identity harness ---------------------------------


class JointMomentOracle:
    """Joint moments of finitely many symbols of one algebra.

    phi() maps a word (tuple of symbol indices) to a rational; the empty
    word has moment 1.  Values may be arbitrary: the identity under test
    is purely combinatorial in the moment data.
    """

    def __init__(self, nvars, values=None, default_factory=None):
        self.nvars = nvars
        self.values = {tuple(w): Fraction(v) for w, v in (values or {}).items()}
        self.default_factory = default_factory
        self._kappa_cache = {}

    def phi(self, word):
        word = tuple(word)
        if not word:
            return Fraction(1)
        if word not in self.values:
            if self.default_factory is None:
                raise TableError(f"joint moment for word {word} not supplied")
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
                if len(p.blocks) == 1:
                    continue
                term = Fraction(1)
                for block in p.blocks:
                    term *= self.cumulant(tuple(args[r - 1] for r in block))
                total -= term
        self._kappa_cache[args] = total
        return total


def random_joint_oracle(rng, nvars, max_num=20, max_den=20):
    """Random rational joint moments, drawn lazily on first access."""

    def draw(_word):
        return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))

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
