"""The products-as-arguments identity harness: multivariate free
cumulants of one algebra's joint moments, computed by recursion over
non-crossing partitions, and the two-factor product-in-first-slot
expansion checked against them.  Tests only; epsindep never calls it."""

from fractions import Fraction

from epsindep import DomainError, enumerate_noncrossing


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
                if len(p.blocks) == 1:
                    continue
                term = Fraction(1)
                for block in p.blocks:
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
