"""The independence-prescription matrix and admissibility of index tuples.

Entry eps(i, j) = 1 means algebras i and j are classically independent
(they commute); 0 means they are free.  Diagonal entries choose the
per-algebra convention: 0 = free cumulants (default), 1 = classical.
"""

from .errors import DomainError, InputError, excerpt
from .graphgroup import reduce_word

FREE = "free"
CLASSICAL = "classical"


class EpsilonMatrix:
    """Symmetric 0/1 matrix over labels 0..size-1, immutable, held as
    against: one bitmask per label, bit j of against[i] set iff
    eps(i, j) = 0 (the labels whose blocks may not cross i's)."""

    __slots__ = ("size", "against", "labels")

    def __init__(self, size, offdiag_pairs=(), diag=None, labels=None):
        if labels is not None and len(labels) != size:
            raise InputError("labels length must equal size")
        # every label starts free of every other and of itself
        against = [(1 << size) - 1] * size
        for a, b in offdiag_pairs:
            if not (0 <= a < size and 0 <= b < size):
                raise DomainError(f"label pair ({a},{b}) out of range for size {size}")
            if a == b:
                raise DomainError(f"self-loop ({a},{a}) not allowed")
            against[a] &= ~(1 << b)
            against[b] &= ~(1 << a)
        if diag is not None:
            if len(diag) != size:
                raise DomainError("diagonal length must equal size")
            for i, d in enumerate(diag):
                if d not in (0, 1):
                    raise DomainError("diagonal entries must be 0 or 1")
                if d:
                    against[i] &= ~(1 << i)
        self.size = size
        self.against = tuple(against)
        self.labels = tuple(labels) if labels is not None else None

    @classmethod
    def from_json(cls, data):
        """Schema: {"labels": [name, ...], "independent_pairs": [[a,b],...],
        "diagonal": {name: 0|1}} -- names are strings, pair entries are
        label names; any other key is an input error."""
        names = data.get("labels") if isinstance(data, dict) else None
        if not isinstance(names, list):
            raise InputError("graph spec must contain a 'labels' array")
        allowed = ("labels", "independent_pairs", "diagonal")
        for key in data:
            if key not in allowed:
                raise InputError(
                    f"unknown key {excerpt(key)} in graph spec (allowed: {', '.join(allowed)})"
                )
        for name in names:
            if not isinstance(name, str):
                raise InputError(f"label names must be strings, not {excerpt(name)}")
        index = {name: k for k, name in enumerate(names)}
        if len(index) != len(names):
            raise InputError("duplicate label names")
        pair_list = data.get("independent_pairs", [])
        if not isinstance(pair_list, list):
            raise InputError("'independent_pairs' must be an array of label pairs")
        pairs = []
        for pair in pair_list:
            if not isinstance(pair, list) or len(pair) != 2:
                raise InputError(f"bad pair {excerpt(pair)}")
            a, b = pair
            try:
                ia, ib = index[a], index[b]
            except (KeyError, TypeError):
                raise InputError(f"unknown label in pair {excerpt(pair)}")
            if ia == ib:
                raise InputError(f"self-loop on {excerpt(a)}")
            pairs.append((ia, ib))
        diagonal = data.get("diagonal", {})
        if not isinstance(diagonal, dict):
            raise InputError("'diagonal' must be an object mapping label names to 0 or 1")
        diag = [0] * len(names)
        for name, d in diagonal.items():
            if name not in index:
                raise InputError(f"unknown label {excerpt(name)} in diagonal")
            if type(d) is not int or d not in (0, 1):
                raise InputError("diagonal entries must be the integers 0 or 1")
            diag[index[name]] = d
        return cls(len(names), pairs, diag=diag, labels=names)

    def eps(self, i, j):
        return 0 if self.against[i] >> j & 1 else 1

    def diagonal(self, i):
        return self.eps(i, i)

    def kind(self, i):
        """The cumulant kind of label i, fixed by its diagonal entry."""
        return FREE if self.against[i] >> i & 1 else CLASSICAL

    def label_index(self, name):
        if self.labels is None:
            raise InputError("matrix carries no label names")
        try:
            return self.labels.index(name)
        except ValueError:
            raise InputError(f"unknown label {excerpt(name)}")

    def check_tuple(self, entries):
        for v in entries:
            if not (0 <= v < self.size):
                raise DomainError(f"label {v} out of range for size {self.size}")

    def __eq__(self, other):
        return isinstance(other, EpsilonMatrix) and self.against == other.against

    def __hash__(self):
        return hash(self.against)

    def __repr__(self):
        return f"EpsilonMatrix({self.size}, against={self.against})"


def is_admissible_tuple(entries, e):
    """Membership in the admissible tuple set: whenever i(k)=i(l), some
    position strictly between carries a different label that is free
    from it (eps = 0).

    Decided by the reducer on the word of the entries' single powers:
    _append_syllable merges a syllable into the latest same-label one
    with only commuting labels after it, so nothing merges, and the word
    keeps its length, iff a free label separates every repeated label."""
    e.check_tuple(entries)
    return len(reduce_word(((a, 1) for a in entries), e)) == len(entries)
