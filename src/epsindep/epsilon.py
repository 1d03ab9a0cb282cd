"""The independence-prescription matrix and admissibility of index tuples.

Entry eps(i, j) = 1 means algebras i and j are classically independent
(they commute); 0 means they are free.  Diagonal entries choose the
per-algebra convention: 0 = free cumulants (default), 1 = classical.
"""

from .errors import DomainError, InputError


class EpsilonMatrix:
    """Symmetric 0/1 matrix over labels 0..size-1, immutable."""

    __slots__ = ("size", "_mat", "labels", "_key")

    def __init__(self, size, offdiag_pairs=(), diag=None, labels=None):
        if labels is not None and len(labels) != size:
            raise InputError("labels length must equal size")
        mat = [[0] * size for _ in range(size)]
        for a, b in offdiag_pairs:
            if not (0 <= a < size and 0 <= b < size):
                raise DomainError(f"label pair ({a},{b}) out of range for size {size}")
            if a == b:
                raise DomainError(f"self-loop ({a},{a}) not allowed")
            mat[a][b] = 1
            mat[b][a] = 1
        if diag is not None:
            if len(diag) != size:
                raise DomainError("diagonal length must equal size")
            for i, d in enumerate(diag):
                if d not in (0, 1):
                    raise DomainError("diagonal entries must be 0 or 1")
                mat[i][i] = d
        self.size = size
        self._mat = tuple(tuple(row) for row in mat)
        self.labels = tuple(labels) if labels is not None else None
        self._key = self._mat

    @classmethod
    def from_edge_list(cls, size, independent_pairs, labels=None):
        return cls(size, offdiag_pairs=independent_pairs, labels=labels)

    @classmethod
    def from_json(cls, data):
        """Schema: {"labels": [...], "independent_pairs": [[a,b],...],
        "diagonal": {name: 0|1}} -- pair entries are label names."""
        try:
            names = list(data["labels"])
        except (KeyError, TypeError):
            raise InputError("graph spec must contain a 'labels' array")
        try:
            index = {name: k for k, name in enumerate(names)}
        except TypeError:
            raise InputError("label names must be strings or numbers")
        if len(index) != len(names):
            raise InputError("duplicate label names")
        pair_list = data.get("independent_pairs", [])
        if not isinstance(pair_list, list):
            raise InputError("'independent_pairs' must be an array of label pairs")
        pairs = []
        for pair in pair_list:
            if not isinstance(pair, list) or len(pair) != 2:
                raise InputError(f"bad pair {pair!r}")
            a, b = pair
            try:
                ia, ib = index[a], index[b]
            except (KeyError, TypeError):
                raise InputError(f"unknown label in pair {pair!r}")
            if ia == ib:
                raise InputError(f"self-loop on {a!r}")
            pairs.append((ia, ib))
        diagonal = data.get("diagonal", {})
        if not isinstance(diagonal, dict):
            raise InputError("'diagonal' must be an object mapping label names to 0 or 1")
        diag = [0] * len(names)
        for name, d in diagonal.items():
            if name not in index:
                raise InputError(f"unknown label {name!r} in diagonal")
            if d not in (0, 1):
                raise InputError("diagonal entries must be 0 or 1")
            diag[index[name]] = d
        return cls(len(names), pairs, diag=diag, labels=names)

    def to_json(self):
        names = self.labels or [str(k) for k in range(self.size)]
        pairs = [
            [names[a], names[b]]
            for a in range(self.size)
            for b in range(a + 1, self.size)
            if self._mat[a][b]
        ]
        diag = {names[k]: self._mat[k][k] for k in range(self.size) if self._mat[k][k]}
        out = {"labels": list(names), "independent_pairs": pairs}
        if diag:
            out["diagonal"] = diag
        return out

    def eps(self, i, j):
        return self._mat[i][j]

    def diagonal(self, i):
        return self._mat[i][i]

    def independent(self, i, j):
        """Off-diagonal commutation: distinct labels with eps = 1."""
        return i != j and self._mat[i][j] == 1

    def label_index(self, name):
        if self.labels is None:
            raise InputError("matrix carries no label names")
        try:
            return self.labels.index(name)
        except ValueError:
            raise InputError(f"unknown label {name!r}")

    def key(self):
        """Hashable identity of the matrix contents."""
        return self._key

    def check_tuple(self, entries):
        for v in entries:
            if not (0 <= v < self.size):
                raise DomainError(f"label {v} out of range for size {self.size}")

    def __eq__(self, other):
        return isinstance(other, EpsilonMatrix) and self._mat == other._mat

    def __hash__(self):
        return hash(self._mat)

    def __repr__(self):
        return f"EpsilonMatrix({self.size}, {self._mat})"


def is_admissible_tuple(entries, e):
    """Membership in the admissible tuple set: whenever i(k)=i(l), some
    position strictly between carries a different label that is free
    from it (eps = 0)."""
    e.check_tuple(entries)
    n = len(entries)
    for k in range(n):
        for l in range(k + 1, n):
            if entries[k] != entries[l]:
                continue
            if not any(
                entries[p] != entries[k] and e.eps(entries[k], entries[p]) == 0
                for p in range(k + 1, l)
            ):
                return False
    return True


def cycle_graph_matrix(size):
    """Matrix whose free pairs are the edges of the size-cycle and all
    other pairs independent (the five-variable introductory example for
    size=5)."""
    cycle_edges = {frozenset((k, (k + 1) % size)) for k in range(size)}
    pairs = [
        (a, b)
        for a in range(size)
        for b in range(a + 1, size)
        if frozenset((a, b)) not in cycle_edges
    ]
    return EpsilonMatrix(size, pairs)


def complete_graph_matrix(size):
    """All distinct pairs independent (classical independence)."""
    pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
    return EpsilonMatrix(size, pairs)


def empty_graph_matrix(size):
    """No independent pairs (free independence)."""
    return EpsilonMatrix(size, [])
