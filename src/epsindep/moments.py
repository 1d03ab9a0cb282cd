"""Mixed-moment evaluators: cumulant summation, a left-to-right fold
over centred words straight from the independence definition, and the
kernel-factorization shortcut."""

from fractions import Fraction
from math import prod

from .epsilon import CLASSICAL, FREE
from .errors import TableError
from .graphgroup import _merge_target, reduce_word
from .ncpartitions import kernel_noncrossing, noncrossing_sum

# Not called here: bench/worker.py wraps these module attributes to trace
# the per-partition path, which now shows zero calls.
from .cumulants import kappa_pi  # noqa: F401
from .ncpartitions import enumerate_nc_epsilon  # noqa: F401


def _check_tables(entries, e, tables):
    """The tuple's {label: count}, in order of first occurrence, once each
    label, in that order, is in range and has a table of its kind to order
    its count; the first fault found raises.  No route reads further: a
    block, a merged power or a kernel block of a label has at most that
    many points."""
    counts = {}
    for a in entries:
        counts[a] = counts.get(a, 0) + 1
    size, against = e.size, e.against
    for label, need in counts.items():
        if not 0 <= label < size:
            e.check_tuple((label,))  # raises the DomainError
        table = tables.get(label)
        if table is None:
            raise TableError(f"no table for label {label}")
        want = FREE if against[label] >> label & 1 else CLASSICAL
        if table.kind != want:
            raise TableError(
                f"label {label} has diagonal {e.diagonal(label)} but a "
                f"{table.kind} table (expected {want})"
            )
        if table.max_order < need:
            raise TableError(f"table for label {label} covers order {table.max_order}, need {need}")
    return counts


def _unscale(value, counts, tables):
    """A value summed in the tables' scaled integers as the Fraction it
    stands for: a product of scaled values carries label l's d once per
    l-point, counts as _check_tables returns them.  A zero needs no
    divisor."""
    if not value:
        return Fraction(0)
    return Fraction(value, prod([tables[a].d ** c for a, c in counts.items()]))


def mixed_moment_cumulant(entries, e, tables):
    """Sum of block cumulant products over the epsilon-non-crossing set,
    by ncpartitions.noncrossing_sum once per component below.  Partitions
    are never listed, and no block of a zero-cumulant size is built.

    - Labels in different components of the eps != 1 graph never bar each
      other's blocks, so the set is a product over the components and so
      is the sum; components share no labels, so no state recurs across
      them.
    - A label with c points in the tuple whose kappa_2 to kappa_c are all
      0 is factored out first: the sum is kappa_1 of that label to the
      power c times the sum over the other points; a label with one point
      always qualifies.  Proof: every partition in the set lies below the
      kernel, so a block of that label has at most c points, and a block
      of 2 to c points weighs 0.  In a partition that weighs anything the
      label's points are therefore singleton blocks; a singleton crosses
      no block and bars none, so deleting them maps these partitions onto
      the set of the tuple without them, and kappa_pi loses c factors
      kappa_1.  The points take no gap mark with them (the starting gaps
      are all 0), and their label leaves the component split.

    The sum runs in the tables' scaled integers: a block of size s and
    label l contributes kappa_l(s) * d_l**s, so every product carries d_l
    once per l-point (_unscale).
    """
    counts = _check_tables(entries, e, tables)
    once = {a for a, c in counts.items() if not any(tables[a].scaled_cumulants[1:c])}
    value = prod([tables[a].scaled_cumulants[0] ** counts[a] for a in once])
    if not value:
        return Fraction(0)
    lab = tuple([a for a in entries if a not in once])
    n = len(lab)
    # per label: {r: kappa(r + 1) * d ** (r + 1)} over the nonzero
    # cumulants, r (a block's further points) ascending
    scaled = {
        a: {r: kappa for r, kappa in enumerate(tables[a].scaled_cumulants[:n]) if kappa}
        for a in counts
        if a not in once
    }
    present = sum([1 << a for a in scaled])
    against = {a: e.against[a] & present for a in scaled}
    left = present
    while left and value:
        # a component of the eps != 1 graph on the tuple's labels: its
        # blocks cross no other component's blocks and bar none of them
        comp = left & -left
        while True:
            grown = comp
            for a, mask in against.items():
                if comp >> a & 1:
                    grown |= mask
            if grown == comp:
                break
            comp = grown
        part = lab if comp == present else tuple([a for a in lab if comp >> a & 1])
        left &= ~comp
        value *= noncrossing_sum(part, against, scaled)
    return _unscale(value, counts, tables)


def mixed_moment_by_definition(entries, e, tables):
    """Evaluate the mixed moment straight from the independence
    definition, on the tables' scaled moments: phi(c_1...c_r) = 0 for
    centred c_k whose labels form an admissible tuple, that is, for every
    nonempty reduced word of centred syllables.

    One fold runs left to right over the tuple's reduced word on a dict
    from reduced word of centred syllables to coefficient, starting from
    {(): 1}, so that the product of the syllables so far is the sum of
    coefficient times word; phi is then the coefficient of ().  A
    syllable x = x° + m_x (m_x = phi(x)) appends to each word W:
    - without a merge target (graphgroup._merge_target): W m_x + W x°;
    - with one, t°: t° x = (tx)° - m_t x° + (phi(tx) - m_t m_x), with t°
      taken out of W and the new syllable put at the end (the syllables
      after t° commute with x's label, and taking t° out merges nothing,
      as each of them commutes with t's label).
    Equal words merge and zero coefficients go after each syllable.  A
    word that holds more syllables of a label than the reduced word has
    left of it goes too: each later syllable removes at most one, so the
    word never reaches ().  A label with one syllable therefore only ever
    contributes its mean.  The coefficients are integers as in
    mixed_moment_cumulant: each carries label l's d once per l-point
    folded and not in its word."""
    counts = _check_tables(entries, e, tables)
    word = reduce_word(((lbl, 1) for lbl in entries), e)
    labels = [lbl for lbl, _ in word]
    states = {(): 1}
    for k, (lbl, pw) in enumerate(word):
        scaled = tables[lbl].scaled_moments
        mean = scaled[pw - 1]
        left = labels[k + 1 :].count(lbl)
        out = {}
        for w, c in states.items():
            count = [wl for wl, _ in w].count(lbl)
            idx = _merge_target(w, lbl, e)
            if idx is None:
                if mean and count <= left:
                    out[w] = out.get(w, 0) + c * mean
                if count < left:
                    nxt = w + ((lbl, pw),)
                    out[nxt] = out.get(nxt, 0) + c
                continue
            q = w[idx][1]
            mean_t = scaled[q - 1]
            rest = w[:idx] + w[idx + 1 :]
            if count <= left:
                nxt = rest + ((lbl, q + pw),)
                out[nxt] = out.get(nxt, 0) + c
                if mean_t:
                    nxt = rest + ((lbl, pw),)
                    out[nxt] = out.get(nxt, 0) - c * mean_t
            const = scaled[q + pw - 1] - mean_t * mean
            if const:
                out[rest] = out.get(rest, 0) + c * const
        states = {w: c for w, c in out.items() if c}
    return _unscale(states.get((), 0), counts, tables)


def factorization_shortcut(entries, e, tables):
    """If the kernel itself is epsilon-non-crossing the moment factorizes
    over kernel blocks; returns None when the shortcut does not apply."""
    counts = _check_tables(entries, e, tables)
    if not kernel_noncrossing(entries, e):
        return None
    total = prod([tables[a].scaled_moments[c - 1] for a, c in counts.items()])
    return _unscale(total, counts, tables)


def moments_from_tables(tables):
    """Per-label moment sequences of the tables."""
    return {label: table.moments() for label, table in tables.items()}
