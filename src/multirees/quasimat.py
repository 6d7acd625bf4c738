"""Quasi-matrices and binary quasi-minors.

A quasi-matrix may leave positions empty.  Its entry graph is the
bipartite graph on rows and columns with one edge per entry; a binary
subquasi-matrix is an entry subset in which every touched row and column
has exactly two entries, i.e. a disjoint union of cycles of the entry
graph, kept as the tuple of its cycle walks.  A walk lists its cells in
cyclic order, so its even and odd cells are the two alternating perfect
matchings.  Each union of c cycles carries 2^(c-1) binary
quasi-determinants up to sign: each term takes one matching per cycle,
the first cycle's held fixed (flipping every cycle swaps the terms).  A
matrix searches its entry graph once per size cap and keeps the cycle
walks, which every generating family reads.  The cycle search runs row
by row: rows are numbered before columns, so a cycle's smallest vertex
is a row, and from it the search steps to later rows through the
columns each pair of rows shares.  The union search takes the cycles
shortest first and stops at the first one too long for the room left
under the size cap.
"""
from __future__ import annotations

from itertools import combinations, product

from .poly import GuardExceeded, Mono

MAX_BINARY_SIZE = 12  # rows + cols of an emitted binary subquasi-matrix
MAX_CYCLES = 100_000  # cycle walks of one search, and cycle unions of one enumeration


class QuasiMatrix:
    """Rows x cols grid with entries (variable ids) at some positions."""

    __slots__ = ("n_rows", "n_cols", "entries", "_walks", "_ones", "_powers")

    def __init__(self, n_rows, n_cols, entries):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.entries = dict(entries)
        for (r, c) in self.entries:
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError("entry out of range: %r" % ((r, c),))
        self._walks = {}
        # the one tuple a matrix's monomials share for each (variable, exponent)
        self._ones = {v: (v, 1) for v in self.entries.values()}  # variable -> (v, 1)
        self._powers = {}  # (variable, exponent > 1) -> itself

    def cycle_walks(self, max_vertices):
        """The cycle walks of the entry graph with at most
        ``max_vertices`` vertices, shortest first.  The search runs once
        per cap, and every caller reads the same tuple; a cap over the
        guard raises on every call."""
        if max_vertices not in self._walks:
            self._walks[max_vertices] = _entry_graph_cycles(self, max_vertices)
        return self._walks[max_vertices]

    def pretty(self, names, row_labels, col_labels):
        grid = [[""] + [str(c) for c in col_labels]]
        for r in range(self.n_rows):
            row = [str(row_labels[r])]
            for c in range(self.n_cols):
                v = self.entries.get((r, c))
                row.append("." if v is None else names(v))
            grid.append(row)
        widths = [max(len(row[i]) for row in grid) for i in range(len(grid[0]))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in grid]
        return "\n".join(lines)

    def __repr__(self):
        return "QuasiMatrix(%dx%d, %d entries)" % (self.n_rows, self.n_cols, len(self.entries))


class Binomial:
    """Sign-normalized difference of two entry products.

    The term whose monomial key is smallest under the global symbol order
    carries +1.  Each term keeps its cells as the tuple it was given (a
    matching, in walk order), so structural facts (one entry per touched
    column in each term) stay checkable after emission.
    """

    __slots__ = ("plus", "minus", "plus_cells", "minus_cells")

    def __init__(self, plus, minus, plus_cells, minus_cells):
        if minus.exps < plus.exps:
            plus, minus = minus, plus
            plus_cells, minus_cells = minus_cells, plus_cells
        self.plus = plus
        self.minus = minus
        self.plus_cells = plus_cells
        self.minus_cells = minus_cells

    @classmethod
    def from_matchings(cls, qm, plus_cells, minus_cells):
        return cls(_cells_mono(qm, plus_cells), _cells_mono(qm, minus_cells), plus_cells, minus_cells)

    def is_zero(self):
        return self.plus == self.minus

    def to_poly(self, universe):
        return universe.from_terms([(self.plus, 1), (self.minus, -1)])

    def key(self):
        return (self.plus.exps, self.minus.exps)

    def __eq__(self, other):
        return isinstance(other, Binomial) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Binomial(%r - %r)" % (self.plus, self.minus)


def _cells_mono(qm, cells):
    """The product of the entries at ``cells``.  Sorted entry ids with no
    repeat are the monomial's variables at exponent 1; only a repeat,
    as in a block of power 2 or more, is counted.  Either way the pairs
    need no checks of ``Mono()``, and each is the one tuple the matrix's
    tables hold for it, shared by every monomial of the matrix."""
    ids = sorted(map(qm.entries.__getitem__, cells))
    ones = qm._ones
    if len(set(ids)) == len(ids):
        return Mono._raw(tuple(map(ones.__getitem__, ids)))
    counts = {}
    for v in ids:
        counts[v] = counts.get(v, 0) + 1
    powers = qm._powers
    return Mono._raw(tuple([ones[v] if e == 1 else powers.setdefault((v, e), (v, e)) for v, e in counts.items()]))


def _entry_graph_cycles(qm, max_vertices):
    """All simple cycles of the bipartite entry graph with at most
    ``max_vertices`` vertices, as a tuple of cell walks.  Rows count
    before columns, so a cycle's smallest vertex is a row r0, and each
    cycle is found once, from it, row by row: a step goes from the last
    row to a later unused row through an unused column the two share, and
    a cycle closes through a column that the last row shares with r0 and
    that is larger than the first step's column, which fixes its
    direction.  The walk lists (r0, c1), (r1, c1), (r1, c2), ...,
    (r0, ck).  The walks are guaranteed to come shortest first (then by
    sorted cells): the union search's early stop relies on it."""
    if max_vertices > MAX_BINARY_SIZE:
        raise GuardExceeded("max_size %d exceeds the hard guard %d" % (max_vertices, MAX_BINARY_SIZE))
    cols_of = {}
    for (r, c) in qm.entries:
        cols_of.setdefault(r, set()).add(c)
    cell = {rc: rc for rc in qm.entries}  # walks share one tuple per cell
    # (row a, row b) -> (c, cell (a, c), cell (b, c)) for each column c
    # with an entry in both, ascending
    common = {}
    meets = {r: [] for r in cols_of}  # row -> the other rows it shares a column with, ascending
    for a, b in combinations(sorted(cols_of), 2):
        both = sorted(cols_of[a] & cols_of[b])
        if both:
            common[a, b] = [(c, cell[a, c], cell[b, c]) for c in both]
            common[b, a] = [(c, cell[b, c], cell[a, c]) for c in both]
            meets[a].append(b)
            meets[b].append(a)
    most = max_vertices // 2  # rows of the longest cycle
    rows, cols, walk = [], [], []  # the path so far: its rows, its columns and its cells
    cycles = []

    def extend(r0, last):
        if len(rows) > 1:
            for c, here, back in common.get((last, r0), ()):
                if c > cols[0] and c not in cols:
                    if len(cycles) == MAX_CYCLES:
                        raise GuardExceeded("the cycle search exceeds the hard guard of %d walks" % MAX_CYCLES)
                    cycles.append(tuple(walk) + (here, back))
        if len(rows) < most:
            for r in meets[last]:
                if r > r0 and r not in rows:
                    rows.append(r)
                    for c, here, there in common[last, r]:
                        if c not in cols:
                            cols.append(c)
                            walk.extend((here, there))
                            extend(r0, r)
                            del walk[-2:]
                            cols.pop()
                    rows.pop()

    for r0 in sorted(cols_of):
        rows.append(r0)
        extend(r0, r0)
        rows.pop()
    return tuple(sorted(cycles, key=lambda cy: (len(cy), sorted(cy))))


def binary_subquasi_enumerate(qm, max_size=MAX_BINARY_SIZE):
    """Every binary subquasi-matrix of ``qm`` with rows+cols at most
    ``max_size``, each as the tuple of its vertex-disjoint cycle walks
    from ``qm.cycle_walks``, in depth-first pre-order over the walk
    indices.  A walk's vertex mask has bit r for row r and bit n_rows + c
    for column c (its even cells are a perfect matching).  Walks come
    shortest first and touch as many vertices as they have cells, so the
    search stops at the first walk longer than the room left."""
    cycles = qm.cycle_walks(max_size)
    R = qm.n_rows
    masks = [sum(1 << r | 1 << (R + c) for r, c in cy[0::2]) for cy in cycles]
    out = []

    def rec(start, chosen, used, room):
        for i in range(start, len(cycles)):
            if len(cycles[i]) > room:
                break
            if used & masks[i]:
                continue
            chosen.append(cycles[i])
            if len(out) == MAX_CYCLES:
                raise GuardExceeded("the cycle unions exceed the hard guard of %d" % MAX_CYCLES)
            out.append(tuple(chosen))
            rec(i + 1, chosen, used | masks[i], room - len(cycles[i]))
            chosen.pop()

    rec(0, [], 0, max_size)
    return out


def quasi_determinants(qm, cycles):
    """All binary quasi-determinants of the cycle union ``cycles`` of
    ``qm``, up to sign, zero differences dropped.  ``cycles`` is a union
    that ``binary_subquasi_enumerate(qm, ...)`` returned, or ``(walk,)``
    for a walk of ``qm.cycle_walks``; it is not checked.  The first
    cycle's matching stays on the plus side, since flipping every cycle
    gives the same normalized binomial; repeated entries can still make
    two patterns agree."""
    if len(cycles) == 1:
        cy = cycles[0]
        bino = Binomial.from_matchings(qm, cy[0::2], cy[1::2])
        return [] if bino.is_zero() else [bino]
    match = [(cy[0::2], cy[1::2]) for cy in cycles]
    seen = set()
    out = []
    for bits in product((0, 1), repeat=len(match) - 1):
        plus, minus = [], []
        for b, (ma, mb) in zip((0,) + bits, match):
            plus.extend(ma if b == 0 else mb)
            minus.extend(mb if b == 0 else ma)
        bino = Binomial.from_matchings(qm, tuple(plus), tuple(minus))
        key = bino.key()
        if bino.is_zero() or key in seen:
            continue
        seen.add(key)
        out.append(bino)
    return out
