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
walks, which every generating family reads.  The union search takes the
cycles shortest first and stops at the first one too long for the room
left under the size cap.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from .poly import GuardExceeded, Mono

MAX_BINARY_SIZE = 12  # rows + cols of an emitted binary subquasi-matrix


class QuasiMatrix:
    """Rows x cols grid with entries (variable ids) at some positions."""

    __slots__ = ("n_rows", "n_cols", "entries", "_walks")

    def __init__(self, n_rows, n_cols, entries):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.entries = dict(entries)
        for (r, c) in self.entries:
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError("entry out of range: %r" % ((r, c),))
        self._walks = {}

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
    carries +1.  Cell sets are kept so structural facts (one entry per
    touched column in each term) stay checkable after emission.
    """

    __slots__ = ("plus", "minus", "plus_cells", "minus_cells")

    def __init__(self, plus, minus, plus_cells, minus_cells):
        if minus.exps < plus.exps:
            plus, minus = minus, plus
            plus_cells, minus_cells = minus_cells, plus_cells
        self.plus = plus
        self.minus = minus
        self.plus_cells = frozenset(plus_cells)
        self.minus_cells = frozenset(minus_cells)

    @classmethod
    def from_matchings(cls, qm, plus_cells, minus_cells):
        return cls(_cells_mono(qm, plus_cells), _cells_mono(qm, minus_cells), plus_cells, minus_cells)

    def is_zero(self):
        return self.plus == self.minus

    def to_poly(self, universe):
        return universe.from_terms([(self.plus, Fraction(1)), (self.minus, Fraction(-1))])

    def key(self):
        return (self.plus.exps, self.minus.exps)

    def __eq__(self, other):
        return isinstance(other, Binomial) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Binomial(%r - %r)" % (self.plus, self.minus)


def _cells_mono(qm, cells):
    counts = {}
    for cell in cells:
        v = qm.entries[cell]
        counts[v] = counts.get(v, 0) + 1
    return Mono(tuple(counts.items()))


def _entry_graph_cycles(qm, max_vertices):
    """All simple cycles of the bipartite entry graph with at most
    ``max_vertices`` vertices, as a tuple of cell walks.  Rows are
    vertices 0..n_rows-1, columns n_rows..n_rows+n_cols-1; each cycle is
    emitted once, anchored at its smallest vertex.  The walks are
    guaranteed to come shortest first (then by sorted cells): the union
    search's early stop relies on it."""
    if max_vertices > MAX_BINARY_SIZE:
        raise GuardExceeded("max_size %d exceeds the hard guard %d" % (max_vertices, MAX_BINARY_SIZE))
    R = qm.n_rows
    adj = {}
    for (r, c) in qm.entries:
        adj.setdefault(r, []).append(R + c)
        adj.setdefault(R + c, []).append(r)
    for v in adj:
        adj[v].sort()
    cell = {rc: rc for rc in qm.entries}  # walks share one tuple per cell
    cycles = []

    def dfs(path, seen):
        v = path[-1]
        first = path[0]
        for w in adj[v]:
            if w == first:
                if len(path) >= 4 and path[1] < v:
                    # the anchor is a row, so the path alternates rows and columns
                    rows = path[0::2]
                    cols = [x - R for x in path[1::2]]
                    turn = zip(rows[1:] + rows[:1], cols)
                    cycles.append(tuple(cell[rc] for pair in zip(zip(rows, cols), turn) for rc in pair))
            elif w > first and w not in seen and len(path) < max_vertices:
                seen.add(w)
                path.append(w)
                dfs(path, seen)
                path.pop()
                seen.remove(w)

    for s in sorted(adj):
        dfs([s], {s})
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
    match = [(cy[0::2], cy[1::2]) for cy in cycles]
    seen = set()
    out = []
    for bits in product((0, 1), repeat=len(match) - 1):
        plus, minus = [], []
        for b, (ma, mb) in zip((0,) + bits, match):
            plus.extend(ma if b == 0 else mb)
            minus.extend(mb if b == 0 else ma)
        bino = Binomial.from_matchings(qm, tuple(plus), tuple(minus))
        if bino.is_zero() or bino.key() in seen:
            continue
        seen.add(bino.key())
        out.append(bino)
    return out
