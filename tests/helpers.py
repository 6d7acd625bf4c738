"""Constructions that several test modules share and the package itself
never runs.

Generic matrices and their binary quasi-minors, the vertex-by-vertex
cycle search that the row-by-row one is checked against, the cells, rows
and columns of a cycle union and a check of the shape of each union that
the search returns (criterion 06 and the quasi-matrix tests), the
rewriting of a minor of a full matrix as a combination of
two-by-two minors (criteria 04 and 07, the quasi-matrix and Groebner
tests), and the syzygy pieces of a
plain monomial list against the span of its pairwise syzygies (criterion
08 and the oracle tests), with the union-find over hashable nodes that
this span and the oracle's ``Mono`` reference share; ``dense``, the
``Mono`` of an exponent vector, which these lists and the Taylor complex
tests are built from; the presentation's
layout built the paper's way, from ladders and their shifts, and its
canonical precedence by the key rule (the presentation tests); the split
of a leading coefficient into a unit and an s-monomial (the polynomial
and Groebner tests); small generic and concrete specs drawn by
Hypothesis (the oracle and Groebner tests).
"""
from dataclasses import dataclass
from itertools import combinations_with_replacement

from hypothesis import strategies as st

from multirees.oracle import _compositions
from multirees.poly import Mono, VarUniverse
from multirees.quasimat import (
    MAX_BINARY_SIZE,
    Binomial,
    QuasiMatrix,
    _cells_mono,
    binary_subquasi_enumerate,
    quasi_determinants,
)
from multirees.rees import ReesSpec, _ladder
from multirees.sseq import SeqSpec, syzygy_generators


@st.composite
def small_specs(draw, max_n=3, max_blocks=2):
    """Generic and concrete specs with n <= ``max_n``, at most
    ``max_blocks`` blocks and powers at most 2; concrete values are
    monomials or prime constants."""
    n = draw(st.integers(1, max_n))
    blocks = tuple(
        (tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1)))), draw(st.integers(1, 2)))
        for _ in range(draw(st.integers(1, max_blocks)))
    )
    if draw(st.booleans()):
        return ReesSpec(seq=SeqSpec(n=n), blocks=blocks)
    x_names = ("x", "y")[: draw(st.integers(0, 2))]
    values = []
    for _ in range(n):
        exps = {x: draw(st.integers(0, 2)) for x in x_names}
        if any(exps.values()):
            values.append(((draw(st.sampled_from((1, -1, 2))), exps),))
        else:
            values.append(((draw(st.sampled_from((2, 3, 5))), {}),))
    seq = SeqSpec(n=n, mode="concrete", x_names=x_names, concrete_terms=tuple(values))
    return ReesSpec(seq=seq, blocks=blocks)


class Components:
    """Union-find over hashable nodes, for the references on ``Mono``s."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        root = x
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def join(self, a, b):
        """Merge the components of ``a`` and ``b``; True if they were apart."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def generic_matrix(n_rows, n_cols, pattern=None, with_s_column=False, domain="QQ"):
    """A generic (quasi-)matrix with one fresh symbol per entry, optionally
    augmented on the left with a column of fresh sequence symbols.

    Returns (QuasiMatrix, VarUniverse).  ``pattern`` restricts the entry
    positions of the generic block (0-based cells).
    """
    cells = sorted(pattern) if pattern is not None else [(r, c) for r in range(n_rows) for c in range(n_cols)]
    for (r, c) in cells:
        if not (0 <= r < n_rows and 0 <= c < n_cols):
            raise ValueError("pattern cell out of range: %r" % ((r, c),))
    T_names = ["a%d%d" % (r + 1, c + 1) for (r, c) in cells]
    if len(set(T_names)) != len(T_names):
        T_names = ["a_%d_%d" % (r + 1, c + 1) for (r, c) in cells]
    s_names = ["s%d" % (i + 1) for i in range(n_rows)] if with_s_column else []
    universe = VarUniverse(s_names=s_names, T_names=T_names, domain=domain)
    shift = 1 if with_s_column else 0
    entries = {}
    if with_s_column:
        for r in range(n_rows):
            entries[(r, 0)] = universe.vid("s%d" % (r + 1))
    for nm, (r, c) in zip(T_names, cells):
        entries[(r, c + shift)] = universe.vid(nm)
    qm = QuasiMatrix(n_rows, n_cols + shift, entries)
    return qm, universe


def ibin_generators(qm, max_size=MAX_BINARY_SIZE):
    """All binary quasi-minors of ``qm`` up to sign, deduplicated."""
    seen = set()
    out = []
    for cycles in binary_subquasi_enumerate(qm, max_size):
        for bino in quasi_determinants(qm, cycles):
            if bino.key() in seen:
                continue
            seen.add(bino.key())
            out.append(bino)
    return out


def union_cells(cycles):
    """The cells of a cycle union, as a frozenset."""
    return frozenset(cell for cy in cycles for cell in cy)


def union_rows_cols(cycles):
    """The sorted rows and columns that a cycle union touches, read off
    all of its cells."""
    cells = union_cells(cycles)
    return sorted({r for r, _ in cells}), sorted({c for _, c in cells})


def reference_cycles(qm, max_vertices):
    """The cycle walks of ``qm``'s entry graph with at most
    ``max_vertices`` vertices, found vertex by vertex: rows are vertices
    0..n_rows-1 and columns follow, a depth-first search from each vertex
    visits only larger ones, and a cycle closes back at the anchor only
    when the anchor's first neighbor is smaller than its last, so each
    cycle comes once.  Walks and order are those ``_entry_graph_cycles``
    must give; there is no guard."""
    R = qm.n_rows
    adj = {}
    for (r, c) in qm.entries:
        adj.setdefault(r, []).append(R + c)
        adj.setdefault(R + c, []).append(r)
    for v in adj:
        adj[v].sort()
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
                    cycles.append(tuple(rc for pair in zip(zip(rows, cols), turn) for rc in pair))
            elif w > first and w not in seen and len(path) < max_vertices:
                seen.add(w)
                path.append(w)
                dfs(path, seen)
                path.pop()
                seen.remove(w)

    for s in sorted(adj):
        dfs([s], {s})
    return tuple(sorted(cycles, key=lambda cy: (len(cy), sorted(cy))))


def assert_binary_union(qm, cycles):
    """Assert that ``cycles`` is a binary subquasi-matrix of ``qm`` in the
    form the union search returns: cells that are entries, every touched
    row and column holding exactly two of them, each walk of even length
    at least 4 that alternates row and column steps, no cell in two
    walks, and rows and columns read off the even cells equal to those
    of all cells."""
    cells = [cell for cy in cycles for cell in cy]
    assert all(cell in qm.entries for cell in cells), "a cell has no entry: %r" % (cycles,)
    assert len(set(cells)) == len(cells), "cycles overlap: %r" % (cycles,)
    rows, cols = union_rows_cols(cycles)
    assert all(sum(1 for r, _ in cells if r == row) == 2 for row in rows), "not binary: %r" % (cycles,)
    assert all(sum(1 for _, c in cells if c == col) == 2 for col in cols), "not binary: %r" % (cycles,)
    for cy in cycles:
        assert len(cy) >= 4 and len(cy) % 2 == 0, "malformed cycle %r" % (cy,)
        steps = [(a[0] == b[0], a[1] == b[1]) for a, b in zip(cy, cy[1:] + cy[:1])]
        assert all(same_row != same_col for same_row, same_col in steps), "cells not adjacent: %r" % (cy,)
        assert all(steps[i][0] != steps[i - 1][0] for i in range(len(cy))), "steps do not alternate: %r" % (cy,)
    even = [cell for cy in cycles for cell in cy[0::2]]
    assert (sorted(r for r, _ in even), sorted(c for _, c in even)) == (rows, cols), "even cells: %r" % (cycles,)


def is_full(qm):
    """Whether every position of ``qm`` holds an entry."""
    return len(qm.entries) == qm.n_rows * qm.n_cols


def rewrite_as_two_minors(delta, qm, universe):
    """Express a binary quasi-minor ``delta`` of a full matrix ``qm`` as a
    combination sum(multiplier * 2x2 minor); returns [(Poly, Poly)].

    Recursion: with W1 any entry of the minus term, V1 the plus entry in
    W1's row and V2 the plus entry in W1's column, and U the matrix entry
    closing the rectangle, delta splits into (V1*V2 - U*W1) times the rest
    of the plus term, plus W1 times a smaller binary quasi-minor; when U's
    position already sits in the minus term the small minor degenerates
    and both cells drop out.
    """
    if not is_full(qm):
        raise ValueError("rewriting needs a full matrix")
    pairs = []

    def emit(coeff, mult_cells, plus_cells, minus_cells):
        mult = universe.term(coeff, _cells_mono(qm, mult_cells))
        bino = Binomial.from_matchings(qm, tuple(plus_cells), tuple(minus_cells))
        sign = 1 if set(bino.plus_cells) == set(plus_cells) else -1
        pairs.append((mult * sign, bino.to_poly(universe)))

    def rec(plus, minus, mult_cells):
        n = len(plus)
        if n == 2:
            emit(1, mult_cells, plus, minus)
            return
        w1 = min(minus)
        v1 = next(p for p in plus if p[0] == w1[0])
        v2 = next(p for p in plus if p[1] == w1[1])
        u = (v2[0], v1[1])
        rest = [p for p in plus if p not in (v1, v2)]
        emit(1, mult_cells + rest, (v1, v2), (u, w1))
        minus2 = [p for p in minus if p != w1]
        if u in minus2:
            # only possible for n >= 4: the rectangle entry is a minus cell
            rec(rest, [p for p in minus2 if p != u], mult_cells + [w1, u])
        else:
            rec([u] + rest, minus2, mult_cells + [w1])

    rec(sorted(delta.plus_cells), sorted(delta.minus_cells), [])
    return pairs


def expand_combination(pairs, universe):
    total = universe.zero()
    for mult, gen in pairs:
        total = total + mult * gen
    return total


def dense(exps):
    """The ``Mono`` of an exponent vector over variables 0, 1, ...."""
    return Mono(tuple(enumerate(exps)))


def monomial_syzygy_kernel(gens, n, degree):
    """Basis of the total-degree-``degree`` piece of the syzygy module of a
    list of monomials over variables 0..n-1: vectors with one monomial
    entry per slot whose weighted images sum to zero.  Slot ``i`` carries
    monomials of degree ``degree - gens[i].degree()``.

    Because each slot maps monomials to monomials, the piece splits over
    the fibers of the map: each target monomial with k preimages
    contributes k - 1 differences.  Basis vectors are dicts
    ``{(slot, multiplier): +-1}`` with ``Mono`` multipliers."""
    gens = tuple(gens)
    if not gens:
        return []
    basis = []
    for exps in _compositions(degree, n):
        w = dense(exps)
        fiber = [(i, w.div(u)) for i, u in enumerate(gens) if u.divides(w)]
        for other in fiber[1:]:
            basis.append({fiber[0]: 1, other: -1})
    return basis


@dataclass
class SyzygyDegreeReport:
    degree: int
    kernel_dim: int
    span_dim: int

    @property
    def ok(self):
        return self.kernel_dim == self.span_dim

    def line(self):
        return "degree %d: kernel dim %d, pairwise span dim %d -> %s" % (
            self.degree,
            self.kernel_dim,
            self.span_dim,
            "ok" if self.ok else "MISSED",
        )


def syzygy_span_compare(gens, n, max_degree):
    """Per total degree up to ``max_degree``, compare the syzygy kernel of
    a list of monomials over variables 0..n-1 against the span of monomial
    multiples of the pairwise syzygies.  The pairwise span always sits inside the kernel (each
    pairwise vector maps to zero), so dimension equality certifies that
    the pairwise syzygies generate up to the bound."""
    gens = tuple(gens)
    if not gens:
        return []
    pairwise = syzygy_generators(gens)
    out = []
    for degree in range(max_degree + 1):
        kernel_dim = len(monomial_syzygy_kernel(gens, n, degree))
        comps = Components()
        span_dim = 0
        for vec in pairwise:
            sz_degree = None
            for slot, entry in enumerate(vec):
                if entry is not None:
                    sz_degree = entry[1].degree() + gens[slot].degree()
                    break
            rest = degree - sz_degree
            if rest < 0:
                continue
            for mexps in _compositions(rest, n):
                mult = dense(mexps)
                nodes = []
                image = {}
                for slot, entry in enumerate(vec):
                    if entry is None:
                        continue
                    sign, mono = entry
                    shifted = mono.mul(mult)
                    nodes.append((slot, shifted))
                    target = shifted.mul(gens[slot])
                    image[target] = image.get(target, 0) + sign
                if any(image.values()):
                    raise ValueError("pairwise syzygy multiple does not map to zero")
                span_dim += comps.join(*nodes)
        out.append(SyzygyDegreeReport(degree=degree, kernel_dim=kernel_dim, span_dim=span_dim))
    return out


def ladder_layout(spec):
    """The presentation's T names, their (block, ladder, spread) keys,
    matrix entries (as names), column labels and ``var_block`` images (by
    name), built the paper's way; the spread of a variable is the number
    of sequence symbols in its value.

    Block l of power a indexes its variables by ladders: weakly
    increasing j_1 <= ... <= j_(n-1) in 0..a, shown highest first, for
    s^j = prod_i s_i^(j_i - j_(i-1)) with j_0 = 0 and j_n = a, largest
    ladder first, kept when the support lies in the block's rows.  A
    ladder with j_(n-1) < a is a column when its shift at the block's
    first row keeps the support inside; the shift at k, which raises
    every j_i with i >= k, is its row-k entry."""
    n = spec.seq.n
    names, keys, images = [], [], {}
    entries = {(k, 0): name for k, name in enumerate(spec.seq.names)}
    labels = ["s"]
    for l, (rows, a) in enumerate(spec.blocks, start=1):

        def exps(js):
            full = (0,) + js + (a,)
            return tuple(full[i + 1] - full[i] for i in range(n))

        def inside(js):
            return all(i + 1 in rows for i, e in enumerate(exps(js)) if e)

        def shift(js, k):
            return tuple(j + 1 if i + 1 >= k else j for i, j in enumerate(js))

        def name(js):
            return "T[%d;%s]" % (l, ("," if a > 9 else "").join(map(str, js[::-1])))

        ladders = sorted(combinations_with_replacement(range(a + 1), n - 1), key=lambda js: js[::-1], reverse=True)
        for js in filter(inside, ladders):
            names.append(name(js))
            keys.append((l, js[::-1], sum(1 for e in exps(js) if e)))
            images[name(js)] = (l, exps(js))
        for js in ladders:
            if exps(js)[-1] and inside(shift(js, rows[0])):
                for k in rows:
                    entries[(k - 1, len(labels))] = name(shift(js, k))
                labels.append(name(js)[1:])
    return names, keys, entries, labels, images


def reference_precedence(pres):
    """The canonical precedence of ``pres`` by its key rule: the T-ids
    sorted by (block, spread, negated ladder), where the spread is the
    number of sequence symbols in a variable's value.  Blocks come in
    order, the concentrated variables of a block first, and the larger
    ladder first among those of one spread."""

    def key(vid):
        l, e = pres.var_block[vid]
        return l, len(e) - e.count(0), tuple(-j for j in _ladder(e))

    return tuple(sorted(pres.universe.T_ids, key=key))


def s_term_parts(lc):
    """Split a coefficient polynomial into (unit, s-monomial) if it is a
    single term supported on the s-block; None otherwise."""
    if len(lc.terms) != 1:
        return None
    mono, coeff = lc.terms[0]
    u = lc.universe
    if any(v not in u.s_idset for v, _ in mono.exps):
        return None
    if u.domain == "ZZ" and abs(coeff) != 1:
        return None
    return coeff, mono
