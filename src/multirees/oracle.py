"""Independent degree-bounded kernel check for a presentation.

The presentation map sends monomials to monomials (generic mode always;
concrete mode whenever the sequence values are monomials), so each
finite graded piece of the kernel is spanned by scaled differences of
source monomials with equal image.  This module enumerates a piece,
computes that kernel basis directly from the fibers of the map, and
compares it against the span of all generator multiples of matching
degree — no Groebner machinery involved, which is the point: it is an
independent witness that a candidate family generates the kernel up to
the chosen degree bounds.

The comparison is fiber connectivity, not linear algebra: each multiple
of a kernel binomial links two monomials of one fiber, and the family
spans a piece exactly when every fiber is one component (the Markov-basis
view of Diaconis and Sturmfels 1998).  The multiples of a generator
a*m_a + b*m_b in a piece are q*m_a - q*m_b for the monomials q of the
quotient piece, whose degree is the piece's less the generator's.  A
sweep checks each generator once, files it under its degree, and
enumerates each piece once, whether it serves as a piece or as a
quotient piece.  A piece joins its links in a union-find over its
monomial indices (a flat list with path halving) and stops joining once
the joins reach the kernel dimension: links stay inside fibers, so no
later link can merge two components.

The sweep runs on packed exponent vectors.  Each T-variable maps to a
monomial in the sequence times a t-symbol, so images are additive:
a piece is enumerated as T-part x ambient part, each part with its
packed source and packed image, and a monomial is the sum of its parts.
Packed ints hold one fixed-width field per coordinate, wide enough for
the largest coordinate any piece of the sweep can have, so sums never
carry and equal ints mean equal monomials.  Pieces stay packed;
``Mono`` and ``Poly`` serve the generator intake, where each generator
is evaluated, checked and imaged once, and the witness of a missed
piece.  ``source_monomials`` and ``kernel_piece`` unpack one piece of a
sweep, and its kernel basis, as ``Mono``s; the reference enumeration
and fiber basis on ``Mono``s that the tests compare them with live in
the tests.

Grading: a piece is indexed by the tuple of block degrees (how many T
variables of each block) together with the total ambient degree of the
image (sequence symbols count 1, a block-l variable counts a_l in
generic mode, the degree of its monomial value in concrete mode).  The
map preserves both, and every piece is finite.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement, product
from math import comb

from .poly import CapExceeded, Mono, Packing, Poly, SpecError

DEFAULT_T_CAP = 3
DEFAULT_PIECE_CAP = 20000


class ImageData:
    """Precomputed monomial images and weights for one presentation."""

    def __init__(self, pres):
        self.pres = pres
        u = pres.universe
        seq = pres.spec.seq
        if seq.mode == "generic":
            self.ambient_ids = u.s_ids
            base = {u.s_ids[i]: ((u.s_ids[i], 1),) for i in range(seq.n)}
            coeffs = {u.s_ids[i]: 1 for i in range(seq.n)}
        else:
            vals = seq.concrete_monomial_values()
            if vals is None:
                raise SpecError(
                    "the kernel oracle needs monomial sequence values in concrete mode"
                )
            self.ambient_ids = u.x_ids
            base, coeffs = {}, {}
            for i, (c, mexp) in enumerate(vals):
                base[u.s_ids[i]] = tuple((u.vid(xn), e) for xn, e in sorted(mexp.items()))
                coeffs[u.s_ids[i]] = c
        self.t_weight = {}
        self.t_image = {}
        self.t_coeff = {}
        for vid, (l, s_exps) in pres.var_block.items():
            acc = {}
            coeff = 1
            for i, e in enumerate(s_exps):
                if not e:
                    continue
                svid = u.s_ids[i]
                coeff *= coeffs[svid] ** e
                for xv, xe in base[svid]:
                    acc[xv] = acc.get(xv, 0) + xe * e
            acc[u.t_ids[l - 1]] = 1
            self.t_image[vid] = tuple(sorted(acc.items()))
            self.t_coeff[vid] = coeff
            self.t_weight[vid] = sum(e for v, e in self.t_image[vid] if v != u.t_ids[l - 1])
        self.ring_ids = u.T_idset | set(self.ambient_ids)
        self.min_block_weight = [min(self.t_weight[v] for v in bd.vids.values()) for bd in pres.blocks]

    def image(self, mono):
        """(coefficient, image monomial) of a source monomial."""
        acc = {}
        coeff = 1
        for vid, e in mono.exps:
            img = self.t_image.get(vid)
            if img is None:
                acc[vid] = acc.get(vid, 0) + e
            else:
                coeff *= self.t_coeff[vid] ** e
                for v, xe in img:
                    acc[v] = acc.get(v, 0) + xe * e
        return coeff, Mono(tuple(acc.items()))

    def degree(self, mono):
        """(block degree tuple, ambient weight) of a source monomial."""
        r = self.pres.spec.r
        tvec = [0] * r
        weight = 0
        for vid, e in mono.exps:
            info = self.pres.var_block.get(vid)
            if info is None:
                weight += e
            else:
                tvec[info[0] - 1] += e
                weight += self.t_weight[vid] * e
        return tuple(tvec), weight

    def poly_degree(self, p):
        degs = {self.degree(m) for m, _ in p.terms}
        if len(degs) != 1:
            raise ValueError("polynomial is not homogeneous for the oracle grading")
        return degs.pop()

    def evaluate(self, p):
        """Rewrite a formal generator over the ambient ring the oracle
        enumerates: in concrete mode sequence symbols become their values."""
        if self.pres.spec.seq.mode == "concrete":
            return p.substitute(self.pres.s_values())
        return p


@dataclass
class KernelPiece:
    tvec: tuple
    weight: int
    monomials: list
    basis: list  # vectors as {monomial index: coefficient}


def _one_piece(pres, tvec, weight, cap):
    """A ``_Sweep`` with no generators, and the packed (sources, images)
    of its one piece."""
    tvec = tuple(tvec)
    sweep = _Sweep(pres, (), ImageData(pres), cap, [(tvec, weight)])
    return sweep, sweep.piece(tvec, weight)


def source_monomials(pres, tvec, weight, cap=DEFAULT_PIECE_CAP):
    """Every presentation-ring monomial of the given degree, as ``Mono``s
    in the sweep's order (``_Sweep.piece``)."""
    sweep, (src, _) = _one_piece(pres, tvec, weight, cap)
    return [sweep.src.unpack(m) for m in src]


def kernel_piece(pres, tvec, weight, cap=DEFAULT_PIECE_CAP):
    """Basis of the kernel of the presentation map on one graded piece,
    computed straight from the fibers (no generators involved): each
    fiber with k members gives k - 1 differences (``_Sweep.fibers``),
    written as ``{monomial index: coefficient}``."""
    sweep, (src, img) = _one_piece(pres, tvec, weight, cap)
    monos = [sweep.src.unpack(m) for m in src]
    coeffs = [sweep.data.image(m)[0] for m in monos]
    basis = [{i0: coeffs[i], i: -coeffs[i0]} for i0, *rest in sweep.fibers(img) for i in rest]
    return KernelPiece(tuple(tvec), weight, monos, basis)


@dataclass
class SpanReport:
    tvec: tuple
    weight: int
    piece_size: int
    kernel_dim: int
    span_dim: int
    multiples: int
    ok: bool
    witness: Poly | None = None


def _kernel_binomial(data, p):
    """(m_a, m_b) of a generator a*m_a + b*m_b of the kernel, evaluated over
    the enumerated ring; connectivity decides spans only for these."""
    if any(v not in data.ring_ids for m, _ in p.terms for v in m.support()):
        raise ValueError(
            "generator leaves the enumerated presentation ring; "
            "it uses a variable outside the presentation ring"
        )
    if len(p.terms) != 2:
        raise ValueError("generator %s is not a binomial" % p.render())
    (ma, a), (mb, b) = p.terms
    (ca, ia), (cb, ib) = data.image(ma), data.image(mb)
    if ia != ib or a * ca + b * cb:
        raise ValueError("generator %s does not map to zero" % p.render())
    return ma, mb


class _Sweep:
    """What the pieces of one sweep share: the generators, evaluated and
    checked once, and every enumerated piece, memoized by degree.

    Monomials are packed by two ``Packing`` layouts of one field width:
    ``src`` has each block's variables in block order, then the ambient
    symbols; ``img`` has the ambient symbols, then t_1, ..., t_r.
    Packing is additive, and so is
    the presentation map on exponent vectors: a monomial's packed image is
    the sum of its variables' packed images (``t_image``, or the symbol
    itself for an ambient symbol).  A coordinate of a monomial of degree
    (t, w), or of its image, is at most max(w, sum(t)): an ambient
    exponent at most w, a T or t exponent at most sum(t), which exceeds w
    when T-variables weigh 0 (constant concrete values).  The field holds
    the largest such bound of the sweep, and q*m_a lies in the piece, so
    no sum ever carries into the next field and packing is injective on
    every piece.  Pieces stay packed; ``moves`` reads each generator's
    ``Poly`` (evaluated through ``Poly.substitute`` in concrete mode) and
    images its two terms as ``Mono``s once, and ``witness`` builds one
    ``Poly``.

    A generator a*m_a + b*m_b of degree (g_t, g_w) has as multiples in
    piece (t, w) the binomials q*m_a - q*m_b, where q runs over the piece
    of degree (t - g_t, w - g_w); each links two monomials of one fiber.
    ``moves`` files the generators by degree: a piece makes one degree
    test and one quotient lookup per generator degree.  ``compare`` joins
    links in ``parent``, a union-find list over piece indices with path
    halving.  Components never leave a fiber, so ``span_dim``, the joins
    that merge, never exceeds the kernel dimension, the piece size less
    the number of fibers.  Once they are equal every fiber is one
    component, and the piece only adds up its multiples.
    """

    def __init__(self, pres, generators, data, cap, degrees):
        self.pres = pres
        self.generators = generators
        self.data = data
        self.cap = cap
        bound = max((max(weight, sum(tvec)) for tvec, weight in degrees), default=0)
        width = max(bound.bit_length(), 1)
        self.block_vids = [tuple(bd.vids.values()) for bd in pres.blocks]
        self.src = Packing([v for vids in self.block_vids for v in vids] + list(data.ambient_ids), width)
        self.img = Packing(list(data.ambient_ids) + list(pres.universe.t_ids), width)
        self.packed = {}  # ring variable -> (packed source, packed image, weight)
        for v in self.src.coords:
            if v in data.t_image:
                self.packed[v] = (self.src.pack(((v, 1),)), self.img.pack(data.t_image[v]), data.t_weight[v])
            else:
                self.packed[v] = (self.src.pack(((v, 1),)), self.img.pack(((v, 1),)), 1)
        self.tparts = {}
        self.ambient = {}
        self.pieces = {}

    def _monomials(self, vids, degree):
        """(packed source, packed image, weight) of each monomial of the
        degree in ``vids``, in ``combinations_with_replacement`` order."""
        packed = self.packed
        return [
            tuple(map(sum, zip((0, 0, 0), *(packed[v] for v in combo))))
            for combo in combinations_with_replacement(vids, degree)
        ]

    def _tparts(self, tvec):
        """The T-parts of block degree ``tvec``: products of one monomial
        per block, in ``itertools.product`` order.  Generated lazily and
        memoized once complete, so a piece over the cap stops before the
        whole product is built."""
        parts = self.tparts.get(tvec)
        if parts is not None:
            yield from parts
            return
        parts = []
        for combo in product(*(self._monomials(vids, d) for vids, d in zip(self.block_vids, tvec))):
            part = tuple(map(sum, zip((0, 0, 0), *combo)))
            parts.append(part)
            yield part
        self.tparts[tvec] = parts

    def piece(self, tvec, weight):
        """(packed sources, packed images) of the piece: each T-part, then
        each ambient monomial of the weight it leaves.  ValueError for a
        malformed ``tvec``, CapExceeded for a piece over the cap."""
        key = (tvec, weight)
        piece = self.pieces.get(key)
        if piece is not None:
            return piece
        if len(tvec) != self.pres.spec.r or any(d < 0 for d in tvec):
            raise ValueError("block degree tuple must list %d nonnegative entries" % self.pres.spec.r)
        n_amb = len(self.data.ambient_ids)
        src, img = [], []
        for ts, ti, tw in self._tparts(tvec):
            rest = weight - tw
            if rest < 0:
                continue
            size = comb(rest + n_amb - 1, rest) if n_amb else int(rest == 0)
            if len(src) + size > self.cap:
                raise CapExceeded("degree piece %r/%d exceeds the cap of %d monomials" % (tvec, weight, self.cap))
            amb = self.ambient.get(rest)
            if amb is None:
                monos = self._monomials(self.data.ambient_ids, rest)
                amb = self.ambient[rest] = ([s for s, _, _ in monos], [i for _, i, _ in monos])
            src += [ts + s for s in amb[0]]
            img += [ti + i for i in amb[1]]
        piece = self.pieces[key] = (src, img)
        return piece

    @cached_property
    def moves(self):
        """{(g_t, g_w): [(m_a, m_b), ...]}: the nonzero generators by
        degree, m_a and m_b packed.  First read once the first piece is
        enumerated, so a piece over the cap is reported before a generator
        the oracle cannot use."""
        out = {}
        for g in self.generators:
            p = self.data.evaluate(getattr(g, "poly", g))
            if p.is_zero():
                continue
            ma, mb = _kernel_binomial(self.data, p)
            out.setdefault(self.data.poly_degree(p), []).append((self.src.pack(ma.exps), self.src.pack(mb.exps)))
        return out

    def compare(self, tvec, weight):
        tvec = tuple(tvec)
        src, img = self.piece(tvec, weight)
        kernel_dim = len(src) - len(set(img))
        parent, index = list(range(len(src))), None
        span_dim = n_multiples = 0
        for (gt, gw), pairs in self.moves.items():
            dt = tuple(a - b for a, b in zip(tvec, gt))
            if gw > weight or min(dt) < 0:
                continue
            quotient = self.piece(dt, weight - gw)[0]
            n_multiples += len(quotient) * len(pairs)
            if span_dim == kernel_dim or not quotient:
                continue
            if index is None:
                index = {m: i for i, m in enumerate(src)}
            for pa, pb in pairs:
                for q in quotient:
                    a, b = index[q + pa], index[q + pb]
                    while parent[a] != a:
                        parent[a] = a = parent[parent[a]]
                    while parent[b] != b:
                        parent[b] = b = parent[parent[b]]
                    if a != b:
                        parent[a] = b
                        span_dim += 1
                        if span_dim == kernel_dim:
                            break
                if span_dim == kernel_dim:
                    break
        witness = None
        if span_dim < kernel_dim:
            witness = self.witness(src, img, parent)
        return SpanReport(
            tvec=tvec,
            weight=weight,
            piece_size=len(src),
            kernel_dim=kernel_dim,
            span_dim=span_dim,
            multiples=n_multiples,
            ok=witness is None,
            witness=witness,
        )

    def fibers(self, img):
        """The fibers of a piece with two or more members, as lists of
        indices into the piece, sorted by their image's ``Mono.exps``.
        Each fiber's first member against each other member, in this
        order, is the kernel basis of ``kernel_piece``."""
        fibers = {}
        for i, v in enumerate(img):
            fibers.setdefault(v, []).append(i)
        groups = [g for g in fibers.values() if len(g) > 1]
        groups.sort(key=lambda g: self.img.unpack(img[g[0]]).exps)
        return groups

    def witness(self, src, img, parent):
        """The first kernel basis binomial (``fibers``) whose two monomials
        lie in different components of the union-find ``parent``."""

        def root(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i0, *rest in self.fibers(img):
            for i in rest:
                if root(i0) != root(i):
                    m0, m = self.src.unpack(src[i0]), self.src.unpack(src[i])
                    c0, c = self.data.image(m0)[0], self.data.image(m)[0]
                    return self.pres.universe.from_terms([(m0, c), (m, -c0)])


def span_compare(pres, generators, tvec, weight, cap=DEFAULT_PIECE_CAP):
    """Compare the kernel piece with the span of generator multiples.

    ``generators`` are polynomials (or objects with ``.poly``), each a
    binomial a*m_a + b*m_b of the kernel.  The multiples of a generator
    come from the quotient piece: q*m_a links to q*m_b for every monomial
    q of the piece's degree less the generator's, and ``span_dim`` counts
    the links that join two components.  A missed piece carries as witness
    its first kernel basis binomial whose monomials lie in different
    components: it maps to zero but is no generator combination here.
    This is the one-piece sweep of ``oracle_check``.
    """
    return oracle_check(pres, generators, degrees=[(tvec, weight)], cap=cap).reports[0]


def default_degrees(pres, t_cap=None, ambient_cap=None):
    """The default sweep: block degrees summing to at most ``t_cap``
    (default 3), ambient weight up to ``ambient_cap`` (default three times
    the largest block power, plus two)."""
    return _degrees(ImageData(pres), t_cap, ambient_cap)


def _degrees(data, t_cap, ambient_cap):
    """``default_degrees`` from the presentation's ``ImageData``.  A block
    degree tuple summing to ``total`` has ambient weight at least ``total``
    times the smallest block weight, so the totals stop at the first one
    whose every tuple lies above ``ambient_cap``."""
    pres = data.pres
    r = pres.spec.r
    if t_cap is None:
        t_cap = DEFAULT_T_CAP
    if ambient_cap is None:
        ambient_cap = 3 * max(bd.power for bd in pres.blocks) + 2
    lightest = min(data.min_block_weight)
    out = []
    for total in range(1, t_cap + 1):
        if total * lightest > ambient_cap:
            break
        for tvec in _compositions(total, r):
            base = sum(d * w for d, w in zip(tvec, data.min_block_weight))
            for weight in range(base, ambient_cap + 1):
                out.append((tvec, weight))
    return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass
class OracleReport:
    reports: list = field(default_factory=list)

    @property
    def ok(self):
        return all(r.ok for r in self.reports)

    @property
    def failures(self):
        return [r for r in self.reports if not r.ok]


def oracle_check(pres, generators, degrees=None, t_cap=None, ambient_cap=None, cap=DEFAULT_PIECE_CAP):
    """Compare spans piece by piece over a degree sweep; certifies that the
    family spans the kernel in every listed degree.  The pieces share one
    ``_Sweep`` over one ``ImageData``, which also gives the default
    degrees: each generator is evaluated and checked once, and each piece
    is enumerated once, whether as a piece or as a quotient piece."""
    data = ImageData(pres)
    degrees = list(_degrees(data, t_cap, ambient_cap) if degrees is None else degrees)
    sweep = _Sweep(pres, generators, data, cap, degrees)
    return OracleReport([sweep.compare(tvec, weight) for tvec, weight in degrees])
