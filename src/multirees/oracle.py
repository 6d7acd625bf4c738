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
sweep checks each generator once and enumerates each piece once, whether
it serves as a piece or as a quotient piece.

The sweep runs on packed exponent vectors.  Each T-variable maps to a
monomial in the sequence times a t-symbol, so images are additive:
a piece is enumerated as T-part x ambient part, each part with its
packed source and packed image, and a monomial is the sum of its parts.
Packed ints hold one fixed-width field per coordinate, wide enough for
the largest coordinate any piece of the sweep can have, so sums never
carry and equal ints mean equal monomials.  ``Mono`` and ``Poly`` are
built only for a witness; ``source_monomials`` and ``kernel_piece`` are
the reference path on ``Mono``s that the tests compare the sweep with.

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
from math import comb, prod

from .poly import CapExceeded, Mono, Packing, Poly, SpecError
from .sseq import SMonomial, syzygy_generators

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
        for vid, (l, it) in pres.var_block.items():
            acc = {}
            coeff = 1
            for i, e in enumerate(it.s_exponents()):
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


def source_monomials(pres, tvec, weight, image_data=None, cap=None):
    """Every presentation-ring monomial of the given degree, as ``Mono``s:
    the reference enumeration; the oracle sweep enumerates the same
    monomials, in the same order, packed (``_Sweep.piece``)."""
    data = image_data or ImageData(pres)
    if len(tvec) != pres.spec.r or any(d < 0 for d in tvec):
        raise ValueError("block degree tuple must list %d nonnegative entries" % pres.spec.r)
    parts = [list(combinations_with_replacement(bd.vids.values(), d)) for bd, d in zip(pres.blocks, tvec)]
    out = []
    for combo in product(*parts):
        tpairs = {}
        base_weight = 0
        for piece in combo:
            for vid in piece:
                tpairs[vid] = tpairs.get(vid, 0) + 1
                base_weight += data.t_weight[vid]
        rest = weight - base_weight
        if rest < 0:
            continue
        for amb in combinations_with_replacement(data.ambient_ids, rest):
            pairs = dict(tpairs)
            for vid in amb:
                pairs[vid] = pairs.get(vid, 0) + 1
            out.append(Mono(tuple(pairs.items())))
            if cap is not None and len(out) > cap:
                raise CapExceeded(
                    "degree piece %r/%d exceeds the cap of %d monomials" % (tvec, weight, cap)
                )
    return out


@dataclass
class KernelPiece:
    tvec: tuple
    weight: int
    monomials: list
    basis: list  # vectors as {monomial index: coefficient}

    @property
    def dim(self):
        return len(self.basis)

    def vector_to_poly(self, universe, vec):
        return universe.from_terms([(self.monomials[i], c) for i, c in vec.items()])


def _fiber_basis(data, monos):
    """Kernel basis of the map on a list of monomials, one fiber at a
    time: each fiber with k members gives k - 1 differences, written as
    ``{monomial index: coefficient}``."""
    fibers = {}
    for i, m in enumerate(monos):
        coeff, img = data.image(m)
        fibers.setdefault(img, []).append((i, coeff))
    basis = []
    for img in sorted(fibers, key=lambda m: m.exps):
        group = fibers[img]
        if len(group) < 2:
            continue
        i0, c0 = group[0]
        for i, c in group[1:]:
            basis.append({i0: c, i: -c0})
    return basis


def kernel_piece(pres, tvec, weight, image_data=None, cap=DEFAULT_PIECE_CAP):
    """Basis of the kernel of the presentation map on one graded piece,
    computed straight from the fibers (no generators involved).  This is
    the reference path on ``Mono``s; ``oracle_check`` does not call it."""
    data = image_data or ImageData(pres)
    monos = source_monomials(pres, tvec, weight, data, cap=cap)
    return KernelPiece(tuple(tvec), weight, monos, _fiber_basis(data, monos))


class _Components:
    """Union-find over hashable nodes."""

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

    def line(self):
        verdict = "ok" if self.ok else "MISSED"
        return "degrees t=%s ambient=%d: piece %d, kernel dim %d, family span %d [%s]" % (
            self.tvec,
            self.weight,
            self.piece_size,
            self.kernel_dim,
            self.span_dim,
            verdict,
        )


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
    every piece.  ``Mono`` and ``Poly`` are built only for a witness.

    A generator a*m_a + b*m_b of degree (g_t, g_w) has as multiples in
    piece (t, w) the binomials q*m_a - q*m_b, where q runs over the piece
    of degree (t - g_t, w - g_w); each links two monomials of one fiber.
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
        """The T-parts of block degree ``tvec``, in ``source_monomials``'
        order: products of one monomial per block.  Generated lazily and
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
        """(packed sources, packed images) of the piece, in the order of
        ``source_monomials``, which raises the same errors."""
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
            if self.cap is not None:
                size = comb(rest + n_amb - 1, rest) if n_amb else int(rest == 0)
                if len(src) + size > self.cap:
                    raise CapExceeded(
                        "degree piece %r/%d exceeds the cap of %d monomials" % (tvec, weight, self.cap)
                    )
            amb = self.ambient.get(rest)
            if amb is None:
                amb = self.ambient[rest] = self._monomials(self.data.ambient_ids, rest)
            src += [ts + s for s, _, _ in amb]
            img += [ti + i for _, i, _ in amb]
        piece = self.pieces[key] = (src, img)
        return piece

    @cached_property
    def moves(self):
        """(m_a, m_b, g_t, g_w) per nonzero generator, m_a and m_b packed.
        First read once the first piece is enumerated, so a piece over the
        cap is reported before a generator the oracle cannot use."""
        out = []
        for g in self.generators:
            p = self.data.evaluate(getattr(g, "poly", g))
            if p.is_zero():
                continue
            ma, mb = _kernel_binomial(self.data, p)
            pa, pb = self.src.pack(ma.exps), self.src.pack(mb.exps)
            out.append((pa, pb) + self.data.poly_degree(p))
        return out

    def compare(self, tvec, weight):
        tvec = tuple(tvec)
        src, img = self.piece(tvec, weight)
        kernel_dim = len(src) - len(set(img))
        index = {m: i for i, m in enumerate(src)}
        comps = _Components()
        span_dim = n_multiples = 0
        for pa, pb, gt, gw in self.moves:
            dt = tuple(a - b for a, b in zip(tvec, gt))
            if gw > weight or min(dt) < 0:
                continue
            quotient = self.piece(dt, weight - gw)[0]
            n_multiples += len(quotient)
            for q in quotient:
                span_dim += comps.join(index[q + pa], index[q + pb])
        witness = None
        if span_dim < kernel_dim:
            witness = self.witness(src, img, comps)
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

    def witness(self, src, img, comps):
        """The first basis binomial of ``_fiber_basis`` order whose two
        monomials lie in different components: fibers sorted by their
        image's ``Mono.exps``, each fiber's first member against the rest."""
        fibers = {}
        for i, v in enumerate(img):
            fibers.setdefault(v, []).append(i)
        groups = [g for g in fibers.values() if len(g) > 1]
        groups.sort(key=lambda g: self.img.unpack(img[g[0]]).exps)
        for i0, *rest in groups:
            for i in rest:
                if comps.find(i0) != comps.find(i):
                    m0, m = self.src.unpack(src[i0]), self.src.unpack(src[i])
                    c0, c = (prod(self.data.t_coeff.get(v, 1) ** e for v, e in x.exps) for x in (m0, m))
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


def default_degrees(pres, t_cap=None, ambient_cap=None, image_data=None):
    """The default sweep: block degrees summing to at most ``t_cap``
    (default 3), ambient weight up to ``ambient_cap`` (default three times
    the largest block power, plus two)."""
    data = image_data or ImageData(pres)
    r = pres.spec.r
    if t_cap is None:
        t_cap = DEFAULT_T_CAP
    if ambient_cap is None:
        ambient_cap = 3 * max(bd.power for bd in pres.blocks) + 2
    out = []
    for total in range(1, t_cap + 1):
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

    def summary(self):
        lines = [
            "kernel oracle over %d graded pieces: %s"
            % (len(self.reports), "ok" if self.ok else "%d MISSED" % len(self.failures))
        ]
        for r in self.reports:
            lines.append("  " + r.line())
        return "\n".join(lines)


def oracle_check(pres, generators, degrees=None, t_cap=None, ambient_cap=None, cap=DEFAULT_PIECE_CAP):
    """Compare spans piece by piece over a degree sweep; certifies that the
    family spans the kernel in every listed degree.  The pieces share one
    ``_Sweep``: each generator is evaluated and checked once, and each
    piece is enumerated once, whether as a piece or as a quotient piece."""
    data = ImageData(pres)
    if degrees is None:
        degrees = default_degrees(pres, t_cap=t_cap, ambient_cap=ambient_cap, image_data=data)
    degrees = list(degrees)
    sweep = _Sweep(pres, generators, data, cap, degrees)
    return OracleReport([sweep.compare(tvec, weight) for tvec, weight in degrees])


# --- syzygies of a plain monomial list -------------------------------------


def monomial_syzygy_kernel(gens, degree):
    """Basis of the total-degree-``degree`` piece of the syzygy module of a
    monomial list: vectors with one monomial entry per slot whose weighted
    images sum to zero.  Slot ``i`` carries monomials of degree
    ``degree - gens[i].degree()``.

    Because each slot maps monomials to monomials, the piece splits over
    the fibers of the map: each target monomial with k preimages
    contributes k - 1 differences.  Basis vectors are dicts
    ``{(slot, multiplier): +-1}`` with SMonomial multipliers."""
    gens = tuple(gens)
    if not gens:
        return []
    n = gens[0].n
    for u in gens:
        u._check(gens[0])
    basis = []
    for exps in _compositions(degree, n):
        w = SMonomial(exps)
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


def syzygy_span_compare(gens, max_degree):
    """Per total degree up to ``max_degree``, compare the syzygy kernel of
    a monomial list against the span of monomial multiples of the pairwise
    syzygies.  The pairwise span always sits inside the kernel (each
    pairwise vector maps to zero), so dimension equality certifies that
    the pairwise syzygies generate up to the bound."""
    gens = tuple(gens)
    if not gens:
        return []
    n = gens[0].n
    pairwise = syzygy_generators(gens)
    out = []
    for degree in range(max_degree + 1):
        kernel_dim = len(monomial_syzygy_kernel(gens, degree))
        comps = _Components()
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
                mult = SMonomial(mexps)
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
