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
monomial in the sequence times a t-symbol, so imaging is additive, and
one table, ``ImageData``, images every variable a generator may use.  A
piece is enumerated as T-part x ambient part, each with its packed
source and image, and a monomial is the sum of its parts; a generator's
term is the sum of its variables' entries, so no generator becomes a
``Poly`` or is imaged as a ``Mono``.  What pieces share is built once
per block degree: its T-parts, kept as runs of equal weight, and its
plan of the generator degrees that fit.  Packed ints hold one
fixed-width field per coordinate, wide enough for any piece or
generator term of the sweep, so sums never carry and equal ints mean
equal monomials.  ``source_monomials`` and ``kernel_piece`` unpack one
piece of a sweep, and its kernel basis, as ``Mono``s; the reference
enumeration, fiber basis and imaging on ``Mono``s that the tests compare
them with live in the tests.

Grading: a piece is indexed by the tuple of block degrees (how many T
variables of each block) together with the total ambient degree of the
image (sequence symbols count 1, a block-l variable counts a_l in
generic mode, the degree of its monomial value in concrete mode).  The
map preserves both, and every piece is finite.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, product
from math import comb, prod

from .poly import CapExceeded, GuardExceeded, Mono, Packing, SpecError

DEFAULT_T_CAP = 3
DEFAULT_PIECE_CAP = 20000
MAX_DEGREES = 100_000  # block degree tuples visited plus pieces listed, per sweep


class ImageData:
    """The presentation map on every variable that a generator of the
    enumerated ring may use, as a ``table`` of (coefficient, image pairs,
    weight): an ambient symbol maps to itself, in concrete mode a
    sequence symbol to its monomial value, and a T-variable T[l;e] to
    s^e * t_l with each sequence symbol's entry put in.  The weight is the
    ambient degree of the image.  The map is multiplicative, so a
    monomial's image is the product of its variables' entries."""

    def __init__(self, pres):
        self.pres = pres
        u = pres.universe
        seq = pres.spec.seq
        if seq.mode == "generic":
            self.ambient_ids = u.s_ids
            values = ()
        else:
            values = seq.concrete_monomial_values()
            if values is None:
                raise SpecError("the kernel oracle needs monomial sequence values in concrete mode")
            self.ambient_ids = u.x_ids
        self.table = {v: (1, ((v, 1),), 1) for v in self.ambient_ids}
        for svid, (c, mexp) in zip(u.s_ids, values):
            self.table[svid] = (c, tuple(sorted((u.vid(xn), e) for xn, e in mexp.items())), sum(mexp.values()))
        for vid, (l, s_exps) in pres.var_block.items():
            acc = {}
            coeff = 1
            for svid, e in zip(u.s_ids, s_exps):
                if not e:
                    continue
                c, pairs, _ = self.table[svid]
                coeff *= c ** e
                for xv, xe in pairs:
                    acc[xv] = acc.get(xv, 0) + xe * e
            weight = sum(acc.values())
            acc[u.t_ids[l - 1]] = 1
            self.table[vid] = (coeff, tuple(sorted(acc.items())), weight)
        self.min_block_weight = [min(self.table[v][2] for v in bd.vids.values()) for bd in pres.blocks]


class KernelPiece:
    """The kernel basis of one piece, as vectors {monomial index:
    coefficient} over ``monomials``."""

    __slots__ = ("tvec", "weight", "monomials", "basis")

    def __init__(self, tvec, weight, monomials, basis):
        self.tvec, self.weight, self.monomials, self.basis = tvec, weight, monomials, basis


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
    coeffs = [sweep.coefficient(m) for m in monos]
    basis = [{i0: coeffs[i], i: -coeffs[i0]} for i0, *rest in sweep.fibers(img) for i in rest]
    return KernelPiece(tuple(tvec), weight, monos, basis)


class SpanReport:
    """One piece compared: ``witness`` is a kernel element outside the
    span when there is one."""

    __slots__ = ("tvec", "weight", "piece_size", "kernel_dim", "span_dim", "multiples", "ok", "witness")

    def __init__(self, tvec, weight, piece_size, kernel_dim, span_dim, multiples, ok, witness=None):
        self.tvec, self.weight, self.piece_size, self.kernel_dim = tvec, weight, piece_size, kernel_dim
        self.span_dim, self.multiples, self.ok, self.witness = span_dim, multiples, ok, witness


def _terms(g):
    """(monomial, coefficient) of each term of a generator: a
    ``Generator``'s binomial plus and minus with +1 and -1, or the terms of
    a polynomial or of an object's ``.poly``."""
    b = getattr(g, "binomial", None)
    return ((b.plus, 1), (b.minus, -1)) if b is not None else getattr(g, "poly", g).terms


class _Sweep:
    """What the pieces of one sweep share: the generators, packed and
    checked once, and every enumerated piece, memoized by degree.

    Monomials are packed by two ``Packing`` layouts of one field width:
    ``src`` has each block's variables in block order, then the ambient
    symbols; ``img`` has the ambient symbols, then t_1, ..., t_r.
    ``packed`` holds each ``ImageData`` entry once, packed: the
    coefficient, the source (the variable itself, or a concrete sequence
    symbol's value), the image and the weight.  Packing is additive, and
    so is the presentation map on exponent vectors: a monomial's packed
    source and image are the sums of its variables' entries.  A
    coordinate of a monomial of degree (t, w), or of its image, is at
    most max(w, sum(t)): an ambient exponent at most w, a T or t exponent
    at most sum(t), which exceeds w when T-variables weigh 0 (constant
    concrete values).  The field holds the largest such bound of the
    sweep's pieces and of its generators' terms (checked even when they
    fit under no piece), and q*m_a lies in the piece, so no sum ever
    carries into the next field and packing is injective on each.

    A block's monomials of degree d are one ``_table``.  The T-parts of
    block degree t, a product of tables, are built with t's first piece
    as ``_runs`` of equal weight (one in generic mode), and a piece (t, w)
    is each run times the ambient table of weight w less the run's.

    A generator a*m_a + b*m_b of degree (g_t, g_w) has as multiples in
    piece (t, w) the binomials q*m_a - q*m_b, where q runs over the piece
    of degree (t - g_t, w - g_w); each links two monomials of one fiber.
    ``moves`` files the generators by degree, and ``plans`` holds per t
    the degrees whose g_t fits under it, with t - g_t.  ``compare`` joins
    links in ``parent``, a union-find list over piece indices with path
    halving, built at the first join.  Components never leave a fiber,
    so ``span_dim``, the joins that merge, never exceeds the kernel
    dimension, the piece size less the number of fibers.  Once they are
    equal every fiber is one component, and the piece only adds up its
    multiples.
    """

    def __init__(self, pres, generators, data, cap, degrees):
        self.pres = pres
        self.cap = cap
        self.generators = [_terms(g) for g in generators]
        bound = max((max(weight, sum(tvec)) for tvec, weight in degrees), default=0)
        T = pres.universe.T_idset
        for terms in self.generators:
            for mono, _ in terms:
                weight = sum(data.table[v][2] * e for v, e in mono.exps if v in data.table)
                bound = max(bound, weight, sum(e for v, e in mono.exps if v in T))
        width = max(bound.bit_length(), 1)
        self.vids = [tuple(bd.vids.values()) for bd in pres.blocks] + [tuple(data.ambient_ids)]
        self.src = Packing([v for vids in self.vids for v in vids], width)
        self.img = Packing(list(data.ambient_ids) + list(pres.universe.t_ids), width)
        self.packed = {
            v: (c, self.src.pack(((v, 1),) if v in self.src.shift else pairs), self.img.pack(pairs), w)
            for v, (c, pairs, w) in data.table.items()
        }
        self.tables = {}
        self.runs = {}
        self.plans = {}
        self.pieces = {}

    def _table(self, l, degree):
        """(packed source, packed image, weight) of each monomial of the
        degree in block ``l`` (from 0; ``r``: the ambient symbols), in
        ``combinations_with_replacement`` order; built once."""
        table = self.tables.get((l, degree))
        if table is None:
            table = self.tables[l, degree] = [
                tuple(map(sum, zip((0, 0, 0), *(self.packed[v][1:] for v in combo))))
                for combo in combinations_with_replacement(self.vids[l], degree)
            ]
        return table

    def _count(self, rest):
        """How many ambient monomials have weight ``rest``."""
        n_amb = len(self.vids[-1])
        return 0 if rest < 0 else comb(rest + n_amb - 1, rest) if n_amb else int(rest == 0)

    def _runs(self, tvec, weight):
        """The T-parts of ``tvec`` in ``itertools.product`` order, as runs
        (weight, packed sources, packed images) of equal weight.  The size
        of ``tvec``'s first piece is counted as they come: past the cap
        the product stops, and only complete runs are memoized."""
        if len(tvec) != self.pres.spec.r or any(d < 0 for d in tvec):
            raise ValueError("block degree tuple must list %d nonnegative entries" % self.pres.spec.r)
        runs, size, run_w = [], 0, None
        for combo in product(*(self._table(l, d) for l, d in enumerate(tvec))):
            ts, ti, tw = map(sum, zip(*combo))
            if tw != run_w:
                run_w, count, srcs, imgs = tw, self._count(weight - tw), [], []
                runs.append((tw, srcs, imgs))
            srcs.append(ts)
            imgs.append(ti)
            size += count
            if size > self.cap:
                return runs
        self.runs[tvec] = runs
        return runs

    def piece(self, tvec, weight):
        """(packed sources, packed images) of the piece: each T-part, then
        each ambient monomial of the weight it leaves.  ValueError for a
        malformed ``tvec``, CapExceeded for a piece over the cap."""
        key = (tvec, weight)
        piece = self.pieces.get(key)
        if piece is not None:
            return piece
        src, img, size = [], [], 0
        for tw, ts, ti in self.runs.get(tvec) or self._runs(tvec, weight):
            if tw > weight:
                continue
            size += len(ts) * self._count(weight - tw)
            if size > self.cap:
                raise CapExceeded("degree piece %r/%d exceeds the cap of %d monomials" % (tvec, weight, self.cap))
            amb = self._table(len(tvec), weight - tw)
            src += [t + s for t in ts for s, _, _ in amb]
            img += [t + i for t in ti for _, i, _ in amb]
        piece = self.pieces[key] = (src, img)
        return piece

    @cached_property
    def moves(self):
        """{(g_t, g_w): [(m_a, m_b), ...]}: the nonzero generators by
        degree, m_a and m_b packed.  A term packs as a piece monomial does,
        as the sum of its variables' entries, and terms of equal packed
        source merge, as they would in the generator evaluated over the
        enumerated ring; the checks and the degree read the packed images.
        First read once the first piece is enumerated, so a piece over the
        cap is reported before a generator the oracle cannot use."""
        packed = self.packed
        mask = (1 << self.img.width) - 1
        t_shifts = [self.img.shift[t] for t in self.pres.universe.t_ids]
        out = {}
        for terms in self.generators:
            merged = {}  # (packed source, pairs outside the table, packed image, weight) -> image coefficient
            for mono, coeff in terms:
                src = img = weight = 0
                foreign = ()
                for v, e in mono.exps:
                    entry = packed.get(v)
                    if entry is None:
                        foreign += ((v, e),)
                        continue
                    c, s, i, w = entry
                    coeff *= c**e
                    src += s * e
                    img += i * e
                    weight += w * e
                key = (src, foreign, img, weight)
                merged[key] = merged.get(key, 0) + coeff
            live = {key: c for key, c in merged.items() if c}
            if not live:
                continue
            if any(key[1] for key in live):
                raise ValueError("generator leaves the enumerated presentation ring; it uses a variable outside the presentation ring")
            if len(live) != 2:
                raise ValueError("generator %s is not a binomial" % self._evaluated(live).render())
            ((pa, _, ia, wa), ca), ((pb, _, ib, _), cb) = live.items()
            if ia != ib or ca + cb:
                raise ValueError("generator %s does not map to zero" % self._evaluated(live).render())
            out.setdefault((tuple(ia >> s & mask for s in t_shifts), wa), []).append((pa, pb))
        return out

    def _evaluated(self, live):
        """The polynomial of the merged terms of ``moves``, for its error
        messages: each term's coefficient less its T-variables' ones."""
        monos = [(self.src.unpack(src), foreign, c) for (src, foreign, _, _), c in live.items()]
        return self.pres.universe.from_terms(
            (Mono(m.exps + foreign), Fraction(c) / self.coefficient(m)) for m, foreign, c in monos
        )

    def coefficient(self, mono):
        """The coefficient of the image of a ``Mono`` of the table's
        variables."""
        return prod(self.packed[v][0] ** e for v, e in mono.exps)

    def compare(self, tvec, weight):
        tvec = tuple(tvec)
        src, img = self.piece(tvec, weight)
        kernel_dim = len(src) - len(set(img))
        plan = self.plans.get(tvec)
        if plan is None:
            plan = self.plans[tvec] = [
                (gw, tuple(a - b for a, b in zip(tvec, gt)), pairs)
                for (gt, gw), pairs in self.moves.items()
                if all(a >= b for a, b in zip(tvec, gt))
            ]
        parent = index = None
        span_dim = n_multiples = 0
        for gw, dt, pairs in plan:
            if gw > weight:
                continue
            quotient = self.piece(dt, weight - gw)[0]
            n_multiples += len(quotient) * len(pairs)
            if span_dim == kernel_dim or not quotient:
                continue
            if index is None:
                parent, index = list(range(len(src))), {m: i for i, m in enumerate(src)}
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
            witness = self.witness(src, img, parent or range(len(src)))
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
                    return self.pres.universe.from_terms([(m0, self.coefficient(m)), (m, -self.coefficient(m0))])


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
    whose every tuple lies above ``ambient_cap``.  A block of weight 0 (a
    constant value) never stops them, and a large ``ambient_cap`` lists
    many weights per tuple: the tuples visited and the pieces listed are
    counted before each is added, and past ``MAX_DEGREES`` GuardExceeded
    is raised."""
    pres = data.pres
    r = pres.spec.r
    if t_cap is None:
        t_cap = DEFAULT_T_CAP
    if ambient_cap is None:
        ambient_cap = 3 * max(bd.power for bd in pres.blocks) + 2
    lightest = min(data.min_block_weight)
    out = []
    visited = 0
    for total in range(1, t_cap + 1):
        if total * lightest > ambient_cap:
            break
        for tvec in _compositions(total, r):
            base = sum(d * w for d, w in zip(tvec, data.min_block_weight))
            visited += 1
            if visited + len(out) + max(0, ambient_cap + 1 - base) > MAX_DEGREES:
                raise GuardExceeded("the degree sweep exceeds the hard guard of %d tuples and pieces" % MAX_DEGREES)
            out.extend((tvec, weight) for weight in range(base, ambient_cap + 1))
    return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class OracleReport:
    """The ``SpanReport`` of each piece, in sweep order."""

    __slots__ = ("reports",)

    def __init__(self, reports):
        self.reports = reports

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
    degrees: each generator is evaluated and checked once, the T-parts
    and the plan of each block degree are built once, and each piece is
    enumerated once, whether as a piece or as a quotient piece."""
    data = ImageData(pres)
    degrees = list(_degrees(data, t_cap, ambient_cap) if degrees is None else degrees)
    sweep = _Sweep(pres, generators, data, cap, degrees)
    return OracleReport([sweep.compare(tvec, weight) for tvec, weight in degrees])
