"""Presentations of multi-Rees algebras over a fixed sequence.

Block l has one presentation variable T[s^e] for each degree-a_l
monomial s^e in the sequence symbols of its rows K_l; the map

    phi(T[s^e]) = s^e * t_l

sends each to its value times a block tag.  The kernel of phi is the
defining ideal.  This module builds the augmented presentation matrix
(sequence column next to the block columns), emits the two candidate
generating families (a restricted binomial family, and every binary
quasi-minor of the matrix) and F1 from the cycle walks of its entry
graph, which the matrix searches once per cap for every family, and
assembles the supporting reports.

Variables and columns are indexed by exponent vectors.  Block l has one
column per degree-(a_l - 1) monomial s^u in K_l, whose row-k entry is
T[s^u * s_k]; so s_k * T[s^u * s_w] = s_w * T[s^u * s_k] under phi, and
these are the sequence-linear relations read off the matrix.  Names use
the paper's ladder of s^e, its partial sums e_1 + ... + e_i for
i = n-1 down to 1: T[l;110] is s_2 * t_l over four symbols at power 1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, combinations_with_replacement

from .poly import (
    Mono,
    MonomialOrder,
    Poly,
    SpecError,
    VarUniverse,
    leading,
    spec_field,
)
from .quasimat import (
    Binomial,
    QuasiMatrix,
    binary_subquasi_enumerate,
    quasi_determinants,
)
from .sseq import SeqSpec

RESTRICTED = "restricted"
FULL = "full"
FAMILIES = (RESTRICTED, FULL)
SINGLE = "single"  # F1, for library callers: not a CLI choice

DEFAULT_MAX_MINOR_SIZE = 6


@dataclass(frozen=True)
class ReesSpec:
    """A sequence plus r blocks, each a row subset K_l and a power a_l."""

    seq: SeqSpec
    blocks: tuple

    def __post_init__(self):
        if not self.blocks:
            raise SpecError("need at least one block")
        norm = []
        for b, raw in enumerate(self.blocks, start=1):
            try:
                rows, power = raw
                rows = tuple(rows)
            except (TypeError, ValueError):
                raise SpecError("block %d must be (rows, power)" % b)
            rows = tuple(sorted(set(spec_field(k, int, "block %d row" % b) for k in rows)))
            power = spec_field(power, int, "block %d 'power'" % b)
            if not rows:
                raise SpecError("block %d has no rows" % b)
            if rows[0] < 1 or rows[-1] > self.seq.n:
                raise SpecError("block %d rows must lie in 1..%d" % (b, self.seq.n))
            if power < 1:
                raise SpecError("block %d power must be positive" % b)
            norm.append((rows, power))
        object.__setattr__(self, "blocks", tuple(norm))

    @property
    def r(self):
        return len(self.blocks)

    @property
    def domain(self):
        return "QQ" if self.seq.mode == "generic" else "ZZ"

    def lint(self):
        notes = list(self.seq.lint())
        seen = {}
        for l, (rows, power) in enumerate(self.blocks, start=1):
            if len(rows) == 1:
                notes.append("block %d uses a single sequence element; it contributes no relations of its own" % l)
            if (rows, power) in seen:
                notes.append("blocks %d and %d are identical" % (seen[(rows, power)], l))
            else:
                seen[(rows, power)] = l
        return notes


def spec_to_dict(spec):
    seq = {"mode": spec.seq.mode, "n": spec.seq.n, "names": list(spec.seq.names)}
    if spec.seq.mode == "concrete":
        seq["ambient"] = list(spec.seq.x_names)
        seq["values"] = [
            [[c, dict(m)] for c, m in val] for val in spec.seq.concrete_terms
        ]
        if spec.seq.assume_weak_regular:
            seq["assume_weak_regular"] = True
    return {
        "sequence": seq,
        "blocks": [{"rows": list(rows), "power": power} for rows, power in spec.blocks],
    }


def spec_from_dict(data):
    if not isinstance(data, dict):
        raise SpecError("spec must be a JSON object")
    unknown = set(data) - {"sequence", "blocks"}
    if unknown:
        raise SpecError("unknown top-level keys: %s" % ", ".join(sorted(unknown)))
    if "sequence" not in data or "blocks" not in data:
        raise SpecError("spec needs 'sequence' and 'blocks'")
    sd = data["sequence"]
    if not isinstance(sd, dict):
        raise SpecError("'sequence' must be an object")
    allowed = {"mode", "n", "names", "ambient", "values", "assume_weak_regular"}
    unknown = set(sd) - allowed
    if unknown:
        raise SpecError("unknown sequence keys: %s" % ", ".join(sorted(unknown)))
    mode = sd.get("mode", "generic")
    if "n" not in sd:
        raise SpecError("sequence needs 'n'")
    try:
        values = tuple(
            tuple(
                (c, spec_field(m, dict, "a monomial"))
                for c, m in spec_field(val, list, "a concrete value")
            )
            for val in spec_field(sd.get("values", []), list, "'values'")
        )
    except (TypeError, ValueError, AttributeError):
        raise SpecError("malformed concrete values")
    seq = SeqSpec(
        n=sd["n"],
        mode=mode,
        names=spec_field(sd.get("names", []), list, "'names'"),
        x_names=spec_field(sd.get("ambient", []), list, "'ambient'"),
        concrete_terms=values,
        assume_weak_regular=spec_field(sd.get("assume_weak_regular", False), bool, "'assume_weak_regular'"),
    )
    blocks = []
    if not isinstance(data["blocks"], list):
        raise SpecError("'blocks' must be a list")
    for b, bd in enumerate(data["blocks"], start=1):
        if not isinstance(bd, dict):
            raise SpecError("block %d must be an object" % b)
        unknown = set(bd) - {"rows", "power"}
        if unknown:
            raise SpecError("unknown block keys: %s" % ", ".join(sorted(unknown)))
        if "rows" not in bd:
            raise SpecError("block %d needs 'rows'" % b)
        blocks.append((spec_field(bd["rows"], list, "block %d 'rows'" % b), bd.get("power", 1)))
    return ReesSpec(seq=seq, blocks=tuple(blocks))


def spec_from_json(text):
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecError("invalid JSON: %s" % exc)
    return spec_from_dict(data)


def _ladder(e):
    """The paper's name for s^e: its partial sums e_1 + ... + e_i for
    i = n-1 down to 1.  A block's variables and columns come largest
    ladder first."""
    return tuple(accumulate(e[:-1]))[::-1]


def _ladder_text(l, e, power):
    """``l;ladder``: digits run together up to power 9, comma separated
    beyond."""
    sep = "" if power <= 9 else ","
    return "%d;%s" % (l, sep.join(map(str, _ladder(e))))


def _monomials(n, rows, degree):
    """Exponent vectors of the degree-``degree`` monomials in the symbols
    ``rows`` (1-based), largest ladder first."""
    out = []
    for combo in combinations_with_replacement(rows, degree):
        e = [0] * n
        for k in combo:
            e[k - 1] += 1
        out.append(tuple(e))
    out.sort(key=_ladder, reverse=True)
    return out


@dataclass
class BlockData:
    """One block: ``columns`` lists the exponent vector u of each
    degree-(power - 1) monomial in ``rows``, one matrix column each, and
    ``vids`` maps the exponent vector e of each degree-``power`` monomial
    in ``rows`` (a variable of the presentation ring) to its id, in id
    order."""

    index: int
    rows: tuple
    power: int
    columns: list
    vids: dict = field(default_factory=dict)


class Presentation:
    """The variable universe, the augmented matrix, and the map phi.

    The T-block of the universe is the presentation ring: one variable
    per degree-a_l monomial in a block's rows, in block order, then
    largest ladder first.  ``var_block[vid]`` is its ``(l, e)`` and
    ``col_blocks[c]`` the ``(l, u)`` of block column c, whose row-k entry
    is the variable of u + unit_k."""

    def __init__(self, spec):
        seq = spec.seq
        n = seq.n
        blocks = [
            BlockData(index=l, rows=rows, power=power, columns=_monomials(n, rows, power - 1))
            for l, (rows, power) in enumerate(spec.blocks, start=1)
        ]
        ring = [(bd, e) for bd in blocks for e in _monomials(n, bd.rows, bd.power)]
        try:
            universe = VarUniverse(
                s_names=seq.names,
                x_names=seq.x_names,
                t_names=["t%d" % l for l in range(1, spec.r + 1)],
                T_names=["T[%s]" % _ladder_text(bd.index, e, bd.power) for bd, e in ring],
                T_keys=[(bd.index, _ladder(e), n - e.count(0)) for bd, e in ring],
                domain=spec.domain,
            )
        except ValueError as exc:
            raise SpecError("variable naming conflict: %s" % exc)
        self.spec = spec
        self.universe = universe
        self.blocks = blocks
        self.var_block = {}
        for (bd, e), vid in zip(ring, universe.T_ids):
            bd.vids[e] = vid
            self.var_block[vid] = (bd.index, e)
        entries = {(k, 0): vid for k, vid in enumerate(universe.s_ids)}
        self.col_blocks = [None]
        self.col_labels = ["s"]
        for bd in blocks:
            for u in bd.columns:
                c = len(self.col_blocks)
                for k in bd.rows:
                    entries[(k - 1, c)] = bd.vids[u[:k - 1] + (u[k - 1] + 1,) + u[k:]]
                self.col_blocks.append((bd.index, u))
                self.col_labels.append("[%s]" % _ladder_text(bd.index, u, bd.power))
        self.matrix = QuasiMatrix(n, len(self.col_blocks), entries)
        self._phi_cache = None
        self._s_value_cache = None

    # --- the map phi ---------------------------------------------------

    def phi_images(self):
        """T variable -> its value: the s-monomial times the block tag."""
        if self._phi_cache is None:
            u = self.universe
            images = {}
            for vid, (l, e) in self.var_block.items():
                pairs = [(u.s_ids[i], x) for i, x in enumerate(e) if x]
                pairs.append((u.t_ids[l - 1], 1))
                images[vid] = Poly(u, ((Mono(tuple(pairs)), 1),))
            self._phi_cache = images
        return self._phi_cache

    def s_values(self):
        """Sequence symbol -> concrete value polynomial (concrete mode)."""
        if self.spec.seq.mode != "concrete":
            raise SpecError("no concrete values in generic mode")
        if self._s_value_cache is None:
            u = self.universe
            images = {}
            for k, val in enumerate(self.spec.seq.concrete_terms, start=1):
                p = u.zero()
                for coeff, mexp in val:
                    mono = Mono(tuple((u.vid(xn), e) for xn, e in mexp.items()))
                    p = p + u.term(coeff, mono)
                images[u.s_ids[k - 1]] = p
            self._s_value_cache = images
        return self._s_value_cache

    def phi(self, p):
        """Apply phi; in concrete mode also replace sequence symbols by
        their concrete values."""
        out = p.substitute(self.phi_images())
        if self.spec.seq.mode == "concrete":
            out = out.substitute(self.s_values())
        return out

    # --- rendering ------------------------------------------------------

    def pretty_matrix(self):
        return self.matrix.pretty(
            names=self.universe.name,
            row_labels=list(self.spec.seq.names),
            col_labels=self.col_labels,
        )


def build_presentation(spec):
    return Presentation(spec)


# --- generating families -------------------------------------------------


@dataclass
class Generator:
    """One emitted binomial; ``poly`` is built from it on first read."""

    binomial: Binomial
    kind: str  # "seq-linear" | "block-2x2" | "multiblock-cycle" | "binary"
    blocks: tuple
    size: int  # number of matrix columns consumed
    label: str
    universe: VarUniverse = field(repr=False, compare=False)

    @cached_property
    def poly(self):
        return self.binomial.to_poly(self.universe)


def _size_cap(pres, family, max_minor_size):
    """rows + cols of the largest binary quasi-minor to emit."""
    known = FAMILIES + (SINGLE,)
    if family not in known:
        raise ValueError("family must be one of %s" % (known,))
    if max_minor_size is None:
        max_minor_size = max(2, min(pres.spec.seq.n, DEFAULT_MAX_MINOR_SIZE))
    if max_minor_size < 2:
        raise ValueError("max_minor_size must be at least 2")
    return 2 * max_minor_size


def _family(pres, items):
    """Generators from (binomial, kind, blocks, size, label) items, in
    order, zero and repeated binomials dropped."""
    u = pres.universe
    out = []
    seen = set()
    for bino, kind, blocks_, size, label in items:
        if bino.is_zero() or bino.key() in seen:
            continue
        seen.add(bino.key())
        out.append(Generator(bino, kind, tuple(sorted(set(blocks_))), size, label, u))
    return out


def _union_axes(cycles):
    """The sorted rows and columns of a cycle union, read off its even
    cells, which form a perfect matching."""
    even = [cell for cy in cycles for cell in cy[0::2]]
    return tuple(sorted(r for r, _ in even)), tuple(sorted(c for _, c in even))


def _binary_items(pres, unions):
    E = pres.matrix
    for cycles in unions:
        rows, cols = _union_axes(cycles)
        blocks_ = [pres.col_blocks[c][0] for c in cols if c]
        label = "binary quasi-minor on rows %s cols %s" % (
            tuple(r + 1 for r in rows),
            tuple(pres.col_labels[c] for c in cols),
        )
        for bino in quasi_determinants(E, cycles):
            yield bino, "binary", blocks_, len(cols), label


def _restricted_items(pres, walks):
    """The cycle walks of restricted shape, in emission order: the
    4-cycles through the sequence column (seq-linear), the 4-cycles on
    two columns of one block (block-2x2), each by columns then rows, and
    then in walk order the cycles off the sequence column whose columns
    lie in distinct blocks (multiblock-cycle).  Each uses as many matrix
    columns as it has block columns."""
    label = pres.col_labels
    kept = []
    for i, walk in enumerate(walks):
        rows, cols = _union_axes((walk,))
        blocks_ = [pres.col_blocks[c][0] for c in cols if c]
        if len(set(blocks_)) == len(cols):
            text = "cycle through rows %s cols %s" % (tuple(r + 1 for r in rows), tuple(label[c] for c in cols))
            kept.append(((2, i), "multiblock-cycle", blocks_, text, walk))
        elif len(cols) == 2 and cols[0] == 0:
            text = "rows (%d,%d) of column %s against the sequence column" % (rows[0] + 1, rows[1] + 1, label[cols[1]])
            kept.append(((0, cols, rows, walk), "seq-linear", blocks_, text, walk))
        elif len(cols) == 2:
            text = "rows (%d,%d) cols %s,%s" % (rows[0] + 1, rows[1] + 1, label[cols[0]], label[cols[1]])
            kept.append(((1, cols, rows, walk), "block-2x2", blocks_, text, walk))
    E = pres.matrix
    for _, kind, blocks_, text, walk in sorted(kept, key=lambda item: item[0]):
        yield Binomial.from_matchings(E, walk[0::2], walk[1::2]), kind, blocks_, len(blocks_), text


def defining_generators(pres, family=RESTRICTED, max_minor_size=None):
    """Candidate generators of the defining ideal.

    ``full`` (F): every binary quasi-minor of the augmented matrix
    (sequence column included), multi-cycle unions and all, up to the
    size cap.

    ``single`` (F1): the binary quasi-minors of the single cycles, that
    is F without its multi-cycle unions, in F's order.  For n <= 3 no
    union fits in the matrix, so F1 is F.

    ``restricted``: the single-cycle quasi-minors of restricted shape,
    read off the same cycle walks as F1: the sequence-linear column
    relations (4-cycles through the sequence column), the 2x2 minors
    inside one block, and the cycles off the sequence column that use at
    most one column per block.

    Every family reads the matrix's cycle walks, searched once per cap;
    only ``full`` enumerates their unions.
    """
    size = _size_cap(pres, family, max_minor_size)
    E = pres.matrix
    if family == FULL:
        return _family(pres, _binary_items(pres, binary_subquasi_enumerate(E, max_size=size)))
    walks = E.cycle_walks(size)
    if family == SINGLE:
        return _family(pres, _binary_items(pres, [(walk,) for walk in walks]))
    return _family(pres, _restricted_items(pres, walks))


# --- squarefreeness / normality report ------------------------------------


@dataclass
class NormalityReport:
    verdict: str  # "NORMAL_CM" | "INDETERMINATE"
    structural_ok: bool
    structural_failures: list
    symbol_results: dict
    hypothesis_ok: bool
    notes: list

    def summary(self):
        lines = ["verdict: %s" % self.verdict]
        lines.append(
            "structural squarefreeness (distinct columns per term, sequence part squarefree): %s"
            % ("pass" if self.structural_ok else "FAIL")
        )
        for desc, ok in self.symbol_results.items():
            lines.append("symbol-level squarefree leading terms under %s: %s" % (desc, "pass" if ok else "no"))
        lines.append("regularity hypothesis attested: %s" % ("yes" if self.hypothesis_ok else "no"))
        for note in self.notes:
            lines.append("note: %s" % note)
        return "\n".join(lines)


def _term_structural_ok(universe, mono, cells):
    if cells:
        cols = [c for _, c in cells]
        if len(set(cols)) != len(cols):
            return False
    return all(e <= 1 for v, e in mono.exps if v in universe.s_idset)


def normality_report(pres, gens, orders=None):
    """Squarefreeness-based normality/Cohen-Macaulayness report on the
    ``Generator`` list ``gens`` emitted for ``pres``.

    The structural test asks that each term of each generator use distinct
    matrix columns and a squarefree sequence part; this is what the
    normality argument needs.  Leading terms as monomials in the variables
    may still fail symbol-level squarefreeness (repeated variables occur
    whenever a block power exceeds one), so the symbol results are
    reported but do not gate the verdict.
    """
    u = pres.universe
    failures = []
    for g in gens:
        b = g.binomial
        if not _term_structural_ok(u, b.plus, b.plus_cells) or not _term_structural_ok(
            u, b.minus, b.minus_cells
        ):
            failures.append(g)
    structural_ok = not failures
    if orders is None:
        orders = [MonomialOrder(u, "lex"), MonomialOrder(u, "grevlex")]
    symbol_results = {}
    for order in orders:
        ok = True
        for g in gens:
            lc, lm = leading(g.poly, order)
            if not lm.is_squarefree():
                ok = False
                break
            smono = lc.terms[0][0] if len(lc.terms) == 1 else None
            if smono is not None and not smono.is_squarefree():
                ok = False
                break
        symbol_results[order.describe()] = ok
    seq = pres.spec.seq
    if seq.mode == "generic":
        hypothesis_ok = True
    else:
        hypothesis_ok = seq.assume_weak_regular or seq.squarefree_monomial_values()
    notes = pres.spec.lint()
    if not gens:
        notes.append("no relations: the presentation ring maps isomorphically")
    verdict = "NORMAL_CM" if (structural_ok and hypothesis_ok) else "INDETERMINATE"
    return NormalityReport(
        verdict=verdict,
        structural_ok=structural_ok,
        structural_failures=failures,
        symbol_results=symbol_results,
        hypothesis_ok=hypothesis_ok,
        notes=notes,
    )
