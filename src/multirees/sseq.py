"""The fixed weak regular sequence as formal data.

Besides the sequence spec, this module carries the Taylor complex of a
list of monomials (``poly.Mono``) and their pairwise first syzygies,
which serve as independent witnesses for the sequence axioms used
elsewhere.
"""
from __future__ import annotations

from itertools import combinations
from math import comb

from .poly import MONO_ONE, GuardExceeded, SpecError, spec_field

MAX_TAYLOR_GENERATORS = 12
MAX_VARIABLES = 2_000  # sequence symbols plus presentation variables of a spec


class SeqSpec:
    """Description of the ambient sequence s_1,...,s_n.

    ``mode`` is "generic" or "concrete".  ``concrete_terms`` gives, per
    symbol, the value as a list of (integer coefficient, {x-name:
    exponent}) terms; generic mode leaves it empty.  It is the JSON
    spec's ``values`` as read, and this is its only reader: each value is
    checked and normalised in one pass.  Weak regularity of concrete
    values is an attestation, not a decidable check here.  Two specs
    compare equal when their normalised fields do.
    """

    __slots__ = ("n", "mode", "names", "x_names", "concrete_terms", "assume_weak_regular")

    def __init__(self, n, mode="generic", names=(), x_names=(), concrete_terms=(), assume_weak_regular=False):
        if not isinstance(concrete_terms, (list, tuple)):
            raise SpecError("malformed concrete values")
        # the spec's own key names, as ``rees.spec_from_dict`` reads them
        spec_field(names, (list, tuple), "'names'")
        spec_field(x_names, (list, tuple), "'ambient'")
        spec_field(assume_weak_regular, bool, "'assume_weak_regular'")
        if mode not in ("generic", "concrete"):
            raise SpecError("mode must be generic or concrete")
        if spec_field(n, int, "'n'") < 1:
            raise SpecError("need at least one sequence element")
        if n > MAX_VARIABLES:
            raise GuardExceeded("n = %d exceeds the hard guard of %d variables" % (n, MAX_VARIABLES))
        defaults = ("s%d" % (i + 1) for i in range(n))
        names = tuple(spec_field(v, str, "a name") for v in names or defaults)
        if len(names) != n:
            raise SpecError("expected %d sequence names" % n)
        x_names = tuple(spec_field(v, str, "a name") for v in x_names)
        if mode == "generic" and concrete_terms:
            raise SpecError("generic mode takes no concrete values")
        if mode == "concrete" and len(concrete_terms) != n:
            raise SpecError("expected %d concrete values" % n)
        values = []
        for i, val in enumerate(concrete_terms, start=1):
            if not isinstance(val, (list, tuple)) or not all(
                isinstance(term, (list, tuple)) and len(term) == 2 and isinstance(term[1], dict) for term in val
            ):
                raise SpecError("malformed concrete values")
            terms = []
            for c, mono in val:
                c, m = spec_field(c, int, "a coefficient"), {}
                for xn, e in mono.items():
                    spec_field(e, int, "an exponent")
                    if xn not in x_names:
                        raise SpecError("unknown ambient variable %r" % xn)
                    if e < 0:
                        raise SpecError("s%d has a negative exponent; values must be polynomials" % i)
                    if e:  # a zero exponent is no support: x*y^0 is the value x
                        m[xn] = e
                terms.append((c, m))
            if not terms or any(c == 0 for c, _ in terms):
                raise SpecError("s%d is zero or has a zero coefficient" % i)
            if len(terms) == 1 and abs(terms[0][0]) == 1 and not terms[0][1]:
                raise SpecError("s%d is a unit; the sequence must be non-invertible" % i)
            values.append(tuple(terms))
        self.n, self.mode, self.names, self.x_names = n, mode, names, x_names
        self.concrete_terms, self.assume_weak_regular = tuple(values), assume_weak_regular

    def __eq__(self, other):
        return isinstance(other, SeqSpec) and all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self):
        return "SeqSpec(%s)" % ", ".join("%s=%r" % (k, getattr(self, k)) for k in self.__slots__)

    def lint(self):
        """Non-fatal oddities worth surfacing in reports."""
        notes = []
        if self.mode == "concrete":
            seen = {}
            for i, val in enumerate(self.concrete_terms):
                key = tuple(sorted((c, tuple(sorted(m.items()))) for c, m in val))
                if key in seen:
                    notes.append("s%d and s%d have identical values" % (seen[key] + 1, i + 1))
                else:
                    seen[key] = i
            if not self.assume_weak_regular and not self.squarefree_monomial_values():
                notes.append("weak regularity of the concrete values is not attested")
        return notes

    def concrete_monomial_values(self):
        """Per-symbol (coeff, {x: e}) when each value is a single term, else None."""
        if self.mode != "concrete":
            return None
        out = []
        for val in self.concrete_terms:
            if len(val) != 1:
                return None
            out.append(val[0])
        return out

    def squarefree_monomial_values(self):
        """True when every value is a monic squarefree x-monomial and the
        supports are pairwise disjoint, which makes the sequence a
        permutable regular sequence of squarefree monomials."""
        vals = self.concrete_monomial_values()
        if vals is None:
            return False
        used = set()
        for coeff, m in vals:
            if coeff != 1 or not m or any(e > 1 for e in m.values()):
                return False
            sup = set(m)
            if used & sup:
                return False
            used |= sup
        return True


class TaylorComplex:
    """Taylor complex of a list of monomials (``Mono``).

    The basis in homological degree p is the p-subsets of generator
    indices; the differential entry at (J minus its r-th element, J) is
    (-1)^(r-1) * lcm(J)/lcm(J minus r-th), an exact division, since
    lcm(J minus r-th) divides lcm(J).
    """

    __slots__ = ("generators", "_lcms")

    def __init__(self, generators):
        self.generators, self._lcms = generators, {}

    @property
    def m(self):
        return len(self.generators)

    def rank(self, p):
        return comb(self.m, p)

    def lcm_of(self, subset):
        subset = tuple(subset)
        got = self._lcms.get(subset)
        if got is None:
            got = MONO_ONE
            for i in subset:
                got = got.lcm(self.generators[i])
            self._lcms[subset] = got
        return got

    def differential(self, p):
        """Sparse matrix of d_p as {(row_subset, col_subset): (sign, Mono)}."""
        if not 1 <= p <= self.m:
            raise ValueError("differential index out of range")
        entries = {}
        for col in combinations(range(self.m), p):
            u = self.lcm_of(col)
            for r in range(p):
                row = col[:r] + col[r + 1:]
                sign = -1 if r % 2 else 1
                entries[(row, col)] = (sign, u.div(self.lcm_of(row)))
        return entries

    def verify(self):
        """Check d_(p-1) o d_p = 0 for p = 2..m by formal expansion.  Each
        differential is built once: d_p is carried into the check of p+1."""
        if self.m < 2:
            return True
        d0 = self.differential(1)
        for p in range(2, self.m + 1):
            d1 = self.differential(p)
            acc = {}
            for (mid, col), (sg1, m1) in d1.items():
                for r in range(len(mid)):
                    row = mid[:r] + mid[r + 1:]
                    sg0, m0 = d0[(row, mid)]
                    key = (row, col, m0.mul(m1))
                    acc[key] = acc.get(key, 0) + sg0 * sg1
            if any(acc.values()):
                return False
            d0 = d1
        return True


def taylor_complex(gens):
    gens = tuple(gens)
    if len(gens) > MAX_TAYLOR_GENERATORS:
        raise GuardExceeded("Taylor complex limited to %d generators" % MAX_TAYLOR_GENERATORS)
    return TaylorComplex(generators=gens)


def syzygy_generators(gens):
    """The pairwise syzygies of a monomial list: for i < j the vector with
    lcm/gen_i at slot i and -lcm/gen_j at slot j.  Returned as tuples of
    (sign, Mono) or None per coordinate."""
    gens = tuple(gens)
    out = []
    for i, j in combinations(range(len(gens)), 2):
        u = gens[i].lcm(gens[j])
        vec = [None] * len(gens)
        vec[i] = (1, u.div(gens[i]))
        vec[j] = (-1, u.div(gens[j]))
        out.append(tuple(vec))
    return out
