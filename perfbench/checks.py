"""Correctness checks on the program's JSON output.

Nothing here imports ``multirees``: the presentation map is recomputed
from the spec document and the variable names alone, so a defect in the
program's own ``phi`` cannot hide a wrong generator or witness.

Naming convention read from the output: ``T[l;d]`` is the block-``l``
variable whose index tuple, displayed highest index first, is ``d``
(digits, comma separated once the block power exceeds 9).  With
``j = reversed(d)``, ``j_0 = 0`` and ``j_n = a_l`` it maps to
``prod_i s_i^(j_i - j_(i-1)) * t_l``.
"""
from __future__ import annotations

import re
from fractions import Fraction

# The worked five-ideal example of the paper and its 8 restricted generators.
FIVE_IDEAL_SPEC = {
    "sequence": {"mode": "generic", "n": 4, "names": ["p1", "p2", "x", "y"]},
    "blocks": [
        {"rows": [1, 2], "power": 1},
        {"rows": [1, 3], "power": 1},
        {"rows": [2, 3], "power": 1},
        {"rows": [1, 4], "power": 1},
        {"rows": [2, 4], "power": 1},
    ],
}
FIVE_IDEAL_GENERATORS = frozenset(
    {
        "p1*T[1;110] - p2*T[1;111]",
        "p1*T[2;100] - x*T[2;111]",
        "p2*T[3;100] - x*T[3;110]",
        "p1*T[4;000] - y*T[4;111]",
        "p2*T[5;000] - y*T[5;110]",
        "T[1;111]*T[2;100]*T[3;110] - T[1;110]*T[2;111]*T[3;100]",
        "T[1;111]*T[4;000]*T[5;110] - T[1;110]*T[4;111]*T[5;000]",
        "T[2;111]*T[3;100]*T[4;000]*T[5;110] - T[2;100]*T[3;110]*T[4;111]*T[5;000]",
    }
)

_T_NAME = re.compile(r"T\[(\d+);([\d,]*)\]$")
_COEFF = re.compile(r"\d+(/\d+)?$")


class Phi:
    """The presentation map of one spec document, over names."""

    def __init__(self, spec):
        seq = spec["sequence"]
        self.n = seq["n"]
        self.s_names = list(seq.get("names") or ["s%d" % (i + 1) for i in range(self.n)])
        self.powers = [b.get("power", 1) for b in spec["blocks"]]
        self.values = None
        if seq.get("mode", "generic") == "concrete":
            self.values = []
            for val in seq["values"]:
                if len(val) != 1:
                    raise ValueError("only monomial concrete values are supported")
                coeff, mono = val[0]
                self.values.append((coeff, mono))

    def t_exponents(self, name):
        """(block, s-exponent vector) of a presentation variable name."""
        m = _T_NAME.match(name)
        if m is None:
            return None
        block = int(m.group(1))
        digits = m.group(2)
        disp = [int(d) for d in (digits.split(",") if "," in digits else digits)]
        if len(disp) != self.n - 1:
            raise ValueError("variable %s does not fit n=%d" % (name, self.n))
        full = [0] + list(reversed(disp)) + [self.powers[block - 1]]
        return block, [full[i + 1] - full[i] for i in range(self.n)]

    def image(self, terms, evaluate):
        """Sum of the images of ``terms`` (pairs of coefficient and
        {name: exponent}) as {monomial: coefficient}, zero entries dropped.
        With ``evaluate`` sequence symbols become their concrete values."""
        out = {}
        for coeff, mono in terms:
            c = Fraction(coeff)
            s_exps = [0] * self.n
            rest = {}
            for name, e in mono.items():
                if name in self.s_names:
                    s_exps[self.s_names.index(name)] += e
                    continue
                t = self.t_exponents(name)
                if t is None:
                    rest[name] = rest.get(name, 0) + e
                    continue
                block, exps = t
                key = "t%d" % block
                rest[key] = rest.get(key, 0) + e
                for i, x in enumerate(exps):
                    s_exps[i] += x * e
            if evaluate and self.values is not None:
                for i, e in enumerate(s_exps):
                    vc, vm = self.values[i]
                    c *= Fraction(vc) ** e
                    for xn, xe in vm.items():
                        rest[xn] = rest.get(xn, 0) + xe * e
            else:
                for i, e in enumerate(s_exps):
                    if e:
                        rest[self.s_names[i]] = rest.get(self.s_names[i], 0) + e
            key = tuple(sorted((k, v) for k, v in rest.items() if v))
            out[key] = out.get(key, 0) + c
        return {k: v for k, v in out.items() if v}


def parse_poly(text):
    """Terms of a polynomial rendered by the program (``Poly.render``)."""
    text = text.strip()
    if text == "0":
        return []
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    terms = []
    for i, chunk in enumerate(re.split(r" ([+-]) ", text)):
        if i % 2 == 1:
            sign = 1 if chunk == "+" else -1
            continue
        factors = chunk.split("*")
        coeff = Fraction(1)
        if _COEFF.match(factors[0]):
            coeff = Fraction(factors.pop(0))
        mono = {}
        for f in factors:
            name, _, exp = f.partition("^")
            mono[name] = mono.get(name, 0) + (int(exp) if exp else 1)
        terms.append((sign * coeff, mono))
    return terms


def json_terms(terms):
    """Terms of a generator as the ``generators --format json`` output lists them."""
    return [(Fraction(c), mono) for c, mono in terms]


def t_degree(terms):
    """Total degree in presentation variables of the first term."""
    return sum(e for name, e in terms[0][1].items() if _T_NAME.match(name))


def check_generators(spec, payload):
    """Problems with a ``generators --format json`` payload: a wrong count,
    or a generator that ``phi`` does not send to zero."""
    problems = []
    gens = payload.get("generators", [])
    if payload.get("count") != len(gens):
        problems.append("count %r but %d generators listed" % (payload.get("count"), len(gens)))
    phi = Phi(spec)
    for g in gens:
        terms = json_terms(g["terms"])
        if not terms or phi.image(terms, evaluate=False):
            problems.append("generator %d does not map to zero: %s" % (g["index"], g["text"]))
    return problems


def check_verify(payload, expect_verdict, expect_generators):
    """Problems with a ``verify --format json`` payload."""
    problems = []
    if payload.get("ok") is not True:
        problems.append("verify did not certify")
    for rep in payload["groebner"]["reports"]:
        if not rep["ok"] or rep["stuck"]:
            problems.append("%d stuck S-pairs under %s" % (len(rep["stuck"]), rep["order"]))
    if not payload["oracle"]["ok"]:
        problems.append("kernel oracle missed %d pieces" % len(payload["oracle"]["failures"]))
    verdict = payload["normality"]["verdict"]
    if verdict != expect_verdict:
        problems.append("verdict %s, expected %s" % (verdict, expect_verdict))
    if payload.get("generators") != expect_generators:
        problems.append("%r generators, expected %d" % (payload.get("generators"), expect_generators))
    return problems


def check_control(spec, payload):
    """Problems with an ``oracle --drop-generator`` payload: the oracle must
    report a missed piece whose witness is nonzero and maps to zero."""
    if payload.get("ok") is not False:
        return ["the oracle did not notice the dropped generator"]
    phi = Phi(spec)
    for piece in payload["pieces"]:
        if piece["ok"] or piece["witness"] is None:
            continue
        terms = parse_poly(piece["witness"])
        if not terms:
            return ["zero witness"]
        if phi.image(terms, evaluate=True):
            return ["witness does not map to zero: %s" % piece["witness"]]
        return []
    return ["MISSED without a witness"]


def check_five_ideal(payload):
    got = {g["text"] for g in payload.get("generators", [])}
    if payload.get("count") != 8 or got != FIVE_IDEAL_GENERATORS:
        return ["five-ideal example gave %r generators, expected its 8" % payload.get("count")]
    return []
