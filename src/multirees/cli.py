"""Command line interface.

Exit codes: 0 = success / certified, 1 = check failed or inconclusive,
2 = invalid spec or usage, 3 = an enumeration cap or guard was exceeded.
A reader that closes stdout early (``... | head``) also gets exit 1, with
no traceback: the rest of the output goes to the null device.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

from .grobner import MemberResult, buchberger_check, default_order_suite
from .oracle import DEFAULT_PIECE_CAP, ImageData, oracle_check
from .poly import (
    ORDER_KINDS,
    CapExceeded,
    GuardExceeded,
    Mono,
    MonomialOrder,
    SpecError,
    leading,
    mono_text,
)
from .rees import (
    FAMILIES,
    FULL,
    RESTRICTED,
    SINGLE,
    build_presentation,
    defining_generators,
    normality_report,
    spec_from_json,
    spec_to_dict,
)
from .sseq import syzygy_generators, taylor_complex

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SPEC = 2
EXIT_CAP = 3


def _read_spec(path):
    """The spec at ``path``, or on stdin for ``-``, read as bytes and
    decoded once, strictly, as UTF-8."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        # newlines as a file read in text mode has them
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError("cannot read spec file: %s" % exc)
    return spec_from_json(text)


def _gen_monos(g, names):
    """``mono_text`` of the binomial's plus and minus monomials (neither
    is 1), from the variable names in id order."""
    return ["*".join([names[v] if e == 1 else "%s^%d" % (names[v], e) for v, e in m.exps]) for m in (g.binomial.plus, g.binomial.minus)]


def _emit_json(payload):
    """Write ``json.dumps(payload, indent=2)`` and a newline to stdout in
    one chunk.  The payload is complete before it is rendered, so an error
    in emission, a cap or a guard leaves stdout empty."""
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


# --- generators ------------------------------------------------------------

_quote = json.encoder.encode_basestring_ascii

# One record of the ``generators`` array, at that array's depth.  Its
# terms are those of ``g.poly``, read off the binomial: ``Binomial`` keeps
# the smaller exponents on ``plus``, the term ``Poly`` sorts first.  Each
# monomial is a product of matrix entries, so never 1 (never ``{}``), and
# each cycle has a block column, so ``blocks`` is never ``[]``.
_RECORD = """{
      "index": %d,
      "kind": %s,
      "blocks": [%s
      ],
      "columns_used": %d,
      "label": %s,
      "text": %s,
      "terms": [
        [
          "1",
          {%s
          }
        ],
        [
          "-1",
          {%s
          }
        ]
      ]
    }"""


def _records(gens, u):
    """The ``generators`` records, each rendered from ``_RECORD`` when it
    is reached: the bytes ``json.dumps(record, indent=2)`` gives there."""
    names = u.names
    keys = ["\n            %s: " % _quote(name) for name in names]
    pairs = {}  # (variable, exponent) -> its key and value in a term
    for i, g in enumerate(gens, 1):
        b = g.binomial
        yield _RECORD % (
            i,
            _quote(g.kind),
            ",".join(["\n        %d" % k for k in g.blocks]),
            g.size,
            _quote(g.label),
            _quote(" - ".join(_gen_monos(g, names))),
            ",".join([pairs.get(p) or pairs.setdefault(p, keys[p[0]] + "%d" % p[1]) for p in b.plus.exps]),
            ",".join([pairs.get(p) or pairs.setdefault(p, keys[p[0]] + "%d" % p[1]) for p in b.minus.exps]),
        )


# a CAS identifier drops each "]" of a name and writes "_" for "[", ";" and ","
_CAS = str.maketrans("[;,", "___", "]")


def cmd_generators(args):
    spec = _read_spec(args.spec)
    pres = build_presentation(spec)
    gens = defining_generators(pres, args.family, args.max_minor_size)
    u = pres.universe
    notes = spec.lint()
    if args.format == "json":
        payload = {
            "command": "generators",
            "spec": spec_to_dict(spec),
            "family": args.family,
            "count": len(gens),
            "notes": notes,
            "matrix": {
                "rows": [u.name(v) for v in u.s_ids],
                "columns": pres.col_labels,
                "entries": [
                    {"row": r + 1, "col": c, "name": u.name(v)}
                    for (r, c), v in sorted(pres.matrix.entries.items())
                ],
            },
            "generators": [],
        }
        if not gens:
            _emit_json(payload)
            return EXIT_OK
        # "generators" is the last key, so the document ends with "[]\n}":
        # write it through the "[", then each record when it is reached
        write = sys.stdout.write
        write(json.dumps(payload, indent=2)[:-3])
        sep = "\n    "
        for record in _records(gens, u):
            write(sep + record)
            sep = ",\n    "
        write("\n  ]\n}\n")
        return EXIT_OK
    if args.format == "cas":
        names = [name.translate(_CAS) for name in u.names]
        ring = {}  # the ring's CAS names, in order; the first bad one is named before any output
        for v in u.s_ids + u.x_ids + u.T_ids:
            if not (names[v].isascii() and names[v].isidentifier()) or names[v] in ring:
                raise SpecError(
                    "variable %s has the CAS name %s, which is not a distinct ASCII identifier"
                    % (json.dumps(u.name(v)), json.dumps(names[v]))
                )
            ring[names[v]] = v
        print("-- presentation ring and candidate defining ideal (family=%s)" % args.family)
        print("R = %s[%s]" % (u.domain, ", ".join(ring)))
        # minus, the larger monomial, first: the term order of ``Poly.render``
        body = ",\n  ".join(["-{1} + {0}".format(*_gen_monos(g, names)) for g in gens])
        print("I = ideal(\n  %s\n)" % body if gens else "I = ideal(0_R)")
        return EXIT_OK
    if args.show_matrix:
        print(pres.pretty_matrix())
        print()
    if args.show_phi:
        for vid in u.T_ids:
            print("phi(%s) = %s" % (u.name(vid), pres.phi_images()[vid].render()))
        print()
    for i, g in enumerate(gens):
        print("g%-3d [%-16s blocks %s]  %s" % (i + 1, g.kind + ";", ",".join(map(str, g.blocks)), " - ".join(_gen_monos(g, u.names))))
    print("%d generators (family=%s)" % (len(gens), args.family))
    for note in notes:
        print("note: %s" % note)
    return EXIT_OK


# --- check results ----------------------------------------------------------
#
# One renderer per check result: for ``--format json`` it returns the
# result's JSON record, otherwise its text lines, both from the same fields.


def _report(rep, fmt):
    """A Buchberger report: the head, then each stuck pair or member with
    its remainder, of which the text shows the leading term."""
    stuck = [(res, res.cert.remainder) for res in rep.failures]
    if fmt == "json":
        return {
            "order": rep.order.describe(),
            "ok": rep.ok,
            "pairs": len(rep.pairs),
            "basis": len(rep.basis),
            "product_criterion": rep.product_criterion,
            "stuck": [
                dict(
                    {"member": res.k + 1} if isinstance(res, MemberResult) else {"i": res.i + 1, "j": res.j + 1},
                    remainder=rem.render(),
                )
                for res, rem in stuck
            ],
        }
    lines = [
        "groebner check under %s: %s (%d generators, %d in the basis, %d pairs, %d by the product criterion, %d stuck)"
        % (
            rep.order.describe(),
            "CERTIFIED" if rep.ok else "INCONCLUSIVE",
            len(rep.generators),
            len(rep.basis),
            len(rep.pairs),
            rep.product_criterion,
            len(stuck),
        )
    ]
    for res, rem in stuck:
        lc, lm = leading(rem, rep.order)
        lines.append(
            "  stuck %s: remainder leading term (%s) * %s" % (res.label, lc.render(), mono_text(lm, rep.order.universe))
        )
    return lines


def _groebner(gens, order, fmt):
    """(verdict, rendered report) of ``buchberger_check``: the report is
    dropped before the next check runs."""
    rep = buchberger_check(gens, order)
    return rep.ok, _report(rep, fmt)


def _piece(r, fmt):
    """One graded piece of the kernel oracle (the text names a witness in
    ``_oracle_text``)."""
    if fmt == "json":
        return {
            "t_degrees": list(r.tvec),
            "ambient_degree": r.weight,
            "piece_size": r.piece_size,
            "kernel_dim": r.kernel_dim,
            "span_dim": r.span_dim,
            "ok": r.ok,
            "witness": r.witness.render() if r.witness is not None else None,
        }
    return "degrees t=%s ambient=%d: piece %d, kernel dim %d, family span %d [%s]" % (
        r.tvec,
        r.weight,
        r.piece_size,
        r.kernel_dim,
        r.span_dim,
        "ok" if r.ok else "MISSED",
    )


def _oracle_text(rep, pieces):
    """The oracle head, a line per piece of ``pieces``, then the witness of
    each missed piece."""
    verdict = "ok" if rep.ok else "%d MISSED" % len(rep.failures)
    return (
        ["kernel oracle over %d graded pieces: %s" % (len(rep.reports), verdict)]
        + ["  " + _piece(r, "text") for r in pieces]
        + ["witness (maps to zero, outside the family span): %s" % r.witness.render() for r in rep.failures]
    )


def _normality(rep, fmt):
    """The squarefreeness report; the symbol-level leads, computed when
    read, show only in the text."""
    if fmt == "json":
        return {"verdict": rep.verdict, "structural_ok": rep.structural_ok, "hypothesis_ok": rep.hypothesis_ok}
    lines = [
        "verdict: %s" % rep.verdict,
        "structural squarefreeness (distinct columns per term, sequence part squarefree): %s"
        % ("pass" if rep.structural_ok else "FAIL"),
    ]
    for desc, ok in rep.symbol_results.items():
        lines.append("symbol-level squarefree leading terms under %s: %s" % (desc, "pass" if ok else "no"))
    lines.append("regularity hypothesis attested: %s" % ("yes" if rep.hypothesis_ok else "no"))
    return lines + ["note: %s" % note for note in rep.notes]


# --- groebner --------------------------------------------------------------


def cmd_groebner(args):
    spec = _read_spec(args.spec)
    pres = build_presentation(spec)
    gens = defining_generators(pres, args.family, args.max_minor_size)
    fmt = args.format
    if not gens:
        if fmt == "json":
            _emit_json({"command": "groebner", "ok": True, "generators": 0})
        else:
            print("no relations; nothing to certify")
        return EXIT_OK
    if args.universal:
        orders = default_order_suite(pres.universe, seeds=tuple(args.seed + i for i in (1, 2, 3, 4)))
    else:
        orders = [MonomialOrder(pres.universe, args.order)]
    results = [_groebner(gens, order, fmt) for order in orders]
    ok = all(verdict for verdict, _ in results)
    if fmt == "json":
        payload = {"command": "groebner", "universal": args.universal}
        if args.universal:
            payload["seed"] = args.seed
        _emit_json(dict(payload, ok=ok, orders=[out for _, out in results]))
    elif args.universal:
        print("seed: %d" % args.seed)
        print("universal groebner check over %d orders: %s" % (len(orders), "CERTIFIED" if ok else "INCONCLUSIVE"))
        print("\n".join("  " + line for _, out in results for line in out))
    else:
        print("\n".join(results[0][1]))
    return EXIT_OK if ok else EXIT_FAIL


# --- oracle ----------------------------------------------------------------


def _oracle(pres, gens, args):
    rep = oracle_check(pres, gens, t_cap=args.t_degree_cap, ambient_cap=args.s_degree_cap, cap=args.piece_cap)
    if not rep.reports:
        raise SpecError("the degree caps leave no graded piece to check")
    return rep


def cmd_oracle(args):
    spec = _read_spec(args.spec)
    pres = build_presentation(spec)
    gens = defining_generators(pres, args.family, args.max_minor_size)
    dropped = sorted(set(args.drop_generator or ()))
    missing = [i for i in dropped if not 1 <= i <= len(gens)]
    if missing:
        raise SpecError("no generator with index %s" % ", ".join(map(str, missing)))
    gens = [g for i, g in enumerate(gens, start=1) if i not in dropped]
    rep = _oracle(pres, gens, args)
    if args.format == "json":
        payload = {
            "command": "oracle",
            "family": args.family,
            "dropped": dropped,
            "ok": rep.ok,
            "pieces": [_piece(r, "json") for r in rep.reports],
        }
        _emit_json(payload)
    else:
        if dropped:
            print("dropped generators: %s" % ", ".join("g%d" % i for i in dropped))
        print("\n".join(_oracle_text(rep, rep.reports)))
    return EXIT_OK if rep.ok else EXIT_FAIL


# --- verify ----------------------------------------------------------------


def cmd_verify(args):
    """Three-way check: S-pair certification of the full binary family F
    (the restricted family generates the same ideal but is not itself a
    basis), the kernel oracle on the requested family, and the
    squarefreeness report.  Each report becomes what verify prints of it
    before the next check runs; nothing is written before the last one.

    F is certified through F1, its single-cycle members, which
    ``defining_generators(pres, SINGLE)`` emits from the cycle walks that
    the presentation matrix keeps (``QuasiMatrix.cycle_walks``), the one
    search that the requested family reads too; the docstring of
    ``buchberger_check`` shows why F is a Groebner basis exactly when F1
    is."""
    fmt = args.format
    spec = _read_spec(args.spec)
    pres = build_presentation(spec)
    gens = defining_generators(pres, args.family, args.max_minor_size)
    single = defining_generators(pres, SINGLE, args.max_minor_size)
    rep = _oracle(pres, gens, args)
    oracle_ok = rep.ok
    if fmt == "json":
        oracle = {"ok": rep.ok, "pieces": len(rep.reports), "failures": [_piece(r, fmt) for r in rep.failures]}
    else:
        oracle = _oracle_text(rep, rep.failures)
    del rep  # the Groebner checks run without the oracle's pieces
    orders = [MonomialOrder(pres.universe, kind) for kind in ("lex", "grevlex")] if single else []
    results = [_groebner(single, order, fmt) for order in orders]
    normality = _normality(normality_report(pres, gens), fmt)
    ok = oracle_ok and all(verdict for verdict, _ in results)
    if fmt == "json":
        _emit_json(
            {
                "command": "verify",
                "family": args.family,
                "generators": len(gens),
                "groebner": {"family": FULL, "reports": [out for _, out in results]},
                "oracle": oracle,
                "normality": normality,
                "ok": ok,
            }
        )
    else:
        lines = [
            "generators: %d (family=%s)" % (len(gens), args.family),
            "groebner certification of the full binary family runs on its single-cycle members F1 (%d members)"
            % len(single),
        ]
        lines += [line for _, out in results for line in out] + oracle + normality
        print("\n".join(lines + ["overall: %s" % ("PASS" if ok else "FAIL")]))
    return EXIT_OK if ok else EXIT_FAIL


# --- taylor ----------------------------------------------------------------


def _block_monomials(pres):
    """Per block, the value of each of its variables as a monomial over
    the ambient symbols: the sequence in generic mode, the ambient
    variables in concrete mode."""
    seq = pres.spec.seq
    if seq.mode == "concrete" and seq.concrete_monomial_values() is None:
        raise SpecError("the complex report needs monomial sequence values in concrete mode")
    data = ImageData(pres)
    ambient = set(data.ambient_ids)
    return [
        [Mono((v, e) for v, e in data.table[vid][1] if v in ambient) for vid in bd.vids.values()]
        for bd in pres.blocks
    ]


def cmd_taylor(args):
    spec = _read_spec(args.spec)
    pres = build_presentation(spec)
    rows = []
    all_ok = True
    for bd, monos in zip(pres.blocks, _block_monomials(pres)):
        tc = taylor_complex(monos)
        ok = tc.verify()
        all_ok = all_ok and ok
        rows.append(
            {
                "block": bd.index,
                "generators": tc.m,
                "ranks": [tc.rank(p) for p in range(tc.m + 1)],
                "square_zero": ok,
                "pairwise_syzygies": len(syzygy_generators(monos)),
            }
        )
    if args.format == "json":
        _emit_json({"command": "taylor", "ok": all_ok, "blocks": rows})
    else:
        for row in rows:
            print(
                "block %d: %d generators, ranks %s, d.d=0 %s, pairwise syzygies %d"
                % (
                    row["block"],
                    row["generators"],
                    " ".join(map(str, row["ranks"])),
                    "ok" if row["square_zero"] else "FAIL",
                    row["pairwise_syzygies"],
                )
            )
    return EXIT_OK if all_ok else EXIT_FAIL


# --- parser ----------------------------------------------------------------


def _int_at_least(low):
    """argparse type: an integer no smaller than ``low`` (else exit 2)."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    return integer


def _add_cap_args(p):
    p.add_argument("--t-degree-cap", type=_int_at_least(1), default=None)
    p.add_argument("--s-degree-cap", type=_int_at_least(0), default=None)
    p.add_argument("--piece-cap", type=_int_at_least(1), default=DEFAULT_PIECE_CAP)


def _add_spec_arg(p, formats=("text", "json")):
    p.add_argument("spec", help="path to a spec JSON file, or - for stdin")
    p.add_argument("--format", choices=formats, default="text")


def _add_family_args(p, default=RESTRICTED):
    p.add_argument("--family", choices=FAMILIES, default=default)
    p.add_argument(
        "--max-minor-size",
        type=_int_at_least(2),
        default=None,
        metavar="M",
        help="largest matrix dimension consumed by one binary quasi-minor",
    )


@functools.cache
def build_parser():
    """Built once per process; ``parse_args`` leaves the tree unchanged."""
    ap = argparse.ArgumentParser(
        prog="multirees",
        description="Defining equations of multi-Rees algebras over a permutable weak regular sequence.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generators", help="emit the candidate generating family")
    _add_spec_arg(p, ("text", "json", "cas"))
    _add_family_args(p)
    p.add_argument("--show-matrix", action="store_true", help="print the augmented presentation matrix")
    p.add_argument("--show-phi", action="store_true", help="print the value of every presentation variable")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("groebner", help="certify the family via S-pair reduction")
    _add_spec_arg(p)
    _add_family_args(p, default=FULL)
    p.add_argument("--order", choices=ORDER_KINDS, default="lex")
    p.add_argument("--universal", action="store_true", help="run a spread of orders and precedences")
    p.add_argument("--seed", type=int, default=0, help="seed for the shuffled precedences")
    p.set_defaults(func=cmd_groebner)

    p = sub.add_parser("oracle", help="independent degree-bounded kernel comparison")
    _add_spec_arg(p)
    _add_family_args(p)
    _add_cap_args(p)
    p.add_argument(
        "--drop-generator",
        type=int,
        action="append",
        metavar="N",
        help="omit generator N (repeatable); used to demonstrate detection",
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run the groebner, oracle, and normality checks")
    _add_spec_arg(p)
    _add_family_args(p)
    _add_cap_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("taylor", help="per-block monomial complex report")
    _add_spec_arg(p)
    p.set_defaults(func=cmd_taylor)

    return ap


def main(argv=None):
    # Free the cyclic garbage left in the young generations since the last
    # in-process call (modules a caller dropped, json's encoder closures)
    # before the command allocates.  Left there, whichever automatic collection runs
    # next would move part of it into the oldest generation, where it stays
    # until a full collection: how much depends on where the thresholds
    # fall among the caller's allocations, and the peak memory with it.
    gc.collect(1)
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # as the Python docs advise for SIGPIPE: keep the interpreter's
        # final flush from failing on the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except SpecError as exc:
        print("spec error: %s" % exc, file=sys.stderr)
        return EXIT_SPEC
    except (CapExceeded, GuardExceeded) as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
