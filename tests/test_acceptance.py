"""Acceptance gate.

Ten criteria, each printing a single pass/fail line (collected again in
the terminal summary).  The desk-scale sweep — every generic spec with at
most three sequence elements, two blocks, and block powers up to two —
is computed once and shared by the kernel-equality, squarefreeness, and
family-equivalence criteria.
"""
import time
from itertools import combinations, product
from math import comb
from random import Random

import pytest

from conftest import desk_scale_specs, record_criterion
from helpers import (
    expand_combination,
    generic_matrix,
    ibin_generators,
    rewrite_as_two_minors,
    syzygy_span_compare,
    union_cells,
    union_rows_cols,
)
from multirees.grobner import default_order_suite, universal_gb_check
from multirees.oracle import oracle_check
from multirees.poly import MonomialOrder, leading, mono_text
from multirees.quasimat import binary_subquasi_enumerate, quasi_determinants
from multirees.rees import (
    FULL,
    RESTRICTED,
    ReesSpec,
    build_presentation,
    defining_generators,
    normality_report,
)
from multirees.sseq import SeqSpec, SMonomial, syzygy_generators, taylor_complex

PAPER_MATRIX = (
    "    s   [1;000]   [2;000]   [3;000]   [4;000]   [5;000]\n"
    "p1  p1  T[1;111]  T[2;111]  .         T[4;111]  .\n"
    "p2  p2  T[1;110]  .         T[3;110]  .         T[5;110]\n"
    "x   x   .         T[2;100]  T[3;100]  .         .\n"
    "y   y   .         .         .         T[4;000]  T[5;000]"
)

PAPER_GENERATORS = {
    "p1*T[1;110] - p2*T[1;111]",
    "p1*T[2;100] - x*T[2;111]",
    "p2*T[3;100] - x*T[3;110]",
    "p1*T[4;000] - y*T[4;111]",
    "p2*T[5;000] - y*T[5;110]",
    "T[1;111]*T[2;100]*T[3;110] - T[1;110]*T[2;111]*T[3;100]",
    "T[1;111]*T[4;000]*T[5;110] - T[1;110]*T[4;111]*T[5;000]",
    "T[2;111]*T[3;100]*T[4;000]*T[5;110] - T[2;100]*T[3;110]*T[4;111]*T[5;000]",
}

INTRO_SPEC = ReesSpec(
    seq=SeqSpec(
        n=6,
        mode="concrete",
        x_names=("x", "y", "z"),
        concrete_terms=(
            ((2, {}),),
            ((3, {}),),
            ((5, {}),),
            ((1, {"x": 1}),),
            ((1, {"y": 1}),),
            ((1, {"z": 1}),),
        ),
    ),
    blocks=(((1, 4, 5), 1), ((2, 4, 6), 1), ((3, 5, 6), 1)),
)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@pytest.fixture(scope="module")
def desk_sweep():
    """Shared sweep over the desk-scale suite.

    For every spec: span reports for both families in every multidegree
    with total T-degree <= 3 and ambient degree <= 8, squarefreeness of
    every leading monomial under lex and grevlex, and the structural
    verdict."""
    specs = desk_scale_specs()
    assert len(specs) == 258
    results = []
    t0 = time.time()
    for spec in specs:
        pres = build_presentation(spec)
        u = pres.universe
        restricted = defining_generators(pres, RESTRICTED)
        full = defining_generators(pres, FULL)
        degrees = [
            (tvec, weight)
            for total in range(1, 4)
            for tvec in _compositions(total, spec.r)
            for weight in range(0, 9)
        ]
        pieces = list(
            zip(
                oracle_check(pres, restricted, degrees=degrees).reports,
                oracle_check(pres, full, degrees=degrees).reports,
            )
        )
        squarefree = True
        initial_cover = True
        for kind in ("lex", "grevlex"):
            order = MonomialOrder(u, kind)
            r_leads = [leading(g.poly, order)[1] for g in restricted]
            squarefree = squarefree and all(lm.is_squarefree() for lm in r_leads)
            f_leads = [leading(g.poly, order)[1] for g in full]
            sq = [lm for lm in f_leads if lm.is_squarefree()]
            initial_cover = initial_cover and all(
                any(s.divides(lm) for s in sq) for lm in f_leads
            )
        verdict = normality_report(pres, restricted).verdict
        results.append(
            {
                "spec": spec,
                "pieces": pieces,
                "squarefree": squarefree,
                "initial_cover": initial_cover,
                "verdict": verdict,
                "generators": len(full),
            }
        )
    return {"results": results, "elapsed": time.time() - t0}


def test_criterion_01_worked_example_reproduction():
    t0 = time.time()
    spec = ReesSpec(
        seq=SeqSpec(n=4, names=("p1", "p2", "x", "y")),
        blocks=(((1, 2), 1), ((1, 3), 1), ((2, 3), 1), ((1, 4), 1), ((2, 4), 1)),
    )
    pres = build_presentation(spec)
    layout_ok = pres.pretty_matrix() == PAPER_MATRIX
    u = pres.universe
    texts = {
        "%s - %s" % (mono_text(g.binomial.plus, u), mono_text(g.binomial.minus, u))
        for g in defining_generators(pres, RESTRICTED)
    }
    gens_ok = texts == PAPER_GENERATORS
    elapsed = time.time() - t0
    ok = layout_ok and gens_ok and elapsed < 1.0
    assert record_criterion(
        1,
        "worked five-ideal example reproduced exactly",
        ok,
        "layout %s, 8 generators %s, %.2fs" % (layout_ok, gens_ok, elapsed),
    )


def test_criterion_02_map_kills_every_generator():
    t0 = time.time()
    rng = Random(20260814)
    specs = []
    while len(specs) < 25:
        n = rng.randint(1, 4)
        r = rng.randint(1, 3)
        blocks = []
        for _ in range(r):
            size = rng.randint(1, n)
            rows = tuple(sorted(rng.sample(range(1, n + 1), size)))
            blocks.append((rows, rng.randint(1, 2)))
        specs.append(ReesSpec(seq=SeqSpec(n=n), blocks=tuple(blocks)))
    specs.append(INTRO_SPEC)
    checked = 0
    all_zero = True
    for spec in specs:
        pres = build_presentation(spec)
        for family in (RESTRICTED, FULL):
            for g in defining_generators(pres, family):
                all_zero = all_zero and pres.phi(g.poly).is_zero()
                checked += 1
    elapsed = time.time() - t0
    ok = all_zero and elapsed < 30.0
    assert record_criterion(
        2,
        "presentation map kills every emitted generator",
        ok,
        "26 specs, %d generators, %.1fs" % (checked, elapsed),
    )


def test_criterion_03_kernel_equality_desk_scale(desk_sweep):
    results = desk_sweep["results"]
    pieces = sum(len(row["pieces"]) for row in results)
    misses = [
        (row["spec"], rep_r.tvec, rep_r.weight)
        for row in results
        for rep_r, _ in row["pieces"]
        if not rep_r.ok
    ]
    elapsed = desk_sweep["elapsed"]
    ok = not misses and elapsed < 300.0
    assert record_criterion(
        3,
        "family span equals the kernel in every bounded multidegree",
        ok,
        "258 specs, %d pieces, %d missed, %.1fs" % (pieces, len(misses), elapsed),
    )


def test_criterion_04_universal_groebner_generic_matrices():
    t0 = time.time()
    orders_run = 0
    all_ok = True
    for n_rows in (1, 2, 3):
        for n_cols in (1, 2, 3, 4):
            qm, u = generic_matrix(n_rows, n_cols, with_s_column=True)
            gens = [b.to_poly(u) for b in ibin_generators(qm)]
            if not gens:
                continue
            orders = default_order_suite(u, seeds=(1, 2, 3, 4, 5))
            rep = universal_gb_check(gens, orders)
            orders_run += len(rep.reports)
            all_ok = all_ok and rep.ok
    elapsed = time.time() - t0
    ok = all_ok and elapsed < 120.0
    assert record_criterion(
        4,
        "binary family is a universal basis for generic matrices",
        ok,
        "shapes to 3x4, %d order runs, %.1fs" % (orders_run, elapsed),
    )


def test_criterion_05_counting_identities():
    # a block on all n rows at power a: one variable per degree-a monomial
    # in n symbols, one column per degree-(a-1) monomial
    ok = True
    for n in range(1, 7):
        for a in range(1, 6):
            pres = build_presentation(ReesSpec(seq=SeqSpec(n=n), blocks=((tuple(range(1, n + 1)), a),)))
            ok = ok and len(pres.universe.T_ids) == comb(a + n - 1, n - 1)
            ok = ok and pres.matrix.n_cols - 1 == comb(a + n - 2, n - 1)
    assert record_criterion(
        5, "ring-variable and column counts match closed forms", ok, "n to 6, powers to 5"
    )


def brute_matching_pairs(qm, cells):
    """Unordered pairs of disjoint matchings partitioning ``cells``, as
    sign-normalized binomial keys — independent of the cycle walk."""
    cells = sorted(cells)
    rows = sorted({r for r, _ in cells})
    cols = sorted({c for _, c in cells})
    half = len(cells) // 2
    found = set()

    def is_matching(m):
        return (
            sorted({r for r, _ in m}) == rows
            and sorted({c for _, c in m}) == cols
            and len({r for r, _ in m}) == len(m)
            and len({c for _, c in m}) == len(m)
        )

    for m1 in combinations(cells, half):
        m2 = tuple(c for c in cells if c not in m1)
        if is_matching(m1) and is_matching(m2):
            found.add(frozenset((frozenset(m1), frozenset(m2))))
    return found


def test_criterion_06_quasi_minor_combinatorics():
    qm3, _ = generic_matrix(3, 3)
    spanning = [u for u in binary_subquasi_enumerate(qm3) if sum(map(len, union_rows_cols(u))) == 6]
    six_ok = len(spanning) == 6

    pattern = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
    qm4, u4 = generic_matrix(4, 4, pattern=pattern)
    unions = [u for u in binary_subquasi_enumerate(qm4) if len(u) == 2]
    two_block_ok = len(unions) == 1
    if two_block_ok:
        a, b, c, d, e, f, g, h = (
            u4.poly_var(n) for n in ("a11", "a12", "a21", "a22", "a33", "a34", "a43", "a44")
        )
        expected = {a * d * e * h - b * c * g * f, a * d * g * f - b * c * e * h}
        got = {bino.to_poly(u4) for bino in quasi_determinants(qm4, unions[0])}
        two_block_ok = all(any(p in (q, -q) for q in expected) for p in got) and len(got) == 2

    count_ok = True
    for shape in [(2, 2), (3, 3), (4, 4), (2, 4), (3, 4)]:
        qm, _ = generic_matrix(*shape)
        for union in binary_subquasi_enumerate(qm, max_size=8):
            dets = {b.key() for b in quasi_determinants(qm, union)}
            brute = brute_matching_pairs(qm, union_cells(union))
            count_ok = count_ok and len(dets) == 2 ** (len(union) - 1)
            count_ok = count_ok and len(brute) == len(dets)

    ok = six_ok and two_block_ok and count_ok
    assert record_criterion(
        6,
        "quasi-minor combinatorics (spanning count, two-block pair, cycle counts)",
        ok,
        "3x3 spanning %s, 4x4 union %s, counts %s" % (six_ok, two_block_ok, count_ok),
    )


def test_criterion_07_rewrite_certificates():
    rng = Random(7777)
    shapes = [(r, c) for r in range(2, 5) for c in range(2, 5)]
    pool = []
    for shape in shapes:
        qm, u = generic_matrix(*shape)
        for delta in ibin_generators(qm):
            pool.append((delta, qm, u))
    sample = rng.sample(pool, 50)
    ok = True
    for delta, qm, u in sample:
        pairs = rewrite_as_two_minors(delta, qm, u)
        ok = ok and expand_combination(pairs, u) == delta.to_poly(u)
    assert record_criterion(
        7, "binary quasi-minors expand exactly into two-by-two minors", ok, "50 random minors"
    )


def test_criterion_08_complex_and_syzygy_suite():
    rng = Random(314159)
    square_ok = True
    for _ in range(100):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        monos = [SMonomial(tuple(rng.randint(0, 3) for _ in range(n))) for _ in range(m)]
        square_ok = square_ok and taylor_complex(monos).verify()

    span_ok = True
    lists = 0
    for _ in range(15):
        n = rng.randint(1, 3)
        m = rng.randint(2, 4)
        monos = [SMonomial(tuple(rng.randint(0, 2) for _ in range(n))) for _ in range(m)]
        reports = syzygy_span_compare(monos, 8)
        span_ok = span_ok and all(r.ok for r in reports)
        lists += 1

    ok = square_ok and span_ok
    assert record_criterion(
        8,
        "differential squares to zero and pairwise syzygies span each degree",
        ok,
        "100 complexes, %d kernel sweeps to degree 8" % lists,
    )


def test_criterion_09_squarefree_leads_and_verdict(desk_sweep):
    # emitted generators must have squarefree leads outright; the larger
    # certification family may carry redundant members whose leads are
    # then divisible by squarefree ones, so the initial ideal itself is
    # still generated by squarefree monomials
    results = desk_sweep["results"]
    bad_leads = [row["spec"] for row in results if not row["squarefree"]]
    bad_cover = [row["spec"] for row in results if not row["initial_cover"]]
    bad_verdicts = [row["spec"] for row in results if row["verdict"] != "NORMAL_CM"]
    ok = not bad_leads and not bad_cover and not bad_verdicts
    assert record_criterion(
        9,
        "squarefree leads under lex and grevlex; verdict NORMAL_CM",
        ok,
        "258 specs, %d bad leads, %d initial-ideal gaps, %d other verdicts"
        % (len(bad_leads), len(bad_cover), len(bad_verdicts)),
    )


def test_criterion_10_families_span_identically(desk_sweep):
    results = desk_sweep["results"]
    mismatches = [
        (row["spec"], rep_r.tvec, rep_r.weight)
        for row in results
        for rep_r, rep_f in row["pieces"]
        if rep_r.span_dim != rep_f.span_dim
    ]
    pieces = sum(len(row["pieces"]) for row in results)
    ok = not mismatches
    assert record_criterion(
        10,
        "restricted and full families span the same spaces",
        ok,
        "%d pieces compared, %d mismatches" % (pieces, len(mismatches)),
    )
