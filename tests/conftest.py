"""Shared pytest hooks.

The acceptance tests record one verdict line per criterion; the terminal
summary prints them after the run so the pass/fail ledger is visible even
though stdout inside tests is captured.  ``desk_scale_specs`` is the
spec suite that the acceptance sweep and the Groebner differential
share; ``emission_specs`` adds two wider ones for the emission tests,
and ``gb_heavy_specs`` are the shapes of the benchmark's workload with
the largest S-pair checks and oracle pieces.
"""
from itertools import combinations

from multirees.rees import ReesSpec
from multirees.sseq import SeqSpec

ACCEPTANCE_LINES = []


def desk_scale_specs():
    """Every generic spec with n <= 3, r <= 2, block powers <= 2: each
    single block, then each ordered pair of blocks (block order and
    repeated blocks are meaningful — they name distinct algebras)."""
    out = []
    for n in (1, 2, 3):
        opts = [
            (tuple(rows), a)
            for size in range(1, n + 1)
            for rows in combinations(range(1, n + 1), size)
            for a in (1, 2)
        ]
        for opt in opts:
            out.append(ReesSpec(seq=SeqSpec(n=n), blocks=(opt,)))
        for o1 in opts:
            for o2 in opts:
                out.append(ReesSpec(seq=SeqSpec(n=n), blocks=(o1, o2)))
    return out


def emission_specs():
    """The desk-scale specs, the paper's five-ideal example, and n = 5
    with every two-row block (longer cycles, and unions of two)."""
    paper = ReesSpec(
        seq=SeqSpec(n=4, names=("p1", "p2", "x", "y")),
        blocks=(((1, 2), 1), ((1, 3), 1), ((2, 3), 1), ((1, 4), 1), ((2, 4), 1)),
    )
    wide = ReesSpec(seq=SeqSpec(n=5), blocks=tuple((rows, 1) for rows in combinations(range(1, 6), 2)))
    return desk_scale_specs() + [paper, wide]


def gb_heavy_specs():
    """The four spec shapes of the benchmark's gb_heavy workload: a
    power-two block on all three rows of n = 3, then each row pair at
    power one, or one row at power two.  Despite the name, the kernel
    oracle takes a larger share of their time than Buchberger's check."""
    heavy = ((1, 2, 3), 2)
    others = [(rows, 1) for rows in combinations((1, 2, 3), 2)] + [((2,), 2)]
    return [ReesSpec(seq=SeqSpec(n=3), blocks=(heavy, other)) for other in others]


def record_criterion(number, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = "[criterion %02d] %s: %s" % (number, label, verdict)
    if detail:
        line += " (%s)" % detail
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
