"""Seeded workloads: the spec documents, the requests made on them and the
outcome each request must have.

Every workload is a fixed multiset of spec *shapes*; the seed picks the
members, their relabelling and their order.  Costs differ a lot between
shapes but little between relabellings, so sampling per shape keeps the
cost profile of a run nearly the same for every seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import combinations, permutations, product

VERIFY = "verify"
CONTROL = "control"
EMIT = "emit"

NORMAL_CM = "NORMAL_CM"
INDETERMINATE = "INDETERMINATE"

AMBIENT = ("x", "y", "z", "u", "v", "w")
PRIMES = (2, 3, 5, 7)


@dataclass(frozen=True)
class Request:
    """One closed-loop request: the spec, the command(s) and the outcome."""

    rid: str
    kind: str
    spec: dict
    expect: str = ""
    drop: int = 0
    controls: bool = False  # also run the negative controls on this spec

    def argvs(self, path):
        if self.kind == VERIFY:
            return [["verify", path, "--format", "json"]]
        if self.kind == CONTROL:
            return [["oracle", path, "--format", "json", "--drop-generator", str(self.drop)]]
        return [
            ["generators", path, "--format", "json"],
            ["generators", path, "--format", "json", "--family", "full"],
        ]


def _generic(n, blocks):
    return {
        "sequence": {"mode": "generic", "n": n},
        "blocks": [{"rows": list(rows), "power": a} for rows, a in blocks],
    }


def _concrete(n, blocks, rng, attested):
    """Monomial values over ambient variables.  Attested: monic, squarefree
    and with disjoint supports (one value is a product of two variables).
    Unattested: one value is a prime constant instead."""
    names = list(AMBIENT)
    rng.shuffle(names)
    special = rng.randrange(n)
    values = []
    for i in range(n):
        if i != special:
            values.append([[1, {names.pop(): 1}]])
        elif attested:
            values.append([[1, {names.pop(): 1, names.pop(): 1}]])
        else:
            values.append([[rng.choice(PRIMES), {}]])
    used = sorted(x for val in values for x in val[0][1])
    spec = _generic(n, blocks)
    spec["sequence"] = {"mode": "concrete", "n": n, "ambient": used, "values": values}
    return spec


# --- desk_verify -------------------------------------------------------------

# Of each relabelling orbit (size 1, 2, 3 or 6), the generic members run
# are a third rounded up and the concrete ones a sixth rounded down, except
# for the tail orbits, which run whole and generic only: 172 generic and 45
# concrete specs.
GENERIC_SHARE = 3
CONCRETE_SHARE = 6
CONTROL_SPECS = {2: 3, 3: 3}  # block-1 row count -> control specs drawn


def _heavy(n, blocks):
    """Three blocks, two or more of them on all three rows: 0.2 to 1.8 s
    each, almost all Buchberger; that tail is gb_heavy's."""
    return len(blocks) == 3 and sum(1 for rows, _ in blocks if len(rows) == n == 3) >= 2


def _tail(blocks):
    """Three blocks, one on all three rows and two on two rows each: 0.1 to
    0.2 s each, the slowest tenth of the workload.  Running these whole
    keeps the 90th percentile among them for every seed."""
    return sorted(len(rows) for rows, _ in blocks) == [2, 2, 3]


def _orbit_key(n, blocks):
    return min(
        tuple((tuple(sorted(perm[k - 1] for k in rows)), a) for rows, a in blocks)
        for perm in permutations(range(1, n + 1))
    )


def desk_orbits():
    """The generic desk class (n in {2, 3}, at most three blocks, all of
    power 1 or a single block of power at most 2) without the heavy
    shapes, grouped into orbits under relabelling of the sequence."""
    orbits = {}
    for n in (2, 3):
        subsets = [c for k in range(1, n + 1) for c in combinations(range(1, n + 1), k)]
        shapes = [((rows, a),) for rows in subsets for a in (1, 2)]
        shapes += [tuple((rows, 1) for rows in combo) for r in (2, 3) for combo in product(subsets, repeat=r)]
        for blocks in shapes:
            if not _heavy(n, blocks):
                orbits.setdefault((n, _orbit_key(n, blocks)), []).append((n, blocks))
    return [orbits[k] for k in sorted(orbits)]


def desk_verify(rng):
    generic, concrete = [], []
    for orbit in desk_orbits():
        members = list(orbit)
        if _tail(members[0][1]):
            generic += members
            continue
        rng.shuffle(members)
        take = -(-len(members) // GENERIC_SHARE)
        generic += members[:take]
        concrete += members[take : take + len(members) // CONCRETE_SHARE]
    reqs = [Request("g%03d" % i, VERIFY, _generic(n, blocks), NORMAL_CM) for i, (n, blocks) in enumerate(generic)]
    reqs = _with_controls(reqs, rng)
    for i, (n, blocks) in enumerate(concrete):
        attested = i % 2 == 0
        reqs.append(
            Request(
                "c%03d" % i,
                VERIFY,
                _concrete(n, blocks, rng, attested),
                NORMAL_CM if attested else INDETERMINATE,
            )
        )
    return reqs


def _with_controls(reqs, rng):
    """Mark a fixed number of generic specs per row count of block 1 (power
    1, two or three rows) for the negative controls."""
    picked = set()
    for k, count in sorted(CONTROL_SPECS.items()):
        pool = [
            r.rid
            for r in reqs
            if r.spec["blocks"][0]["power"] == 1 and len(r.spec["blocks"][0]["rows"]) == k
        ]
        picked.update(rng.sample(pool, min(count, len(pool))))
    return [replace(r, controls=True) if r.rid in picked else r for r in reqs]


# --- gb_heavy ---------------------------------------------------------------


def gb_heavy(rng):
    """Two blocks over n=3, one of them of power 2 on all three rows.  The
    other block runs through every pair of rows (power 1), and one extra
    spec takes a single seeded row at power 2.  The seed orders the two
    blocks of each spec."""
    heavy = ((1, 2, 3), 2)
    others = [(rows, 1) for rows in combinations((1, 2, 3), 2)]
    others.append(((rng.randrange(1, 4),), 2))
    reqs = []
    for i, other in enumerate(others):
        blocks = [heavy, other]
        rng.shuffle(blocks)
        reqs.append(Request("h%d" % i, VERIFY, _generic(3, blocks), NORMAL_CM))
    return reqs


# --- wide_emit --------------------------------------------------------------

WIDE_SHAPES = ((5, 3), (6, 2), (5, 2))  # (n, rows per block): every such row set


def wide_emit(rng):
    """Every row set of the given size as a block, all power 1: n=5 with
    ten 3-row blocks, n=6 with fifteen 2-row blocks, n=5 with ten 2-row
    blocks.  The seed orders the blocks."""
    reqs = []
    for i, (n, k) in enumerate(WIDE_SHAPES):
        blocks = [(rows, 1) for rows in combinations(range(1, n + 1), k)]
        rng.shuffle(blocks)
        reqs.append(Request("w%d" % i, EMIT, _generic(n, blocks)))
    return reqs


WORKLOADS = {"desk_verify": desk_verify, "gb_heavy": gb_heavy, "wide_emit": wide_emit}


def build(name, seed):
    """The requests of one workload for one seed, in their run order, and
    the generator used for anything else the seed decides."""
    rng = random.Random("%s:%d" % (name, seed))
    reqs = WORKLOADS[name](rng)
    return reqs, rng
