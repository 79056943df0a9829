"""Seeded inputs for the benchmark workloads.

Every case carries its answer as known by construction, so the harness can
check each operation without trusting the program's own decision.  The
arguments are in the docstring of each generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class SolveCase:
    """One `divset solve` input: instance file text and its known answer."""

    text: str
    yes: bool


@dataclass(frozen=True)
class FoCase:
    """One `divset fo harness` input; `holds` is the sentence's truth on the
    graph, computed here from the edge list, not by the program."""

    graph: str
    formula: str
    holds: bool
    n: int
    m: int


def _instance(d: int, k: int, r: int, rows: list[str]) -> str:
    return f"{d} {k} {r}\n" + "".join(row + "\n" for row in rows)


def _random_bits(rng: random.Random, d: int) -> list[str]:
    return list(format(rng.getrandbits(d), f"0{d}b"))


def _flip(cells: list[str], positions) -> list[str]:
    out = list(cells)
    for p in positions:
        out[p] = "1" if out[p] == "0" else "0"
    return out


def exact_no(rng: random.Random) -> SolveCase:
    """n=44, d=24, k=4, r=10; every row is one base with 5 bits flipped.

    NO: any two rows differ in at most 10 coordinates, so no pair reaches
    r+1 = 11.  Rows are complete and the gate is saturated, so `solve`
    reaches `brute_force`, whose pair filter rejects each of the C(44, 4)
    subsets.
    """
    n, d, k, r, flips = 44, 24, 4, 10, 5
    base = _random_bits(rng, d)
    rows = ["".join(_flip(base, rng.sample(range(d), flips))) for _ in range(n)]
    return SolveCase(_instance(d, k, r, rows), yes=False)


def exact_wild(rng: random.Random, yes: bool) -> SolveCase:
    """Rows flip f known bits of one base and share a block of u unknowns.

    NO variant, n=14, d=20, k=3, r=8, f=3, u=4: among any three rows the
    known coordinates add at most 6f = 18 to the three pair distances (at
    most 3f coordinates are flipped and each separates at most 2 of the 3
    pairs), and each block coordinate adds at most 2, so the sum is at most
    18 + 2u = 26 < 3(r+1) = 27 and some pair stays within r.

    YES variant, n=16, d=24, k=4, r=10, f=5, u=4: four planted rows flip
    the four disjoint 5-sets of a partition of the 20 known coordinates, so
    they sit pairwise at known distance 10; filling their blocks with four
    distinct patterns adds at least 1 more, reaching r+1 = 11.

    In both, the pair filter passes many subsets and `_assign`'s completion
    search takes the time.
    """
    n, d, k, r, f = (16, 24, 4, 10, 5) if yes else (14, 20, 3, 8, 3)
    block = set(rng.sample(range(d), 4))
    known = [p for p in range(d) if p not in block]
    base = _random_bits(rng, d)

    def row(flips) -> str:
        cells = _flip(base, flips)
        for p in block:
            cells[p] = "?"
        return "".join(cells)

    rows = [row(rng.sample(known, f)) for _ in range(n)]
    if yes:
        order = rng.sample(known, len(known))
        rows[:k] = [row(order[i * f : (i + 1) * f]) for i in range(k)]
        rng.shuffle(rows)
    return SolveCase(_instance(d, k, r, rows), yes=yes)


def prune_chain(rng: random.Random) -> SolveCase:
    """d=80, k=2, r=0: one random base row plus d copies, copy i with `?`
    at coordinate i, shuffled.

    YES: a row with a `?` is known wherever another row has its `?`, so
    filling it opposite that row puts the pair at distance 1 = r+1.  All
    81 rows sit at known distance 0, so every neighborhood reaches the
    gate 27 and the certified kernel prunes 28 rows, until fewer than
    k * gate = 54 remain.
    """
    d, k, r = 80, 2, 0
    base = "".join(_random_bits(rng, d))
    rows = [base] + [base[:i] + "?" + base[i + 1 :] for i in range(d)]
    rng.shuffle(rows)
    return SolveCase(_instance(d, k, r, rows), yes=True)


def scale_yes(rng: random.Random) -> SolveCase:
    """n=4000, d=128, k=5, r=4: five planted complete rows pairwise at
    distance >= r+1, two heavy rows with 40 unknowns, 10% of the rows
    copies of 20 source rows (20 copies each), and the rest random rows with
    0 to 5 unknowns (2% of the cells on average), shuffled.

    YES: the planted rows are a witness.  `solve` strips both heavy rows
    (40 > (k-1)(r+1) = 20, then 40 > 15), caps the duplicates, and the
    greedy pass succeeds on the far-apart random rows.
    """
    n, d, k, r = 4000, 128, 5, 4
    sources, copies, heavy = 20, 20, 2

    def random_row(unknowns: int) -> str:
        cells = _random_bits(rng, d)
        for p in rng.sample(range(d), unknowns):
            cells[p] = "?"
        return "".join(cells)

    planted: list[str] = []
    while len(planted) < k:
        cand = rng.getrandbits(d)
        if all(bin(cand ^ int(p, 2)).count("1") > r for p in planted):
            planted.append(format(cand, f"0{d}b"))
    rows = planted + [random_row(40) for _ in range(heavy)]
    for _ in range(sources):
        rows += [random_row(rng.randrange(6))] * copies
    rows += [random_row(rng.randrange(6)) for _ in range(n - len(rows))]
    rng.shuffle(rows)
    return SolveCase(_instance(d, k, r, rows), yes=True)


def _has_edge(n, adj, edges):
    return bool(edges)


def _no_isolated(n, adj, edges):
    return all(adj[v] for v in range(1, n + 1))


def _dominating(n, adj, edges):
    return any(len(adj[v]) == n - 1 for v in range(1, n + 1))


def _isolated(n, adj, edges):
    return not _no_isolated(n, adj, edges)


def _independent_triple(n, adj, edges):
    return any(
        not (adj[x] & {y, z}) and z not in adj[y]
        for x in range(1, n + 1)
        for y in range(x + 1, n + 1)
        for z in range(y + 1, n + 1)
    )


# Sentences of quantifier depth 2-3, each with the graph property it states.
# Left out: depth-3 sentences with two universal quantifiers, whose rewrites
# take 0.1-0.7 s per evaluation on the embedding, and "has a triangle", whose
# evaluation on the embedding stops at the first witness and so takes from
# 7 ms to 220 ms depending on the graph, which makes the tail latency follow
# the seed.
SENTENCES = (
    ("exists x. exists y. E(x,y)", _has_edge),
    ("forall x. exists y. E(x,y)", _no_isolated),
    ("exists x. forall y. (x=y | E(x,y))", _dominating),
    ("exists x. forall y. ~E(x,y)", _isolated),
    ("exists x. exists y. exists z. ((~E(x,y) & ~E(y,z)) & ((~E(x,z) & ~x=y) & (~y=z & ~x=z)))",
     _independent_triple),
)


def fo_transfer(rng: random.Random) -> list[FoCase]:
    """One uniform random graph with n=12 and m=20 (density 0.3), paired
    with every sentence.  Fixing n and m fixes the embedding's size at
    n+2m = 52 vertices, so only the graph's structure varies the cost."""
    n, m = 12, 20
    edges = sorted(rng.sample([(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)], m))
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    graph = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    return [
        FoCase(graph, formula, prop(n, adj, edges), n, len(edges))
        for formula, prop in SENTENCES
    ]
