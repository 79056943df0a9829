"""A committed witness corpus: the outputs of `solve`, `brute_force` and
`exhaustive_solve` on one seeded set of small instances, pinned by SHA-256.

`corpus()` draws every instance from one seed.  Its shapes cover duplicate
rows, shared `?` columns, heavy rows, `k >= 4`, NO answers, and the
prune-chain family (a base row and its one-`?` copies) at patched gates, so
that `solve` reaches the kernel.  A change that moves any answer, witness,
trace, method or stat changes the digest; one that does so on purpose
updates `CORPUS_DIGEST` and says which outputs moved and why.
"""

import hashlib
import random
from collections import Counter

from divset import solver
from divset.errors import OracleLimitError
from divset.solver import (
    DUPLICATE,
    HEAVY,
    PRUNED,
    brute_force,
    exhaustive_solve,
    lift,
    reduce,
    solve,
)
from divset.vectors import Instance, serialize_instance, serialize_solution

SEED = 20240714
SIZE = 3000
CORPUS_DIGEST = "fb068f4dfb2d47fa821aa14490bea1b0d67fc766ddbafd7b23fa8a6fcfdb7c0e"


def _flip(text, positions):
    """`text` with its known characters at `positions` flipped."""
    cells = list(text)
    for p in positions:
        cells[p] = {"0": "1", "1": "0", "?": "?"}[cells[p]]
    return "".join(cells)


def _random_row(rng, d, density):
    return "".join("?" if rng.random() < density else rng.choice("01") for _ in range(d))


def _blocked_greedy(rng, m):
    """Rows on which greedy picks e_0 and e_last and runs out, over d = 2m+2
    columns: e_0, e_last, the zero row, e_0 + e_j for the m columns after 0,
    and e_c with a `?` in the last column for the m columns after those.
    At gate 5 and target 2 the kernel prunes the rows that block greedy,
    and then every neighborhood is below the gate.  The columns are permuted
    and some of them flipped, which keeps every distance."""
    d = 2 * m + 2

    def row(*ones, unknown=None):
        cells = ["0"] * d
        for c in ones:
            cells[c] = "1"
        if unknown is not None:
            cells[unknown] = "?"
        return cells

    rows = [row(0), row(d - 1), row()]
    rows += [row(0, j) for j in range(1, m + 1)]
    rows += [row(c, unknown=d - 1) for c in range(m + 1, 2 * m + 1)]
    order = rng.sample(range(d), d)
    flipped = [j for j in range(d) if rng.random() < 0.5]
    return [_flip("".join(cells[j] for j in order), flipped) for cells in rows]


def corpus():
    """(instance, gates) pairs; `gates` is None for the certified gates, or
    the (gate, target) pair that replaces them."""
    rng = random.Random(SEED)
    for i in range(SIZE):
        shape = i % 6
        d = rng.randint(2, 7)
        k, r = rng.randint(0, 5), rng.randint(0, 3)
        gates = None
        if shape == 0:
            # Mixed density, from no unknowns to mostly unknowns.
            density = rng.choice((0.0, 0.2, 0.5, 0.8))
            rows = [_random_row(rng, d, density) for _ in range(rng.randint(0, 9))]
        elif shape == 1:
            # Duplicates: most rows copy one of one to three base rows.
            bases = [_random_row(rng, d, 0.3) for _ in range(rng.randint(1, 3))]
            rows = [
                rng.choice(bases) if rng.random() < 0.6 else _random_row(rng, d, 0.3)
                for _ in range(rng.randint(2, 10))
            ]
        elif shape == 2:
            # Shared `?` columns: a block of columns unknown in every row.
            shared = set(rng.sample(range(d), rng.randint(1, min(3, d))))
            rows = [
                "".join("?" if j in shared else rng.choice("01") for j in range(d))
                for _ in range(rng.randint(2, 8))
            ]
        elif shape == 3:
            # Heavy rows: a few rows with far more unknowns than the rest.
            rows = [_random_row(rng, d, 0.9 if rng.random() < 0.3 else 0.1) for _ in range(rng.randint(2, 9))]
            k = rng.randint(1, 4)
        elif shape == 4:
            # k >= 4 over wider rows: YES when the rows spread, NO when they
            # cluster around one base.
            d = rng.randint(6, 9)
            k, r = rng.randint(4, 5), rng.randint(0, 3)
            base = _random_row(rng, d, 0.0)
            spread = rng.choice((1, d // 2, d))
            rows = [
                _flip(base, rng.sample(range(d), rng.randint(0, spread))) for _ in range(rng.randint(4, 10))
            ]
            rows = [row if rng.random() < 0.7 else _random_row(rng, d, 0.3) for row in rows]
        else:
            # Patched gates.  The prune-chain family: a base row and its
            # one-`?` copies, k = 2, r = 0.  Or random rows at random gates.
            # Or `_blocked_greedy`, which prunes until the guaranteed greedy
            # decides.
            family = rng.choice(("chain", "random", "blocked"))
            if family == "chain":
                base = _random_row(rng, d, 0.0)
                copies = [base[:j] + "?" + base[j + 1 :] for j in range(d)]
                rows = [base] + rng.sample(copies, rng.randint(d // 2, d))
                rng.shuffle(rows)
                k, r = 2, 0
                gates = (rng.randint(1, 4), rng.randint(2, 4))
            elif family == "random":
                rows = [_random_row(rng, d, 0.3) for _ in range(rng.randint(3, 10))]
                k, r = rng.randint(2, 3), rng.randint(0, 1)
                gates = (rng.randint(1, 4), rng.randint(2, 4))
            else:
                rows = _blocked_greedy(rng, rng.randint(11, 14))
                d, k, r = len(rows[0]), 3, 1
                gates = (5, 2)
        yield Instance.from_texts(rows, k, r, d), gates


def _set_gates(patch, gates):
    if gates is not None:
        gate, target = gates
        patch.setattr(solver, "neighborhood_gate", lambda k, r: gate)
        patch.setattr(solver, "sunflower_target", lambda k, r: target)


def _record(instance):
    outcome = solve(instance)
    picks = brute_force(instance)
    try:
        oracle = serialize_solution(exhaustive_solve(instance, max_unknowns=10).witness)
    except OracleLimitError:
        oracle = "past the caps"
    return (
        serialize_instance(instance),
        serialize_solution(outcome.witness),
        outcome.method,
        tuple((e.index, instance.rows[e.index].text, e.kind) for e in outcome.trace),
        outcome.stats,
        serialize_solution(None if picks is None else lift(instance, picks, ())),
        oracle,
    )


def test_corpus_outputs_pinned(monkeypatch):
    digest = hashlib.sha256()
    seen = dict.fromkeys(
        ("yes", "no", "k>=4 yes", "k>=4 no", "oracle", HEAVY, DUPLICATE, PRUNED,
         "shortcut", "greedy", "greedy-bounded", "brute-force"),
        0,
    )
    for instance, gates in corpus():
        with monkeypatch.context() as patch:
            _set_gates(patch, gates)
            record = _record(instance)
        digest.update(repr(record).encode() + b"\n")
        answer = "no" if record[1] == "NO\n" else "yes"
        seen[answer] += 1
        seen[f"k>=4 {answer}"] += instance.k >= 4
        seen["oracle"] += record[6] != "past the caps"
        seen[record[2]] += 1
        for kind in {kind for _, _, kind in record[3]}:
            seen[kind] += 1
    assert min(seen.values()) >= 20, seen
    assert digest.hexdigest() == CORPUS_DIGEST


def _duplicates_and_heavy_rows():
    """Seeded instances built from copies of a few base rows of random
    density, so most carry both duplicates and heavy rows."""
    rng = random.Random(SEED + 1)
    for _ in range(500):
        d = rng.randint(1, 8)
        bases = [_random_row(rng, d, rng.random()) for _ in range(rng.randint(1, 4))]
        rows = [rng.choice(bases) for _ in range(rng.randint(0, 12))]
        yield Instance.from_texts(rows, rng.randint(0, 5), rng.randint(0, 3), d), None


def test_reduce_is_what_solve_runs(monkeypatch):
    """`reduce` leaves no row over (k-1)(r+1) unknowns when k > 0 and no row
    text more than k times, and `solve`'s trace begins with exactly its
    removals; every later removal is the kernel's.  Every removal names its
    row by a distinct index in the input."""
    stripped = capped = 0
    for instance, gates in (*corpus(), *_duplicates_and_heavy_rows()):
        reduced, removals = reduce(instance)
        k, r = reduced.k, reduced.r
        if k > 0:
            assert all(row.unknown_count <= (k - 1) * (r + 1) for row in reduced.rows)
        assert all(count <= k for count in Counter(row.text for row in reduced.rows).values())
        with monkeypatch.context() as patch:
            _set_gates(patch, gates)
            trace = solve(instance).trace
        assert trace[: len(removals)] == tuple(removals)
        assert all(removal.kind == PRUNED for removal in trace[len(removals) :])
        assert all(0 <= removal.index < instance.n for removal in trace)
        assert len({removal.index for removal in trace}) == len(trace)
        stripped += k < instance.k
        capped += any(removal.kind == DUPLICATE for removal in removals)
    assert stripped >= 100 and capped >= 100, (stripped, capped)
