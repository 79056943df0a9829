"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints one PASS/FAIL line, and
enforces its stated runtime budget.  Everything is seeded and deterministic.
"""

import itertools
import json
import random
import time
from math import factorial

from divset.fologic import (
    Adjacent,
    And,
    Equal,
    Exists,
    ForAll,
    Implies,
    Not,
    embedding_transfer_report,
    evaluate,
    formula_size,
    parse_formula,
    rewrite_sentence,
)
from divset.reductions import (
    Graph,
    distance_graph,
    has_independent_set,
    hypercube_embedding,
    independent_set_to_diversity,
    r2_equivalence_report,
    subdivided_with_leaves,
)
from divset.solver import (
    SATURATION_CAP,
    Thresholds,
    exhaustive_solve,
    find_prunable_row,
    lift,
    neighborhood_bound,
    neighborhood_gate,
    reduce,
    solve,
)
from divset.sunflowers import SetFamily, find_sunflower
from divset.vectors import Instance, PartialVector, known_distance, verify_solution

SUITE2_SEED = 1202


def report(number, detail):
    print(f"[criterion {number:02d}] PASS  {detail}")


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_exhaustive_micro_agreement():
    """All d=3 instances with up to 4 rows: pipeline answer equals the
    exhaustive answer, and every YES witness verifies."""
    started = time.perf_counter()
    vectors = [PartialVector("".join(c)) for c in itertools.product("01?", repeat=3)]
    checked = 0
    for size in (1, 2, 3, 4):
        for combo in itertools.combinations_with_replacement(range(27), size):
            rows = tuple(vectors[i] for i in combo)
            for k in (1, 2, 3):
                for r in (0, 1, 2):
                    instance = Instance(rows, k, r, 3)
                    got = solve(instance)
                    expected = exhaustive_solve(instance)
                    assert got.answer == expected.answer, (combo, k, r)
                    if got.answer:
                        assert verify_solution(instance, got.witness).ok, (combo, k, r)
                        assert verify_solution(instance, expected.witness).ok, (combo, k, r)
                    checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    report(1, f"{checked} instances, 100% agreement, {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 2


def _suite2_instances():
    rng = random.Random(SUITE2_SEED)
    for _ in range(500):
        n = rng.randint(1, 12)
        d = rng.randint(1, 10)
        k = rng.randint(0, 4)
        r = rng.randint(0, 3)
        density = rng.uniform(0.0, 0.3)
        cells = [
            ["?" if rng.random() < density else rng.choice("01") for _ in range(d)]
            for _ in range(n)
        ]
        spots = [(i, j) for i in range(n) for j in range(d) if cells[i][j] == "?"]
        while len(spots) > 18:
            i, j = spots.pop(rng.randrange(len(spots)))
            cells[i][j] = rng.choice("01")
        yield Instance.from_texts(["".join(row) for row in cells], k, r, d)


def test_criterion_02_randomized_agreement():
    started = time.perf_counter()
    for index, instance in enumerate(_suite2_instances()):
        got = solve(instance)
        expected = exhaustive_solve(instance)
        assert got.answer == expected.answer, f"instance {index}"
        if got.answer:
            assert verify_solution(instance, got.witness).ok, f"instance {index}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    report(2, f"500 seeded instances, 100% agreement, {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_heavy_row_invariance():
    qualified = 0
    lifted_checks = 0
    for instance in _suite2_instances():
        reduced, removals = reduce(instance)
        if reduced.k == instance.k:
            continue  # no heavy row was stripped
        qualified += 1
        before = exhaustive_solve(instance)
        after = exhaustive_solve(reduced)
        assert before.answer == after.answer
        if after.answer:
            picks = {i: after.witness.completed[i] for i in after.witness.selected}
            lifted = lift(instance, picks, removals)
            assert verify_solution(instance, lifted).ok
            lifted_checks += 1
    assert qualified > 0
    report(3, f"{qualified} wildcard-heavy instances, {lifted_checks} lifts verified")


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_threshold_values():
    for r in range(6):
        assert neighborhood_bound(1, r) == 0
    assert neighborhood_bound(2, 1) == 225936
    for k in range(1, 6):
        for r in range(6):
            assert neighborhood_gate(k, r) >= neighborhood_bound(k, r)
    assert neighborhood_bound(10, 10) == SATURATION_CAP
    report(4, "bound(1,r)=0, bound(2,1)=225936, gate dominates bound on k,r <= 5")


# ---------------------------------------------------------------- criterion 5


def _uniform_family(rng, b, size):
    universe = list(range(1, 4 * b * 6 + 8))
    members, seen = [], set()
    while len(members) < size:
        s = sum(1 << e for e in rng.sample(universe, b))
        if s not in seen:
            seen.add(s)
            members.append(s)
    return SetFamily(tuple(members))


def test_criterion_05_sunflower_guarantee():
    """Families of size b!*(a-1)^b + 1, one more than the Erdos-Rado bound,
    must yield a sunflower with >= a members whose pairwise intersections all
    equal the core.

    The lemma promises such a sunflower only in b-uniform families of
    pairwise-distinct sets strictly larger than b!*(a-1)^b; at exactly that
    size it can fail (for b=1 the family holds only a-1 sets).
    """
    failures = []
    passes = 0
    started = time.perf_counter()
    for b in (1, 2, 3, 4):
        for a in (2, 3, 4, 5):
            size = factorial(b) * (a - 1) ** b + 1
            for seed in range(50):
                rng = random.Random((b, a, seed).__hash__())
                family = _uniform_family(rng, b, size)
                flower = find_sunflower(family, b, a)
                ok = flower is not None and len(flower) >= a
                if ok:
                    chosen = [family.members[i] for i in flower.member_indices]
                    for x, y in itertools.combinations(chosen, 2):
                        assert x & y == flower.core
                    passes += 1
                else:
                    failures.append((b, a, seed, 0 if flower is None else len(flower)))
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    assert not failures, (
        f"{len(failures)} of {passes + len(failures)} cells found no sunflower "
        f"with a members in a family of b!*(a-1)^b + 1 distinct b-sets, which "
        f"the Erdos-Rado lemma guarantees; sample failing cells "
        f"(b, a, seed, got): {failures[:4]}"
    )
    report(5, f"{passes} cells at size b!*(a-1)^b + 1, b <= 4, a <= 5, {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 6


def _seeded_graph(rng, n_lo, n_hi):
    n = rng.randint(n_lo, n_hi)
    p = rng.uniform(0.2, 0.8)
    edges = tuple(
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < p
    )
    return Graph(n, edges)


def test_criterion_06_two_value_distance_law():
    rng = random.Random(606)
    equivalences = 0
    for _ in range(100):
        g = _seeded_graph(rng, 3, 8)
        instance = independent_set_to_diversity(g, 2)
        adjacency = g.edge_set()
        n = g.n
        for i, j in itertools.combinations(range(n), 2):
            dist = known_distance(instance.rows[i], instance.rows[j])
            expected = 2 * n - 4 if (i + 1, j + 1) in adjacency else 2 * n - 2
            assert dist == expected, (g, i, j)
        if n <= 7:
            for k in (1, 2, 3):
                lhs = has_independent_set(g, k)
                rhs = exhaustive_solve(independent_set_to_diversity(g, k)).answer
                assert lhs == rhs, (g, k)
                equivalences += 1
    report(6, f"distance law on 100 graphs; {equivalences} independent-set equivalences")


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_embedding_isomorphism():
    rng = random.Random(707)
    for _ in range(100):
        g = _seeded_graph(rng, 1, 8)
        embedded = distance_graph(hypercube_embedding(g), 1)
        expected = subdivided_with_leaves(g)
        assert embedded.n == expected.n
        assert embedded.edge_set() == expected.edge_set(), g
    report(7, "100 graphs, exact edge-set equality under the canonical numbering")


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_r2_agreement_report(tmp_path):
    rng = random.Random(808)
    reports = []
    agree = total = 0
    for _ in range(50):
        n = rng.randint(2, 5)
        all_edges = list(itertools.combinations(range(1, n + 1), 2))
        m = rng.randint(0, min(6, len(all_edges)))
        g = Graph(n, tuple(sorted(rng.sample(all_edges, m))))
        record = r2_equivalence_report(g)
        assert len(record["cells"]) == 4
        for cell in record["cells"]:
            for key in ("mode", "k", "independent_set", "diversity", "agree"):
                assert cell[key] is not None
            total += 1
            agree += cell["agree"]
        reports.append(record)
    out = tmp_path / "r2_agreement.json"
    out.write_text(json.dumps(reports, indent=2, sort_keys=True))
    report(8, f"50 graphs x 2 modes x 2 ks; agreement recorded: {agree}/{total} cells")


# ---------------------------------------------------------------- criterion 9

CORPUS = [
    "exists x. exists y. (E(x,y) & ~(x=y))",
    "forall x. exists y. E(x,y)",
    "exists x. forall y. (x=y | E(x,y))",
    "forall x. forall y. (E(x,y) -> E(y,x))",
    "forall x. ~E(x,x)",
    "exists x. exists y. exists z. ((E(x,y) & E(y,z)) & E(x,z))",
    "exists x. exists y. exists z. ((~(x=y) & (~(x=z) & ~(y=z))) & (~E(x,y) & (~E(x,z) & ~E(y,z))))",
    "forall x. forall y. (~(x=y) -> E(x,y))",
    "exists x. forall y. ~E(x,y)",
    "forall x. exists y. (~(x=y) & ~E(x,y))",
    "exists x. exists y. (~(x=y) & forall z. ((z=x | z=y) | (E(z,x) | E(z,y))))",
    "forall x. forall y. ((~(x=y) & ~E(x,y)) -> exists z. (E(x,z) & E(z,y)))",
    "exists x. E(x,x)",
    "exists x. x=x",
    "forall x. x=x",
    "exists x. exists y. (E(x,y) & E(y,x))",
    "forall x. forall y. (E(x,y) -> exists z. (E(x,z) & E(z,y)))",
    "exists x. exists y. ((~(x=y) & ~E(x,y)) & forall z. (E(x,z) -> E(y,z)))",
    "forall x. (exists y. E(x,y) -> exists z. (E(x,z) & ~(z=x)))",
    "~exists x. exists y. (E(x,y) & x=y)",
]


def _quantifier_depth(phi):
    if isinstance(phi, (Adjacent, Equal)):
        return 0
    if isinstance(phi, Not):
        return _quantifier_depth(phi.body)
    if isinstance(phi, (And, Implies)):
        return max(_quantifier_depth(phi.left), _quantifier_depth(phi.right))
    if isinstance(phi, (Exists, ForAll)):
        return 1 + _quantifier_depth(phi.body)
    return max(_quantifier_depth(phi.left), _quantifier_depth(phi.right))


def _expansion_evaluate(graph, phi):
    adjacency = graph.adjacency()
    vertices = list(range(1, graph.n + 1))

    def expand(f, env):
        if isinstance(f, Adjacent):
            return env[f.y] in adjacency[env[f.x]]
        if isinstance(f, Equal):
            return env[f.x] == env[f.y]
        if isinstance(f, Not):
            return not expand(f.body, env)
        if isinstance(f, And):
            return expand(f.left, env) and expand(f.right, env)
        if isinstance(f, Implies):
            return (not expand(f.left, env)) or expand(f.right, env)
        if isinstance(f, Exists):
            return any([expand(f.body, {**env, f.var: v}) for v in vertices])
        if isinstance(f, ForAll):
            return all([expand(f.body, {**env, f.var: v}) for v in vertices])
        return expand(f.left, env) or expand(f.right, env)

    return expand(phi, {})


def _all_graphs_up_to(n_max):
    for n in range(n_max + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))


def test_criterion_09_fo_toolchain(tmp_path):
    sentences = [parse_formula(text) for text in CORPUS]
    assert len(sentences) == 20

    for phi in sentences:
        ratio = formula_size(rewrite_sentence(phi)) / formula_size(phi)
        assert ratio <= 20, ratio

    compared = 0
    for g in _all_graphs_up_to(4):
        for phi in sentences:
            assert evaluate(g, phi) == _expansion_evaluate(g, phi), (g, phi)
            compared += 1

    rng = random.Random(909)
    records = []
    for _ in range(8):
        n = rng.randint(2, 6)
        all_edges = list(itertools.combinations(range(1, n + 1), 2))
        m = rng.randint(0, min(6, len(all_edges)))
        h = Graph(n, tuple(sorted(rng.sample(all_edges, m))))
        for phi in sentences:
            if _quantifier_depth(phi) > 3:
                continue
            records.append(embedding_transfer_report(h, phi))
    for record in records:
        assert isinstance(record["h_holds"], bool)
        assert isinstance(record["g_holds"], bool)
        assert isinstance(record["agree"], bool)
    agreements = sum(r["agree"] for r in records)
    out = tmp_path / "fo_transfer.json"
    out.write_text(json.dumps(records, indent=2, sort_keys=True))
    report(
        9,
        f"ratio <= 20 on 20 sentences; {compared} evaluator comparisons; "
        f"transfer harness: {agreements}/{len(records)} agreements (recorded)",
    )


# --------------------------------------------------------------- criterion 10


def test_criterion_10_desk_scale_performance():
    rng = random.Random(42)
    rows = [format(rng.getrandbits(128), "0128b") for _ in range(10_000)]
    big = Instance.from_texts(rows, 3, 4, 128)
    started = time.perf_counter()
    outcome = solve(big)
    fast_elapsed = time.perf_counter() - started
    assert outcome.answer and outcome.method == "greedy"
    assert verify_solution(big, outcome.witness).ok
    assert fast_elapsed < 10

    # frozen seed: 15 tightly packed rows with 10 unknowns and no 3 rows
    # pairwise at distance >= 3
    rng = random.Random(0)
    d = 4
    cells = [[rng.choice("01") for _ in range(d)] for _ in range(15)]
    for i, j in rng.sample([(i, j) for i in range(15) for j in range(d)], 10):
        cells[i][j] = "?"
    small = Instance.from_texts(["".join(row) for row in cells], 3, 2, d)
    assert sum(row.unknown_count for row in small.rows) == 10
    assert not exhaustive_solve(small).answer
    started = time.perf_counter()
    outcome = solve(small)
    no_elapsed = time.perf_counter() - started
    assert not outcome.answer and outcome.method == "brute-force"
    assert no_elapsed < 5
    report(
        10,
        f"greedy 10^4 x 128 in {fast_elapsed:.2f}s; brute-force NO in {no_elapsed:.3f}s",
    )


# --------------------------------------------------------------- criterion 11


def test_criterion_11_pruning_with_overrides():
    thresholds = Thresholds(5, 3)
    rng = random.Random(1111)
    for variant in range(50):
        d = rng.randint(4, 8)
        units = [
            list("".join("1" if i == j else "0" for j in range(d))) for i in range(d)
        ]
        # wildcards on some units (never the 1-bit, at most one per row, and
        # at least three rows stay clean so the singleton class suffices)
        for i in rng.sample(range(d), rng.randint(0, d - 3)):
            j = rng.choice([c for c in range(d) if c != i])
            units[i][j] = "?"
        rows = ["0" * d] + ["".join(u) for u in units]
        for _ in range(rng.randint(0, 2)):
            far = ["0"] * d
            for j in rng.sample(range(d), 2):
                far[j] = "1"
            rows.append("".join(far))
        instance = Instance.from_texts(rows, 2, 1, d)

        pruned = find_prunable_row(instance, 0, thresholds)
        assert 0 <= pruned < instance.n
        remaining = Instance(
            instance.rows[:pruned] + instance.rows[pruned + 1 :], 2, 1, d
        )
        before = exhaustive_solve(instance).answer
        after = exhaustive_solve(remaining).answer
        assert before == after, (variant, pruned)
    report(11, "pruning fired on 50 seeded unit-vector families; oracle unchanged")
