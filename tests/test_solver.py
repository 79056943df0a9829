import collections
import hashlib
import itertools
import math
import random
import time
import tracemalloc

import pytest

from divset import solver
from divset.errors import ContractError, NotApplicableError, OracleLimitError
from divset.solver import (
    DUPLICATE,
    HEAVY,
    PRUNED,
    Removal,
    SATURATION_CAP,
    Thresholds,
    brute_force,
    exhaustive_solve,
    find_prunable_row,
    greedy_attempt,
    lift,
    lift_heavy_row,
    neighborhood_bound,
    neighborhood_gate,
    reduce,
    solve,
    sunflower_target,
)
from divset.vectors import (
    Instance,
    PartialVector,
    Solution,
    known_distance,
    neighborhood,
    verify_solution,
)

CAP = SATURATION_CAP

# `TestPruning.test_prune_choices_pinned`'s digest of every row's pruning answer.
PRUNE_CHOICES_DIGEST = "a6784922a72ba8c28610396887f06fe0cfabadb8dbcf51b456a47076f9261efb"


def inst(texts, k, r, d=None):
    return Instance.from_texts(texts, k, r, d)


def fill_unknowns(row, bits):
    """The row with its '?' filled left to right by the next items of bits."""
    bits = iter(bits)
    return PartialVector("".join(next(bits) if c == "?" else c for c in row.text))


def patch_gates(monkeypatch, gate, target):
    """Replace the certified gates, which `Thresholds.for_parameters` looks up
    at call time, so `solve` reaches the kernel on desk-size inputs.  The
    pruning argument no longer holds: a YES still carries a verified
    witness, but a NO may be wrong."""
    monkeypatch.setattr(solver, "neighborhood_gate", lambda k, r: gate)
    monkeypatch.setattr(solver, "sunflower_target", lambda k, r: target)


class TestThresholds:
    def test_k1_is_zero(self):
        for r in range(6):
            assert neighborhood_bound(1, r) == 0

    def test_known_value(self):
        # 3^2 * (16 + 2*16^2 + 6*16^3) = 9 * 25104
        assert neighborhood_bound(2, 1) == 225936

    def test_saturation(self):
        assert neighborhood_bound(10, 10) == CAP
        assert neighborhood_gate(10, 10) == CAP

    def test_gate_dominates_bound(self):
        for k in range(1, 6):
            for r in range(6):
                assert neighborhood_gate(k, r) >= neighborhood_bound(k, r)

    def test_target_minimum(self):
        assert sunflower_target(1, 0) == 2
        assert sunflower_target(2, 1) == 18

    def test_k_zero_rejected(self):
        with pytest.raises(ContractError):
            neighborhood_bound(0, 1)

    def test_negative_r_rejected(self):
        for function in (neighborhood_bound, neighborhood_gate, sunflower_target):
            with pytest.raises(ValueError):
                function(2, -1)

    def test_certified_pair_or_a_checked_one(self):
        certified = Thresholds.for_parameters(2, 1)
        assert certified == Thresholds(neighborhood_gate(2, 1), sunflower_target(2, 1))
        with pytest.raises(TypeError):
            Thresholds.for_parameters(2, 1, gate_override=5)
        Thresholds(1, 2)  # the smallest pair accepted
        for gate, target in ((0, 3), (5, 1)):
            with pytest.raises(ValueError):
                Thresholds(gate, target)


class TestHeavyRows:
    def test_removes_heavy_row(self):
        reduced, [removal] = reduce(inst(["????0", "00000"], 2, 1))
        assert removal == Removal(0, HEAVY)
        assert reduced.k == 1
        assert [r.text for r in reduced.rows] == ["00000"]

    def test_k1_any_wildcard_qualifies(self):
        reduced, [removal] = reduce(inst(["0?0"], 1, 2))
        assert reduced.k == 0 and removal == Removal(0, HEAVY)

    def test_not_applicable(self):
        instance = inst(["0?", "11"], 2, 1)
        assert reduce(instance) == (instance, [])

    def test_lift_opposes_each_selected_vector(self):
        picks = {0: PartialVector("0000")}
        removal = Removal(0, HEAVY)
        assert lift_heavy_row(picks, PartialVector("???0"), r=1).text == "1100"
        lifted = lift(inst(["???0", "0000"], 2, 1), picks, (removal,))
        assert lifted.completed[0].text == "1100"
        assert lifted.selected == {0, 1}

    def test_lift_to_k1(self):
        removal = Removal(0, HEAVY)
        lifted = lift(inst(["??"], 1, 3), {}, (removal,))
        assert lifted.completed[0].text == "00"
        assert lifted.selected == {0}

    def test_lift_heavy_row_matches_text_construction(self):
        # The lift written out on text: the '?' positions in order, block i
        # of r+1 set opposite to the i-th pick by index, the rest set to 0.
        rng = random.Random(37)
        for _ in range(600):
            k, r = rng.randint(1, 4), rng.randint(0, 3)
            need = (k - 1) * (r + 1)
            d = rng.randint(max(need, r + 1, 1), need + 6)
            while True:
                order = ["".join(rng.choice("01") for _ in range(d)) for _ in range(k - 1)]
                if all(
                    sum(x != y for x, y in zip(s, t)) > r
                    for s, t in itertools.combinations(order, 2)
                ):
                    break
            indices = sorted(rng.sample(range(20), k - 1))
            picks = dict(zip(indices, map(PartialVector, order)))
            picks = dict(rng.sample(list(picks.items()), k - 1))  # any dict order
            holes = set(rng.sample(range(d), rng.randint(need, d)))
            text = "".join("?" if p in holes else rng.choice("01") for p in range(d))
            positions = sorted(holes)
            chars = list(text.replace("?", "0"))
            for i, s in enumerate(order):
                for p in positions[i * (r + 1) : (i + 1) * (r + 1)]:
                    chars[p] = "1" if s[p] == "0" else "0"
            lifted = lift_heavy_row(picks, PartialVector(text), r)
            expected = PartialVector("".join(chars))
            assert (lifted.text, lifted.ones, lifted.zeros, lifted.unknown_count) == (
                expected.text,
                expected.ones,
                expected.zeros,
                0,
            ), (text, order, r)

    def test_lift_rejects_broken_witness(self):
        bad = {0: PartialVector("00"), 1: PartialVector("01")}
        with pytest.raises(ContractError):
            lift_heavy_row(bad, PartialVector("??"), r=1)

    def test_lifted_witness_verifies_on_random_instances(self):
        rng = random.Random(3)
        hits = 0
        for _ in range(300):
            n, d = rng.randint(1, 5), rng.randint(1, 4)
            k, r = rng.randint(1, 3), rng.randint(0, 2)
            rows = [
                "".join(rng.choice("01??") for _ in range(d)) for _ in range(n)
            ]
            original = inst(rows, k, r, d)
            reduced, removals = reduce(original)
            if reduced.k == original.k:
                continue  # no heavy row was stripped
            before = exhaustive_solve(original)
            after = exhaustive_solve(reduced)
            assert before.answer == after.answer
            if after.answer:
                picks = {i: after.witness.completed[i] for i in after.witness.selected}
                lifted = lift(original, picks, removals)
                assert verify_solution(original, lifted).ok
                hits += 1
        assert hits > 10


class TestGreedy:
    def test_picks_lowest_indices(self):
        picks = greedy_attempt(inst(["000", "011", "101", "110"], 2, 1))
        assert picks.keys() == {0, 1}
        assert exhaustive_solve(inst(["000", "011", "101", "110"], 2, 1)).answer

    def test_zero_k(self):
        assert greedy_attempt(inst(["01"], 0, 1)) == {}

    def test_failure_returns_none(self):
        assert greedy_attempt(inst(["00", "01"], 2, 1)) is None

    def test_matches_known_distance_loop(self):
        rng = random.Random(17)
        seen = {"k=0": 0, "n=0": 0, "yes": 0, "no": 0}
        for _ in range(1500):
            n, d = rng.choice((0, rng.randint(1, 14))), rng.randint(0, 10)
            k, r = rng.randint(0, 5), rng.randint(0, 4)
            density = rng.choice((0.0, 0.2, 0.6))
            rows = [
                "".join("?" if rng.random() < density else rng.choice("01") for _ in range(d))
                for _ in range(n)
            ]
            picks = check_greedy(inst(rows, k, r, d))
            if picks is None:
                seen["no"] += 1
                continue
            seen["yes"] += 1
            seen["k=0"] += k == 0
            seen["n=0"] += n == 0
        assert min(seen.values()) >= 50, seen

    def test_matches_rounds_on_crowded_rows(self):
        # Up to 300 rows, most of them copies or near copies of one base row
        # at r close to d, so most rows are dropped and a pick can come late;
        # in most instances a far row (the base's complement, maybe with
        # unknowns) is planted past the first third.  k runs past n too.
        rng = random.Random(29)
        seen = {"late": 0, "none": 0, "k=0": 0, "k>n": 0, "yes": 0}
        for _ in range(1000):
            n = rng.choice((rng.randint(1, 30), rng.randint(100, 300)))
            d = rng.randint(2, 16)
            r = max(0, d - rng.randint(1, 3))
            base = [rng.choice("01") for _ in range(d)]
            rows: list[str] = []
            for _ in range(n):
                if rows and rng.random() < 0.4:
                    rows.append(rng.choice(rows))
                    continue
                cells = base[:]
                for p in rng.sample(range(d), rng.randint(0, 1)):
                    cells[p] = rng.choice("01?")
                rows.append("".join(cells))
            if rng.random() < 0.8:
                far = ["?" if rng.random() < 0.05 else "10"[int(c)] for c in base]
                rows[rng.randrange(n // 3, n)] = "".join(far)
            k = rng.choice((0, 2, rng.randint(1, 3), n + rng.randint(1, 3)))
            picks = check_greedy(inst(rows, k, r, d))
            seen["k>n"] += k > n
            if picks is None:
                seen["none"] += 1
                continue
            seen["yes"] += 1
            seen["k=0"] += k == 0
            seen["late"] += bool(picks) and picks[-1] >= 100
        assert min(seen.values()) >= 50, seen


def check_greedy(instance):
    """greedy_attempt against `reference_greedy`, its picks lifted and
    verified; returns the reference picks, or None when both fail."""
    expected = reference_greedy(instance)
    got = greedy_attempt(instance)
    if expected is None:
        assert got is None
        return None
    picks, texts = expected
    witness = lift(instance, got, ())
    assert witness.selected == frozenset(picks)
    assert [row.text for row in witness.completed] == texts
    assert verify_solution(instance, witness).ok
    return picks


def reference_greedy(instance):
    """Greedy as rounds through known_distance, completing with text: keep
    the lowest surviving row, drop every row within r of it."""
    picks, alive = [], list(range(instance.n))
    for _ in range(instance.k):
        if not alive:
            return None
        v = alive[0]
        picks.append(v)
        vrow = instance.rows[v]
        alive = [j for j in alive if known_distance(vrow, instance.rows[j]) > instance.r]
    return picks, [row.text.replace("?", "0") for row in instance.rows]


def reference_pruned(instance, thresholds):
    """The kernel's removals by full recompute: after every prune, each
    neighborhood again through `neighborhood`, and the row through the
    checked `find_prunable_row`, on a new instance of the rows left."""
    current, pruned = instance, []
    origin = list(range(instance.n))
    while current.n >= instance.k * thresholds.gate:
        sizes = [len(neighborhood(current, i, instance.r)) for i in range(current.n)]
        if max(sizes) < thresholds.gate:
            break
        f = find_prunable_row(current, sizes.index(max(sizes)), thresholds)
        if f is None:
            break
        pruned.append(Removal(origin.pop(f), PRUNED))
        rows = current.rows[:f] + current.rows[f + 1 :]
        current = Instance(rows, instance.k, instance.r, instance.d)
    return pruned


def solve_checking_kept_state(monkeypatch, instance):
    """`solve(instance)`, checking before and after each pruning call of
    `_kernel` that the state it hands the rule equals one built fresh by
    `_reference_state` from the reference row's neighborhood among the rows
    not yet pruned: the classes, and every live table with its owners in
    order.  An emptied table is left out: no call reads it.  Returns the
    outcome, the number of prunes that took a signature's owner whose copy
    took the signature over, and the number of states built."""
    real_state, real_rule = solver._reference_state, solver._prunable_in
    gone, copies, builds, rows, near, reference = 0, 0, 0, None, None, None

    def listed(tables):
        return [(alpha, list(table.items())) for alpha, table in tables.items() if table]

    def check(state):
        classes, tables = state
        fresh_classes, fresh_tables = real_state(rows, reference, near[reference] & ~gone)
        assert classes == fresh_classes, reference
        for key in classes:
            assert listed(tables[key]) == listed(fresh_tables[key]), (reference, key)
        return fresh_tables

    def reference_state(at, v_index, near_v):
        nonlocal builds, rows, near, reference
        builds += 1
        rows, near, reference = at, solver._neighborhood_masks(at, instance.r), v_index
        return real_state(at, v_index, near_v)

    def prunable_in(state, target):
        nonlocal gone, copies
        tables = check(state)
        f = real_rule(state, target)
        if f is not None:
            gone |= 1 << f
            check(state)
            copies += any(
                len(same) > 1 and same[0] == f
                for by_alpha in tables.values()
                for table in by_alpha.values()
                for same in table.values()
            )
        return f

    with monkeypatch.context() as patched:
        patched.setattr(solver, "_reference_state", reference_state)
        patched.setattr(solver, "_prunable_in", prunable_in)
        outcome = solve(instance)
    return outcome, copies, builds


class TestPruning:
    def test_signature_key_matches_character_walk(self):
        # Bit b >= d of a signature is ("d", 2d-1-b) and bit b < d is
        # ("u", d-1-b), so descending bits are the pairs in ascending order:
        # `find_sunflower` breaks ties towards the highest bit, the least pair.
        def reference(v, x):
            elems = set()
            for j, (vc, xc) in enumerate(zip(v.text, x.text)):
                if vc != "?" and xc == "?":
                    elems.add(("u", j))
                elif vc != "?" and xc != vc:
                    elems.add(("d", j))
            return elems

        def decode(sig, d):
            return [
                ("d", 2 * d - 1 - b) if b >= d else ("u", d - 1 - b)
                for b in reversed(range(2 * d))
                if sig >> b & 1
            ]

        v, x = PartialVector("0000"), PartialVector("1?00")
        assert solver._signature_key(v, x) == (0b1000_0100, 2)  # ("d", 0), ("u", 1)
        rng = random.Random(53)
        for _ in range(2000):
            d = rng.randint(0, 70)
            v, x = (
                PartialVector("".join(rng.choice("01?") for _ in range(d))) for _ in range(2)
            )
            sig, alpha = solver._signature_key(v, x)
            assert 0 <= sig < 1 << 2 * d, (v, x)
            assert decode(sig, d) == sorted(reference(v, x)), (v, x)
            assert alpha == sig.bit_count(), (v, x)

    def test_prune_choices_pinned(self):
        # Every row's `find_prunable_row` answer on 2,000 seeded families of
        # near-copies of a base row, hashed.  A change to the signature
        # encoding or to the sunflower search's tie-break that moves any
        # prune fails here, even where `CORPUS_DIGEST` does not move.
        rng = random.Random(0)
        digest = hashlib.sha256()
        counts = collections.Counter()
        for _ in range(2000):
            d, n = rng.randint(2, 9), rng.randint(3, 25)
            k, r = rng.randint(2, 3), rng.randint(0, 2)
            base = [rng.choice("01") for _ in range(d)]
            rows = []
            for _ in range(n):
                cells = list(base)
                for j in rng.sample(range(d), rng.randint(0, min(d, r + 2))):
                    cells[j] = rng.choice("01?")
                rows.append("".join(cells))
            instance = inst(rows, k, r, d)
            th = Thresholds(rng.randint(1, 6), rng.randint(2, 4))
            records = []
            for i in range(n):
                try:
                    records.append(find_prunable_row(instance, i, th))
                except (NotApplicableError, ContractError) as error:
                    records.append(type(error).__name__)
            digest.update(repr(records).encode())
            counts.update("pruned" if isinstance(x, int) else str(x) for x in records)
        assert counts == {"pruned": 11727, "None": 11914, "NotApplicableError": 4629}
        assert digest.hexdigest() == PRUNE_CHOICES_DIGEST

    def test_unit_vector_family(self):
        instance = inst(["0000", "1000", "0100", "0010", "0001"], 2, 1)
        th = Thresholds(5, 3)
        f = find_prunable_row(instance, 0, th)
        assert f in {1, 2, 3, 4}
        remaining = Instance(instance.rows[:f] + instance.rows[f + 1 :], 2, 1, 4)
        assert exhaustive_solve(instance).answer == exhaustive_solve(remaining).answer

    def test_heavy_row_blocks_pruning(self):
        instance = inst(["???0", "1000", "0100", "0010", "0001"], 2, 1)
        th = Thresholds(5, 3)
        with pytest.raises(NotApplicableError):
            find_prunable_row(instance, 1, th)

    def test_small_neighborhood_blocks_pruning(self):
        instance = inst(["0000", "1111"], 2, 1)
        th = Thresholds(5, 3)
        with pytest.raises(NotApplicableError):
            find_prunable_row(instance, 0, th)

    def test_duplicates_do_not_count_towards_the_lemma(self):
        # Target 3 at size 1 needs more than 1! * (3-1)^1 = 2 distinct
        # signatures.  The copies of 1000 reach that count only as repeats,
        # and {1}, {1}, {2} holds no 3-member sunflower, so the first two
        # families have nothing to prune; the third has three distinct sets.
        th = Thresholds(3, 3)
        families = (
            (["0000", "1000", "1000"], None),
            (["0000", "1000", "1000", "0100"], None),
            (["0000", "1000", "1000", "0100", "0010"], 1),
        )
        for rows, expected in families:
            instance = inst(rows, 2, 1)
            f = find_prunable_row(instance, 0, th)
            assert f == expected, rows
            if f is not None:
                remaining = Instance(instance.rows[:f] + instance.rows[f + 1 :], 2, 1, 4)
                assert exhaustive_solve(instance).answer == exhaustive_solve(remaining).answer

    def test_override_fuzz_hands_over_instead_of_raising(self, monkeypatch):
        # Shrunken gates void the pigeonhole step, so many neighborhoods hold
        # no sunflower of the target size; the kernel must then leave the
        # rows to the exact search.
        rng = random.Random(7)
        pruned = 0
        for _ in range(600):
            k, r = rng.randint(2, 3), rng.randint(0, 1)
            d, n = rng.randint(3, 6), rng.randint(3, 12)
            rows = ["".join(rng.choice("01?") for _ in range(d)) for _ in range(n)]
            gate, target = rng.randint(1, 4), rng.randint(2, 4)
            instance = inst(rows, k, r, d)
            patch_gates(monkeypatch, gate, target)
            outcome = solve(instance)
            pruned += any(e.kind == PRUNED for e in outcome.trace)
            if outcome.answer:
                assert verify_solution(instance, outcome.witness).ok
        assert pruned >= 5


def is_clique(rows, r):
    """Whether every pair of rows can still be completed more than r apart,
    by a walk over their characters."""
    return all(
        sum(x != y or "?" in (x, y) for x, y in zip(a.text, b.text)) > r
        for a, b in itertools.combinations(rows, 2)
    )


def pairwise_neighborhoods(rows, r):
    """Each row's r-neighborhood by its definition: the rows at known
    distance <= r from it, itself included."""
    return [sum(1 << j for j, b in enumerate(rows) if known_distance(a, b) <= r) for a in rows]


def chain_rows(rng, d):
    """A base row and its d copies with one ? each, shuffled."""
    base = "".join(rng.choice("01") for _ in range(d))
    rows = [base] + [base[:i] + "?" + base[i + 1 :] for i in range(d)]
    rng.shuffle(rows)
    return rows


class TestNeighborhoodMasks:
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_matches_pairwise_known_distance(self, r):
        # Light rows at k=3 around a few centres, at most r+1 flips away:
        # complete rows, copies and rows at the budget of 2(r+1) unknowns.
        rng = random.Random(r)
        budget = 2 * (r + 1)
        for _ in range(60):
            d = rng.randint(1, 9)
            centres = [[rng.choice("01") for _ in range(d)] for _ in range(rng.randint(1, 3))]
            texts = []
            for _ in range(rng.randint(1, 14)):
                cells = list(rng.choice(centres))
                for j in rng.sample(range(d), rng.randint(0, min(d, r + 1))):
                    cells[j] = "10"[int(cells[j])]
                unknowns = rng.choice([0, min(d, budget), rng.randint(0, min(d, budget))])
                for j in rng.sample(range(d), unknowns):
                    cells[j] = "?"
                texts.append("".join(cells))
            texts += rng.sample(texts, rng.randint(0, len(texts)))
            rows = inst(texts, 3, r, d).rows
            assert solver._neighborhood_masks(rows, r) == pairwise_neighborhoods(rows, r), texts

    @pytest.mark.parametrize("texts, r", [(["0?1"], 1), (["0", "1", "?", "0"], 0), (["0", "1", "?"], 1)])
    def test_one_row_and_one_column(self, texts, r):
        rows = inst(texts, 2, r).rows
        assert solver._neighborhood_masks(rows, r) == pairwise_neighborhoods(rows, r)

    def test_matches_pairwise_on_the_801_row_chain(self):
        rows = inst(chain_rows(random.Random(801), 800), 2, 0).rows
        near = solver._neighborhood_masks(rows, 0)
        assert near == pairwise_neighborhoods(rows, 0)
        assert all(mask == (1 << 801) - 1 for mask in near)

    def test_lookups_within_the_pair_tests_they_replace(self):
        # The docstring's cost claim.  At every (k, r) whose gate lets the
        # kernel run (k >= 2: below that greedy decides alone), a row with
        # at most 2^((k-1)(r+1)) completions makes at most k * gate <= n
        # lookups over the V(d, r) flips of weight <= r at d = 100,000,
        # where the pair loop tested it against the n-1 other rows.
        def volume(d, r):
            return sum(math.comb(d, w) for w in range(r + 1))

        runs = []
        for k in range(2, 64):
            for r in range(64):
                gate = neighborhood_gate(k, r)
                if gate < CAP:
                    assert 2 ** ((k - 1) * (r + 1)) * volume(100_000, r) <= k * gate, (k, r)
                    runs.append((k, r))
        assert runs == [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (4, 0), (5, 0), (6, 0)]


class TestBruteForce:
    def test_no_when_distance_unreachable(self):
        assert brute_force(inst(["00", "01"], 2, 1)) is None

    def test_wildcard_completion_found(self):
        instance = inst(["0?", "11"], 2, 1)
        picks = brute_force(instance)
        assert picks is not None
        assert [v.text for v in lift(instance, picks, ()).completed] == ["00", "11"]

    def test_empty_instance_k0(self):
        assert brute_force(Instance((), 0, 5, 0)) == {}

    def test_wide_empty_instance_memory_follows_input(self):
        # No row, so no mask of d bits is needed; a d-bit mask alone is 12.5 MB.
        tracemalloc.start()
        try:
            outcome = solve(Instance((), 2, 0, 10**8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not outcome.answer
        assert peak < 1_000_000

    @staticmethod
    def reference(instance):
        """Every k-subset in order, every completion of it in counting order,
        checking each pair as it goes: the walk the clique search replaces."""
        need = instance.r + 1
        rows = instance.rows
        for subset in itertools.combinations(range(instance.n), instance.k):
            options = []
            for i in subset:
                fills = itertools.product("01", repeat=rows[i].unknown_count)
                options.append([fill_unknowns(rows[i], f) for f in fills])
            chosen = []

            def descend(depth):
                if depth == len(subset):
                    return True
                for row in options[depth]:
                    if all(known_distance(row, prev) >= need for prev in chosen):
                        chosen.append(row)
                        if descend(depth + 1):
                            return True
                        chosen.pop()
                return False

            if descend(0):
                lookup = dict(zip(subset, chosen))
                completed = [lookup.get(i, row.complete_zeros()) for i, row in enumerate(rows)]
                return [row.text for row in completed], sorted(subset)
        return None

    def test_matches_subset_walk(self):
        rng = random.Random(41)
        kinds = {"yes": 0, "no": 0, "k=0": 0, "k>n": 0, "n=0": 0, "cut": 0}
        for trial in range(2000):
            # The last 500 draw all-? and mostly-? rows, whose cliques the
            # counting bound refuses; the reference walk has no such cut.
            dense = trial >= 1500
            n, d = rng.randint(0, 9), rng.randint(1, 4 if dense else 6)
            k, r = rng.randint(0, 5), rng.randint(0, 3)
            density = rng.choice((0.7, 1.0)) if dense else rng.uniform(0.0, 0.4)
            rows = [
                "".join("?" if rng.random() < density else rng.choice("01") for _ in range(d))
                for _ in range(n)
            ]
            instance = inst(rows, k, r, d)
            kinds["cut"] += any(
                is_clique(subset, r) and solver._below_plotkin(subset, r + 1)
                for subset in itertools.combinations(instance.rows, k)
            )
            picks = brute_force(instance)
            expected = self.reference(instance)
            assert (picks is not None) == (expected is not None), rows
            if expected is not None:
                witness = lift(instance, picks, ())
                assert ([v.text for v in witness.completed], sorted(witness.selected)) == expected
            kinds["yes" if picks is not None else "no"] += 1
            kinds["k=0"] += k == 0
            kinds["k>n"] += k > n
            kinds["n=0"] += n == 0
        assert min(kinds.values()) >= 50, kinds

    def test_many_unknowns_answer_fast(self):
        # The first row keeps 20 = (k-1)(r+1) unknowns, so all 2^20 of its
        # completions are built before the first is tried; the bound keeps
        # that building linear in the number of completions.
        instance = inst(["?" * 20 + "0000", "0" * 24, "1" * 12 + "0" * 12], 3, 9)
        started = time.perf_counter()
        outcome = solve(instance)
        elapsed = time.perf_counter() - started
        assert outcome.answer and outcome.method == "brute-force"
        assert verify_solution(instance, outcome.witness).ok
        assert elapsed < 1

    def test_clustered_no_at_160_rows(self):
        # Every row is 5 flips from one base, so no pair reaches r+1 = 11;
        # walking all C(160, 4) subsets took 10-14 s.
        rng = random.Random(160)
        d = 24
        base = [rng.choice("01") for _ in range(d)]
        rows = []
        for _ in range(160):
            cells = list(base)
            for p in rng.sample(range(d), 5):
                cells[p] = "1" if cells[p] == "0" else "0"
            rows.append("".join(cells))
        instance = inst(rows, 4, 10, d)
        started = time.perf_counter()
        outcome = solve(instance)
        elapsed = time.perf_counter() - started
        assert not outcome.answer and outcome.method == "brute-force"
        assert elapsed < 5

    @pytest.mark.parametrize(
        "rows, k, r",
        [
            # plot.inst: each of its cliques walked up to 256^4 completion
            # tuples, 50-70 s in all, before the counting bound refused it.
            (["????????"] * 5 + ["?0?0????", "????????", "???????0", "?0??????"], 5, 4),
            # 7 * floor(81/4) = 140 < C(9,2) * 4 = 144; never finished before.
            (["???????"] * 9, 9, 3),
        ],
    )
    def test_no_beyond_the_counting_bound_answers_fast(self, rows, k, r):
        instance = inst(rows, k, r)
        started = time.perf_counter()
        outcome = solve(instance)
        elapsed = time.perf_counter() - started
        assert not outcome.answer and outcome.method == "brute-force"
        assert elapsed < 1

    def test_counting_bound_refuses_only_unsolvable_cliques(self):
        # Every pairwise-compatible clique `_below_plotkin` refuses has no
        # completion `_assign` accepts; the cut fires often, at k >= 4 too.
        rng = random.Random(19)
        refused = dict.fromkeys(range(2, 6), 0)
        for _ in range(3000):
            k, r, d = rng.randint(2, 5), rng.randint(0, 4), rng.randint(1, 6)
            density = rng.choice((0.0, 0.3, 0.6, 1.0))
            shared = set(rng.sample(range(d), rng.randint(0, d)))
            clique = [
                PartialVector(
                    "".join(
                        "?" if j in shared or rng.random() < density else rng.choice("01")
                        for j in range(d)
                    )
                )
                for _ in range(k)
            ]
            if is_clique(clique, r) and solver._below_plotkin(clique, r + 1):
                refused[k] += 1
                masks = [solver._completion_masks(v) for v in clique]
                assert solver._assign(masks, r + 1) is None, [v.text for v in clique]
        assert refused[2] == 0 and refused[4] + refused[5] >= 200, refused
        assert sum(refused.values()) >= 300, refused

    def test_three_rows_refuse_what_the_whole_count_lets_through(self, monkeypatch):
        # The four rows count 2 * 4 + 11 = 19 >= C(4,2) * 3, but rows 0, 2
        # and 3 only 2 * 2 + 4 = 8 < 3 * 3: on the ? columns row 0 must sit
        # 2 from both others, which leaves those two equal there.
        instance = inst(["??110", "??001", "??010", "??100"], 4, 2)
        masks = [solver._completion_masks(v) for v in instance.rows]
        assert solver._assign(masks, 3) is None
        assert solver._below_plotkin(instance.rows, 3)

        def fail(options, need):
            raise AssertionError("_assign reached")

        monkeypatch.setattr(solver, "_assign", fail)
        assert brute_force(instance) is None

    def test_slack_gate_skips_only_walks_that_refuse_nothing(self):
        # `_below_plotkin` against the count with every triple walked, both
        # by a walk over characters.  Each clique's rows hold m ? each, so
        # the gate (min pair reach - need >= m) skips the walk on many
        # cliques and leaves it on many, and some refused cliques sit one
        # short of the gate, where a gate off by one would let them through.
        def short(rows, need):
            k, total = len(rows), 0
            for column in zip(*(v.text for v in rows)):
                total += k * k // 4 if "?" in column else column.count("0") * column.count("1")
            return total < k * (k - 1) // 2 * need

        def reach(a, b):
            return sum(x != y or "?" in (x, y) for x, y in zip(a.text, b.text))

        rng = random.Random(26)
        seen = dict.fromkeys(("skipped", "walked", "one short"), 0)
        cliques = 0
        while cliques < 3000:
            k, r = rng.randint(4, 7), rng.randint(0, 5)
            d, m = rng.randint(4, 10), rng.randint(1, 3)
            clique = []
            for _ in range(k):
                cells = [rng.choice("01") for _ in range(d)]
                for j in rng.sample(range(d), m):
                    cells[j] = "?"
                clique.append(PartialVector("".join(cells)))
            if not is_clique(clique, r):
                continue
            cliques += 1
            whole = short(clique, r + 1)
            refused = whole or any(short(t, r + 1) for t in itertools.combinations(clique, 3))
            assert solver._below_plotkin(clique, r + 1) == refused, [v.text for v in clique]
            slack = min(reach(a, b) for a, b in itertools.combinations(clique, 2)) - (r + 1)
            if not whole:
                seen["skipped" if slack >= m else "walked"] += 1
                seen["one short"] += slack == m - 1 and refused
        assert seen["skipped"] >= 1000 and seen["walked"] >= 1000 and seen["one short"] >= 30, seen

    @pytest.mark.parametrize(
        "texts, k, r, cliques",
        [
            # The bench's first hard-no case: one clique of five all-? rows,
            # whose `_assign` walk opens 3,393 levels in about 7 ms.
            (["?????"] * 5, 5, 2, 1),
            # Four 4-cliques of these seven rows fail in `_assign`, 16 rows
            # in all, so rows recur across its calls.
            (["??0110", "01??10", "?1??1?", "1?0100", "?000??", "??01??", "10000?"], 4, 3, 4),
        ],
    )
    def test_completions_built_once_per_row(self, monkeypatch, texts, k, r, cliques):
        instance = inst(texts, k, r)
        built = collections.Counter()
        calls = []
        complete, assign = solver._completion_masks, solver._assign

        def counted_complete(row):
            built[id(row)] += 1
            return complete(row)

        def counted_assign(options, need):
            calls.append(len(options))
            return assign(options, need)

        monkeypatch.setattr(solver, "_completion_masks", counted_complete)
        monkeypatch.setattr(solver, "_assign", counted_assign)
        assert brute_force(instance) is None
        assert calls == [k] * cliques
        assert set(built.values()) == {1}


class TestExhaustive:
    def test_single_wildcard(self):
        assert exhaustive_solve(inst(["?"], 1, 0)).answer

    def test_opposite_completions(self):
        outcome = exhaustive_solve(inst(["?", "?"], 2, 0))
        assert outcome.answer
        assert {v.text for v in outcome.witness.completed} == {"0", "1"}

    def test_canonical_witness_is_least(self):
        outcome = exhaustive_solve(inst(["??", "??"], 2, 1))
        # least completion pair realizing pairwise distance 2
        assert [v.text for v in outcome.witness.completed] == ["00", "11"]

    def test_caps_enforced(self):
        with pytest.raises(OracleLimitError):
            exhaustive_solve(inst(["0"] * 17, 1, 0))
        with pytest.raises(OracleLimitError):
            exhaustive_solve(inst(["?" * 21], 1, 0))


class TestSolve:
    def test_trivial_yes(self):
        assert solve(inst(["000", "111"], 2, 2)).answer

    def test_trivial_no(self):
        assert not solve(inst(["00", "01"], 2, 1)).answer

    def test_k0_always_yes(self):
        outcome = solve(inst(["01"], 0, 3))
        assert outcome.answer and outcome.witness.selected == frozenset()

    def test_k1_needs_a_row(self):
        assert solve(inst(["?"], 1, 5)).answer
        assert not solve(Instance((), 1, 0, 0)).answer

    def test_heavy_rows_traced_and_lifted(self):
        outcome = solve(inst(["????0", "00000"], 2, 1))
        assert outcome.answer
        assert any(e.kind == HEAVY for e in outcome.trace)
        assert verify_solution(inst(["????0", "00000"], 2, 1), outcome.witness).ok

    def test_duplicate_cap_recorded(self):
        rows = ["01"] * 5
        outcome = solve(inst(rows, 2, 0))
        assert sum(1 for e in outcome.trace if e.kind == "duplicate-cap") == 3
        assert not outcome.answer  # identical full rows are never r+1 apart

        # Stripping ???? drops k from 3 to 2, and the one cap, at the final
        # k, keeps the first two 0000 rows.  Each removal names its input row.
        instance = inst(["????", "0000", "0000", "0000", "0000", "1111"], 3, 0)
        outcome = solve(instance)
        assert [(e.index, instance.rows[e.index].text, e.kind) for e in outcome.trace] == [
            (0, "????", HEAVY),
            (3, "0000", DUPLICATE),
            (4, "0000", DUPLICATE),
        ]
        assert outcome.answer and outcome.method == "greedy"
        assert verify_solution(instance, outcome.witness).ok

    def test_micro_differential(self):
        rng = random.Random(99)
        for _ in range(400):
            n, d = rng.randint(1, 5), rng.randint(1, 4)
            k, r = rng.randint(0, 3), rng.randint(0, 2)
            rows = ["".join(rng.choice("01??") for _ in range(d)) for _ in range(n)]
            instance = inst(rows, k, r, d)
            got = solve(instance)
            expected = exhaustive_solve(instance)
            assert got.answer == expected.answer, rows
            if got.answer:
                assert verify_solution(instance, got.witness).ok

    def test_duplicate_cap_invariance(self):
        rng = random.Random(17)
        for _ in range(200):
            d = rng.randint(1, 4)
            base = "".join(rng.choice("01?") for _ in range(d))
            others = ["".join(rng.choice("01?") for _ in range(d)) for _ in range(rng.randint(0, 3))]
            k = rng.randint(1, 3)
            copies = rng.randint(k + 1, k + 3)
            many = inst([base] * copies + others, k, rng.randint(0, 2), d)
            capped = inst([base] * k + others, many.k, many.r, d)
            assert (
                exhaustive_solve(many, max_unknowns=40).answer
                == exhaustive_solve(capped, max_unknowns=40).answer
            )

    def test_override_pruning_fires_on_unit_family(self, monkeypatch):
        # 10 rows >= k * gate, and the zero row's 1-neighborhood holds all of
        # them, so the pruning step must run before enumeration takes over
        d = 9
        units = ["".join("1" if i == j else "0" for j in range(d)) for i in range(d)]
        instance = inst(["0" * d] + units, 2, 1, d)
        patch_gates(monkeypatch, 5, 3)
        outcome = solve(instance)
        assert any(e.kind == "pruned" for e in outcome.trace)
        assert outcome.answer == exhaustive_solve(instance).answer
        assert verify_solution(instance, outcome.witness).ok

    def test_greedy_bounded_after_pruning(self, monkeypatch):
        # Greedy picks p1 = e_1 and p2 = e_24 and then runs out: the first
        # removes the zero row and the 11 rows e_1 + e_j, the second the 11
        # rows e_c with a ? at coordinate 24.  The zero row has the largest
        # neighborhood and prunes p1; p2 then prunes the e_c rows while more
        # than 2!*(2-1)^2 = 2 are left.  At 15 = k * gate rows every
        # neighborhood is below the gate, so the guaranteed greedy decides.
        d = 24

        def row(*ones, unknown=None):
            cells = ["0"] * d
            for c in ones:
                cells[c] = "1"
            if unknown is not None:
                cells[unknown] = "?"
            return "".join(cells)

        rows = [row(0), row(23), row()]
        rows += [row(0, j) for j in range(1, 12)]
        rows += [row(c, unknown=23) for c in range(12, 23)]
        instance = inst(rows, 3, 1, d)
        assert greedy_attempt(instance) is None
        patch_gates(monkeypatch, 5, 2)
        outcome = solve(instance)
        assert outcome.method == "greedy-bounded"
        assert [e.kind for e in outcome.trace] == [PRUNED] * 10
        assert instance.rows[outcome.trace[0].index].text == rows[0]
        assert verify_solution(instance, outcome.witness).ok
        assert exhaustive_solve(instance, max_rows=instance.n).answer

    @staticmethod
    def two_centres(rng, copied):
        """The unit family around 0^d, plus the one-flip neighbours of a
        second centre 1110...0 at distance 3, shuffled; then `copied` of the
        flips get one or two copies each, so no row has more than k=3."""
        d = rng.randint(8, 11)
        centres = ["0" * d, "111" + "0" * (d - 3)]
        rows = []
        for centre in centres:
            for i in rng.sample(range(d), rng.randint(5, 7)):
                rows.append(centre[:i] + str(1 - int(centre[i])) + centre[i + 1 :])
        for text in rng.sample(rows, copied):
            rows += [text] * rng.randint(1, 2)
        rng.shuffle(rows)
        return inst(centres + rows, 3, 1, d)

    def test_kernel_prunes_like_full_recompute(self, monkeypatch):
        # Greedy picks the two centres and runs out of rows, the largest
        # neighborhood moves between them as rows are pruned, and some rows
        # sit exactly r+1 from the pruned ones, so stale or misapplied
        # neighborhood sizes change which rows go.  Each move of the
        # reference row builds its state again.
        rng = random.Random(1)
        thresholds = Thresholds(4, 3)
        patch_gates(monkeypatch, 4, 3)
        chains, rebuilds = 0, 0
        for _ in range(30):
            instance = self.two_centres(rng, 0)
            outcome, _, built = solve_checking_kept_state(monkeypatch, instance)
            assert list(outcome.trace) == reference_pruned(instance, thresholds)
            expected = exhaustive_solve(instance, max_rows=instance.n)
            assert outcome.answer == expected.answer
            assert verify_solution(instance, outcome.witness).ok
            chains += len(outcome.trace) >= 2
            rebuilds += built - 1
        assert chains >= 25 and rebuilds >= 40

    def test_kernel_prunes_like_full_recompute_with_copies(self, monkeypatch):
        # Copies share their row's signature, so pruning a signature's owner
        # hands the signature to its copy in the kept table, a later row
        # that must take the owner's place in the table's key order.
        rng = random.Random(2)
        thresholds = Thresholds(4, 3)
        patch_gates(monkeypatch, 4, 3)
        handed, rebuilds = 0, 0
        for _ in range(30):
            instance = self.two_centres(rng, 3)
            outcome, copies, built = solve_checking_kept_state(monkeypatch, instance)
            assert list(outcome.trace) == reference_pruned(instance, thresholds)
            assert outcome.answer == exhaustive_solve(instance, max_rows=instance.n).answer
            assert verify_solution(instance, outcome.witness).ok
            handed += copies
            rebuilds += built - 1
        assert handed >= 60 and rebuilds >= 80

    def test_pruned_rows_class_keeps_a_row(self, monkeypatch):
        # The rule takes the pruned row out of its class in the kept state.
        # The class holds more than alpha! * (target-1)^alpha >= 1 other
        # distinct signatures, so it still holds a row after each prune:
        # the kernel has no branch for a class that empties.
        texts = (
            "010 0?? 01? 00? 101 000 001 001 101 010 000 000 0?0 111 010 ?0? 010 ?01 001 000 00?"
            " ??? 001 001 001"
        ).split()
        instance = inst(texts, 3, 2, 3)
        prunes = 0
        real = solver._prunable_in

        def checked_rule(state, target):
            nonlocal prunes
            classes, _ = state
            class_of = {j: key for key, members in classes.items() for j in members}
            f = real(state, target)
            if f is not None:
                prunes += 1
                assert classes[class_of[f]], f
            return f

        monkeypatch.setattr(solver, "_prunable_in", checked_rule)
        patch_gates(monkeypatch, 6, 2)
        outcome, _, _ = solve_checking_kept_state(monkeypatch, instance)
        reduced, removals = reduce(instance)
        expected = [e.index for e in reference_pruned(reduced, Thresholds(6, 2))]
        pruned = [Removal(i, PRUNED) for i in solver._at_input(expected, removals)]
        assert list(outcome.trace) == removals + pruned
        assert prunes >= 1
        assert not outcome.answer
        assert not exhaustive_solve(instance, max_rows=instance.n).answer

    def test_kernel_hands_unpruned_rows_over_as_they_are(self, monkeypatch):
        # The zero row's neighborhood reaches gate 5, but target 40 needs
        # more than 39 distinct signatures of size 1 and the 9 unit rows give
        # 9, so nothing is pruned: the exact search gets the very instance
        # that greedy saw, not a copy.
        d = 9
        units = ["".join("1" if i == j else "0" for j in range(d)) for i in range(d)]
        instance = inst(["0" * d] + units, 2, 1, d)
        seen = []
        for name in ("greedy_attempt", "brute_force"):
            stage = getattr(solver, name)
            monkeypatch.setattr(solver, name, lambda x, stage=stage: seen.append(x) or stage(x))
        patch_gates(monkeypatch, 5, 40)
        outcome = solve(instance)
        assert (outcome.method, outcome.trace) == ("brute-force", ())
        assert len(seen) == 2 and seen[1] is seen[0]

    @pytest.mark.parametrize("d, pruned", [(53, 1), (60, 8), (80, 28)])
    def test_certified_kernel_prunes_chain(self, monkeypatch, d, pruned):
        # A base row and its d copies with one ? each, k=2, r=0: every pair
        # sits at known distance 0, so greedy fails and every neighborhood
        # reaches the certified gate 27.  The kernel prunes down to 53 rows,
        # below k * gate = 54, and the exact search decides.
        instance = inst(chain_rows(random.Random(d), d), 2, 0, d)
        outcome, _, builds = solve_checking_kept_state(monkeypatch, instance)
        assert builds == 1
        assert [e.kind for e in outcome.trace] == [PRUNED] * pruned
        assert list(outcome.trace) == reference_pruned(instance, Thresholds.for_parameters(2, 0))
        assert dict(outcome.stats)["kernel_rows"] == 54
        assert outcome.method == "brute-force"
        assert outcome.answer and verify_solution(instance, outcome.witness).ok

    def test_prunes_walk_no_neighborhood(self, monkeypatch):
        # The 801-row chain prunes 748 rows, and the pruned row's
        # neighborhood holds every row still alive.  The kernel lists the
        # rows of a neighborhood only to build the reference state, once,
        # and of `alive` once, for the exact search, so `_bit_indices` walks
        # at most 2 * n bits; a walk over each pruned row's neighborhood
        # text would take about 600,000.
        instance = inst(chain_rows(random.Random(801), 800), 2, 0)
        walked, states = 0, 0
        bit_indices, reference_state = solver._bit_indices, solver._reference_state

        def counted_bits(mask):
            nonlocal walked
            walked += mask.bit_length()
            return bit_indices(mask)

        def counted_state(*args):
            nonlocal states
            states += 1
            return reference_state(*args)

        monkeypatch.setattr(solver, "_bit_indices", counted_bits)
        monkeypatch.setattr(solver, "_reference_state", counted_state)
        outcome = solve(instance)
        assert [e.kind for e in outcome.trace] == [PRUNED] * 748
        assert outcome.method == "brute-force"
        assert states == 1 and walked <= 2 * instance.n

    def test_kernel_names_pruned_rows_by_input_index(self):
        # The d=60 chain, its first three rows in three copies each: `reduce`
        # caps them at k=2 copies, removing input rows 2, 5 and 8, and the
        # kernel prunes the 64 rows left to 53, so a prune's position in the
        # reduced rows is not its input index.
        rng = random.Random(5)
        d = 60
        base = "".join(rng.choice("01") for _ in range(d))
        rows = [base] + [base[:i] + "?" + base[i + 1 :] for i in range(d)]
        rng.shuffle(rows)
        rows[:3] = [text for text in rows[:3] for _ in range(3)]
        instance = inst(rows, 2, 0, d)
        reduced, _ = reduce(instance)
        outcome = solve(instance)
        assert [e.kind for e in outcome.trace] == [DUPLICATE] * 3 + [PRUNED] * 11
        assert [e.index for e in outcome.trace[:3]] == [2, 5, 8]
        expected = reference_pruned(reduced, Thresholds.for_parameters(2, 0))
        pruned_rows = [instance.rows[e.index] for e in outcome.trace[3:]]
        assert pruned_rows == [reduced.rows[e.index] for e in expected]
        assert any(e.index != f.index for e, f in zip(outcome.trace[3:], expected))
        assert outcome.answer and verify_solution(instance, outcome.witness).ok

    def test_threshold_overrides_are_not_solve_arguments(self):
        with pytest.raises(TypeError):
            solve(inst(["0?", "11"], 2, 1), gate_override=5)

    def test_stats_repeat_across_runs(self):
        rng = random.Random(29)
        for _ in range(200):
            n, d = rng.randint(0, 12), rng.randint(1, 6)
            rows = ["".join(rng.choice("01??") for _ in range(d)) for _ in range(n)]
            rows += rows[: rng.randint(0, n)]
            instance = inst(rows, rng.randint(0, 4), rng.randint(0, 2), d)
            first, second = solve(instance), solve(instance)
            assert [name for name, _ in first.stats] == [
                "rows_in",
                "rows_reduced",
                "k_reduced",
                "kernel_rows",
            ]
            assert first.stats == second.stats
            stats = dict(first.stats)
            assert stats["rows_in"] == instance.n
            assert (stats["kernel_rows"] is None) == (stats["k_reduced"] < 2)
            # k * gate saturates like the gate: k=3, r=2 already has gate CAP.
            if stats["kernel_rows"] is not None:
                assert stats["kernel_rows"] == min(
                    stats["k_reduced"] * neighborhood_gate(stats["k_reduced"], instance.r), CAP
                )
        # plot.inst's parameters, where k * gate once read 5 * CAP.
        outcome = solve(inst(["0" * 8, "1" * 8], 5, 4, 8))
        assert dict(outcome.stats)["kernel_rows"] == CAP

    def test_stage_timings_present(self):
        outcome = solve(inst(["0?", "11"], 2, 1))
        names = [name for name, _ in outcome.stage_seconds]
        assert "reduce" in names and "decide" in names

    def test_witness_determinism(self):
        rng = random.Random(23)
        for _ in range(40):
            n, d = rng.randint(1, 5), rng.randint(1, 4)
            rows = ["".join(rng.choice("01?") for _ in range(d)) for _ in range(n)]
            instance = inst(rows, rng.randint(0, 3), rng.randint(0, 2), d)
            assert solve(instance).witness == solve(instance).witness
            assert exhaustive_solve(instance).witness == exhaustive_solve(instance).witness


def naive_canonical(instance):
    """Reference for the canonical witness: scan full-grid completions in
    counting order, and subsets lexicographically within each completion."""
    slots = sum(row.unknown_count for row in instance.rows)
    for assignment in itertools.product("01", repeat=slots):
        bits = iter(assignment)
        completed = tuple(fill_unknowns(row, bits) for row in instance.rows)
        for subset in itertools.combinations(range(instance.n), instance.k):
            if all(
                known_distance(completed[a], completed[b]) > instance.r
                for a, b in itertools.combinations(subset, 2)
            ):
                return Solution(completed, frozenset(subset))
    return None


def test_exhaustive_witness_is_grid_canonical():
    rng = random.Random(31)
    yes_cases = 0
    for _ in range(120):
        n, d = rng.randint(1, 5), rng.randint(1, 4)
        rows = [
            "".join(rng.choice("01?") if rng.random() < 0.4 else rng.choice("01") for _ in range(d))
            for _ in range(n)
        ]
        instance = inst(rows, rng.randint(0, 3), rng.randint(0, 2), d)
        if sum(row.unknown_count for row in instance.rows) > 8:
            continue
        expected = naive_canonical(instance)
        got = exhaustive_solve(instance)
        if expected is None:
            assert not got.answer
        else:
            assert got.answer and got.witness == expected
            yes_cases += 1
    assert yes_cases > 20


def least_pair(instance):
    """Reference for `exhaustive_solve`: the least (completion matrix,
    subset) over every k-subset and every completion of its rows, with the
    rows outside the subset set to zeros; None when no subset is valid."""
    zeros = [row.text.replace("?", "0") for row in instance.rows]

    def completions(text):
        for bits in itertools.product("01", repeat=text.count("?")):
            fill = iter(bits)
            yield "".join(next(fill) if c == "?" else c for c in text)

    best = None
    for subset in itertools.combinations(range(instance.n), instance.k):
        options = [completions(instance.rows[i].text) for i in subset]
        for texts in itertools.product(*options):
            if all(
                sum(x != y for x, y in zip(a, b)) > instance.r
                for a, b in itertools.combinations(texts, 2)
            ):
                matrix = list(zeros)
                for i, text in zip(subset, texts):
                    matrix[i] = text
                if best is None or (matrix, subset) < best:
                    best = (matrix, subset)
    return best


def test_exhaustive_is_least_pair():
    """`exhaustive_solve` returns the least (completion matrix, subset), also
    when several subsets are valid under that least matrix (a tie)."""
    rng = random.Random(5)
    yes = ties = 0
    for _ in range(3000):
        n, d = rng.randint(0, 5), rng.randint(1, 3)
        bases = ["".join(rng.choice("01?") for _ in range(d)) for _ in range(rng.randint(1, 3))]
        rows = [
            rng.choice(bases) if rng.random() < 0.5 else "".join(rng.choice("01?") for _ in range(d))
            for _ in range(n)
        ]
        instance = inst(rows, rng.randint(0, 4), rng.randint(0, 2), d)
        expected = least_pair(instance)
        got = exhaustive_solve(instance)
        if expected is None:
            assert not got.answer
            continue
        matrix, subset = expected
        assert got.witness == Solution(tuple(map(PartialVector, matrix)), frozenset(subset))
        yes += 1
        ties += any(
            other != subset
            and all(
                sum(x != y for x, y in zip(matrix[a], matrix[b])) > instance.r
                for a, b in itertools.combinations(other, 2)
            )
            for other in itertools.combinations(range(instance.n), instance.k)
        )
    assert yes >= 1000 and ties >= 400, (yes, ties)
