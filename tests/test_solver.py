import itertools
import random

import pytest

from divset import (
    ContractError,
    Instance,
    NotApplicableError,
    OracleLimitError,
    PartialVector,
    Solution,
    Thresholds,
    brute_force,
    exhaustive_solve,
    find_prunable_row,
    greedy_attempt,
    greedy_select,
    known_distance,
    lift_heavy_row,
    neighborhood,
    neighborhood_bound,
    neighborhood_gate,
    row_signature,
    solve,
    strip_heavy_row,
    sunflower_target,
    verify_solution,
)
from divset.solver import DUPLICATE, HEAVY, PRUNED, Removal, SATURATION_CAP

CAP = SATURATION_CAP


def inst(texts, k, r, d=None):
    return Instance.from_texts(texts, k, r, d)


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

    def test_override_flags_uncertified(self):
        th = Thresholds.for_parameters(2, 1, gate_override=5)
        assert not th.certified and th.gate == 5
        assert Thresholds.for_parameters(2, 1).certified


class TestHeavyRows:
    def test_removes_heavy_row(self):
        reduced, removal = strip_heavy_row(inst(["????0", "00000"], 2, 1))
        assert removal.index == 0 and removal.row.text == "????0"
        assert reduced.k == 1
        assert [r.text for r in reduced.rows] == ["00000"]

    def test_k1_any_wildcard_qualifies(self):
        reduced, removal = strip_heavy_row(inst(["0?0"], 1, 2))
        assert reduced.k == 0 and removal.row.text == "0?0"

    def test_not_applicable(self):
        assert strip_heavy_row(inst(["0?", "11"], 2, 1)) is None

    def test_lift_opposes_each_selected_vector(self):
        reduced_solution = Solution((PartialVector("0000"),), frozenset({0}))
        removal = Removal(0, PartialVector("???0"), HEAVY)
        lifted = lift_heavy_row(reduced_solution, removal, r=1)
        assert lifted.completed[0].text == "1100"
        assert lifted.selected == {0, 1}

    def test_lift_to_k1(self):
        removal = Removal(0, PartialVector("??"), HEAVY)
        lifted = lift_heavy_row(Solution((), frozenset()), removal, r=3)
        assert lifted.completed[0].text == "00"
        assert lifted.selected == {0}

    def test_lift_rejects_broken_witness(self):
        bad = Solution((PartialVector("00"), PartialVector("01")), frozenset({0, 1}))
        with pytest.raises(ContractError):
            lift_heavy_row(bad, Removal(0, PartialVector("??"), HEAVY), r=1)

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
            stripped = strip_heavy_row(original)
            if stripped is None:
                continue
            reduced, removal = stripped
            before = exhaustive_solve(original)
            after = exhaustive_solve(reduced)
            assert before.answer == after.answer
            if after.answer:
                lifted = lift_heavy_row(after.witness, removal, r)
                assert verify_solution(original, lifted).ok
                hits += 1
        assert hits > 10


class TestGreedy:
    def test_picks_lowest_indices(self):
        solution = greedy_attempt(inst(["000", "011", "101", "110"], 2, 1))
        assert solution.selected == {0, 1}
        assert exhaustive_solve(inst(["000", "011", "101", "110"], 2, 1)).answer

    def test_zero_k(self):
        assert greedy_attempt(inst(["01"], 0, 1)).selected == frozenset()

    def test_failure_returns_none(self):
        assert greedy_attempt(inst(["00", "01"], 2, 1)) is None

    def test_guaranteed_variant_checks_preconditions(self):
        instance = inst(["000", "011", "101", "110"], 2, 1)
        th = Thresholds.for_parameters(2, 1, gate_override=2)
        solution = greedy_select(instance, th)
        assert solution.selected == {0, 1}
        with pytest.raises(NotApplicableError):
            greedy_select(instance, Thresholds.for_parameters(2, 1, gate_override=3))


class TestPruning:
    def test_signature_construction(self):
        sig = row_signature(PartialVector("0000"), PartialVector("1?00"))
        assert sig == {("d", 0), ("u", 1)}

    def test_unit_vector_family(self):
        instance = inst(["0000", "1000", "0100", "0010", "0001"], 2, 1)
        th = Thresholds.for_parameters(2, 1, gate_override=5, target_override=3)
        f = find_prunable_row(instance, 0, th)
        assert f in {1, 2, 3, 4}
        remaining = Instance(instance.rows[:f] + instance.rows[f + 1 :], 2, 1, 4)
        assert exhaustive_solve(instance).answer == exhaustive_solve(remaining).answer

    def test_heavy_row_blocks_pruning(self):
        instance = inst(["???0", "1000", "0100", "0010", "0001"], 2, 1)
        th = Thresholds.for_parameters(2, 1, gate_override=5, target_override=3)
        with pytest.raises(NotApplicableError):
            find_prunable_row(instance, 1, th)

    def test_small_neighborhood_blocks_pruning(self):
        instance = inst(["0000", "1111"], 2, 1)
        th = Thresholds.for_parameters(2, 1, gate_override=5, target_override=3)
        with pytest.raises(NotApplicableError):
            find_prunable_row(instance, 0, th)


class TestBruteForce:
    def test_no_when_distance_unreachable(self):
        assert not brute_force(inst(["00", "01"], 2, 1)).answer

    def test_wildcard_completion_found(self):
        outcome = brute_force(inst(["0?", "11"], 2, 1))
        assert outcome.answer
        assert [v.text for v in outcome.witness.completed] == ["00", "11"]

    def test_empty_instance_k0(self):
        outcome = brute_force(Instance((), 0, 5, 0))
        assert outcome.answer and outcome.witness.selected == frozenset()


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

        # The first cap keeps three 0000 rows for k = 3; stripping ???? drops
        # k to 2, so the second cap removes one more copy.
        instance = inst(["????", "0000", "0000", "0000", "0000", "1111"], 3, 0)
        outcome = solve(instance)
        kinds = [e.kind for e in outcome.trace]
        assert {kind: kinds.count(kind) for kind in kinds} == {DUPLICATE: 2, HEAVY: 1}
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

    def test_override_pruning_fires_on_unit_family(self):
        # 10 rows >= k * gate, and the zero row's 1-neighborhood holds all of
        # them, so the pruning step must run before enumeration takes over
        d = 9
        units = ["".join("1" if i == j else "0" for j in range(d)) for i in range(d)]
        instance = inst(["0" * d] + units, 2, 1, d)
        outcome = solve(instance, gate_override=5, target_override=3)
        assert any(e.kind == "pruned" for e in outcome.trace)
        assert outcome.answer == exhaustive_solve(instance).answer
        assert verify_solution(instance, outcome.witness).ok

    def test_kernel_prunes_like_full_recompute(self):
        # The unit family around 0^d, plus the one-flip neighbours of a second
        # centre 1110...0 at distance 3.  Greedy picks the two centres and runs
        # out of rows, the largest neighborhood moves between them as rows are
        # pruned, and some rows sit exactly r+1 from the pruned ones, so stale
        # or misapplied neighborhood sizes change which rows go.
        def reference_pruned(instance, thresholds):
            current, pruned = instance, []
            while current.n >= instance.k * thresholds.gate:
                sizes = [len(neighborhood(current, i, instance.r)) for i in range(current.n)]
                if max(sizes) < thresholds.gate:
                    break
                f = find_prunable_row(current, sizes.index(max(sizes)), thresholds)
                pruned.append(Removal(f, current.rows[f], PRUNED))
                rows = current.rows[:f] + current.rows[f + 1 :]
                current = Instance(rows, instance.k, instance.r, instance.d)
            return pruned

        rng = random.Random(1)
        thresholds = Thresholds.for_parameters(3, 1, gate_override=4, target_override=3)
        chains = 0
        for _ in range(30):
            d = rng.randint(8, 11)
            centres = ["0" * d, "111" + "0" * (d - 3)]
            rows = []
            for centre in centres:
                for i in rng.sample(range(d), rng.randint(5, 7)):
                    rows.append(centre[:i] + str(1 - int(centre[i])) + centre[i + 1 :])
            rng.shuffle(rows)
            instance = inst(centres + rows, 3, 1, d)
            outcome = solve(instance, gate_override=4, target_override=3)
            assert list(outcome.trace) == reference_pruned(instance, thresholds)
            expected = exhaustive_solve(instance, max_rows=instance.n)
            assert outcome.answer == expected.answer
            assert verify_solution(instance, outcome.witness).ok
            chains += len(outcome.trace) >= 2
        assert chains >= 25

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
    slots = [
        (i, p) for i, row in enumerate(instance.rows) for p in row.unknown_positions()
    ]
    for assignment in itertools.product("01", repeat=len(slots)):
        fills = {}
        for (i, p), bit in zip(slots, assignment):
            fills.setdefault(i, {})[p] = bit
        completed = tuple(
            row.completed_with(fills.get(i, {})) for i, row in enumerate(instance.rows)
        )
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
