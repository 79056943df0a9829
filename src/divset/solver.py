"""Exact decision procedure for the diversity-completion problem.

`solve` runs reduce -> greedy -> kernel -> exact -> lift -> verify.  Reduce
caps duplicate rows at k copies and strips rows with more than (k-1)(r+1)
unknowns, decrementing k.  A cheap greedy pass looks for a certificate.  While
at least k * gate rows remain, the kernel answers with the guaranteed greedy
once every neighborhood is sparse, or prunes a row whose removal a sunflower
argument shows preserves the answer; it keeps the neighborhood sizes up to
date across removals.  Below the gate the exact search decides.  A YES
witness is lifted back through the removals and verified.
`exhaustive_solve` is the independent ground truth used by the test harnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from time import perf_counter

from .errors import ContractError, NotApplicableError, OracleLimitError
from .sunflowers import SetFamily, find_sunflower
from .vectors import (
    Instance,
    PartialVector,
    Solution,
    known_distance,
    neighborhood,
    verify_solution,
)

SATURATION_CAP = 2**63 - 1

# Removal kinds recorded in the trace.
HEAVY = "heavy-wildcard"
DUPLICATE = "duplicate-cap"
PRUNED = "pruned"


@dataclass(frozen=True)
class Removal:
    """One row taken out of the working instance.

    `index` is the row's position at the moment of removal, so replaying the
    trace backwards with plain insertions reconstructs the original order.
    """

    index: int
    row: PartialVector
    kind: str


@dataclass(frozen=True)
class SolveOutcome:
    answer: bool
    witness: Solution | None
    trace: tuple[Removal, ...] = ()
    method: str = ""
    stage_seconds: tuple[tuple[str, float], ...] = ()


def _capped_series(limit: int, base: int) -> int:
    """Sum of a! * base^a for a in 1..limit, cut off at the saturation cap."""
    if base <= 0 or limit < 1:
        return 0
    acc = 0
    fact = 1
    power = 1
    for a in range(1, limit + 1):
        fact *= a
        power *= base
        acc += fact * power
        if acc >= SATURATION_CAP:
            return SATURATION_CAP
    return acc


def neighborhood_bound(k: int, r: int) -> int:
    """The row-crowding threshold 3^((k-1)(r+1)) * sum a!*(2(k-1)(3(k-1)(r+1)+2r))^a.

    Saturates at 2^63-1; saturation only makes the gates harder to pass and
    the outcome falls back to exact enumeration, so it is always sound.
    """
    if k < 1:
        raise ContractError("k must be at least 1")
    if r < 0:
        raise ValueError("r must be non-negative")
    span = (k - 1) * (r + 1)
    base = (k - 1) * 2 * (3 * span + 2 * r)
    inner = _capped_series(span + r, base)
    if inner == 0:
        return 0
    if span >= 40 or inner >= SATURATION_CAP:
        # 3^40 alone already exceeds the cap.
        return SATURATION_CAP
    return min(3**span * inner, SATURATION_CAP)


def sunflower_target(k: int, r: int) -> int:
    """Sunflower size aimed for while pruning: two more than the number of
    petals that can ever interfere with a solution."""
    if k < 1:
        raise ContractError("k must be at least 1")
    span = (k - 1) * (r + 1)
    return (k - 1) * 2 * (3 * span + 2 * r) + 2


def neighborhood_gate(k: int, r: int) -> int:
    """Enlarged internal variant of `neighborhood_bound`.

    Uses the pruning target minus one as the pigeonhole base and adds a
    leading k to absorb the class of rows identical to the reference pattern
    (duplicates are capped at k copies, so that class never exceeds k).
    Always >= neighborhood_bound(k, r).
    """
    if k < 1:
        raise ContractError("k must be at least 1")
    if r < 0:
        raise ValueError("r must be non-negative")
    span = (k - 1) * (r + 1)
    inner = k + _capped_series(span + r, sunflower_target(k, r) - 1)
    if span >= 40 or inner >= SATURATION_CAP:
        return SATURATION_CAP
    return min(3**span * inner, SATURATION_CAP)


@dataclass(frozen=True)
class Thresholds:
    """The solver's size gates; `certified` drops when a test override is set."""

    gate: int
    target: int
    certified: bool = True

    @classmethod
    def for_parameters(
        cls,
        k: int,
        r: int,
        *,
        gate_override: int | None = None,
        target_override: int | None = None,
    ) -> "Thresholds":
        gate = neighborhood_gate(k, r)
        target = sunflower_target(k, r)
        certified = gate_override is None and target_override is None
        if gate_override is not None:
            if gate_override < 1:
                raise ValueError("gate override must be at least 1")
            gate = gate_override
        if target_override is not None:
            if target_override < 2:
                raise ValueError("sunflower target override must be at least 2")
            target = target_override
        return cls(gate, target, certified)


def strip_heavy_row(instance: Instance) -> tuple[Instance, Removal] | None:
    """Remove the lowest-index row holding more than (k-1)(r+1) unknowns and
    decrement k; answers are equivalent and the removal lifts constructively.
    Returns None when no row qualifies (or k = 0)."""
    if instance.k < 1:
        return None
    budget = (instance.k - 1) * (instance.r + 1)
    for i, row in enumerate(instance.rows):
        if row.unknown_count > budget:
            rows = instance.rows[:i] + instance.rows[i + 1 :]
            reduced = Instance(rows, instance.k - 1, instance.r, instance.d)
            return reduced, Removal(i, row, HEAVY)
    return None


def lift_heavy_row(reduced_solution: Solution, removal: Removal, r: int) -> Solution:
    """Rebuild a witness after `strip_heavy_row`.

    Takes the (k-1)(r+1) lowest unknown coordinates of the removed row,
    splits them in index order into k-1 blocks of r+1, and fills block i with
    the opposite of the i-th selected vector; every other unknown becomes 0.
    The rebuilt row then disagrees with each selected vector on a full block,
    so it joins the selection at distance >= r+1.  Linear time.
    """
    order = sorted(reduced_solution.selected)
    completed = list(reduced_solution.completed)
    for idx in order:
        if not completed[idx].is_complete:
            raise ContractError("reduced witness contains an incomplete row")
    for i, j in itertools.combinations(order, 2):
        if known_distance(completed[i], completed[j]) < r + 1:
            raise ContractError("reduced witness is not a valid diversity set")

    v = removal.row
    need = len(order) * (r + 1)
    unknown = v.unknown_positions()
    if len(unknown) < need:
        raise ContractError("removed row lacks the unknown coordinates the lift requires")
    bits: dict[int, str] = {}
    for i, sel in enumerate(order):
        s = completed[sel]
        for j in unknown[i * (r + 1) : (i + 1) * (r + 1)]:
            bits[j] = "1" if s.text[j] == "0" else "0"
    for j in unknown[need:]:
        bits[j] = "0"
    v_star = v.completed_with(bits)

    for sel in order:
        if known_distance(v_star, completed[sel]) < r + 1:
            raise ContractError("lift construction failed to reach the distance bound")

    completed.insert(removal.index, v_star)
    selected = frozenset(
        i if i < removal.index else i + 1 for i in reduced_solution.selected
    ) | {removal.index}
    return Solution(tuple(completed), selected)


def greedy_attempt(instance: Instance) -> Solution | None:
    """k rounds of: keep the lowest-index surviving row, drop every row within
    known distance r of it.  Any success is a sound certificate (completions
    only grow distances); None means the heuristic ran out of rows."""
    picks: list[int] = []
    alive = list(range(instance.n))
    r = instance.r
    rows = instance.rows
    for _ in range(instance.k):
        if not alive:
            return None
        v = alive[0]
        picks.append(v)
        vrow = rows[v]
        alive = [j for j in alive if known_distance(vrow, rows[j]) > r]
    completed = tuple(row.complete_zeros() for row in rows)
    return Solution(completed, frozenset(picks))


def greedy_select(instance: Instance, thresholds: Thresholds) -> Solution:
    """Greedy selection with a success guarantee.

    Preconditions: at least k * gate rows and every row's r-neighborhood
    smaller than the gate; then each round of `greedy_attempt` removes fewer
    than gate rows, so k rounds always complete.
    """
    k, r = instance.k, instance.r
    if instance.n < k * thresholds.gate:
        raise NotApplicableError(
            f"need at least {k * thresholds.gate} rows, have {instance.n}"
        )
    for i in range(instance.n):
        size = len(neighborhood(instance, i, r))
        if size >= thresholds.gate:
            raise NotApplicableError(
                f"row {i} has an r-neighborhood of size {size} >= gate {thresholds.gate}"
            )
    solution = greedy_attempt(instance)
    if solution is None:
        raise ContractError("greedy ran out of rows despite the size preconditions")
    return solution


def row_signature(v: PartialVector, x: PartialVector) -> frozenset[tuple[str, int]]:
    """Set representation of x relative to v over v's known coordinates.

    Contains ("u", j) where x is unknown at j, and ("d", j) where x is known
    and differs from v.  Positions are 0-based; coordinates where v itself is
    unknown are skipped.
    """
    elems: list[tuple[str, int]] = []
    for j, (vc, xc) in enumerate(zip(v.text, x.text)):
        if vc == "?":
            continue
        if xc == "?":
            elems.append(("u", j))
        elif xc != vc:
            elems.append(("d", j))
    return frozenset(elems)


def find_prunable_row(instance: Instance, v_index: int, thresholds: Thresholds) -> int:
    """Find a row whose removal provably keeps the YES/NO answer.

    Preconditions: every row has at most (k-1)(r+1) unknowns, the given row's
    r-neighborhood reaches the gate, and exact-duplicate rows were already
    capped at k copies.  Splits the neighborhood into classes that agree with
    each other on the reference row's unknown coordinates, represents the
    largest class as a set system over (unknown-here / differs-here) markers,
    finds a set size whose class meets the pigeonhole bound, extracts a
    sunflower of the target cardinality, and returns its lowest row index.
    """
    k, r = instance.k, instance.r
    budget = (k - 1) * (r + 1)
    for i, row in enumerate(instance.rows):
        if row.unknown_count > budget:
            raise NotApplicableError(f"row {i} carries more than {budget} unknowns")
    near = neighborhood(instance, v_index, r)
    if len(near) < thresholds.gate:
        raise NotApplicableError(
            f"neighborhood size {len(near)} below gate {thresholds.gate}"
        )

    v = instance.rows[v_index]
    z_positions = v.unknown_positions()
    classes: dict[tuple[str, ...], list[int]] = {}
    for idx in sorted(near):
        pattern = tuple(instance.rows[idx].text[z] for z in z_positions)
        classes.setdefault(pattern, []).append(idx)
    biggest = max(classes.values(), key=lambda members: (len(members), -members[0]))

    by_size: dict[int, tuple[list[frozenset], list[int]]] = {}
    for idx in biggest:
        sig = row_signature(v, instance.rows[idx])
        members, tags = by_size.setdefault(len(sig), ([], []))
        members.append(sig)
        tags.append(idx)

    target = thresholds.target
    for alpha in range(1, budget + r + 1):
        if alpha not in by_size:
            continue
        members, tags = by_size[alpha]
        if len(members) < factorial(alpha) * (target - 1) ** alpha:
            continue
        family = SetFamily(tuple(members), tuple(tags))
        flower = find_sunflower(family, alpha, target)
        if flower is None or len(flower) < target:
            raise ContractError(
                "sunflower extraction fell short of the target; thresholds misconfigured"
            )
        return min(family.tags[i] for i in flower.member_indices)
    raise ContractError(
        "no signature size met the pigeonhole bound; thresholds misconfigured"
    )


def _mask_text(mask: int, d: int) -> str:
    return format(mask, f"0{d}b") if d else ""


def _completion_masks(row: PartialVector) -> list[int]:
    """Every completion of one row as a bit mask, unknowns counting up with
    the leftmost unknown as the most significant digit."""
    positions = row.unknown_positions()
    if not positions:
        return [row.ones]
    d = row.d
    bits = [1 << (d - 1 - p) for p in positions]
    u = len(positions)
    out = []
    for m in range(1 << u):
        acc = row.ones
        for i, bv in enumerate(bits):
            if (m >> (u - 1 - i)) & 1:
                acc |= bv
        out.append(acc)
    return out


def brute_force(instance: Instance) -> SolveOutcome:
    """Exact enumeration: k-subsets of rows in lexicographic order, and per
    subset all completions of that subset's unknowns in counting order; the
    first assignment putting all pairs at distance >= r+1 wins.  Rows outside
    the subset complete to zeros.  Intended for instances below the row gate
    but callable on anything."""
    k, r, d = instance.k, instance.r, instance.d
    rows = instance.rows
    n = instance.n
    need = r + 1
    full = (1 << d) - 1
    unknown_masks = [full ^ (row.ones | row.zeros) for row in rows]
    comp_cache: dict[int, list[int]] = {}

    def masks_of(i: int) -> list[int]:
        if i not in comp_cache:
            comp_cache[i] = _completion_masks(rows[i])
        return comp_cache[i]

    for subset in itertools.combinations(range(n), k):
        feasible = True
        for a, b in itertools.combinations(subset, 2):
            ra, rb = rows[a], rows[b]
            sure = ((ra.ones & rb.zeros) | (ra.zeros & rb.ones)).bit_count()
            # Best reachable distance: guaranteed disagreements plus every
            # coordinate unknown in at least one of the two rows.
            if sure + (unknown_masks[a] | unknown_masks[b]).bit_count() < need:
                feasible = False
                break
        if not feasible:
            continue
        chosen = _assign(subset, masks_of, need)
        if chosen is None:
            continue
        lookup = dict(zip(subset, chosen))
        completed = tuple(
            PartialVector(_mask_text(lookup[i], d)) if i in lookup else rows[i].complete_zeros()
            for i in range(n)
        )
        witness = Solution(completed, frozenset(subset))
        return SolveOutcome(True, witness, (), "brute-force")
    return SolveOutcome(False, None, (), "brute-force")


def _assign(subset: tuple[int, ...], masks_of, need: int) -> list[int] | None:
    chosen: list[int] = []

    def descend(depth: int) -> bool:
        if depth == len(subset):
            return True
        for mask in masks_of(subset[depth]):
            if all((mask ^ prev).bit_count() >= need for prev in chosen):
                chosen.append(mask)
                if descend(depth + 1):
                    return True
                chosen.pop()
        return False

    return chosen if descend(0) else None


def exhaustive_solve(
    instance: Instance, *, max_unknowns: int = 20, max_rows: int = 16
) -> SolveOutcome:
    """Ground truth by sheer exhaustion, independent of the solve pipeline.

    Considers every completion of every row against every k-subset.  Rows
    outside a candidate subset are irrelevant to its validity and are pinned
    to the zero completion, which is also the lexicographic minimum, so the
    canonical witness is exactly the least (completion, selection) pair.
    Refuses instances above the configured caps.
    """
    rows = instance.rows
    n = instance.n
    total_unknown = sum(row.unknown_count for row in rows)
    if n > max_rows:
        raise OracleLimitError(f"{n} rows exceed the exhaustive cap of {max_rows}")
    if total_unknown > max_unknowns:
        raise OracleLimitError(
            f"{total_unknown} unknowns exceed the exhaustive cap of {max_unknowns}"
        )
    k, r, d = instance.k, instance.r, instance.d
    need = r + 1

    comp: list[list[int]] = []
    for row in rows:
        variants = [row.ones]
        for p in row.unknown_positions():
            bit = 1 << (d - 1 - p)
            variants = [v for base in variants for v in (base, base | bit)]
        comp.append(variants)
    zero_profile = tuple(c[0] for c in comp)
    wildcard_free = total_unknown == 0

    accepted: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for subset in itertools.combinations(range(n), k):
        profile = _first_valid_profile(subset, comp, need)
        if profile is None:
            continue
        induced = list(zero_profile)
        for pos, i in enumerate(subset):
            induced[i] = profile[pos]
        accepted.append((tuple(induced), subset))
        if wildcard_free:
            break

    if not accepted:
        return SolveOutcome(False, None, (), "exhaustive")

    if wildcard_free:
        best_profile, final_subset = accepted[0]
    else:
        best_profile = min(ind for ind, _ in accepted)
        final_subset = next(
            subset
            for subset in itertools.combinations(range(n), k)
            if all(
                (best_profile[a] ^ best_profile[b]).bit_count() >= need
                for a, b in itertools.combinations(subset, 2)
            )
        )
    completed = tuple(PartialVector(_mask_text(m, d)) for m in best_profile)
    witness = Solution(completed, frozenset(final_subset))
    return SolveOutcome(True, witness, (), "exhaustive")


def _first_valid_profile(
    subset: tuple[int, ...], comp: list[list[int]], need: int
) -> tuple[int, ...] | None:
    for profile in itertools.product(*(comp[i] for i in subset)):
        valid = True
        for x in range(len(profile)):
            for y in range(x + 1, len(profile)):
                if (profile[x] ^ profile[y]).bit_count() < need:
                    valid = False
                    break
            if not valid:
                break
        if valid:
            return profile
    return None


def _cap_duplicates(
    rows: list[PartialVector], k: int
) -> tuple[list[PartialVector], list[Removal]]:
    """Keep only the first k copies of each identical row.

    Sound at any k: a diversity set uses at most k rows in total, and copies
    of an identical partial row are interchangeable.
    """
    kept: list[PartialVector] = []
    events: list[Removal] = []
    counts: dict[str, int] = {}
    for row in rows:
        seen = counts.get(row.text, 0)
        if seen < k:
            counts[row.text] = seen + 1
            kept.append(row)
        else:
            events.append(Removal(len(kept), row, DUPLICATE))
    return kept, events


def _kernel(
    current: Instance, thresholds: Thresholds, events: list[Removal]
) -> tuple[Solution | None, str]:
    """The kernel and exact stages; each pruned row is appended to `events`.

    Prunes from the largest r-neighborhood (lowest index on ties).  The sizes
    are computed once, then lowered by one for the rows within distance r of
    each pruned row.
    """
    k, r = current.k, current.r
    sizes: list[int] | None = None
    while current.n >= k * thresholds.gate:
        if sizes is None:
            sizes = [len(neighborhood(current, i, r)) for i in range(current.n)]
        biggest = max(sizes)
        if biggest < thresholds.gate:
            return greedy_select(current, thresholds), "greedy-bounded"
        f = find_prunable_row(current, sizes.index(biggest), thresholds)
        pruned = current.rows[f]
        events.append(Removal(f, pruned, PRUNED))
        current = Instance(current.rows[:f] + current.rows[f + 1 :], k, r, current.d)
        del sizes[f]
        for j, row in enumerate(current.rows):
            if known_distance(pruned, row) <= r:
                sizes[j] -= 1
    return brute_force(current).witness, "brute-force"


def solve(
    instance: Instance,
    *,
    gate_override: int | None = None,
    target_override: int | None = None,
) -> SolveOutcome:
    """Decide the instance exactly and, on YES, return a verified witness for
    the original input.

    The overrides shrink the internal gates so the sparse-greedy and pruning
    paths can be exercised on desk-size inputs; results computed with them
    are flagged non-certified and should be cross-checked against
    `exhaustive_solve`.
    """
    stages: list[tuple[str, float]] = []
    t0 = perf_counter()

    r, d = instance.r, instance.d
    rows, events = _cap_duplicates(list(instance.rows), instance.k)
    current = Instance(tuple(rows), instance.k, r, d)
    while (stripped := strip_heavy_row(current)) is not None:
        current, removal = stripped
        events.append(removal)
    k = current.k
    if k < instance.k:
        # k dropped, so the duplicate cap must tighten to the new k as well.
        rows, dup_events = _cap_duplicates(list(current.rows), k)
        events.extend(dup_events)
        current = Instance(tuple(rows), k, r, d)
    t1 = perf_counter()
    stages.append(("reduce", t1 - t0))

    if k < 2:
        # At most one row to pick, so the greedy pass is already exact.
        witness, method = greedy_attempt(current), "shortcut"
    else:
        thresholds = Thresholds.for_parameters(
            k, r, gate_override=gate_override, target_override=target_override
        )
        witness, method = greedy_attempt(current), "greedy"
        if witness is None:
            witness, method = _kernel(current, thresholds, events)
    t2 = perf_counter()
    stages.append(("decide", t2 - t1))

    if witness is not None:
        completed, selected = list(witness.completed), witness.selected
        for event in reversed(events):
            if event.kind == HEAVY:
                lifted = lift_heavy_row(Solution(completed, selected), event, r)
                completed, selected = list(lifted.completed), lifted.selected
            else:
                completed.insert(event.index, event.row.complete_zeros())
                selected = frozenset(i if i < event.index else i + 1 for i in selected)
        witness = Solution(tuple(completed), selected)
        t3 = perf_counter()
        stages.append(("lift", t3 - t2))
        report = verify_solution(instance, witness)
        if not report.ok:
            raise ContractError(
                "solver produced an invalid witness: " + "; ".join(report.failures)
            )
        stages.append(("verify", perf_counter() - t3))

    return SolveOutcome(witness is not None, witness, tuple(events), method, tuple(stages))
