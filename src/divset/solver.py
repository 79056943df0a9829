"""Exact decision procedure for the diversity-completion problem.

`solve` runs reduce -> greedy -> kernel -> exact -> lift -> verify, calling
each stage itself.  `reduce` is the one place the two reduction rules run:
it strips rows with more than (k-1)(r+1) unknowns, decrementing k, and then
caps duplicate rows at k copies.  A cheap greedy pass looks for a
certificate: one ascending scan picks each row at known distance > r from
every earlier pick and stops at the k-th, the picks of rounds of "keep the
lowest surviving row, drop its r-neighborhood".  While at least k * gate
rows remain, the kernel prunes rows whose removal a sunflower argument shows
preserves the answer, and answers with the guaranteed greedy once every
neighborhood is sparse.  It builds every neighborhood once, as an int
bitset, from buckets of rows by completion rather than a test per row pair,
and never rewrites it: the rows alive are one bitset, and the sizes are
buckets of alive rows by their count of alive neighbors.  It keeps the
reference row's state, its classes and signature tables, and builds it
whole when the reference row changes: a prune clears the row's alive bit
and moves its neighbors down one bucket per distinct size, and the pruning
rule takes the row out of the state it reads, so no prune walks a
neighborhood.  A neighbor's signature is one int, a bitset the sunflower
search reads as it is, and the owner of the sunflower's first member is the
row pruned.  `find_prunable_row` is the rule's checked public entry, on a
state built fresh.  Otherwise the kernel hands `solve` the rows left, and
the exact search decides: one loop walks the k-cliques of the bitset graph
of row pairs that can still reach distance r+1, in lexicographic order,
skipping a clique whose pair distances, or those of three of its rows,
cannot sum to C(size,2)(r+1) (Plotkin's count), and a second loop tries
completions in counting order, forward-checked.  Neither recurses, so the
recursion limit does not cap k.  It finds the same first (subset,
completion) as a walk over all k-subsets.  The stages return only their
picks, the kernel also its rows left and its prunes.  The trace holds each
removal as (input index, kind), so `lift` maps a YES's picks to input
indices, reads each removed heavy row from the input and completes it
against them, and completes the rest to zeros; the witness is verified.
`exhaustive_solve` is the independent ground truth used by the test harnesses.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import factorial
from time import perf_counter
from typing import Container, Iterable, Sequence

from .errors import ContractError, NotApplicableError, OracleLimitError
from .sunflowers import SetFamily, find_sunflower
from .vectors import (
    Instance,
    PartialVector,
    Solution,
    _bit_indices,
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
    """One row taken out of the working instance, as its index in the
    instance `solve` was given and the rule that removed it; the row itself
    is `instance.rows[index]`.  A trace holds the heavy rows in the order
    `reduce` stripped them, which `lift` completes last first, then the
    duplicates by index, then the prunes.
    """

    index: int
    kind: str


@dataclass(frozen=True)
class SolveOutcome:
    """The answer, its witness, the removals and the branch that decided.

    `stage_seconds` times each stage.  `stats` holds `solve`'s deterministic
    sizes: `rows_in`, `rows_reduced` and `k_reduced` after the heavy-row strip
    and the duplicate cap, and `kernel_rows`, the k * gate rows the kernel
    needs, saturating like the gate (None when k < 2 and the greedy pass
    decides alone).
    """

    witness: Solution | None
    trace: tuple[Removal, ...] = ()
    method: str = ""
    stage_seconds: tuple[tuple[str, float], ...] = ()
    stats: tuple[tuple[str, int | None], ...] = ()

    @property
    def answer(self) -> bool:
        return self.witness is not None


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


def _crowding(k: int, r: int, lead: int, base: int) -> int:
    """3^((k-1)(r+1)) * (lead + sum a! * base^a for a in 1..(k-1)(r+1)+r).

    Saturates at 2^63-1; saturation only makes the gates harder to pass and
    the outcome falls back to exact enumeration, so it is always sound.
    """
    span = (k - 1) * (r + 1)
    inner = lead + _capped_series(span + r, base)
    if span >= 40 or inner >= SATURATION_CAP:
        # 3^40 alone already exceeds the cap.
        return SATURATION_CAP
    return min(3**span * inner, SATURATION_CAP)


def neighborhood_bound(k: int, r: int) -> int:
    """The paper's row-crowding threshold: `_crowding` with no lead term and
    base 2(k-1)(3(k-1)(r+1)+2r), the sunflower target minus two.  It is 0
    at k = 1."""
    return _crowding(k, r, 0, sunflower_target(k, r) - 2)


def sunflower_target(k: int, r: int) -> int:
    """Sunflower size aimed for while pruning: two more than the number of
    petals that can ever interfere with a solution."""
    if k < 1:
        raise ContractError("k must be at least 1")
    if r < 0:
        raise ValueError("r must be non-negative")
    span = (k - 1) * (r + 1)
    return (k - 1) * 2 * (3 * span + 2 * r) + 2


def neighborhood_gate(k: int, r: int) -> int:
    """Enlarged internal variant of `neighborhood_bound`.

    Uses the pruning target minus one as the pigeonhole base and adds a
    leading k to absorb the class of rows identical to the reference pattern
    (duplicates are capped at k copies, so that class never exceeds k).
    Always >= neighborhood_bound(k, r).
    """
    return _crowding(k, r, k, sunflower_target(k, r) - 1)


@dataclass(frozen=True)
class Thresholds:
    """The solver's size gates: the row gate (at least 1) and the sunflower
    target (at least 2).  `for_parameters` gives the certified pair; tests
    build a smaller pair directly to run `find_prunable_row` on desk-size
    families, where the pruning argument no longer holds."""

    gate: int
    target: int

    def __post_init__(self):
        if self.gate < 1:
            raise ValueError("gate must be at least 1")
        if self.target < 2:
            raise ValueError("sunflower target must be at least 2")

    @classmethod
    def for_parameters(cls, k: int, r: int) -> "Thresholds":
        """The certified gates for (k, r)."""
        return cls(neighborhood_gate(k, r), sunflower_target(k, r))


def _heavy_row(rows: Sequence[PartialVector], k: int, r: int, skip: Container = ()) -> int | None:
    """Index of the lowest row outside `skip` holding more than (k-1)(r+1)
    unknowns, or None when no row qualifies.  At k = 0 every row qualifies."""
    budget = (k - 1) * (r + 1)
    for i, row in enumerate(rows):
        if row.unknown_count > budget and i not in skip:
            return i
    return None


def reduce(instance: Instance) -> tuple[Instance, list[Removal]]:
    """The reduction rules, each keeping the answer: while k > 0, remove the
    lowest row with more than (k-1)(r+1) unknowns and decrement k; then keep
    the first k copies of each row text, as a diversity set uses at most k
    rows and copies are interchangeable.  Returns the reduced instance and
    the removals, in trace order."""
    k, r = instance.k, instance.r
    removals: list[Removal] = []
    heavy: set[int] = set()
    while k > 0 and (i := _heavy_row(instance.rows, k, r, heavy)) is not None:
        heavy.add(i)
        removals.append(Removal(i, HEAVY))
        k -= 1
    kept: list[PartialVector] = []
    counts: dict[str, int] = {}
    for i, row in enumerate(instance.rows):
        if i not in heavy:
            seen = counts[row.text] = counts.get(row.text, 0) + 1
            if seen <= k:
                kept.append(row)
            else:
                removals.append(Removal(i, DUPLICATE))
    return Instance(tuple(kept), k, r, instance.d), removals


def lift_heavy_row(picks: dict[int, PartialVector], row: PartialVector, r: int) -> PartialVector:
    """The completion of `row`, a heavy row `reduce` removed, which joins
    `picks`, the picked rows by input index.  `lift` adds it to the picks.

    Takes the (k-1)(r+1) lowest unknown coordinates of the removed row, the
    highest bits of its unknown mask, in k-1 blocks of r+1, and sets a one in
    block i wherever the i-th picked row by index has a zero; every other
    unknown becomes 0.  The completed row then disagrees with each picked
    row on a full block, so it joins them at distance >= r+1.
    """
    order = [picks[i] for i in sorted(picks)]
    if not all(s.is_complete for s in order):
        raise ContractError("reduced witness contains an incomplete row")
    if any(known_distance(s, t) < r + 1 for s, t in itertools.combinations(order, 2)):
        raise ContractError("reduced witness is not a valid diversity set")

    if row.unknown_count < len(order) * (r + 1):
        raise ContractError("removed row lacks the unknown coordinates the lift requires")
    unknown = ((1 << row.d) - 1) ^ (row.ones | row.zeros)
    ones = row.ones
    for s in order:
        for _ in range(r + 1):
            bit = 1 << (unknown.bit_length() - 1)
            unknown ^= bit
            ones |= bit & s.zeros
    v_star = PartialVector.from_mask(ones, row.d)

    if any(known_distance(v_star, s) < r + 1 for s in order):
        raise ContractError("lift construction failed to reach the distance bound")
    return v_star


def _at_input(positions: Iterable[int], removals: Sequence[Removal]) -> list[int]:
    """The input index of each position in the instance left after
    `removals`, in order: one walk over the sorted removed indices each."""
    gone = sorted(removal.index for removal in removals)
    moved: list[int] = []
    for i in positions:
        for g in gone:
            if g > i:
                break
            i += 1
        moved.append(i)
    return moved


def lift(
    instance: Instance, picks: dict[int, PartialVector], removals: Sequence[Removal]
) -> Solution:
    """The witness for `instance` from the picks made after `removals`: the
    picks at their input indices, each heavy row, read from `instance`, as
    `lift_heavy_row` completes it, last removed first, and every other row
    completed to 0."""
    picks = dict(zip(_at_input(picks, removals), picks.values()))
    for removal in reversed(removals):
        if removal.kind == HEAVY:
            i = removal.index
            picks[i] = lift_heavy_row(picks, instance.rows[i], instance.r)
    completed = list(map(PartialVector.complete_zeros, instance.rows))
    for i, row in picks.items():
        completed[i] = row
    return Solution(completed, frozenset(picks))


def greedy_attempt(instance: Instance) -> dict[int, PartialVector] | None:
    """The first k rows, in one ascending scan, each at known distance > r
    from every earlier pick.  Any success is a sound certificate (completions
    only grow distances); None means the scan ran out of rows.

    This is the rounds "keep the lowest surviving row, drop every row within
    known distance r of it".  Pick t is the first row alive after round t-1,
    so every row below it is already dropped, and round t keeps exactly the
    rows after pick t that are far from all t picks: the rows the scan
    reaches next with the same tests.  The scan makes those (row, pick) tests
    up to the k-th pick and none after it.

    Reads the `ones`/`zeros` masks of the rows it reaches only.  The distance
    is the one `known_distance` computes; its length check is left out
    because an `Instance` already holds rows of one dimension.  The picks
    complete to zeros through `complete_zeros` (`{}` when k = 0); `lift` does
    the rest.
    """
    k, r = instance.k, instance.r
    if k == 0:
        return {}
    picks: dict[int, PartialVector] = {}
    masks: list[tuple[int, int]] = []
    for j, row in enumerate(instance.rows):
        ones, zeros = row.ones, row.zeros
        for p_ones, p_zeros in masks:
            if ((p_ones & zeros) | (p_zeros & ones)).bit_count() <= r:
                break
        else:
            picks[j] = row.complete_zeros()
            if len(picks) == k:
                return picks
            masks.append((ones, zeros))
    return None


def _signature_key(v: PartialVector, x: PartialVector) -> tuple[int, int]:
    """The signature of x relative to v, over v's known coordinates, as one
    int, and its size alpha, the popcount.  The int is
    `(differ << d) | unknown`: bit d-1-j is set when x is unknown at text
    position j, and bit 2d-1-j when x is known there and differs from v.

    So bit b stands for the pair ("d", 2d-1-b) or ("u", d-1-b), and
    descending bits are the pairs in ascending (tag, position) order, "d"
    before "u".  `find_sunflower` breaks frequency ties towards the highest
    bit, the least pair, so the kernel prunes the rows that a search over
    signatures as sets of such pairs, ties going to the least pair, prunes.
    """
    unknown = (v.ones | v.zeros) & ~(x.ones | x.zeros)
    differ = (x.ones & v.zeros) | (x.zeros & v.ones)
    sig = (differ << v.d) | unknown
    return sig, sig.bit_count()


def _require_light(rows: Sequence[PartialVector], k: int, r: int) -> None:
    """NotApplicableError unless every row has at most (k-1)(r+1) unknowns."""
    heavy = _heavy_row(rows, k, r)
    if heavy is not None:
        raise NotApplicableError(f"row {heavy} carries more than {(k - 1) * (r + 1)} unknowns")


def find_prunable_row(instance: Instance, v_index: int, thresholds: Thresholds) -> int | None:
    """Find a row whose removal provably keeps the YES/NO answer, or None.

    Preconditions, checked with NotApplicableError: every row has at most
    (k-1)(r+1) unknowns and the given row's r-neighborhood reaches the gate.
    Past them this is a thin wrapper: it builds the row's state fresh, with
    `_reference_state`, over its neighborhood as a bitset of row indices, and
    hands it to `_prunable_in`, the one pruning rule; `_kernel` hands the
    rule the state it keeps.  None means no signature size holds enough
    distinct signatures for a sunflower of the target size, and the caller
    hands the rows to the exact search.
    """
    k, r = instance.k, instance.r
    _require_light(instance.rows, k, r)
    near = neighborhood(instance, v_index, r)
    if len(near) < thresholds.gate:
        raise NotApplicableError(f"neighborhood size {len(near)} below gate {thresholds.gate}")
    state = _reference_state(instance.rows, v_index, sum(1 << j for j in near))
    return _prunable_in(state, thresholds.target)


# A reference row's state: each class of its neighbors as its rows,
# ascending; and each class's signature tables by ascending alpha, each
# mapping a signature to its rows, ascending, in ascending order of their
# first row, the owner.
_Key = tuple[int, int]
_State = tuple[dict[_Key, list[int]], dict[_Key, dict[int, dict[int, list[int]]]]]


def _reference_state(rows: Sequence[PartialVector], v_index: int, near: int) -> _State:
    """Row v_index's state over its r-neighborhood `near`, every class
    tabled.  The rows come in ascending order, so each table lists its
    signatures in ascending owner order."""
    v = rows[v_index]
    free = ~(v.ones | v.zeros)
    classes: dict[_Key, list[int]] = {}
    tables: dict[_Key, dict[int, dict[int, list[int]]]] = {}
    for idx in _bit_indices(near):
        row = rows[idx]
        key = (row.ones & free, row.zeros & free)
        sig, alpha = _signature_key(v, row)
        classes.setdefault(key, []).append(idx)
        tables.setdefault(key, {}).setdefault(alpha, {}).setdefault(sig, []).append(idx)
    sorted_tables = {key: dict(sorted(by_alpha.items())) for key, by_alpha in tables.items()}
    return classes, sorted_tables


def _prunable_in(state: _State, target: int) -> int | None:
    """The pruning rule on one reference row's state, as `_reference_state`
    builds it: the lowest row of a sunflower, taken out of the state, or
    None.

    Takes the largest class of neighbors that agree on the reference row's
    unknown coordinates (lowest first row on ties); in it only identical rows
    share a signature.  The signatures, ints from `_signature_key`, are
    tabled by size alpha, each with the first row that has it.  The
    Erdos-Rado lemma counts distinct sets, so the first alpha with strictly
    more than alpha! * (target-1)^alpha distinct signatures yields a
    sunflower of the target cardinality; `find_sunflower` searches that
    table's signatures as they are.  The table lists them in ascending owner
    order and `find_sunflower` its members in ascending position, so the
    first member's owner is the least owner among them, the row pruned.

    The row leaves its class and its signature's rows, so the state is the
    one `_reference_state` builds over the neighbors left.  The class keeps
    the table's other signatures, so it never empties; the signature goes
    when no copy of the row is left, and otherwise the first copy owns it,
    and the table goes back to ascending owner order.
    """
    classes, tables = state
    key, _ = max(classes.items(), key=lambda item: (len(item[1]), -item[1][0]))
    for alpha, table in tables[key].items():
        if alpha == 0 or len(table) <= factorial(alpha) * (target - 1) ** alpha:
            continue
        signatures = tuple(table)
        flower = find_sunflower(SetFamily(signatures), alpha, target)
        if flower is None or len(flower) < target:
            raise ContractError("sunflower extraction fell short of the Erdos-Rado guarantee")
        sig = signatures[flower.member_indices[0]]
        same = table[sig]
        f = same.pop(0)
        classes[key].remove(f)
        if same:
            tables[key][alpha] = dict(sorted(table.items(), key=lambda item: item[1][0]))
        else:
            del table[sig]
        return f
    return None


def _completion_masks(row: PartialVector) -> list[int]:
    """Every completion of one row as a bit mask, unknowns counting up with
    the leftmost unknown as the most significant digit.  Built by doubling,
    rightmost unknown first: each unknown appends a copy of the list with
    its bit set, so it becomes the next more significant digit."""
    masks = [row.ones]
    unknown = ((1 << row.d) - 1) ^ (row.ones | row.zeros)
    while unknown:
        bit = unknown & -unknown
        unknown ^= bit
        masks += [m | bit for m in masks]
    return masks


def brute_force(instance: Instance) -> dict[int, PartialVector] | None:
    """Exact search: the first k-subset of rows, in lexicographic order, whose
    rows can be completed pairwise at distance >= r+1, with the first such
    completion of that subset in counting order, as picks from row index to
    completed row; None when no subset qualifies.  `lift` completes the rows
    outside the subset.  Intended for instances below the row gate but
    callable on anything.

    Three cuts skip subsets.  First, the pair filter: two rows are
    compatible when their guaranteed disagreements plus every coordinate
    unknown in at least one of them reach r+1, that is, when they know and
    agree on at most d-r-1 coordinates; a valid subset is a k-clique of
    that graph.  Row a's compatible later rows (one int bitset) and a row's
    completion masks are built on first use and cached for the rest of the
    call.  One loop yields the cliques in `itertools.combinations` order:
    `levels[t]` holds the candidates for `clique[t]`; it takes the top
    level's lowest and pushes the later ones compatible with it.  Second,
    it pops a level once it holds fewer candidates than rows are missing.
    Third, Plotkin's count: a completion's pair distances sum, column by
    column, to the pairs each column splits, at most floor(k^2/4) where
    some row is unknown and the known disagreements elsewhere; a clique
    whose sum stays below C(k,2)(r+1), or holding three rows whose sum
    stays below 3(r+1), is skipped; the triples are counted only when the
    pairs' slack says one might fall short.  The rest go to `_assign`.  All
    cuts only skip subsets or completions that hold no solution, so the
    witness is the one a plain walk over all subsets and completions finds
    first.
    """
    k, r, d = instance.k, instance.r, instance.d
    rows, n = instance.rows, instance.n
    need = r + 1
    ones = [row.ones for row in rows]
    zeros = [row.zeros for row in rows]
    most_agreed = d - need

    @functools.cache
    def later_of(a: int) -> int:
        oa, za = ones[a], zeros[a]
        bits = 0
        for b in range(a + 1, n):
            # The best reachable distance, sure disagreements plus columns
            # unknown in either row, is d minus the columns both rows know
            # and agree on.
            if ((oa & ones[b]) | (za & zeros[b])).bit_count() <= most_agreed:
                bits |= 1 << b
        return bits

    @functools.cache
    def masks_of(i: int) -> list[int]:
        return _completion_masks(rows[i])

    if k == 0:
        return {}
    clique: list[int] = []
    levels = [(1 << n) - 1]
    while levels:
        cand = levels[-1]
        if cand.bit_count() < k - len(clique):
            levels.pop()
            del clique[-1:]
            continue
        low = cand & -cand
        levels[-1] = cand ^ low
        v = low.bit_length() - 1
        if len(clique) + 1 < k:
            clique.append(v)
            levels.append(levels[-1] & later_of(v))
            continue
        subset = [*clique, v]
        if _below_plotkin([rows[i] for i in subset], need):
            continue
        chosen = _assign([masks_of(i) for i in subset], need)
        if chosen is not None:
            return {i: PartialVector.from_mask(mask, d) for i, mask in zip(subset, chosen)}
    return None


def _below_plotkin(clique: Sequence[PartialVector], need: int) -> bool:
    """True when the pair distances of the clique, or of three of its rows
    (counted over their own unknown columns), cannot sum to C(size,2) * need,
    so no completion is pairwise `need` apart (`brute_force`'s third cut).

    The C(k,3) triples are walked only when one might fall short.  Let b_xy
    be a pair's best reachable distance, d minus the columns both rows know
    and agree on, as the pair filter reads it: sure disagreements plus
    columns unknown in either row.  In a triple, a column unknown in some
    row adds 2 to its count and at most 3 to the sum of its three b_xy (at
    most 1 per pair); any other column adds the same to both.  So the count
    is at least that sum minus |U|, U the columns unknown in some row of the
    three, and |U| is at most three times the largest unknown count m of a
    clique row.  With slack = min b_xy - need over the clique's pairs, every
    triple counts at least 3 * need + 3 * slack - 3 * m, so none falls short
    once slack >= m."""
    k = len(clique)
    if k < 3:
        return False  # at k = 2 the bound is the pair filter
    d = clique[0].d
    fixed = -1
    for row in clique:
        fixed &= row.ones | row.zeros
    total = (d - fixed.bit_count()) * (k * k // 4)
    for a, b in itertools.combinations(clique, 2):
        total += (((a.ones & b.zeros) | (a.zeros & b.ones)) & fixed).bit_count()
    if total < k * (k - 1) // 2 * need:
        return True
    if k == 3:
        return False
    slack = min(
        d - ((a.ones & b.ones) | (a.zeros & b.zeros)).bit_count()
        for a, b in itertools.combinations(clique, 2)
    ) - need
    if slack >= max(row.unknown_count for row in clique):
        return False
    return any(_below_plotkin(t, need) for t in itertools.combinations(clique, 3))


def _assign(options: list[list[int]], need: int) -> list[int] | None:
    """One completion per row, pairwise at distance >= need, or None.

    Depth-first in counting order, one loop over `levels`: level t holds
    the lists of rows t.., narrowed to the masks still `need` away from
    every earlier choice in their order, and an iterator over row t's
    untried masks.  A choice that empties a later list is skipped, since no
    completion of the remaining rows can follow it.  So the result is the
    first tuple in counting order, as a plain depth-first walk that checks
    each mask against the earlier choices would return.
    """
    chosen: list[int] = []
    levels = [(options, iter(options[0]))]
    while levels:
        lists, untried = levels[-1]
        for mask in untried:
            if len(lists) == 1:
                return [*chosen, mask]
            narrowed = []
            for masks in lists[1:]:
                kept = [m for m in masks if (m ^ mask).bit_count() >= need]
                if not kept:
                    break
                narrowed.append(kept)
            else:
                chosen.append(mask)
                levels.append((narrowed, iter(narrowed[0])))
                break
        else:
            levels.pop()
            del chosen[-1:]
    return None


def exhaustive_solve(
    instance: Instance, *, max_unknowns: int = 20, max_rows: int = 16
) -> SolveOutcome:
    """Ground truth by sheer exhaustion, independent of the solve pipeline.

    Considers every completion of every row against every k-subset.  Rows
    outside a candidate subset are irrelevant to its validity and are pinned
    to the zero completion, which is also the lexicographic minimum, so the
    canonical witness is exactly the least (completion, selection) pair.
    Refuses instances above the configured caps.

    The walk keeps the least (induced matrix, subset) so far, replaced only
    by a strictly smaller matrix.  A subset's first valid completion, in
    counting order, induces its least matrix.  A subset valid under the
    overall least matrix P induces a matrix at most P (its rows of P, zeros
    elsewhere), so exactly P: the walk keeps the lowest of them, as the least
    pair requires.  With no unknowns it stops at the first valid subset.
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
        unknown = ((1 << d) - 1) ^ (row.ones | row.zeros)
        while unknown:
            bit = 1 << (unknown.bit_length() - 1)
            unknown ^= bit
            variants = [v for base in variants for v in (base, base | bit)]
        comp.append(variants)
    zero_profile = tuple(c[0] for c in comp)

    best: tuple[list[int], tuple[int, ...]] | None = None
    for subset in itertools.combinations(range(n), k):
        profile = _first_valid_profile(subset, comp, need)
        if profile is None:
            continue
        induced = list(zero_profile)
        for pos, i in enumerate(subset):
            induced[i] = profile[pos]
        if best is None or induced < best[0]:
            best = (induced, subset)
        if total_unknown == 0:
            break

    if best is None:
        return SolveOutcome(None, (), "exhaustive")
    best_profile, final_subset = best
    completed = tuple(PartialVector.from_mask(m, d) for m in best_profile)
    witness = Solution(completed, frozenset(final_subset))
    return SolveOutcome(witness, (), "exhaustive")


def _first_valid_profile(
    subset: tuple[int, ...], comp: list[list[int]], need: int
) -> tuple[int, ...] | None:
    for profile in itertools.product(*(comp[i] for i in subset)):
        if all((a ^ b).bit_count() >= need for a, b in itertools.combinations(profile, 2)):
            return profile
    return None


def _neighborhood_masks(rows: Sequence[PartialVector], r: int) -> list[int]:
    """Each row's r-neighborhood as a bitset of row indices, itself included,
    from completion buckets: `holders` maps each completion mask to the
    bitset of rows that hold it, and a row's neighborhood is the OR of
    `holders[x ^ f]` over its completions x and the flip masks f of weight
    at most r.

    Two rows sit at known distance <= r exactly when some completion of one
    is within Hamming distance r of some completion of the other: every
    completion pair differs where both rows are known and differ, and
    filling each unknown to agree with the other row differs nowhere else.

    The kernel checks first that no row has more than u = (k-1)(r+1)
    unknowns, so each row makes at most 2^u * V(d, r) lookups, V(d, r) the
    number of masks of weight <= r.  At every (k, r), k >= 2, whose gate
    lets the kernel run, that is at most k * gate <= n for every d <= 100,000,
    where the pair loop it replaces tested each row against n-1 others.
    """
    d = rows[0].d if rows else 0
    flips = [
        sum(1 << b for b in bits)
        for w in range(r + 1)
        for bits in itertools.combinations(range(d), w)
    ]
    completions = [_completion_masks(row) for row in rows]
    holders: dict[int, int] = {}
    for i, masks in enumerate(completions):
        for x in masks:
            holders[x] = holders.get(x, 0) | 1 << i
    near = []
    for masks in completions:
        acc = 0
        for x in masks:
            for f in flips:
                acc |= holders.get(x ^ f, 0)
        near.append(acc)
    return near


def _kernel(
    current: Instance, thresholds: Thresholds
) -> tuple[dict[int, PartialVector] | None, Instance, list[int]]:
    """The kernel stage: the greedy-bounded picks, or None; the rows left,
    `current` itself when none was pruned; and the pruned rows' positions in
    `current`, in the order they were pruned.

    Prunes from the largest r-neighborhood (lowest index on ties).  The
    neighborhoods are int bitsets over the rows `current` enters with, built
    once by `_neighborhood_masks` and never rewritten; the rows not yet
    pruned are one bitset, `alive`, so row j's neighborhood is
    `near[j] & alive`.  The sizes are buckets, each size mapped to the
    bitset of alive rows with that many alive neighbors, so the row to prune
    from is the lowest bit of the top bucket, the reference row.  A prune
    takes its row out of `alive` and moves its alive neighbors down one
    bucket, one AND per size, so a prune walks no neighborhood row by row;
    only a reference state's build does.  Pruning removes rows and leaves k
    and r alone, so the heavy-row precondition is checked once, on entry,
    and the pruning rule `_prunable_in` runs unchecked.  The kernel keeps
    the current reference row's state, which the rule updates as it prunes,
    and builds a row's state fresh with `_reference_state` when the
    reference row changes.  Below 34,506 rows the certified gate lets the
    kernel run only at k = 2, r = 0, and there the reference row never
    changes: greedy failed, so every row sits within known distance 0 of
    row 0, whose neighborhood is then every alive row and whose own
    signature, of size 0, is never pruned.  Once every size is below the
    gate, each greedy pick rules out fewer than gate rows, its
    neighborhood, so the scan makes k picks within the k * gate rows left.
    Below k * gate rows, or when no row can be pruned, the picks are None
    and `solve` hands the rows left to the exact search.
    """
    k, r = current.k, current.r
    rows = current.rows
    pruned: list[int] = []
    if current.n >= k * thresholds.gate:
        _require_light(rows, k, r)
        near = _neighborhood_masks(rows, r)
        buckets: dict[int, int] = {}
        for j, mask in enumerate(near):
            size = mask.bit_count()
            buckets[size] = buckets.get(size, 0) | 1 << j
        alive = (1 << current.n) - 1
        v = -1
        while current.n - len(pruned) >= k * thresholds.gate:
            top = max(buckets)
            if top < thresholds.gate:
                left = _survivors(current, alive)
                picks = greedy_attempt(left)
                if picks is None:
                    raise ContractError("greedy ran out of rows despite the size preconditions")
                return picks, left, pruned
            w = (buckets[top] & -buckets[top]).bit_length() - 1
            if w != v:
                v, state = w, _reference_state(rows, w, near[w] & alive)
            f = _prunable_in(state, thresholds.target)
            if f is None:
                break
            pruned.append(f)
            alive ^= 1 << f
            shifted: dict[int, int] = {}
            for size, members in buckets.items():
                members &= alive
                down = members & near[f]
                if members ^ down:
                    shifted[size] = shifted.get(size, 0) | members ^ down
                if down:
                    shifted[size - 1] = shifted.get(size - 1, 0) | down
            buckets = shifted
        current = _survivors(current, alive)
    return None, current, pruned


def _survivors(instance: Instance, alive: int) -> Instance:
    """`instance` itself when no row was pruned, else its rows at the set
    bits of `alive`."""
    if alive == (1 << instance.n) - 1:
        return instance
    kept = tuple(instance.rows[i] for i in _bit_indices(alive))
    return Instance(kept, instance.k, instance.r, instance.d)


def solve(instance: Instance) -> SolveOutcome:
    """Decide the instance exactly and, on YES, return a verified witness for
    the original input."""
    stages: list[tuple[str, float]] = []
    t0 = perf_counter()

    current, events = reduce(instance)
    k, r = current.k, current.r
    t1 = perf_counter()
    stages.append(("reduce", t1 - t0))

    kernel_rows = None
    picks, method = greedy_attempt(current), "greedy"
    if k < 2:
        # At most one row to pick, so the greedy pass is already exact.
        method = "shortcut"
    else:
        thresholds = Thresholds.for_parameters(k, r)
        kernel_rows = min(k * thresholds.gate, SATURATION_CAP)
        if picks is None:
            picks, left, pruned = _kernel(current, thresholds)
            events += [Removal(i, PRUNED) for i in _at_input(pruned, events)]
            method = "greedy-bounded"
            if picks is None:
                picks, method = brute_force(left), "brute-force"
    t2 = perf_counter()
    stages.append(("decide", t2 - t1))

    witness = None
    if picks is not None:
        witness = lift(instance, picks, events)
        t3 = perf_counter()
        stages.append(("lift", t3 - t2))
        report = verify_solution(instance, witness)
        if not report.ok:
            raise ContractError(
                "solver produced an invalid witness: " + "; ".join(report.failures)
            )
        stages.append(("verify", perf_counter() - t3))

    stats = (
        ("rows_in", instance.n),
        ("rows_reduced", current.n),
        ("k_reduced", k),
        ("kernel_rows", kernel_rows),
    )
    return SolveOutcome(witness, tuple(events), method, tuple(stages), stats)
