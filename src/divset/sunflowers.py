"""Sunflower extraction in uniform set families.

A sunflower is a subfamily whose members pairwise intersect in one common
core; the members minus the core are the petals.  The search below is the
classical recursive procedure: greedily collect a maximal pairwise-disjoint
subfamily, and if that is too small, recurse on the sets containing the most
frequent element.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import FrozenSet, Hashable

from .errors import ContractError

ElementSet = FrozenSet[Hashable]


@dataclass(frozen=True)
class SetFamily:
    """Equal-cardinality subsets of some finite universe.  A sunflower names
    its members by their positions here."""

    members: tuple[ElementSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(frozenset(s) for s in self.members))


@dataclass(frozen=True)
class Sunflower:
    """Core plus the family positions of the participating members."""

    core: ElementSet
    member_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.member_indices)


def find_sunflower(family: SetFamily, b: int, a: int) -> Sunflower | None:
    """Search for a sunflower with at least `a` members in a b-uniform family.

    Any family of more than b! * (a-1)^b pairwise-distinct members yields one
    (Erdos-Rado).  Repeated members do not count towards that size: {1}, {1},
    {2} with b=1, a=3 has no 3-member sunflower.  Other inputs may produce a
    valid smaller sunflower or None.  Deterministic: ties are
    broken towards the smallest element / lowest member index.  Runs in time
    polynomial in the family size.
    """
    if a < 1:
        raise ValueError("requested sunflower size must be at least 1")
    for i, s in enumerate(family.members):
        if len(s) != b:
            raise ContractError(f"member {i} has cardinality {len(s)}, expected uniform {b}")
    if not family.members:
        return None
    items = list(enumerate(family.members))
    return _search(items, a, frozenset())


def _search(items: list[tuple[int, ElementSet]], a: int, core: ElementSet) -> Sunflower:
    if not items[0][1]:
        # All current sets are empty: every member equals the core exactly.
        chosen = items[: min(len(items), a)]
        return Sunflower(core, tuple(i for i, _ in chosen))

    used: set[Hashable] = set()
    disjoint: list[int] = []
    for i, s in items:
        if used.isdisjoint(s):
            disjoint.append(i)
            used.update(s)
    if len(disjoint) >= a:
        return Sunflower(core, tuple(disjoint))

    freq: Counter = Counter()
    for _, s in items:
        freq.update(s)
    top = max(freq.values())
    element = min(e for e, c in freq.items() if c == top)
    sub = [(i, s - {element}) for i, s in items if element in s]
    return _search(sub, a, core | {element})
