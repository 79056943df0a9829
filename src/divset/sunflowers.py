"""Sunflower extraction in uniform set families.

A sunflower is a subfamily whose members pairwise intersect in one common
core; the members minus the core are the petals.  A set is an int bitset:
element e is in it when bit e is set.  The search below is the classical
procedure as one loop: greedily collect a maximal pairwise-disjoint
subfamily, and if that is too small, move the most frequent element into
the core and go on with the sets containing it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ContractError
from .vectors import _bit_indices


@dataclass(frozen=True)
class SetFamily:
    """Equal-cardinality int bitsets.  A sunflower names its members by their
    positions here."""

    members: tuple[int, ...]


@dataclass(frozen=True)
class Sunflower:
    """Core plus the family positions of the participating members."""

    core: int
    member_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.member_indices)


def find_sunflower(family: SetFamily, b: int, a: int) -> Sunflower | None:
    """Search for a sunflower with at least `a` members in a b-uniform family.

    Any family of more than b! * (a-1)^b pairwise-distinct members yields one
    (Erdos-Rado).  Repeated members do not count towards that size: {1}, {1},
    {2} with b=1, a=3 has no 3-member sunflower.  Other inputs may produce a
    valid smaller sunflower or None.  Deterministic: the disjoint collection
    takes members in index order, and among the most frequent elements the
    core takes the highest bit.  `solver._signature_key` numbers the
    kernel's elements so that the highest bit is the least (tag, position)
    pair.  The members are listed in ascending family position: the disjoint
    pass and each narrowing keep the family's order, and when every set left
    equals the core the first `a` are taken.  Runs in time polynomial in the
    family size.
    """
    if a < 1:
        raise ValueError("requested sunflower size must be at least 1")
    for i, s in enumerate(family.members):
        if s < 0 or s.bit_count() != b:
            raise ContractError(f"member {i} is not a bitset of {b} elements")
    if not family.members:
        return None
    items = list(enumerate(family.members))
    core = 0
    while items[0][1]:
        used = 0
        disjoint: list[int] = []
        for i, s in items:
            if not used & s:
                disjoint.append(i)
                used |= s
        if len(disjoint) >= a:
            return Sunflower(core, tuple(disjoint))

        freq: Counter = Counter()
        for _, s in items:
            freq.update(_bit_indices(s))
        bit = 1 << max(freq, key=lambda e: (freq[e], e))
        core |= bit
        items = [(i, s ^ bit) for i, s in items if s & bit]
    # All current sets are empty: every member equals the core exactly.
    return Sunflower(core, tuple(i for i, _ in items[:a]))
