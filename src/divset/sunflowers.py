"""Sunflower extraction in uniform set families.

A sunflower is a subfamily whose members pairwise intersect in one common
core; the members minus the core are the petals.  A set is an int bitset:
element e is in it when bit e is set.  The search below is the classical
procedure as one loop: greedily collect pairwise-disjoint members, in
order, and stop at the a-th; if fewer than `a` are disjoint, move the most
frequent element into the core and go on with the sets containing it.  So
a sunflower found has exactly `a` members, unless every set left equals
the core first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

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
    """Search for a sunflower of `a` members in a b-uniform family.

    Any family of more than b! * (a-1)^b pairwise-distinct members yields one
    (Erdos-Rado).  Repeated members do not count towards that size: {1}, {1},
    {2} with b=1, a=3 has no 3-member sunflower.  A sunflower found has
    exactly `a` members, except when the narrowing ends with fewer than `a`
    sets, all equal to the core: then it holds them all, a valid smaller
    sunflower.  None only for the empty family.  Every member is checked to
    be a non-negative bitset of b elements, whatever the search reads.

    Deterministic: the disjoint collection takes members in index order and
    stops at the a-th, and among the most frequent elements the core takes
    the highest bit.  `solver._signature_key` numbers the kernel's elements
    so that the highest bit is the least (tag, position) pair.  The members
    are listed in ascending family position: the disjoint pass and each
    narrowing keep the family's order, and when every set left equals the
    core the first `a` are taken.  Runs in time polynomial in the family
    size.
    """
    if a < 1:
        raise ValueError("requested sunflower size must be at least 1")
    sets = family.members
    if not sets:
        return None
    if min(sets) < 0 or set(map(int.bit_count, sets)) != {b}:
        for i, s in enumerate(sets):
            if s < 0 or s.bit_count() != b:
                raise ContractError(f"member {i} is not a bitset of {b} elements")
    # positions[j] is the family position of sets[j]; the narrowing keeps both.
    positions: Sequence[int] = range(len(sets))
    core = 0
    while sets[0]:
        used = 0
        disjoint: list[int] = []
        for j, s in enumerate(sets):
            if not used & s:
                disjoint.append(positions[j])
                if len(disjoint) == a:
                    return Sunflower(core, tuple(disjoint))
                used |= s

        freq: Counter = Counter()
        for s in sets:
            freq.update(_bit_indices(s))
        bit = 1 << max(freq, key=lambda e: (freq[e], e))
        core |= bit
        kept = [j for j, s in enumerate(sets) if s & bit]
        positions = [positions[j] for j in kept]
        sets = [sets[j] ^ bit for j in kept]
    # All current sets are empty: every member equals the core exactly.
    return Sunflower(core, tuple(positions[:a]))
