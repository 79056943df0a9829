import random
from math import factorial

import pytest
from hypothesis import given, strategies as st

from divset.errors import ContractError
from divset.sunflowers import SetFamily, Sunflower, find_sunflower


def check_is_sunflower(family: SetFamily, flower: Sunflower):
    """Independent validity check: every pairwise intersection equals the
    core, and the members are listed in strictly ascending family position,
    which the kernel's pruning rule relies on."""
    chosen = [family.members[i] for i in flower.member_indices]
    assert list(flower.member_indices) == sorted(set(flower.member_indices))
    for i in range(len(chosen)):
        for j in range(i + 1, len(chosen)):
            assert chosen[i] & chosen[j] == flower.core
    for s in chosen:
        assert flower.core & ~s == 0


def bits(s):
    return sum(1 << e for e in s)


def fam(*sets):
    return SetFamily(tuple(bits(s) for s in sets))


def test_shared_core():
    family = fam({1, 2}, {1, 3}, {1, 4})
    flower = find_sunflower(family, 2, 3)
    assert flower.core == bits({1})
    assert flower.member_indices == (0, 1, 2)
    check_is_sunflower(family, flower)


def test_disjoint_family():
    family = fam({1}, {2}, {3})
    flower = find_sunflower(family, 1, 3)
    assert flower.core == 0
    assert len(flower) == 3


def test_empty_sets():
    family = fam(set(), set(), set())
    flower = find_sunflower(family, 0, 2)
    assert flower.core == 0
    assert flower.member_indices == (0, 1)


def test_empty_family():
    assert find_sunflower(SetFamily(()), 2, 2) is None


def test_non_uniform_rejected():
    with pytest.raises(ContractError):
        find_sunflower(fam({1, 2}, {3}), 2, 2)


def test_duplicate_members_form_trivial_sunflower():
    family = fam({1, 2}, {1, 2}, {1, 2})
    flower = find_sunflower(family, 2, 3)
    assert flower.core == bits({1, 2})
    assert len(flower) == 3
    check_is_sunflower(family, flower)


def test_guarantee_at_derived_size():
    # random uniform family just above the classical bound for b=3, a=4
    rng = random.Random(5)
    b, a = 3, 4
    size = factorial(b) * (a - 1) ** b + 1
    universe = list(range(60))
    members, seen = [], set()
    while len(members) < size:
        s = bits(rng.sample(universe, b))
        if s not in seen:
            seen.add(s)
            members.append(s)
    family = SetFamily(tuple(members))
    flower = find_sunflower(family, b, a)
    assert flower is not None and len(flower) == a
    check_is_sunflower(family, flower)


def test_tie_goes_to_the_highest_bit():
    # Every later set meets {1, 2}, so the disjoint pass finds one member and
    # the search narrows to the sets holding the most frequent element;
    # elements 1 and 2 each lie in three sets, and the core takes the
    # higher, 2.
    family = fam({1, 2}, {1, 3}, {2, 3}, {2, 4}, {1, 4})
    flower = find_sunflower(family, 2, 3)
    assert flower.core == bits({2})
    assert flower.member_indices == (0, 2, 3)
    check_is_sunflower(family, flower)


def test_long_core_does_not_recurse():
    # The core grows by one element per pass, 1,200 passes here, past
    # Python's default recursion limit.
    core = bits(range(1200))
    family = SetFamily(tuple(core | 1 << (1200 + i) for i in range(3)))
    flower = find_sunflower(family, 1201, 3)
    assert flower.core == core
    assert flower.member_indices == (0, 1, 2)
    check_is_sunflower(family, flower)


def test_negative_member_rejected():
    with pytest.raises(ContractError):
        find_sunflower(SetFamily((-1,)), 1, 1)


def test_size_below_one_rejected():
    with pytest.raises(ValueError, match="at least 1"):
        find_sunflower(fam({0}, {1}), 1, 0)


def test_stops_at_a_members():
    family = SetFamily(tuple(1 << e for e in range(10_000)))
    flower = find_sunflower(family, 1, 3)
    assert flower == Sunflower(0, (0, 1, 2))


@pytest.mark.parametrize("bad", [-2, 0b110])
def test_whole_family_checked_past_the_flower(bad):
    # The first three members already form the flower; the bad member after
    # them must still be named.
    family = SetFamily((1, 2, 4, 8, bad, 16))
    with pytest.raises(ContractError, match="member 4 "):
        find_sunflower(family, 1, 3)


def test_determinism():
    family = fam({1, 2}, {2, 3}, {1, 3}, {4, 5}, {2, 6})
    first = find_sunflower(family, 2, 2)
    second = find_sunflower(family, 2, 2)
    assert first == second


@given(
    st.lists(
        st.frozensets(st.integers(0, 9), min_size=2, max_size=2),
        min_size=1,
        max_size=20,
    ),
    st.integers(1, 5),
)
def test_output_always_valid(members, a):
    family = SetFamily(tuple(map(bits, members)))
    flower = find_sunflower(family, 2, a)
    if flower is not None:
        assert 1 <= len(flower) <= a
        check_is_sunflower(family, flower)
