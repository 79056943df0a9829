import itertools
import random

import pytest
from hypothesis import given, strategies as st

from divset.errors import DimensionMismatch, ParseError
from divset.vectors import (
    Instance,
    PartialVector,
    Solution,
    known_distance,
    neighborhood,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    verify_solution,
)

vector_texts = st.text(alphabet="01?", min_size=0, max_size=8)


def pv(text):
    return PartialVector(text)


class TestDistance:
    def test_single_opposing_coordinate(self):
        assert known_distance(pv("10?"), pv("001")) == 1

    def test_identity(self):
        v = pv("1?01")
        assert known_distance(v, v) == 0

    def test_unknowns_never_contribute(self):
        assert known_distance(pv("??"), pv("10")) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            known_distance(pv("01"), pv("011"))

    @given(vector_texts, vector_texts)
    def test_symmetry_and_char_reference(self, ta, tb):
        n = min(len(ta), len(tb))
        a, b = pv(ta[:n]), pv(tb[:n])
        reference = sum(
            1 for x, y in zip(a.text, b.text) if {x, y} == {"0", "1"}
        )
        assert known_distance(a, b) == reference
        assert known_distance(b, a) == reference

    @given(vector_texts)
    def test_completion_never_shrinks_distance(self, text):
        # check every completion pair of two slices of the same pool
        a = pv(text)
        b = pv(text[::-1])
        base = known_distance(a, b)
        for ca in _completions(a):
            for cb in _completions(b):
                assert known_distance(ca, cb) >= base

    def test_triangle_inequality_on_full_vectors(self):
        for ta, tb, tc in itertools.product(["000", "011", "101", "110", "111"], repeat=3):
            a, b, c = pv(ta), pv(tb), pv(tc)
            assert known_distance(a, c) <= known_distance(a, b) + known_distance(b, c)


def _completions(v):
    """Every completion of v, filling its '?' left to right in counting order."""
    for bits in itertools.product("01", repeat=v.unknown_count):
        fill = iter(bits)
        yield pv("".join(next(fill) if c == "?" else c for c in v.text))


class TestCompleteZeros:
    def test_matches_parsed_completion(self):
        rng = random.Random(41)
        texts = ["", "?", "???", "0", "0110", "?" * 70, "10" * 35]
        for _ in range(2000):
            d = rng.randint(0, 70)
            density = rng.random()
            texts.append(
                "".join("?" if rng.random() < density else rng.choice("01") for _ in range(d))
            )
        for text in texts:
            got = pv(text).complete_zeros()
            want = pv(text.replace("?", "0"))
            assert (got.text, got.ones, got.zeros, got.unknown_count, got.d) == (
                want.text,
                want.ones,
                want.zeros,
                want.unknown_count,
                want.d,
            ), text
            assert got == want and got.is_complete

    def test_complete_row_is_returned_as_is(self):
        v = pv("0110")
        assert v.complete_zeros() is v


class TestFromMask:
    def test_matches_parsed_text(self):
        rng = random.Random(43)
        cases = [(0, 0), (0, 1), (1, 1), (0, 70), (2**70 - 1, 70)]
        for _ in range(2000):
            d = rng.randint(0, 70)
            cases.append((rng.getrandbits(d) if d else 0, d))
        for mask, d in cases:
            got = PartialVector.from_mask(mask, d)
            want = pv(format(mask, f"0{d}b") if d else "")
            assert (got.text, got.d, got.ones, got.zeros, got.unknown_count) == (
                want.text,
                want.d,
                want.ones,
                want.zeros,
                want.unknown_count,
            ), (mask, d)
            assert got == want and got.is_complete
        assert PartialVector.from_mask(0, 0).text == ""

    @pytest.mark.parametrize("mask, d", [(1, 0), (4, 2), (2**70, 70), (-1, 3), (-1, 0)])
    def test_rejects_masks_out_of_range(self, mask, d):
        with pytest.raises(ValueError, match=f"^mask {mask} does not fit in {d} bits$"):
            PartialVector.from_mask(mask, d)


class TestLengthChecks:
    def test_instance_rejects_row_of_other_length(self):
        with pytest.raises(DimensionMismatch, match="row 1 has length 3, expected 2"):
            Instance((pv("01"), pv("011")), 1, 0, 2)

    @pytest.mark.parametrize("k, r, d", [(-1, 0, 2), (1, -1, 2), (1, 0, -1)])
    def test_instance_rejects_negative_parameters(self, k, r, d):
        with pytest.raises(ValueError, match="must be non-negative"):
            Instance((), k, r, d)

    def test_verify_reports_completed_length(self):
        inst = Instance.from_texts(["0?", "11"], k=2, r=0)
        sol = Solution((pv("000"), pv("11")), frozenset({0, 1}))
        report = verify_solution(inst, sol)
        assert report.failures == ("row 0: completed length 3, expected 2",)

    def test_distance_rejects_other_lengths(self):
        with pytest.raises(DimensionMismatch, match="vector length 2 vs 3"):
            known_distance(pv("0?"), pv("011"))


class TestNeighborhood:
    def test_includes_center(self):
        inst = Instance.from_texts(["00", "01", "11"], k=1, r=0)
        assert neighborhood(inst, 0, 1) == {0, 1}

    def test_t_at_least_d_gives_everything(self):
        inst = Instance.from_texts(["00", "01", "11"], k=1, r=0)
        assert neighborhood(inst, 0, 2) == {0, 1, 2}

    def test_zero_radius(self):
        inst = Instance.from_texts(["0?", "11"], k=1, r=0)
        assert neighborhood(inst, 0, 0) == {0}

    def test_bad_index(self):
        inst = Instance.from_texts(["0?"], k=1, r=0)
        with pytest.raises(IndexError):
            neighborhood(inst, 3, 1)


class TestVerify:
    def test_valid_pair(self):
        inst = Instance.from_texts(["0?", "11"], k=2, r=1)
        sol = Solution((pv("00"), pv("11")), frozenset({0, 1}))
        assert verify_solution(inst, sol).ok

    def test_pair_too_close(self):
        inst = Instance.from_texts(["0?", "11"], k=2, r=1)
        sol = Solution((pv("01"), pv("11")), frozenset({0, 1}))
        report = verify_solution(inst, sol)
        assert not report.ok
        assert any("distance 1" in f for f in report.failures)

    def test_overwritten_known_entry(self):
        inst = Instance.from_texts(["0?", "11"], k=2, r=1)
        sol = Solution((pv("10"), pv("11")), frozenset({0, 1}))
        report = verify_solution(inst, sol)
        assert any("completion mismatch" in f for f in report.failures)

    def test_wrong_selection_size(self):
        inst = Instance.from_texts(["0?", "11"], k=2, r=1)
        sol = Solution((pv("00"), pv("11")), frozenset({0}))
        assert not verify_solution(inst, sol).ok

    def test_incomplete_row_rejected(self):
        inst = Instance.from_texts(["0?"], k=1, r=0)
        sol = Solution((pv("0?"),), frozenset({0}))
        report = verify_solution(inst, sol)
        assert any("contains '?'" in f for f in report.failures)


class TestInstanceFormat:
    def test_parse_basic(self):
        inst = parse_instance("3 2 1\n010\n1?1\n")
        assert (inst.d, inst.k, inst.r) == (3, 2, 1)
        assert [r.text for r in inst.rows] == ["010", "1?1"]

    def test_degenerate_empty(self):
        inst = parse_instance("0 0 0\n")
        assert inst.d == 0 and inst.n == 0

    def test_wrong_row_length_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_instance("2 1 0\n01\n0\n")
        assert err.value.line == 3

    def test_illegal_character(self):
        with pytest.raises(ParseError):
            parse_instance("2 1 0\n0x\n")

    @pytest.mark.parametrize(
        "text", ["0b1", "0b1?", "1_0", "1_0?", "+1", "1 0", "\u0661\u0660", "?\u0661"]
    )
    def test_int_literal_forms_rejected(self, text):
        # int(text, 2) accepts all but "1 0" once each '?' reads as 0 (the
        # Arabic-Indic digits read as 2), so the character check must not
        # lean on it, with or without '?'.
        with pytest.raises(ValueError, match="illegal character"):
            pv(text)
        with pytest.raises(ParseError, match="illegal character"):
            parse_instance(f"{len(text)} 1 0\n{text}\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_instance("2 1\n01\n")

    @pytest.mark.parametrize(
        "header", ["+3 1_0 \u0661", "+2 1 0", "2 1_0 0", "2 1 \u0660", "2 -1 0", "2 1 0x1"]
    )
    def test_header_takes_only_ascii_decimals(self, header):
        # int() reads the first as d=3, k=10, r=1.
        with pytest.raises(ParseError, match="ASCII decimals"):
            parse_instance(f"{header}\n01\n")

    def test_comments_and_blanks_ignored(self):
        inst = parse_instance("# header\n\n2 1 0\n# row\n01\n\n")
        assert [r.text for r in inst.rows] == ["01"]

    @given(
        st.lists(st.text(alphabet="01?", min_size=3, max_size=3), min_size=0, max_size=6),
        st.integers(0, 4),
        st.integers(0, 3),
    )
    def test_round_trip(self, texts, k, r):
        inst = Instance.from_texts(texts, k, r, d=3)
        assert parse_instance(serialize_instance(inst)) == inst


# Legal cells plus characters that a wrong check could let through: blanks,
# int() literal parts, a digit, an Arabic-Indic one, a separator and a
# no-break space.
READER_ALPHABET = "01?" + " _b+2\u0661\x1c\xa0"


def reader_texts(seed, count=3000):
    """Seeded texts for the differential tests, the empty text first.  Most
    draws are mostly legal, so both outcomes are common."""
    rng = random.Random(seed)
    texts = [""]
    for _ in range(count):
        legal = rng.choice(["01", "01?", READER_ALPHABET])
        noise = rng.choice([0.0, 0.05, 0.3])
        texts.append(
            "".join(
                rng.choice(READER_ALPHABET) if rng.random() < noise else rng.choice(legal)
                for _ in range(rng.randint(0, 12))
            )
        )
    return texts


def reference_vector(text):
    """A character loop: the five slots of PartialVector(text), or the error
    naming the first illegal character."""
    ones = zeros = unknown = 0
    for c in text:
        if c not in "01?":
            return f"illegal character {c!r} in vector {text!r}"
        ones = ones << 1 | (c == "1")
        zeros = zeros << 1 | (c == "0")
        unknown += c == "?"
    return (text, len(text), ones, zeros, unknown)


def slots(v):
    # __eq__ compares the text only, so every slot is read out.
    return (v.text, v.d, v.ones, v.zeros, v.unknown_count)


def vector_slots(text):
    try:
        return slots(PartialVector(text))
    except ValueError as exc:
        return str(exc)


class TestReaderDifferential:
    def test_vector_matches_character_loop(self):
        # Complete texts, texts with '?', and refused texts with and without
        # '?' are each counted, so a check or a read that leans on '?' being
        # present or absent is caught.
        texts = ["0b1", "0b1?", "1_0?", "\u0661\u0660", "?\u0661"] + reader_texts(seed=21)
        seen = {"complete": 0, "unknowns": 0, "refused": 0, "refused with ?": 0}
        for text in texts:
            expected = reference_vector(text)
            if isinstance(expected, str):
                seen["refused with ?" if "?" in text else "refused"] += 1
            else:
                seen["unknowns" if "?" in text else "complete"] += 1
            assert vector_slots(text) == expected, text
        assert min(seen.values()) > 200, seen

    def test_solution_rows_match_character_loop(self):
        rng = random.Random(22)
        texts = reader_texts(seed=23)
        refused = 0
        for _ in range(1500):
            rows = rng.sample(texts, rng.randint(0, 4))
            expected = []
            for num, row in enumerate(rows, start=2):
                # " " is the alphabet's one blank that content_lines strips.
                line = row.strip(" ")
                if not line:
                    continue
                if any(c not in "01" for c in line):
                    expected = f"line {num}: completed row must use only 0/1, got {line!r}"
                    refused += 1
                    break
                expected.append(reference_vector(line))
            text = "YES\n" + "".join(f"{row}\n" for row in rows) + "S:\n"
            try:
                got = [slots(v) for v in parse_solution(text).completed]
            except ParseError as exc:
                got = str(exc)
            assert got == expected, rows
        assert 300 < refused < 1200


class TestSolutionFormat:
    def test_round_trip(self):
        sol = Solution((pv("00"), pv("11")), frozenset({0, 1}))
        text = serialize_solution(sol)
        assert text == "YES\n00\n11\nS: 0 1\n"
        assert parse_solution(text) == sol

    def test_no(self):
        assert serialize_solution(None) == "NO\n"
        assert parse_solution("NO\n") is None

    def test_empty_selection(self):
        sol = Solution((), frozenset())
        assert parse_solution(serialize_solution(sol)) == sol

    def test_rejects_wildcard_rows(self):
        with pytest.raises(ParseError):
            parse_solution("YES\n0?\nS: 0\n")

    def test_missing_selection_line(self):
        with pytest.raises(ParseError):
            parse_solution("YES\n00\n")

    @pytest.mark.parametrize("line", ["S: +0 1", "S: \u0660 1", "S: 0 1_0", "S: 0 -1"])
    def test_selection_takes_only_ascii_decimals(self, line):
        with pytest.raises(ParseError, match="bad selection line"):
            parse_solution(f"YES\n00\n11\n{line}\n")

    def test_selection_must_ascend(self):
        with pytest.raises(ParseError, match="must ascend"):
            parse_solution("YES\n00\n11\nS: 1 0\n")
        # A repeat keeps its own message, wherever it sits.
        with pytest.raises(ParseError, match="repeats row index 1"):
            parse_solution("YES\n00\n11\nS: 1 0 1\n")
