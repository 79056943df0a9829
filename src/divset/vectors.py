"""Partial Boolean vectors, problem instances, witnesses, and their text formats.

A vector entry is '0', '1' or '?', the last marking an unknown value.  The
distance used throughout is the number of coordinates at which two vectors
hold opposite *known* values; filling unknowns can only grow it.  Coordinates
are reported 1-based in human-facing output, row indices 0-based.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DimensionMismatch, ParseError

UNKNOWN = "?"

# Bit i of a mask holds the character at text position d-1-i, i.e. the
# leftmost character is the highest bit.  The _NOT_ tables delete the legal
# characters, so what is left of a text is what it holds illegally.
_ZEROS = str.maketrans("01?", "100")
_NOT_CELL = str.maketrans("", "", "01?")
_NOT_BIT = str.maketrans("", "", "01")


class PartialVector:
    """An immutable vector over {0, 1, ?}.

    The constructor deletes the three characters with one `translate` and
    refuses the text if anything is left, so only checked text reaches
    `int`.  It stores the length `d`, two bit masks, known ones and known
    zeros, and `unknown_count`, the bits in neither.  Distances read the
    masks, so they cost O(d / word size) instead of a character loop, and
    `complete_zeros` and `from_mask` build complete rows from masks without
    parsing text.
    """

    __slots__ = ("text", "d", "ones", "zeros", "unknown_count")

    def __init__(self, text: str):
        bad = text.translate(_NOT_CELL)
        if bad:
            raise ValueError(f"illegal character {bad[0]!r} in vector {text!r}")
        if text:
            ones = int(text.replace("?", "0"), 2)
            zeros = int(text.translate(_ZEROS), 2)
        else:
            ones = zeros = 0
        self.text = text
        self.d = d = len(text)
        self.ones = ones
        self.zeros = zeros
        self.unknown_count = d - (ones | zeros).bit_count()

    @classmethod
    def from_mask(cls, mask: int, d: int) -> "PartialVector":
        """The complete row of length d whose ones are the set bits of mask,
        built from the mask with no text to parse; mask must lie in
        [0, 2^d)."""
        if not 0 <= mask < 1 << d:
            raise ValueError(f"mask {mask} does not fit in {d} bits")
        row = object.__new__(cls)
        row.text = format(mask, f"0{d}b") if d else ""
        row.d = d
        row.ones = mask
        row.zeros = ((1 << d) - 1) ^ mask
        row.unknown_count = 0
        return row

    @property
    def is_complete(self) -> bool:
        return self.unknown_count == 0

    def unknown_positions(self) -> list[int]:
        """0-based text positions holding '?', ascending."""
        return [i for i, c in enumerate(self.text) if c == UNKNOWN]

    def complete_zeros(self) -> "PartialVector":
        """The completion that sets every unknown entry to 0."""
        if self.unknown_count == 0:
            return self
        # Built from the masks: the known ones stay, every other bit is a zero.
        done = object.__new__(PartialVector)
        done.text = self.text.replace(UNKNOWN, "0")
        done.d = self.d
        done.ones = self.ones
        done.zeros = ((1 << self.d) - 1) ^ self.ones
        done.unknown_count = 0
        return done

    def completed_with(self, bits: dict[int, str]) -> "PartialVector":
        """Fill the given unknown positions with '0'/'1'; refuses to touch known entries."""
        chars = list(self.text)
        for pos, bit in bits.items():
            if chars[pos] != UNKNOWN:
                raise ValueError(f"position {pos} is already known")
            chars[pos] = bit
        return PartialVector("".join(chars))

    def __len__(self) -> int:
        return self.d

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartialVector) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __repr__(self) -> str:
        return f"PartialVector({self.text!r})"

    def __str__(self) -> str:
        return self.text


def known_distance(a: PartialVector, b: PartialVector) -> int:
    """Count coordinates where a and b hold opposite known values.

    A lower bound on the Hamming distance of any completions of a and b;
    unknown entries never contribute.
    """
    if a.d != b.d:
        raise DimensionMismatch(f"vector length {a.d} vs {b.d}")
    return ((a.ones & b.zeros) | (a.zeros & b.ones)).bit_count()


def _bit_indices(mask: int) -> list[int]:
    """The positions of the set bits of a non-negative mask, ascending; one
    pass over its binary text, whatever the number of set bits."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


@dataclass(frozen=True)
class Instance:
    """An ordered list of rows plus the target set size k, the distance
    threshold r (pairs must end up at Hamming distance >= r+1), and the
    dimension d.  Duplicate rows are kept: identical partial rows may still
    be completed differently."""

    rows: tuple[PartialVector, ...]
    k: int
    r: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.k < 0 or self.r < 0 or self.d < 0:
            raise ValueError("k, r and d must be non-negative")
        for i, row in enumerate(self.rows):
            if row.d != self.d:
                raise DimensionMismatch(f"row {i} has length {row.d}, expected {self.d}")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_texts(cls, texts: Iterable[str], k: int, r: int, d: int | None = None) -> "Instance":
        rows = tuple(PartialVector(t) for t in texts)
        if d is None:
            d = rows[0].d if rows else 0
        return cls(rows, k, r, d)


@dataclass(frozen=True)
class Solution:
    """A full completion of every row (aligned index-by-index with the
    instance) plus the selected row indices."""

    completed: tuple[PartialVector, ...]
    selected: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "completed", tuple(self.completed))
        object.__setattr__(self, "selected", frozenset(self.selected))


@dataclass(frozen=True)
class VerificationReport:
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def neighborhood(instance: Instance, v_index: int, t: int) -> frozenset[int]:
    """Indices of all rows within known distance t of the given row.

    Always contains v_index itself (a row is at distance 0 from itself).
    """
    if not 0 <= v_index < instance.n:
        raise IndexError(f"row index {v_index} out of range for {instance.n} rows")
    v = instance.rows[v_index]
    return frozenset(
        j for j, row in enumerate(instance.rows) if known_distance(v, row) <= t
    )


def verify_solution(instance: Instance, solution: Solution) -> VerificationReport:
    """Check a witness against its instance; never raises.

    Verifies (i) every completed row is fully known and agrees with the
    instance row on every known entry, (ii) exactly k rows are selected,
    (iii) every selected pair sits at distance >= r+1.
    """
    failures: list[str] = []
    rows = instance.rows
    comp = solution.completed
    misfits: set[int] = set()
    if len(comp) != len(rows):
        failures.append(
            f"completed row count {len(comp)} differs from instance row count {len(rows)}"
        )
    else:
        for i, (row, full) in enumerate(zip(rows, comp)):
            if full.d != row.d:
                failures.append(f"row {i}: completed length {full.d}, expected {row.d}")
                misfits.add(i)
                continue
            if full.unknown_count:
                failures.append(f"row {i}: completed vector still contains '?'")
                continue
            wrong = (row.ones & full.zeros) | (row.zeros & full.ones)
            if wrong:
                coord = row.d - (wrong.bit_length() - 1)
                failures.append(f"row {i}: completion mismatch at coordinate {coord}")

    out_of_range = sorted(i for i in solution.selected if not 0 <= i < len(rows))
    for i in out_of_range:
        failures.append(f"selected index {i} out of range")
    if len(solution.selected) != instance.k:
        failures.append(f"selected {len(solution.selected)} rows, expected k = {instance.k}")

    if not out_of_range and len(comp) == len(rows):
        # A row of the wrong length is reported above and has no distance.
        for i, j in itertools.combinations(sorted(solution.selected - misfits), 2):
            dist = known_distance(comp[i], comp[j])
            if dist <= instance.r:
                failures.append(
                    f"selected pair ({i}, {j}): distance {dist} < required {instance.r + 1}"
                )
    return VerificationReport(tuple(failures))


BLANKS = " \t\r\f\v"  # separate the tokens of a line, stripped from its ends
_FIELD = re.compile(f"[^{BLANKS}]+")


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped line), skipping blanks and '#'
    comments.  Lines end at a newline only, and only the `BLANKS` are
    stripped: any other separator or space (U+001C, U+2028, a no-break
    space) stays in the line, so a row holding one is rejected."""
    for num, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(BLANKS)
        if not line or line.startswith("#"):
            continue
        yield num, line


def ascii_decimal(token: str) -> int:
    """The value of a run of ASCII digits.  ValueError for anything else,
    including the signs, underscores and non-ASCII digits `int` accepts."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not an ASCII decimal: {token!r}")
    return int(token)


def _decimal_fields(text: str) -> list[int | None]:
    """The tokens of `text` read as ASCII decimals; None stands for a token
    that is not one, including more digits than `int` converts."""
    values: list[int | None] = []
    for token in _FIELD.findall(text):
        try:
            values.append(ascii_decimal(token))
        except ValueError:
            values.append(None)
    return values


def read_decimals(line: str, num: int, kind: str, names: str, values: str) -> list[int]:
    """Content line `num` as one ASCII decimal per word of `names`, else a ParseError
    "expected {kind} '{names}'" or "{values} must be ASCII decimals"."""
    numbers = _decimal_fields(line)
    if len(numbers) != len(names.split(" ")):
        raise ParseError(f"expected {kind} '{names}', got {line!r}", num)
    if None in numbers:
        raise ParseError(f"{values} must be ASCII decimals, got {line!r}", num)
    return numbers


def read_header(lines: Iterator[tuple[int, str]], names: str) -> list[int]:
    """The first of the content lines, read as a header naming `names`."""
    for num, line in lines:
        return read_decimals(line, num, "header", names, "header values")
    raise ParseError(f"missing '{names}' header")


def parse_instance(text: str) -> Instance:
    """Read the instance format: a 'd k r' header line of ASCII decimals,
    then one row per line.

    Blank lines and lines starting with '#' are ignored.  Note that rows of a
    d=0 instance are not representable (they would be blank lines), so such
    instances always parse with zero rows.
    """
    lines = content_lines(text)
    d, k, r = read_header(lines, "d k r")
    rows: list[PartialVector] = []
    for num, line in lines:
        if len(line) != d:
            raise ParseError(f"row has {len(line)} characters, expected {d}", num)
        try:
            rows.append(PartialVector(line))
        except ValueError as exc:
            raise ParseError(str(exc), num) from None
    return Instance(tuple(rows), k, r, d)


def serialize_instance(instance: Instance) -> str:
    lines = [f"{instance.d} {instance.k} {instance.r}"]
    lines.extend(row.text for row in instance.rows)
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> Solution | None:
    """Read a solution file; returns None for a 'NO' file.

    Format: first line 'YES' or 'NO'; on YES, the fully completed rows in
    input order, then a final line 'S: i1 i2 ...' with 0-based indices in
    strictly ascending order.
    """
    lines = content_lines(text)
    for num, verdict in lines:
        if verdict not in ("YES", "NO"):
            raise ParseError(f"expected 'YES' or 'NO', got {verdict!r}", num)
        break
    else:
        raise ParseError("missing 'YES'/'NO' line")
    rows: list[PartialVector] = []
    selected: frozenset[int] | None = None
    for num, line in lines:
        if verdict == "NO":
            raise ParseError("unexpected content after 'NO'", num)
        if selected is not None:
            raise ParseError("unexpected content after the selection line", num)
        if line.startswith("S:"):
            indices = _decimal_fields(line[2:])
            if None in indices:
                raise ParseError(f"bad selection line {line!r}", num)
            selected = frozenset(indices)
            if len(selected) < len(indices):
                seen: set[int] = set()
                repeat = next(i for i in indices if i in seen or seen.add(i))
                raise ParseError(f"selection repeats row index {repeat}", num)
            if indices != sorted(indices):
                raise ParseError(f"selection indices must ascend, got {line!r}", num)
            continue
        if line.translate(_NOT_BIT):
            raise ParseError(f"completed row must use only 0/1, got {line!r}", num)
        rows.append(PartialVector(line))
    if verdict == "NO":
        return None
    if selected is None:
        raise ParseError("missing selection line 'S: ...'")
    return Solution(tuple(rows), selected)


def serialize_solution(witness: Solution | None) -> str:
    """Write a solution file; None stands for the answer NO."""
    if witness is None:
        return "NO\n"
    lines = ["YES"]
    lines.extend(row.text for row in witness.completed)
    indices = " ".join(str(i) for i in sorted(witness.selected))
    lines.append(f"S: {indices}" if indices else "S:")
    return "\n".join(lines) + "\n"
