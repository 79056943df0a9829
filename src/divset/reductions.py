"""Graph encodings into vector instances, and distance graphs over full vectors.

Two independent-set encodings are provided: one whose pair distances land on
exactly two values (2n-4 for adjacent vertices, 2n-2 otherwise), and one
targeting distance threshold 2 via a twice-subdivided graph, in two
coordinate layouts.  `hypercube_embedding` realizes a graph's
subdivide-once-plus-leaf variant as unit-distance rows.  Every row the
encodings and the embedding make is built from its ones mask by
`PartialVector.from_mask`, with coordinate c (1-based) at mask bit d-c, so
no row is written as text and parsed again.  `distance_graph` finds
unit-distance edges by looking up each row with one of its set bits
cleared, and tests every pair only at other thresholds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import AbstractSet, Mapping, Sequence

from .errors import ContractError, DimensionMismatch, ParseError
from .solver import exhaustive_solve
from .vectors import Instance, PartialVector
from .vectors import content_lines, read_decimals, read_header


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 1..n with an ordered edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        normalized = []
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u}, {v}) out of range 1..{self.n}")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            normalized.append(pair)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def adjacency(self) -> Mapping[int, AbstractSet[int]]:
        """Each vertex's neighbours.  Only vertices with an edge are stored,
        so the size follows the edge list, not n; a vertex without an edge
        reads as having no neighbours and is not inserted."""
        adj = _Adjacency()
        for u, v in self.edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return adj


class _Adjacency(dict):
    def __missing__(self, vertex: int) -> frozenset[int]:
        return frozenset()


def parse_graph(text: str) -> Graph:
    """Read the graph format: an 'n m' header, then m lines 'u v' with u < v,
    every number in ASCII decimals."""
    lines = content_lines(text)
    n, m = read_header(lines, "n m")
    edges: list[tuple[int, int]] = []
    for num, line in lines:
        u, v = read_decimals(line, num, "edge", "u v", "endpoints")
        if not u < v:
            raise ParseError(f"edge endpoints must satisfy u < v, got {u} {v}", num)
        edges.append((u, v))
    if len(edges) != m:
        raise ParseError(f"header promises {m} edges, file has {len(edges)}")
    try:
        return Graph(n, tuple(edges))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_graph(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def independent_set_to_diversity(graph: Graph, k: int) -> Instance:
    """Encode an independent-set question as a diversity instance with
    threshold r = 2n-4.

    Row i carries the incidence bits of vertex i over the edge ordering,
    followed by one private block of n-1 coordinates per vertex; the block of
    vertex i starts with n-1-deg(i) ones.  Any two rows then sit at distance
    2n-4 exactly when their vertices are adjacent and 2n-2 otherwise, so a
    k-diversity set is exactly an independent set of size k.
    """
    n, m = graph.n, graph.m
    if n < 2:
        raise ValueError("encoding needs at least two vertices (r = 2n-4 would be negative)")
    d = m + n * (n - 1)
    # Coordinate c is the mask bit d-c.  Edge l's bit d-l is set as bit m-l
    # and shifted past the blocks; vertex i's block follows m+(i-1)(n-1).
    incidence = [0] * (n + 1)
    for idx, (i, j) in enumerate(graph.edges, start=1):
        incidence[i] |= 1 << (m - idx)
        incidence[j] |= 1 << (m - idx)
    rows = []
    for i in range(1, n + 1):
        lead = n - 1 - incidence[i].bit_count()
        block = ((1 << lead) - 1) << (d - m - (i - 1) * (n - 1) - lead)
        rows.append(PartialVector.from_mask(incidence[i] << (d - m) | block, d))
    return Instance(tuple(rows), k, 2 * n - 4, d)


def independent_set_to_r2(graph: Graph, k: int, mode: str = "verbatim") -> Instance:
    """Encode an independent-set question at distance threshold 2 over the
    graph with every edge subdivided twice; the instance asks for |E|+k rows.

    Vertex i occupies a slot of two coordinates, and edge (i, j) adds two
    rows: i's slot plus the first coordinate of j's, and j's slot plus the
    first of i's.  mode "verbatim": the slot of i is {i, i+1}, so consecutive
    vertices overlap (on a single edge the first subdivision row can equal a
    vertex row).  mode "disjoint_pairs": the slot of i is {2i-1, 2i}.
    """
    if mode not in ("verbatim", "disjoint_pairs"):
        raise ValueError(f"unknown mode {mode!r}")
    n = graph.n
    d = 2 * n
    # Coordinate c is the mask bit d-c: `first[i]` is the first coordinate
    # of i's slot, and `slot[i]` adds the next one.
    first = {i: 1 << (d - (i if mode == "verbatim" else 2 * i - 1)) for i in range(1, n + 1)}
    slot = {i: bit | bit >> 1 for i, bit in first.items()}
    rows = [PartialVector.from_mask(slot[i], d) for i in range(1, n + 1)]
    for i, j in graph.edges:
        rows.append(PartialVector.from_mask(slot[i] | first[j], d))
        rows.append(PartialVector.from_mask(slot[j] | first[i], d))
    return Instance(tuple(rows), graph.m + k, 2, d)


def hypercube_embedding(graph: Graph) -> tuple[PartialVector, ...]:
    """Full 0/1 rows over n+m coordinates whose unit-distance graph is the
    input graph with every edge subdivided once and a leaf attached to each
    subdivision vertex.

    Row order: one unit row per vertex, then per edge l = {i, j} the row with
    ones at {i, j} (subdivision vertex) followed by {i, j, n+l} (its leaf).
    """
    n, m = graph.n, graph.m
    d = n + m
    # Coordinate c is the mask bit d-c, so vertex i is bit d-i and edge l's
    # leaf coordinate n+l is bit m-l.
    rows = [PartialVector.from_mask(1 << (d - i), d) for i in range(1, n + 1)]
    for idx, (i, j) in enumerate(graph.edges, start=1):
        pair = 1 << (d - i) | 1 << (d - j)
        rows.append(PartialVector.from_mask(pair, d))
        rows.append(PartialVector.from_mask(pair | 1 << (m - idx), d))
    return tuple(rows)


def subdivided_with_leaves(graph: Graph) -> Graph:
    """The graph with every edge subdivided once and a leaf on each
    subdivision vertex, under the canonical numbering: original vertices keep
    1..n, edge l contributes subdivision vertex n+2l-1 and leaf n+2l."""
    n = graph.n
    edges = []
    for idx, (i, j) in enumerate(graph.edges, start=1):
        w = n + 2 * idx - 1
        leaf = n + 2 * idx
        edges.append((i, w))
        edges.append((j, w))
        edges.append((w, leaf))
    return Graph(n + 2 * graph.m, tuple(edges))


def distance_graph(rows: Sequence[PartialVector], r: int) -> Graph:
    """Graph on the row indices (as vertices 1..len) with an edge wherever the
    Hamming distance lies in [1, r], edges in ascending pair order.  Rows
    must be fully known and as long as row 0.  A complete row's known ones
    are the whole row, so the distance of two rows is the popcount of the
    XOR of their `ones` masks.

    At r = 1, the FO transfer's case, no pair is tested.  Two complete rows
    sit at distance 1 exactly when they differ in one coordinate, so the
    row holding a one there is the other plus that one bit: every edge is
    found once, from its heavier end, by clearing each set bit of a row in
    turn and looking the result up among the rows' masks.  That costs the
    sum of the rows' popcounts in lookups, n+5m on the `hypercube_embedding`
    of an n-vertex, m-edge graph, then a sort of the edges into pair order.
    Every other r tests each pair of rows.
    """
    for i, row in enumerate(rows):
        if not row.is_complete:
            raise ContractError(f"row {i} contains unknown entries")
    for row in rows[1:]:
        if row.d != rows[0].d:
            raise DimensionMismatch(f"vector length {rows[0].d} vs {row.d}")
    masks = [row.ones for row in rows]
    edges = []
    if r == 1:
        holders: dict[int, list[int]] = {}
        for i, mask in enumerate(masks, start=1):
            holders.setdefault(mask, []).append(i)
        for i, mask in enumerate(masks, start=1):
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                for j in holders.get(mask ^ bit, ()):
                    edges.append((j, i) if j < i else (i, j))
        edges.sort()
    else:
        for i, a in enumerate(masks, start=1):
            for j, b in enumerate(masks[i:], start=i + 1):
                if 1 <= (a ^ b).bit_count() <= r:
                    edges.append((i, j))
    return Graph(len(rows), tuple(edges))


def has_independent_set(graph: Graph, k: int) -> bool:
    """Exhaustive check for an independent set of size k (test-harness scale)."""
    if k <= 0:
        return True
    if k > graph.n:
        return False
    conflict = graph.edge_set()
    for combo in itertools.combinations(range(1, graph.n + 1), k):
        if all(pair not in conflict for pair in itertools.combinations(combo, 2)):
            return True
    return False


def r2_equivalence_report(graph: Graph) -> dict:
    """Compare exhaustive independent-set answers with the exhaustive solver
    on both r=2 encodings; agreement is recorded per cell, never asserted."""
    cells = []
    for mode in ("verbatim", "disjoint_pairs"):
        for k in (1, 2):
            instance = independent_set_to_r2(graph, k, mode)
            expected = has_independent_set(graph, k)
            outcome = exhaustive_solve(instance, max_rows=instance.n)
            cells.append(
                {
                    "mode": mode,
                    "k": k,
                    "rows": instance.n,
                    "k_total": instance.k,
                    "independent_set": expected,
                    "diversity": outcome.answer,
                    "agree": expected == outcome.answer,
                }
            )
    return {
        "graph": {"n": graph.n, "edges": [list(e) for e in graph.edges]},
        "cells": cells,
    }
