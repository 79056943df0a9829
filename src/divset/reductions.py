"""Graph encodings into vector instances, and distance graphs over full vectors.

Two independent-set encodings are provided: one whose pair distances land on
exactly two values (2n-4 for adjacent vertices, 2n-2 otherwise), and one
targeting distance threshold 2 via a twice-subdivided graph, in two
coordinate layouts.  `hypercube_embedding` realizes a graph's
subdivide-once-plus-leaf variant as unit-distance rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ContractError, ParseError
from .solver import exhaustive_solve
from .vectors import Instance, PartialVector, known_distance
from .vectors import _effective_lines


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

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def parse_graph(text: str) -> Graph:
    """Read the graph format: an 'n m' header, then m lines 'u v' with u < v."""
    n = m = None
    edges: list[tuple[int, int]] = []
    for num, line in _effective_lines(text):
        parts = line.split()
        if n is None:
            if len(parts) != 2:
                raise ParseError(f"expected header 'n m', got {line!r}", num)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer value in header {line!r}", num) from None
            if n < 0 or m < 0:
                raise ParseError("header values must be non-negative", num)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected edge 'u v', got {line!r}", num)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}", num) from None
        if not u < v:
            raise ParseError(f"edge endpoints must satisfy u < v, got {u} {v}", num)
        edges.append((u, v))
    if n is None:
        raise ParseError("missing 'n m' header")
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


def _row_from_coords(coords: Iterable[int], d: int) -> PartialVector:
    chars = ["0"] * d
    for c in coords:
        chars[c - 1] = "1"
    return PartialVector("".join(chars))


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
    adj = graph.adjacency()
    rows = []
    for i in range(1, n + 1):
        incidence = "".join("1" if i in e else "0" for e in graph.edges)
        deg = len(adj[i])
        private = "1" * (n - 1 - deg) + "0" * deg
        before = "0" * ((i - 1) * (n - 1))
        after = "0" * ((n - i) * (n - 1))
        rows.append(PartialVector(incidence + before + private + after))
    return Instance(tuple(rows), k, 2 * n - 4, d)


def independent_set_to_r2(graph: Graph, k: int, mode: str = "verbatim") -> Instance:
    """Encode an independent-set question at distance threshold 2 over the
    graph with every edge subdivided twice; the instance asks for |E|+k rows.

    mode "verbatim": vertex i occupies coordinates {i, i+1}; edge (i, j) adds
    rows {i, i+1, j} and {j, j+1, i}.  Consecutive vertices overlap in this
    layout (on a single edge the first subdivision row can equal a vertex
    row).  mode "disjoint_pairs": vertex i occupies {2i-1, 2i} instead, and
    the edge rows are {2i-1, 2i, 2j-1} and {2j-1, 2j, 2i-1}.
    """
    if mode not in ("verbatim", "disjoint_pairs"):
        raise ValueError(f"unknown mode {mode!r}")
    n = graph.n
    d = 2 * n
    rows = []
    for i in range(1, n + 1):
        coords = (i, i + 1) if mode == "verbatim" else (2 * i - 1, 2 * i)
        rows.append(_row_from_coords(coords, d))
    for i, j in graph.edges:
        if mode == "verbatim":
            first = {i, i + 1, j}
            second = {j, j + 1, i}
        else:
            first = {2 * i - 1, 2 * i, 2 * j - 1}
            second = {2 * j - 1, 2 * j, 2 * i - 1}
        rows.append(_row_from_coords(first, d))
        rows.append(_row_from_coords(second, d))
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
    rows = [_row_from_coords([i], d) for i in range(1, n + 1)]
    for idx, (i, j) in enumerate(graph.edges, start=1):
        rows.append(_row_from_coords([i, j], d))
        rows.append(_row_from_coords([i, j, n + idx], d))
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
    Hamming distance lies in [1, r].  Rows must be fully known."""
    for i, row in enumerate(rows):
        if not row.is_complete:
            raise ContractError(f"row {i} contains unknown entries")
    edges = []
    for i, j in itertools.combinations(range(len(rows)), 2):
        if 1 <= known_distance(rows[i], rows[j]) <= r:
            edges.append((i + 1, j + 1))
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


def r2_equivalence_report(graph: Graph, ks: Sequence[int] = (1, 2)) -> dict:
    """Compare exhaustive independent-set answers with the exhaustive solver
    on both r=2 encodings; agreement is recorded per cell, never asserted."""
    cells = []
    for mode in ("verbatim", "disjoint_pairs"):
        for k in ks:
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
