import itertools
import random

import pytest

from divset.errors import ContractError, DimensionMismatch, ParseError
from divset.reductions import (
    Graph,
    distance_graph,
    has_independent_set,
    hypercube_embedding,
    independent_set_to_diversity,
    independent_set_to_r2,
    parse_graph,
    r2_equivalence_report,
    serialize_graph,
    subdivided_with_leaves,
)
from divset.solver import exhaustive_solve
from divset.vectors import PartialVector, known_distance

P3 = Graph(3, ((1, 2), (2, 3)))
K2 = Graph(2, ((1, 2),))


def random_graph(rng, n, p=0.5):
    edges = tuple(
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < p
    )
    return Graph(n, edges)


class TestGraph:
    def test_rejects_loops_and_duplicates(self):
        with pytest.raises(ValueError):
            Graph(2, ((1, 1),))
        with pytest.raises(ValueError):
            Graph(3, ((1, 2), (2, 1)))

    def test_adjacency_stores_only_vertices_with_edges(self):
        for graph, stored in [
            (Graph(5, ((1, 2), (2, 4))), {1: {2}, 2: {1, 4}, 4: {2}}),
            (Graph(2, ((1, 2),)), {1: {2}, 2: {1}}),
            (Graph(3, ()), {}),
        ]:
            adj = graph.adjacency()
            assert dict(adj) == stored
            # A vertex without an edge reads as empty and is not inserted.
            assert all(not adj[v] for v in range(1, graph.n + 2) if v not in stored)
            assert dict(adj) == stored

    def test_parse_round_trip(self):
        text = "3 2\n1 2\n2 3\n"
        assert serialize_graph(parse_graph(text)) == text

    def test_parse_rejects_backwards_edge(self):
        with pytest.raises(ParseError):
            parse_graph("3 1\n2 1\n")

    @pytest.mark.parametrize(
        "text", ["3 1\n1 +2\n", "3 1\n1 \u0662\n", "+3 1\n1 2\n", "3 1_0\n1 2\n"]
    )
    def test_parse_takes_only_ascii_decimals(self, text):
        with pytest.raises(ParseError, match="ASCII decimals"):
            parse_graph(text)

    def test_parse_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph("3 2\n1 2\n")


class TestDiversityEncoding:
    def test_p3_layout(self):
        instance = independent_set_to_diversity(P3, 2)
        assert instance.d == 8 and instance.r == 2
        assert [r.text for r in instance.rows] == [
            "10100000",
            "11000000",
            "01000010",
        ]
        assert known_distance(instance.rows[0], instance.rows[1]) == 2
        assert known_distance(instance.rows[0], instance.rows[2]) == 4

    def test_rows_match_text_layout(self):
        # Each row written out as text: its incidence over the edge order,
        # then n blocks of n-1, its own holding n-1-deg ones first.
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.choice([0.0, 1.0, rng.random()]))
            instance = independent_set_to_diversity(g, 2)
            assert instance.d == g.m + n * (n - 1)
            for i, row in enumerate(instance.rows, start=1):
                deg = sum(i in e for e in g.edges)
                expected = PartialVector(
                    "".join("1" if i in e else "0" for e in g.edges)
                    + "0" * ((i - 1) * (n - 1))
                    + "1" * (n - 1 - deg)
                    + "0" * deg
                    + "0" * ((n - i) * (n - 1))
                )
                assert (row.text, row.ones, row.zeros, row.unknown_count) == (
                    expected.text,
                    expected.ones,
                    expected.zeros,
                    0,
                ), (g, i)

    def test_k2_degenerate(self):
        instance = independent_set_to_diversity(K2, 1)
        assert instance.r == 0
        assert known_distance(instance.rows[0], instance.rows[1]) == 0

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            independent_set_to_diversity(Graph(1, ()), 1)

    def test_two_distance_law_on_random_graphs(self):
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randint(3, 8)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            instance = independent_set_to_diversity(g, 2)
            adjacency = g.edge_set()
            for i, j in itertools.combinations(range(n), 2):
                dist = known_distance(instance.rows[i], instance.rows[j])
                expected = 2 * n - 4 if (i + 1, j + 1) in adjacency else 2 * n - 2
                assert dist == expected

    def test_answer_equivalence_small(self):
        rng = random.Random(2)
        for _ in range(15):
            n = rng.randint(3, 6)
            g = random_graph(rng, n, rng.uniform(0.3, 0.7))
            for k in (1, 2, 3):
                expected = has_independent_set(g, k)
                got = exhaustive_solve(independent_set_to_diversity(g, k)).answer
                assert got == expected, (g, k)

    def test_independent_set_sizes_outside_one_to_n(self):
        assert has_independent_set(P3, 0) and has_independent_set(P3, -1)
        assert not has_independent_set(P3, 4)
        assert has_independent_set(Graph(0, ()), 0)
        assert not has_independent_set(Graph(0, ()), 1)


class TestR2Encoding:
    def test_k2_disjoint_pairs(self):
        instance = independent_set_to_r2(K2, 1, "disjoint_pairs")
        assert [r.text for r in instance.rows] == ["1100", "0011", "1110", "1011"]
        assert (instance.k, instance.r) == (2, 2)
        close = {
            (i, j)
            for i, j in itertools.combinations(range(4), 2)
            if known_distance(instance.rows[i], instance.rows[j]) <= 2
        }
        # exactly the twice-subdivided edge: v1 - e1 - e2 - v2
        assert close == {(0, 2), (2, 3), (1, 3)}

    def test_k2_verbatim_overlap(self):
        instance = independent_set_to_r2(K2, 1, "verbatim")
        assert instance.rows[0] == instance.rows[2]
        assert known_distance(instance.rows[0], instance.rows[2]) == 0

    def test_subdivision_row_distance_matches_symmetric_difference(self):
        # independent check: the distance of the two rows of an edge equals
        # the symmetric difference of their coordinate sets.  That is 2 in
        # the disjoint layout always, and 2 in the verbatim layout except
        # for consecutive vertices (j = i+1), where the sets overlap and the
        # distance degenerates to 1.
        rng = random.Random(3)
        for mode in ("verbatim", "disjoint_pairs"):
            for _ in range(10):
                g = random_graph(rng, 5, 0.6)
                instance = independent_set_to_r2(g, 1, mode)
                for e_index, (i, j) in enumerate(g.edges):
                    if mode == "verbatim":
                        first_coords = {i, i + 1, j}
                        second_coords = {j, j + 1, i}
                    else:
                        first_coords = {2 * i - 1, 2 * i, 2 * j - 1}
                        second_coords = {2 * j - 1, 2 * j, 2 * i - 1}
                    expected = len(first_coords ^ second_coords)
                    first = instance.rows[g.n + 2 * e_index]
                    second = instance.rows[g.n + 2 * e_index + 1]
                    assert known_distance(first, second) == expected
                    if mode == "disjoint_pairs":
                        assert expected == 2
                    else:
                        assert expected == (1 if j == i + 1 else 2)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            independent_set_to_r2(K2, 1, "other")

    def test_report_populates_every_cell(self):
        report = r2_equivalence_report(P3)
        assert len(report["cells"]) == 4
        for cell in report["cells"]:
            assert isinstance(cell["independent_set"], bool)
            assert isinstance(cell["diversity"], bool)
            assert isinstance(cell["agree"], bool)


class TestEmbedding:
    def test_k2_rows(self):
        rows = hypercube_embedding(K2)
        assert [r.text for r in rows] == ["100", "010", "110", "111"]

    def test_k2_distance_graph_is_path_plus_leaf(self):
        g = distance_graph(hypercube_embedding(K2), 1)
        assert g.edge_set() == {(1, 3), (2, 3), (3, 4)}
        assert g.edge_set() == subdivided_with_leaves(K2).edge_set()

    def test_unit_rows_pairwise_distance_two(self):
        rows = hypercube_embedding(P3)
        assert known_distance(rows[0], rows[1]) == 2

    def test_leaf_row_distance_one(self):
        rows = hypercube_embedding(P3)
        assert known_distance(rows[3], rows[4]) == 1  # first edge's pair

    def test_isomorphism_on_random_graphs(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            embedded = distance_graph(hypercube_embedding(g), 1)
            expected = subdivided_with_leaves(g)
            assert embedded.n == expected.n
            assert embedded.edge_set() == expected.edge_set()

    def test_rows_carry_ones_at_their_coordinates(self):
        # A text reference: each row holds its ones exactly at the 1-based
        # coordinates that `hypercube_embedding`'s docstring names.
        rng = random.Random(12)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            d = g.n + g.m
            coords = [[i] for i in range(1, g.n + 1)]
            for idx, (i, j) in enumerate(g.edges, start=1):
                coords += [[i, j], [i, j, g.n + idx]]
            want = ["".join("1" if c in cs else "0" for c in range(1, d + 1)) for cs in coords]
            got = [(row.text, row.d, row.ones, row.zeros, row.unknown_count) for row in hypercube_embedding(g)]
            parsed = [PartialVector(text) for text in want]
            assert got == [(v.text, v.d, v.ones, v.zeros, v.unknown_count) for v in parsed]


def seeded_graph_300_900():
    """The seeded 300-vertex, 900-edge graph that CI's `fo harness` step
    writes too."""
    rng = random.Random(3)
    pairs = [(u, v) for u in range(1, 301) for v in range(u + 1, 301)]
    return Graph(300, tuple(sorted(rng.sample(pairs, 900))))


class TestDistanceGraph:
    def test_large_embedding_is_subdivision_in_pair_order(self):
        g = seeded_graph_300_900()
        rows = hypercube_embedding(g)
        embedded = distance_graph(rows, 1)
        assert (len(rows), len(embedded.edges)) == (2100, 2700)
        assert embedded.edges == tuple(sorted(subdivided_with_leaves(g).edges))

    def test_unit_distance_matches_pairwise_on_sparse_rows(self):
        # Sparse rows from a small pool repeat, so one mask has several
        # holders and each edge to it must be listed once per holder.
        rng = random.Random(64)
        shared = edges = 0
        for d in range(0, 65):
            for _ in range(6):
                # Up to 4 ones each; three more rows one flip from others.
                pool = [sum(1 << b for b in rng.sample(range(d), min(d, rng.randint(0, 4)))) for _ in range(6)]
                pool += [m ^ 1 << rng.randrange(d) for m in pool[:3]] if d else []
                masks = [rng.choice(pool) for _ in range(rng.randint(0, 14))]
                rows = [PartialVector.from_mask(m, d) for m in masks]
                expected = tuple(
                    (i + 1, j + 1)
                    for i, j in itertools.combinations(range(len(rows)), 2)
                    if known_distance(rows[i], rows[j]) == 1
                )
                assert distance_graph(rows, 1).edges == expected, (d, masks)
                shared += len(masks) > len(set(masks))
                edges += len(expected)
        assert shared > 100 and edges > 1000

    def test_r0_is_edgeless(self):
        rows = hypercube_embedding(K2)
        assert distance_graph(rows, 0).edges == ()

    def test_r_at_least_d_is_complete_on_distinct_rows(self):
        rows = [PartialVector(t) for t in ("00", "01", "10", "11")]
        g = distance_graph(rows, 2)
        assert len(g.edges) == 6

    def test_duplicate_rows_never_adjacent(self):
        rows = [PartialVector("01"), PartialVector("01")]
        assert distance_graph(rows, 2).edges == ()

    def test_rejects_unknowns(self):
        with pytest.raises(ContractError):
            distance_graph([PartialVector("0?")], 1)

    def test_matches_pairwise_known_distance(self):
        # Rows drawn from a small pool repeat, so distance 0 occurs.
        rng = random.Random(27)
        zero_pairs = 0
        for d in range(1, 13):
            for r in range(4):
                for _ in range(5):
                    pool = ["".join(rng.choice("01") for _ in range(d)) for _ in range(4)]
                    rows = [PartialVector(rng.choice(pool)) for _ in range(rng.randint(0, 10))]
                    distances = {
                        (i + 1, j + 1): known_distance(rows[i], rows[j])
                        for i, j in itertools.combinations(range(len(rows)), 2)
                    }
                    zero_pairs += list(distances.values()).count(0)
                    expected = tuple(pair for pair, dist in distances.items() if 1 <= dist <= r)
                    assert distance_graph(rows, r).edges == expected, (rows, r)
        assert zero_pairs > 0

    def test_unknowns_reported_before_a_length_mismatch(self):
        with pytest.raises(ContractError, match=r"^row 2 contains unknown entries$"):
            distance_graph([PartialVector("01"), PartialVector("011"), PartialVector("0?")], 1)
        # The first row whose length differs from row 0's is named.
        rows = [PartialVector(t) for t in ("01", "10", "011", "1")]
        with pytest.raises(DimensionMismatch, match=r"^vector length 2 vs 3$"):
            distance_graph(rows, 1)
