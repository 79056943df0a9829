import hashlib
import itertools
import random
import tracemalloc

import pytest

from divset.errors import ContractError, ParseError, UnboundVariableError
from divset.fologic import (
    Adjacent,
    And,
    Equal,
    Exists,
    ForAll,
    Implies,
    Not,
    Or,
    _guard,
    embedding_transfer_report,
    evaluate,
    formula_size,
    free_variables,
    parse_formula,
    rewrite_sentence,
    to_text,
    vertex_classifier,
)
from divset.reductions import Graph, distance_graph, hypercube_embedding, parse_graph
from test_acceptance import CORPUS

K2 = Graph(2, ((1, 2),))
K3 = Graph(3, ((1, 2), (1, 3), (2, 3)))
P3 = Graph(3, ((1, 2), (2, 3)))


def tt_evaluate(graph, phi):
    """Independent evaluator: expands quantifiers into explicit vertex lists
    without short-circuiting."""
    adjacency = graph.adjacency()
    vertices = list(range(1, graph.n + 1))

    def expand(f, env):
        if isinstance(f, Adjacent):
            return env[f.y] in adjacency[env[f.x]]
        if isinstance(f, Equal):
            return env[f.x] == env[f.y]
        if isinstance(f, Not):
            return not expand(f.body, env)
        if isinstance(f, And):
            return expand(f.left, env) and expand(f.right, env)
        if isinstance(f, Implies):
            return (not expand(f.left, env)) or expand(f.right, env)
        if isinstance(f, Exists):
            return any([expand(f.body, {**env, f.var: v}) for v in vertices])
        if isinstance(f, ForAll):
            return all([expand(f.body, {**env, f.var: v}) for v in vertices])
        return expand(f.left, env) or expand(f.right, env)

    return expand(phi, {})


class TestParser:
    def test_basic_sentence(self):
        phi = parse_formula("exists x. exists y. (E(x,y) & ~(x=y))")
        assert phi == Exists(
            "x", Exists("y", And(Adjacent("x", "y"), Not(Equal("x", "y"))))
        )
        assert formula_size(phi) == 6

    def test_unbound_variable_rejected(self):
        with pytest.raises(UnboundVariableError):
            parse_formula("E(x,y)")

    def test_redundant_parens_accepted(self):
        phi = parse_formula("forall x. (exists y. E(x,y))")
        assert phi == ForAll("x", Exists("y", Adjacent("x", "y")))

    def test_free_variables_allowed_when_requested(self):
        phi = parse_formula("E(x,y)", require_sentence=False)
        assert free_variables(phi) == {"x", "y"}

    def test_syntax_error_positions(self):
        with pytest.raises(ParseError):
            parse_formula("exists x. (E(x,x) &)")
        with pytest.raises(ParseError):
            parse_formula("exists x. E(x x)")
        with pytest.raises(ParseError):
            parse_formula("exists . E(x,x)")

    def test_round_trip_is_fixed_point(self):
        for text in (
            "exists x. exists y. (E(x,y) & ~(x=y))",
            "forall x. (E(x,x) -> x=x)",
            "~exists x. E(x,x)",
            "exists a1. (a1=a1 | ~a1=a1)",
        ):
            phi = parse_formula(text)
            canonical = to_text(phi)
            assert parse_formula(canonical) == phi
            assert to_text(parse_formula(canonical)) == canonical

    def test_whitespace_normalized(self):
        a = parse_formula("exists x.   exists y.(E( x , y )&~( x = y ))")
        b = parse_formula("exists x. exists y. (E(x,y) & ~(x=y))")
        assert a == b


class TestEvaluate:
    def test_k3_has_an_edge(self):
        assert evaluate(K3, parse_formula("exists x. exists y. (~(x=y) & E(x,y))"))

    def test_k3_has_no_independent_triple(self):
        phi = parse_formula(
            "exists x. exists y. exists z. "
            "((~(x=y) & (~(x=z) & ~(y=z))) & (~E(x,y) & (~E(x,z) & ~E(y,z))))"
        )
        assert not evaluate(K3, phi)

    def test_p3_has_no_isolated_vertex(self):
        assert evaluate(P3, parse_formula("forall x. exists y. E(x,y)"))

    def test_adjacency_is_irreflexive(self):
        assert not evaluate(K3, parse_formula("exists x. E(x,x)"))

    def test_header_size_alone_costs_no_memory(self):
        # Only vertices with an edge hold a neighbour set, so an edgeless
        # graph on 10^9 vertices evaluates in the memory of its 13 bytes.
        graph = parse_graph("1000000000 0\n")
        tracemalloc.start()
        try:
            holds = evaluate(graph, parse_formula("exists x. x=x"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert holds
        assert peak < 1_000_000

    def test_free_variable_rejected(self):
        with pytest.raises(ContractError):
            evaluate(K3, parse_formula("E(x,y)", require_sentence=False))

    def test_binding_evaluates_open_formulas(self):
        phi = parse_formula("E(x,y)", require_sentence=False)
        assert evaluate(K2, phi, {"x": 1, "y": 2})
        assert not evaluate(K2, phi, {"x": 1, "y": 1})

    def test_binding_outside_the_graph_rejected(self):
        # Before evaluation, whichever atom would read the value.
        cases = (("E(x,y)", {"x": 5, "y": 1}, "x=5"), ("x=y", {"x": 9, "y": 9}, "x=9"))
        for text, binding, named in cases:
            phi = parse_formula(text, require_sentence=False)
            with pytest.raises(ContractError, match=named):
                evaluate(K2, phi, binding)

    def test_binding_not_an_int_rejected(self):
        phi = parse_formula("x=y", require_sentence=False)
        for value in ("1", 1.0, True, None):
            with pytest.raises(ContractError, match="y="):
                evaluate(K2, phi, {"x": 1, "y": value})

    def test_right_conjunct_guard_visits_neighbours_only(self):
        # On a perfect matching each x has one neighbour y, whose only
        # neighbour is x again, so the sentence is false.  Guarded by E(y,z),
        # the inner quantifier reads y's neighbours: a few lookups per x.
        # Ranging over all n vertices instead takes about n^2.
        calls = [0]

        class CountingAdjacency(dict):
            def get(self, vertex, default=None):
                calls[0] += 1
                return super().get(vertex, default)

        class CountingGraph(Graph):
            def adjacency(self):
                return CountingAdjacency(super().adjacency())

        n = 2000
        matching = CountingGraph(n, tuple((v, v + 1) for v in range(1, n, 2)))
        phi = parse_formula("exists x. exists y. (E(x,y) & exists z. (~z=x & E(y,z)))")
        assert evaluate(matching, phi) is False
        assert calls[0] < 10 * n

    def test_agrees_with_expansion_evaluator(self):
        rng = random.Random(8)
        sentences = [
            "exists x. exists y. (E(x,y) & ~(x=y))",
            "forall x. exists y. E(x,y)",
            "forall x. forall y. ((~(x=y) & ~E(x,y)) -> exists z. (E(x,z) & E(z,y)))",
            "exists x. forall y. (x=y | E(x,y))",
            # The inner x shadows the outer one, which must be back for E(x,y).
            "exists x. exists y. ((exists x. x=y) & E(x,y))",
        ]
        for _ in range(30):
            n = rng.randint(1, 4)
            edges = tuple(
                e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5
            )
            g = Graph(n, edges)
            for text in sentences:
                phi = parse_formula(text)
                assert evaluate(g, phi) == tt_evaluate(g, phi)


class TestRewrittenAgainstOracle:
    """`evaluate` against `tt_evaluate` on subdivision embeddings, where the
    rewriter's guarded quantifiers and repeated classifier copies reach the
    neighbour ranges and the per-quantifier memo."""

    SENTENCES = (
        "exists x. exists y. (E(x,y) & ~(x=y))",
        "forall x. exists y. E(x,y)",
        "exists x. forall y. (x=y | E(x,y))",
        "exists x. exists y. ((exists x. x=y) & E(x,y))",
    )
    # Evaluated as written as well as rewritten: the rewrite turns every
    # E atom into a path, so these guards exist only in the original.
    SHAPES = (
        # guards written E(a,v) and E(v,a)
        "forall x. exists y. (E(x,y) & ~exists z. (E(y,z) & ~z=x))",
        "forall x. exists y. (E(y,x) & forall z. (E(z,y) -> (z=x | E(z,x))))",
        # E(v,v) is not a guard, nor is an atom under "|"
        "exists x. exists y. (E(y,y) & E(x,y))",
        "forall x. forall y. (E(y,y) -> ~x=x)",
        "forall x. exists y. ((E(y,y) | E(x,y)) & ~x=y)",
        # a guard buried in the leftmost conjunct
        "exists x. exists y. ((E(x,y) & ~x=y) & forall z. (E(z,x) -> (z=y | E(z,y))))",
        # a universal whose body is not an implication
        "exists x. forall y. (E(x,y) & ~x=y)",
        "exists x. forall y. (E(x,y) | x=y)",
        # an implication whose consequent, not antecedent, is the atom
        "exists x. forall y. (~x=y -> E(x,y))",
        # the guard variable, or the bound one, shadowed inside the body
        "forall x. exists y. (E(x,y) & exists x. (E(y,x) & forall y. (E(x,y) -> ~x=y)))",
        "exists x. exists y. (E(x,y) & exists y. (~E(x,y) & ~x=y))",
        # one quantifier node under many outer bindings, some of them False
        "exists w. forall x. (E(w,x) -> exists y. (E(x,y) & ~exists z. (E(y,z) & ~z=x)))",
        "forall x. forall w. (exists y. (E(x,y) & forall z. (E(y,z) -> z=x)) | ~E(x,w))",
    )

    # Kept apart from SHAPES, whose rewrites `test_rewrites_pinned` hashes.
    # A guard may be any conjunct of the top-level conjunction: these hold
    # one as a right or deeper conjunct, or an atom that looks like one and
    # is not.
    CONJUNCT_SHAPES = (
        # a guard as the right conjunct, deep in a right-nested conjunction,
        # and as the right conjunct of a universal's antecedent
        "forall x. exists y. (~x=y & E(x,y))",
        "forall x. exists y. (~y=x & (~exists z. (E(y,z) & ~z=x) & (x=x & E(y,x))))",
        "exists x. forall y. ((~x=y & E(y,x)) -> exists z. (~z=x & E(y,z)))",
        # an atom under "~", "|" or "->" inside a conjunction
        "exists x. exists y. (~x=y & ~E(x,y))",
        "forall x. exists y. (~x=y & (E(x,y) | x=x))",
        "forall x. exists y. (~x=y & (E(x,y) -> x=x))",
        # E(v,v) as a right conjunct
        "exists x. forall y. ((~x=y & E(y,y)) -> ~x=x)",
        # an atom inside a conjunct that is a quantifier rebinding the guard
        # variable x
        "exists x. exists y. (~x=y & exists x. E(x,y))",
        # the atom in the consequent, with a conjunction as the antecedent
        "exists x. forall y. ((~x=y & x=x) -> E(x,y))",
    )

    @staticmethod
    def graphs(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(2, 5)
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            yield Graph(n, tuple(rng.sample(pairs, min(len(pairs), rng.randint(1, 4)))))

    def test_rewritten_sentences(self):
        texts = self.SENTENCES + self.SHAPES + self.CONJUNCT_SHAPES
        phis = [parse_formula(text) for text in texts]
        for g in self.graphs(31, 12):
            embedded = distance_graph(hypercube_embedding(g), 1)
            for phi in phis:
                rewritten = rewrite_sentence(phi)
                assert evaluate(embedded, rewritten) == tt_evaluate(embedded, rewritten), (g, phi)

    def test_shapes_as_written(self):
        phis = [parse_formula(text) for text in self.SHAPES + self.CONJUNCT_SHAPES]
        for g in self.graphs(32, 20):
            embedded = distance_graph(hypercube_embedding(g), 1)
            for graph in (g, embedded):
                for phi in phis:
                    assert evaluate(graph, phi) == tt_evaluate(graph, phi), (graph, phi)


class TestClassifier:
    def test_default_has_one_free_variable(self):
        assert free_variables(vertex_classifier("x", "y", "z")) == {"x"}

    def test_both_quantifiers_are_guarded(self):
        cls = vertex_classifier("x", "y", "z")
        inner = cls.body.right
        assert _guard(cls.body.left, "y") == "x"
        # E(y,z) is the right conjunct of exists z. (~z=x & E(y,z))
        assert _guard(inner.body, "z") == "y"

    def test_on_embedded_k2(self):
        g = distance_graph(hypercube_embedding(K2), 1)
        cls = vertex_classifier("x", "y", "z")
        # vertices 1, 2 are the originals, 3 the subdivision vertex, 4 its leaf
        assert evaluate(g, cls, {"x": 1})
        assert evaluate(g, cls, {"x": 2})
        assert not evaluate(g, cls, {"x": 3})
        # the leaf also passes: exact identification of originals fails here
        assert evaluate(g, cls, {"x": 4})


class TestRewrite:
    def test_edge_atom_expansion(self):
        phi = parse_formula("exists x. exists y. E(x,y)")
        rewritten = rewrite_sentence(phi)
        assert to_text(rewritten) == (
            "exists x. (forall s. (E(x,s) -> exists s1. (~s1=x & E(s,s1)))"
            " & exists y. (forall s2. (E(y,s2) -> exists s3. (~s3=y & E(s2,s3)))"
            " & exists s4. ((E(x,s4) & E(s4,y)) & ~x=y)))"
        )

    def test_size_ratio_bounded(self):
        phi = parse_formula("exists x. exists y. E(x,y)")
        assert formula_size(rewrite_sentence(phi)) <= 20 * formula_size(phi)

    def test_forall_uses_implication(self):
        rewritten = rewrite_sentence(parse_formula("forall x. E(x,x)"))
        assert isinstance(rewritten, ForAll)
        assert isinstance(rewritten.body, Implies)

    def test_output_is_a_sentence(self):
        for text in (
            "forall x. forall y. (E(x,y) -> E(y,x))",
            "~exists x. E(x,x)",
            "exists y. exists z. E(y,z)",
        ):
            rewritten = rewrite_sentence(parse_formula(text))
            assert free_variables(rewritten) == frozenset()

    def test_no_capture_when_sentence_reuses_classifier_names(self):
        # y and z are also the names vertex_classifier is defined with
        phi = parse_formula("exists y. exists z. (E(y,z) & ~(y=z))")
        rewritten = rewrite_sentence(phi)
        g = distance_graph(hypercube_embedding(K2), 1)
        # original holds on K2; the rewritten form must evaluate without error
        assert evaluate(K2, phi)
        assert isinstance(evaluate(g, rewritten), bool)

    def test_depth_bound_exact(self):
        # Each pair's first sentence rewrites to exactly 800 levels, deepest
        # in the last quantifier's classifier, an E atom's path, or an "="
        # atom; one more quantifier or "~" is one level or two too many.
        def depth(f):
            if isinstance(f, (Adjacent, Equal)):
                return 1
            if isinstance(f, (And, Or, Implies)):
                return 1 + max(depth(f.left), depth(f.right))
            return 1 + depth(f.body)

        chain = "exists x. "
        cases = (
            (chain * 397 + "x=x", chain * 398 + "x=x"),
            (chain * 396 + "~" * 4 + "E(x,x)", chain * 396 + "~" * 5 + "E(x,x)"),
            (chain * 396 + "~" * 7 + "x=x", chain * 396 + "~" * 8 + "x=x"),
        )
        for at_bound, past in cases:
            assert depth(rewrite_sentence(parse_formula(at_bound))) == 800
            with pytest.raises(ContractError, match="nest deeper than 800 levels"):
                rewrite_sentence(parse_formula(past))

    def test_rewrites_pinned(self):
        # One SHA-256 over the rewrites of criterion 09's corpus and the
        # oracle test's sentences and shapes, one line each: a change to a
        # variable name, the fresh-name order or the layout moves it.
        oracle = TestRewrittenAgainstOracle
        texts = CORPUS + list(oracle.SENTENCES + oracle.SHAPES)
        assert len(texts) == 37
        digest = hashlib.sha256()
        for text in texts:
            digest.update(to_text(rewrite_sentence(parse_formula(text))).encode() + b"\n")
        assert digest.hexdigest() == (
            "7a8712d7f7a74ce421a03d145cd49ca03edb9b0aad3a180f26f95746fff6d6b0"
        )

    def test_rejects_open_formulas(self):
        with pytest.raises(ContractError):
            rewrite_sentence(parse_formula("E(x,y)", require_sentence=False))


class TestTransferHarness:
    def test_record_fields(self):
        record = embedding_transfer_report(
            K2, parse_formula("exists x. exists y. (E(x,y) & ~(x=y))")
        )
        assert set(record) >= {
            "h_holds",
            "g_holds",
            "agree",
            "nodes_before",
            "nodes_after",
            "ratio",
        }
        assert record["ratio"] <= 20
        assert isinstance(record["agree"], bool)
