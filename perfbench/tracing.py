"""Spans and counters for the traced run, recorded from outside the program.

Each public function is wrapped where it is looked up, in the namespace of
the module that calls it: `divset.cli.solve` and `divset.solver.neighborhood`
are the names the calls go through, so wrapping only the defining module
would record nothing.  `known_distance` is left alone because it runs
millions of times per operation; `vectors.pair_tests` is derived from the
arguments of `neighborhood` instead.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter


def _rows(args, result):
    return args[0].n


# (calling module, attribute, span name, counter name, counter increment)
TRACED = (
    ("divset.cli", "parse_instance", "vectors.parse_instance", None, None),
    ("divset.cli", "solve", "solver.solve", None, None),
    ("divset.cli", "parse_graph", "reductions.parse_graph", None, None),
    ("divset.cli", "parse_formula", "fologic.parse_formula", None, None),
    ("divset.cli", "embedding_transfer_report", "fologic.embedding_transfer_report", None, None),
    ("divset.solver", "greedy_attempt", "solver.greedy_attempt", "solver.greedy_attempt.hits",
     lambda args, result: int(result is not None)),
    ("divset.solver", "brute_force", "solver.brute_force", "solver.brute_force.rows_in", _rows),
    ("divset.solver", "find_prunable_row", "solver.find_prunable_row", None, None),
    ("divset.solver", "neighborhood", "vectors.neighborhood", "vectors.pair_tests", _rows),
    ("divset.solver", "find_sunflower", "sunflowers.find_sunflower", "sunflowers.family_members",
     lambda args, result: len(args[0].members)),
    ("divset.solver", "lift_heavy_row", "solver.lift_heavy_row", None, None),
    ("divset.solver", "verify_solution", "vectors.verify_solution", None, None),
    ("divset.fologic", "hypercube_embedding", "reductions.hypercube_embedding", None, None),
    ("divset.fologic", "distance_graph", "reductions.distance_graph", "reductions.distance_graph.pairs",
     lambda args, result: len(args[0]) * (len(args[0]) - 1) // 2),
    ("divset.fologic", "rewrite_sentence", "fologic.rewrite_sentence", None, None),
    ("divset.fologic", "evaluate", "fologic.evaluate", None, None),
)


class Tracer:
    """Spans as (name, start, end, parent index, operation id), kept in memory.

    `counts` holds the number of calls per span name and the counters of
    `TRACED`; both are deterministic for a given input.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)
            self.counts[name + ".calls"] += 1

    def install(self) -> None:
        for module_name, attr, name, counter, increment in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter, increment))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, counter, increment):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter:
                self.counts[counter] += increment(args, result)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Self time per span name.  Children of one span never overlap, so
        the time they cover is the sum of their durations."""
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        by_name: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            by_name[name] += end - start - child_time[i]
        return by_name

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                      "parent": parent, "op": op}) + "\n")
