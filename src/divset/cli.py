"""Command-line front end.

Exit codes everywhere: 0 = YES / pass, 1 = NO / fail, 2 = usage, input or
internal error.  All randomness is driven by an explicit --seed (default 0) so
runs are reproducible; reports are identical across runs except for timing
fields.

The argument parser is built once per process, on the first `main` call, and
reused by every later call; `parse_args` keeps no state between calls.

`solve`, `verify` and `bench` load only the solver's modules.  The FO and
graph tools (`fologic`, `reductions`) load on the first `fo` or `generate`
call, or on the first read of one of their names as an attribute of this
module.  `hashlib`, `json` and `random` load in the functions that use
them, so `solve` without `--report` and `verify` load none of them.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import os
import sys
import time
from collections import Counter
from pathlib import Path

from .errors import ContractError, OracleLimitError
from .solver import SolveOutcome, exhaustive_solve, solve
from .vectors import (
    Instance,
    PartialVector,
    ascii_decimal,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    verify_solution,
)


# The names `fo` and `generate` call, by the module that defines them.  They
# are bound here on first use, and the commands call them as globals of this
# module, so a wrapper set on `divset.cli.<name>` (a tracer's, a test's) sees
# every call.
_LAZY = {
    "fologic": (
        "embedding_transfer_report",
        "evaluate",
        "formula_size",
        "parse_formula",
        "rewrite_sentence",
        "to_text",
    ),
    "reductions": (
        "hypercube_embedding",
        "independent_set_to_diversity",
        "independent_set_to_r2",
        "parse_graph",
    ),
}


def _load(*modules: str) -> None:
    """Bind here each name `_LAZY` lists for the modules that is not bound
    yet, importing its module.  A name already bound keeps its value: it may
    be a wrapper."""
    namespace = globals()
    for module in modules:
        missing = [name for name in _LAZY[module] if name not in namespace]
        if missing:
            source = importlib.import_module(f".{module}", __package__)
            for name in missing:
                namespace[name] = getattr(source, name)


def __getattr__(name: str):
    """`divset.cli.<name>` for a `_LAZY` name not bound yet: load it."""
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _digest(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _read(path: str) -> str:
    return Path(path).read_text()


def _emit(payload: str, output: str | None) -> None:
    if output:
        Path(output).write_text(payload)
    else:
        sys.stdout.write(payload)


def _write_report(path: str | None, report: dict) -> None:
    if path:
        import json

        Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _outcome_fields(outcome: SolveOutcome) -> dict:
    """The fields a `solve` report and each `bench` record share."""
    return {
        "answer": "YES" if outcome.answer else "NO",
        "method": outcome.method,
        "trace_summary": dict(Counter(event.kind for event in outcome.trace)),
        "stats": dict(outcome.stats),
    }


def _cmd_solve(args: argparse.Namespace) -> int:
    text = _read(args.instance)
    instance = parse_instance(text)
    started = time.perf_counter()
    outcome = exhaustive_solve(instance) if args.oracle else solve(instance)
    elapsed = time.perf_counter() - started

    _emit(serialize_solution(outcome.witness), args.output)

    if args.report:
        report = {
            "command": "solve",
            "input_digest": _digest(text),
            "flags": {"oracle": args.oracle},
            **_outcome_fields(outcome),
            "timings": {
                "total_seconds": elapsed,
                "stages": {name: seconds for name, seconds in outcome.stage_seconds},
            },
        }
        _write_report(args.report, report)
    return 0 if outcome.answer else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    witness = parse_solution(_read(args.solution))
    if witness is None:
        print("FAIL: solution file declares NO; nothing to verify")
        return 1
    report = verify_solution(instance, witness)
    if report.ok:
        print("PASS")
        return 0
    for reason in report.failures:
        print(f"FAIL: {reason}")
    return 1


def _cmd_generate(args: argparse.Namespace) -> int:
    _load("reductions")
    graph = parse_graph(_read(args.graph))
    if args.kind == "embed":
        rows = hypercube_embedding(graph)
        _emit("".join(row.text + "\n" for row in rows), args.output)
        return 0
    if args.k is None:
        print(f"error: {args.kind} requires -k", file=sys.stderr)
        return 2
    if args.kind == "is-w1":
        instance = independent_set_to_diversity(graph, args.k)
    else:
        mode = "disjoint_pairs" if args.disjoint_pairs else "verbatim"
        instance = independent_set_to_r2(graph, args.k, mode)
    _emit(serialize_instance(instance), args.output)
    return 0


def _cmd_fo(args: argparse.Namespace) -> int:
    _load("fologic", "reductions")
    phi = parse_formula(_read(args.formula))
    if args.subcommand == "rewrite":
        rewritten = rewrite_sentence(phi)
        before = formula_size(phi)
        after = formula_size(rewritten)
        print(to_text(rewritten))
        print(f"nodes: {before} -> {after} (ratio {after / before:.2f})")
        return 0
    graph = parse_graph(_read(args.graph))
    if args.subcommand == "check":
        holds = evaluate(graph, phi)
        print("true" if holds else "false")
        return 0 if holds else 1
    record = embedding_transfer_report(graph, phi)
    _write_report(args.report, record)
    import json

    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


_BENCH_CASES = [
    ("rows", {"rows": 200, "d": 64, "k": 3, "r": 4, "density": 0.0}),
    ("rows", {"rows": 1000, "d": 64, "k": 3, "r": 4, "density": 0.0}),
    ("rows", {"rows": 4000, "d": 64, "k": 3, "r": 4, "density": 0.0}),
    ("dims", {"rows": 500, "d": 32, "k": 3, "r": 4, "density": 0.0}),
    ("dims", {"rows": 500, "d": 128, "k": 3, "r": 4, "density": 0.0}),
    ("dims", {"rows": 500, "d": 256, "k": 3, "r": 4, "density": 0.0}),
    ("params-k", {"rows": 12, "d": 10, "k": 2, "r": 2, "density": 0.15}),
    ("params-k", {"rows": 12, "d": 10, "k": 3, "r": 2, "density": 0.15}),
    ("params-k", {"rows": 12, "d": 10, "k": 4, "r": 2, "density": 0.15}),
    ("params-r", {"rows": 12, "d": 10, "k": 3, "r": 1, "density": 0.15}),
    ("params-r", {"rows": 12, "d": 10, "k": 3, "r": 3, "density": 0.15}),
    ("wildcards", {"rows": 12, "d": 10, "k": 3, "r": 2, "density": 0.0}),
    ("wildcards", {"rows": 12, "d": 10, "k": 3, "r": 2, "density": 0.15}),
    ("wildcards", {"rows": 12, "d": 10, "k": 3, "r": 2, "density": 0.3}),
    ("exact", {"rows": 60, "d": 24, "k": 4, "r": 14, "density": 0.0}),
    ("exact", {"rows": 120, "d": 24, "k": 4, "r": 14, "density": 0.0}),
    ("kernel", {"rows": 81, "d": 80, "k": 2, "r": 0, "source": "chain"}),
    # All-? rows at k = A(d, r+1) + 1, so NO; the first meets the counting
    # bound (30 >= 30), so its completions are searched.
    ("hard-no", {"rows": 5, "d": 5, "k": 5, "r": 2, "density": 1.0}),
    ("hard-no", {"rows": 5, "d": 6, "k": 5, "r": 3, "density": 1.0}),
    ("hard-no", {"rows": 5, "d": 8, "k": 5, "r": 4, "density": 1.0}),
    # Their YES twins at k = A(d, r+1) = 4.
    ("tight-yes", {"rows": 4, "d": 5, "k": 4, "r": 2, "density": 1.0}),
    ("tight-yes", {"rows": 4, "d": 6, "k": 4, "r": 3, "density": 1.0}),
    ("tight-yes", {"rows": 4, "d": 8, "k": 4, "r": 4, "density": 1.0}),
    # A YES whose first clique settles it, at a depth the exact search walks.
    ("deep", {"rows": 1500, "d": 64, "k": 200, "r": 0, "source": "deep"}),
    # The chain at d=200, which the kernel prunes by 148 rows.
    ("long-chain", {"rows": 201, "d": 200, "k": 2, "r": 0, "source": "chain"}),
]
# Each case is timed as the fastest of this many solves; a single solve of a
# case under 10 ms swings by a third on a shared machine.
_BENCH_REPEATS = 5


def _bench_instance(seed: int, suite: str, index: int, case: dict) -> Instance:
    """A case's rows: random by `density`, or by its fixed `source`.  A
    "chain" is a random base row and its d copies with one ? each, shuffled;
    every pair sits at known distance 0, so at k=2, r=0 the certified kernel
    prunes it down to k * gate - 1 = 53 rows.  A "deep" case takes the first
    rows of the shuffled C(d,2) all-0 rows with ? at two coordinates: every
    pair is 0 apart as known and can reach 2, so greedy stops at one pick,
    and at r=0 the first k rows are the exact search's first clique and a
    YES."""
    import random

    rng = random.Random(f"{seed}:{suite}:{index}")
    d = case["d"]
    if case.get("source") == "chain":
        if case["rows"] != d + 1:
            raise ValueError(f"a chain of length d={d} has {d + 1} rows, not {case['rows']}")
        base = "".join(rng.choice("01") for _ in range(d))
        texts = [base] + [base[:i] + "?" + base[i + 1 :] for i in range(d)]
        rng.shuffle(texts)
    elif case.get("source") == "deep":
        pairs = itertools.combinations(range(d), 2)
        texts = ["".join("?" if c in pair else "0" for c in range(d)) for pair in pairs]
        if case["rows"] > len(texts):
            raise ValueError(f"d={d} gives {len(texts)} rows with two ?, not {case['rows']}")
        rng.shuffle(texts)
        texts = texts[: case["rows"]]
    else:
        texts = [
            "".join("?" if rng.random() < case["density"] else rng.choice("01") for _ in range(d))
            for _ in range(case["rows"])
        ]
    return Instance(tuple(PartialVector(t) for t in texts), case["k"], case["r"], d)


def _cmd_bench(args: argparse.Namespace) -> int:
    selected = [
        (suite, i, case)
        for i, (suite, case) in enumerate(_BENCH_CASES)
        if args.only is None or args.only in suite
    ]
    header = (
        f"{'suite':<10} {'rows':>6} {'d':>4} {'k':>2} {'r':>2} {'dens':>5} "
        f"{'digest':<16} {'method':<14} {'seconds':>9}  stages"
    )
    print(header)
    print("-" * len(header))
    records = []
    for suite, index, case in selected:
        instance = _bench_instance(args.seed, suite, index, case)
        digest = _digest(serialize_instance(instance))
        runs = []
        for _ in range(_BENCH_REPEATS):
            started = time.perf_counter()
            runs.append((solve(instance), time.perf_counter() - started))
        outcome, elapsed = min(runs, key=lambda run: run[1])
        stages = " ".join(f"{name}={seconds:.4f}" for name, seconds in outcome.stage_seconds)
        source = f"{case['density']:>5.2f}" if "density" in case else f"{case['source']:>5}"
        print(
            f"{suite:<10} {case['rows']:>6} {case['d']:>4} {case['k']:>2} {case['r']:>2}"
            f" {source} {digest:<16} {outcome.method:<14} {elapsed:>9.4f}  {stages}"
        )
        records.append(
            {
                "suite": suite,
                "case": case,
                "digest": digest,
                **_outcome_fields(outcome),
                "seconds": elapsed,
                "stages": {name: seconds for name, seconds in outcome.stage_seconds},
            }
        )
    _write_report(args.report, {"command": "bench", "seed": args.seed, "cases": records})
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divset",
        description="Pick k pairwise-distant binary vectors from rows with unknown entries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide an instance and write the solution")
    p_solve.add_argument("instance")
    p_solve.add_argument("--output", help="solution file path (default: stdout)")
    p_solve.add_argument("--oracle", action="store_true", help="use the exhaustive solver")
    p_solve.add_argument("--report", metavar="PATH", help="write a JSON run report")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a solution file against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("generate", help="build instances/matrices from a graph")
    p_gen.add_argument("kind", choices=("is-w1", "is-r2", "embed"))
    p_gen.add_argument("graph")
    p_gen.add_argument("-k", type=ascii_decimal, help="independent-set size (is-w1 / is-r2)")
    p_gen.add_argument(
        "--disjoint-pairs",
        action="store_true",
        help="is-r2: use the non-overlapping coordinate layout",
    )
    p_gen.add_argument("--output", help="output path (default: stdout)")
    p_gen.set_defaults(func=_cmd_generate)

    p_fo = sub.add_parser("fo", help="first-order sentence tooling")
    fo_sub = p_fo.add_subparsers(dest="subcommand", required=True)
    p_rw = fo_sub.add_parser("rewrite", help="relativize a sentence to the embedding")
    p_rw.add_argument("formula")
    p_rw.set_defaults(func=_cmd_fo)
    p_chk = fo_sub.add_parser("check", help="evaluate a sentence on a graph")
    p_chk.add_argument("formula")
    p_chk.add_argument("graph")
    p_chk.set_defaults(func=_cmd_fo)
    p_hx = fo_sub.add_parser("harness", help="compare a sentence with its embedded rewrite")
    p_hx.add_argument("formula")
    p_hx.add_argument("graph")
    p_hx.add_argument("--report", metavar="PATH", help="write the record as JSON")
    p_hx.set_defaults(func=_cmd_fo)

    p_bench = sub.add_parser("bench", help="run the timing suites")
    p_bench.add_argument("--seed", type=ascii_decimal, default=0)
    p_bench.add_argument("--only", metavar="PATTERN", help="run only suites whose name contains PATTERN")
    p_bench.add_argument("--report", metavar="PATH", help="write a JSON report")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            code = args.func(args)
        except BrokenPipeError:
            raise
        except (OracleLimitError, ContractError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        except Exception as exc:
            # Exit 1 means NO or false, so a crash must never surface as it.
            detail = f": {exc}" if str(exc) else ""
            print(f"error: unexpected {type(exc).__name__}{detail}", file=sys.stderr)
            code = 2
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left before the answer was complete, and exit 1 would
        # read as NO or false.  What is still buffered goes to the null
        # device, so the interpreter's final flush cannot fail either.
        _to_null(sys.stdout)
        try:
            print("error: output closed before the answer was complete", file=sys.stderr)
        except OSError:
            _to_null(sys.stderr)
        return 2


def _to_null(stream) -> None:
    with open(os.devnull, "w") as null:
        try:
            os.dup2(null.fileno(), stream.fileno())
        except (OSError, ValueError):
            pass  # not backed by a file descriptor, so nothing is flushed at exit


if __name__ == "__main__":
    sys.exit(main())
