"""Command-line front end.

Exit codes everywhere: 0 = YES / pass, 1 = NO / fail, 2 = usage, input or
internal error.  All randomness is driven by an explicit --seed (default 0) so
runs are reproducible; reports are identical across runs except for timing
fields.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

from .errors import ContractError, OracleLimitError, ParseError
from .fologic import (
    embedding_transfer_report,
    evaluate,
    formula_size,
    parse_formula,
    rewrite_sentence,
    to_text,
)
from .reductions import (
    hypercube_embedding,
    independent_set_to_diversity,
    independent_set_to_r2,
    parse_graph,
)
from .solver import exhaustive_solve, solve
from .vectors import (
    Instance,
    PartialVector,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    verify_solution,
)


def _digest(text: str) -> str:
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
        Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _cmd_solve(args: argparse.Namespace) -> int:
    text = _read(args.instance)
    instance = parse_instance(text)
    certified = args.zeta_gate is None and args.sunflower_target is None
    started = time.perf_counter()
    if args.oracle:
        outcome = exhaustive_solve(instance)
    else:
        outcome = solve(
            instance,
            gate_override=args.zeta_gate,
            target_override=args.sunflower_target,
        )
    elapsed = time.perf_counter() - started

    _emit(serialize_solution(outcome.witness), args.output)

    report = {
        "command": "solve",
        "input_digest": _digest(text),
        "flags": {
            "oracle": args.oracle,
            "zeta_gate": args.zeta_gate,
            "sunflower_target": args.sunflower_target,
        },
        "certified": certified,
        "answer": "YES" if outcome.answer else "NO",
        "method": outcome.method,
        "trace_summary": _trace_summary(outcome),
        "timings": {
            "total_seconds": elapsed,
            "stages": {name: seconds for name, seconds in outcome.stage_seconds},
        },
        "discrepancies": [],
    }
    if not certified:
        print("warning: thresholds overridden; this run is NOT certified", file=sys.stderr)
        try:
            oracle = exhaustive_solve(instance)
            report["oracle_answer"] = "YES" if oracle.answer else "NO"
            report["oracle_agrees"] = oracle.answer == outcome.answer
            if oracle.answer != outcome.answer:
                report["discrepancies"].append(
                    {"kind": "oracle-mismatch", "solver": outcome.answer, "oracle": oracle.answer}
                )
                _write_report(args.report, report)
                print("error: overridden run disagrees with the exhaustive check", file=sys.stderr)
                return 2
        except OracleLimitError as exc:
            report["oracle_answer"] = None
            report["oracle_agrees"] = None
            report["oracle_note"] = str(exc)
    _write_report(args.report, report)
    return 0 if outcome.answer else 1


def _trace_summary(outcome) -> dict:
    counts: dict[str, int] = {}
    for event in outcome.trace:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


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
]


def _bench_instance(seed: int, suite: str, index: int, case: dict) -> Instance:
    rng = random.Random(f"{seed}:{suite}:{index}")
    rows = []
    for _ in range(case["rows"]):
        chars = [
            "?" if rng.random() < case["density"] else rng.choice("01")
            for _ in range(case["d"])
        ]
        rows.append(PartialVector("".join(chars)))
    return Instance(tuple(rows), case["k"], case["r"], case["d"])


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
        started = time.perf_counter()
        outcome = solve(instance)
        elapsed = time.perf_counter() - started
        stages = " ".join(f"{name}={seconds:.4f}" for name, seconds in outcome.stage_seconds)
        print(
            f"{suite:<10} {case['rows']:>6} {case['d']:>4} {case['k']:>2} {case['r']:>2}"
            f" {case['density']:>5.2f} {digest:<16} {outcome.method:<14} {elapsed:>9.4f}  {stages}"
        )
        records.append(
            {
                "suite": suite,
                "case": case,
                "digest": digest,
                "answer": "YES" if outcome.answer else "NO",
                "method": outcome.method,
                "seconds": elapsed,
                "stages": {name: seconds for name, seconds in outcome.stage_seconds},
            }
        )
    _write_report(args.report, {"command": "bench", "seed": args.seed, "cases": records})
    return 0


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
    p_solve.add_argument(
        "--zeta-gate",
        type=int,
        metavar="N",
        help="override the neighborhood-size gate (testing only; not certified)",
    )
    p_solve.add_argument(
        "--sunflower-target",
        type=int,
        metavar="N",
        help="override the sunflower size target (testing only; not certified)",
    )
    p_solve.add_argument("--report", metavar="PATH", help="write a JSON run report")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a solution file against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("generate", help="build instances/matrices from a graph")
    p_gen.add_argument("kind", choices=("is-w1", "is-r2", "embed"))
    p_gen.add_argument("graph")
    p_gen.add_argument("-k", type=int, help="independent-set size (is-w1 / is-r2)")
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
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--only", metavar="PATTERN", help="run only suites whose name contains PATTERN")
    p_bench.add_argument("--report", metavar="PATH", help="write a JSON report")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OracleLimitError, ContractError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means NO or false, so a crash must never surface as it.
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
