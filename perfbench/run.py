"""The divset benchmark: a closed loop with one client, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation is one in-process
`divset.cli.main([...])` call on files written during set-up, so the timed
path is the user's: cli -> parse -> solver or FO harness -> output.  The
harness checks every output outside the timed region: the exit code against
the answer known by construction, every YES witness with `verify_solution`,
and each workload's coverage guard.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` measures the end-to-end metrics, with every time scaled to
reference speed (see `reference.py`).  `--trace 1` runs each operation
untraced and then traced and reports the per-layer metrics (see
`tracing.py`); it also checks that every count repeats exactly from pass to
pass and that the reported self times add up to the operation time.  Metric
names and units are read from `BENCHMARK.json`; README.md in this directory
says what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import random
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402

# A fixed number: each set-up re-imports the package, and the peak memory
# grows a little with every import.
SETUPS = 5
# latency_s.tail is p95 of all runs; at least 200 runs leave 10 beyond it.
# p99 would need 1000 runs, more than some workloads fit in a run.
TAIL_PERCENTILE = 95
MIN_SAMPLES = 200
# The reference kernel runs between batches of operations that take at least
# this long, rather than around every operation; a slowdown by other tenants
# lasts seconds or more.
BATCH_SECONDS = 0.1
REMOVAL_KINDS = {"heavy-wildcard": "heavy", "duplicate-cap": "duplicate", "pruned": "pruned"}
METHODS = ("brute-force", "greedy", "greedy-bounded", "shortcut")
STAGES = ("reduce", "decide", "lift", "verify")
# Spans whose callees are traced too; their metric is named `.self_s`.
CONTAINERS = ("solver.solve", "fologic.embedding_transfer_report")
CALLS = ("vectors.neighborhood", "solver.find_prunable_row", "sunflowers.find_sunflower", "fologic.evaluate")
# Traced runs that take less than this share of the untraced runs next to
# them have lost time from their spans; tracing only adds time.
TRACED_FLOOR = 0.7


def _exact_guard(report):
    return None if report["method"] == "brute-force" else f"method {report['method']}, not brute-force"


def _prune_guard(report):
    return None if report["trace_summary"].get("pruned", 0) > 0 else "no row was pruned"


def _scale_guard(report):
    removed = report["trace_summary"]
    if removed.get("heavy-wildcard", 0) == 0 or removed.get("duplicate-cap", 0) == 0:
        return f"expected heavy and duplicate removals, got {removed}"
    return None if report["method"] == "greedy" else f"method {report['method']}, not greedy"


def _fo_guard(record):
    """What the record shows of the transfer; the traced run also checks
    that `distance_graph` and `evaluate` are called."""
    if not isinstance(record["g_holds"], bool) or record["agree"] != (record["h_holds"] == record["g_holds"]):
        return f"g_holds {record['g_holds']!r} and agree {record['agree']!r} do not fit h_holds"
    return None if record["nodes_after"] > record["nodes_before"] else "the sentence was not rewritten"


# name -> (seeded generator of cases, coverage guard on the report or record)
WORKLOADS = {
    "exact-no": (lambda rng: (workloads.exact_no(rng) for _ in range(48)), _exact_guard),
    # Two NO instances to one YES: YES solves stop at the first witness and
    # cost 0-18 ms, NO solves 11-56 ms, so with equal shares the median
    # would sit on the boundary between the two and follow the seed.  Costs
    # spread widely from instance to instance, so it takes 300 inputs for
    # the figures not to follow the seed.
    "exact-wild": (lambda rng: (workloads.exact_wild(rng, yes=i % 3 == 2) for i in range(300)), _exact_guard),
    "prune-chain": (lambda rng: (workloads.prune_chain(rng) for _ in range(60)), _prune_guard),
    "scale-yes": (lambda rng: (workloads.scale_yes(rng) for _ in range(40)), _scale_guard),
    "fo-transfer": (lambda rng: (c for _ in range(48) for c in workloads.fo_transfer(rng)), _fo_guard),
}


@dataclass
class Op:
    argv: list[str]
    exit_code: int  # known by construction: 0 for YES and for FO runs, 1 for NO
    source: Path | None = None  # a YES instance's file, re-read to verify its witness
    fo: workloads.FoCase | None = None
    outputs: tuple[Path, ...] = ()
    # The solver is deterministic: a YES solution file whose digest repeats
    # that of the one already verified for this input is not parsed and
    # verified again.  The digest, not the text, is kept: a scale-yes
    # solution holds all 4000 rows.
    verified: bytes | None = None


def _write_ops(cases, work: Path) -> list[Op]:
    """Write each case as it is generated and keep only its file and
    answer, so that the instances' texts stay out of the peak memory."""
    shared: dict[str, str] = {}

    def file(text: str) -> str:
        """The path of a file holding `text`; FO inputs that share a graph
        or a sentence share its file."""
        if text not in shared:
            shared[text] = str(work / f"shared{len(shared)}.in")
            Path(shared[text]).write_text(text)
        return shared[text]

    ops = []
    for i, case in enumerate(cases):
        if isinstance(case, workloads.SolveCase):
            source, sol, rep = work / f"{i}.in", work / f"{i}.sol", work / f"{i}.json"
            source.write_text(case.text)
            argv = ["solve", str(source), "--output", str(sol), "--report", str(rep)]
            ops.append(Op(argv, 0 if case.yes else 1, source if case.yes else None, outputs=(sol, rep)))
        else:
            ops.append(Op(["fo", "harness", file(case.formula), file(case.graph)], 0, fo=case))
    return ops


def set_up(workload: str, seed: int, work: Path):
    """Import the package afresh, generate and write the inputs, and run one
    warm-up operation.  Returns the seconds taken, `divset.cli.main`, the
    operations, the warm-up operation with its outcome, and the peak memory
    in MB before the warm-up.

    The warm-up input is the first of the workload's generator under a
    fixed seed, the same for every `--seed`, so that set-up time does not
    follow the cost of one input.  The files of an earlier set-up in the same
    run are written over, not removed first: on the machine the baseline was
    recorded on, creating a file takes 0.4-0.7 ms, ten times as long as
    writing over one, and varies from minute to minute."""
    started = perf_counter()
    for name in [m for m in sys.modules if m == "divset" or m.startswith("divset.")]:
        del sys.modules[name]
    cli = importlib.import_module("divset.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported divset from {cli.__file__}, not from this checkout")
    work.mkdir(parents=True, exist_ok=True)
    build, _ = WORKLOADS[workload]
    ops = _write_ops(build(random.Random(f"{workload}:{seed}")), work)
    (work / "warm-up").mkdir(exist_ok=True)
    warm_op = _write_ops(itertools.islice(build(random.Random(f"{workload}:warm-up")), 1), work / "warm-up")[0]
    harness_mb = peak_rss_mb()
    warm = execute(cli.main, warm_op)
    return perf_counter() - started, cli.main, ops, (warm_op, warm), harness_mb


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def execute(main, op: Op, tracer: Tracer | None = None):
    """One timed operation: (seconds, exit code or traceback text, stdout, stderr)."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    started = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = tracer.call("cli.main", main, op.argv) if tracer else main(op.argv)
        except Exception:
            code = traceback.format_exc()
    return perf_counter() - started, code, out.getvalue(), err.getvalue()


def check(workload: str, op: Op, code, stdout: str, stderr: str) -> tuple[list[str], dict | None]:
    """Problems with one operation's output, and its report or FO record."""
    if code != op.exit_code:
        return [f"exit {code!r}, expected {op.exit_code}; stderr: {stderr.strip()}"], None
    guard = WORKLOADS[workload][1]
    if op.fo:
        case, record = op.fo, json.loads(stdout)
        problems = []
        if record["h_holds"] != case.holds:
            problems.append(f"h_holds {record['h_holds']} but the graph gives {case.holds}")
        if (record["h_vertices"], record["h_edges"]) != (case.n, case.m):
            problems.append("graph size misreported")
        if record["g_vertices"] != case.n + 2 * case.m:
            problems.append(f"g_vertices {record['g_vertices']} != n+2m = {case.n + 2 * case.m}")
        if record["nodes_after"] > 20 * record["nodes_before"]:
            problems.append("rewrite grew the sentence more than 20x")
        if guard(record):
            problems.append(f"coverage: {guard(record)}")
        return problems, record

    vectors = sys.modules["divset.vectors"]
    sol, rep = op.outputs
    written = sol.read_text()
    digest = hashlib.sha256(written.encode()).digest()
    report = json.loads(rep.read_text())
    problems = []
    if digest != op.verified:
        witness = vectors.parse_solution(written)
        if op.source:
            header, *rows = op.source.read_text().splitlines()
            d, k, r = (int(x) for x in header.split())
            instance = vectors.Instance.from_texts(rows, k, r, d)
            verdict = vectors.verify_solution(instance, witness) if witness else None
            if verdict is None or not verdict.ok:
                problems.append(f"witness rejected: {verdict.failures if verdict else 'none written'}")
            else:
                op.verified = digest
        elif witness is not None:
            problems.append("a witness was written for a NO instance")
    if guard(report):
        problems.append(f"coverage: {guard(report)}")
    return problems, report


class Run:
    """Counts attempts and failures and reports each failure on stderr."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: Op, outcome: tuple):
        """Check one `execute` outcome; returns the operation's report or record."""
        self.attempted += 1
        try:
            problems, facts = check(self.workload, op, *outcome[1:])
        except Exception:
            problems, facts = [traceback.format_exc()], None
        if problems:
            self.failed += 1
            print(f"FAIL {' '.join(op.argv)}: {'; '.join(problems)}", file=sys.stderr)
        return facts


def end_to_end(run: Run, main, ops, seconds: float, setup_s: float) -> dict:
    """Cycle through the inputs for `seconds`, at least once and at least
    MIN_SAMPLES runs.

    Each run is scaled to reference speed by the reference kernel timed just
    before and just after its batch (see `reference.py`).  An input's
    latency is the median of its scaled runs; p50 is taken over inputs, the
    tail over all runs.
    """
    scaled: list[list[float]] = [[] for _ in ops]
    measured = []
    done = 0
    batch: list[tuple[int, float]] = []
    kernel = reference.measure()
    started = perf_counter()
    while done < max(len(ops), MIN_SAMPLES) or perf_counter() - started < seconds:
        i = done % len(ops)
        outcome = execute(main, ops[i])
        batch.append((i, outcome[0]))
        measured.append(outcome[0])
        run.record(ops[i], outcome)
        done += 1
        if sum(t for _, t in batch) >= BATCH_SECONDS:
            kernel = _scale(batch, kernel, scaled)
    _scale(batch, kernel, scaled)
    latencies = [statistics.median(runs) for runs in scaled]
    every_run = sorted(t for runs in scaled for t in runs)
    print(f"# {run.workload}: {len(ops)} inputs, {done} runs; latency_s.tail is p{TAIL_PERCENTILE} of "
          f"{done} runs; unscaled median run {statistics.median(measured):.6g} s; "
          f"fail_ratio {run.failed}/{run.attempted}")
    return {
        "latency_s.p50": statistics.median(latencies),
        "latency_s.tail": every_run[math.ceil(TAIL_PERCENTILE / 100 * done) - 1],
        "throughput_ops": len(latencies) / sum(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def _scale(batch: list, kernel: float, scaled: list) -> float:
    """Move each (input, seconds) of `batch` to `scaled` at reference speed,
    by the kernel's time before the batch and now; returns the latter."""
    kernel_after = reference.measure()
    for i, seconds in batch:
        scaled[i].append(seconds * reference.SECONDS * 2 / (kernel + kernel_after))
    batch.clear()
    return kernel_after


def _pass_counts(tracer: Tracer, facts: list) -> Counter:
    """Every non-timing value of one traced pass."""
    counts = Counter(tracer.counts)
    for item in facts:
        if item is None:
            continue
        if "method" in item:
            counts["solver.method." + item["method"]] += 1
            for kind, n in item["trace_summary"].items():
                counts["solver.removed." + REMOVAL_KINDS[kind]] += n
        else:
            counts["fologic.agree.count"] += item["agree"]
            counts["fologic.nodes_after"] += item["nodes_after"]
            counts["fologic.nodes_before"] += item["nodes_before"]
    return counts


def per_layer(run: Run, main, ops, seconds: float, spans_path: Path) -> dict:
    """Pass over the inputs for `seconds`, at least twice, running each
    input untraced and then traced, so that both see the machine in the
    same state.  Times are means over the traced runs; the overhead compares
    each input's fastest traced and untraced runs.

    Each operation's root span must lie inside its wall time, the traced
    runs of a pass must take at least TRACED_FLOOR of its untraced runs, and
    the reported self times must add up to `cli.main_s`."""
    passes: list[Counter] = []
    self_s: Counter = Counter()
    stage_s: Counter = Counter()
    main_s = 0.0
    untraced, traced = [math.inf] * len(ops), [math.inf] * len(ops)
    started = perf_counter()
    while len(passes) < 2 or perf_counter() - started < seconds:
        tracer = Tracer()
        facts, walls = [], []
        untraced_pass = 0.0
        for i, op in enumerate(ops):
            outcome = execute(main, op)
            untraced[i] = min(untraced[i], outcome[0])
            untraced_pass += outcome[0]
            run.record(op, outcome)
            tracer.op = i
            before = Counter(tracer.counts)
            tracer.install()
            try:
                outcome = execute(main, op, tracer)
            finally:
                tracer.uninstall()
            walls.append(outcome[0])
            traced[i] = min(traced[i], outcome[0])
            facts.append(run.record(op, outcome))
            made = tracer.counts - before
            if op.fo and not (made["reductions.distance_graph.calls"] and made["fologic.evaluate.calls"]):
                run.problems.append(f"coverage: {op.argv} did not reach distance_graph and evaluate")
        by_name = tracer.self_times()
        # The operation's wall time is its root span, `cli.main`; `walls`
        # also holds the harness's own code around the call.
        roots = {op: end - start for name, start, end, parent, op in tracer.spans if parent is None}
        for i, wall in enumerate(walls):
            if roots.get(i, math.inf) > wall:
                run.problems.append(f"op {i}: root span {roots.get(i)} s, wall {wall:.6f} s")
        if sum(roots.values()) < TRACED_FLOOR * untraced_pass:
            run.problems.append(f"traced pass {sum(roots.values()):.6f} s, untraced {untraced_pass:.6f} s")
        self_s.update(by_name)
        main_s += sum(roots.values())
        for item in facts:
            for stage, value in (item or {}).get("timings", {}).get("stages", {}).items():
                stage_s[stage] += value
        passes.append(_pass_counts(tracer, facts))
        if passes[-1] != passes[0]:
            run.problems.append(f"counts differ between traced passes: {passes[0]} vs {passes[-1]}")
    tracer.dump(spans_path)

    counts, n_ops, timed_ops = passes[0], len(ops), len(ops) * len(passes)
    values = {
        "cli.main_s": main_s / timed_ops,
        "cli.self_s": self_s["cli.main"] / timed_ops,
        "solver.greedy_attempt.hit_ratio": (
            counts["solver.greedy_attempt.hits"] / counts["solver.greedy_attempt.calls"]
            if counts["solver.greedy_attempt.calls"] else 0.0
        ),
        "fologic.nodes_ratio": (
            counts["fologic.nodes_after"] / counts["fologic.nodes_before"]
            if counts["fologic.nodes_before"] else 0.0
        ),
        "fologic.agree.count": counts["fologic.agree.count"] / n_ops,
        "trace.overhead_ratio": sum(traced) / sum(untraced),
    }
    for _, _, name, counter, _ in TRACED:
        values[name + (".self_s" if name in CONTAINERS else "_s")] = self_s[name] / timed_ops
        if counter and counter != "solver.greedy_attempt.hits":
            values[counter] = counts[counter] / n_ops
    for name in CALLS:
        values[name + ".calls"] = counts[name + ".calls"] / n_ops
    for kind in REMOVAL_KINDS.values():
        values["solver.removed." + kind] = counts["solver.removed." + kind] / n_ops
    for method in METHODS:
        values["solver.method." + method] = counts["solver.method." + method] / n_ops
    for stage in STAGES:
        values[f"solver.stage.{stage}_s"] = stage_s[stage] / timed_ops
    reported = values["cli.self_s"] + sum(values[name + (".self_s" if name in CONTAINERS else "_s")]
                                          for _, _, name, _, _ in TRACED)
    if abs(reported - values["cli.main_s"]) > 1e-9 * values["cli.main_s"]:
        run.problems.append(f"reported self times sum to {reported} s, cli.main_s is {values['cli.main_s']} s")
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"{args.workload}-{args.seed}"
    run = Run(args.workload)
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups, ops = [], None
        for _ in range(SETUPS):
            # The previous set-up's operations and modules go before the next
            # set-up, so that two sets of inputs never count in the peak.  The
            # old modules are held by reference cycles, which only the
            # collector frees.
            cli_main = ops = warm_up = None
            gc.collect()
            kernel = reference.measure()
            seconds, cli_main, ops, warm_up, harness_mb = set_up(args.workload, args.seed, work)
            setups.append(seconds * reference.SECONDS * 2 / (kernel + reference.measure()))
            run.record(*warm_up)
            if len(setups) == 1:
                print(f"# {args.workload}: peak memory before the first operation {harness_mb:.1f} MB")
        if args.trace:
            values = per_layer(run, cli_main, ops, args.seconds, bench_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            values = end_to_end(run, cli_main, ops, args.seconds, statistics.median(setups))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    for problem in run.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"# {args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
