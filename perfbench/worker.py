"""Child process of the benchmark: one set-up probe or one workload run.

    python3 worker.py --root ROOT --probe
    python3 worker.py --root ROOT --workload NAME --seed N --seconds S --trace 0|1

A probe imports symnabla from ROOT/src, makes one tiny call per engine
and prints ``ready``; the parent times it from process start to that
line.  A workload run does the same set-up, then repeats the workload's
fixed batch until the time budget is spent, checks the results and
prints one JSON report as its last line.  With ``--trace 1`` the budget
is split: untraced batches first, then traced ones, so the report
carries the tracing overhead next to the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


def warm_up() -> None:
    """One tiny call per engine, so lazy state such as the prime-basis
    cache is filled before anything is timed."""
    import symnabla
    from symnabla import cli

    base = symnabla.make_base_set(8)
    symnabla.sym_prod(base, base)
    symnabla.structural_vector(symnabla.decompose(symnabla.sym_power(8, 3)), 8)
    symnabla.power_card_sequence(6, 3)
    symnabla.fast_term(7, 5)
    symnabla.term(8, 5)
    symnabla.matrix_term_range(8)
    symnabla.reduce_term(27)
    symnabla.sparse_term(8, 3)
    symnabla.crosscheck(1, symnabla.parse_bfile("0 1\n1 1\n"), 1)
    cli.build_parser()


@dataclass
class Measurement:
    """Timed batches of one phase of a run, raw and at nominal speed."""

    walls: list = field(default_factory=list)
    norm_walls: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    norm_latencies: list = field(default_factory=list)
    kernels: list = field(default_factory=list)
    first_results: list = None
    first_fps: list = None
    repeat_ok: list = field(default_factory=list)
    first_spans: list = None


def measure(workload, budget: float, warm_up_batch: bool, tracer=None, totals=None) -> Measurement:
    """Repeat the batch until the next one would overrun the budget.

    The reference kernel runs before every batch and after the last, and
    each batch is normalised by the kernels on either side of it.  With
    ``warm_up_batch`` the first batch is run and checked but not timed:
    in a fresh process it is slower by up to a fifth, mostly while the
    allocator learns to keep large arrays instead of mapping fresh pages.

    The first batch's results are kept for checking; later batches are
    compared with it.  Spans of every traced batch go into ``totals``.
    """
    import reference
    from workloads import Ops, fingerprint

    m = Measurement()
    start = time.perf_counter()
    warming = warm_up_batch
    before = reference.kernel_s()
    while warming or not m.walls or time.perf_counter() - start + statistics.median(m.walls) <= budget:
        ops = Ops(tracer)
        t0 = time.perf_counter()
        workload.run_batch(ops)
        wall = time.perf_counter() - t0
        after = reference.kernel_s()
        if not warming:
            m.walls.append(wall)
            m.norm_walls.append(reference.normalise(wall, before, after))
            m.latencies += ops.latencies
            m.norm_latencies += [reference.normalise(x, before, after) for x in ops.latencies]
            m.kernels.append((before + after) / 2)
        warming = False
        before = after
        if tracer is not None:
            batch_spans = tracer.take()
            totals.add(batch_spans)
            if m.first_spans is None:
                m.first_spans = batch_spans
        fps = [fingerprint(r) for r in ops.results]
        if m.first_results is None:
            m.first_results, m.first_fps = ops.results, fps
        else:
            m.repeat_ok.append([a == b for a, b in zip(fps, m.first_fps)])
    return m


def percentile(values, q):
    """q-th percentile (0 < q < 100) by statistics.quantiles, inclusive."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    warm_up()
    if args.probe:
        print("ready", flush=True)
        return 0

    import spans
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload](args.seed, root)
    report = {"workload": args.workload, "seed": args.seed, "inputs": workload.record()}

    budget = args.seconds / 2 if args.trace else args.seconds
    m = measure(workload, budget, True)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["wall_s"] = statistics.median(m.norm_walls)
    report["op_p50_ms"] = statistics.median(m.norm_latencies) * 1e3
    report["op_p90_ms"] = percentile(m.norm_latencies, 90) * 1e3
    report["op_samples"] = len(m.latencies)
    report["ops_per_batch"] = len(m.first_results)
    report["batches"] = len(m.walls)
    report["raw_wall_s"] = statistics.median(m.walls)
    report["raw_op_p50_ms"] = statistics.median(m.latencies) * 1e3
    report["raw_batch_wall_s"] = m.walls
    report["kernel_s"] = m.kernels
    report["digest"] = digest(m.first_fps)

    verdicts = workload.check(m.first_results)
    all_verdicts = [verdicts] + [
        [good and same for good, same in zip(verdicts, rep)] for rep in m.repeat_ok
    ]

    if args.trace:
        tracer = spans.Tracer()
        totals = spans.LayerTotals()
        tracer.install()
        try:
            t = measure(workload, budget, False, tracer, totals)
        finally:
            tracer.uninstall()
        same_as_untraced = [a == b for a, b in zip(t.first_fps, m.first_fps)]
        for rep in [same_as_untraced] + t.repeat_ok:
            all_verdicts.append([good and same for good, same in zip(verdicts, rep)])
        stdout_bytes = sum(len(r[1]) for r in t.first_results if isinstance(r, tuple))
        overhead = statistics.median(t.norm_walls) / report["wall_s"]
        report["traced_wall_s"] = statistics.median(t.norm_walls)
        report["traced_batches"] = len(t.walls)
        report["spans_per_batch"] = totals.spans / len(t.walls)
        report["layers"] = spans.layer_metrics(totals, len(t.walls), stdout_bytes, overhead)
        spans.write_spans(
            root / ".perfbench" / f"spans_{args.workload}_seed{args.seed}.json.gz",
            t.first_spans,
        )

    report["attempted"] = sum(len(v) for v in all_verdicts)
    report["failed"] = sum(not ok for v in all_verdicts for ok in v)
    report["failed_ratio"] = report["failed"] / report["attempted"]
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
