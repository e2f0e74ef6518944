"""Benchmark entry point for symnabla.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from ./src,
nothing is installed or built.  Each run starts fresh single-threaded
child processes (numpy/BLAS thread variables pinned to 1):

* with ``--trace 0``, several set-up probes, whose median start-to-ready
  time is ``setup_s``, then the workload child, which reports
  ``wall_s``, ``op_p50_ms`` and ``peak_rss_mb``;

All times are reported in seconds at nominal machine speed: each is
divided by the reference kernel's time measured just before and after
it, times ``reference.NOMINAL_S`` (see reference.py).  The raw times are
in the report line too.
* with ``--trace 1``, only the workload child, which also runs traced
  batches and reports the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
child's full report (inputs, batch times, p90, digests).  Any error
exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
WORKLOADS = ("brute_oracle", "transfer_replay", "huge_index", "dense_cli")
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
SETUP_PROBES = 7
# A run must finish within 180 s; keep the children well inside that.
RUN_DEADLINE_S = 170.0

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def probe(root: Path, timeout: float) -> float:
    """Seconds from starting a fresh interpreter until it prints ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root), "--probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def run_workload(root: Path, args, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(root),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(), text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload child did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload child failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "symnabla" / "__init__.py").is_file():
        print("error: run from the root of a symnabla checkout (src/symnabla not found)", file=sys.stderr)
        return 2
    if args.workload == "dense_cli" and not (root / "tests" / "fixtures").is_dir():
        print("error: dense_cli needs the b-file fixtures in tests/fixtures", file=sys.stderr)
        return 2

    try:
        setup, raw_setup = [], []
        if not args.trace:
            probe(root, 60)  # unmeasured: leaves compiled bytecode behind
            before = reference.kernel_s()
            for _ in range(SETUP_PROBES):
                elapsed = probe(root, 60)
                after = reference.kernel_s()
                raw_setup.append(elapsed)
                setup.append(reference.normalise(elapsed, before, after))
                before = after
        remaining = RUN_DEADLINE_S - (time.perf_counter() - started)
        report = run_workload(root, args, remaining)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = report["layers"]
    else:
        report["setup_s"] = statistics.median(setup)
        report["raw_setup_s"] = statistics.median(raw_setup)
        report["raw_setup_probe_s"] = raw_setup
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END.items()}
    report.pop("layers", None)
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
