"""The four benchmark workloads: seeded inputs, one batch of ops, checks.

An op is one public call into symnabla (for ``dense_cli``, one in-process
``cli.main`` call with stdout captured).  ``Workload.run_batch`` makes the
whole fixed batch through ``Ops.call``, which times each op; ``check``
runs afterwards, outside every timed region, and compares each result
with an engine other than the one that produced it.  Huge values are
compared as ints or digests, never through ``str()``, which Python 3.11
refuses above 4300 digits.

Every workload draws its inputs from ``random.Random(seed)`` only, and
draws them so that the amount of work hardly depends on the seed: the
seed draws bits and positions, while sizes and call order are fixed.
That keeps runs with different seeds comparable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
import traceback
from pathlib import Path

import symnabla
from symnabla import chains, cli, recurrence


class Ops:
    """Times each op of a batch and keeps its result or its exception."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.results: list = []

    def call(self, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op = len(self.results)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an op that raises is counted as failed
            result = exc
            traceback.print_exc(file=sys.stderr)
        self.latencies.append(time.perf_counter() - t0)
        self.results.append(result)


def fingerprint(value):
    """A cheap, exact stand-in for a result, for comparing repeated batches."""
    if isinstance(value, Exception):
        return ("error", type(value).__name__)
    if isinstance(value, int):
        return value
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], str):
        return (value[0], hashlib.sha256(value[1].encode()).hexdigest())
    if isinstance(value, chains.TransferReport):
        return (value.ok, tuple(sv.vector() for sv in value.vectors))
    return tuple(value)


def digest(fingerprints) -> str:
    """Short hash over a batch's results; ints go in as bytes, not text."""
    h = hashlib.sha256()
    for fp in fingerprints:
        if isinstance(fp, int):
            h.update(fp.to_bytes((fp.bit_length() + 8) // 8, "little", signed=True))
        else:
            h.update(repr(fp).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Reference values computed by the benchmark itself


class RunProduct:
    """term(k, n) for k <= 7 as a product over the 1-runs of n of
    f . M**L . v0, with the public transfer matrices of symnabla.chains.

    This shares no code with the hardcoded sparse recurrences behind
    ``fast_term``; the census matrices are what ``verify_transfer``
    checks against real sets.
    """

    def __init__(self):
        self._values: dict[int, list[int]] = {}
        self._state: dict[int, tuple[int, ...]] = {}

    def sparse(self, k: int, length: int) -> int:
        """term(k, 2**length - 1) = f . M**length . v0, for k in 4..8."""
        values = self._values.setdefault(k, [])
        if len(values) <= length:
            rows = chains.transfer_matrix(k).rows
            f = chains.cardinality_functional(k)
            v = self._state.get(k) or chains.initial_vector(k)
            while len(values) <= length:
                values.append(sum(a * b for a, b in zip(f, v)))
                v = tuple(sum(r[j] * v[j] for j in range(len(v))) for r in rows)
            self._state[k] = v
        return values[length]

    def term(self, k: int, n: int) -> int:
        lengths = run_lengths(n)
        if k == 1:
            return 1
        if k in (2, 3):
            return k ** sum(lengths)
        value = 1
        for L in lengths:
            value *= self.sparse(k, L)
        return value


def run_lengths(n: int) -> list[int]:
    """Lengths of the maximal runs of 1-bits of n, low bits first."""
    out = []
    while n:
        n >>= (n & -n).bit_length() - 1  # drop trailing zeros
        ones = (~n & (n + 1)).bit_length() - 1
        out.append(ones)
        n >>= ones
    return out


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""

    def __init__(self, seed: int, root: Path):
        self.rng = random.Random(seed)
        self.root = root

    def record(self) -> dict:
        """The generated inputs, small enough to print."""
        raise NotImplementedError

    def run_batch(self, ops: Ops) -> None:
        raise NotImplementedError

    def check(self, results: list) -> list[bool]:
        """One verdict per op; False means wrong or raised."""
        raise NotImplementedError


class BruteOracle(Workload):
    """Dense power sweeps plus scattered brute_card calls (set engine)."""

    name = "brute_oracle"
    SWEEPS = ((6, 192), (7, 192), (8, 255))
    # Popcounts of the scattered n < 512, per k.  A fixed popcount
    # schedule keeps the set sizes, and so the work, nearly the same
    # for every seed; the seed only places the 1-bits.
    POPCOUNTS = (1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 7) * 2
    BITS = 9

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.scattered = [
            (k, sum(1 << b for b in self.rng.sample(range(self.BITS), p)))
            for k in (5, 6, 7, 8)
            for p in self.POPCOUNTS
        ]

    def record(self):
        return {"sweeps": self.SWEEPS, "brute_card": self.scattered}

    def run_batch(self, ops):
        for k, limit in self.SWEEPS:
            ops.call(symnabla.power_card_sequence, k, limit)
        for k, n in self.scattered:
            ops.call(symnabla.brute_card, k, n)

    def check(self, results):
        top = max(limit for _, limit in self.SWEEPS)
        k8 = [int(x) for x in recurrence.matrix_term_range(max(top, (1 << self.BITS) - 1))]

        def expect(k, n):
            return k8[n] if k == 8 else recurrence.fast_term(k, n)

        verdicts = []
        for (k, limit), got in zip(self.SWEEPS, results):
            verdicts.append(
                isinstance(got, list) and got == [expect(k, n) for n in range(limit + 1)]
            )
        for (k, n), got in zip(self.scattered, results[len(self.SWEEPS):]):
            verdicts.append(got == expect(k, n))
        return verdicts


class TransferReplay(Workload):
    """verify_transfer along the all-ones family (chain layer)."""

    name = "transfer_replay"
    # Every k in 4..8, at the largest t whose replay stays under a second
    # on a 2-core sandbox.  verify_transfer(8, 7) alone takes 4 to 6 s
    # there, so a run would hold only three batches and its median would
    # follow the machine's speed drift; at t = 6 the same per-element
    # loops (decompose, partition and gap checks) run on an eighth of the
    # elements.  The inputs are fixed: the seed does not change them.
    REPLAYS = ((8, 6), (7, 6), (6, 6), (5, 7), (4, 7))

    def record(self):
        return {"verify_transfer": self.REPLAYS}

    def run_batch(self, ops):
        for k, t in self.REPLAYS:
            ops.call(symnabla.verify_transfer, k, t)

    def check(self, results):
        verdicts = []
        for (k, t), report in zip(self.REPLAYS, results):
            ok = (
                isinstance(report, chains.TransferReport)
                and report.ok
                and len(report.vectors) == t + 1
                and all(
                    sv.cardinality() == recurrence.sparse_term(k, level)
                    for level, sv in enumerate(report.vectors)
                )
            )
            if ok and k == 8:
                ok = all(
                    sv.cardinality() == recurrence.matrix_term((1 << level) - 1)
                    for level, sv in enumerate(report.vectors)
                )
            verdicts.append(ok)
        return verdicts


class HugeIndex(Workload):
    """term and a cross-check engine at n of 64 to 8192 bits (big ints)."""

    name = "huge_index"
    KS = (4, 5, 6, 7, 8)
    PATTERNS = ("random", "ones", "runs")
    # Log-spaced bit lengths from 64 to 8192, the same for every
    # (k, pattern) cell and every seed; the seed draws the bits.  Random
    # lengths would let the few largest k = 8 requests, whose cost grows
    # faster than the square of the length, swing a batch by tens of %.
    # At 16384 bits the all-ones k = 8 request alone takes 2 to 3 s, and
    # a run would hold too few batches to be steady.
    GRID = tuple(round(64 * 128 ** (j / 6)) for j in range(7))

    def __init__(self, seed, root):
        super().__init__(seed, root)
        rng = self.rng
        requests = []
        for k in self.KS:
            for pattern in self.PATTERNS:
                for bits in self.GRID:
                    requests.append((k, bits, pattern, self._draw(pattern, bits)))
        self.requests = requests

    def _draw(self, pattern, bits):
        top = 1 << (bits - 1)
        if pattern == "random":
            return top | self.rng.getrandbits(bits - 1)
        n = (1 << bits) - 1
        if pattern == "runs":
            # long runs of ones broken by sparse single zeros
            for pos in self.rng.sample(range(1, bits - 1), max(1, bits // 48)):
                n &= ~(1 << pos)
        return n

    def record(self):
        return {"requests": [[k, bits, pattern] for k, bits, pattern, _ in self.requests]}

    def run_batch(self, ops):
        for k, _, _, n in self.requests:
            ops.call(symnabla.term, k, n)
            if k == 8:
                ops.call(symnabla.reduce_term, n)
            else:
                ops.call(symnabla.fast_term, k, n)

    def check(self, results):
        reference = RunProduct()
        verdicts = []
        for i, (k, _, _, n) in enumerate(self.requests):
            auto, other = results[2 * i], results[2 * i + 1]
            ok = isinstance(auto, int) and auto == other
            if ok and k != 8:
                ok = auto == reference.term(k, n)
            verdicts += [ok, ok]
        return verdicts


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation: (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class DenseCli(Workload):
    """Many small terms through the command line front end."""

    name = "dense_cli"
    FIXTURES = ((1, "b000012.txt"), (2, "b001316.txt"), (3, "b048883.txt"), (4, "b253064.txt"))
    SEQ8_LIMIT = 10**6
    REDUCE_LIMIT = 200_000
    SEQ7_LIMIT = 50_000
    SPARSE_COUNT = 800
    TRACE_N = 2**18 - 1
    SMALL_PER_K = 15

    def __init__(self, seed, root):
        super().__init__(seed, root)
        fixtures = root / "tests" / "fixtures"
        big = [
            ["seq", "--k", "8", "--limit", str(self.SEQ8_LIMIT)],
            ["seq", "--k", "8", "--limit", str(self.REDUCE_LIMIT), "--method", "reduce"],
            ["seq", "--k", "7", "--limit", str(self.SEQ7_LIMIT)],
            ["sparse", "--k", "8", "--count", str(self.SPARSE_COUNT)],
            ["reduce", "--n", str(self.TRACE_N), "--trace", "--format", "json"],
        ] + [["oeis", "--k", str(k), "--bfile", str(fixtures / name)] for k, name in self.FIXTURES]
        # Small terms on a fixed schedule of k, bit length, method and
        # format; the seed draws only the bits below the top one, so the
        # mix of op costs, and with it the median op, is the same on
        # every seed.
        small = []
        for k in range(1, 9):
            for j in range(self.SMALL_PER_K):
                bits = 1 + 23 * j // (self.SMALL_PER_K - 1)
                n = (1 << (bits - 1)) | self.rng.getrandbits(bits - 1)
                methods = ["auto", "matrix", "reduce"] if k == 8 else ["auto", "fast"]
                if bits <= 6:
                    methods.append("brute")
                fmt = ("plain", "csv", "json", "bfile")[j % 4]
                small.append(["term", "--k", str(k), "--n", str(n), "--method", methods[j % len(methods)], "--format", fmt])
        self.commands = big + small

    def record(self):
        return {"commands": [" ".join(c[:1] + [a.rsplit("/", 1)[-1] for a in c[1:]]) for c in self.commands]}

    def run_batch(self, ops):
        for argv in self.commands:
            ops.call(run_cli, argv)

    def check(self, results):
        outputs = {}
        for argv, result in zip(self.commands, results):
            if isinstance(result, tuple) and result[0] == 0:
                outputs[tuple(argv)] = result[1]
        reference = RunProduct()
        verdicts = []
        for argv, result in zip(self.commands, results):
            try:
                ok = isinstance(result, tuple) and result[0] == 0 and self._check_one(argv, result[1], outputs, reference)
            except (ValueError, KeyError, IndexError, TypeError):
                traceback.print_exc(file=sys.stderr)
                ok = False
            verdicts.append(ok)
        return verdicts

    def _check_one(self, argv, text, outputs, reference):
        cmd = argv[0]
        if cmd == "oeis":
            return text.startswith("AGREE ")
        if cmd == "reduce":
            payload = json.loads(text)
            value = recurrence.matrix_term(self.TRACE_N)
            return payload["value"] == value and payload["trace"]["value"] == value and payload["trace"]["n"] == self.TRACE_N
        if cmd == "sparse":
            got = [int(x) for x in text.split()]
            return got == [reference.sparse(8, t) for t in range(self.SPARSE_COUNT)]
        if cmd == "seq":
            got = [int(x) for x in text.split()]
            k, limit = int(argv[2]), int(argv[4])
            if len(got) != limit + 1:
                return False
            if k == 7:
                brute = symnabla.power_card_sequence(7, 127)
                return got[:128] == brute and all(got[n] == reference.term(7, n) for n in range(limit + 1))
            # the vectorised matrix run and the rewriting run check each other
            other = outputs.get(
                ("seq", "--k", "8", "--limit", str(self.REDUCE_LIMIT), "--method", "reduce")
                if "reduce" not in argv
                else ("seq", "--k", "8", "--limit", str(self.SEQ8_LIMIT))
            )
            if other is None:
                return False
            other = [int(x) for x in other.split()]
            matrix, reduce = (got, other) if "reduce" not in argv else (other, got)
            if matrix[: self.REDUCE_LIMIT + 1] != reduce:
                return False
            tail = random.Random(0).sample(range(self.REDUCE_LIMIT + 1, self.SEQ8_LIMIT + 1), 64)
            return all(matrix[n] == recurrence.reduce_term(n) for n in tail)
        # term
        k, n, method, fmt = int(argv[2]), int(argv[4]), argv[6], argv[8]
        if fmt == "plain":
            value = int(text)
        elif fmt == "csv":
            value = int(text.splitlines()[1].split(",")[2])
        elif fmt == "json":
            value = json.loads(text)["value"]
        else:
            index, value = (int(x) for x in text.split())
            if index != n:
                return False
        if k == 8:
            want = recurrence.matrix_term(n) if method == "reduce" else recurrence.reduce_term(n)
        else:
            want = reference.term(k, n)
        return value == want


WORKLOADS = {w.name: w for w in (BruteOracle, TransferReplay, HugeIndex, DenseCli)}
