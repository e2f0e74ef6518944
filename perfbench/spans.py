"""Outside-in tracing of symnabla's public functions.

``Tracer.install`` replaces every public function of the package (the
names in ``symnabla.__all__`` plus the ``cli`` entry points) in every
module namespace that references it, so a call made inside the library,
such as ``verify_transfer`` -> ``decompose``, is caught as well as a
call made by the benchmark.  No library file is changed: the wrappers
live here and are removed again by ``Tracer.uninstall``.

Each wrapped call becomes one span ``(name, parent, op, t0_ns, t1_ns,
extra)`` held in memory; ``parent`` is the index of the enclosing span
(or -1) and ``op`` the benchmark request the span belongs to.  ``extra``
holds counts taken at the boundary, where the work happens, such as the
pair count of a ``sym_prod``.  ``layer_metrics`` turns spans into the
per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
import types

import symnabla
from symnabla import cli

# Per-layer metrics reported by a traced run, with their units.  The
# README explains which end-to-end metric each should move.
PER_LAYER = {
    "core.sym_prod.calls": "count",
    "core.sym_prod.busy_s": "s",
    "core.sym_prod.pairs": "count",
    "core.sym_prod.out_elems": "count",
    "core.sym_prod.keep_ratio": "ratio",
    "core.sym_prod.ns_per_pair": "ns",
    "core.sym_prod.p50_ms": "ms",
    "core.sym_square.busy_s": "s",
    "core.sym_power.self_s": "s",
    "core.power_card_sequence.self_s": "s",
    "core.max_set_elems": "count",
    "chains.decompose.calls": "count",
    "chains.decompose.busy_s": "s",
    "chains.decompose.elems": "count",
    "chains.decompose.chains": "count",
    "chains.decompose.ns_per_elem": "ns",
    "chains.verify_transfer.self_s": "s",
    "chains.structural_vector.busy_s": "s",
    "recurrence.matrix_term.calls": "count",
    "recurrence.matrix_term.busy_s": "s",
    "recurrence.matrix_term.bits": "bit",
    "recurrence.matrix_term.ns_per_bit": "ns",
    "recurrence.reduce_term.calls": "count",
    "recurrence.reduce_term.busy_s": "s",
    "recurrence.reduce_term.cache_hit_ratio": "ratio",
    "recurrence.reduce_term.nodes_per_call": "count",
    "recurrence.fast_term.self_s": "s",
    "recurrence.term.self_s": "s",
    "recurrence.matrix_term_range.busy_s": "s",
    "recurrence.matrix_term_range.terms": "count",
    "recurrence.sparse_term.calls": "count",
    "recurrence.sparse_term.busy_s": "s",
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "B",
    "oeis.parse_bfile.busy_s": "s",
    "oeis.crosscheck.busy_s": "s",
    "oeis.crosscheck.terms": "count",
    "trace.overhead_ratio": "ratio",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Boundary counters: (args, kwargs, result) -> a tuple of counts.
def _count_sym_prod(args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    return (len(a) * len(b), len(result))


def _count_set_result(args, kwargs, result):
    return (len(result),)


def _count_decompose(args, kwargs, result):
    return (len(_arg(args, kwargs, 0, "s")), len(result))


def _count_matrix_term(args, kwargs, result):
    return (int(_arg(args, kwargs, 0, "n")).bit_length(),)


def _count_limit(args, kwargs, result):
    return (int(_arg(args, kwargs, 0, "limit")) + 1,)


def _count_crosscheck(args, kwargs, result):
    return (int(_arg(args, kwargs, 2, "limit")) + 1,)


_COUNTERS = {
    "core.sym_prod": _count_sym_prod,
    "core.sym_square": _count_set_result,
    "core.sym_power": _count_set_result,
    "chains.decompose": _count_decompose,
    "recurrence.matrix_term": _count_matrix_term,
    "recurrence.matrix_term_range": _count_limit,
    "oeis.crosscheck": _count_crosscheck,
}


def public_functions() -> dict[int, tuple[str, types.FunctionType]]:
    """id(function) -> (span name, function) for every traced function."""
    found = {}
    candidates = [getattr(symnabla, name) for name in symnabla.__all__]
    candidates += [
        value
        for name, value in vars(cli).items()
        if name == "main" or name == "build_parser" or name.startswith("cmd_")
    ]
    for fn in candidates:
        if isinstance(fn, types.FunctionType) and fn.__module__.startswith("symnabla."):
            layer = fn.__module__.split(".", 1)[1]
            found[id(fn)] = (f"{layer}.{fn.__name__}", fn)
    return found


class Tracer:
    """Span recorder over the package's public functions.

    Single-threaded by design: the workload child runs one op at a time.
    """

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self.op = -1
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = _COUNTERS.get(name)
        clock = time.perf_counter_ns
        tracer = self

        if name == "recurrence.reduce_term":
            # The hit test needs the caller's dict before the call.  A call
            # without one gets a fresh dict, which reduce_term itself would
            # create, so the count of memoised nodes is visible too.
            def wrapper(n, *args, **kwargs):
                cache = kwargs.get("cache")
                hit = cache is not None and n in cache
                if cache is None:
                    cache = kwargs["cache"] = {}
                before = len(cache)
                sid = len(spans)
                spans.append(None)
                stack.append(sid)
                t0 = clock()
                try:
                    return fn(n, *args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[sid] = (name, stack[-1], tracer.op, t0, t1, (int(hit), len(cache) - before))

            return wrapper

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = counter(args, kwargs, result) if counter and result is not None else ()
                spans[sid] = (name, stack[-1], tracer.op, t0, t1, extra)

        return wrapper

    def install(self) -> None:
        functions = public_functions()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in functions.items()}
        modules = [symnabla] + [
            getattr(symnabla, m) for m in ("core", "chains", "recurrence", "oeis", "cli")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is functions[id(value)][1]:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


class LayerTotals:
    """Per-name aggregates over the spans of one or more batches."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.extra: dict[str, list[int]] = {}
        self.prod_ns: list[int] = []
        self.max_set = 0
        self.spans = 0

    def add(self, spans: list) -> None:
        child_ns = [0] * len(spans)
        for name, parent, _op, t0, t1, _extra in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for sid, (name, parent, _op, t0, t1, extra) in enumerate(spans):
            dur = t1 - t0
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + dur - child_ns[sid]
            # busy time counts a span only when no ancestor has its name
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][1]
            if anc < 0:
                self.busy_ns[name] = self.busy_ns.get(name, 0) + dur
            if extra:
                acc = self.extra.setdefault(name, [0] * len(extra))
                for i, x in enumerate(extra):
                    acc[i] += x
            if name in ("core.sym_prod", "core.sym_square", "core.sym_power"):
                self.max_set = max(self.max_set, extra[-1] if extra else 0)
            if name == "chains.decompose" and extra:
                self.max_set = max(self.max_set, extra[0])
            if name == "core.sym_prod":
                self.prod_ns.append(dur)
        self.spans += len(spans)


def layer_metrics(totals: LayerTotals, batches: int, stdout_bytes: int, overhead: float) -> dict:
    """Per-layer metrics, per batch, in the names and units of PER_LAYER.

    stdout_bytes is already per batch: the CLI output of one batch.
    """

    def calls(name):
        return totals.calls.get(name, 0) / batches

    def busy(name):
        return totals.busy_ns.get(name, 0) / 1e9 / batches

    def self_s(name):
        return totals.self_ns.get(name, 0) / 1e9 / batches

    def extra(name, i):
        values = totals.extra.get(name)
        return values[i] / batches if values else 0

    def ratio(a, b):
        return a / b if b else 0.0

    prod_ns = totals.busy_ns.get("core.sym_prod", 0)
    pairs = extra("core.sym_prod", 0)
    decompose_elems = extra("chains.decompose", 0)
    bits = extra("recurrence.matrix_term", 0)
    values = {
        "core.sym_prod.calls": calls("core.sym_prod"),
        "core.sym_prod.busy_s": busy("core.sym_prod"),
        "core.sym_prod.pairs": pairs,
        "core.sym_prod.out_elems": extra("core.sym_prod", 1),
        "core.sym_prod.keep_ratio": ratio(extra("core.sym_prod", 1), pairs),
        "core.sym_prod.ns_per_pair": ratio(prod_ns / batches, pairs),
        "core.sym_prod.p50_ms": statistics.median(totals.prod_ns) / 1e6 if totals.prod_ns else 0.0,
        "core.sym_square.busy_s": busy("core.sym_square"),
        "core.sym_power.self_s": self_s("core.sym_power"),
        "core.power_card_sequence.self_s": self_s("core.power_card_sequence"),
        "core.max_set_elems": totals.max_set,
        "chains.decompose.calls": calls("chains.decompose"),
        "chains.decompose.busy_s": busy("chains.decompose"),
        "chains.decompose.elems": decompose_elems,
        "chains.decompose.chains": extra("chains.decompose", 1),
        "chains.decompose.ns_per_elem": ratio(totals.busy_ns.get("chains.decompose", 0) / batches, decompose_elems),
        "chains.verify_transfer.self_s": self_s("chains.verify_transfer"),
        "chains.structural_vector.busy_s": busy("chains.structural_vector"),
        "recurrence.matrix_term.calls": calls("recurrence.matrix_term"),
        "recurrence.matrix_term.busy_s": busy("recurrence.matrix_term"),
        "recurrence.matrix_term.bits": bits,
        "recurrence.matrix_term.ns_per_bit": ratio(totals.busy_ns.get("recurrence.matrix_term", 0) / batches, bits),
        "recurrence.reduce_term.calls": calls("recurrence.reduce_term"),
        "recurrence.reduce_term.busy_s": busy("recurrence.reduce_term"),
        "recurrence.reduce_term.cache_hit_ratio": ratio(extra("recurrence.reduce_term", 0), calls("recurrence.reduce_term")),
        "recurrence.reduce_term.nodes_per_call": ratio(extra("recurrence.reduce_term", 1), calls("recurrence.reduce_term")),
        "recurrence.fast_term.self_s": self_s("recurrence.fast_term"),
        "recurrence.term.self_s": self_s("recurrence.term"),
        "recurrence.matrix_term_range.busy_s": busy("recurrence.matrix_term_range"),
        "recurrence.matrix_term_range.terms": extra("recurrence.matrix_term_range", 0),
        "recurrence.sparse_term.calls": calls("recurrence.sparse_term"),
        "recurrence.sparse_term.busy_s": busy("recurrence.sparse_term"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.busy_s": busy("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.stdout_bytes": stdout_bytes,
        "oeis.parse_bfile.busy_s": busy("oeis.parse_bfile"),
        "oeis.crosscheck.busy_s": busy("oeis.crosscheck"),
        "oeis.crosscheck.terms": extra("oeis.crosscheck", 0),
        "trace.overhead_ratio": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def write_spans(path, spans: list) -> None:
    """Write one batch's spans as gzipped JSON: a name table plus rows of
    [parent, op, name index, start ns, end ns, counts]."""
    names: dict[str, int] = {}
    rows = []
    base = spans[0][3] if spans else 0
    for name, parent, op, t0, t1, extra in spans:
        idx = names.setdefault(name, len(names))
        rows.append([parent, op, idx, t0 - base, t1 - base, list(extra)])
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))
