"""Doubling-chain structure of symmetric power sets.

A power set decomposes into disjoint chains under the doubling map:

* kind A: maximal runs {x, 2x, 4x, ...} of at least two elements;
* kind B (k = 8 only): maximal runs of ratio 4, {x, 4x, 16x, ...}, of at
  least two elements, formed from what the A phase left over;
* kind C: everything else, as singletons.

A run of length 1 is never a chain of kind A or B; it falls through to
kind C.  Counting chains gives the structural vector (b, c, u, v, r):
total A length, number of A chains, total B length, number of B chains,
and number of singletons.  For k in {4, ..., 7} the B phase is skipped
and the vector collapses to (b, c, r).

The point of the bookkeeping: stepping the power from n to n+1
multiplies the structural vector by a fixed integer matrix, and squaring
the set (power n to 2n) applies a second fixed matrix.  Those transfer
matrices are hardcoded here and ``verify_transfer`` replays the brute
oracle against them, also checking that the chains partition the set
and that distinct chains never sit close enough to concatenate (equal
odd parts must differ in the exponent of 2 by at least 3 for k = 8,
at least 2 below).

One numpy pass (``_split_runs``) finds every run as arrays of group,
starting exponent of 2 and length, from a set's exponent rows
(``_chain_runs``) or, in ``verify_transfer``, from packed keys
(``_key_runs``).  The census and all checks are computed from those
arrays; ``Chain`` objects are built only by ``decompose``.

Matrix arithmetic in this module is exact: plain Python integers in
nested tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import mul
from typing import Iterable, Literal, Sequence

import numpy as np

from .core import DEFAULT_ELEMENT_CAP, ElementVec, SymSet, make_base_set
from .core import _base_keys, _check_cap, _check_pairs, _run_edges, _run_starts, _times_keys, _unpack
from .errors import DomainError, SizeLimitError

ChainKind = Literal["A", "B", "C"]

_STEP_RATIO = {"A": 1, "B": 2, "C": 0}  # step in the exponent of 2


@dataclass(frozen=True)
class Chain:
    """A doubling (or quadrupling) run inside a power set."""

    kind: ChainKind
    base: ElementVec
    length: int

    def __post_init__(self):
        if self.kind not in ("A", "B", "C"):
            raise DomainError(f"unknown chain kind {self.kind!r}")
        if self.kind == "C" and self.length != 1:
            raise DomainError("kind C chains are singletons")
        if self.kind in ("A", "B") and self.length < 2:
            raise DomainError(f"kind {self.kind} chains need length >= 2")

    @property
    def base_value(self) -> int:
        return self.base.value

    def values(self) -> list[int]:
        ratio = 2 ** _STEP_RATIO[self.kind] if self.kind != "C" else 1
        v = self.base_value
        out = []
        for _ in range(self.length):
            out.append(v)
            v *= ratio
        return out


def format_chain(chain: Chain) -> str:
    """One-line text form, e.g. ``A base=3 len=8``."""
    return f"{chain.kind} base={chain.base_value} len={chain.length}"


def chain_as_dict(chain: Chain) -> dict:
    """JSON-ready form; the base is an integer string since it can be huge."""
    return {
        "kind": chain.kind,
        "base": str(chain.base_value),
        "length": chain.length,
    }


def chains_to_text(chains: Iterable[Chain]) -> str:
    return "\n".join(format_chain(c) for c in chains)


@dataclass(frozen=True)
class StructVec:
    """Chain census of a power set.

    b/c: total length and count of kind A chains; u/v: the same for
    kind B; r: number of singletons.  b + u + r is the set cardinality.
    """

    k: int
    b: int
    c: int
    u: int
    v: int
    r: int

    def __post_init__(self) -> None:
        _check_chain_k(self.k)
        for name in ("b", "c", "u", "v", "r"):
            if getattr(self, name) < 0:
                raise DomainError(f"census component {name} cannot be negative")
        if self.k != 8 and (self.u or self.v):
            raise DomainError(
                f"step-2 families only occur at k=8, not k={self.k}"
            )

    def vector(self) -> tuple[int, ...]:
        """The vector the transfer matrices act on, ordered as census_components(k)."""
        return tuple(getattr(self, name) for name in census_components(self.k))

    def cardinality(self) -> int:
        return self.b + self.u + self.r

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.vector()) + ")"


def _check_chain_k(k: int) -> None:
    if k not in (4, 5, 6, 7, 8):
        raise DomainError(f"chain analysis supports k in 4..8, got {k}")


def census_components(k: int) -> tuple[str, ...]:
    """Structural-vector component names; k = 8 alone has step-2 families."""
    _check_chain_k(k)
    return ("b", "c", "u", "v", "r") if k == 8 else ("b", "c", "r")


_KINDS: tuple[ChainKind, ...] = ("A", "B", "C")

# Per kind: group index, starting exponent of 2 and length of each run.
_Runs = dict[ChainKind, tuple[np.ndarray, np.ndarray, np.ndarray]]


def _split_runs(edge: np.ndarray, e2: np.ndarray, k: int) -> _Runs:
    """Split members sorted by (odd part, exponent of 2) into runs, A
    phase first, then B (k = 8 only), then C.  edge is the ``_run_edges``
    mask of the odd parts, marking the first member of each group, and
    e2 holds the exponents of 2."""
    group = np.cumsum(edge[:-1]) - 1
    empty = np.empty(0, dtype=np.int64)
    runs: _Runs = {"B": (empty, empty, empty)}
    for kind in ("A", "B") if k == 8 else ("A",):
        brk = np.ones(len(e2), dtype=bool)
        np.not_equal(group[1:], group[:-1], out=brk[1:])
        brk[1:] |= (e2[1:] - e2[:-1]) != _STEP_RATIO[kind]
        starts = np.flatnonzero(brk)
        lengths = np.diff(starts, append=len(e2))
        chain = lengths >= 2
        runs[kind] = (group[starts[chain]], e2[starts[chain]], lengths[chain])
        left = np.repeat(~chain, lengths)
        group, e2 = group[left], e2[left]
    runs["C"] = (group, e2, np.ones(len(e2), dtype=np.int64))
    return runs


def _chain_runs(s: SymSet) -> tuple[np.ndarray, _Runs]:
    """The odd-part rows of the groups of a set and its run arrays.

    Canonical row order (last column most significant) is already the
    sort by (odd part, exponent of 2).  Rows serve any SymSet, however
    wide; ``verify_transfer`` splits its packed keys by ``_key_runs``.
    """
    _check_chain_k(s.k)
    if len(s) == 0:
        raise DomainError("cannot decompose the empty set")
    exps = s.exponents
    rest = exps[:, 1:]
    edge = _run_edges(rest)
    return rest[_run_starts(edge)], _split_runs(edge, exps[:, 0], s.k)


def _key_runs(keys: np.ndarray, w: int, k: int) -> tuple[np.ndarray, _Runs]:
    """``_chain_runs`` for sorted keys whose lowest field, w bits wide,
    is the exponent of 2: the odd part is key >> w."""
    odd = keys >> w
    edge = _run_edges(odd)
    return odd[_run_starts(edge)], _split_runs(edge, keys & ((1 << w) - 1), k)


def _census(k: int, runs: _Runs) -> StructVec:
    a, b = runs["A"][2], runs["B"][2]
    return StructVec(k, int(a.sum()), len(a), int(b.sum()), len(b), len(runs["C"][2]))


def census(s: SymSet) -> StructVec:
    """Chain census of a power set, counted from the run arrays without
    building a single Chain: the total length and number of the A chains
    ``decompose(s)`` lists, then of the B chains, then the C singletons."""
    return _census(s.k, _chain_runs(s)[1])


def decompose(s: SymSet) -> list[Chain]:
    """Split a power set into chains, A phase first, then B, then C.

    Deterministic output: sorted by (kind, base value).  The empty set
    has no chain structure and is rejected.
    """
    odd, runs = _chain_runs(s)
    basis = s.basis
    odd_rows = [tuple(row) for row in odd.tolist()]
    chains = [
        Chain(kind, ElementVec(basis, (e,) + odd_rows[g]), length)
        for kind in _KINDS
        for g, e, length in zip(*(a.tolist() for a in runs[kind]))
    ]
    chains.sort(key=lambda ch: (ch.kind, ch.base_value))
    return chains


def structural_vector(chains: Iterable[Chain], k: int) -> StructVec:
    """Census of a chain list.  Not exported: ``census`` counts a set
    without building chains, and this stays only for the warm-up call in
    ``perfbench/worker.py``.  StructVec rejects B chains outside k = 8."""
    chains = list(chains)
    a, b, c = ([ch.length for ch in chains if ch.kind == kind] for kind in _KINDS)
    return StructVec(k, sum(a), len(a), sum(b), len(b), len(c))


# ---------------------------------------------------------------------------
# Exact integer matrices


def mat_identity(d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def mat_add(a, b) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: int, a) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_sub(a, b) -> tuple[tuple[int, ...], ...]:
    return mat_add(a, mat_scale(-1, b))


def mat_vec(a, v: Sequence[int]) -> tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in a])


def vec_mat(u: Sequence[int], a) -> tuple[int, ...]:
    return tuple(sum(u[i] * a[i][j] for i in range(len(u))) for j in range(len(a[0])))


def vec_outer(col: Sequence[int], row: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(x * y for y in row) for x in col)


@cache
def _squaring(a, j: int) -> tuple[tuple[int, ...], ...]:
    """a**(2**j), each level squared from the one below and kept.  The
    cache is bounded by the longest bit length of an exponent asked for."""
    if j == 0:
        return a
    half = _squaring(a, j - 1)
    return mat_mul(half, half)


def _pow_vec(a, e: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """a**e applied to v by binary powering, one cached squaring per
    1-bit of e.  a must be a hashable tuple of tuples."""
    j = 0
    while e:
        if e & 1:
            v = mat_vec(_squaring(a, j) if j else a, v)
        e >>= 1
        j += 1
    return v


def mat_pow(a, e: int) -> tuple[tuple[int, ...], ...]:
    """a**e for e >= 0, a product of the cached squarings of a."""
    if e < 0:
        raise DomainError(f"matrix power must be >= 0, got {e}")
    a = tuple(tuple(row) for row in a)
    result = mat_identity(len(a))
    for j in range(e.bit_length()):
        if e >> j & 1:
            result = mat_mul(_squaring(a, j), result)
    return result


def is_zero_mat(a) -> bool:
    return all(x == 0 for row in a for x in row)


@dataclass(frozen=True)
class TransferMatrix:
    """A hardcoded integer matrix acting on structural vectors."""

    k: int
    role: Literal["step", "square"]
    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.dim:
            raise DomainError(
                f"vector of length {len(v)} does not match a {self.dim}x{self.dim} matrix"
            )
        return mat_vec(self.rows, v)


_STEP_ROWS = {
    8: ((2, 4, 6, 0, 6), (0, 3, 1, 1, 2), (2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 2)),
    4: ((0, 4, 3), (0, 2, 1), (2, -2, 1)),
    5: ((0, 4, 3), (0, 2, 1), (3, -2, 2)),
    6: ((2, 4, 5), (0, 3, 2), (2, -2, 1)),
    7: ((2, 4, 5), (0, 3, 2), (3, -2, 2)),
}

# Squaring doubles every exponent of 2: at k = 8 each A chain becomes a
# B chain; below k = 8 there are no B chains and A chains fall apart
# into singletons.
_SQUARE_ROWS = {
    8: ((0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 1)),
    **{k: ((0, 0, 0), (0, 0, 0), (1, 0, 1)) for k in (4, 5, 6, 7)},
}


def transfer_matrix(k: int) -> TransferMatrix:
    """Matrix stepping the structural vector from power n to n + 1
    along the all-ones index family (n -> 2n + 1)."""
    _check_chain_k(k)
    return TransferMatrix(k, "step", _STEP_ROWS[k])


def squaring_matrix(k: int = 8) -> TransferMatrix:
    """Matrix mapping the structural vector of a set to that of its
    square (power n to 2n)."""
    _check_chain_k(k)
    return TransferMatrix(k, "square", _SQUARE_ROWS[k])


def cardinality_functional(k: int) -> tuple[int, ...]:
    """Row vector extracting |set| = b + u + r from a structural vector."""
    return tuple(int(name in ("b", "u", "r")) for name in census_components(k))


def initial_vector(k: int) -> tuple[int, ...]:
    """Structural vector of power 0, the singleton {1}."""
    return tuple(int(name == "r") for name in census_components(k))


# ---------------------------------------------------------------------------
# Replaying the transfer step against the brute oracle


@dataclass(frozen=True)
class TransferFailure:
    """One discrepancy found by verify_transfer."""

    k: int
    n: int
    check: Literal["vector", "square", "partition", "chain_gap"]
    component: str | None
    expected: object
    actual: object

    def message(self) -> str:
        where = f"k={self.k} n={self.n} {self.check}"
        if self.component is not None:
            where += f" component={self.component}"
        return f"{where}: expected {self.expected}, got {self.actual}"


@dataclass(frozen=True)
class TransferReport:
    k: int
    n_max: int
    vectors: tuple[StructVec, ...]
    failures: tuple[TransferFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return f"PASS k={self.k} powers 0..{self.n_max} along the all-ones family"
        lines = [f"FAIL k={self.k}: {len(self.failures)} mismatch(es)"]
        lines += [f.message() for f in self.failures]
        return "\n".join(lines)


def _check_runs(keys, odd, runs: _Runs, w: int, maxima, k: int, n: int, failures: list) -> None:
    """Partition and gap checks of the runs ``_key_runs`` split from keys.
    Every run member is formed as a key, with its run id (A, then B,
    then C); each kind is in key order, so a stable sort merges them."""
    group, start, length = (np.concatenate([runs[kind][i] for kind in _KINDS]) for i in range(3))
    step = np.repeat([_STEP_RATIO[kind] for kind in _KINDS], [len(runs[kind][0]) for kind in _KINDS])
    run_id = np.repeat(np.arange(len(length)), length)
    # member j of a run starting at slot i is its first key plus step * (j - i)
    members = np.repeat((odd[group] << w) + start - step * (np.cumsum(length) - length), length)
    members += step[run_id] * np.arange(len(run_id))
    order = np.argsort(members, kind="stable")
    members, run_id = members[order], run_id[order]
    # The keys are distinct and ascending: equal means covered once.
    if not np.array_equal(members, keys):
        slots = f"{len(members)} chain slots, {len(np.unique(members))} distinct"
        failures.append(TransferFailure(k, n, "partition", None, f"{len(keys)} elements covered once", slots))
    # Distinct chains may not concatenate: keys with the same odd part
    # must be at least min_gap apart (in the exponent of 2).
    min_gap = 3 if k == 8 else 2
    gap = members[1:] - members[:-1]
    close = (gap < min_gap) & (run_id[1:] != run_id[:-1]) & ((members[1:] >> w) == (members[:-1] >> w))
    if not close.any():
        return
    kinds = [kind for kind in _KINDS for _ in runs[kind][0]]

    def describe(rid: int) -> str:
        row = _unpack((odd[group[rid : rid + 1]] << w) + start[rid], maxima)[0]
        return f"{kinds[rid]} base={ElementVec(make_base_set(k).basis, tuple(row.tolist())).value}"

    for i in np.flatnonzero(close).tolist():
        expected = f"gap >= {min_gap} between chains {describe(run_id[i])} and {describe(run_id[i + 1])}"
        failures.append(TransferFailure(k, n, "chain_gap", None, expected, f"gap {gap[i]}"))


def _check_vector(k: int, n: int, check: str, predicted: Sequence[int], actual: StructVec, failures: list) -> None:
    for name, exp_c, act_c in zip(census_components(k), predicted, actual.vector()):
        if exp_c != act_c:
            failures.append(TransferFailure(k, n, check, name, exp_c, act_c))


def verify_transfer(
    k: int, n_max: int, *, max_elements: int = DEFAULT_ELEMENT_CAP
) -> TransferReport:
    """Check the transfer step against brute-force chain censuses.

    Builds the powers at indices 1, 3, 7, ..., 2**n_max - 1 with the set
    oracle and for every n < n_max asserts that the hardcoded step
    matrix maps the census at index 2**n - 1 to the one at 2**(n+1) - 1
    (check "vector"), and that the squaring matrix maps it to the census
    of that power's square (check "square", at level n).  Partition and
    non-concatenation of the chains are checked at every level.  All
    findings are collected into the report rather than raised.

    The powers are sorted int64 keys in one layout, ``_base_keys``'s for
    power 2**t - 1, t = min(n_max, T) with T the largest level that fits
    63 bits (31, 20, 20, 15, 15 for k = 4..8).  Squaring doubles the
    keys, a step is ``_times_keys`` by the base set, under sym_prod's
    pair guard, and no row or Chain is built.  The guard refuses a level
    before T is passed (level 17, 13, 12, 11, 11 for k = 4..8); should
    it not, a level past T raises SizeLimitError rather than wrap.
    """
    _check_chain_k(k)
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    base = make_base_set(k)
    # The field of 2 in the layout for power 2**t - 1 is t bits or wider.
    t = min(n_max, 63)
    while (packed := _base_keys(base, 2**t - 1)) is None:
        t -= 1
    kb, maxima = packed
    w = max(maxima[0].bit_length(), 1)
    step = transfer_matrix(k)
    square = squaring_matrix(k)
    failures: list[TransferFailure] = []
    vectors: list[StructVec] = []

    current = np.zeros(1, dtype=np.int64)  # {1}
    for n in range(n_max + 1):
        odd, runs = _key_runs(current, w, k)
        _check_runs(current, odd, runs, w, maxima, k, n, failures)
        sv = _census(k, runs)
        if vectors:
            _check_vector(k, n, "vector", step.apply(vectors[-1].vector()), sv, failures)
        vectors.append(sv)
        if n < n_max:
            if n == t:
                _check_pairs(len(current), len(kb))
                raise SizeLimitError(f"power {2 ** (n + 1) - 1} of k={k} needs keys wider than 63 bits")
            squared = current * 2
            actual = _census(k, _key_runs(squared, w, k)[1])
            _check_vector(k, n, "square", square.apply(sv.vector()), actual, failures)
            current = _times_keys(squared, kb)
            _check_cap(len(current), max_elements)
    return TransferReport(k, n_max, tuple(vectors), tuple(failures))
