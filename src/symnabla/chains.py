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

One numpy pass over a set's exponent rows (``_chain_runs``) finds every
run as arrays of group, starting exponent of 2 and length.  The census
(``census``) and all of ``verify_transfer``'s checks are computed from
those arrays; ``Chain`` objects are built only by ``decompose``, for
listing chains.

Matrix arithmetic in this module is exact: plain Python integers in
nested tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import mul
from typing import Iterable, Literal, Sequence

import numpy as np

from .core import DEFAULT_ELEMENT_CAP, ElementVec, SymSet, _check_cap, make_base_set, sym_prod, sym_square
from .errors import DomainError

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
_RunArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def _split(group: np.ndarray, e2: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each maximal run of neighbours in one
    group whose exponent of 2 rises by step."""
    brk = np.ones(len(e2), dtype=bool)
    np.not_equal(group[1:], group[:-1], out=brk[1:])
    brk[1:] |= (e2[1:] - e2[:-1]) != step
    starts = np.flatnonzero(brk)
    return starts, np.diff(starts, append=len(e2))


def _chain_runs(s: SymSet) -> tuple[np.ndarray, dict[ChainKind, _RunArrays]]:
    """Split a power set into runs: A phase first, then B, then C.

    A set's canonical row order (last column most significant) is
    already the sort by (odd part, exponent of 2), so a group is a block
    of rows with equal odd part.  Returns the odd-part rows of the
    groups and, per kind, the run arrays; kind B is empty below k = 8.
    """
    _check_chain_k(s.k)
    if len(s) == 0:
        raise DomainError("cannot decompose the empty set")
    exps = s.exponents
    rest = exps[:, 1:]
    new_group = np.ones(len(exps), dtype=bool)
    np.any(rest[1:] != rest[:-1], axis=1, out=new_group[1:])
    group = np.cumsum(new_group) - 1
    e2 = exps[:, 0]
    empty = np.empty(0, dtype=np.int64)
    runs: dict[ChainKind, _RunArrays] = {"B": (empty, empty, empty)}
    for kind in ("A", "B") if s.k == 8 else ("A",):
        starts, lengths = _split(group, e2, _STEP_RATIO[kind])
        chain = lengths >= 2
        runs[kind] = (group[starts[chain]], e2[starts[chain]], lengths[chain])
        left = np.repeat(~chain, lengths)
        group, e2 = group[left], e2[left]
    runs["C"] = (group, e2, np.ones(len(e2), dtype=np.int64))
    return rest[new_group], runs


def _census(k: int, runs: dict[ChainKind, _RunArrays]) -> StructVec:
    a, b = runs["A"][2], runs["B"][2]
    return StructVec(k, int(a.sum()), len(a), int(b.sum()), len(b), len(runs["C"][2]))


def census(s: SymSet) -> StructVec:
    """Chain census of a power set, counted from the run arrays without
    building a single Chain; equals structural_vector(decompose(s), k)."""
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
    """Census of a chain list; StructVec rejects B chains outside k = 8."""
    _check_chain_k(k)
    b = c = u = v = r = 0
    for ch in chains:
        if ch.kind == "A":
            b += ch.length
            c += 1
        elif ch.kind == "B":
            u += ch.length
            v += 1
        else:
            r += 1
    return StructVec(k, b, c, u, v, r)


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


def _members(odd: np.ndarray, runs: dict[ChainKind, _RunArrays]) -> tuple[np.ndarray, np.ndarray]:
    """Every member of every run as an exponent row, sorted by (group,
    exponent of 2), with the id of its run; ids count A, then B, then C."""
    group, start, length = (np.concatenate([runs[kind][i] for kind in _KINDS]) for i in range(3))
    step = np.concatenate(
        [np.full(len(runs[kind][0]), _STEP_RATIO[kind], dtype=np.int64) for kind in _KINDS]
    )
    run_id = np.repeat(np.arange(len(length)), length)
    offset = np.arange(len(run_id)) - np.repeat(np.cumsum(length) - length, length)
    e2 = start[run_id] + step[run_id] * offset
    g = group[run_id]
    order = np.lexsort((e2, g))
    rows = np.empty((len(order), odd.shape[1] + 1), dtype=np.int64)
    rows[:, 0] = e2[order]
    rows[:, 1:] = odd[g[order]]
    return rows, run_id[order]


def _check_partition(s: SymSet, rows: np.ndarray, k: int, n: int, failures: list) -> None:
    # The set's rows are distinct and in canonical order, which is the
    # order of the members: equal row for row means each is covered once.
    if not np.array_equal(rows, s.exponents):
        distinct = len(np.unique(rows, axis=0))
        failures.append(
            TransferFailure(k, n, "partition", None, f"{len(s)} elements covered once", f"{len(rows)} chain slots, {distinct} distinct")
        )


def _check_gaps(
    s: SymSet,
    odd: np.ndarray,
    runs: dict[ChainKind, _RunArrays],
    rows: np.ndarray,
    run_id: np.ndarray,
    k: int,
    n: int,
    failures: list,
) -> None:
    # Distinct chains may not concatenate: members with the same odd part
    # must be at least min_gap apart in the exponent of 2.
    min_gap = 3 if k == 8 else 2
    gap = rows[1:, 0] - rows[:-1, 0]
    close = (
        np.all(rows[1:, 1:] == rows[:-1, 1:], axis=1)
        & (run_id[1:] != run_id[:-1])
        & (gap < min_gap)
    )
    if not close.any():
        return
    table = [(kind, g, e) for kind in _KINDS for g, e in zip(runs[kind][0].tolist(), runs[kind][1].tolist())]

    def describe(rid: int) -> str:
        kind, g, e = table[rid]
        base = ElementVec(s.basis, (e,) + tuple(odd[g].tolist()))
        return f"{kind} base={base.value}"

    for i in np.flatnonzero(close).tolist():
        failures.append(
            TransferFailure(
                k,
                n,
                "chain_gap",
                None,
                f"gap >= {min_gap} between chains {describe(run_id[i])} and {describe(run_id[i + 1])}",
                f"gap {gap[i]}",
            )
        )


def _check_vector(k: int, n: int, check: str, predicted: Sequence[int], actual: StructVec, failures: list) -> None:
    for name, exp_c, act_c in zip(census_components(k), predicted, actual.vector()):
        if exp_c != act_c:
            failures.append(TransferFailure(k, n, check, name, exp_c, act_c))


def verify_transfer(
    k: int, n_max: int, *, max_elements: int = DEFAULT_ELEMENT_CAP
) -> TransferReport:
    """Check the transfer step against brute-force chain censuses.

    Builds the powers at indices 1, 3, 7, ..., 2**n_max - 1 with the set
    oracle, splits each into runs, and for every n < n_max asserts that
    the hardcoded step matrix maps the census at index 2**n - 1 to the
    one at 2**(n+1) - 1 (check "vector"), and that the squaring matrix
    maps it to the census of that power's square (check "square", at
    level n).  Partition and non-concatenation of the chains are checked
    at every level.  Everything is computed from run arrays; no Chain is
    built.  All findings are collected into the report rather than
    raised.
    """
    _check_chain_k(k)
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    base = make_base_set(k)
    step = transfer_matrix(k)
    square = squaring_matrix(k)
    failures: list[TransferFailure] = []
    vectors: list[StructVec] = []

    current = SymSet.from_values(k, [1])
    for n in range(n_max + 1):
        odd, runs = _chain_runs(current)
        rows, run_id = _members(odd, runs)
        _check_partition(current, rows, k, n, failures)
        _check_gaps(current, odd, runs, rows, run_id, k, n, failures)
        sv = _census(k, runs)
        if vectors:
            _check_vector(k, n, "vector", step.apply(vectors[-1].vector()), sv, failures)
        vectors.append(sv)
        if n < n_max:
            squared = sym_square(current)
            _check_vector(k, n, "square", square.apply(sv.vector()), census(squared), failures)
            current = sym_prod(squared, base)
            _check_cap(len(current), max_elements)
    return TransferReport(k, n_max, tuple(vectors), tuple(failures))
