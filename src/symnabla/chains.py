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

Matrix arithmetic in this module is exact: plain Python integers in
nested tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def member_exponents(self) -> list[tuple[int, ...]]:
        """Exponent rows of every member, smallest first."""
        step = _STEP_RATIO[self.kind]
        e0 = self.base.exponents
        return [
            (e0[0] + j * step,) + e0[1:] for j in range(self.length)
        ] if step else [e0]

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


def _runs(values: Sequence[int], step: int) -> list[list[int]]:
    """Maximal runs of the given step inside an ascending sequence."""
    runs: list[list[int]] = []
    for v in values:
        if runs and v == runs[-1][-1] + step:
            runs[-1].append(v)
        else:
            runs.append([v])
    return runs


def decompose(s: SymSet) -> list[Chain]:
    """Split a power set into chains, A phase first, then B, then C.

    Deterministic output: sorted by (kind, base value).  The empty set
    has no chain structure and is rejected.
    """
    _check_chain_k(s.k)
    if len(s) == 0:
        raise DomainError("cannot decompose the empty set")
    exps = s.exponents
    basis = s.basis
    e2 = exps[:, 0]
    rest = exps[:, 1:]
    order = np.lexsort((e2,) + tuple(rest.T))
    e2s = e2[order]
    rests = rest[order]
    # group boundaries where the odd part changes
    if len(order) > 1:
        change = np.any(rests[1:] != rests[:-1], axis=1)
        starts = np.concatenate(([0], np.flatnonzero(change) + 1, [len(order)]))
    else:
        starts = np.array([0, len(order)])

    chains: list[Chain] = []
    use_b_phase = s.k == 8
    for gi in range(len(starts) - 1):
        lo, hi = int(starts[gi]), int(starts[gi + 1])
        odd_part = tuple(int(x) for x in rests[lo])
        group = [int(x) for x in e2s[lo:hi]]

        def emit(kind: ChainKind, run: list[int]) -> None:
            base = ElementVec(basis, (run[0],) + odd_part)
            chains.append(Chain(kind, base, len(run)))

        leftover: list[int] = []
        for run in _runs(group, 1):
            if len(run) >= 2:
                emit("A", run)
            else:
                leftover.extend(run)
        if use_b_phase:
            singles: list[int] = []
            for run in _runs(leftover, 2):
                if len(run) >= 2:
                    emit("B", run)
                else:
                    singles.extend(run)
            leftover = singles
        for v in leftover:
            emit("C", [v])

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
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def vec_mat(u: Sequence[int], a) -> tuple[int, ...]:
    return tuple(sum(u[i] * a[i][j] for i in range(len(u))) for j in range(len(a[0])))


def vec_outer(col: Sequence[int], row: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(x * y for y in row) for x in col)


def mat_pow(a, e: int) -> tuple[tuple[int, ...], ...]:
    result = mat_identity(len(a))
    for _ in range(e):
        result = mat_mul(result, a)
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
    check: Literal["vector", "partition", "chain_gap"]
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


def _check_partition(s: SymSet, chains: list[Chain], k: int, n: int, failures: list) -> None:
    rows: list[tuple[int, ...]] = []
    for ch in chains:
        rows.extend(ch.member_exponents())
    arr = np.asarray(rows, dtype=np.int64)
    uniq = np.unique(arr, axis=0)
    ok = len(uniq) == len(rows) == len(s) and np.array_equal(
        uniq, np.unique(s.exponents, axis=0)
    )
    if not ok:
        failures.append(
            TransferFailure(k, n, "partition", None, f"{len(s)} elements covered once", f"{len(rows)} chain slots, {len(uniq)} distinct")
        )


def _check_gaps(chains: list[Chain], k: int, n: int, failures: list) -> None:
    # Distinct chains may not concatenate: members with the same odd part
    # must be at least min_gap apart in the exponent of 2.
    min_gap = 3 if k == 8 else 2
    by_odd: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for cid, ch in enumerate(chains):
        e0 = ch.base.exponents
        step = _STEP_RATIO[ch.kind] or 1
        for j in range(ch.length):
            by_odd.setdefault(e0[1:], []).append((e0[0] + j * step, cid))
    for odd, members in by_odd.items():
        members.sort()
        for (g1, c1), (g2, c2) in zip(members, members[1:]):
            if c1 != c2 and g2 - g1 < min_gap:
                failures.append(
                    TransferFailure(
                        k,
                        n,
                        "chain_gap",
                        None,
                        f"gap >= {min_gap} between chains {chains[c1].kind} base={chains[c1].base_value} and {chains[c2].kind} base={chains[c2].base_value}",
                        f"gap {g2 - g1}",
                    )
                )


def verify_transfer(
    k: int, n_max: int, *, max_elements: int = DEFAULT_ELEMENT_CAP
) -> TransferReport:
    """Check the transfer step against brute-force chain censuses.

    Builds the powers at indices 1, 3, 7, ..., 2**n_max - 1 with the set
    oracle, decomposes each, and for every n < n_max asserts that the
    hardcoded step matrix maps the census at index 2**n - 1 to the one
    at 2**(n+1) - 1.  Partition and non-concatenation of the chains are
    checked at every level.  All findings are collected into the report
    rather than raised.
    """
    _check_chain_k(k)
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    base = make_base_set(k)
    step = transfer_matrix(k)
    failures: list[TransferFailure] = []
    vectors: list[StructVec] = []

    current = SymSet.from_values(k, [1])
    prev_vec: tuple[int, ...] | None = None
    for n in range(n_max + 1):
        chains = decompose(current)
        _check_partition(current, chains, k, n, failures)
        _check_gaps(chains, k, n, failures)
        sv = structural_vector(chains, k)
        vectors.append(sv)
        vec = sv.vector()
        if prev_vec is not None:
            predicted = step.apply(prev_vec)
            for name, exp_c, act_c in zip(census_components(k), predicted, vec):
                if exp_c != act_c:
                    failures.append(TransferFailure(k, n, "vector", name, exp_c, act_c))
        prev_vec = vec
        if n < n_max:
            current = sym_prod(sym_square(current), base)
            _check_cap(current, max_elements)
    return TransferReport(k, n_max, tuple(vectors), tuple(failures))
