"""Exact arithmetic in the symmetric-difference set ring.

This module computes with finite sets of positive integers whose prime
factors lie in a fixed basis of small primes.  A set element is stored
as a vector of prime exponents, so over the basis (2, 3, 5) the element
12 is the row (2, 1, 0).  Two operations turn these sets into a
commutative ring:

* symmetric difference (``sym_diff``, the ring addition): elements
  present in both operands cancel;
* symmetric product (``sym_prod``, the ring multiplication): every
  pairwise integer product c*d is toggled into an accumulator, so a
  product reached an even number of times vanishes.

An integer product is an exponent-vector sum, so the real work is
multiplicity-parity bookkeeping over pairwise vector sums.  One scan
does it everywhere: sort, mark where runs of equal entries start
(``_run_edges``) and keep the first entry of each run, or of each odd
run (``_run_starts``).  Rows are packed into 64-bit keys, one bit field
per prime sized to the operation at hand; when no key repeats, the
sorted keys are the result as they stand.  One kernel,
``_toggle_sums``, does this for every packed product, one output key
range at a time past ``_CHUNK_KEYS`` sums, so its buffers stay near
that size.  A factor of two consecutive keys, as Q_2 = {1, 2} is in
every layout, needs no sort: its sums come out sorted, and only
consecutive keys of the other factor cancel, in pairs.  Rows whose
fields would outgrow 63 bits go through the same scan in canonical row
order, block by block: identical results, only slower.

The object of interest downstream is the n-th symmetric power of the
base set {1, ..., k}, whose cardinality as a function of n the chain and
recurrence modules reproduce without materialising any sets.  The
exponent rows of 1, ..., k and their column maxima are built once per k
and kept read-only; ``make_base_set`` returns one shared SymSet per k,
and the sets {1}, {c} and {1, ..., r} the power operations start from
are slices of the same rows.  Each k has one packed key layout, built
once (``_packed_base``): each field holds 2**T - 1 times the base
set's largest exponent in its column, T the largest level that fits
63 bits, which bounds that exponent in every power 0..2**T - 1.  The
power operations (``sym_power``, ``brute_card``,
``power_card_sequence``) take their layout from ``_layout``.  In the
packed one the powers stay sorted int64 keys from start to end:
squaring doubles every key, multiplying goes through the same kernel
as ``sym_prod``, and only ``sym_power`` unpacks, once, at the end.  A
power past 2**T - 1 (k = 64 at n = 8, say) takes the wide layout, which
holds ``SymSet`` values instead, squared by ``sym_square`` and
multiplied by ``sym_prod``.  ``_layout`` is the one place that chooses,
and each power operation runs one body in either layout.  Power sets
grow fast, so the power operations take an element cap and raise
SizeLimitError instead of exhausting memory.

The dense sweep ``power_card_sequence`` uses the ring's characteristic
2 twice.  With H = {1, ..., k} and S = H**m, H**(2m) is S with every
element squared, so a(2m) = |S|.  And H**(2m+1) is the sum over the
square-free c of c * (S * Q_r)**2, with Q_r = {1, ..., r} and
r = isqrt(k // c); the classes never cancel one another, so
a(2m+1) = sum over c of |S * Q_r|, at k = 8 equal to
4|S| + 2|S * {1, 2}|.  The sweep builds only the powers up to limit/2,
each from its half: H**(2m) by doubling S, H**(2m+1) by one sort of
the class products it already formed to count a(2m+1), so it never
multiplies by the base set.  It walks them depth first, odd child
first.
``brute_card`` counts one index the same way: it builds S = H**h for
n = (2h + 1) * 2**j by square-and-multiply and counts
a(n) = a(2h + 1) from the sizes of the class products of S.  The two
share that count (``_class_count``).  On packed keys a class product
that only counts is sized, not formed, wherever the factor is Q_2
(``_times_size``).  The {c} and Q_r of both are built once per k
(``_class_factors``).  ``brute_card`` reads the powers H**1 .. H**7
of a packed layout from a table built once per k (``_small_power``).
``sym_power`` stays plain square-and-multiply with the whole base set,
the oracle's independent cross-check, and uses no table.

All operations are pure: ``SymSet`` is immutable and every operation
returns a new instance.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import inf, isqrt
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, SizeLimitError

#: Largest supported k for make_base_set.  18 primes fit below this cap,
#: which is far beyond what the fast methods cover (k <= 8) and enough
#: for brute-force experiments with general k.
MAX_K = 64

#: Default ceiling on the number of elements a symmetric power may hold.
DEFAULT_ELEMENT_CAP = 1 << 24

# A sym_prod accumulates |C|*|D| candidate keys before cancellation; the
# pair count is refused above this bound so a doomed product fails fast
# instead of thrashing memory.
_PAIR_GUARD = 1 << 28

# Most sums _toggle_sums forms at once: a product of more pairs is cut
# into output key slices of about this many sums (256 MiB of int64), and
# the wide-row fallback of sym_prod reduces blocks of about a quarter as
# many exponents.
_CHUNK_KEYS = 1 << 25

# brute_card reads the powers H**1 .. H**7 of a packed layout from a
# table (``_small_power``) that holds those below this bound.
_TABLED = 8


@lru_cache(maxsize=None)
def _basis_for(k: int) -> tuple[int, ...]:
    """Primes <= k, the exponent-vector basis for SymSets at this k."""
    if not 1 <= k <= MAX_K:
        raise DomainError(f"k must be in 1..{MAX_K}, got {k}")
    sieve = bytearray([1]) * (k + 1)
    primes = []
    for p in range(2, k + 1):
        if sieve[p]:
            primes.append(p)
            for q in range(p * p, k + 1, p):
                sieve[q] = 0
    return tuple(primes)


def _factor(value: int, basis: tuple[int, ...]) -> list[int]:
    """Exponent vector of value over basis; DomainError if not smooth."""
    if value < 1:
        raise DomainError(f"set elements must be positive integers, got {value}")
    exps = []
    for p in basis:
        e = 0
        while value % p == 0:
            value //= p
            e += 1
        exps.append(e)
    if value != 1:
        raise DomainError(
            f"element has a prime factor outside the basis {basis}: residue {value}"
        )
    return exps


def _canonical(exps: np.ndarray) -> np.ndarray:
    """Rows sorted lexicographically, last column most significant.

    This matches ascending order of the packed keys no matter which
    field widths are in effect, so both reduction paths agree on the
    storage order.
    """
    if exps.shape[0] <= 1 or exps.shape[1] == 0:
        return exps
    return exps[np.lexsort(exps.T)]


def _field_shifts(maxima: Iterable[int]) -> tuple[np.ndarray, int]:
    """Bit offsets packing each column above the previous ones.

    Returns (shifts, total_bits); packing is valid in int64 only when
    total_bits <= 63.
    """
    shifts = []
    pos = 0
    for m in maxima:
        shifts.append(pos)
        pos += max(int(m).bit_length(), 1)
    return np.asarray(shifts, dtype=np.int64), pos


def _pack(exps: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    return (exps << shifts).sum(axis=1, dtype=np.int64)


def _unpack(keys: np.ndarray, maxima: Iterable[int]) -> np.ndarray:
    shifts, _ = _field_shifts(maxima)
    cols = []
    for j, m in enumerate(maxima):
        width = max(int(m).bit_length(), 1)
        cols.append((keys >> int(shifts[j])) & ((1 << width) - 1))
    if not cols:
        return np.empty((keys.size, 0), dtype=np.int64)
    return np.stack(cols, axis=1)


def _run_edges(a: np.ndarray) -> np.ndarray:
    """Run-boundary mask of sorted keys or canonical rows: True where an
    entry starts a run (a row does when any column differs from the row
    before, so rows without columns are one run), plus a True sentinel
    past each end."""
    edge = np.empty(len(a) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    if a.ndim == 1:
        np.not_equal(a[1:], a[:-1], out=edge[1:-1])
    else:
        np.any(a[1:] != a[:-1], axis=1, out=edge[1:-1])
    return edge


def _run_starts(edge: np.ndarray, odd: bool = False) -> np.ndarray:
    """First index of every run of a ``_run_edges`` mask, or of every odd
    run: its bounds differ in the low bit, which a uint8 cast keeps."""
    bounds = np.flatnonzero(edge)
    if not odd:
        return bounds[:-1]
    low = bounds.astype(np.uint8)
    return bounds[:-1][((low[1:] ^ low[:-1]) & 1).view(bool)]


def _parity_sorted(keys: np.ndarray) -> np.ndarray:
    """Keys occurring an odd number of times, assuming sorted input.

    When no two neighbours are equal every key is its own run and the
    keys come back as they are: the caller's array itself, which is
    safe because every caller passes a fresh buffer.  In sym_power at
    k <= 15 every product that follows a 0-bit of n is such a case: it
    multiplies fourth powers x**4 by h <= k, and x**4 * h = y**4 * h'
    needs h / h' to be a fourth power.  At k = 16 some cancel
    (16 / 1 = 2**4), so the mask is always checked rather than the case
    assumed.
    """
    edge = _run_edges(keys)
    if edge.all():
        return keys
    return keys[_run_starts(edge, odd=True)]


def _joins(ka: np.ndarray) -> int:
    """How many i have ka[i] + 1 == ka[i + 1], counted _CHUNK_KEYS // 2
    keys at a time, so that its temporaries stay within the kernel's
    buffer size."""
    step = max(1, _CHUNK_KEYS // 2)
    joins = 0
    for lo in range(0, ka.size - 1, step):
        chunk = ka[lo : lo + step + 1]  # one key of overlap, so no pair is missed
        joins += int(np.count_nonzero(chunk[1:] - chunk[:-1] == 1))
    return joins


def _pair_sums(ka: np.ndarray, x) -> np.ndarray:
    """_toggle_sums(ka, [x, x + 1]) for strictly increasing ka, without a sort.

    ka[i] + x < ka[i] + x + 1 <= ka[i + 1] + x, so the sums written key
    by key are already sorted, and every run has one or two entries:
    only ka[i] + x + 1 == ka[i + 1] + x repeats, where ka[i] and
    ka[i + 1] are consecutive.  The survivors are the runs of one, an
    entry that starts a run and whose successor starts one too.  Past
    _CHUNK_KEYS sums ka is cut into slices of _CHUNK_KEYS // 2 keys, and
    the keys on either side of a cut set the slice's end marks, so a
    consecutive pair across the cut still cancels.
    """
    step = max(1, _CHUNK_KEYS // 2)
    parts = []
    for lo in range(0, max(ka.size, 1), step):  # an empty ka makes one empty slice
        part = ka[lo : lo + step]
        sums = np.empty((part.size, 2), dtype=np.int64)
        np.add(part, x, out=sums[:, 0])
        np.add(sums[:, 0], 1, out=sums[:, 1])
        sums = sums.ravel()
        edge = _run_edges(sums)
        edge[0] = lo == 0 or ka[lo - 1] + 1 != part[0]
        edge[-1] = lo + step >= ka.size or part[-1] + 1 != ka[lo + step]
        parts.append(sums[edge[:-1] & edge[1:]])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _toggle_sums(ka: np.ndarray, kb: np.ndarray) -> np.ndarray:
    """Sorted keys hit an odd number of times by the sums ka[i] + kb[j].

    The one packed product kernel.  ka and kb must be strictly
    increasing, as the keys of a set are, and every sum must fit the
    packed fields.  When kb is a pair {x, x + 1}, as Q_2 = {1, 2} is in
    every layout, ``_pair_sums`` writes the sorted sums directly and
    keeps the unrepeated ones: no sort and no run bounds.  Otherwise
    copy j of ka shifted by kb[j] is a sorted run, and a stable
    (merge-based) sort joins such runs about twice as fast as the
    default quicksort.

    Up to _CHUNK_KEYS sums are formed, sorted and reduced at once.  Past
    that, with ka the longer operand, the output key range is cut into
    s = ceil(pairs / _CHUNK_KEYS) slices at quantiles of a sample of the
    sums: every step-th key of each copy, step = len(ka) // 8s.  Equal
    quantiles merge, so there may be fewer slices.  A slice gathers its
    sums from every copy with searchsorted on ka, at the left side of
    each cut, so each sum lands in exactly one slice and equal sums
    share one.  Each slice is sorted and reduced on its own; the slices
    are disjoint and ascending, so concatenating their survivors gives
    the sorted result.  A copy holds fewer than step keys more than its
    sample points in a slice, so a slice holds about pairs / s sums
    plus an eighth, and more only where one sum repeats that often.
    """
    if kb.size == 2 and kb[1] - kb[0] == 1:
        return _pair_sums(ka, kb[0])
    pairs = ka.size * kb.size
    if pairs <= _CHUNK_KEYS:
        out = np.add.outer(kb, ka).ravel()
        out.sort(kind="stable")
        return _parity_sorted(out)
    if kb.size > ka.size:
        ka, kb = kb, ka
    slices = -(-pairs // _CHUNK_KEYS)
    sample = np.add.outer(kb, ka[:: max(1, ka.size // (8 * slices))]).ravel()
    sample.sort()
    cuts = np.unique(sample[sample.size * np.arange(1, slices) // slices])
    edges = np.searchsorted(ka, cuts[:, None] - kb)
    edges = np.vstack([np.zeros_like(kb), edges, np.full_like(kb, ka.size)])
    parts = []
    for starts, ends in zip(edges[:-1], edges[1:]):
        out = np.concatenate([ka[lo:hi] for lo, hi in zip(starts.tolist(), ends.tolist())])
        out += np.repeat(kb, ends - starts)
        out.sort(kind="stable")
        parts.append(_parity_sorted(out))
    return np.concatenate(parts)


def _parity_rows(exps: np.ndarray) -> np.ndarray:
    """Rows occurring an odd number of times, in canonical order."""
    rows = _canonical(exps)
    return rows[_run_starts(_run_edges(rows), odd=True)]


@dataclass(frozen=True)
class ElementVec:
    """One set element as its exponent vector over a prime basis."""

    basis: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.basis) != len(self.exponents):
            raise DomainError("exponent vector length must match basis length")
        if any(e < 0 for e in self.exponents):
            raise DomainError("exponents must be non-negative")

    @classmethod
    def from_value(cls, k: int, value: int) -> "ElementVec":
        basis = _basis_for(k)
        return cls(basis, tuple(_factor(value, basis)))

    @property
    def value(self) -> int:
        """The encoded integer."""
        v = 1
        for p, e in zip(self.basis, self.exponents):
            v *= p**e
        return v

    def times(self, other: "ElementVec") -> "ElementVec":
        if self.basis != other.basis:
            raise DomainError("cannot multiply elements over different bases")
        return ElementVec(
            self.basis, tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def squared(self) -> "ElementVec":
        return ElementVec(self.basis, tuple(2 * e for e in self.exponents))


class SymSet:
    """Immutable set of smooth positive integers in exponent encoding.

    Construct via :meth:`from_values`, :meth:`empty` or
    :func:`make_base_set`; the raw constructor accepts a 2-D array of
    exponent rows and normalises it (duplicates collapse, rows are
    stored in canonical order).
    """

    __slots__ = ("_k", "_exps")

    def __init__(self, k: int, exponent_rows, *, _internal: bool = False):
        basis = _basis_for(int(k))
        self._k = int(k)
        if _internal:
            arr = exponent_rows
        else:
            arr = np.asarray(exponent_rows, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != len(basis):
                raise DomainError(
                    f"expected an (m, {len(basis)}) exponent array for k={k}"
                )
            if arr.size and (arr < 0).any():
                raise DomainError("exponents must be non-negative")
            arr = _canonical(arr)
            arr = arr[_run_starts(_run_edges(arr))]
        self._exps = arr
        self._exps.setflags(write=False)

    @classmethod
    def from_values(cls, k: int, values: Iterable[int]) -> "SymSet":
        basis = _basis_for(int(k))
        vals = sorted({int(v) for v in values})
        rows = np.asarray(
            [_factor(v, basis) for v in vals], dtype=np.int64
        ).reshape(len(vals), len(basis))
        return cls(k, rows)

    @classmethod
    def empty(cls, k: int) -> "SymSet":
        basis = _basis_for(int(k))
        return cls(k, np.empty((0, len(basis)), dtype=np.int64))

    @property
    def k(self) -> int:
        return self._k

    @property
    def basis(self) -> tuple[int, ...]:
        return _basis_for(self._k)

    @property
    def exponents(self) -> np.ndarray:
        """Read-only (m, d) int64 array of exponent rows, canonical order."""
        return self._exps

    def values(self) -> list[int]:
        """Elements as plain integers, ascending."""
        basis = self.basis
        out = []
        for row in self._exps:
            v = 1
            for p, e in zip(basis, row):
                v *= p ** int(e)
            out.append(v)
        out.sort()
        return out

    def __len__(self) -> int:
        return self._exps.shape[0]

    def __iter__(self) -> Iterator[ElementVec]:
        basis = self.basis
        for row in self._exps:
            yield ElementVec(basis, tuple(int(e) for e in row))

    def __contains__(self, item) -> bool:
        if isinstance(item, ElementVec):
            if item.basis != self.basis:
                return False
            row = np.asarray(item.exponents, dtype=np.int64)
        else:
            try:
                row = np.asarray(_factor(int(item), self.basis), dtype=np.int64)
            except DomainError:
                return False
        return bool(np.all(self._exps == row, axis=1).any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymSet):
            return NotImplemented
        return self._k == other._k and np.array_equal(self._exps, other._exps)

    def __hash__(self) -> int:
        return hash((self._k, self._exps.tobytes()))

    def __xor__(self, other: "SymSet") -> "SymSet":
        return sym_diff(self, other)

    def __mul__(self, other: "SymSet") -> "SymSet":
        if not isinstance(other, SymSet):
            return NotImplemented
        return sym_prod(self, other)

    def __repr__(self) -> str:
        if len(self) <= 8:
            return f"SymSet(k={self._k}, {{{', '.join(map(str, self.values()))}}})"
        return f"SymSet(k={self._k}, {len(self)} elements)"


def _check_same_ring(a: SymSet, b: SymSet) -> None:
    if a.k != b.k:
        raise DomainError(f"operands live over different rings: k={a.k} vs k={b.k}")


@lru_cache(maxsize=None)
def _base_table(k: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Exponent rows of 1, ..., k in value order, and their column maxima.

    Row i - 1 is the exponent vector of i, so rows[:r] is {1, ..., r}
    and rows[c - 1 : c] is {c}.  Built once per k and read-only.
    """
    basis = _basis_for(k)
    rows = np.asarray([_factor(v, basis) for v in range(1, k + 1)], dtype=np.int64)
    rows = rows.reshape(k, len(basis))
    rows.setflags(write=False)
    return rows, tuple(int(m) for m in rows.max(axis=0))


@lru_cache(maxsize=None)
def make_base_set(k: int) -> SymSet:
    """The set {1, ..., k}, the generator whose symmetric powers we study.

    k is capped at MAX_K (64).  The set is built once per k: every call
    returns the same immutable SymSet, whose rows are read-only.
    """
    return SymSet(k, _canonical(_base_table(k)[0]), _internal=True)


def sym_diff(a: SymSet, b: SymSet) -> SymSet:
    """Symmetric difference: elements in exactly one operand."""
    _check_same_ring(a, b)
    merged = np.concatenate([a.exponents, b.exponents])
    return SymSet(a.k, _parity_rows(merged), _internal=True)


def sym_prod(a: SymSet, b: SymSet) -> SymSet:
    """Symmetric product: pairwise products with even-count cancellation.

    When the column sums pack into 63 bits, both operands are packed
    with those fields and multiplied by _toggle_sums, whatever their
    sizes; otherwise raw rows are reduced block by block.

    The annihilator rule holds: S * empty == empty.  Raises
    SizeLimitError when a column's largest exponents sum to 2**63 or
    more, since the summed rows would not fit in int64.
    """
    _check_same_ring(a, b)
    if len(a) == 0 or len(b) == 0:
        return SymSet.empty(a.k)
    ea, eb = a.exponents, b.exponents
    if eb.shape[0] > ea.shape[0]:
        ea, eb = eb, ea
    m, p = ea.shape[0], eb.shape[0]
    _check_pairs(m, p)
    maxima = ea.max(axis=0) + eb.max(axis=0)
    if (maxima < 0).any():  # a column sum reached 2**63 and wrapped
        top = max(int(x) + int(y) for x, y in zip(ea.max(axis=0), eb.max(axis=0)))
        raise SizeLimitError(
            f"product would reach an exponent of {top}; summed exponents "
            "must stay below 2**63 so that product rows fit in int64"
        )
    shifts, total = _field_shifts(maxima)
    if total <= 63:
        # canonical row order makes both key arrays ascending
        keys = _toggle_sums(_pack(ea, shifts), _pack(eb, shifts))
        return SymSet(a.k, _unpack(keys, maxima), _internal=True)
    # Wide-exponent fallback: reduce raw rows block by block, each block
    # about _CHUNK_KEYS // 4 exponents whatever the column count.  Parity
    # is additive mod 2, so reducing partial accumulations is sound.  The
    # reduced blocks merge like a binary counter: after block t, pending
    # parts that cover as many blocks as the newest merge into it, so a
    # row is re-merged about log2(blocks) times, not once per block.
    d = ea.shape[1]
    rows_per = max(1, _CHUNK_KEYS // (4 * p * d))
    pending = []
    for t, i0 in enumerate(range(0, m, rows_per), 1):
        part = _parity_rows((ea[i0 : i0 + rows_per, None, :] + eb[None, :, :]).reshape(-1, d))
        for _ in range((t & -t).bit_length() - 1):
            part = _parity_rows(np.concatenate([pending.pop(), part]))
        pending.append(part)
    acc = pending[0] if len(pending) == 1 else _parity_rows(np.concatenate(pending))
    return SymSet(a.k, acc, _internal=True)


def sym_square(s: SymSet) -> SymSet:
    """Symmetric product of a set with itself.

    Cross terms pair up and cancel, so only the squares survive; the
    result has exactly the same cardinality, with every exponent
    doubled.  Doubling preserves canonical order, so no re-sort is
    needed.

    Raises SizeLimitError when an exponent is 2**62 or more: its double
    would not fit in int64, and a later product could not add to it.
    """
    exps = s.exponents
    if exps.size and int(exps.max()) >= 1 << 62:
        raise SizeLimitError(
            f"squaring would double an exponent of {int(exps.max())}; exponents "
            "must stay below 2**62 so that doubled rows still fit in int64"
        )
    return SymSet(s.k, exps * 2, _internal=True)


def _check_pairs(m: int, p: int) -> None:
    if m * p > _PAIR_GUARD:
        raise SizeLimitError(
            f"symmetric product needs {m * p} pairwise products, over the guard {_PAIR_GUARD}"
        )


def _check_cap(size: int, cap: int) -> None:
    if size > cap:
        raise SizeLimitError(
            f"symmetric power reached {size} elements, over the cap {cap}"
        )


@lru_cache(maxsize=None)
def _packed_base(k: int):
    """The one key layout of k: the largest n whose powers it holds, the
    base set packed in it, and its field maxima.

    Every element of power r is a product of r base elements, so its
    exponent in column j is at most r times the base set's maximum
    there, which _base_table keeps.  The fields are sized for
    n = 2**T - 1, T the largest level whose fields fit 63 bits: 63, 31,
    31, 20, 20, 15, 15, 15 for k = 2..9, 10 at k = 16, 5 at k = 30 and
    3 at k = 64.  They hold every power 0..2**T - 1.  Fields only widen
    with n, and n = 2**T needs them as wide as 2**(T + 1) - 1 does, so
    the n <= 2**T - 1 are exactly those whose own fields fit 63 bits.
    k = 1 has no fields and holds every n.  Built once per k, read-only.
    """
    column = _base_table(k)[1]
    level = max(t for t in range(1, 64) if _field_shifts([(2**t - 1) * m for m in column])[1] <= 63)
    maxima = tuple((2**level - 1) * m for m in column)
    keys = _pack(make_base_set(k).exponents, _field_shifts(maxima)[0])
    keys.setflags(write=False)
    return (2**level - 1 if column else inf), keys, maxima


def _base_keys(base: SymSet, n: int):
    """The base set packed in its key layout, and the field maxima, or
    None when that layout does not hold power n.

    There is one layout per k (``_packed_base``), so every n it holds
    gets the same read-only keys.  None exactly when n > 2**T - 1.
    """
    limit, keys, maxima = _packed_base(base.k)
    return None if n > limit else (keys, maxima)


def _times_keys(keys: np.ndarray, kb: np.ndarray) -> np.ndarray:
    """Product of a packed power by packed keys kb, under sym_prod's guard."""
    _check_pairs(keys.size, kb.size)
    return _toggle_sums(keys, kb)


def _times_size(keys: np.ndarray, kb: np.ndarray) -> int:
    """len(_times_keys(keys, kb)), under the same guard.

    For kb = {x, x + 1} the product is not formed: each pair of
    consecutive keys cancels two of the 2|keys| sums (``_pair_sums``).
    """
    if kb.size == 2 and kb[1] - kb[0] == 1:
        _check_pairs(keys.size, 2)
        return 2 * (keys.size - _joins(keys))
    return _times_keys(keys, kb).size


def _square_and_multiply(base, n: int, square, times, cap: int, powers=None):
    """Power n >= 1 of base, checking the cap after every step.

    With powers, which maps 1 <= j < _TABLED to base**j, a step that ends
    on such a power j reads it instead of forming it, after the pair
    guard check its product by base would make, so it refuses as the
    steps it skips would.
    """
    result = base
    _check_cap(len(result), cap)
    j = 1
    for bit in bin(n)[3:]:
        j = 2 * j + (bit == "1")
        if powers is not None and j < _TABLED:
            if bit == "1":
                _check_pairs(len(result), len(base))
            result = powers(j)
        else:
            result = square(result)
            if bit == "1":
                result = times(result, base)
        _check_cap(len(result), cap)
    return result


# The sets and operations of one key layout, as _layout returns them.
_Layout = namedtuple("_Layout", "base square times size odd_power classes factors maxima")


def _layout(k: int, n: int) -> _Layout:
    """The key layout of the powers 0..n of H = {1, ..., k}.

    When k's one packed layout holds power n (``_base_keys``), every
    power 0..n is sorted int64 keys in it: squaring doubles every key,
    which keeps them sorted, a product goes through ``_times_keys`` and
    is sized by ``_times_size``, and an odd power is one stable sort of
    its doubled class runs.  Otherwise the sets are SymSets, squared by
    sym_square and multiplied and sized by sym_prod.  Every power
    operation takes its layout from here and runs the same steps in
    either.  Only data is kept between calls (the keys, class factors
    and maxima); the steps are the module's functions as they stand at
    the call, and ``_base_keys`` is asked every time.

    The _Layout holds base, H in the layout; square(S), S**2;
    times(S, Q), S * Q; size(S, Q), |S * Q|; odd_power(parts), the
    disjoint union of the c * P**2 for (c, P) in parts; classes and
    factors, those of ``_class_factors``; and maxima, the field maxima
    of the keys, None for SymSets.
    """
    base = make_base_set(k)
    packed = _base_keys(base, n)
    if packed is None:
        return _Layout(base, sym_square, sym_prod, _rows_size, _odd_rows, *_class_factors(k, False), None)
    kb, maxima = packed
    return _Layout(kb, _doubled, _times_keys, _times_size, _odd_keys, *_class_factors(k, True), maxima)


def _doubled(keys: np.ndarray) -> np.ndarray:
    return keys * 2


def _rows_size(s: SymSet, q: SymSet) -> int:
    return len(sym_prod(s, q))


def _odd_keys(parts) -> np.ndarray:
    keys = _doubled_union(parts)
    keys.sort(kind="stable")  # one sorted run per class
    return keys


def _odd_rows(parts) -> SymSet:
    rows = _doubled_union([(c.exponents, p.exponents) for c, p in parts])
    return SymSet(parts[0][0].k, _canonical(rows), _internal=True)


def _class_count(k: int, power, layout: _Layout, parts: dict | None = None) -> int:
    """a(2m + 1) from S = power = H**m in layout: the sum over the square
    classes (r, count) of count * |S * Q_r|, where S * Q_1 is S.

    With a dict parts, the products are formed and kept there by r;
    without, only the sizes of those with r > 1 are taken.
    """
    card = 0
    for r, count in _square_classes(k):
        if parts is None:
            card += count * (layout.size(power, layout.factors[r]) if r > 1 else len(power))
        else:
            parts[r] = layout.times(power, layout.factors[r]) if r > 1 else power
            card += count * len(parts[r])
    return card


def sym_power(k: int, n: int, *, max_elements: int = DEFAULT_ELEMENT_CAP) -> SymSet:
    """n-th symmetric power of {1, ..., k} by square-and-multiply.

    Every step is a square or a product by the whole base set, in the
    layout of ``_layout`` for power n: as sorted int64 keys, unpacked
    once at the end into canonical row order, or as SymSets when n is
    past k's packed layout (for example k = 64, n = 8).  It builds every
    power on its path, none of brute_card's square classes and no table,
    so it is the oracle's independent cross-check.

    sym_power(k, 0) is the ring identity {1}.  Raises SizeLimitError if
    any power on the path, H**0 = {1} included, exceeds max_elements.
    """
    if n < 0:
        raise DomainError(f"power index must be >= 0, got {n}")
    if n == 0:
        _check_cap(1, max_elements)
        return SymSet(k, _base_table(k)[0][:1], _internal=True)
    layout = _layout(k, n)
    power = _square_and_multiply(layout.base, n, layout.square, layout.times, max_elements)
    if layout.maxima is None:
        return power
    return SymSet(k, _unpack(power, layout.maxima), _internal=True)


def brute_card(k: int, n: int, *, max_elements: int = DEFAULT_ELEMENT_CAP) -> int:
    """Cardinality of the n-th symmetric power of {1, ..., k}, from sets.

    This is the ground-truth oracle the structural methods are checked
    against.  It works for any k up to MAX_K, subject to the element
    cap.  It writes n = (2h + 1) * 2**j and builds only S = H**h, by
    square-and-multiply with H = {1, ..., k} as sym_power does, in the
    layout of ``_layout`` for power 2h + 1, packed or not, so an even n
    packs whenever its odd part does.  In the packed layout the powers
    of the first three bits of h are read from the table of H**1 ..
    H**7 (``_small_power``), built once per k.  A square keeps
    the size of a set, so a(n) = a(2h + 1), which the square-class
    split of power_card_sequence counts from S (``_class_count``): the
    sum over the classes of count * |S * Q_r|.  The last product of
    sym_power, H**(2h) * H, and its j squares are never formed, and of
    the class products only the sizes are kept.  On packed keys every
    k >= 4 has Q_2 = {1, 2} among its factors, and |S * Q_2| is read off
    the consecutive keys of S without forming the product.  So n costs
    what its odd part does: brute_card(2, 2**63) builds only H**0 = {1}
    and returns 2.

    The refusals are sym_power's, in its order: the cap on each power up
    to S, the pair guard on |S| * k pairs, the product sym_power forms
    next, then the cap on a(n).  Both are checked at every step, read
    from the table or not, so the refusals do not depend on what the
    table holds.  n <= 0 goes to sym_power itself, which checks the cap
    on H**0 = {1} too.
    """
    if n <= 0:
        return len(sym_power(k, n, max_elements=max_elements))
    h = n // (n & -n) // 2  # the odd part of n is 2h + 1
    layout = _layout(k, 2 * h + 1)
    power = layout.factors[1]  # H**0 = Q_1 = {1}
    if h:
        powers = None if layout.maxima is None else lambda j: _small_power(k, j)
        power = _square_and_multiply(layout.base, h, layout.square, layout.times, max_elements, powers)
    _check_pairs(len(power), k)
    card = _class_count(k, power, layout)
    _check_cap(card, max_elements)
    return card


@lru_cache(maxsize=None)
def _square_free(k: int) -> tuple[tuple[int, int], ...]:
    """(c, r) for every square-free c <= k, c ascending, r = isqrt(k // c).

    Every h <= k is c * q**2 for exactly one square-free c, and the h of
    c's class are those with q in Q_r = {1, ..., r}.
    """
    return tuple(
        (c, isqrt(k // c))
        for c in range(1, k + 1)
        if all(c % (d * d) for d in range(2, isqrt(c) + 1))
    )


@lru_cache(maxsize=None)
def _square_classes(k: int) -> tuple[tuple[int, int], ...]:
    """The square classes of {1, ..., k} as (r, count) pairs, r ascending.

    count is the number of square-free c <= k whose class is c * Q_r
    (``_square_free``).  At k = 8 this is ((1, 4), (2, 2)): the classes
    of 3, 5, 6, 7 and of 1, 2.
    """
    return tuple(sorted(Counter(r for _, r in _square_free(k)).items()))


@lru_cache(maxsize=None)
def _class_factors(k: int, packed: bool):
    """The square-class factors of {1, ..., k}, packed or as SymSets.

    Returns (classes, factors): classes holds ({c}, r) for each (c, r)
    of ``_square_free(k)``, and factors maps each r of
    ``_square_classes(k)`` to Q_r = {1, ..., r}.  Packed, the sets are
    sorted int64 keys in k's one key layout (``_packed_base``); else, for
    the wide layout, they are SymSets.  Built once per k from slices of
    ``_base_table``, and read-only.
    """
    table = _base_table(k)[0]
    shifts = _field_shifts(_packed_base(k)[2])[0]

    def pack(rows):
        if not packed:
            return SymSet(k, rows, _internal=True)
        keys = _pack(rows, shifts)
        keys.setflags(write=False)
        return keys

    classes = tuple((pack(table[c - 1 : c]), r) for c, r in _square_free(k))
    factors = {r: pack(_canonical(table[:r])) for r, _ in _square_classes(k)}
    return classes, factors


@lru_cache(maxsize=None)
def _small_power(k: int, j: int) -> np.ndarray:
    """H**j in k's one key layout, for 1 <= j < _TABLED, read-only.

    H**(j // 2) squared and, for odd j, times H by ``_times_keys``.
    brute_card makes that product's pair guard check itself before it
    reads an entry, so building one never refuses first.  The table
    holds the sum of a(j) over 1 <= j < 8 keys per k: 480 at k = 8,
    about 19 MB over every k.
    """
    kb = _packed_base(k)[1]
    if j == 1:
        return kb
    keys = _small_power(k, j // 2) * 2
    if j % 2:
        keys = _times_keys(keys, kb)
    keys.setflags(write=False)
    return keys


def _doubled_union(parts) -> np.ndarray:
    """2 * p + c for every (c, p) in parts, stacked in one new array.

    Each piece is written in place into one buffer: concatenating
    temporaries instead raised the sweep's peak RSS by about 2 MB at
    (8, 255) once other set work had run in the same process.
    """
    out = np.empty((sum(len(p) for _, p in parts),) + parts[0][1].shape[1:], dtype=np.int64)
    end = 0
    for c, p in parts:
        piece = out[end : end + len(p)]
        np.multiply(p, 2, out=piece)
        piece += c
        end += len(p)
    return out


def check_sequence_cap(k: int, cards: np.ndarray, max_elements: int) -> None:
    """Raise, without building a set, the SizeLimitError that
    power_card_sequence(k, len(cards) - 1, max_elements=max_elements)
    raises first, given its true values cards as an array and a
    max_elements of at least 1.

    The sweep refuses with the first a(n) over the cap in index order,
    and each product it forms multiplies a power already within the cap
    by Q_r, which has r <= k elements.  So while max_elements * k stays
    within the pair guard, its refusal is the first a(n) over the cap.
    Past that this check passes, and the sweep finds its own refusal.
    """
    if max_elements * k > _PAIR_GUARD:
        return
    over = np.flatnonzero(cards > max_elements)
    if over.size:
        _check_cap(int(cards[over[0]]), max_elements)


def power_card_sequence(
    k: int, limit: int, *, max_elements: int = DEFAULT_ELEMENT_CAP
) -> list[int]:
    """Cardinalities of powers 0..limit, building powers up to limit/2 only.

    Equivalent to [brute_card(k, n) for n in range(limit + 1)].  The
    ring has characteristic 2, so H**(2m) is the elementwise square of
    S = H**m and a(2m) = |S|.  Also H**(2m+1) = sum over h of h * S**2;
    writing h = c * q**2 with c square-free, the terms of one class sum
    to c * P_r**2 with P_r = S * Q_r, Q_r = {1, ..., r} and
    r = isqrt(k // c), and different classes never cancel, because c is
    the square-free part of every element c * x**2.  Hence
    a(2m+1) = sum over c of |P_r|, which at k = 8 is 4|S| + 2|S * {1, 2}|.

    No power is stepped by the base set: the products P_r, one per
    distinct r > 1 (P_1 is S), count a(2m+1) and also build the next
    powers.  H**(2m) is S with every key doubled, and H**(2m+1) is the
    disjoint union of the c * P_r**2, one sort of the doubled keys of
    P_r plus the key of c.  The powers m <= limit/2 are walked depth
    first from m = 0 (m <= over/2 once an index over past the cap is
    found), a node's odd child before its even one, so about
    one power per bit length is pending.  The all-ones indices, where
    the set sizes grow fastest, come first (1, 11, 111, ...), so a
    capped sweep meets the first power over the cap after a number of
    nodes that does not grow with the limit.  A node keeps its P_r only
    when H**(2m+1) is a node too; otherwise, on packed keys, P_r is only
    sized by ``_times_size``, which for Q_2 = {1, 2} forms nothing.

    No power over the cap is built, and a node whose indices lie past
    the first a(n) over the cap found so far is skipped.  After the walk
    the first a(n) over the cap in index order is refused.  The powers
    live in the layout of ``_layout`` for power limit: sorted int64 keys
    or, past k's packed layout, SymSets, along the same walk.
    """
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    layout = _layout(k, limit)
    cards = [0] * (limit + 1)
    over = limit + 1  # the first index found over the cap
    stack = [(0, layout.factors[1])]  # H**0 = Q_1 = {1}
    while stack:
        m, power = stack.pop()
        if 2 * m > over:
            continue
        cards[2 * m] = len(power)
        if cards[2 * m] > max_elements:
            over = min(over, 2 * m)
        odd = None
        if 2 * m + 1 < min(over, limit + 1):
            keep = 2 * m + 1 <= min(over, limit) // 2
            parts = {} if keep else None
            card = cards[2 * m + 1] = _class_count(k, power, layout, parts)
            if card > max_elements:
                over = min(over, 2 * m + 1)
            elif keep:
                odd = layout.odd_power([(c, parts[r]) for c, r in layout.classes])
            del parts
        if 0 < 2 * m <= min(over, limit) // 2:
            stack.append((2 * m, layout.square(power)))
        if odd is not None:
            stack.append((2 * m + 1, odd))
    if over <= limit:
        _check_cap(cards[over], max_elements)
    return cards
