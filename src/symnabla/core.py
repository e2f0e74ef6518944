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
multiplicity-parity bookkeeping over pairwise vector sums: rows are
packed into 64-bit integer keys (one bit field per prime, sized to the
operation at hand), the key array is sorted, and runs of equal keys are
kept or dropped by the parity of their length.  One kernel,
``_toggle_sums``, does this for every packed product; past
``_CHUNK_KEYS`` sums it works one output key range at a time, so its
buffers stay near that size.  If the fields ever outgrow 63 bits the
code falls back to row-wise reduction; results are identical, only
slower.

The object of interest downstream is the n-th symmetric power of the
base set {1, ..., k}, whose cardinality as a function of n the chain and
recurrence modules reproduce without materialising any sets.  The power
operations (``sym_power``, ``brute_card``, ``power_card_sequence``) fix
one key layout per call: each field holds n times the base set's
largest exponent in its column, which bounds that exponent in every
power 0..n.  The powers then stay sorted int64 keys from start to end:
squaring doubles every key, multiplying by the base set goes through the
same kernel as ``sym_prod``, and only ``sym_power`` unpacks, once, at
the end.  A layout wider than 63 bits (k = 64 at n = 8, say) steps
``SymSet`` values with ``sym_square`` and ``sym_prod`` instead, along
the same steps.  Power sets grow fast, so the power operations take an
element cap and raise SizeLimitError instead of exhausting memory.

The dense sweep ``power_card_sequence`` uses the ring's characteristic
2 twice.  With H = {1, ..., k} and S = H**m, H**(2m) is S with every
element squared, so a(2m) = |S|.  And H**(2m+1) is the sum over the
square-free c of c * (S * Q_c)**2, with Q_c = {q : c * q**2 <= k}; the
classes never cancel one another, so a(2m+1) = sum over c of |S * Q_c|,
at k = 8 equal to 4|S| + 2|S * {1, 2}|.  The sweep therefore builds only
the powers up to limit/2, as keys or, past 63 bits, as SymSets.
``brute_card`` and ``sym_power`` stay plain square-and-multiply on
sets, the independent oracle.

All operations are pure: ``SymSet`` is immutable and every operation
returns a new instance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
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
# the wide-row fallback of sym_prod reduces blocks of about a quarter.
_CHUNK_KEYS = 1 << 25


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


def _parity_sorted(keys: np.ndarray) -> np.ndarray:
    """Keys occurring an odd number of times, assuming sorted input.

    One neighbour-compare mask, with a sentinel at each end, marks the
    run boundaries.  A run is odd when its two boundaries differ in the
    lowest bit; the uint8 cast keeps that bit and makes the test one
    byte-wide pass.
    """
    edge = np.empty(keys.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    low = bounds.astype(np.uint8)
    odd = ((low[1:] ^ low[:-1]) & 1).view(bool)
    return keys[bounds[:-1][odd]]


def _toggle_sums(ka: np.ndarray, kb: np.ndarray) -> np.ndarray:
    """Sorted keys hit an odd number of times by the sums ka[i] + kb[j].

    The one packed product kernel.  ka and kb must be sorted and every
    sum must fit the packed fields.  Copy j of ka shifted by kb[j] is a
    sorted run, and a stable (merge-based) sort joins such runs about
    twice as fast as the default quicksort.

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
    if exps.shape[0] == 0:
        return exps
    if exps.shape[1] == 0:
        return exps[: exps.shape[0] % 2]
    uniq, counts = np.unique(exps, axis=0, return_counts=True)
    return _canonical(uniq[counts % 2 == 1])


def _parity_reduce(exps: np.ndarray) -> np.ndarray:
    """Multiplicity-parity reduction of a row multiset, canonical order."""
    if exps.shape[0] == 0 or exps.shape[1] == 0:
        return _parity_rows(exps)
    maxima = exps.max(axis=0)
    _, total = _field_shifts(maxima)
    if total <= 63:
        keys = _pack(exps, _field_shifts(maxima)[0])
        keys.sort(kind="stable")
        return _unpack(_parity_sorted(keys), maxima)
    return _parity_rows(exps)


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
            if arr.shape[0] > 1:
                if arr.shape[1] == 0:
                    arr = arr[:1]
                else:
                    arr = _canonical(np.unique(arr, axis=0))
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
        if self._exps.shape[0] == 0:
            return False
        if self._exps.shape[1] == 0:
            return True
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


def make_base_set(k: int) -> SymSet:
    """The set {1, ..., k}, the generator whose symmetric powers we study.

    k is capped at MAX_K (64).
    """
    return SymSet.from_values(k, range(1, k + 1))


def sym_diff(a: SymSet, b: SymSet) -> SymSet:
    """Symmetric difference: elements in exactly one operand."""
    _check_same_ring(a, b)
    merged = np.concatenate([a.exponents, b.exponents])
    return SymSet(a.k, _parity_reduce(merged), _internal=True)


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
    if ea.shape[1] == 0:
        # Only {1} is representable over an empty basis; {1}*{1} == {1}.
        return SymSet(a.k, ea[:1], _internal=True)
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
    # Wide-exponent fallback: reduce raw rows chunk by chunk.  Parity is
    # additive mod 2, so reducing partial accumulations is sound.
    acc = None
    rows_per = max(1, _CHUNK_KEYS // (4 * p))
    for i0 in range(0, m, rows_per):
        block = (ea[i0 : i0 + rows_per, None, :] + eb[None, :, :]).reshape(
            -1, ea.shape[1]
        )
        block = _parity_rows(block)
        acc = block if acc is None else _parity_rows(np.concatenate([acc, block]))
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


def _base_keys(base: SymSet, n: int):
    """The base set packed for its powers 0..n, and the field maxima.

    Every element of power r is a product of r base elements, so its
    exponent in column j is at most r times the base set's maximum
    there.  Fields sized for n times those maxima therefore hold every
    power 0..n and never need widening.  Returns None when they need
    more than 63 bits.
    """
    maxima = [n * int(m) for m in base.exponents.max(axis=0)]
    shifts, total = _field_shifts(maxima)
    if total > 63:
        return None
    return _pack(base.exponents, shifts), maxima


def _times_keys(keys: np.ndarray, kb: np.ndarray) -> np.ndarray:
    """Product of a packed power by the packed base set, under sym_prod's guard."""
    _check_pairs(keys.size, kb.size)
    return _toggle_sums(keys, kb)


def _square_and_multiply(base, n: int, square, times, cap: int):
    """Power n >= 1 of base, checking the cap after every step."""
    result = base
    _check_cap(len(result), cap)
    for bit in bin(n)[3:]:
        result = square(result)
        if bit == "1":
            result = times(result, base)
        _check_cap(len(result), cap)
    return result


def _power(k: int, n: int, cap: int):
    """The n-th power of {1, ..., k} and the field maxima of its keys.

    On the key path the power comes back as sorted int64 keys.  Squaring
    doubles every field, which keeps the keys sorted, and every
    intermediate of square-and-multiply is a power <= n, so the fields
    from _base_keys hold it.  When those fields need more than 63 bits
    the power comes back as a SymSet from sym_square and sym_prod, with
    maxima None.
    """
    if n < 0:
        raise DomainError(f"power index must be >= 0, got {n}")
    if n == 0:
        return SymSet.from_values(k, [1]), None
    base = make_base_set(k)
    packed = _base_keys(base, n)
    if packed is None:
        return _square_and_multiply(base, n, sym_square, sym_prod, cap), None
    kb, maxima = packed
    return _square_and_multiply(kb, n, lambda keys: keys * 2, _times_keys, cap), maxima


def sym_power(k: int, n: int, *, max_elements: int = DEFAULT_ELEMENT_CAP) -> SymSet:
    """n-th symmetric power of {1, ..., k} by square-and-multiply.

    The power stays in sorted int64 keys from start to end, with field
    widths fixed once from n, and is unpacked once, into canonical row
    order.  Layouts wider than 63 bits (for example k = 64, n = 8) run
    sym_square and sym_prod on SymSets instead.

    sym_power(k, 0) is the ring identity {1}.  Raises SizeLimitError if
    any intermediate power exceeds max_elements.
    """
    power, maxima = _power(k, n, max_elements)
    if maxima is None:
        return power
    return SymSet(k, _unpack(power, maxima), _internal=True)


def brute_card(k: int, n: int, *, max_elements: int = DEFAULT_ELEMENT_CAP) -> int:
    """Cardinality of the n-th symmetric power, by building the set.

    This is the ground-truth oracle the structural methods are checked
    against.  It works for any k up to MAX_K, subject to the element
    cap.  It builds the power as sym_power does but only counts its
    keys, without unpacking them.
    """
    return len(_power(k, n, max_elements)[0])


@lru_cache(maxsize=None)
def _square_classes(k: int) -> tuple[tuple[int, int], ...]:
    """The square classes of {1, ..., k} as (r, count) pairs, r ascending.

    Every h <= k is c * q**2 for exactly one square-free c.  The class
    of c holds the h with q in {1, ..., r}, r = isqrt(k // c), and count
    is the number of square-free c <= k with that r.  At k = 8 this is
    ((1, 4), (2, 2)): the classes of 3, 5, 6, 7 and of 1, 2.
    """
    square_free = (
        c for c in range(1, k + 1) if all(c % (d * d) for d in range(2, isqrt(c) + 1))
    )
    return tuple(sorted(Counter(isqrt(k // c) for c in square_free).items()))


def check_sequence_cap(k: int, cards: np.ndarray, max_elements: int) -> None:
    """Raise, without building a set, the SizeLimitError that
    power_card_sequence(k, len(cards) - 1, max_elements=max_elements)
    raises first, given its true values cards as an array and a
    max_elements of at least 1.

    The sweep checks the cap on every reported a(n) in index order, and
    each product it forms multiplies a power already within the cap by
    at most k elements.  So while max_elements * k stays within the pair
    guard, its first refusal is the first a(n) over the cap.  Past that
    this check passes, and the sweep finds its own refusal.
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
    to c * (S * Q_c)**2 with Q_c = {q : c * q**2 <= k}, and different
    classes never cancel, because c is the square-free part of every
    element c * x**2.  Hence a(2m+1) = sum over c of |S * Q_c|, which at
    k = 8 is 4|S| + 2|S * {1, 2}|.

    The sweep steps S = H**m for m <= limit/2 only, reports a(2m) and
    a(2m+1) from it, and checks the element cap on every reported
    cardinality in index order.  Every set it holds is no larger than
    some reported a(n).  S is sorted int64 keys, whose fields are sized
    for power limit, multiplied by _times_keys; when that layout needs
    more than 63 bits, S is a SymSet multiplied by sym_prod, along the
    same steps.
    """
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    base = make_base_set(k)
    packed = _base_keys(base, limit)
    if packed is None:
        power, times, pack = SymSet.from_values(k, [1]), sym_prod, lambda s: s
    else:
        shifts = _field_shifts(packed[1])[0]
        power, times = np.zeros(1, dtype=np.int64), _times_keys
        pack = lambda s: _pack(s.exponents, shifts)
    # Q_c = {1, ..., r} in the power's form, or None for r = 1, where S * Q_c is S
    classes = [
        (count, pack(SymSet.from_values(k, range(1, r + 1))) if r > 1 else None)
        for r, count in _square_classes(k)
    ]
    base = pack(base)
    cards = []
    for n in range(limit + 1):
        if n % 2:
            card = sum(
                count * len(power if q is None else times(power, q)) for count, q in classes
            )
        else:
            if n:
                power = times(power, base)
            card = len(power)
        _check_cap(card, max_elements)
        cards.append(card)
    return cards
