"""Closed-form engines for power-set cardinalities.

Let term(k, n) be the cardinality of the n-th symmetric power of
{1, ..., k}.  Everything here reproduces that number from the binary
expansion of n without building any sets.

a_k is 2-regular, and one minimal linear representation per k in 1..8
(``_representation``) carries every per-index engine but the chain
word: V(n) = (a(n), a(n.1), a(n.11)) cut to the rank r (1 for
k = 1..3, 2 for k = 4..7, 3 at k = 8), V(2n + b) = A_b V(n) and
V(0) = (a(0), a(1), a(3)) cut the same way.  It is built from the two
tables ``_SPARSE_RECURRENCES`` and ``_RULES``, and each of its rows is
a value rule on the low bits of n.

Every word engine takes its representation as one ``_Word`` record:
V(0), A0 (per 0-bit), A1 (per 1-bit) and the functional that reads
a(n) off a state.  There is one record per k for the minimal
representation (functional e0) and one for the chain word
(``_chain_word``), and the run table is cached on it: A1**L V(0)
(``_run_vector``) and A1**L A0 (``_run_matrix``) for L < 64.

* ``sparse_term(k, t)``: the subsequence at the all-ones indices
  2**t - 1, the first component of A1**t V(0) (``_ones_state``: the
  run table below 64, repeated squaring from V(0) above);
  ``sparse_terms`` steps V(0) by A1 for a whole prefix;
* ``fast_term(k, n)`` for k <= 7: the term is the product of sparse
  terms over the maximal runs of 1-bits of n, each distinct run length
  read once: below 64 from the run table, from 64 up in ascending
  order, each state a jump by a power of A1 from the last unless the
  walk from V(0) is shorter.  The
  underlying multiplicativity breaks at k = 8 (n = 11 is the smallest
  counterexample), so k = 8 is rejected;
* ``matrix_term(n, k)`` for k in 4..8: a 5-state (k = 8) or 3-state
  matrix word read off the bits of n, most significant first - the
  step matrix per 1-bit, the squaring matrix per 0-bit - applied to
  the initial state, then contracted with the cardinality functional.
  A power of the squaring matrix (g zeros in a row: g = 2 at k = 8,
  1 below) is the rank-one projector onto the initial state, so the
  word is cut at such gaps into blocks whose values multiply
  (``_word_state``).  Inside a block, the leading run of ones is
  ``_ones_state``, a zero and the run of L < 64 ones after it are one
  cached matrix, and a longer run is the step matrix to the power L.
  These are the matrices verify_transfer replays against sets, so they
  cross-check the representation (``term(k, n, "matrix")``);
* ``reduce_term(n)`` for k = 8: a rewriting system on binary expansions
  with base cases {0, 1, 3} and five core rules (plus three optional
  shortcuts that never change values).  A plain value is the k = 8
  representation's 3-state word, through the same ``_word_state``, and
  is what ``term(8, n)`` returns by default; a trace or a cache gets
  the full derivation, built in two passes over bit lengths, as a
  ReductionTrace;
* ``reduce_term_range(limit)``: the same rules for every n in
  0..limit, evaluated one bit length at a time on arrays, since every
  child has fewer bits than its parent.  One table, ``_RULES``, holds
  each rule's bit test, children and coefficients, on ints and arrays
  alike, and ``_ORDER`` the order the rules are tried in;
* ``term_range(k, limit)`` for k in 1..8: the default sweep.  The
  representation's rows, read as value rules, give every term of a
  doubling [lo, 2 lo - 1] from earlier ones by a few strided slices.

The three sweeps run in int64, returned as uint64, while every value
fits in 64 bits, and on Python ints beyond (``_sweep_array``).

All matrix powers go through one kernel in ``chains`` that applies
cached repeated squarings, so the cost grows with the number of runs
and the bit lengths of their lengths, not with the bit length of n.

``matrix_identity_suite`` and ``annihilation_check`` verify, in exact
integer arithmetic, the matrix identities that make the whole scheme
tick.  ``gap_split_check`` tests the product rule behind fast_term on
the brute oracle.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import prod
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .chains import (
    _pow_vec,
    cardinality_functional,
    initial_vector,
    is_zero_mat,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_sub,
    mat_vec,
    squaring_matrix,
    transfer_matrix,
    vec_mat,
    vec_outer,
)
from .core import DEFAULT_ELEMENT_CAP, MAX_K, brute_card
from .errors import DomainError, SizeLimitError

# Sparse-subsequence recurrences: k -> (seeds, coefficients), meaning
# sparse(t) = seeds[t] while available, then
# sparse(t) = sum(coeffs[i] * sparse(t - 1 - i)).
_SPARSE_RECURRENCES: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    1: ((1,), (1,)),
    2: ((1,), (2,)),
    3: ((1,), (3,)),
    4: ((1, 4), (2, 4)),
    5: ((1, 5), (3, 6)),
    6: ((1, 6), (5,)),  # the ratio-5 law only kicks in after the seed
    7: ((1, 7), (6, 1)),
    8: ((1, 8, 48), (7, -2, -24)),
}


def sparse_terms(k: int) -> Iterator[int]:
    """term(k, 2**t - 1) for t = 0, 1, 2, ... without end: V(0) stepped
    by A1 of ``_representation``.  All rows of A1 but the last are unit
    shifts, so a step shifts V up and appends one dot product with the
    last row.  A k outside 1..8 raises on the first term."""
    word = _representation(k)
    v, last = word.initial, word.a1[-1]
    while True:
        yield v[0]
        v = (*v[1:], sum(map(mul, last, v)))


def sparse_term(k: int, t: int) -> int:
    """term(k, 2**t - 1), the first component of A1**t V(0)
    (``_ones_state``)."""
    if t < 0:
        raise DomainError(f"index must be >= 0, got {t}")
    return _ones_state(_representation(k), t)[0]


def fast_term(k: int, n: int) -> int:
    """Product of sparse terms over the maximal 1-runs of n (k <= 7).

    Each distinct run length L is evaluated once, as the first component
    of A1**L V(0), and raised to the number of runs of that length: the
    gap width is 1 below k = 8, so this is the minimal representation's
    word with every block a single run.  The lengths are visited in
    ascending order.  Those below _RUN_TABLE are read from the run table
    (``_run_vector``).  Each longer one jumps from the state of the one
    before by a power of A1, one product per 1-bit of the jump, unless
    the walk from V(0) (``_ones_state``) has no more 1-bits, so close
    lengths cost a product or two each however long they are.  Their
    factors are big, so they are multiplied in a balanced tree
    (``_product``), and then by the short runs' product.  Rejects
    k = 8, where run-multiplicativity fails.
    """
    if k == 8:
        raise DomainError(
            "the run-product formula is false at k=8 (n=11 is a counterexample); "
            "use the matrix or reduce method"
        )
    if not 1 <= k <= 7:
        raise DomainError(f"fast_term supports k in 1..7, got {k}")
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    word = _representation(k)
    runs = Counter(map(len, filter(None, bin(n)[2:].split("0"))))
    value, factors, t, v = 1, [], 0, word.initial
    for length, count in sorted(runs.items()):
        if length < _RUN_TABLE:
            value *= _run_vector(word, length)[0] ** count
        else:
            if (length - t).bit_count() >= length.bit_count():
                t, v = 0, word.initial  # the walk from V(0) takes no more products
            v, t = _pow_vec(word.a1, length - t, v), length
            factors.append(v[0] ** count)
    return value * _product(factors)


def gap_split_check(k: int, alpha: int, beta: int, s: int) -> bool:
    """Does splitting at a double-zero gap multiply cardinalities?

    Checks term(k, alpha + beta * 2**(s+1)) == term(k, alpha) * term(k, beta)
    on the brute oracle, requiring alpha < 2**s so the gap is real.
    Always true for k <= 7; k = 8 is accepted and falsifiable
    (alpha=3, beta=1, s=2 gives 368 != 384).
    """
    if s < 0 or alpha < 0 or beta < 0:
        raise DomainError("alpha, beta, s must be non-negative")
    if alpha >= 1 << s:
        raise DomainError(f"need alpha < 2**s, got alpha={alpha}, s={s}")
    n = alpha + beta * (1 << (s + 1))
    return brute_card(k, n) == brute_card(k, alpha) * brute_card(k, beta)


# ---------------------------------------------------------------------------
# Gap-split matrix words: the chain word (k = 4..8) and the minimal
# representation (k = 1..8)


def _product(values: Iterable[int]) -> int:
    """Product in a balanced tree, so that big factors meet factors of
    similar size (CPython's Karatsuba multiplication pays off there)."""
    values = list(values) or [1]
    while len(values) > 1:
        values = [prod(values[i : i + 2]) for i in range(0, len(values), 2)]
    return values[0]


@dataclass(frozen=True, eq=False)
class _Word:
    """A linear representation read as a bit word: the state of n is
    initial stepped by a1 per 1-bit and a0 per 0-bit of n, most
    significant bit first, and the functional contracts it to a(n).
    One record per k and word (``_chain_word``, ``_representation``);
    it hashes by identity, so the run tables cache on it cheaply."""

    initial: tuple[int, ...]
    a0: tuple[tuple[int, ...], ...]
    a1: tuple[tuple[int, ...], ...]
    functional: tuple[int, ...]


@cache
def _chain_word(k: int) -> _Word:
    """The chain word for k in 4..8: the step and squaring matrices that
    verify_transfer replays against sets, on 5 components at k = 8 and 3
    for k in 4..7."""
    square, step = squaring_matrix(k).rows, transfer_matrix(k).rows
    return _Word(initial_vector(k), square, step, cardinality_functional(k))


@cache
def _gap_width(word: _Word) -> int:
    """The smallest g with a0**g equal to the rank-one projector
    initial * functional: 2 at k = 8 and 1 below, for the chain word and
    the minimal representation alike."""
    projector = vec_outer(word.initial, word.functional)
    return next(g for g in range(1, len(word.a0) + 1) if mat_pow(word.a0, g) == projector)


# Runs of ones shorter than this are one cached vector at the head of a
# block (``_run_vector``) and one cached matrix after a zero
# (``_run_matrix``); longer runs go through repeated squaring, where the
# big-int products outweigh the per-matrix Python calls.
_RUN_TABLE = 64


@cache
def _run_matrix(word: _Word, length: int) -> tuple[tuple[int, ...], ...]:
    """a1**length . a0: a zero followed by a run of length ones, built
    from the run one shorter."""
    if length == 0:
        return word.a0
    return mat_mul(word.a1, _run_matrix(word, length - 1))


@cache
def _run_vector(word: _Word, length: int) -> tuple[int, ...]:
    """a1**length . initial for length < _RUN_TABLE, built from the run
    one shorter."""
    if length == 0:
        return word.initial
    return mat_vec(word.a1, _run_vector(word, length - 1))


def _ones_state(word: _Word, length: int) -> tuple[int, ...]:
    """a1**length . initial, the state of length ones: ``_run_vector``
    below _RUN_TABLE, repeated squaring from initial at or above it."""
    if length < _RUN_TABLE:
        return _run_vector(word, length)
    return _pow_vec(word.a1, length, word.initial)


def _block_state(block: str, word: _Word) -> tuple[int, ...]:
    """The state of one block's bit word: a1**L for a run of L ones, a0
    at each zero.  The leading run is ``_ones_state``, and a zero and
    the run of L < 64 ones after it are one matrix-vector product with
    ``_run_matrix``."""
    runs = block.split("0")
    v = _ones_state(word, len(runs[0]))
    for run in runs[1:]:
        if len(run) < _RUN_TABLE:
            v = mat_vec(_run_matrix(word, len(run)), v)
        else:
            v = _pow_vec(word.a1, len(run), mat_vec(word.a0, v))
    return v


def _word_state(n: int, word: _Word) -> tuple[int, ...]:
    """The state of n's bit word: read most significant bit first, the
    word applies a1 per 1-bit and a0 per 0-bit to initial.

    g zeros in a row, g from ``_gap_width``, apply the projector
    initial * functional, so the word is split at every g zeros into
    blocks (a longer zero run leaves its remainder at the head of the
    next block, and empty blocks of value 1).  Every block but the last
    contributes the scalar functional . state(block), and the last
    block's state is scaled by their product, taken in a balanced tree.
    Inside a block (``_block_state``) a leading run of L ones is one
    cached vector, a zero and the run of L ones after it are one cached
    matrix, and only a run of 64 ones or more goes through repeated
    squaring.  Equal blocks are evaluated once.
    """
    *head, last = bin(n)[2:].split("0" * _gap_width(word))
    scale = _product(
        sum(map(mul, word.functional, _block_state(block, word))) ** count
        for block, count in Counter(head).items()
    )
    return tuple(scale * x for x in _block_state(last, word))


def matrix_state(n: int, k: int = 8) -> tuple[int, ...]:
    """The structural state at index n: ``_word_state`` of the chain
    word (``_chain_word``), on 5 components at k = 8 and 3 for k in
    4..7."""
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    return _word_state(n, _chain_word(k))


def matrix_term(n: int, k: int = 8) -> int:
    """term(k, n) = functional . matrix_state(n, k), exact for any n >= 0
    and k in 4..8."""
    return sum(map(mul, _chain_word(k).functional, matrix_state(n, k)))


def _sweep_array(k: int, limit: int, max_elements: int) -> np.ndarray:
    """An empty array for term(k, n), n in 0..limit, after refusing a
    negative limit or more than max_elements terms: int64 while
    sparse_term(k, L) < 2**64 for the limit's bit length L, dtype object
    (Python ints) beyond.  A sweep returns it through ``_unsigned``.

    The sweeps use only ring operations (+, - and * by integers or by
    other values), which commute with reduction mod 2**64.  So an int64
    sweep is exact mod 2**64 however often its intermediates wrap, and a
    value below 2**64 is exact read as uint64.  Every a(n) with n < 2**L
    is at most sparse_term(k, L), the all-ones term of that length.  For
    k <= 7, a(n) is the product of the sparse terms of n's runs of ones
    (``fast_term``), and the tests check that no runs fitting in L bits
    beat one run of L ones.  At k = 8, a(n) = a(2n) lets n have exactly
    L bits, and the chain word bounds it: the step and squaring matrices,
    the initial state and the functional are nonnegative, and the
    squaring matrix is entrywise at most the step matrix, so turning
    0-bits of n into 1-bits never lowers a state component.
    """
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if limit + 1 > max_elements:
        raise SizeLimitError(
            f"the sweep would hold {limit + 1} terms, over the cap {max_elements}"
        )
    fixed = sparse_term(k, int(limit).bit_length()) < 2**64
    return np.empty(limit + 1, dtype=np.int64 if fixed else object)


def _unsigned(values: np.ndarray) -> np.ndarray:
    """A finished sweep's values: the uint64 view of an int64 array."""
    return values.view(np.uint64) if values.dtype == np.int64 else values


def matrix_term_range(
    limit: int, k: int = 8, *, max_elements: int = DEFAULT_ELEMENT_CAP
) -> np.ndarray:
    """term(k, n) for all n in 0..limit and k in 4..8, as a uint64 array
    (an object array past 64 bits, ``_sweep_array``).

    A level-by-level dynamic program over the bit words: state(2m) and
    state(2m+1) both derive from state(m).  Only the previous bit
    length's states are kept; the next length's are their products with
    the squaring and the step matrix, interleaved by strided slices.
    The last bit length needs only values, so its parents' states are
    multiplied by square_t @ functional and step_t @ functional instead.
    """
    word = _chain_word(k)
    values = _sweep_array(k, limit, max_elements)
    step_t = np.array(word.a1, dtype=values.dtype).T
    square_t = np.array(word.a0, dtype=values.dtype).T
    functional = np.array(word.functional, dtype=values.dtype)
    initial = np.array([word.initial], dtype=values.dtype)
    values[0] = (initial @ functional)[0]
    states, lo = initial @ step_t, 1  # the states of lo..2 lo - 1
    while 4 * lo <= limit:
        values[lo : 2 * lo] = states @ functional
        parents = states
        states = np.empty((2 * len(parents), len(word.a1)), dtype=values.dtype)
        states[0::2] = parents @ square_t
        states[1::2] = parents @ step_t
        lo *= 2
    values[lo : 2 * lo] = (states @ functional)[: limit + 1 - lo]
    if 2 * lo <= limit:
        # the last bit length, 2 lo..limit, is read off its parents' states
        # without building its own
        last = 2 * lo
        values[last::2] = states[: (limit - last + 2) // 2] @ (square_t @ functional)
        values[last + 1 :: 2] = states[: (limit - last + 1) // 2] @ (step_t @ functional)
    return _unsigned(values)


# ---------------------------------------------------------------------------
# Rewriting system on binary expansions (k = 8)

# Base values, the 01 rule's a(1) and the 111-block rule are the k = 8
# sparse recurrence.
_BASE_VALUES = {(1 << t) - 1: v for t, v in enumerate(_SPARSE_RECURRENCES[8][0])}

CORE_RULES = ("strip_zeros", "gap_split", "suffix_01", "suffix_011", "block_111")
OPTIONAL_RULES = ("suffix_011011", "suffix_101011", "prefix_10101")


def _low_bit(x):
    """Index of the lowest set bit of x > 0, for a Python int or an int64
    array: x & -x is a power of two, which frexp decomposes exactly."""
    if isinstance(x, int):
        return (x & -x).bit_length() - 1
    return np.frexp((x & -x).astype(np.float64))[1].astype(np.int64) - 1


def _gaps(n, length: int):
    """Bit i is set where bits i and i + 1 of n are both zero: z & (z >> 1)
    with z the complement of n within its bit length."""
    z = n ^ ((1 << length) - 1)
    return z & (z >> 1)


def _gap_children(n, length: int) -> tuple:
    i = _low_bit(_gaps(n, length))
    return (n & ((1 << i) - 1), n >> (i + 2))


def _prefix_children(n, length: int) -> tuple:
    i = length - 5
    low = n & ((1 << i) - 1)
    return ((0b101 << i) | low, (1 << i) | low)


# rule -> (fires(n, length), children(n, length), coefficients), for a
# Python int n (a bool) or an int64 array of indices of one bit length
# (a mask).  A linear rule's value is the sum of coefficient * child
# value; base reads _BASE_VALUES and gap_split multiplies.  The base
# indices are 2**t - 1 with t below the number of seeds.  strip_zeros
# cuts the trailing zeros, gap_split cuts at the lowest 00 gap and
# prefix_10101 reads the bits below the prefix.  The suffix rules
# rewrite n = m.w into children m.u, which are n shifted right with the
# low bit set where u ends in 1.  Of the shortcuts only suffix_011011
# needs a length test, as 27 = 11011 ends in 011011 too.  Past the 01
# and 011 suffixes an odd expansion without a 00 gap must end in 111,
# so block_111 fires everywhere left.
_RULES = {
    "base": (
        lambda n, length: (length < len(_BASE_VALUES)) & (n & (n + 1) == 0), lambda n, _: (), None
    ),
    "strip_zeros": (lambda n, _: n & 1 == 0, lambda n, _: (n >> _low_bit(n),), (1,)),
    "gap_split": (lambda n, length: _gaps(n, length) != 0, _gap_children, None),
    "suffix_01": (
        lambda n, _: n & 0b11 == 0b01, lambda n, _: (n >> 2,), _SPARSE_RECURRENCES[8][0][1:2]
    ),
    "suffix_011": (lambda n, _: n & 0b111 == 0b011, lambda n, _: ((n >> 2) | 1, n >> 3), (1, 40)),
    "block_111": (
        lambda n, _: True, lambda n, _: (n >> 1, n >> 2, n >> 3), _SPARSE_RECURRENCES[8][1]
    ),
    "suffix_011011": (
        lambda n, length: (length >= 6) & (n & 0b111111 == 0b011011),
        lambda n, _: (n >> 3, n >> 6),
        (47, -40),
    ),
    "suffix_101011": (
        lambda n, _: n & 0b111111 == 0b101011, lambda n, _: ((n >> 2) | 1, (n >> 4) | 1), (9, -8)
    ),
    "prefix_10101": (
        lambda n, length: n >> max(length - 5, 0) == 0b10101, _prefix_children, (9, -8)
    ),
}

# optional_rules -> (rule, fires, children) in the order the rules are
# tried: each index takes the first rule that fires at it.
_ORDER = {
    optional: tuple(
        (rule, *_RULES[rule][:2])
        for rule in (
            "base", *CORE_RULES[:2], *(OPTIONAL_RULES if optional else ()), *CORE_RULES[2:]
        )
    )
    for optional in (False, True)
}


def _select_rule(n: int, optional_rules: bool) -> tuple[str, tuple[int, ...]]:
    """The first rule of ``_ORDER`` that fires at n, and n's children
    under it.  Every child has strictly fewer bits, so rewriting
    terminates."""
    length = n.bit_length()
    for rule, fires, children in _ORDER[optional_rules]:
        if fires(n, length):
            return rule, children(n, length)


def _combine(rule: str, n: int, child_values: Sequence) -> int:
    if rule == "base":
        return _BASE_VALUES[n]
    if rule == "gap_split":
        return child_values[0] * child_values[1]
    return sum(map(mul, _RULES[rule][2], child_values))


def _level_rules(n: np.ndarray, length: int):
    """``_select_rule`` (core rules) for an int64 array n of indices of
    one bit length: yields (rule, mask of the indices it fires at first,
    their children as arrays), in the order of ``_ORDER``, for each rule
    that some index takes."""
    todo = np.ones(len(n), dtype=bool)
    for rule, fires, children in _ORDER[False]:
        hit = todo & fires(n, length)
        todo ^= hit
        if hit.any():
            yield rule, hit, children(n[hit], length)


def reduce_term_range(limit: int, *, max_elements: int = DEFAULT_ELEMENT_CAP) -> np.ndarray:
    """term(8, n) for all n in 0..limit by the rewriting system, as a
    uint64 array (an object array past 64 bits, ``_sweep_array``).

    Every child has fewer bits than its parent, so the indices of bit
    length L, [2**(L-1), 2**L), read only values of earlier lengths and
    are evaluated together: ``_level_rules`` picks each index's rule and
    children with masks, and ``_combine`` applies the rule to the
    gathered child values.
    """
    values = _sweep_array(8, limit, max_elements)
    length = 0
    while (1 << length) >> 1 <= limit:
        lo, hi = (1 << length) >> 1, min((1 << length) - 1, limit)
        n = np.arange(lo, hi + 1, dtype=np.int64)
        level = values[lo : hi + 1]
        for rule, hit, children in _level_rules(n, length):
            if rule == "base":
                level[hit] = [_combine(rule, m, ()) for m in n[hit].tolist()]
            else:
                level[hit] = _combine(rule, None, tuple(values[c] for c in children))
        length += 1
    return _unsigned(values)


@dataclass(frozen=True)
class ReductionTrace:
    """One node of a derivation: which rule fired at n and what came out.

    Shared subproblems appear as shared child nodes (the derivation is
    really a DAG); ``to_text`` prints each non-leaf subtree once and
    marks repeats.  The other walkers expand the DAG into a tree, so
    they first count its nodes on the DAG and raise SizeLimitError past
    DEFAULT_ELEMENT_CAP.  Every walker is iterative, so no derivation
    depth meets the recursion limit.
    """

    n: int
    rule: str
    value: int
    children: tuple["ReductionTrace", ...]

    def _post_order(self, visit) -> dict:
        """id(node) -> visit(node, {id(child): result}) for every node of
        the DAG, each node visited once, children first."""
        done: dict[int, object] = {}
        pending = [self]
        while pending:
            node = pending[-1]
            if id(node) in done:
                pending.pop()
                continue
            missing = [c for c in node.children if id(c) not in done]
            if missing:
                pending.extend(missing)
                continue
            done[id(node)] = visit(node, done)
            pending.pop()
        return done

    def _check_tree_size(self) -> None:
        """Raise SizeLimitError if the expanded tree has more than
        DEFAULT_ELEMENT_CAP nodes; subtree sizes saturate just past it."""
        cap = DEFAULT_ELEMENT_CAP
        sizes = self._post_order(
            lambda node, done: min(cap + 1, 1 + sum(done[id(c)] for c in node.children))
        )
        if sizes[id(self)] > cap:
            raise SizeLimitError(
                f"the derivation expands to a tree of more than the cap of {cap} nodes"
            )

    def _preorder(self) -> Iterator["ReductionTrace"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> Iterator["ReductionTrace"]:
        self._check_tree_size()
        return (node for node in self._preorder() if not node.children)

    def iter_nodes(self) -> Iterator["ReductionTrace"]:
        self._check_tree_size()
        return self._preorder()

    def as_dict(self) -> dict:
        """The tree as nested dicts; a shared subproblem's dict is one
        object wherever it occurs."""
        self._check_tree_size()
        dicts = self._post_order(
            lambda node, done: {
                "n": node.n,
                "bits": bin(node.n)[2:],
                "rule": node.rule,
                "value": node.value,
                "children": [done[id(c)] for c in node.children],
            }
        )
        return dicts[id(self)]

    def to_json(self) -> str:
        """json.dumps(self.as_dict()), written without nesting calls, so
        a derivation deeper than the JSON encoder's recursion limit
        still serialises.

        A stack walk appends the text's pieces to one list, joined once
        at the end.  When a node's text is complete, the slice of the
        list that holds it is kept by id(node), and each later
        occurrence of the node extends the list by that slice: it copies
        pointers to the same pieces and does not walk the subtree again.
        So each node of the DAG is formatted once, and the list grows
        with the number of pieces of the text, not with their size."""
        self._check_tree_size()
        parts: list[str] = []
        spans: dict[int, tuple[int, int]] = {}
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif isinstance(item, tuple):  # the text of node is done
                start, node = item
                spans[id(node)] = (start, len(parts))
            elif id(item) in spans:
                start, end = spans[id(item)]
                parts += parts[start:end]
            else:
                stack += [(len(parts), item), "]}"]
                parts.append(
                    f'{{"n": {item.n}, "bits": "{bin(item.n)[2:]}", '
                    f'"rule": {json.dumps(item.rule)}, "value": {item.value}, "children": ['
                )
                for j, child in enumerate(reversed(item.children)):
                    if j:
                        stack.append(", ")
                    stack.append(child)
        return "".join(parts)

    def _text_lines(self) -> Iterator[tuple["ReductionTrace", int, bool]]:
        """(node, depth, repeat) for each line of to_text, in order: a
        non-leaf node seen before is one line marked as a repeat."""
        seen: set[int] = set()
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            repeat = bool(node.children) and id(node) in seen
            yield node, depth, repeat
            if not repeat:
                seen.add(id(node))
                stack.extend((child, depth + 1) for child in reversed(node.children))

    def to_text(self) -> str:
        """One line per node, each shared non-leaf subtree printed once.

        A line holds n in decimal and in binary, so on an L-bit index the
        text is quadratic in L.  Before formatting, the lines' lengths are
        bounded from bit lengths (x < 2**b has at most b // 3 + 1 digits),
        and past 8 * DEFAULT_ELEMENT_CAP characters SizeLimitError is
        raised.  That cap is above the 104 MB JSON trace of 2**24 - 1."""
        cap = 8 * DEFAULT_ELEMENT_CAP
        size = 0
        for node, depth, repeat in self._text_lines():
            bits = node.n.bit_length()
            digits = bits // 3 + node.value.bit_length() // 3 + 2
            size += 2 * depth + bits + digits + len(node.rule) + 40
            if size > cap:
                raise SizeLimitError(f"the trace text would pass the cap of {cap} characters")
        return "\n".join(
            f"{'  ' * depth}n={node.n} bits={bin(node.n)[2:]} "
            f"rule={node.rule} value={node.value}" + (" (expanded above)" if repeat else "")
            for node, depth, repeat in self._text_lines()
        )


def reduce_term(
    n: int,
    *,
    trace: bool = False,
    optional_rules: bool = False,
    cache: Optional[dict[int, int]] = None,
):
    """term(8, n) by the rewriting rules.

    Without a trace or a cache no derivation is built: the value is the
    first component of the k = 8 minimal representation's word
    (``_representation`` through ``_word_state``), whose rows are the
    core rules at bit 0.  The word splits n at every 00 pair, as
    gap_split does, and inside a block a zero and the run of ones after
    it are one cached matrix A1**L A0 (A1**L by repeated squaring for
    L >= 64).  The plain value does not depend on optional_rules, which
    only change the derivation's shape.

    A trace or a cache exposes the derivation's nodes, so then it is
    built in two passes over bit lengths, since every child has fewer
    bits than its parent.  Pass 1 selects each node's rule once, from
    the top length down, and pass 2 combines child values by node index,
    from length 0 up.  Nodes are keyed by n only within one length:
    CPython hashes ints modulo 2**61 - 1, so the 2**j - 1 of all lengths
    would collide in one dict.

    Returns the value, or (value, ReductionTrace) when trace is set.  A
    cache of n -> value entries (valid under both rule sets) may be
    shared across calls; it gets every node evaluated, and a cached
    node is expanded only with a trace.
    """
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    if cache is None and not trace:
        return _word_state(n, _representation(8))[0]
    lookup = cache is not None and not trace
    if lookup and n in cache:
        return cache[n]
    levels = {n.bit_length(): {n: 0}}  # bit length -> {m: index}, to expand
    values = [None]  # by node index
    steps = []  # (m, index, rule, child indices), longest first
    while levels:
        for m, j in levels.pop(max(levels)).items():
            rule, kids = _select_rule(m, optional_rules)
            ids = []
            for c in kids:
                value = cache.get(c) if lookup else None
                if value is not None:
                    ids.append(len(values))
                    values.append(value)
                    continue
                ids.append(levels.setdefault(c.bit_length(), {}).setdefault(c, len(values)))
                if ids[-1] == len(values):
                    values.append(None)
            steps.append((m, j, rule, ids))
    nodes = [None] * len(values) if trace else []
    for m, j, rule, ids in reversed(steps):
        values[j] = _combine(rule, m, [values[i] for i in ids])
        if cache is not None:
            cache[m] = values[j]
        if trace:
            nodes[j] = ReductionTrace(m, rule, values[j], tuple(nodes[i] for i in ids))
    return (values[0], nodes[0]) if trace else values[0]


# ---------------------------------------------------------------------------
# The minimal representation (k = 1..8) and its sweep


@cache
def _representation(k: int) -> _Word:
    """a_k's minimal linear representation for k in 1..8 as a ``_Word``:
    V(0), A0, A1 and the functional e0, built from
    ``_SPARSE_RECURRENCES`` and ``_RULES``.

    V(n) = (a(n), a(n.1), ..., a(n.1**(r-1))) has r = 1, 2, 3 components
    for k = 1..3, 4..7, 8, where m.w is the index whose binary expansion
    is m's followed by the bits w, and V(2n + b) = A_b V(n).
    V(0) = (a(0), a(1), a(3), ...) is the sparse table's seeds.  So a(n)
    is the first component of the word of n, and a(2**t - 1) that of
    A1**t V(0).

    Each row is a value rule: the row c of the suffix w means
    a(m.w) = sum of c[t] * a(m.1**t), for every m >= 0.  Row i of A0 is
    the rule for the suffix 0.1**i: a(2m) = a(m) (``strip_zeros``), then
    for r >= 2 a(4m + 1) = a(1) a(m), then at k = 8 ``suffix_011`` at
    bit 0.  A1 shifts V up by one, and its last row, the rule for 1**r,
    is the sparse recurrence (``block_111`` at k = 8).  The suffixes
    cover every residue of n > 0 once, and a rule reads only columns t
    below len(w), so each child of n is at most (n - 1) / 2 or, for the
    0 suffix, n / 2.
    """
    if k not in _SPARSE_RECURRENCES:
        raise DomainError(f"sparse recurrences cover k in 1..8, got {k}")
    seeds, coeffs = _SPARSE_RECURRENCES[k]
    r = len(seeds)
    # column 0 first; suffix_011 lists its children t = 1, 0
    rows = ((1,), seeds[1:2], _RULES["suffix_011"][2][::-1])[:r]
    a0 = tuple(row + (0,) * (r - len(row)) for row in rows)
    a1 = mat_identity(r)[1:] + ((0,) * (r - len(coeffs)) + coeffs[::-1],)
    return _Word(seeds, a0, a1, mat_identity(r)[0])


def term_range(k: int, limit: int, *, max_elements: int = DEFAULT_ELEMENT_CAP) -> np.ndarray:
    """term(k, n) for all n in 0..limit and k in 1..8, as a uint64 array
    (an object array past 64 bits, ``_sweep_array``).

    Sweeps the rows of ``_representation(k)`` as value rules from the
    one seed a(0) = 1, a doubling [lo, 2 lo - 1] at a time: every child
    of an index there lies below lo, so each rule is one strided-slice
    expression per doubling, over the rule's nonzero columns.
    """
    if not 1 <= k <= 8:
        raise DomainError(f"term_range covers k in 1..8, got {k}")
    word = _representation(k)
    suffixes = ["0" + "1" * i for i in range(len(word.a0))] + ["1" * len(word.a1)]
    rules = [
        (suffix, [(row[t], t) for t in reversed(range(len(row))) if row[t]])
        for suffix, row in zip(suffixes, word.a0 + word.a1[-1:])
    ]
    values = _sweep_array(k, limit, max_elements)
    values[0] = word.initial[0]
    lo = 1
    while lo <= limit:
        hi = min(2 * lo - 1, limit)
        for suffix, children in rules:
            s, r = len(suffix), int(suffix, 2)
            first = lo + (r - lo) % (1 << s)  # the first n >= lo of this suffix
            if first > hi:
                continue
            m, count = first >> s, ((hi - first) >> s) + 1
            values[first : hi + 1 : 1 << s] = sum(
                c * values[((m + 1) << t) - 1 :: 1 << t][:count] for c, t in children
            )
        lo *= 2
    return _unsigned(values)


# ---------------------------------------------------------------------------
# Dispatch

METHODS = ("auto", "brute", "fast", "matrix", "reduce")


def resolve_method(k: int, method: str) -> str:
    """The engine term(k, n, method) runs, with "auto" resolved: "fast"
    for k <= 7, "reduce" (the 3-state representation word; the 5-state
    chain word stays as "matrix", its cross-check) for k = 8 and
    "brute" above.  The fast and matrix engines check their own range
    of k."""
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}, expected one of {METHODS}")
    if not 1 <= k <= MAX_K:
        raise DomainError(f"k must be in 1..{MAX_K}, got {k}")
    if method == "auto":
        return "fast" if k <= 7 else ("reduce" if k == 8 else "brute")
    if method == "reduce" and k != 8:
        raise DomainError(f"method 'reduce' is defined only for k=8, got k={k}")
    return method


def term(
    k: int,
    n: int,
    method: str = "auto",
    *,
    max_elements: int = DEFAULT_ELEMENT_CAP,
) -> int:
    """Cardinality of the n-th symmetric power of {1, ..., k}.

    method "auto" picks the run-product formula for k <= 7 (faster than
    the matrix word at a single huge index), the minimal
    representation's word (plain ``reduce_term``) for k = 8 and the
    brute set oracle otherwise.  "matrix" covers k = 4..8, "reduce"
    only k = 8 and "fast" only k <= 7.
    """
    method = resolve_method(k, method)
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    if method == "brute":
        return brute_card(k, n, max_elements=max_elements)
    if method == "fast":
        return fast_term(k, n)
    if method == "matrix":
        return matrix_term(n, k)
    return reduce_term(n)


# ---------------------------------------------------------------------------
# Exact identity checks


@dataclass(frozen=True)
class IdentityReport:
    """Pass/fail outcome of a batch of exact matrix identities."""

    entries: tuple[tuple[str, bool], ...]

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok in self.entries)

    def summary(self) -> str:
        return "\n".join(
            f"{'ok  ' if ok else 'FAIL'} {name}" for name, ok in self.entries
        )


def matrix_identity_suite() -> IdentityReport:
    """Exact integer checks of the squaring/step matrix interplay (k=8).

    These identities are what let the matrix word skip the zero bits of
    n in blocks and are the backbone of the rewriting rules: the
    coefficients checked are the ones ``_RULES`` holds.
    """
    word = _chain_word(8)
    step, square, functional, initial = word.a1, word.a0, word.functional, word.initial
    dim = len(step)

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    r1 = vec_mat(functional, step)
    r2 = vec_mat(r1, step)
    r3 = vec_mat(r2, step)
    sq_step = mat_mul(square, step)
    sq_step2 = mat_mul(sq_step, sq_step)
    # q(X) = X**2 - 9X + 8I, the non-trivial factor of the annihilator
    q = mat_sub(sq_step2, mat_sub(mat_scale(9, sq_step), mat_scale(8, mat_identity(dim))))
    zero_row = (0,) * dim

    entries = [
        (
            "functional applied to the initial state is 1",
            dot(functional, initial) == 1,
        ),
        (
            "functional is invariant under the squaring matrix",
            vec_mat(functional, square) == functional,
        ),
        (
            "one step then squaring is the suffix_01 rule on the functional",
            vec_mat(r1, square) == vec_mat(_RULES["suffix_01"][2], [functional]),
        ),
        (
            "two steps then squaring is the suffix_011 rule on one step and the functional",
            vec_mat(r2, square) == vec_mat(_RULES["suffix_011"][2], [r1, functional]),
        ),
        (
            "three steps collapse by the block_111 rule, the depth-3 recurrence",
            r3 == vec_mat(_RULES["block_111"][2], [r2, r1, functional]),
        ),
        (
            "squaring matrix squared is the rank-one projector onto the initial state",
            mat_mul(square, square) == vec_outer(initial, functional),
        ),
        (
            "square-then-step product satisfies its quartic annihilator",
            is_zero_mat(mat_mul(sq_step2, q)),
        ),
        (
            "no cubic divisor annihilates the square-then-step product",
            not any(
                is_zero_mat(mat)
                for mat in (
                    mat_mul(sq_step2, mat_sub(sq_step, mat_identity(dim))),
                    mat_mul(sq_step2, mat_sub(sq_step, mat_scale(8, mat_identity(dim)))),
                    mat_mul(
                        mat_mul(sq_step, mat_sub(sq_step, mat_identity(dim))),
                        mat_sub(sq_step, mat_scale(8, mat_identity(dim))),
                    ),
                )
            ),
        ),
        (
            "one- and two-step rows are killed by the quadratic factor",
            vec_mat(r1, q) == zero_row and vec_mat(r2, q) == zero_row,
        ),
        (
            "the three-step row survives the quadratic factor yet kills the initial state",
            vec_mat(r3, q) != zero_row and dot(vec_mat(r3, q), initial) == 0,
        ),
    ]
    return IdentityReport(tuple(entries))


def annihilation_check(k: int) -> bool:
    """Does the sparse recurrence's characteristic polynomial, padded with
    zeros to degree len(seeds) because only the terms after the seeds obey
    it, kill the cardinality functional against the step matrix?  Exact,
    k in 4..8."""
    word = _chain_word(k)  # rejects k outside 4..8
    seeds, recurrence = _SPARSE_RECURRENCES[k]
    coeffs = (1,) + tuple(-c for c in recurrence)
    coeffs += (0,) * (len(seeds) + 1 - len(coeffs))
    rows = [word.functional]
    for _ in range(len(coeffs) - 1):
        rows.append(vec_mat(rows[-1], word.a1))
    return not any(vec_mat(coeffs, rows[::-1]))
