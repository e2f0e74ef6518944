"""Closed-form engines for power-set cardinalities.

Let term(k, n) be the cardinality of the n-th symmetric power of
{1, ..., k}.  Everything here reproduces that number from the binary
expansion of n without building any sets.

a_k is 2-regular, and one minimal linear representation per k in 2..8
(``_representation``) carries every per-index engine but the chain
word: V(n) = (a(n), a(n.1), a(n.11)) cut to the rank r (1 for
k = 2, 3, 2 for k = 4..7, 3 at k = 8), V(2n + b) = A_b V(n) and
V(0) = (a(0), a(1), a(3)) cut the same way.  Its rows are the value rules of ``_value_rules``, whose
coefficients come from the two tables ``_SPARSE_RECURRENCES`` and
``_RULE_COEFFS``.

* ``sparse_term(k, t)``: the subsequence at the all-ones indices
  2**t - 1, the first component of A1**t V(0); ``sparse_terms`` steps
  V(0) by A1 for a whole prefix;
* ``fast_term(k, n)`` for k <= 7: the term is the product of sparse
  terms over the maximal runs of 1-bits of n, each distinct run length
  reached by sorted jumps of A1.  The underlying multiplicativity
  breaks at k = 8 (n = 11 is the smallest counterexample), so k = 8 is
  rejected;
* ``matrix_term(n, k)`` for k in 4..8: a 5-state (k = 8) or 3-state
  matrix word read off the bits of n, most significant first - the
  step matrix per 1-bit, the squaring matrix per 0-bit - applied to
  the initial state, then contracted with the cardinality functional.
  A power of the squaring matrix (g zeros in a row: g = 2 at k = 8,
  1 below) is the rank-one projector onto the initial state, so the
  word is cut at such gaps into blocks whose values multiply
  (``_word_state``).  Inside a block, a zero and the run of L < 64 ones
  after it are one cached matrix (``_run_matrix``), and a longer run
  is the step matrix to the power L.  These are the matrices
  verify_transfer replays against sets, so they cross-check the
  representation (``term(k, n, "matrix")``);
* ``reduce_term(n)`` for k = 8: a rewriting system on binary expansions
  with base cases {0, 1, 3} and five core rules (plus three optional
  shortcuts that never change values).  A plain value is the k = 8
  representation's 3-state word, through the same ``_word_state``, and
  is what ``term(8, n)`` returns by default; a trace or a cache gets
  the full derivation, built in two passes over bit lengths, as a
  ReductionTrace;
* ``reduce_term_range(limit)``: the same rules for every n in
  0..limit, evaluated one bit length at a time on arrays, since every
  child has fewer bits than its parent;
* ``term_range(k, limit)`` for k in 1..8: the default sweep.  The
  value rules give every term of a doubling [lo, 2 lo - 1] from
  earlier ones by a few strided slices.

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
    last row.  A k outside 2..8 raises on the first term."""
    v, _, step = _representation(k)
    last = step[-1]
    while True:
        yield v[0]
        v = (*v[1:], sum(map(mul, last, v)))


def _sparse_values(k: int, lengths: Iterable[int]) -> dict[int, int]:
    """term(k, 2**t - 1) for each t in lengths, which are distinct.

    Visits them in sorted order, carrying V(2**t - 1) from V(0) and
    jumping from one length to the next with a power of A1, so the cost
    follows the bit lengths of the jumps, not their sizes.
    """
    v, _, step = _representation(k)
    t = 0
    values = {}
    for length in sorted(lengths):
        v, t = _pow_vec(step, length - t, v), length
        values[length] = v[0]
    return values


def sparse_term(k: int, t: int) -> int:
    """term(k, 2**t - 1), by a power of A1 applied to V(0)."""
    if t < 0:
        raise DomainError(f"index must be >= 0, got {t}")
    return _sparse_values(k, (t,))[t]


def fast_term(k: int, n: int) -> int:
    """Product of sparse terms over the maximal 1-runs of n (k <= 7).

    Each distinct run length is evaluated once, by sorted jumps of A1
    (``_sparse_values``), and raised to the number of runs of that
    length: the gap width is 1 below k = 8, so this is the minimal
    representation's word with every block a single run.  Rejects
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
    if k == 1:
        return 1
    runs = Counter(map(len, filter(None, bin(n)[2:].split("0"))))
    values = _sparse_values(k, runs)
    result = 1
    for length, count in runs.items():
        result *= values[length] ** count
    return result


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
# representation (k = 2..8)


def _product(values: Iterable[int]) -> int:
    """Product in a balanced tree, so that big factors meet factors of
    similar size (CPython's Karatsuba multiplication pays off there)."""
    values = list(values) or [1]
    while len(values) > 1:
        values = [prod(values[i : i + 2]) for i in range(0, len(values), 2)]
    return values[0]


@cache
def _gap_width(square, initial: tuple[int, ...], functional: tuple[int, ...]) -> int:
    """The smallest g with square**g equal to the rank-one projector
    initial * functional: 2 at k = 8 and 1 below, for the chain word and
    the minimal representation alike."""
    projector = vec_outer(initial, functional)
    return next(g for g in range(1, len(square) + 1) if mat_pow(square, g) == projector)


# Runs of ones shorter than this after a zero are one cached matrix
# (``_run_matrix``); longer runs go through repeated squaring, where the
# big-int products outweigh the per-matrix Python calls.
_RUN_TABLE = 64


@cache
def _run_matrix(step, square, length: int) -> tuple[tuple[int, ...], ...]:
    """step**length . square: a zero followed by a run of length ones,
    built from the run one shorter."""
    if length == 0:
        return square
    return mat_mul(step, _run_matrix(step, square, length - 1))


def _block_state(block: str, step, square, initial: tuple[int, ...]) -> tuple[int, ...]:
    """The state of one block's bit word: step**L for a run of L ones,
    the squaring matrix at each zero.  A zero and the run of L < 64 ones
    after it are one matrix-vector product with ``_run_matrix``."""
    runs = block.split("0")
    v = _pow_vec(step, len(runs[0]), initial)
    for run in runs[1:]:
        if len(run) < _RUN_TABLE:
            v = mat_vec(_run_matrix(step, square, len(run)), v)
        else:
            v = _pow_vec(step, len(run), mat_vec(square, v))
    return v


def _word_state(n: int, initial, step, square, functional) -> tuple[int, ...]:
    """The state of n's bit word: read most significant bit first, the
    word applies step per 1-bit and square per 0-bit to initial.

    g zeros in a row, g from ``_gap_width``, apply the projector
    initial * functional, so the word is split at every g zeros into
    blocks (a longer zero run leaves its remainder at the head of the
    next block, and empty blocks of value 1).  Every block but the last
    contributes the scalar functional . state(block), and the last
    block's state is scaled by their product, taken in a balanced tree.
    Inside a block (``_block_state``) a zero and the run of L ones after
    it are one matrix, and only a leading run or one of 64 ones or more
    goes through repeated squaring.  Equal blocks are evaluated once.
    """
    *head, last = bin(n)[2:].split("0" * _gap_width(square, initial, functional))
    scale = _product(
        sum(map(mul, functional, _block_state(block, step, square, initial))) ** count
        for block, count in Counter(head).items()
    )
    return tuple(scale * x for x in _block_state(last, step, square, initial))


def matrix_state(n: int, k: int = 8) -> tuple[int, ...]:
    """The structural state at index n: ``_word_state`` with the step
    and squaring matrices that verify_transfer replays against sets, on
    5 components at k = 8 and 3 for k in 4..7."""
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    step, square = transfer_matrix(k).rows, squaring_matrix(k).rows
    return _word_state(n, initial_vector(k), step, square, cardinality_functional(k))


def matrix_term(n: int, k: int = 8) -> int:
    """term(k, n) = functional . matrix_state(n, k), exact for any n >= 0
    and k in 4..8."""
    return sum(map(mul, cardinality_functional(k), matrix_state(n, k)))


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
    fixed = k == 1 or sparse_term(k, int(limit).bit_length()) < 2**64
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
    """
    step, square = transfer_matrix(k).rows, squaring_matrix(k).rows
    values = _sweep_array(k, limit, max_elements)
    step_t = np.array(step, dtype=values.dtype).T
    square_t = np.array(square, dtype=values.dtype).T
    functional = np.array(cardinality_functional(k), dtype=values.dtype)
    initial = np.array([initial_vector(k)], dtype=values.dtype)
    values[0] = (initial @ functional)[0]
    states, lo = initial @ step_t, 1  # the states of lo..2 lo - 1, up to limit
    while lo <= limit:
        values[lo : lo + len(states)] = states @ functional
        lo *= 2
        parents = states[: max(limit - lo + 2, 0) // 2]
        states = np.empty((2 * len(parents), len(step)), dtype=values.dtype)
        states[0::2] = parents @ square_t
        states[1::2] = parents @ step_t
        states = states[: limit - lo + 1]
    return _unsigned(values)


# ---------------------------------------------------------------------------
# Rewriting system on binary expansions (k = 8)

# Base values and the 111-block rule are the k = 8 sparse recurrence.
_BASE_VALUES = {(1 << t) - 1: v for t, v in enumerate(_SPARSE_RECURRENCES[8][0])}

# Linear rules: child coefficients.  The gap split multiplies instead.
_RULE_COEFFS = {
    "strip_zeros": (1,),
    "suffix_01": (8,),
    "suffix_011": (1, 40),
    "block_111": _SPARSE_RECURRENCES[8][1],
    "suffix_011011": (47, -40),
    "suffix_101011": (9, -8),
    "prefix_10101": (9, -8),
}

CORE_RULES = ("strip_zeros", "gap_split", "suffix_01", "suffix_011", "block_111")
OPTIONAL_RULES = ("suffix_011011", "suffix_101011", "prefix_10101")


def _rule_children(rule: str, n, i):
    """The children of n under a rule, for a Python int or an int64
    array alike.  i is the rule's bit position: the number of trailing
    zeros, the low bit of the lowest 00 gap, or the number of bits below
    the 10101 prefix.  The other rules read the low bits of n."""
    if rule == "strip_zeros":
        return (n >> i,)
    if rule == "gap_split":
        return (n & ((1 << i) - 1), n >> (i + 2))
    if rule == "suffix_01":
        return (n >> 2,)
    if rule == "suffix_011":
        return (((n >> 3) << 1) | 1, n >> 3)
    if rule == "block_111":
        return (n >> 1, n >> 2, n >> 3)
    if rule == "suffix_011011":
        head = n >> 6
        return ((head << 3) | 0b011, head)
    if rule == "suffix_101011":
        head = n >> 6
        return ((head << 4) | 0b1011, (head << 2) | 0b11)
    # prefix_10101
    low = n & ((1 << i) - 1)
    return ((0b101 << i) | low, (1 << i) | low)


def _low_bit(x: int) -> int:
    """Index of the lowest set bit of x > 0."""
    return (x & -x).bit_length() - 1


def _select_rule(n: int, optional_rules: bool) -> tuple[str, tuple[int, ...]]:
    """Deterministic rule choice: trailing zeros first, then the lowest
    double-zero gap, then (optionally) the shortcut patterns, then the
    01 / 011 suffixes, finally the 111 block, which is then always the
    lowest three bits.  Every child has strictly fewer bits, so
    rewriting terminates.

    The gap is a bit test: bits i and i + 1 of n are both zero where
    z & (z >> 1) has bit i set, with z the complement of n within its
    bit length."""
    if n.bit_length() <= 2 and n in _BASE_VALUES:
        return "base", ()
    if not n & 1:
        return "strip_zeros", _rule_children("strip_zeros", n, _low_bit(n))
    length = n.bit_length()
    z = n ^ ((1 << length) - 1)
    gaps = z & (z >> 1)
    if gaps:
        return "gap_split", _rule_children("gap_split", n, _low_bit(gaps))
    if optional_rules:
        rule = None
        if length >= 6 and n & 0b111111 == 0b011011:
            rule = "suffix_011011"
        elif length >= 6 and n & 0b111111 == 0b101011:
            rule = "suffix_101011"
        elif length >= 5 and n >> (length - 5) == 0b10101:
            rule = "prefix_10101"
        if rule is not None:
            return rule, _rule_children(rule, n, length - 5)
    if n & 0b11 == 0b01:
        return "suffix_01", _rule_children("suffix_01", n, 0)
    if n & 0b111 == 0b011:
        return "suffix_011", _rule_children("suffix_011", n, 0)
    # odd, no 00 gap, not ending 01/011: the expansion must end in 111
    return "block_111", _rule_children("block_111", n, 0)


def _combine(rule: str, n: int, child_values: Sequence) -> int:
    if rule == "base":
        return _BASE_VALUES[n]
    if rule == "gap_split":
        return child_values[0] * child_values[1]
    coeffs = _RULE_COEFFS[rule]
    return sum(map(mul, coeffs, child_values))


def _level_rules(n: np.ndarray, length: int):
    """``_select_rule`` (core rules) for an int64 array n of indices of
    one bit length: yields (rule, mask of the indices it fires at, their
    children as arrays), in the rule order.  The positions are the same
    bit tests; the lowest set bit of x is read off x & -x, a power of
    two that frexp decomposes exactly."""
    z = n ^ ((1 << length) - 1)
    positions = {"strip_zeros": n, "gap_split": z & (z >> 1)}
    masks = (
        ("base", np.isin(n, list(_BASE_VALUES))),
        ("strip_zeros", n & 1 == 0),
        ("gap_split", positions["gap_split"] != 0),
        ("suffix_01", n & 0b11 == 0b01),
        ("suffix_011", n & 0b111 == 0b011),
        ("block_111", np.ones(len(n), dtype=bool)),
    )
    todo = np.ones(len(n), dtype=bool)
    for rule, mask in masks:
        hit = todo & mask
        todo &= ~mask
        if not hit.any():
            continue
        if rule == "base":
            yield rule, hit, ()
            continue
        i = 0
        if rule in positions:
            x = positions[rule][hit]
            i = np.frexp((x & -x).astype(np.float64))[1].astype(np.int64) - 1
        yield rule, hit, _rule_children(rule, n[hit], i)


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
        initial, a0, a1 = _representation(8)
        first = (1,) + (0,) * (len(initial) - 1)
        return _word_state(n, initial, a1, a0, first)[0]
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
# Value rules of the minimal representation (k = 1..8)


@cache
def _value_rules(k: int) -> tuple[tuple[str, tuple[tuple[int, int], ...]], ...]:
    """a_k's minimal linear representation, read as value rules for
    k in 2..8: (suffix, ((c, t), ...)) means
    a(m.suffix) = sum of c * a(m.1**t), for every m >= 0, where m.w is
    the index whose binary expansion is m's followed by the bits w.

    The rules cover every residue of n > 0 and each child has at most
    (n - 1) / 2 or, for the 0 suffix, n / 2.  Every coefficient is a
    table's: a(2m) = a(m) is ``strip_zeros``; for k = 2, 3 the odd rule
    is the sparse recurrence; for k = 4..7, a(4m + 1) = a(1) a(m) and
    the 11 rule is the sparse recurrence; at k = 8 the 01, 011 and 111
    rules are ``suffix_01``, ``suffix_011`` and ``block_111`` at bit 0.
    """
    if k not in _SPARSE_RECURRENCES:
        raise DomainError(f"sparse recurrences cover k in 2..8, got {k}")
    seeds, coeffs = _SPARSE_RECURRENCES[k]
    rules = [("0", _RULE_COEFFS["strip_zeros"], (0,))]
    if k <= 3:
        rules.append(("1", coeffs, (0,)))
    elif k <= 7:
        rules += [("01", seeds[1:2], (0,)), ("11", coeffs, (1, 0))]
    else:
        rules += [
            ("01", _RULE_COEFFS["suffix_01"], (0,)),
            ("011", _RULE_COEFFS["suffix_011"], (1, 0)),
            ("111", _RULE_COEFFS["block_111"], (2, 1, 0)),
        ]
    return tuple((suffix, tuple(zip(cs, ts))) for suffix, cs, ts in rules)


@cache
def _representation(k: int) -> tuple[tuple[int, ...], tuple, tuple]:
    """a_k's minimal linear representation (V(0), A0, A1) for k in 2..8,
    read off ``_value_rules(k)``.

    V(n) = (a(n), a(n.1), ..., a(n.1**(r-1))) has r = 1, 2, 3 components
    for k = 2..3, 4..7, 8, and V(2n + b) = A_b V(n).  Row i of A0 is the
    rule for the suffix 0.1**i; A1 shifts V up by one and its last row
    is the rule for 1**r.  V(0) = (a(0), a(1), a(3), ...) is the sparse
    table's seeds.  So a(n) is the first component of the word of n,
    and a(2**t - 1) that of A1**t V(0).
    """
    rules = dict(_value_rules(k))
    r = len(rules) - 1

    def row(suffix: str) -> tuple[int, ...]:
        coeffs = [0] * r
        for c, t in rules[suffix]:
            coeffs[t] = c
        return tuple(coeffs)

    a0 = tuple(row("0" + "1" * i) for i in range(r))
    a1 = mat_identity(r)[1:] + (row("1" * r),)
    return _SPARSE_RECURRENCES[k][0], a0, a1


def term_range(k: int, limit: int, *, max_elements: int = DEFAULT_ELEMENT_CAP) -> np.ndarray:
    """term(k, n) for all n in 0..limit and k in 1..8, as a uint64 array
    (an object array past 64 bits, ``_sweep_array``).

    Sweeps ``_value_rules`` from the one seed a(0) = 1, a doubling
    [lo, 2 lo - 1] at a time: every child of an index there lies below
    lo, so each rule is one strided-slice expression per doubling.
    At k = 1 every term is 1.
    """
    if not 1 <= k <= 8:
        raise DomainError(f"term_range covers k in 1..8, got {k}")
    values = _sweep_array(k, limit, max_elements)
    if k == 1:
        values.fill(1)
        return _unsigned(values)
    values[0] = _SPARSE_RECURRENCES[k][0][0]
    lo = 1
    while lo <= limit:
        hi = min(2 * lo - 1, limit)
        for suffix, children in _value_rules(k):
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


def _combination(coeffs: Sequence[int], rows: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """sum(coeffs[i] * rows[i]), componentwise."""
    return tuple(sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rows))


def matrix_identity_suite() -> IdentityReport:
    """Exact integer checks of the squaring/step matrix interplay (k=8).

    These identities are what let the matrix word skip the zero bits of
    n in blocks and are the backbone of the rewriting rules: the
    coefficients checked are the ones ``_RULE_COEFFS`` holds.
    """
    step = transfer_matrix(8).rows
    square = squaring_matrix(8).rows
    functional = cardinality_functional(8)
    initial = initial_vector(8)
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
            vec_mat(r1, square) == _combination(_RULE_COEFFS["suffix_01"], [functional]),
        ),
        (
            "two steps then squaring is the suffix_011 rule on one step and the functional",
            vec_mat(r2, square) == _combination(_RULE_COEFFS["suffix_011"], [r1, functional]),
        ),
        (
            "three steps collapse by the block_111 rule, the depth-3 recurrence",
            r3 == _combination(_RULE_COEFFS["block_111"], [r2, r1, functional]),
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
    step = transfer_matrix(k).rows  # rejects k outside 4..8
    functional = cardinality_functional(k)
    seeds, recurrence = _SPARSE_RECURRENCES[k]
    coeffs = (1,) + tuple(-c for c in recurrence)
    coeffs += (0,) * (len(seeds) + 1 - len(coeffs))
    rows = [functional]
    for _ in range(len(coeffs) - 1):
        rows.append(vec_mat(rows[-1], step))
    return not any(_combination(coeffs, reversed(rows)))
