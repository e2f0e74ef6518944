"""Closed-form evaluators: sparse recurrences, run products, the
five-state bit automaton, and the rewriting system."""

import io
import json
import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symnabla.chains import (
    cardinality_functional,
    initial_vector,
    mat_identity,
    mat_mul,
    mat_vec,
    squaring_matrix,
    transfer_matrix,
    vec_mat,
)
from symnabla.core import brute_card, power_card_sequence
from symnabla.errors import DomainError, SizeLimitError
from symnabla.recurrence import (
    CORE_RULES,
    OPTIONAL_RULES,
    ReductionTrace,
    _ORDER,
    _RULES,
    _combine,
    _gap_width,
    _level_rules,
    _representation,
    _select_rule,
    _word_state,
    annihilation_check,
    fast_term,
    gap_split_check,
    matrix_identity_suite,
    matrix_state,
    matrix_term,
    matrix_term_range,
    reduce_term,
    reduce_term_range,
    resolve_method,
    sparse_term,
    sparse_terms,
    term,
    term_range,
)

# cardinality at the all-ones exponent rows, k = 7 and k = 8
SPARSE7 = [1, 7, 43, 265]
SPARSE8 = [1, 8, 48, 296, 1784, 10744, 64536, 387448, 2325208, 13952696]

# spot values of the k = 8 sequence at assorted indices
CHECKPOINTS8 = [
    (0, 1),
    (3, 48),
    (7, 296),
    (11, 368),
    (15, 1784),
    (27, 2216),
    (59, 13624),
    (1883, 4997448),
]

# the k = 4 sequence, indices 0..16
ROW4 = [1, 4, 4, 12, 4, 16, 12, 40, 4, 16, 16, 48, 12, 48, 40, 128, 4]


def test_sparse_rows_match_frozen_values():
    assert [sparse_term(7, t) for t in range(4)] == SPARSE7
    assert [sparse_term(8, t) for t in range(10)] == SPARSE8


def test_sparse_matches_brute_all_k():
    for k in range(2, 9):
        for t in range(5):
            assert sparse_term(k, t) == brute_card(k, 2**t - 1)


def test_sparse_domain_errors():
    assert sparse_term(1, 3) == 1  # k = 1 is a row of the table: every term is 1
    with pytest.raises(DomainError):
        sparse_term(9, 3)
    with pytest.raises(DomainError):
        sparse_term(8, -1)


def test_fast_term_row4():
    assert [fast_term(4, n) for n in range(17)] == ROW4


def test_fast_term_matches_brute():
    for k in range(2, 8):
        seq = power_card_sequence(k, 64)
        assert [fast_term(k, n) for n in range(65)] == seq
    # run products also hold trivially at k = 1
    assert fast_term(1, 12345) == 1


def test_fast_term_rejects_k8():
    """Run products fail at k = 8: index 11 is 368, the product gives 384."""
    with pytest.raises(DomainError) as err:
        fast_term(8, 11)
    assert "n=11" in str(err.value)
    assert brute_card(8, 11) == 368
    assert sparse_term(8, 1) * sparse_term(8, 2) == 384


def test_fast_term_huge_indices():
    # power-of-two indices collapse to k at any size
    for k in range(1, 8):
        assert fast_term(k, 2**50) == k
    # one long run: index 2^40 - 1 is forty ones
    assert fast_term(2, 2**40 - 1) == sparse_term(2, 40)


def test_gap_split_known_cases():
    # any zero gap splits the value for k <= 7
    assert gap_split_check(7, 3, 3, 2)
    assert gap_split_check(4, 1, 1, 2)
    assert gap_split_check(6, 5, 3, 3)
    # k = 8 needs a two-zero gap: 0b10011 splits, 0b1011 does not
    assert gap_split_check(8, 3, 1, 3)
    assert gap_split_check(8, 1, 3, 2)
    assert not gap_split_check(8, 3, 1, 2)


def test_gap_split_seeded_sweep():
    rng = random.Random(20240817)
    for _ in range(200):
        k = rng.randint(2, 7)
        s = rng.randint(1, 4)
        alpha = rng.randint(0, 2**s - 1)
        beta = rng.randint(0, 15)
        assert gap_split_check(k, alpha, beta, s)


def test_gap_split_domain_errors():
    with pytest.raises(DomainError):
        gap_split_check(4, 8, 1, 3)  # alpha does not fit below the gap
    with pytest.raises(DomainError):
        gap_split_check(4, -1, 1, 3)
    with pytest.raises(DomainError):
        gap_split_check(4, 1, -1, 3)


def test_matrix_term_checkpoints():
    for n, want in CHECKPOINTS8:
        assert matrix_term(n) == want


def test_matrix_state_evolution():
    assert matrix_state(0) == (0, 0, 0, 0, 1)
    assert matrix_state(1) == (6, 2, 0, 0, 2)
    assert matrix_state(2) == (0, 0, 6, 2, 2)
    assert matrix_state(3) == (32, 10, 12, 4, 4)
    # the functional reads components 0, 2, 4
    v = matrix_state(27)
    assert v[0] + v[2] + v[4] == 2216


def walk_state(n, k=8):
    """The matrix word one bit at a time, most significant first: the
    step matrix per 1-bit, the squaring matrix per 0-bit."""
    step, square = transfer_matrix(k).rows, squaring_matrix(k).rows
    v = initial_vector(k)
    for bit in bin(n)[2:]:
        v = mat_vec(step if bit == "1" else square, v)
    return v


def word_inputs():
    rng = random.Random(20261018)
    ns = list(range(1024))  # n = 0 and every short word
    # single zeros, zero runs of exactly 2, zero runs of 3 or more
    ns += [0b1011, 0b1010101, 0b11011011, 0b1001, 0b11001, 0b1001001, 0b111001110011]
    ns += [0b10001, 0b1000001, 0b11000111, (1 << 40) + 1, 0b1101 << 50 | 0b1011]
    for bits in (2, 5, 17, 64, 300, 1000, 3000):
        ones = (1 << bits) - 1
        runs = ones
        for pos in rng.sample(range(bits - 1), max(1, bits // 48)):
            runs &= ~(1 << pos)  # long runs broken by sparse single zeros
        ns += [ones, runs | (1 << (bits - 1)), (1 << (bits - 1)) | rng.getrandbits(bits - 1)]
    # trailing zeros, one to more than the gap width
    ns += [m << shift for m in ns[1020:1040] for shift in (1, 2, 3, 7)]
    return ns


def test_matrix_state_equals_the_per_bit_walk():
    ns = word_inputs()
    for k in (4, 5, 6, 7, 8):
        for n in ns:
            assert matrix_state(n, k) == walk_state(n, k), (k, n)
            if k < 8:
                assert fast_term(k, n) == matrix_term(n, k), (k, n)


def test_matrix_term_equals_reduce_on_long_random_words():
    rng = random.Random(5)
    for bits in (1000, 3000, 7000, 12000, 20000):
        n = (1 << (bits - 1)) | rng.getrandbits(bits - 1)
        assert matrix_term(n) == reduce_term(n), bits


def run_table_words():
    """Words whose blocks hold, after a single zero, runs of every length
    1..70, on both sides of the run table's bound of 64: ascending,
    descending and shuffled; cut by 00 and 000 gaps into blocks (a 000
    gap leaves a zero at the head of the next block); with trailing
    zeros; with a last block that ends in a run of 63, 64 or 70; and
    with blocks that open with runs of every length 1..70, or are one
    run of 63, 64 or 70 ones."""
    rng = random.Random(20261019)
    lengths = list(range(1, 71))
    shuffled = rng.sample(lengths, len(lengths))
    words = []
    for order in (lengths, lengths[::-1], shuffled):
        words.append("1" + "".join("0" + "1" * length for length in order))
    groups = [shuffled[i : i + 7] for i in range(0, 70, 7)]
    for gap in ("00", "000"):
        words.append(gap.join("1" + "".join("0" + "1" * length for length in group) for group in groups))
    words += [word + "0" * zeros for word in words[:2] for zeros in (1, 2, 3, 5)]
    for tail in (63, 64, 70):
        words.append(words[2] + "00" + "11" + "0" + "1" * tail)
        words.append(words[2] + "0" + "1" * tail)
    words.append("00".join("1" * length + "01" for length in shuffled))
    words += ["1" * length for length in (63, 64, 70)]
    return [int(word, 2) for word in words]


def representation_walk(n, k):
    """The minimal representation one bit at a time, most significant
    first: A1 per 1-bit and A0 per 0-bit, applied to V(0)."""
    v, a0, a1 = _representation(k)
    for bit in bin(n)[2:]:
        v = mat_vec(a1 if bit == "1" else a0, v)
    return v


def test_run_table_equals_the_per_bit_walk():
    """A zero and the run of L < 64 ones after it are one cached matrix
    in ``_block_state``, and longer runs go through repeated squaring;
    both words must still be the per-bit walk."""
    words = run_table_words()
    for k in range(4, 9):
        for n in words:
            assert matrix_state(n, k) == walk_state(n, k), (k, n)
    for k in range(2, 9):
        initial, a0, a1 = _representation(k)
        first = mat_identity(len(initial))[0]
        for n in words:
            assert _word_state(n, initial, a1, a0, first) == representation_walk(n, k), (k, n)


def test_term_at_k8_equals_the_chain_word_on_the_huge_index_grid():
    """term(8, n) runs the minimal representation's word, so it is held
    to the 5-state chain word on huge_index's patterns and bit lengths."""
    rng = random.Random(20261020)
    for bits in (round(64 * 128 ** (j / 6)) for j in range(7)):
        for n in long_words(bits, rng):
            assert term(8, n) == matrix_term(n), (bits, n)


def test_sparse_jumps_equal_the_recurrence_walk():
    """Jumps and the step-by-step walk both read A1 of the minimal
    representation, so each is also held to an engine that does not:
    k**t at k = 2, 3 and the chain word for k = 4..8."""
    for k in range(2, 9):
        walk = list(islice(sparse_terms(k), 301))
        assert [sparse_term(k, t) for t in range(301)] == walk
    for k in range(2, 9):
        walk = list(islice(sparse_terms(k), 5001))
        for t in (0, 1, 2, 3, 4, 31, 256, 1000, 4999, 5000):
            n = (1 << t) - 1
            other = k**t if k <= 3 else matrix_term(n, k)
            assert sparse_term(k, t) == walk[t] == other, (k, t)
            if k <= 7:
                assert fast_term(k, n) == other, (k, t)


def _det(rows):
    """Integer determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(len(rows))
    )


def test_representation_is_the_minimised_chain_word():
    """(V(0), A0, A1) is the chain word minimised, in integers.  P, the
    rows f, f.T, ..., f.T**(r-1) of the functional f and the step matrix
    T, maps a chain state to V: P.T = A1.P, P.Q = A0.P for the squaring
    matrix Q, and P.initial = V(0).  Both words cut at gaps of the same
    width.  r reachable vectors V(n) are independent, and the rows
    e0.A1**i are the unit rows, so no smaller representation exists.
    Below k = 4 there is no chain word, and the rank-1 word is
    k**popcount(n)."""
    for k in range(4, 9):
        initial, a0, a1 = _representation(k)
        r = len(initial)
        assert r == (3 if k == 8 else 2)
        step, square = transfer_matrix(k).rows, squaring_matrix(k).rows
        rows = [cardinality_functional(k)]
        for _ in range(r - 1):
            rows.append(vec_mat(rows[-1], step))
        assert mat_mul(rows, step) == mat_mul(a1, rows), k
        assert mat_mul(rows, square) == mat_mul(a0, rows), k
        assert mat_vec(rows, initial_vector(k)) == initial, k
        first = mat_identity(r)[0]
        width = _gap_width(a0, initial, first)
        assert width == _gap_width(square, initial_vector(k), cardinality_functional(k))
        assert width == (2 if k == 8 else 1)
        reached = [_word_state(n, initial, a1, a0, first) for n in range(r)]
        assert _det(reached) != 0, k
        unit_rows = [first]
        for _ in range(r - 1):
            unit_rows.append(vec_mat(unit_rows[-1], a1))
        assert tuple(unit_rows) == mat_identity(r), k
        assert a1[:-1] == mat_identity(r)[1:], k  # unit shifts, as sparse_terms steps
    rng = random.Random(20261023)
    for k in (2, 3):
        initial, a0, a1 = _representation(k)
        assert len(initial) == 1 and a1[:-1] == ()
        assert _gap_width(a0, initial, (1,)) == 1
        for n in list(range(1 << 10)) + [rng.getrandbits(bits) for bits in (64, 500, 3000)]:
            assert _word_state(n, initial, a1, a0, (1,)) == (k ** bin(n).count("1"),), (k, n)


def test_matrix_term_matches_brute():
    seq = power_card_sequence(8, 128)
    assert [matrix_term(n) for n in range(129)] == seq


def test_matrix_term_range_agrees_with_scalar():
    arr = matrix_term_range(2048)
    assert arr.dtype == np.uint64
    assert len(arr) == 2049
    assert [int(x) for x in arr] == [matrix_term(n) for n in range(2049)]
    for k in (4, 5, 6, 7):
        scalar = [matrix_term(n, k) for n in range(2049)]
        assert [int(x) for x in matrix_term_range(2048, k)] == scalar
        assert scalar == [fast_term(k, n) for n in range(2049)]


def _word_row(k, bits):
    """The functional times the chain word that appends bits to an
    index: state(2m + b) = A_b state(m), so a(m.bits) is this row times
    state(m) for every m >= 1."""
    row = cardinality_functional(k)
    for bit in reversed(bits):
        row = vec_mat(row, (transfer_matrix(k) if bit == "1" else squaring_matrix(k)).rows)
    return row


def row_rules(k):
    """(suffix, ((c, t), ...)) for each row of ``_representation(k)``,
    read as the value rule a(m.suffix) = sum of c * a(m.1**t): row i of
    A0 is the rule for the suffix 0.1**i and A1's last row the rule for
    1**r, with a child at each nonzero column t, t descending."""
    _, a0, a1 = _representation(k)
    suffixes = ["0" + "1" * i for i in range(len(a0))] + ["1" * len(a1)]
    return [
        (suffix, tuple((row[t], t) for t in reversed(range(len(row))) if row[t]))
        for suffix, row in zip(suffixes, a0 + a1[-1:])
    ]


def test_value_rules_are_identities_of_the_chain_word():
    """Each row of the minimal representation, read as the value rule
    a(m.suffix) = sum of c * a(m.1**t), is an exact identity of the word
    verify_transfer replays against sets, which proves it for every
    m >= 1; its m = 0 instance is checked on the brute oracle.  For
    k = 4..7 the rules are f.Q = f, f.S.Q = a(1) f and the 11 row; at
    k = 8 the 01 row is 8 f and the 011 and 111 rows are suffix_011 and
    block_111.  Every linear rule of the k = 8 rewriting system, the
    optional shortcuts included, is proved on the same word."""
    suffixes = {k: ("0", "01", "11") for k in range(4, 8)} | {8: ("0", "01", "011", "111")}
    for k in range(4, 9):
        rules = row_rules(k)
        assert tuple(suffix for suffix, _ in rules) == suffixes[k]
        assert _word_row(k, "0") == cardinality_functional(k)
        assert _word_row(k, "01") == tuple(brute_card(k, 1) * x for x in cardinality_functional(k))
        for suffix, children in rules:
            rows = [tuple(c * x for x in _word_row(k, "1" * t)) for c, t in children]
            assert _word_row(k, suffix) == tuple(map(sum, zip(*rows)))
            m0 = sum(c * brute_card(k, (1 << t) - 1) for c, t in children)
            assert brute_card(k, int(suffix, 2)) == m0
    rules = dict(row_rules(8))
    assert rules["011"] == tuple(zip(_RULES["suffix_011"][2], (1, 0)))
    assert rules["111"] == tuple(zip(_RULES["block_111"][2], (2, 1, 0)))
    # Every linear rule of the k = 8 rewriting system: a suffix rule
    # rewrites m.w into children m.u, each u read off the rule's own
    # children at m = 1 and m = 13, so the rule is a(m.w) = sum of
    # c * a(m.u) for every m >= 1, and m = 0 on the brute oracle.
    suffixes = {
        "strip_zeros": "0",
        "suffix_01": "01",
        "suffix_011": "011",
        "block_111": "111",
        "suffix_011011": "011011",
        "suffix_101011": "101011",
    }
    linear = [rule for rule, (_, _, coeffs) in _RULES.items() if coeffs is not None]
    assert sorted(linear) == sorted([*suffixes, "prefix_10101"])
    for rule, w in suffixes.items():
        fires, children, coeffs = _RULES[rule]
        kids = []
        for m in ("1", "1101"):
            n = int(m + w, 2)
            assert fires(n, n.bit_length()), rule
            words = [bin(c)[2:] for c in children(n, n.bit_length())]
            assert all(word.startswith(m) for word in words), rule
            kids.append([word[len(m) :] for word in words])
        assert kids[0] == kids[1] and len(kids[0]) == len(coeffs), rule
        rows = [tuple(c * x for x in _word_row(8, u)) for c, u in zip(coeffs, kids[0])]
        assert _word_row(8, w) == tuple(map(sum, zip(*rows))), rule
        m0 = sum(c * brute_card(8, int(u or "0", 2)) for c, u in zip(coeffs, kids[0]))
        assert brute_card(8, int(w, 2)) == m0, rule
    # prefix_10101 rewrites 10101.x into 101.x and 1.x: the states at the
    # prefixes themselves obey the rule, and the word of x is linear
    _, children, coeffs = _RULES["prefix_10101"]
    kids = children(0b10101, 5)
    assert kids == (0b101, 0b1)
    states = [tuple(c * x for x in matrix_state(kid)) for c, kid in zip(coeffs, kids)]
    assert matrix_state(0b10101) == tuple(map(sum, zip(*states)))


def test_value_rules_cover_every_index_once():
    for k in range(1, 9):
        for n in range(1, 1 << 10):
            hits = [s for s, _ in row_rules(k) if n % (1 << len(s)) == int(s, 2)]
            assert len(hits) == 1


def test_value_rules_read_only_earlier_doublings():
    """A rule's children m.1**t have t below the suffix length, so every
    child of an index n >= lo lies below lo: term_range fills a doubling
    from earlier ones only."""
    for k in range(1, 9):
        rules = row_rules(k)
        for suffix, children in rules:
            assert children and all(0 <= t < len(suffix) for _, t in children), (k, suffix)
        for n in range(1, 1 << 10):
            lo = 1 << (n.bit_length() - 1)
            for suffix, children in rules:
                if n % (1 << len(suffix)) == int(suffix, 2):
                    m = n >> len(suffix)
                    assert all(((m + 1) << t) - 1 < lo for _, t in children), (k, n)


def test_representation_at_k8_is_the_literal_table():
    """V(0) is a(0), a(1), a(3); A0 is strip_zeros, suffix_01 and
    suffix_011 at bit 0; A1 shifts and ends in block_111 reversed."""
    assert _representation(8) == (
        (1, 8, 48),
        ((1, 0, 0), (8, 0, 0), (40, 1, 0)),
        ((0, 1, 0), (0, 0, 1), (-24, -2, 7)),
    )


def test_term_range_equals_the_other_engines():
    for k in range(1, 9):
        assert term_range(k, 299).tolist() == power_card_sequence(k, 299)
    for k in range(1, 4):
        assert term_range(k, 4096).tolist() == [fast_term(k, n) for n in range(4097)]
    for k in range(4, 9):
        assert (term_range(k, 2**16) == matrix_term_range(2**16, k)).all()
    for limit in range(9):
        assert term_range(8, limit).tolist() == [matrix_term(n) for n in range(limit + 1)]


def test_sweeps_are_exact_across_23_bits():
    """Every sweep is exact at 23 bits, one past the 22 of the 2**22-term
    tests, and at 24 bits k = 7's top values pass 2**63: int64 wraps
    them, and the uint64 view reads them exactly."""
    limit = (1 << 23) - 1
    sample = random.Random(23).sample(range(limit + 1), 300)
    for k in (7, 8):
        swept = term_range(k, limit)
        assert swept.dtype == np.uint64 and int(swept[-1]) == sparse_term(k, 23)
        assert [int(swept[n]) for n in sample] == [term(k, n) for n in sample]
        assert (matrix_term_range(limit, k) == swept).all()
        if k == 8:
            assert (reduce_term_range(limit) == swept).all()
    swept = term_range(7, (1 << 24) - 1)
    assert int(swept[-1]) == sparse_term(7, 24) >= 2**63
    sample = random.Random(24).sample(range(1 << 23, 1 << 24), 300)
    assert [int(swept[n]) for n in sample] == [fast_term(7, n) for n in sample]


SWEEPS8 = (
    lambda limit, **kw: term_range(8, limit, **kw),
    lambda limit, **kw: matrix_term_range(limit, 8, **kw),
    reduce_term_range,
)


def test_sweeps_refuse_bad_limits_and_the_cap():
    for sweep in SWEEPS8:
        with pytest.raises(DomainError, match="must be >= 0"):
            sweep(-1)
        # the cap refuses a sweep before it allocates
        with pytest.raises(SizeLimitError, match="17179869185 terms, over the cap 16777216"):
            sweep(1 << 34)
        with pytest.raises(SizeLimitError, match="101 terms, over the cap 100"):
            sweep(100, max_elements=100)
        assert len(sweep(99, max_elements=100)) == 100
    for k in (1, 2, 8):
        with pytest.raises(DomainError, match="must be >= 0"):
            term_range(k, -1)
    for k in (0, 9):
        with pytest.raises(DomainError, match="k in 1..8"):
            term_range(k, 5)
    for k in (3, 9):
        with pytest.raises(DomainError):
            matrix_term_range(8, k)
    assert term_range(1, 2**20).tolist() == [1] * (2**20 + 1)


def test_sweep_width_follows_the_value_bound(monkeypatch):
    from symnabla import recurrence

    # a limit of L bits sweeps in int64 while sparse_term(k, L) < 2**64:
    # the first L past it, as the README lists them
    first_wide = {2: 64, 3: 41, 4: 38, 5: 30, 6: 28, 7: 25, 8: 25}
    for k, bits in first_wide.items():
        assert sparse_term(k, bits - 1) < 2**64 <= sparse_term(k, bits)
    # with the bound patched to pass 2**64 at 10 bits, 512 is the first
    # limit on Python ints
    real = recurrence.sparse_term
    monkeypatch.setattr(recurrence, "sparse_term", lambda k, t: 2**64 if t >= 10 else real(k, t))
    expected = [term(8, n) for n in range(513)]
    for sweep in SWEEPS8:
        assert sweep(511).dtype == np.uint64
        wide = sweep(512)
        assert wide.dtype == object and wide.tolist() == expected


def test_doubling_invariance():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(0, 10**9)
        assert matrix_term(2 * n) == matrix_term(n)


def test_reduce_term_checkpoints():
    for n, want in CHECKPOINTS8:
        assert reduce_term(n) == want
        assert reduce_term(n, optional_rules=True) == want


def test_reduce_matches_matrix_on_range():
    arr = matrix_term_range(4096)
    cache = {}
    for n in range(4097):
        assert reduce_term(n, cache=cache) == int(arr[n])


def test_reduce_optional_rules_agree():
    cache_a, cache_b = {}, {}
    for n in range(2049):
        assert reduce_term(n, cache=cache_a) == reduce_term(
            n, optional_rules=True, cache=cache_b
        )


def test_reduce_rejects_negative():
    with pytest.raises(DomainError):
        reduce_term(-5)


def select_rule_by_strings(n, optional_rules):
    """The rule choice read off the string bin(n), the reference for the
    bit tests of _select_rule and the sweep."""
    if n in (0, 1, 3):
        return "base", ()
    s = bin(n)[2:]
    if s[-1] == "0":
        shift = len(s) - len(s.rstrip("0"))
        return "strip_zeros", (n >> shift,)
    p = s.rfind("00")
    if p != -1:
        i = len(s) - 2 - p  # low index of the gap; i >= 1 since n is odd
        return "gap_split", (n & ((1 << i) - 1), n >> (i + 2))
    if optional_rules:
        if s.endswith("011011"):
            head = n >> 6
            return "suffix_011011", ((head << 3) | 0b011, head)
        if s.endswith("101011"):
            head = n >> 6
            return "suffix_101011", ((head << 4) | 0b1011, (head << 2) | 0b11)
        if len(s) >= 5 and s.startswith("10101"):
            t = len(s) - 5
            low = n & ((1 << t) - 1)
            return "prefix_10101", ((0b101 << t) | low, (1 << t) | low)
    if s.endswith("01"):
        return "suffix_01", (n >> 2,)
    if s.endswith("011"):
        return "suffix_011", (((n >> 3) << 1) | 1, n >> 3)
    # odd, no 00 gap, not ending 01/011: the expansion must end in 111
    p = s.rfind("111")
    i = len(s) - 3 - p
    low = n & ((1 << i) - 1)
    high = n >> (i + 3)
    return "block_111", (
        (high << (i + 2)) | (0b11 << i) | low,
        (high << (i + 1)) | (1 << i) | low,
        (high << i) | low,
    )


def test_bitwise_rule_choice_equals_the_string_reference():
    rng = random.Random(20261019)
    long_words = [(1 << (b - 1)) | rng.getrandbits(b - 1) for b in (rng.randint(1, 3000) for _ in range(3000))]
    # words without a 00 gap reach the suffix and block tests
    long_words += [int(bin(n)[2:].replace("00", "01"), 2) for n in long_words[:1000]]
    for optional_rules in (False, True):
        for n in list(range(1 << 15)) + long_words:
            assert _select_rule(n, optional_rules) == select_rule_by_strings(n, optional_rules), n


def test_sweep_picks_the_rules_of_select_rule():
    """Each level's masks fire the rule _select_rule picks, with the same
    children, for every index below 2**15."""
    for length in range(16):
        n = np.arange((1 << length) >> 1, 1 << length, dtype=np.int64)
        seen = np.zeros(len(n), dtype=int)
        for rule, hit, children in _level_rules(n, length):
            seen += hit
            columns = list(zip(*(c.tolist() for c in children))) or [()] * int(hit.sum())
            for m, kids in zip(n[hit].tolist(), columns):
                assert (rule, kids) == select_rule_by_strings(m, False), m
        assert (seen == 1).all()


def test_rule_order_is_the_public_rule_order():
    """_ORDER tries the base values, then CORE_RULES in order, with the
    OPTIONAL_RULES between gap_split and suffix_01, and holds each rule's
    own test and children from _RULES."""
    plain = ["base", *CORE_RULES]
    optional = plain[:3] + list(OPTIONAL_RULES) + plain[3:]
    assert [rule for rule, _, _ in _ORDER[False]] == plain
    assert [rule for rule, _, _ in _ORDER[True]] == optional
    assert sorted(_RULES) == sorted(optional)
    for rule, fires, children in _ORDER[True]:
        assert (fires, children) == _RULES[rule][:2]


def test_reduce_sweep_equals_per_index_rewriting():
    for limit in (0, 1, 2, 3, 2**17):
        cache = {}
        got = reduce_term_range(limit)
        assert got.dtype == np.uint64 and len(got) == limit + 1
        assert got.tolist() == [reduce_term(n, cache=cache) for n in range(limit + 1)], limit


def test_reduce_sweep_runs_without_numpy2_functions(monkeypatch):
    # the declared floor is numpy 1.24, which has no np.bitwise_count
    expected = reduce_term_range(2**13).tolist()
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert reduce_term_range(2**13).tolist() == expected


def test_reduce_sweep_equals_the_matrix_sweep():
    assert (reduce_term_range(10**6) == matrix_term_range(10**6)).all()


def reduce_depth_first(n, *, trace=False, optional_rules=False, cache=None):
    """The rewriting system evaluated depth first from a pending stack,
    memoised in dicts keyed by n: the reference for reduce_term's two
    passes over bit lengths, with the same signature and results."""
    cache = {} if cache is None else cache
    rules = {}
    pending = [n]
    while pending:
        m = pending[-1]
        if m in cache:
            pending.pop()
            continue
        if m not in rules:
            rules[m] = _select_rule(m, optional_rules)
        rule, children = rules[m]
        missing = [c for c in children if c not in cache]
        if missing:
            pending.extend(missing)
            continue
        cache[m] = _combine(rule, m, tuple(cache[c] for c in children))
        pending.pop()
    if not trace:
        return cache[n]
    nodes = {}
    pending = [n]
    while pending:
        m = pending[-1]
        if m in nodes:
            pending.pop()
            continue
        if m not in rules:  # evaluated by an earlier call sharing the cache
            rules[m] = _select_rule(m, optional_rules)
        rule, children = rules[m]
        missing = [c for c in children if c not in nodes]
        if missing:
            pending.extend(missing)
            continue
        nodes[m] = ReductionTrace(m, rule, cache[m], tuple(nodes[c] for c in children))
        pending.pop()
    return cache[n], nodes[n]


def long_words(bits, rng):
    """All ones, long runs of ones broken by sparse single zeros (the
    huge_index patterns), and a random word, each of the given length."""
    ones = (1 << bits) - 1
    runs = ones
    for pos in rng.sample(range(1, bits - 1), max(1, bits // 48)):
        runs &= ~(1 << pos)
    return ones, runs, (1 << (bits - 1)) | rng.getrandbits(bits - 1)


def test_reduce_term_equals_the_depth_first_reference():
    for optional_rules in (False, True):
        want, shared = {}, {}
        for n in range(1 << 14):
            value = reduce_depth_first(n, optional_rules=optional_rules, cache=want)
            assert reduce_term(n, optional_rules=optional_rules) == value, n
            assert reduce_term(n, optional_rules=optional_rules, cache=shared) == value, n
        # a shared cache ends up holding the same nodes under both evaluators
        assert shared == want
    rng = random.Random(20261020)
    for bits in (64, 65, 500, 1999, 4096):
        for n in long_words(bits, rng):
            for optional_rules in (False, True):
                want = reduce_depth_first(n, optional_rules=optional_rules)
                assert reduce_term(n, optional_rules=optional_rules) == want, (bits, n)


def test_trace_equals_the_depth_first_reference():
    # the JSON tree is compared under the core rules, which the CLI prints by default
    for optional_rules, cache, limit in ((False, None, 1 << 12), (True, None, 1 << 12), (False, {}, 1 << 10)):
        for n in range(limit):
            value, got = reduce_term(n, trace=True, optional_rules=optional_rules, cache=cache)
            _, want = reduce_depth_first(n, trace=True, optional_rules=optional_rules)
            assert value == want.value
            assert got.to_text() == want.to_text(), n
            if not optional_rules and cache is None:
                assert got.to_json() == want.to_json(), n


def test_all_ones_derivation_has_one_node_per_length():
    bits = 4096
    value, trace = reduce_term((1 << bits) - 1, trace=True)
    dag = trace._post_order(lambda node, done: node.n)
    assert sorted(dag.values()) == [(1 << j) - 1 for j in range(bits + 1)]
    assert value == sparse_term(8, bits)
    _, runs, _ = long_words(bits, random.Random(301))
    assert reduce_term(runs) == matrix_term(runs)


def test_plain_reduce_term_equals_the_derivation():
    """The minimal representation's word gives the value the derivation
    does, under both rule sets, since the optional rules never change a
    value."""
    for n in range(1 << 14):
        value = reduce_term(n)
        assert value == reduce_term(n, trace=True)[0] == reduce_term(n, cache={}), n
        assert value == reduce_term(n, optional_rules=True), n
    rng = random.Random(20261018)
    for bits in (64, 65, 127, 500, 1999, 4096, 8192):
        for n in long_words(bits, rng):
            assert reduce_term(n) == reduce_term(n, cache={}) == matrix_term(n), (bits, n)


def test_plain_reduce_term_across_zero_runs():
    """Zero runs of every length 1..5 split the word differently: a 00
    pair cuts a block, and an odd run leaves one 0 at the head of the
    next block (or a block of its own at the end of n)."""
    rng = random.Random(20261021)
    words = []
    for zeros in range(1, 6):
        gap = "0" * zeros
        words += [
            "1" + gap + "1",  # the run right below the leading 1
            "1" + gap + "111",
            "1011" + gap,  # trailing
            "111" + gap + "11" + gap + "1",
            "1" + gap + "1" + gap + "1" + gap + "1",
        ]
    for _ in range(300):
        parts = ["1" * rng.randint(1, 9) + "0" * rng.randint(1, 5) for _ in range(rng.randint(1, 12))]
        words.append("".join(parts)[: rng.randint(1, 120)].rstrip("0") or "1")
        words.append("".join(parts))
    for word in words:
        n = int(word, 2)
        assert reduce_term(n) == reduce_term(n, cache={}) == matrix_term(n), word


def test_plain_reduce_term_on_all_ones_is_the_sparse_recurrence():
    """The plain value and the walk both read A1; the derivation, with a
    cache shared along j, reads block_111 instead."""
    cache = {}
    for j, want in enumerate(islice(sparse_terms(8), 3001)):
        n = (1 << j) - 1
        assert reduce_term(n) == want == reduce_term(n, cache=cache), j
    assert want == sparse_term(8, 3000)


def test_block_111_fires_only_at_bit_0():
    """block_111 is reached only when n is odd, has no 00 gap and ends
    neither in 01 nor in 011, so n ends in 111 and the block is there."""
    rng = random.Random(20261022)
    words = list(range(1 << 14))
    for bits in (64, 500, 3000):
        for n in long_words(bits, rng):
            words += [n, int(bin(n)[2:].replace("00", "01"), 2)]
    for optional_rules in (False, True):
        for n in words:
            rule, kids = _select_rule(n, optional_rules)
            if rule == "block_111":
                assert n & 7 == 7 and kids == (n >> 1, n >> 2, n >> 3), n


def test_int64_guard_bounds_hold():
    """The bound behind the sweeps' choice of int64: a(n) is at most
    sparse_term(k, L) for every n < 2**L.

    For k <= 7, a(n) is the product of the sparse terms of n's maximal
    runs of ones, so the largest a(n) below 2**L is the largest product
    over run lengths l_1, ..., l_r with l_1 + ... + l_r + r - 1 <= L.  A
    dynamic program over L finds it exactly: the top run has some length
    l, and the bits below it and its zero hold L - l - 1 more.  At k = 8
    the chain word bounds it (``_sweep_array``)."""
    for k in range(2, 8):
        sparse = list(islice(sparse_terms(k), 70))
        best = [1]  # best[L]: the largest a(n) over n < 2**L
        for length in range(1, 70):
            best.append(max(sparse[l] * best[max(length - l - 1, 0)] for l in range(1, length + 1)))
        assert best == sparse, k
    step, square = transfer_matrix(8).rows, squaring_matrix(8).rows
    assert min(map(min, step + square)) >= 0
    assert min(initial_vector(8)) >= 0 and min(cardinality_functional(8)) >= 0
    assert all(q <= s for q_row, s_row in zip(square, step) for q, s in zip(q_row, s_row))
    for k in range(2, 9):
        values = term_range(k, (1 << 14) - 1).tolist()
        assert all(v <= sparse_term(k, n.bit_length()) for n, v in enumerate(values)), k


def test_trace_for_27():
    """27 = 0b11011 peels one suffix rule, then a triple block."""
    value, trace = reduce_term(27, trace=True)
    assert value == 2216
    assert trace.rule == "suffix_011"
    assert trace.value == 2216
    # the suffix rule rewrites m*8+3 in terms of m*2+1 and m
    first, second = trace.children
    assert (first.n, first.rule, first.value) == (7, "block_111", 296)
    assert (second.n, second.rule, second.value) == (3, "base", 48)
    assert first.value + 40 * second.value == 2216


def test_trace_structure_and_leaves():
    rng = random.Random(7)
    samples = list(range(1025)) + [rng.randint(1025, 10**5) for _ in range(300)]
    cache = {}
    for n in samples:
        value, trace = reduce_term(n, trace=True, cache=cache)
        # leaves are the irreducible base cases
        for leaf in trace.leaves():
            assert leaf.n in (0, 1, 3)
            assert leaf.rule == "base"
            assert leaf.children == ()
        # every node's value recomputes independently
        for node in trace.iter_nodes():
            assert node.value == reduce_term(node.n)
            if node.rule != "base":
                assert node.children
        assert value == trace.value == matrix_term(n)


def test_trace_rule_names_come_from_the_rule_sets():
    valid = set(CORE_RULES) | set(OPTIONAL_RULES) | {"base"}
    _, trace = reduce_term(1883, trace=True, optional_rules=True)
    used = {node.rule for node in trace.iter_nodes()}
    assert used <= valid
    assert "suffix_011011" in used  # the long suffix rule fires on 0b11101011011
    _, plain = reduce_term(1883, trace=True)
    plain_used = {node.rule for node in plain.iter_nodes()}
    assert plain_used <= set(CORE_RULES) | {"base"}
    assert reduce_term(1883) == 4997448


def test_trace_serialisation():
    _, trace = reduce_term(27, trace=True)
    d = trace.as_dict()
    assert d["n"] == 27 and d["value"] == 2216
    assert d["bits"] == bin(27)[2:]
    json.dumps(d)  # must be JSON clean
    lines = trace.to_text().splitlines()
    assert lines[0] == "n=27 bits=11011 rule=suffix_011 value=2216"
    assert lines[1].startswith("  ")  # children indent two spaces per level
    assert isinstance(trace, ReductionTrace)


def to_json_tree_walk(trace):
    """ReductionTrace.to_json as it was before heads were kept: the same
    stack walk, but every node of the expanded tree formatted anew."""
    out = io.StringIO()
    stack = [trace]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.write(item)
            continue
        out.write(
            f'{{"n": {item.n}, "bits": "{bin(item.n)[2:]}", '
            f'"rule": {json.dumps(item.rule)}, "value": {item.value}, "children": ['
        )
        stack.append("]}")
        for j, child in enumerate(reversed(item.children)):
            if j:
                stack.append(", ")
            stack.append(child)
    return out.getvalue()


def test_trace_json_is_the_dict_serialised():
    rng = random.Random(12)
    samples = list(range(200)) + [rng.getrandbits(b) for b in range(10, 80, 3)]
    # words whose derivations share nodes: all ones up to 2**20 - 1, and runs
    samples += [2**j - 1 for j in range(1, 21)]
    samples += [int("1" * a + "0" * b + "1" * c, 2) for a, b, c in ((5, 1, 9), (12, 2, 3), (7, 3, 7))]
    samples += [long_words(bits, rng)[1] for bits in (12, 14, 16)]
    # 51 = 110011 splits into the node 3 twice; then equal gap blocks, nested
    samples.append(0b110011)
    word = "1011"
    for _ in range(3):
        word = f"{word}00{word}"
        samples.append(int(word, 2))
    for optional_rules in (False, True):
        for n in samples:
            _, trace = reduce_term(n, trace=True, optional_rules=optional_rules)
            text = trace.to_json()
            assert text == to_json_tree_walk(trace), n
            assert text == json.dumps(trace.as_dict()), n
    _, trace = reduce_term(0b110011, trace=True)
    assert trace.rule == "gap_split" and trace.children[0] is trace.children[1]
    # deeper than the JSON encoder's recursion limit: only the tree walk
    # compares, and under the optional rules its tree passes the cap
    deep = int("10" * 750 + "1", 2)
    _, trace = reduce_term(deep, trace=True)
    assert trace.to_json() == to_json_tree_walk(trace)
    _, trace = reduce_term(deep, trace=True, optional_rules=True)
    with pytest.raises(SizeLimitError):
        trace.to_json()


def test_trace_walkers_survive_deep_derivations():
    # 750 suffix_01 steps: deeper than the recursion and JSON encoder limits
    n = int("10" * 750 + "1", 2)
    _, trace = reduce_term(n, trace=True)
    nodes = list(trace.iter_nodes())
    assert len(nodes) == 751 and [node.n for node in trace.leaves()] == [1]
    text = trace.to_json()
    assert text.count('"rule": "suffix_01"') == 750 and text.endswith("]}" * 751)
    assert trace.as_dict()["children"][0]["n"] == n >> 2
    assert len(trace.to_text().splitlines()) == 751


def test_trace_tree_size_is_capped(monkeypatch):
    from symnabla import recurrence

    # 2**1500 - 1 has a 1500-node DAG, but its tree has about 10**397 nodes
    value, trace = reduce_term(2**1500 - 1, trace=True)
    assert value == sparse_term(8, 1500)
    lines = trace.to_text().splitlines()
    assert len(lines) == 3 * 1498 + 1 and lines[0].startswith("n=" + str(2**1500 - 1))
    for walk in (trace.as_dict, trace.to_json, trace.iter_nodes, trace.leaves):
        with pytest.raises(SizeLimitError, match="more than the cap of 16777216 nodes"):
            walk()
    _, trace = reduce_term(2**12 - 1, trace=True)
    size = len(list(trace.iter_nodes()))
    monkeypatch.setattr(recurrence, "DEFAULT_ELEMENT_CAP", size)
    trace._check_tree_size()
    monkeypatch.setattr(recurrence, "DEFAULT_ELEMENT_CAP", size - 1)
    with pytest.raises(SizeLimitError):
        trace._check_tree_size()


def test_trace_text_size_is_capped(monkeypatch):
    """to_text bounds its length before formatting: the text of an L-bit
    index is quadratic in L, and past 8 * DEFAULT_ELEMENT_CAP characters
    it raises without building any line."""
    from symnabla import recurrence

    _, trace = reduce_term(2**300 - 1, trace=True)
    size = len(trace.to_text())
    monkeypatch.setattr(recurrence, "DEFAULT_ELEMENT_CAP", size // 8 - 1)
    with pytest.raises(SizeLimitError, match=f"the trace text would pass the cap of {8 * (size // 8 - 1)} characters"):
        trace.to_text()
    monkeypatch.setattr(recurrence, "DEFAULT_ELEMENT_CAP", size // 7)  # the bound is within 3 % of the size
    assert len(trace.to_text()) == size


def test_trace_rules_are_selected_once_per_node(monkeypatch):
    from symnabla import recurrence

    calls = []
    select = recurrence._select_rule
    monkeypatch.setattr(recurrence, "_select_rule", lambda n, opt: calls.append(n) or select(n, opt))
    _, trace = reduce_term(1883, trace=True)
    assert sorted(calls) == sorted({node.n for node in trace.iter_nodes()})
    # nodes evaluated by an earlier call sharing the cache are selected here
    cache = {}
    reduce_term(59, cache=cache)
    calls.clear()
    _, trace = reduce_term(59 + 2048, trace=True, cache=cache)
    assert sorted(calls) == sorted({node.n for node in trace.iter_nodes()})


def test_trace_shared_subtrees_print_once():
    # 0b101101101101 has repeated sub-patterns, forcing shared children
    _, trace = reduce_term(0b101101101101, trace=True)
    text = trace.to_text()
    assert "(expanded above)" in text


def test_term_dispatch():
    assert resolve_method(8, "auto") == "reduce"
    assert resolve_method(7, "auto") == "fast"
    assert term(8, 1883) == 4997448
    assert term(8, 1883, method="matrix") == 4997448
    assert term(8, 1883, method="reduce") == 4997448
    assert term(8, 59, method="brute") == 13624
    assert term(4, 100, method="fast") == term(4, 100, method="brute")
    assert term(12, 6, method="auto") == brute_card(12, 6)
    assert term(5, 2**50) == 5
    assert term(8, 2**50) == 8


def test_term_dispatch_errors():
    with pytest.raises(DomainError):
        term(8, 3, method="fast")
    # the matrix word covers k = 4..8 only
    assert term(7, 3, method="matrix") == brute_card(7, 3)
    with pytest.raises(DomainError):
        term(3, 3, method="matrix")
    with pytest.raises(DomainError):
        term(9, 3, method="matrix")
    with pytest.raises(DomainError):
        term(7, 3, method="reduce")
    with pytest.raises(DomainError):
        term(8, 3, method="nonsense")
    with pytest.raises(DomainError):
        term(0, 3)


def test_identity_suite_all_ok():
    report = matrix_identity_suite()
    assert report.all_ok
    assert len(report.entries) == 10
    assert all(ok for _, ok in report.entries)
    assert "ok" in report.summary()
    assert "FAIL" not in report.summary()


def test_annihilation_per_k():
    for k in (4, 5, 6, 7, 8):
        assert annihilation_check(k)
    with pytest.raises(DomainError):
        annihilation_check(3)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6))
def test_reduce_equals_matrix_property(n):
    assert reduce_term(n) == matrix_term(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**4000))
def test_plain_reduce_term_equals_matrix_on_long_words(n):
    assert reduce_term(n) == matrix_term(n)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 40))
def test_shift_invariance_property(n, shift):
    """Trailing zeros never change the value."""
    assert matrix_term(n << shift) == matrix_term(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1), st.integers(20, 24))
def test_gap_split_property(alpha, beta, s):
    """Two-zero gaps split the k = 7 value into a product."""
    n = (beta << (s + 2)) | alpha
    assert fast_term(7, n) == fast_term(7, alpha) * fast_term(7, beta)
