"""Set-ring semantics: toggle products, powers, caps, encodings."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symnabla import core
from symnabla.core import (
    DEFAULT_ELEMENT_CAP,
    MAX_K,
    ElementVec,
    SymSet,
    brute_card,
    check_sequence_cap,
    make_base_set,
    power_card_sequence,
    sym_diff,
    sym_power,
    sym_prod,
    sym_square,
)
from symnabla.errors import DomainError, SizeLimitError
from symnabla.recurrence import term
from test_chains import _layout_level


def ref_prod_values(avals, bvals):
    """Independent toggle-product oracle on plain integers."""
    acc = set()
    for x in avals:
        for y in bvals:
            acc ^= {x * y}
    return sorted(acc)


def ref_diff_values(avals, bvals):
    return sorted(set(avals) ^ set(bvals))


def test_product_small_example():
    a = SymSet.from_values(8, [1, 2, 3])
    b = SymSet.from_values(8, [2, 4])
    # 2*2 and 1*4 both hit 4, so 4 cancels
    assert sym_prod(a, b).values() == [2, 6, 8, 12]
    assert sym_diff(a, b).values() == [1, 3, 4]


def test_empty_annihilates_and_one_is_identity():
    s = SymSet.from_values(8, [3, 5, 8])
    empty = SymSet.empty(8)
    one = SymSet.from_values(8, [1])
    assert sym_prod(s, empty) == empty
    assert sym_prod(empty, s) == empty
    assert sym_prod(s, one) == s
    assert sym_diff(s, s) == empty


def test_base_set_contents():
    h = make_base_set(8)
    assert h.values() == [1, 2, 3, 4, 5, 6, 7, 8]
    assert h.basis == (2, 3, 5, 7)
    assert make_base_set(1).values() == [1]
    assert make_base_set(1).basis == ()
    assert make_base_set(12).basis == (2, 3, 5, 7, 11)


@pytest.mark.parametrize("k", [0, -3, MAX_K + 1])
def test_base_set_rejects_bad_k(k):
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(DomainError):
            make_base_set(k)


def test_base_set_is_built_once_per_k():
    """Every k shares one read-only base set, equal to the one built
    from its values, and the identity {1} the powers start from is
    unchanged."""
    for k in range(1, MAX_K + 1):
        base = make_base_set(k)
        assert base is make_base_set(k)
        assert base == SymSet.from_values(k, range(1, k + 1))
        with pytest.raises(ValueError):
            base.exponents[...] += 1
        assert brute_card(k, 0) == 1
        one = sym_power(k, 0)
        assert one == SymSet.from_values(k, [1]) and not one.exponents.flags.writeable
    assert core._base_table(8)[0].tolist()[5] == [1, 1, 0, 0]  # row i - 1 is i = 6
    for k in (5, 9, 16):
        cards = [brute_card(k, n) for n in range(41)]
        for cap in (1, 20):
            first = next(card for card in cards if card > cap)
            with pytest.raises(SizeLimitError, match=f"reached {first} elements, over the cap {cap}$"):
                power_card_sequence(k, 40, max_elements=cap)


def test_from_values_rejects_non_smooth_and_non_positive():
    with pytest.raises(DomainError):
        SymSet.from_values(5, [7])  # 7 has no factorisation over (2, 3, 5)
    with pytest.raises(DomainError):
        SymSet.from_values(5, [0])
    with pytest.raises(DomainError):
        SymSet.from_values(5, [-6])


def test_known_power_cardinalities():
    # k = 8 checkpoints, then the k = 4 row and one k = 2 value
    for n, want in [(0, 1), (1, 8), (2, 8), (3, 48), (7, 296), (11, 368), (15, 1784)]:
        assert brute_card(8, n) == want
    assert brute_card(4, 7) == 40
    assert brute_card(2, 5) == 4


def test_general_k_oracle():
    # beyond the structured range the oracle still works (basis grows)
    assert brute_card(9, 5) == 81
    assert brute_card(9, 6) == 57
    assert brute_card(16, 3) == 184


def test_power_of_two_indices_collapse():
    for k in range(1, 10):
        for t in range(7):
            assert brute_card(k, 2**t) == k


def test_power_zero_is_identity_set():
    assert sym_power(8, 0).values() == [1]
    assert sym_power(3, 0).values() == [1]
    with pytest.raises(DomainError):
        sym_power(8, -1)
    with pytest.raises(DomainError, match="^limit must be >= 0, got -1$"):
        power_card_sequence(8, -1)


def test_square_matches_doubled_power():
    for k in (2, 5, 8):
        for n in (1, 3, 6, 11):
            assert sym_square(sym_power(k, n)) == sym_power(k, 2 * n)


def iterated_powers(k, limit):
    """Powers 0..limit of {1, ..., k} by repeated sym_prod, the reference."""
    base = make_base_set(k)
    acc = SymSet.from_values(k, [1])
    powers = [acc]
    for _ in range(limit):
        acc = sym_prod(acc, base)
        powers.append(acc)
    return powers


def test_square_and_multiply_matches_iterated_product():
    # equality compares the exponent rows, so their order is checked too
    for k, limit in [(1, 8), (2, 40), (3, 30), (5, 20), (7, 16), (8, 16), (12, 9), (20, 6)]:
        for n, want in enumerate(iterated_powers(k, limit)):
            got = sym_power(k, n)
            assert got == want
            assert got.exponents.dtype == np.int64 and not got.exponents.flags.writeable


def test_square_classes_cover_the_base_set():
    """Each h <= k is c * q**2 with c square-free; a class is {1..r} times c."""
    for k in range(1, MAX_K + 1):
        classes = {}
        for h in range(1, k + 1):
            q = max(q for q in range(1, h + 1) if h % (q * q) == 0)
            classes.setdefault(h // (q * q), []).append(q)
        want = Counter(len(qs) for qs in classes.values())
        assert all(qs == list(range(1, len(qs) + 1)) for qs in classes.values())
        assert core._square_classes(k) == tuple(sorted(want.items()))
    assert core._square_classes(8) == ((1, 4), (2, 2))  # 3, 5, 6, 7 and 1, 2


def test_sequence_sweep_matches_per_index_oracle():
    """The split sweep equals the plain per-step sweep and brute_card.

    Odd and even limits both occur, so the last index is sometimes read
    from the square classes; limits 0, 1 and 2 use narrower layouts.
    """
    sweeps = [
        (1, 12), (2, 96), (3, 64), (4, 64), (5, 63), (6, 64),
        (7, 63), (8, 64), (9, 96), (10, 63), (11, 48), (12, 64),
    ]
    for k, limit in sweeps:
        want = [len(s) for s in iterated_powers(k, limit)]
        assert power_card_sequence(k, limit) == want
        assert want == [brute_card(k, n) for n in range(limit + 1)]
        for edge in (0, 1, 2):
            assert power_card_sequence(k, edge) == want[: edge + 1]
    assert power_card_sequence(8, 0) == [1]


def test_power_layout_boundary(monkeypatch):
    """k = 64 packs power 7 into 61 bits; power 8 needs 77, past int64.

    k = 4 packs every power below 2**31 into exactly 63 bits.  brute_card
    takes the layout of n's odd part, so only an odd part past the
    boundary forms SymSet products.

    Each k has one packed layout, sized for power 2**T - 1, that holds
    exactly the n whose own fields fit 63 bits: the n <= 2**T - 1.
    Every n it holds gets the same keys.
    """
    levels = {k: _layout_level(k) for k in range(1, 65)}
    assert [levels[k] for k in range(2, 10)] == [63, 31, 31, 20, 20, 15, 15, 15]
    assert (levels[16], levels[30], levels[64]) == (10, 5, 3)
    for k, level in levels.items():
        base = make_base_set(k)
        keys = core._base_keys(base, 1)[0]
        limit = 2**level - 1 if k > 1 else float("inf")  # k = 1 has no fields to outgrow
        for n in sorted({*range(1, 65), *(2**t + d for t in range(1, 66) for d in (-1, 0, 1)), 2**200}):
            packed = core._base_keys(base, n)
            own_bits = core._field_shifts([n * m for m in core._base_table(k)[1]])[1]
            assert (packed is None) == (n > limit) == (own_bits > 63), (k, n)
            assert packed is None or packed[0] is keys, (k, n)
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(core, "sym_prod", counted(sym_prod))
    monkeypatch.setattr(core, "sym_square", counted(sym_square))
    assert brute_card(64, 7) == 124788
    assert power_card_sequence(64, 7)[7] == 124788
    assert calls == []  # the key path never builds a SymSet product
    assert brute_card(64, 8) == 64
    assert calls == []  # H**8 has the size of H**1, counted from S = H**0 = {1} in power 1's keys
    assert brute_card(64, 9) == 4096
    # power 9 is wide: S = H**4 is two squares, then its products with Q_2, Q_3, Q_4, Q_5, Q_8
    assert calls == ["sym_square"] * 2 + ["sym_prod"] * 5
    calls.clear()
    assert core._base_keys(make_base_set(30), 62) is None
    assert core._base_keys(make_base_set(30), 31) is not None
    assert brute_card(30, 62) == brute_card(30, 31) == 6097190
    assert calls == []  # power 62 is wide, but brute_card takes the layout of its odd part 31
    # a sweep sizes its fields for its limit; the cap stops it at power 3
    # the wide sweep multiplies S = H**m by the five Q_r with r > 1 for a(1) and a(3),
    # and forms no power past H**1: H**2 would only serve indices past 3
    for limit, path in [(7, []), (8, ["sym_prod"] * 10)]:
        calls.clear()
        with pytest.raises(SizeLimitError, match="reached 2780 elements, over the cap 100"):
            power_card_sequence(64, limit, max_elements=100)
        assert calls == path
    calls.clear()
    n = 2**30 + 1
    base = [(0, 0), (1, 0), (0, 1), (2, 0)]  # 1, 2, 3, 4 over (2, 3)
    rows = [[2**30 * a + c, 2**30 * b + d] for a, b in base for c, d in base]
    assert sym_power(4, n) == SymSet(4, rows) and len(rows) == 16
    assert calls == []
    assert brute_card(4, 2**31) == 4
    assert calls == []  # {1} * Q_2, the one class product of k = 4 with r > 1, packs
    monkeypatch.undo()
    assert sym_power(64, 7) == iterated_powers(64, 7)[7]
    assert sym_power(64, 8).values() == [v**8 for v in range(1, 65)]


def test_wide_layout_sweep_matches_oracles(monkeypatch):
    """Past 63 bits the sweep steps SymSets through the same square classes.

    k = 64 first needs more than 63 bits at limit 8 and k = 30 at limit
    32; those sweeps are checked against sym_power, since brute_card
    counts by the same square classes as the sweep.  k = 20 first does
    at limit 128, where a(125) is already over the default cap, so its
    SymSet sweep is forced, as are k = 30 and 64 at smaller limits,
    against the set powers built one product at a time.
    """
    for k, limits in [(64, (8, 9)), (30, (33,))]:
        built = [len(sym_power(k, n)) for n in range(max(limits) + 1)]
        for limit in limits:
            assert core._base_keys(make_base_set(k), limit) is None
            assert power_card_sequence(k, limit) == built[: limit + 1]
    forced = [(20, 24), (30, 16), (64, 6)]
    want = {k: [len(s) for s in iterated_powers(k, limit)] for k, limit in forced}
    for k, limit in forced:
        assert want[k] == [brute_card(k, n) for n in range(limit + 1)]
    monkeypatch.setattr(core, "_base_keys", lambda base, n: None)
    for k, limit in forced:
        assert power_card_sequence(k, limit) == want[k]


@pytest.mark.parametrize("wide", [False, True])
def test_sweep_multiplies_only_powers_up_to_half_the_limit(monkeypatch, wide):
    """Every product the sweep forms, on packed keys in _toggle_sums or,
    with the layout forced wide, on SymSets in sym_prod, and every
    product it only sizes in _times_size on packed keys, is H**m times
    Q_r = {1, ..., r} with r > 1 and m <= limit/2, and H**m holds at
    most max_elements elements.  Without a cap every m with
    2m + 1 <= limit is multiplied or sized; with one the sweep refuses
    the first a(n) over it.  Only a product whose odd power
    H**(2m + 1) the sweep does not build is sized:
    2m + 1 > min(over, limit) // 2, with over the first index over the
    cap found so far (limit + 1 while there is none).  The walk takes a
    node's odd child first, so the capped cases here meet their first
    power over the cap on the all-ones path, at a(15)."""
    cases = [(4, 40, None), (8, 40, None), (9, 33, None), (8, 40, 300), (9, 33, 400)]
    expect = {}
    for k, limit, cap in cases:
        sets = [sym_power(k, m) for m in range(limit // 2 + 1)]
        sets += [SymSet.from_values(k, range(1, r + 1)) for r in (2, 3)]
        if not wide:
            shifts = core._field_shifts(core._base_keys(make_base_set(k), limit)[1])[0]
            sets = [core._pack(s.exponents, shifts) for s in sets]
        expect[k, limit] = sets, [brute_card(k, n) for n in range(limit + 1)]
    seen, sized = [], []
    if wide:
        prod = core.sym_prod
        monkeypatch.setattr(core, "_base_keys", lambda base, n: None)
        monkeypatch.setattr(core, "sym_prod", lambda a, b: seen.append((a, b)) or prod(a, b))
        same = SymSet.__eq__
    else:
        kernel, size = core._toggle_sums, core._times_size
        monkeypatch.setattr(core, "_toggle_sums", lambda a, b: seen.append((a, b)) or kernel(a, b))
        monkeypatch.setattr(core, "_times_size", lambda a, b: sized.append((a, b)) or size(a, b))
        same = np.array_equal
    for k, limit, cap in cases:
        sets, cards = expect[k, limit]
        seen.clear()
        sized.clear()
        if cap is None:
            assert power_card_sequence(k, limit) == cards
        else:
            first = next(card for card in cards if card > cap)
            with pytest.raises(SizeLimitError, match=f"reached {first} elements, over the cap {cap}"):
                power_card_sequence(k, limit, max_elements=cap)
        formed, only_sized = set(), set()
        for calls, ms in ((seen, formed), (sized, only_sized)):
            for a, b in calls:
                (m,) = [m for m, s in enumerate(sets[: limit // 2 + 1]) if same(a, s)]
                assert len(a) == cards[m] <= (cap or DEFAULT_ELEMENT_CAP)
                assert [r for r, s in zip((2, 3), sets[limit // 2 + 1 :]) if same(b, s)] != []
                ms.add(m)
        multiplied = formed | only_sized
        if cap is None:
            assert multiplied == set(range((limit - 1) // 2 + 1))
        if not wide:
            if cap is None:
                assert only_sized == {m for m in multiplied if 2 * m + 1 > limit // 2}
            else:
                # m = 0, 1, 3 and 7 form their products before m = 7 finds a(15) over the
                # cap; then only 2m + 1 <= 15 // 2 keeps, so m = 2 forms its products and
                # m = 4, 5 (a(11) is over the cap too) and 6 only size theirs
                assert only_sized == {4, 5, 6}


@pytest.mark.parametrize("k", [8, 9, 12, 16])
def test_sweep_refusal_work_does_not_grow_with_the_limit(monkeypatch, k):
    """The walk takes a node's odd child first, so it meets the first
    power over the cap along 1, 11, 111, ...: the class counts made
    before the refusal, and its text, are the same at every limit.  No
    index past the first one over the cap, over, is needed, so the odd
    powers formed are exactly the H**j with j odd and j <= over // 2,
    in the packed layout (k = 12 at limit 16383, k = 16 from 4095) and
    on SymSet rows alike."""
    cap = 10**5
    over = next(n for n in range(256) if brute_card(k, n) > cap)
    text = f"symmetric power reached {brute_card(k, over)} elements, over the cap {cap}"
    calls, odd = [], []
    classes = core._class_count
    monkeypatch.setattr(core, "_class_count", lambda *args: calls.append(None) or classes(*args))
    for name in ("_odd_keys", "_odd_rows"):
        step = getattr(core, name)
        monkeypatch.setattr(core, name, lambda parts, step=step: odd.append(None) or step(parts))
    outcomes = set()
    for limit in (255, 1023, 4095, 16383):
        calls.clear()
        odd.clear()
        with pytest.raises(SizeLimitError) as refusal:
            power_card_sequence(k, limit, max_elements=cap)
        outcomes.add((len(calls), len(odd), str(refusal.value)))
    assert outcomes == {(len(calls), (over // 2 + 1) // 2, text)}, outcomes


def unsliced(ka, kb):
    """Keys hit an odd number of times by the sums ka[i] + kb[j], by counting."""
    keys, counts = np.unique(np.add.outer(ka, kb), return_counts=True)
    return keys[counts % 2 == 1]


def sweep_products(limit):
    """(ka, kb, unsliced result) of every kernel call that
    power_card_sequence(k, limit) and sym_power(k, limit - 1) make for
    k = 4..8."""
    calls = []
    kernel = core._toggle_sums
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_toggle_sums", lambda ka, kb: calls.append((ka, kb)) or kernel(ka, kb))
        for k in range(4, 9):
            power_card_sequence(k, limit)
            sym_power(k, limit - 1)
    return [(ka, kb, unsliced(ka, kb)) for ka, kb in calls]


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_sliced_kernel_equals_unsliced_on_power_steps(monkeypatch, chunk):
    """Every product of the sweeps of k = 4..8 up to n = 64 and of
    sym_power(k, 63), whose last step at k = 8 has 85 952 pairs, cut
    into slices of about chunk sums.  A slice costs about 15 us however
    few sums it holds, so chunks 1 and 7 stop at n = 32 and 31."""
    steps = sweep_products(32 if chunk < 64 else 64)
    assert max(ka.size * kb.size for ka, kb, _ in steps) > 50 * chunk
    monkeypatch.setattr(core, "_CHUNK_KEYS", chunk)
    for ka, kb, want in steps:
        assert np.array_equal(core._toggle_sums(ka, kb), want)


def test_sliced_kernel_on_random_keys(monkeypatch):
    """Narrow key ranges make equal sums across copies, and every cut is
    itself a sum, so sums equal to a cut point occur in every sliced call."""
    rng = np.random.default_rng(15)
    cases = []
    for _ in range(30):
        m, p, top = rng.integers(1, 80, size=3)
        ka = np.unique(rng.integers(0, top, size=m))
        kb = np.unique(rng.integers(0, top, size=p))
        cases.append((ka, kb))
        cases.append((kb, ka))
    cases.append((np.arange(5), np.arange(300) * 3))  # len(kb) > len(ka)
    cases.append((np.array([0, 2]), np.arange(1000)))
    big = np.int64(1) << 61
    cases.append((np.arange(40) + 2 * big, np.arange(30) * 5 + big))  # sums just below 2**63
    for chunk in (1, 7, 64, 1000):
        monkeypatch.setattr(core, "_CHUNK_KEYS", chunk)
        for ka, kb in cases:
            got = core._toggle_sums(ka, kb)
            assert got.dtype == np.int64 and np.array_equal(got, unsliced(ka, kb))


# Row entries of the rows form: two columns of 2**62 or more need 126
# bits, so no packed layout holds their sums.
_ROW_ENTRIES = (0, 1, 2**62 - 1, 2**62, 2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-(2**62), 2**62), st.integers(1, 9)), max_size=40),
    st.sampled_from([None, 0, 1, 2, 3]),
)
@example([], None)
@example([(5, 1)], None)
@example([(v, 1) for v in range(30)], None)  # all distinct
@example([(7, 8)], None)  # all equal, an even count
@example([(7, 9)], None)  # all equal, an odd count
@example([], 2)  # no rows
@example([(5, 3)], 0)  # no columns, an odd count
@example([(5, 4)], 0)  # no columns, an even count
@example([(7, 8)], 3)  # all rows equal, an even count
@example([(7, 9)], 3)  # all rows equal, an odd count
@example([(v, v % 3 + 1) for v in range(40)], 2)  # entries near 2**62 and 2**63
def test_parity_scan_matches_counting(runs, cols):
    """Keys form (cols None): runs of 1 to 9 equal keys, sorted; the scan
    keeps the keys of odd runs, and hands back its own input when no key
    repeats.  Rows form: each value picks a row of cols entries, the
    multiset is shuffled, and the row scan keeps the rows of odd
    multiplicity in canonical order (last column most significant),
    while SymSet keeps every distinct row in that order."""
    if cols is None:
        values = np.array([v for v, _ in runs], dtype=np.int64)
        keys = np.sort(np.repeat(values, np.array([c for _, c in runs], dtype=np.int64)))
        uniq, counts = np.unique(keys, return_counts=True)
        got = core._parity_sorted(keys)
        assert got.dtype == np.int64 and np.array_equal(got, uniq[counts % 2 == 1])
        assert (got is keys) == (uniq.size == keys.size)
        return
    rows = [
        tuple(_ROW_ENTRIES[(abs(v) >> (3 * j)) % len(_ROW_ENTRIES)] for j in range(cols))
        for v, count in runs
        for _ in range(count)
    ]
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), cols)
    arr = arr[np.random.default_rng(len(rows)).permutation(len(rows))]
    counts = Counter(rows)
    canonical = sorted(counts, key=lambda row: row[::-1])
    got = core._parity_rows(arr)
    assert got.dtype == np.int64 and got.shape == (len(got), cols)
    assert got.tolist() == [list(row) for row in canonical if counts[row] % 2]
    k = {0: 1, 1: 2, 2: 3, 3: 5}[cols]  # the k whose basis has cols primes
    assert SymSet(k, arr).exponents.tolist() == [list(row) for row in canonical]


def test_sliced_kernel_mixes_early_and_full_scans(monkeypatch):
    """Sums below 1000 are all distinct and sums above it collide, so
    with small slices some scans return their input and others cancel."""
    ka = np.concatenate([np.arange(50) * 10, 1000 + np.arange(50)])
    kb = np.array([0, 2])  # a pair {x, x + 1} would skip the sort and the slicer
    scan = core._parity_sorted
    distinct = []
    monkeypatch.setattr(core, "_parity_sorted", lambda keys: distinct.append((r := scan(keys)) is keys) or r)
    monkeypatch.setattr(core, "_CHUNK_KEYS", 20)
    assert np.array_equal(core._toggle_sums(ka, kb), unsliced(ka, kb))
    assert len(distinct) > 2 and True in distinct and False in distinct


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(2, 5), st.integers(1, 40)), min_size=1, max_size=12),
    st.sampled_from([0, 2**62 - 2**12]),
    st.sampled_from([0, 1, 5, 2**61]),
)
@example([(2, 1)], 0, 0)  # one key
@example([(2, 1)], 2**62 - 2**12, 2**61)  # one key, sums just below 2**63
@example([(2, 300)], 0, 0)  # one run of 300 consecutive keys: all but two sums cancel
@example([(3, 40)] * 12, 2**62 - 2**12, 5)  # long runs near 2**62
def test_pair_kernel_matches_counting(runs, start, x):
    """kb = {x, x + 1} takes the kernel's path without a sort: runs of
    consecutive keys, each run gap keys after the last, from start.  The
    product and _times_size equal the counting reference at every slice
    size, so a run that crosses a slice cut still cancels."""
    keys, top = [], start
    for gap, length in runs:
        keys.extend(range(top + gap, top + gap + length))
        top = keys[-1]
    ka = np.array(keys, dtype=np.int64)
    kb = np.array([x, x + 1], dtype=np.int64)
    want = unsliced(ka, kb)
    for chunk in (1, 7, 64, core._CHUNK_KEYS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_CHUNK_KEYS", chunk)
            got = core._toggle_sums(ka, kb)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert core._times_size(ka, kb) == want.size
    empty = core._toggle_sums(ka[:0], kb)
    assert empty.dtype == np.int64 and empty.size == core._times_size(ka[:0], kb) == 0


def test_products_after_a_zero_bit_cancel_nothing_below_k_16(monkeypatch):
    """In sym_power(k, n) a product that follows a 0-bit of n is
    H**(4i) * H: fourth powers x**4 times h <= k.  Below k = 16 no two
    of its sums are equal, so it cancels nothing.  At k = 16 some do,
    the first at n = 5 (16 / 1 = 2**4), so the kernel checks rather
    than assumes.  For n < 128 these are the products with 4i + 1 < 128,
    each the last step of sym_power(k, 4i + 1); power 127 itself is
    over the cap at k = 15."""
    kernel = core._toggle_sums
    calls = []
    monkeypatch.setattr(core, "_toggle_sums", lambda ka, kb: calls.append((ka.size * kb.size, len(r := kernel(ka, kb)))) or r)

    def after_zero(k, n):
        """(pairs, output length) of each product after a 0-bit in sym_power(k, n)."""
        calls.clear()
        sym_power(k, n)
        bits = bin(n)[2:]
        products = [i for i in range(1, len(bits)) if bits[i] == "1"]
        assert len(calls) == len(products)
        return [call for i, call in zip(products, calls) if bits[i - 1] == "0"]

    for k in (4, 8, 9, 15):
        steps = [step for n in range(5, 128, 4) for step in after_zero(k, n)]
        assert len(steps) >= 31 and all(pairs == out for pairs, out in steps)
    assert after_zero(16, 5) == [(16 * 16, 240)]  # |H**4| = 16, and 16 of the sums cancel


def test_products_of_large_sets_match_reference(monkeypatch):
    """Both operands hold more than 512 elements; 338 400 pairs are one
    slice, then 34."""
    a = SymSet.from_values(8, sym_power(8, 15).values()[:600])
    b = SymSet.from_values(8, sym_power(8, 23).values()[::4])
    assert len(a) == 600 and len(b) == 564
    want = ref_prod_values(a.values(), b.values())
    for chunk in (core._CHUNK_KEYS, 10000):
        monkeypatch.setattr(core, "_CHUNK_KEYS", chunk)
        assert sym_prod(a, b).values() == want
        assert sym_prod(b, a) == sym_prod(a, b)


def test_element_cap_enforced(monkeypatch):
    # 296 is the first power of {1..8} above 100 elements, at n = 7
    message = "symmetric power reached 296 elements, over the cap 100"
    with pytest.raises(SizeLimitError, match=message):
        sym_power(8, 63, max_elements=100)
    with pytest.raises(SizeLimitError, match=message):
        power_card_sequence(8, 63, max_elements=100)
    # generous caps stay silent
    assert brute_card(8, 63, max_elements=DEFAULT_ELEMENT_CAP) == 64536
    # the pair guard trips at the same product as a sym_prod loop would
    monkeypatch.setattr(core, "_PAIR_GUARD", 2000)
    message = "symmetric product needs 2368 pairwise products, over the guard 2000"
    with pytest.raises(SizeLimitError, match=message):
        iterated_powers(8, 63)
    with pytest.raises(SizeLimitError, match=message):
        brute_card(8, 63)
    # the sweep walks the odd child first, so its first product over the guard is H**15 * {1, 2}, 2 * 1784 pairs
    message = "symmetric product needs 3568 pairwise products, over the guard 2000"
    with pytest.raises(SizeLimitError, match=message):
        power_card_sequence(8, 63)


def outcome(fn, *args, **kw):
    """fn's value, or the text of the SizeLimitError it raises."""
    try:
        return fn(*args, **kw)
    except SizeLimitError as exc:
        return str(exc)


def wide_grid_outcomes(cap):
    """brute_card's and sym_power's outcomes for k = 20, 30 and 64 at
    n = 1..23 under cap.  k = 64 packs the powers up to 7 in 61 bits;
    from n = 8 on its layout is wide and both build SymSets.  The caps
    used stay at 10**5 and below, so no case builds H**15 of k = 64."""
    assert [n for n in range(1, 24) if core._base_keys(make_base_set(64), n) is None] == list(range(8, 24))
    assert all(core._base_keys(make_base_set(k), 23) is not None for k in (20, 30))
    cases = [(k, n) for k in (20, 30, 64) for n in range(1, 24)]
    brute = [outcome(brute_card, k, n, max_elements=cap) for k, n in cases]
    built = [outcome(lambda: len(sym_power(k, n, max_elements=cap))) for k, n in cases]
    return brute, built


def test_brute_card_counts_what_sym_power_builds():
    """brute_card counts a(n) from H**h by square classes; sym_power
    builds H**n by plain square-and-multiply with the whole base set.
    Odd n, even n and powers of two, up to k = 16, where products
    cancel, and k = 20, 30 and 64 in both layouts."""
    for k in range(1, 17):
        indices = list(range(34)) + ([47, 48, 63, 64, 96, 127, 128] if k <= 8 else [])
        assert [brute_card(k, n) for n in indices] == [len(sym_power(k, n)) for n in indices], k
    # the packed path at n = 2**61 + 1, with h = 2**60
    assert brute_card(2, 2**61 + 1) == len(sym_power(2, 2**61 + 1)) == 4
    brute, built = wide_grid_outcomes(10**5)
    assert brute == built
    wide = brute[2 * 23 + 7 :]  # k = 64, n = 8..23
    assert [card for card in wide if isinstance(card, int)] == [64, 4096, 3840, 2780, 64, 4096, 4096, 3840]


def test_brute_card_refuses_as_sym_power_does(monkeypatch):
    """The same SizeLimitError message as sym_power, which refuses as
    brute_card did when it built H**n: the cap on the powers up to
    H**h or on a(n), and the pair guard inside H**h or on the last
    product H**(2h) * H.  In both layouts, under caps and pair guards
    that trip in each of them."""

    def refusal(fn, *args, **kw):
        with pytest.raises(SizeLimitError) as exc:
            fn(*args, **kw)
        return str(exc.value)

    default_guard = core._PAIR_GUARD
    # a(7) = a(14) = a(28) = 296 is over the cap; 63 and 62 refuse at H**7 while building H**h
    for n in (7, 14, 28, 63, 62):
        message = refusal(brute_card, 8, n, max_elements=100)
        assert message == refusal(sym_power, 8, n, max_elements=100)
        assert message == "symmetric power reached 296 elements, over the cap 100"
    assert refusal(brute_card, 4, 5, max_elements=1) == "symmetric power reached 4 elements, over the cap 1"
    assert refusal(brute_card, 4, 8, max_elements=1) == refusal(sym_power, 4, 8, max_elements=1)
    assert brute_card(8, 12, max_elements=100) == 48
    # H**0 = {1} is a power on the path too, so a cap below 1 refuses n = 0
    zero = "symmetric power reached 1 elements, over the cap 0"
    assert refusal(sym_power, 9, 0, max_elements=0) == zero
    assert refusal(brute_card, 9, 0, max_elements=0) == zero
    assert refusal(power_card_sequence, 9, 0, max_elements=0) == zero
    monkeypatch.setattr(core, "_PAIR_GUARD", 2000)
    # n = 63 trips on H**14 * H inside H**31; n = 30 = 15 * 2 on its last product, the 296 * 8 pairs of H**14 * H
    for n in (63, 30):
        message = refusal(brute_card, 8, n)
        assert message == refusal(sym_power, 8, n)
        assert message == "symmetric product needs 2368 pairwise products, over the guard 2000"
    assert brute_card(8, 28) == len(sym_power(8, 28)) == 296  # the last product is H**6 * H, 48 * 8 pairs
    # k = 20, 30 and 64 at n = 1..23: the wide cases of k = 64 refuse both at the cap and at the guard
    kinds = set()
    for guard, caps in ((2000, (10**5, 1000, 100, 1)), (default_guard, (1000, 100, 1))):
        monkeypatch.setattr(core, "_PAIR_GUARD", guard)
        for cap in caps:
            brute, built = wide_grid_outcomes(cap)
            assert brute == built, (guard, cap)
            kinds |= {card.split()[1] for card in brute[2 * 23 + 7 :] if isinstance(card, str)}
    assert kinds == {"power", "product"}


def test_brute_card_same_cold_and_warm(monkeypatch):
    """brute_card reads H**1 .. H**7 of a packed layout from a table.
    With the table cleared before the call (cold) and with all of it
    built (warm) it gives sym_power's value or refusal text, for every
    h < 8 and larger n, under caps and pair guards that trip inside the
    table's powers and past them."""
    indices = list(range(1, 16)) + [63, 62, 30, 255]
    default_guard = core._PAIR_GUARD

    def warm(k):
        with monkeypatch.context() as mp:
            mp.setattr(core, "_PAIR_GUARD", default_guard)
            for j in range(1, 8):
                core._small_power(k, j)

    for guard in (2000, default_guard):
        monkeypatch.setattr(core, "_PAIR_GUARD", guard)
        for k in (4, 8, 9, 16):
            for n in indices:
                for cap in (1, 100, DEFAULT_ELEMENT_CAP):
                    want = outcome(lambda: len(sym_power(k, n, max_elements=cap)))
                    warm(k)
                    hot = outcome(brute_card, k, n, max_elements=cap)
                    core._small_power.cache_clear()
                    cold = outcome(brute_card, k, n, max_elements=cap)
                    assert cold == hot == want, (guard, k, n, cap)


def test_brute_card_last_step_multiplies_by_q2_only(monkeypatch):
    """At k = 8 the square classes are four of {c} and two of c * {1, 2},
    so after building H**127 brute_card(8, 255) sizes one more product,
    H**127 * {1, 2}, without forming it, and counts
    4|H**127| + 2|H**127 * {1, 2}|.  With the table of H**1 .. H**7
    warm, it forms only the powers 15, 31, 63 and 127 on the way."""
    brute_card(8, 15)  # h = 7: builds H**3 and H**7 into the table
    kernel, size = core._toggle_sums, core._times_size
    calls, sized = [], []
    monkeypatch.setattr(core, "_toggle_sums", lambda ka, kb: calls.append((ka, kb)) or kernel(ka, kb))
    monkeypatch.setattr(core, "_times_size", lambda ka, kb: sized.append((ka, kb)) or size(ka, kb))
    card = brute_card(8, 255)
    monkeypatch.undo()
    assert card == len(sym_power(8, 255))
    # H**(2i + 1) = H**(2i) * H for i = 7, 15, 31, 63
    assert [(ka.size, kb.size) for ka, kb in calls] == [(len(sym_power(8, i)), 8) for i in (7, 15, 31, 63)]
    assert len(sized) == 1
    power, q2 = sized[0]
    assert power.size == brute_card(8, 127) and q2.tolist() == [0, 1]  # the keys of 1 and 2
    assert card == 4 * power.size + 2 * kernel(power, q2).size


def test_check_sequence_cap_raises_what_the_sweep_raises(monkeypatch):
    """From the true values, check_sequence_cap names the sweep's first
    refusal, and passes when the pair guard could trip before the cap."""

    def refusal(run):
        try:
            run()
        except SizeLimitError as exc:
            return str(exc)
        return None

    cards = {k: np.array(power_card_sequence(k, 60), dtype=np.int64) for k in range(1, 9)}
    for guard in (core._PAIR_GUARD, 2000):
        monkeypatch.setattr(core, "_PAIR_GUARD", guard)
        for k in range(1, 9):
            for cap in (1, 7, 100, 250, 251, 1000, 5000, 10**6):
                swept = refusal(lambda: power_card_sequence(k, 60, max_elements=cap))
                checked = refusal(lambda: check_sequence_cap(k, cards[k], cap))
                assert checked == (swept if cap * k <= guard else None), (guard, k, cap)
    # past the guard's reach the sweep's refusal can be the pair guard, which the check leaves to it
    assert "pairwise products" in refusal(lambda: power_card_sequence(8, 60, max_elements=10**6))


def test_mixed_rings_refused():
    with pytest.raises(DomainError):
        sym_diff(SymSet.from_values(4, [1]), SymSet.from_values(5, [1]))
    with pytest.raises(DomainError):
        sym_prod(SymSet.from_values(4, [1]), SymSet.from_values(5, [1]))


def test_element_vec_roundtrip():
    ev = ElementVec.from_value(8, 12)
    assert ev.exponents == (2, 1, 0, 0)
    assert ev.value == 12
    assert ev.times(ev).value == 144
    assert ev.squared().value == 144
    with pytest.raises(DomainError):
        ElementVec((2, 3), (1,))
    with pytest.raises(DomainError):
        ElementVec((2, 3), (1, -1))


def test_membership_and_iteration():
    s = SymSet.from_values(8, [6, 10, 49])
    assert 6 in s and 10 in s and 49 in s
    assert 7 not in s
    assert 11 not in s  # not even representable over (2,3,5,7)
    assert sorted(ev.value for ev in s) == [6, 10, 49]
    ev = ElementVec.from_value(8, 10)
    assert ev in s


def test_sets_are_immutable():
    s = make_base_set(8)
    with pytest.raises(ValueError):
        s.exponents[0, 0] = 5


def test_constructor_normalises_rows():
    # duplicates collapse (set semantics), order is canonicalised
    a = SymSet(4, [[1, 0], [0, 1], [1, 0]])
    b = SymSet.from_values(4, [3, 2])
    assert a == b and len(a) == 2
    with pytest.raises(DomainError):
        SymSet(4, [[1, 0, 0]])  # wrong width for basis (2, 3)
    with pytest.raises(DomainError):
        SymSet(4, [[-1, 0]])


def test_repr_small_and_large():
    assert repr(SymSet.from_values(4, [2, 3])) == "SymSet(k=4, {2, 3})"
    assert "elements" in repr(sym_power(8, 7))


@st.composite
def same_ring_sets(draw, count=2):
    k = draw(st.sampled_from([1, 2, 4, 5, 8, 12]))
    width = len(SymSet.empty(k).basis)
    sets = []
    for _ in range(count):
        rows = draw(
            st.lists(
                st.tuples(*[st.integers(0, 3)] * width) if width else st.just(()),
                max_size=6,
            )
        )
        arr = np.asarray(rows, dtype=np.int64).reshape(len(rows), width)
        sets.append(SymSet(k, arr))
    return sets


@settings(max_examples=80, deadline=None)
@given(same_ring_sets(count=2))
def test_ring_ops_match_reference(sets):
    """The packed-key engine agrees with a dict-of-integers oracle."""
    a, b = sets
    assert sym_prod(a, b).values() == ref_prod_values(a.values(), b.values())
    assert sym_diff(a, b).values() == ref_diff_values(a.values(), b.values())


@settings(max_examples=60, deadline=None)
@given(same_ring_sets(count=3))
def test_ring_axioms(sets):
    a, b, c = sets
    assert sym_diff(a, b) == sym_diff(b, a)
    assert sym_prod(a, b) == sym_prod(b, a)
    assert sym_diff(sym_diff(a, b), c) == sym_diff(a, sym_diff(b, c))
    assert sym_prod(sym_prod(a, b), c) == sym_prod(a, sym_prod(b, c))
    # multiplication distributes over the toggle addition
    assert sym_prod(a, sym_diff(b, c)) == sym_diff(sym_prod(a, b), sym_prod(a, c))


@settings(max_examples=40, deadline=None)
@given(same_ring_sets(count=1))
def test_square_is_self_product(sets):
    (a,) = sets
    assert sym_square(a) == sym_prod(a, a)
    assert len(sym_square(a)) == len(a)


def test_square_refuses_exponents_past_int64():
    """Doubling an exponent of 2**62 would wrap int64 to a negative row."""
    with pytest.raises(SizeLimitError, match="below 2\\*\\*62"):
        sym_power(2, 2**63)
    assert brute_card(2, 2**62) == len(sym_power(2, 2**62)) == 2  # sym_power's last squaring reaches 2**62 itself
    # brute_card builds only H**0 = {1} for n = 2**63 and never squares H**1 up to it
    assert brute_card(2, 2**63) == term(2, 2**63) == 2
    with pytest.raises(SizeLimitError):
        sym_square(SymSet(2, [[2**62]]))
    assert sym_square(SymSet(2, [[2**62 - 1]])).exponents.tolist() == [[2**63 - 2]]


def test_product_refuses_exponent_sums_past_int64():
    """Summing two exponents of 2**62 would wrap int64 to a negative row."""
    with pytest.raises(SizeLimitError, match="below 2\\*\\*63"):
        sym_prod(SymSet(2, [[2**62]]), SymSet(2, [[2**62]]))
    with pytest.raises(SizeLimitError, match="below 2\\*\\*63"):
        sym_prod(SymSet(4, [[0, 2**63 - 1]]), SymSet(4, [[5, 1]]))
    with pytest.raises(SizeLimitError, match="exponent of 18446744073709551614"):
        sym_prod(SymSet(2, [[2**63 - 1]]), SymSet(2, [[2**63 - 1]]))
    top = SymSet(2, [[2**62 - 1]])
    assert sym_prod(top, SymSet(2, [[2**62]])).exponents.tolist() == [[2**63 - 1]]
    wide = SymSet(4, [[2**61, 2**61], [2**60, 0]])  # 126 bits: row fallback
    assert sym_prod(wide, wide).exponents.tolist() == [[2**61, 0], [2**62, 2**62]]


def test_wide_exponents_use_row_fallback():
    """Exponents too wide for 63-bit packing still multiply correctly."""
    k = 30  # ten primes, so packed fields cannot fit once exponents grow
    basis_width = len(SymSet.empty(k).basis)
    rows = np.full((3, basis_width), 200, dtype=np.int64)
    rows[1, 0] = 900
    rows[2, 3] = 750
    a = SymSet(k, rows)
    b = SymSet(k, rows[:2] + 17)
    got = sym_prod(a, b)
    assert got.values() == ref_prod_values(a.values(), b.values())
    assert sym_diff(a, b).values() == ref_diff_values(a.values(), b.values())


def test_wide_row_blocks_merge_to_the_counted_product(monkeypatch):
    """Two columns of 2**40 or more put the product past 63 bits; small
    entries elsewhere make sums collide within and across blocks.  At
    block sizes from one operand row up to the whole product, with odd
    tails, the merged blocks keep exactly the rows of odd count."""
    rng = np.random.default_rng(22)
    k = 30
    rows = rng.integers(0, 3, size=(60, len(core._basis_for(k))))
    rows[:, :2] += 2**40 * rng.integers(0, 2, size=(60, 2))
    a, b = SymSet(k, rows[:40]), SymSet(k, rows[25:])
    counts = Counter(tuple(x + y) for x in a.exponents for y in b.exponents)
    want = sorted((row for row, c in counts.items() if c % 2), key=lambda row: row[::-1])
    assert core._field_shifts(a.exponents.max(axis=0) + b.exponents.max(axis=0))[1] > 63
    for chunk in (1, 5000, 10**4, core._CHUNK_KEYS):
        monkeypatch.setattr(core, "_CHUNK_KEYS", chunk)
        assert sym_prod(a, b).exponents.tolist() == [list(row) for row in want]
        assert sym_prod(b, a) == sym_prod(a, b)


def test_operator_sugar():
    a = SymSet.from_values(8, [1, 2, 3])
    b = SymSet.from_values(8, [2, 4])
    assert (a ^ b) == sym_diff(a, b)
    assert (a * b) == sym_prod(a, b)
