"""Acceptance criteria for the whole package.

Each test prints exactly one line, ACCEPTANCE <name>: PASS or FAIL,
before asserting, so a plain `pytest -s tests/test_acceptance.py` shows
the full scorecard.  All comparisons are exact integer equality.
"""

import random
import time
from pathlib import Path

from symnabla.chains import (
    cardinality_functional,
    census,
    mat_pow,
    transfer_matrix,
    vec_mat,
    verify_transfer,
)
from symnabla.core import power_card_sequence, sym_power
from symnabla.oeis import SEQUENCE_IDS, crosscheck, parse_bfile
from symnabla.recurrence import (
    annihilation_check,
    fast_term,
    gap_split_check,
    matrix_identity_suite,
    matrix_term,
    matrix_term_range,
    reduce_term,
    term,
    term_range,
)

FIXTURES = Path(__file__).parent / "fixtures"

# spot values of the k = 8 sequence, all exact
CHECKPOINTS8 = [
    (3, 48),
    (7, 296),
    (11, 368),
    (15, 1784),
    (27, 2216),
    (59, 13624),
    (1883, 4997448),
]

# structural state along the all-ones family, and after one squaring
STATE_T0 = (0, 0, 0, 0, 1)
STATE_T1 = (6, 2, 0, 0, 2)
STATE_SQUARED = (0, 0, 6, 2, 2)

# the cardinality functional pushed through 1..3 steps of the
# five-state matrix, frozen from exact integer products
FUNCTIONAL_STEPS = {
    1: (4, 4, 8, 0, 8),
    2: (24, 28, 44, 4, 48),
    3: (136, 188, 268, 28, 296),
}

# sequence prefixes for k = 1..4, indices 0..16
PREFIXES = {
    1: [1] * 17,
    2: [1, 2, 2, 4, 2, 4, 4, 8, 2, 4, 4, 8, 4, 8, 8, 16, 2],
    3: [1, 3, 3, 9, 3, 9, 9, 27, 3, 9, 9, 27, 9, 27, 27, 81, 3],
    4: [1, 4, 4, 12, 4, 16, 12, 40, 4, 16, 16, 48, 12, 48, 40, 128, 4],
}


def report(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_01_known_values():
    t0 = time.perf_counter()
    bad = []
    for n, want in CHECKPOINTS8:
        for method in ("matrix", "reduce"):
            got = term(8, n, method=method)
            if got != want:
                bad.append(f"{method}(8,{n})={got}!={want}")
    for t, want in ((0, STATE_T0), (1, STATE_T1)):
        got = census(sym_power(8, 2**t - 1)).vector()
        if got != want:
            bad.append(f"state t={t}: {got}!={want}")
    got = census(sym_power(8, 2)).vector()
    if got != STATE_SQUARED:
        bad.append(f"squared state: {got}!={STATE_SQUARED}")
    u = cardinality_functional(8)
    m = transfer_matrix(8).rows
    for steps, want in FUNCTIONAL_STEPS.items():
        got = vec_mat(u, mat_pow(m, steps))
        if got != want:
            bad.append(f"functional*{steps} steps: {got}!={want}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    report(
        "known-values",
        ok,
        bad[0] if bad else f"7 checkpoints x2 methods, 3 states, 3 functionals, {elapsed:.2f}s",
    )


def test_02_reference_prefixes():
    t0 = time.perf_counter()
    bad = []
    for k, row in PREFIXES.items():
        got = [term(k, n, method="brute") for n in range(17)]
        if got != row:
            bad.append(f"k={k} prefix mismatch at n={next(i for i in range(17) if got[i] != row[i])}")
    for k, sid in SEQUENCE_IDS.items():
        text = (FIXTURES / f"b{sid[1:]}.txt").read_text()
        rep = crosscheck(k, parse_bfile(text, sequence_id=sid), 63)
        if not rep.ok:
            bad.append(f"k={k}: {rep.summary()}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    report(
        "reference-prefixes",
        ok,
        bad[0] if bad else f"4 prefixes 0..16, 4 reference files 0..63, {elapsed:.2f}s",
    )


def test_03_method_agreement():
    t0 = time.perf_counter()
    bad = []
    for k in range(2, 9):
        brute = power_card_sequence(k, 512)
        if term_range(k, 512).tolist() != brute:
            bad.append(f"term_range k={k} diverges from brute")
        if k <= 7:
            fast = [fast_term(k, n) for n in range(513)]
            if fast != brute:
                bad.append(f"fast k={k} diverges from brute")
            if k >= 4 and [int(x) for x in matrix_term_range(512, k=k)] != brute:
                bad.append(f"matrix k={k} diverges from brute")
        else:
            swept = [int(x) for x in matrix_term_range(512)]
            if swept != brute:
                bad.append("matrix diverges from brute")
            cache = {}
            red = [reduce_term(n, cache=cache) for n in range(513)]
            if red != brute:
                bad.append("reduce diverges from brute")
    sweep_elapsed = time.perf_counter() - t0
    t1 = time.perf_counter()
    arr = matrix_term_range(10**6)
    if not (term_range(8, 10**6) == arr).all():
        bad.append("term_range != matrix to 1e6")
    cache = {}
    for n in range(10**6 + 1):
        if reduce_term(n, cache=cache) != int(arr[n]):
            bad.append(f"matrix!=reduce at n={n}")
            break
    long_elapsed = time.perf_counter() - t1
    ok = not bad and sweep_elapsed < 120.0 and long_elapsed < 60.0
    report(
        "method-agreement",
        ok,
        bad[0]
        if bad
        else f"k=2..8 vs brute to 512 in {sweep_elapsed:.1f}s, matrix=reduce=term_range to 1e6 in {long_elapsed:.1f}s",
    )


def test_04_gap_splitting():
    rng = random.Random(20240815)
    bad = []
    for _ in range(200):
        k = rng.randint(2, 7)
        s = rng.randint(1, 4)
        alpha = rng.randint(0, 2**s - 1)
        beta = rng.randint(0, 15)
        if not gap_split_check(k, alpha, beta, s):
            bad.append(f"split failed: k={k} alpha={alpha} beta={beta} s={s}")
            break
    counter = gap_split_check(8, 3, 1, 2)
    if counter:
        bad.append("k=8 single-zero counterexample did not falsify")
    lhs, rhs = matrix_term(11), matrix_term(3) * matrix_term(1)
    if (lhs, rhs) != (368, 384):
        bad.append(f"counterexample values {lhs},{rhs}!=368,384")
    ok = not bad
    report(
        "gap-splitting",
        ok,
        bad[0] if bad else "200 random splits hold for k<=7; k=8 falsified by 368!=384",
    )


def test_05_transfer_verification():
    bad = []
    rep8 = verify_transfer(8, 5)
    if not rep8.ok:
        bad.append(rep8.summary().splitlines()[0])
    if rep8.vectors[4].cardinality() != 1784:
        bad.append(f"t=4 cardinality {rep8.vectors[4].cardinality()}!=1784")
    for k in (4, 5, 6, 7):
        rep = verify_transfer(k, 6)
        if not rep.ok:
            bad.append(f"k={k}: {rep.summary().splitlines()[0]}")
    ok = not bad
    report(
        "transfer-verification",
        ok,
        bad[0] if bad else "k=8 to t=5 and k=4..7 to t=6: steps, partitions, gaps",
    )


def test_06_matrix_identities():
    t0 = time.perf_counter()
    bad = []
    suite = matrix_identity_suite()
    if not suite.all_ok:
        bad.extend(name for name, good in suite.entries if not good)
    for k in (4, 5, 6, 7, 8):
        if not annihilation_check(k):
            bad.append(f"annihilation fails at k={k}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    report(
        "matrix-identities",
        ok,
        bad[0] if bad else f"{len(suite.entries)} identities and 5 annihilators, {elapsed:.2f}s",
    )


def test_07_rewrite_totality():
    t0 = time.perf_counter()
    bad = []
    arr = matrix_term_range(10**5)
    cache_core, cache_opt = {}, {}
    for n in range(10**5 + 1):
        want = int(arr[n])
        if reduce_term(n, cache=cache_core) != want:
            bad.append(f"core rules wrong at n={n}")
            break
        if reduce_term(n, optional_rules=True, cache=cache_opt) != want:
            bad.append(f"optional rules wrong at n={n}")
            break
    rng = random.Random(4242)
    samples = list(range(1025)) + [rng.randint(1025, 10**5) for _ in range(300)]
    for n in samples:
        _, trace = reduce_term(n, trace=True)
        leaves = {leaf.n for leaf in trace.leaves()}
        if not leaves <= {0, 1, 3}:
            bad.append(f"non-base leaf for n={n}: {sorted(leaves - {0, 1, 3})}")
            break
        if any(node.value != reduce_term(node.n) for node in trace.iter_nodes()):
            bad.append(f"trace node value mismatch inside n={n}")
            break
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    report(
        "rewrite-totality",
        ok,
        bad[0]
        if bad
        else f"both rule sets total on 0..1e5, {len(samples)} traces grounded, {elapsed:.1f}s",
    )


def test_08_power_collapse():
    bad = []
    for k in range(1, 9):
        for t in range(51):
            got = term(k, 2**t)
            if got != k:
                bad.append(f"term({k}, 2**{t})={got}!={k}")
                break
    rng = random.Random(31337)
    for _ in range(1000):
        n = rng.randint(0, 10**9)
        if matrix_term(2 * n) != matrix_term(n):
            bad.append(f"doubling changes value at n={n}")
            break
    # beyond the structured range only squarings happen at power-of-two
    # indices, so even the set engine collapses instantly
    for k, t in ((9, 50), (12, 40), (30, 20)):
        got = term(k, 2**t)
        if got != k:
            bad.append(f"term({k}, 2**{t})={got}!={k}")
    ok = not bad
    report(
        "power-collapse",
        ok,
        bad[0] if bad else "term(k, 2**t)=k for k<=8 t<=50 and spot large k; 1000 doubling draws stable",
    )
