"""Chain decomposition, structural vectors, and transfer verification."""

import time
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symnabla.chains as chains_mod
import symnabla.core as core_mod
from symnabla.chains import (
    Chain,
    StructVec,
    cardinality_functional,
    census,
    chain_as_dict,
    chains_to_text,
    decompose,
    format_chain,
    initial_vector,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_vec,
    squaring_matrix,
    transfer_matrix,
    verify_transfer,
)
from symnabla.cli import main
from symnabla.core import (
    ElementVec,
    SymSet,
    brute_card,
    make_base_set,
    sym_power,
    sym_prod,
    sym_square,
)
from symnabla.errors import DomainError, SizeLimitError
from symnabla.recurrence import sparse_term


def _runs(values, step):
    """Maximal runs of the given step inside an ascending sequence."""
    runs = []
    for v in values:
        if runs and v == runs[-1][-1] + step:
            runs[-1].append(v)
        else:
            runs.append([v])
    return runs


def reference_chains(s):
    """Pure-Python decomposition as (kind, base value, length), sorted.

    Per odd part: maximal step-1 runs of the exponent of 2 are kind A;
    at k = 8 the maximal step-2 runs among the leftovers are kind B;
    every other member is a kind C singleton.
    """
    groups = {}
    for row in s.exponents.tolist():
        groups.setdefault(tuple(row[1:]), []).append(row[0])
    phases = [("A", 1), ("B", 2)] if s.k == 8 else [("A", 1)]
    found = []
    for odd, e2s in groups.items():
        odd_value = prod(p**e for p, e in zip(s.basis[1:], odd))
        leftover = sorted(e2s)
        for kind, step in phases:
            rest = []
            for run in _runs(leftover, step):
                if len(run) >= 2:
                    found.append((kind, odd_value << run[0], len(run)))
                else:
                    rest.extend(run)
            leftover = rest
        found.extend(("C", odd_value << e, 1) for e in leftover)
    return sorted(found)


def as_triples(chains):
    return [(c.kind, c.base_value, c.length) for c in chains]


def chain_census(chains, k):
    """The census counted off a chain list: total length and number of
    the A chains, then of the B chains, then the C singletons."""
    a, b, c = ([ch.length for ch in chains if ch.kind == kind] for kind in "ABC")
    return StructVec(k, sum(a), len(a), sum(b), len(b), len(c))

# the full 18-chain breakdown of the cube of the k = 8 base set,
# written as (kind, base value, length); total membership is 48
CUBE8_CHAINS = [
    ("A", 1, 2),
    ("A", 3, 8),
    ("A", 9, 2),
    ("A", 25, 4),
    ("A", 27, 4),
    ("A", 49, 4),
    ("A", 75, 2),
    ("A", 144, 2),
    ("A", 147, 2),
    ("A", 256, 2),
    ("B", 5, 4),
    ("B", 7, 4),
    ("B", 45, 2),
    ("B", 63, 2),
    ("C", 125, 1),
    ("C", 175, 1),
    ("C", 245, 1),
    ("C", 343, 1),
]


def test_cube_decomposition_matches_known_table():
    chains = decompose(sym_power(8, 3))
    got = [(c.kind, c.base_value, c.length) for c in chains]
    assert got == CUBE8_CHAINS
    assert sum(c.length for c in chains) == 48


def test_cube_structural_vector():
    sv = census(sym_power(8, 3))
    assert sv.vector() == (32, 10, 12, 4, 4)
    assert sv.cardinality() == 48
    assert str(sv) == "(32,10,12,4,4)"


def test_base_set_structural_vector():
    # members 1,2,4,8 form one step-1 chain (doubling), 3,6 another,
    # 5 and 7 stay single: census (6, 2, 0, 0, 2)
    chains = decompose(make_base_set(8))
    got = [(c.kind, c.base_value, c.length) for c in chains]
    assert got == [("A", 1, 4), ("A", 3, 2), ("C", 5, 1), ("C", 7, 1)]
    sv = census(make_base_set(8))
    assert sv.vector() == (6, 2, 0, 0, 2)
    assert census(sym_power(8, 0)).vector() == (0, 0, 0, 0, 1)


def test_square_power_structural_vector():
    # frozen from a hand check of the 8-element square of the base set
    sv = census(sym_power(8, 2))
    assert sv.vector() == (0, 0, 6, 2, 2)


def test_chain_members_reconstruct_set():
    for k in (4, 6, 8):
        for n in (1, 2, 3, 4):
            s = sym_power(k, n)
            members = []
            for chain in decompose(s):
                members.extend(chain.values())
            assert sorted(members) == s.values()
            assert len(set(members)) == len(members)


def test_small_k_struct_vector_is_three_parts():
    sv = census(sym_power(4, 3))
    assert isinstance(sv, StructVec)
    assert len(sv.vector()) == 3
    assert sv.cardinality() == 12


def test_decompose_domain_errors():
    with pytest.raises(DomainError):
        decompose(sym_power(3, 2))  # k below the structured range
    with pytest.raises(DomainError):
        decompose(SymSet.empty(8))


def test_chain_validation_and_accessors():
    chain = Chain("A", ElementVec.from_value(8, 3), 4)
    assert chain.base_value == 3
    assert chain.values() == [3, 6, 12, 24]
    b = Chain("B", ElementVec.from_value(8, 5), 3)
    assert b.values() == [5, 20, 80]
    c = Chain("C", ElementVec.from_value(8, 7), 1)
    assert c.values() == [7]
    with pytest.raises(DomainError):
        Chain("D", ElementVec.from_value(8, 3), 2)
    with pytest.raises(DomainError):
        Chain("A", ElementVec.from_value(8, 3), 0)
    with pytest.raises(DomainError):
        Chain("C", ElementVec.from_value(8, 3), 2)  # singletons have length 1
    with pytest.raises(DomainError):
        Chain("A", ElementVec.from_value(8, 3), 1)  # runs need length >= 2


def test_chain_formatting():
    chain = Chain("A", ElementVec.from_value(8, 3), 8)
    assert format_chain(chain) == "A base=3 len=8"
    d = chain_as_dict(chain)
    assert d == {"kind": "A", "base": "3", "length": 8}
    text = chains_to_text(decompose(make_base_set(8)))
    assert text.splitlines() == [
        "A base=1 len=4",
        "A base=3 len=2",
        "C base=5 len=1",
        "C base=7 len=1",
    ]


def test_transfer_matrix_contents():
    m8 = transfer_matrix(8)
    assert m8.dim == 5
    assert m8.rows == (
        (2, 4, 6, 0, 6),
        (0, 3, 1, 1, 2),
        (2, 0, 0, 0, 0),
        (0, 2, 0, 0, 0),
        (0, 0, 2, 0, 2),
    )
    w = squaring_matrix()
    assert w.rows == (
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 1),
    )
    for k in (4, 5, 6, 7):
        assert transfer_matrix(k).dim == 3
        assert squaring_matrix(k).rows == ((0, 0, 0), (0, 0, 0), (1, 0, 1))
    with pytest.raises(DomainError):
        transfer_matrix(3)
    with pytest.raises(DomainError):
        transfer_matrix(9)


def test_transfer_matrix_apply_checks_dimension():
    m8 = transfer_matrix(8)
    assert m8.apply((0, 0, 0, 0, 1)) == (6, 2, 0, 0, 2)
    with pytest.raises(DomainError):
        m8.apply((1, 2, 3))


def test_step_matrix_advances_structural_vectors():
    """M advances the census along the all-ones exponent family."""
    m8 = transfer_matrix(8)
    vec = initial_vector(8)
    assert vec == (0, 0, 0, 0, 1)
    for t in range(5):
        sv = census(sym_power(8, 2**t - 1))
        assert sv.vector() == vec
        vec = m8.apply(vec)
    # frozen: a step then a doubling lands on the census of power 2
    w = squaring_matrix()
    stepped = m8.apply(initial_vector(8))
    assert stepped == (6, 2, 0, 0, 2)
    assert w.apply(stepped) == (0, 0, 6, 2, 2)
    assert census(sym_power(8, 2)).vector() == (0, 0, 6, 2, 2)


def test_squaring_and_step_matrices_replay_dense_powers():
    """For every power S_n with n < 32, the squaring matrix predicts the
    census of S_n**2 and the step matrix that of S_n**2 * base, exactly
    the two moves the matrix word makes per 0-bit and 1-bit."""
    for k in (4, 5, 6, 7, 8):
        base = make_base_set(k)
        square, step = squaring_matrix(k), transfer_matrix(k)
        for n in range(32):
            power = sym_power(k, n)
            vec = census(power).vector()
            squared = sym_square(power)
            assert census(squared).vector() == square.apply(vec), (k, n)
            assert census(sym_prod(squared, base)).vector() == step.apply(vec), (k, n)


def test_doubling_toggle_counts_maximal_runs():
    """|S_n * {1, 2}| = |S_n xor 2 S_n| is twice the number of maximal
    doubling runs: 2(c + r) for k = 4..7 and 2(c + u + r) at k = 8, where
    every member of a ratio-4 chain is a run of its own.  With it the
    square-class split gives a(2n + 1) = (k - 2t)|S_n| + t|S_n * {1, 2}|,
    t being the number of h = c * q**2 <= k with q = 2 (one below k = 8,
    two at k = 8)."""
    for k in (4, 5, 6, 7, 8):
        doubling = SymSet.from_values(k, [1, 2])
        t = 2 if k == 8 else 1
        for n in range(40):
            power = sym_power(k, n)
            sv = census(power)
            runs = sv.c + sv.u + sv.r  # u = 0 below k = 8
            toggled = len(sym_prod(power, doubling))
            assert toggled == 2 * runs, (k, n)
            assert brute_card(k, 2 * n + 1) == (k - 2 * t) * len(power) + t * toggled, (k, n)


def test_functional_reads_cardinality():
    u = cardinality_functional(8)
    assert u == (1, 0, 1, 0, 1)
    for n in range(5):
        sv = census(sym_power(8, n + 1))
        v = sv.vector()
        assert sum(ui * vi for ui, vi in zip(u, v)) == len(sym_power(8, n + 1))
    assert cardinality_functional(4) == (1, 0, 1)


def test_verify_transfer_passes_structured_range():
    rep = verify_transfer(8, 5)
    assert rep.ok
    assert rep.k == 8 and rep.n_max == 5
    assert len(rep.vectors) == 6
    assert rep.vectors[4].cardinality() == 1784
    assert rep.summary().startswith("PASS k=8 powers 0..5")
    for k in (4, 5, 6, 7):
        assert verify_transfer(k, 6).ok
    rep = verify_transfer(8, 7)
    assert rep.ok
    assert rep.vectors[7].cardinality() == len(sym_power(8, 127))


def test_verify_transfer_reports_not_raises():
    rep = verify_transfer(8, 4)
    assert rep.failures == ()
    assert "FAIL" not in rep.summary()


def test_verify_transfer_domain_errors():
    with pytest.raises(DomainError):
        verify_transfer(3, 4)
    with pytest.raises(DomainError):
        verify_transfer(8, -1)


def test_exact_matrix_helpers():
    m = ((1, 2), (3, 4))
    ident = ((1, 0), (0, 1))
    assert mat_mul(m, ident) == m
    assert mat_pow(m, 0) == ident
    assert mat_pow(m, 3) == mat_mul(m, mat_mul(m, m))
    assert mat_vec(m, (1, 1)) == (3, 7)
    for a in (m, ((0, 1), (0, 0)), transfer_matrix(8).rows, squaring_matrix(8).rows):
        expected = mat_identity(len(a))
        for e in range(41):
            assert mat_pow(a, e) == expected, (a, e)
            expected = mat_mul(expected, a)
    with pytest.raises(DomainError):
        mat_pow(m, -1)


def test_struct_vec_validation():
    with pytest.raises(DomainError):
        StructVec(8, -1, 0, 0, 0, 0)
    sv = StructVec(5, 2, 3, 0, 0, 4)
    assert sv.vector() == (2, 3, 4)
    with pytest.raises(DomainError):
        StructVec(5, 2, 3, 1, 0, 4)  # step-2 families only exist at k = 8


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([4, 5, 6, 7, 8]),
    rows=st.lists(
        st.tuples(
            st.integers(0, 6),
            st.integers(0, 3),
            st.integers(0, 2),
            st.integers(0, 2),
        ),
        min_size=1,
        max_size=24,
    ),
)
def test_decompose_partitions_arbitrary_sets(k, rows):
    """Any set over the basis splits into disjoint chains covering it."""
    width = len(make_base_set(k).basis)
    trimmed = [row[:width] for row in rows]
    s = SymSet(k, trimmed)
    chains = decompose(s)
    assert as_triples(chains) == reference_chains(s)
    sv = chain_census(chains, k)
    assert census(s) == sv
    members = []
    for chain in chains:
        members.extend(chain.values())
    assert sorted(members) == s.values()
    assert sv.cardinality() == len(s)
    # A chains never touch: consecutive powers of two over one odd part
    # always merge into a single maximal run
    seen = {}
    for chain in chains:
        if chain.kind != "A":
            continue
        odd = chain.base_value
        while odd % 2 == 0:
            odd //= 2
        e2 = (chain.base_value // odd).bit_length() - 1
        for offset in range(chain.length):
            key = (odd, e2 + offset)
            assert key not in seen
            seen[key] = chain


def test_decompose_matches_reference_with_step_two_runs():
    """One odd part holding an A run, a B run and a singleton at k = 8;
    below k = 8 the would-be B run falls apart into singletons."""
    # exponents of 2 for odd part 3: 0 1 | 3 5 7 | 10
    values = [3 << e for e in (0, 1, 3, 5, 7, 10)] + [5, 20, 80, 7]
    s8 = SymSet.from_values(8, values)
    assert reference_chains(s8) == [
        ("A", 3, 2),
        ("B", 5, 3),
        ("B", 24, 3),
        ("C", 7, 1),
        ("C", 3072, 1),
    ]
    assert as_triples(decompose(s8)) == reference_chains(s8)
    assert census(s8).vector() == (2, 1, 6, 2, 2)
    s7 = SymSet.from_values(7, values)
    assert as_triples(decompose(s7)) == reference_chains(s7)
    assert census(s7).vector() == (2, 1, 8)
    for k in (4, 5, 6, 7, 8):
        for n in range(24):
            s = sym_power(k, n)
            chains = decompose(s)
            assert as_triples(chains) == reference_chains(s), (k, n)
            assert census(s) == chain_census(chains, k), (k, n)


def test_census_rejects_what_decompose_rejects():
    with pytest.raises(DomainError):
        census(SymSet.empty(8))
    with pytest.raises(DomainError):
        census(sym_power(3, 2))


def _patch_runs(monkeypatch, mutate):
    """Route every split, from rows or keys, through mutate(None, runs) -> runs."""
    original = chains_mod._split_runs

    def patched(new_group, e2, k):
        return mutate(None, dict(original(new_group, e2, k)))

    monkeypatch.setattr(chains_mod, "_split_runs", patched)


def _drop_member(odd, runs):
    runs["C"] = tuple(a[:-1] for a in runs["C"])
    return runs


def _merge_runs(odd, runs):
    group, start, length = runs["A"]
    if len(length) >= 2:
        merged = np.concatenate(([length[0] + length[1]], length[2:]))
        runs["A"] = (np.delete(group, 1), np.delete(start, 1), merged)
    return runs


def _split_a_run(odd, runs):
    group, start, length = runs["A"]
    long = np.flatnonzero(length >= 4)
    if len(long):
        i = int(long[0])
        head = length.copy()
        head[i] = 2
        runs["A"] = (
            np.insert(group, i + 1, group[i]),
            np.insert(start, i + 1, start[i] + 2),
            np.insert(head, i + 1, length[i] - 2),
        )
    return runs


def _interleave_runs(odd, runs):
    """Turn the first A run of length 4, m..m + 3, into the B runs
    {m, m + 2} and {m + 1, m + 3}: the partition stays intact, but each
    B run's member sits between two members of the other, on one odd
    part."""
    group, start, length = runs["A"]
    four = np.flatnonzero(length == 4)
    if len(four):
        i = int(four[0])
        runs["A"] = tuple(np.delete(a, i) for a in runs["A"])
        added = ([group[i]] * 2, [start[i], start[i] + 1], [2, 2])
        b_group, b_start, b_length = (np.concatenate((a, extra)) for a, extra in zip(runs["B"], added))
        order = np.lexsort((b_start, b_group))
        runs["B"] = (b_group[order], b_start[order], b_length[order])
    return runs


def _bump_step_row(monkeypatch):
    rows = [list(r) for r in chains_mod._STEP_ROWS[8]]
    rows[0][0] += 1
    monkeypatch.setitem(chains_mod._STEP_ROWS, 8, tuple(map(tuple, rows)))


def _bump_square_row(monkeypatch):
    rows = [list(r) for r in chains_mod._SQUARE_ROWS[8]]
    rows[4][4] += 1
    monkeypatch.setitem(chains_mod._SQUARE_ROWS, 8, tuple(map(tuple, rows)))


@pytest.mark.parametrize(
    "check, fault",
    [
        ("partition", lambda mp: _patch_runs(mp, _drop_member)),
        ("partition", lambda mp: _patch_runs(mp, _merge_runs)),
        ("chain_gap", lambda mp: _patch_runs(mp, _split_a_run)),
        ("chain_gap", lambda mp: _patch_runs(mp, _interleave_runs)),
        ("vector", _bump_step_row),
        ("square", _bump_square_row),
    ],
    ids=["drop_member", "merge_runs", "split_a_run", "interleave_runs", "step_row", "square_row"],
)
def test_verify_transfer_reports_each_fault(check, fault, monkeypatch, capsys):
    fault(monkeypatch)
    rep = verify_transfer(8, 3)
    assert not rep.ok
    assert check in {f.check for f in rep.failures}
    assert rep.summary().startswith("FAIL k=8")
    assert main(["verify", "--k", "8", "--max-n", "3"]) == 4
    assert f" {check}" in capsys.readouterr().out


def test_chain_gap_failure_text(monkeypatch):
    """A base=1 len=4 at power 1, split in two, is reported with the
    bases of both halves."""
    _patch_runs(monkeypatch, _split_a_run)
    gaps = [f for f in verify_transfer(8, 1).failures if f.check == "chain_gap"]
    assert gaps[0].message() == (
        "k=8 n=1 chain_gap: expected gap >= 3 between chains A base=1 "
        "and A base=4, got gap 1"
    )


def test_interleaved_runs_report_chain_gap_not_partition(monkeypatch):
    """Two B runs threaded through each other cover every key once, so
    only the gap check can see them: the count of close neighbours
    exceeds sum(length - 1), and the run-id pass names each pair."""
    _patch_runs(monkeypatch, _interleave_runs)
    failures = verify_transfer(8, 3).failures
    assert "partition" not in {f.check for f in failures}
    gaps = [f.message() for f in failures if f.check == "chain_gap"]
    assert gaps[:3] == [
        "k=8 n=1 chain_gap: expected gap >= 3 between chains B base=1 and B base=2, got gap 1",
        "k=8 n=1 chain_gap: expected gap >= 3 between chains B base=2 and B base=1, got gap 1",
        "k=8 n=1 chain_gap: expected gap >= 3 between chains B base=1 and B base=2, got gap 1",
    ]
    assert {f.n for f in failures if f.check == "chain_gap"} == {1, 2, 3}


def test_passing_levels_form_no_run_ids(monkeypatch):
    """On real sets the count of close neighbours settles every level
    of the benchmark's replays, so the pair-by-pair report never runs."""

    def refuse(*args):
        raise AssertionError("run ids formed")

    monkeypatch.setattr(chains_mod, "_report_runs", refuse)
    for k, t in ((4, 7), (5, 7), (6, 6), (7, 6), (8, 6)):
        assert verify_transfer(k, t).ok


def test_verify_and_structure_build_no_chain(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("Chain constructed")

    monkeypatch.setattr(chains_mod, "Chain", refuse)
    assert verify_transfer(8, 5).ok
    assert main(["verify", "--k", "7", "--max-n", "5"]) == 0
    assert main(["structure", "--k", "8", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "(200,54,64,20,32)"
    with pytest.raises(AssertionError):
        decompose(make_base_set(8))


@pytest.mark.parametrize("k, t_max", [(4, 6), (5, 6), (6, 6), (7, 6), (8, 7)])
def test_verify_transfer_keys_match_rows_census(k, t_max, monkeypatch):
    """Every census verify_transfer checks, split from packed keys, equals
    the census of the same set split from its rows: the level's
    against sym_power, the square's against sym_square."""
    seen = []
    original = chains_mod._check_vector

    def spy(k_, n, check, predicted, actual, failures):
        seen.append((check, n, actual))
        original(k_, n, check, predicted, actual, failures)

    monkeypatch.setattr(chains_mod, "_check_vector", spy)
    rep = verify_transfer(k, t_max)
    assert rep.ok
    assert [(check, n) for check, n, _ in seen] == [
        (check, n) for n in range(t_max + 1) for check in ("vector", "square")
    ][1:-1]
    for n in range(t_max + 1):
        assert rep.vectors[n] == census(sym_power(k, 2**n - 1)), (k, n)
    for check, n, actual in seen:
        if check == "square":
            assert actual == census(sym_square(sym_power(k, 2**n - 1))), (k, n)


def reference_runs(s):
    """(group, start, length) triples per kind in the split's order, by
    pure Python: groups number the odd parts in row order, and each
    phase takes the maximal runs of its step among what the phases
    before it left, group by group."""
    groups = {}
    for row in s.exponents.tolist():
        groups.setdefault(tuple(row[1:]), []).append(row[0])
    leftover = list(enumerate(groups.values()))
    found = {"A": [], "B": [], "C": []}
    for kind, step in [("A", 1), ("B", 2)] if s.k == 8 else [("A", 1)]:
        rest = []
        for g, e2s in leftover:
            singles = []
            for run in _runs(e2s, step):
                if len(run) >= 2:
                    found[kind].append((g, run[0], len(run)))
                else:
                    singles.extend(run)
            rest.append((g, singles))
        leftover = rest
    found["C"] = [(g, e, 1) for g, e2s in leftover for e in e2s]
    return found


def run_triples(runs):
    return {kind: list(zip(*(a.tolist() for a in runs[kind]))) for kind in "ABC"}


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
def test_key_split_pins_groups_and_starts(k):
    """For every power 2**t - 1 with t <= 6 and its square, the split of
    the packed keys names the same odd parts and gives the same (group,
    start, length) arrays per kind as the split of the rows, and both
    equal a pure-Python split."""
    kb, maxima = core_mod._base_keys(make_base_set(k), 1)
    w = max(maxima[0].bit_length(), 1)
    keys = np.zeros(1, dtype=np.int64)
    for t in range(7):
        power = sym_power(k, 2**t - 1)
        for s, packed in ((power, keys), (sym_square(power), keys * 2)):
            odd_keys, key_runs = chains_mod._key_runs(packed, w, k)
            odd_rows, row_runs = chains_mod._chain_runs(s)
            assert np.array_equal(core_mod._unpack(odd_keys << w, maxima)[:, 1:], odd_rows), (k, t)
            for kind in "ABC":
                for a, b in zip(key_runs[kind], row_runs[kind]):
                    assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), (k, t, kind)
            assert run_triples(key_runs) == reference_runs(s), (k, t)
        keys = core_mod._times_keys(keys * 2, kb)


def _layout_level(k):
    """The largest t whose key layout for power 2**t - 1 fits 63 bits."""
    return max(t for t in range(1, 64) if core_mod._base_keys(make_base_set(k), 2**t - 1) is not None)


def _first_level_over(k, bound, factor=1):
    """The first level t >= 1 with sparse_term(k, t) * factor > bound."""
    t = 1
    while sparse_term(k, t) * factor <= bound:
        t += 1
    return t


def test_key_layout_reaches_the_guard():
    """The widest layout holds every level verify_transfer can form: the
    pair guard refuses to form level g, where |level g - 1| * k first
    exceeds it, and g is within the layout."""
    reach = {}
    for k in (4, 5, 6, 7, 8):
        guard_level = _first_level_over(k, core_mod._PAIR_GUARD, k) + 1
        assert guard_level <= _layout_level(k), k
        reach[k] = (_layout_level(k), guard_level)
    # the figures the verify_transfer docstring quotes
    assert reach == {4: (31, 17), 5: (20, 13), 6: (20, 12), 7: (15, 11), 8: (15, 11)}


@pytest.mark.parametrize("n_max", [12, 40, 2**70])
def test_verify_transfer_refusals(n_max, monkeypatch):
    """The cap and the pair guard refuse with sym_prod's and the power
    operations' messages, however large n_max; a layout too narrow for
    the guard's level raises instead of wrapping."""
    for k in (4, 5, 6, 7, 8):
        for cap in (1, 100, 5000):
            a = sparse_term(k, _first_level_over(k, cap))
            started = time.perf_counter()
            with pytest.raises(SizeLimitError) as err:
                verify_transfer(k, n_max, max_elements=cap)
            assert str(err.value) == f"symmetric power reached {a} elements, over the cap {cap}"
            assert time.perf_counter() - started < 2
    monkeypatch.setattr(core_mod, "_PAIR_GUARD", 4096)
    wide = core_mod._base_keys
    for k in (4, 5, 6, 7, 8):
        level = _first_level_over(k, 4096, k)  # the last level formed
        pairs = sparse_term(k, level) * k
        message = f"symmetric product needs {pairs} pairwise products, over the guard 4096"
        with pytest.raises(SizeLimitError) as err:
            verify_transfer(k, n_max, max_elements=10**9)
        assert str(err.value) == message
        # at the edge of a layout that ends at that level the guard still speaks first
        monkeypatch.setattr(chains_mod, "_base_keys", lambda base, n: wide(base, n) if n < 2**level else None)
        with pytest.raises(SizeLimitError) as err:
            verify_transfer(k, n_max, max_elements=10**9)
        assert str(err.value) == message
        monkeypatch.setattr(chains_mod, "_base_keys", wide)
    monkeypatch.undo()
    reports = {k: verify_transfer(k, 4) for k in (4, 5, 6, 7, 8)}
    # a layout that holds levels 0..4 only, far below the guard's level
    monkeypatch.setattr(chains_mod, "_base_keys", lambda base, n: wide(base, n) if n < 2**4 else None)
    for k in (4, 5, 6, 7, 8):
        assert verify_transfer(k, 4) == reports[k]
        with pytest.raises(SizeLimitError, match=f"power 31 of k={k} needs keys wider than 63 bits"):
            verify_transfer(k, n_max)
