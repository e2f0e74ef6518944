"""Chain decomposition, structural vectors, and transfer verification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symnabla.chains import (
    Chain,
    StructVec,
    cardinality_functional,
    chain_as_dict,
    chains_to_text,
    decompose,
    format_chain,
    initial_vector,
    mat_mul,
    mat_pow,
    mat_vec,
    squaring_matrix,
    structural_vector,
    transfer_matrix,
    verify_transfer,
)
from symnabla.core import ElementVec, SymSet, make_base_set, sym_power, sym_prod, sym_square
from symnabla.errors import DomainError

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
    chains = decompose(sym_power(8, 3))
    sv = structural_vector(chains, 8)
    assert sv.vector() == (32, 10, 12, 4, 4)
    assert sv.cardinality() == 48
    assert str(sv) == "(32,10,12,4,4)"


def test_base_set_structural_vector():
    # members 1,2,4,8 form one step-1 chain (doubling), 3,6 another,
    # 5 and 7 stay single: census (6, 2, 0, 0, 2)
    chains = decompose(make_base_set(8))
    got = [(c.kind, c.base_value, c.length) for c in chains]
    assert got == [("A", 1, 4), ("A", 3, 2), ("C", 5, 1), ("C", 7, 1)]
    sv = structural_vector(chains, 8)
    assert sv.vector() == (6, 2, 0, 0, 2)
    assert structural_vector(decompose(sym_power(8, 0)), 8).vector() == (
        0,
        0,
        0,
        0,
        1,
    )


def test_square_power_structural_vector():
    # frozen from a hand check of the 8-element square of the base set
    sv = structural_vector(decompose(sym_power(8, 2)), 8)
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
    sv = structural_vector(decompose(sym_power(4, 3)), 4)
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
        sv = structural_vector(decompose(sym_power(8, 2**t - 1)), 8)
        assert sv.vector() == vec
        vec = m8.apply(vec)
    # frozen: a step then a doubling lands on the census of power 2
    w = squaring_matrix()
    stepped = m8.apply(initial_vector(8))
    assert stepped == (6, 2, 0, 0, 2)
    assert w.apply(stepped) == (0, 0, 6, 2, 2)
    assert structural_vector(decompose(sym_power(8, 2)), 8).vector() == (
        0,
        0,
        6,
        2,
        2,
    )


def test_squaring_and_step_matrices_replay_dense_powers():
    """For every power S_n with n < 32, the squaring matrix predicts the
    census of S_n**2 and the step matrix that of S_n**2 * base, exactly
    the two moves the matrix word makes per 0-bit and 1-bit."""
    for k in (4, 5, 6, 7, 8):
        base = make_base_set(k)
        square, step = squaring_matrix(k), transfer_matrix(k)
        for n in range(32):
            power = sym_power(k, n)
            vec = structural_vector(decompose(power), k).vector()
            squared = sym_square(power)
            got = structural_vector(decompose(squared), k).vector()
            assert got == square.apply(vec), (k, n)
            got = structural_vector(decompose(sym_prod(squared, base)), k).vector()
            assert got == step.apply(vec), (k, n)


def test_functional_reads_cardinality():
    u = cardinality_functional(8)
    assert u == (1, 0, 1, 0, 1)
    for n in range(5):
        sv = structural_vector(decompose(sym_power(8, n + 1)), 8)
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
    members = []
    for chain in chains:
        members.extend(chain.values())
    assert sorted(members) == s.values()
    sv = structural_vector(chains, k)
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
