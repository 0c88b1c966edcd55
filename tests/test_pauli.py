from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsagms.code import GbSpec, SparseCheckMatrix, build_gb
from qsagms.pauli import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    check_orthogonality,
    from_bits,
    pauli_compose,
    pauli_vector,
    residual_syndrome,
    syndrome,
    trace_inner,
    x_bit,
    z_bit,
)

from .oracles import orthogonal_dense, orthogonal_pairs, syndrome_dense

paulis = st.integers(min_value=0, max_value=3)


def test_encoding_round_trip():
    for p in range(4):
        assert from_bits(x_bit(p), z_bit(p)) == p
    # the (x, z) pairs of I, X, Z, Y are pairwise distinct
    assert {(x_bit(p), z_bit(p)) for p in range(4)} == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_trace_inner_examples():
    assert trace_inner(PAULI_X, PAULI_X) == 0
    assert trace_inner(PAULI_X, PAULI_Z) == 1
    assert trace_inner(PAULI_Y, PAULI_Z) == 1
    assert trace_inner(PAULI_I, PAULI_Y) == 0


@given(paulis, paulis)
def test_trace_inner_symmetric_and_alternating(a, b):
    assert trace_inner(a, b) == trace_inner(b, a)
    assert trace_inner(a, a) == 0


@given(paulis, paulis, paulis)
def test_trace_inner_bilinear(a, b, c):
    left = trace_inner(pauli_compose(a, b), c)
    assert left == trace_inner(a, c) ^ trace_inner(b, c)


def test_pauli_compose_examples():
    assert pauli_compose(PAULI_X, PAULI_Z) == PAULI_Y
    assert pauli_compose(PAULI_Y, PAULI_Y) == PAULI_I
    assert pauli_compose(PAULI_I, PAULI_Z) == PAULI_Z


@given(paulis, paulis, paulis)
def test_pauli_compose_abelian_group(a, b, c):
    assert pauli_compose(a, b) == pauli_compose(b, a)
    assert pauli_compose(pauli_compose(a, b), c) == pauli_compose(a, pauli_compose(b, c))
    assert pauli_compose(a, PAULI_I) == a
    assert pauli_compose(a, a) == PAULI_I


def test_pauli_vector_parsing():
    v = pauli_vector("IXZY")
    assert v.tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        pauli_vector("IXQ")
    with pytest.raises(ValueError):
        pauli_vector([0, 4])
    with pytest.raises(ValueError):
        pauli_vector("IX", n=3)


def test_syndrome_identity_error(toy_code):
    assert not syndrome(toy_code, np.zeros(6, dtype=np.uint8)).any()


def test_syndrome_single_anticommuting_entry():
    H = SparseCheckMatrix(n=1, rows=[[(0, PAULI_X)]])
    assert syndrome(H, [PAULI_Z]).tolist() == [1]
    assert syndrome(H, [PAULI_X]).tolist() == [0]


def test_syndrome_matches_dense_oracle(toy_code):
    e = np.zeros(6, dtype=np.uint8)
    e[0] = PAULI_X
    assert np.array_equal(syndrome(toy_code, e), syndrome_dense(toy_code, e))


@given(st.lists(paulis, min_size=6, max_size=6))
def test_syndrome_matches_dense_oracle_random(e):
    H = build_gb(GbSpec(3, (0, 1), (0, 2)))
    e = np.array(e, dtype=np.uint8)
    assert np.array_equal(syndrome(H, e), syndrome_dense(H, e))


@given(st.lists(paulis, min_size=6, max_size=6), st.lists(paulis, min_size=6, max_size=6))
def test_syndrome_additive_under_composition(e, f):
    H = build_gb(GbSpec(3, (0, 1), (0, 2)))
    e = np.array(e, dtype=np.uint8)
    f = np.array(f, dtype=np.uint8)
    combined = syndrome(H, pauli_compose(e, f))
    assert np.array_equal(combined, syndrome(H, e) ^ syndrome(H, f))


def test_length_mismatch_errors(toy_code):
    with pytest.raises(ValueError):
        syndrome(toy_code, np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError):
        residual_syndrome(np.zeros(5, dtype=np.uint8), toy_code, np.zeros(6, dtype=np.uint8))


def test_residual_syndrome(toy_code):
    e = pauli_vector("XIZIYI")
    s = syndrome(toy_code, e)
    # zero estimate leaves the syndrome unchanged
    assert np.array_equal(residual_syndrome(s, toy_code, np.zeros(6, dtype=np.uint8)), s)
    # exact recovery zeroes it
    assert not residual_syndrome(s, toy_code, e).any()


@given(
    st.lists(paulis, min_size=6, max_size=6),
    st.lists(st.integers(0, 1), min_size=6, max_size=6),
)
def test_residual_matches_dense_oracle(e_hat, s):
    H = build_gb(GbSpec(3, (0, 1), (0, 2)))
    e_hat = np.array(e_hat, dtype=np.uint8)
    s = np.array(s, dtype=np.uint8)
    expected = s ^ syndrome_dense(H, e_hat)
    assert np.array_equal(residual_syndrome(s, H, e_hat), expected)


def test_check_orthogonality_gb_codes(toy_code, small_code, gb126_code):
    for H in (toy_code, small_code, gb126_code):
        assert check_orthogonality(H)
        assert orthogonal_dense(H)


def test_check_orthogonality_anticommuting_rows():
    H = SparseCheckMatrix(n=1, rows=[[(0, PAULI_X)], [(0, PAULI_Z)]])
    assert not check_orthogonality(H)
    assert not orthogonal_dense(H)


@st.composite
def symbol_matrices(draw):
    """Random small matrices, including empty rows and anticommuting pairs."""
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), max_size=6))
    return SparseCheckMatrix(
        n=n, rows=[[(j, s) for j, s in enumerate(row) if s] for row in rows]
    )


@settings(max_examples=300)
@given(symbol_matrices())
def test_check_orthogonality_matches_pairwise_oracle(H):
    assert check_orthogonality(H) == orthogonal_pairs(H) == orthogonal_dense(H)


def test_stabilizer_rows_are_invisible(toy_code, small_code):
    # rows of a valid H, viewed as error patterns, have zero syndrome
    for H in (toy_code, small_code):
        for row in H.rows:
            e = np.zeros(H.n, dtype=np.uint8)
            for j, sym in row:
                e[j] = sym
            assert not syndrome(H, e).any()
