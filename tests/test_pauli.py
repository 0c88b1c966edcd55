from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsagms.code import GbSpec, SparseCheckMatrix, build_gb, tanner_graph
from qsagms.pauli import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    check_orthogonality,
    trace_inner,
    x_bit,
    z_bit,
)

from .oracles import (
    from_bits,
    orthogonal_dense,
    orthogonal_pairs,
    pauli_compose,
    syndrome_dense,
)

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


def test_syndrome_identity_error(toy_graph):
    assert not toy_graph.syndromes(np.zeros(6, dtype=np.uint8)).any()


def test_syndrome_single_anticommuting_entry():
    g = tanner_graph(SparseCheckMatrix(n=1, rows=[[(0, PAULI_X)]]))
    assert g.syndromes([PAULI_Z]).tolist() == [1]
    assert g.syndromes([PAULI_X]).tolist() == [0]


def test_syndrome_matches_dense_oracle(toy_code, toy_graph):
    e = np.zeros(6, dtype=np.uint8)
    e[0] = PAULI_X
    assert np.array_equal(toy_graph.syndromes(e), syndrome_dense(toy_code, e))


@given(st.lists(paulis, min_size=6, max_size=6))
def test_syndrome_matches_dense_oracle_random(e):
    H = build_gb(GbSpec(3, (0, 1), (0, 2)))
    e = np.array(e, dtype=np.uint8)
    assert np.array_equal(tanner_graph(H).syndromes(e), syndrome_dense(H, e))


@given(st.lists(paulis, min_size=6, max_size=6), st.lists(paulis, min_size=6, max_size=6))
def test_syndrome_additive_under_composition(e, f):
    g = tanner_graph(build_gb(GbSpec(3, (0, 1), (0, 2))))
    e = np.array(e, dtype=np.uint8)
    f = np.array(f, dtype=np.uint8)
    combined = g.syndromes(pauli_compose(e, f))
    assert np.array_equal(combined, g.syndromes(e) ^ g.syndromes(f))


@given(st.lists(st.lists(paulis, min_size=10, max_size=10), min_size=1, max_size=5))
def test_syndrome_batch_rows_match_single_rows(batch):
    H = build_gb(GbSpec(5, (0, 1), (0, 2)))
    g = tanner_graph(H)
    errors = np.array(batch, dtype=np.uint8)
    rows = g.syndromes(errors)
    assert rows.shape == (len(batch), g.m)
    for e, s in zip(errors, rows):
        assert np.array_equal(s, g.syndromes(e))
        assert np.array_equal(s, syndrome_dense(H, e))


def test_length_mismatch_errors(toy_graph):
    # a wrong last axis is rejected, including longer patterns whose first
    # n entries would otherwise give a syndrome
    for shape in ((5,), (9,), (2, 5), (2, 9), (6, 2), ()):
        with pytest.raises(ValueError, match="need 6 qubits"):
            toy_graph.syndromes(np.zeros(shape, dtype=np.uint8))


def test_check_orthogonality_gb_codes(toy_code, small_code, gb126_code):
    for H in (toy_code, small_code, gb126_code):
        assert check_orthogonality(H)
        assert orthogonal_dense(H)


def test_check_orthogonality_anticommuting_rows():
    H = SparseCheckMatrix(n=1, rows=[[(0, PAULI_X)], [(0, PAULI_Z)]])
    assert not check_orthogonality(H)
    assert not orthogonal_dense(H)


def test_check_orthogonality_of_many_rows_compares_shared_columns_only():
    # 32,768 single-Z rows share no column; comparing every pair of rows
    # would take minutes
    m = 1 << 15
    assert check_orthogonality(SparseCheckMatrix(n=m, rows=[[(i, PAULI_Z)] for i in range(m)]))


def test_check_orthogonality_finds_a_clash_between_first_and_last_row():
    m = 1 << 15
    rows = [[(i, PAULI_Z)] for i in range(m - 1)] + [[(0, PAULI_X)]]
    assert not check_orthogonality(SparseCheckMatrix(n=m, rows=rows))


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


def test_stabilizer_rows_are_invisible(toy_code, toy_graph, small_code, small_graph):
    # rows of a valid H, viewed as error patterns, have zero syndrome
    for H, g in ((toy_code, toy_graph), (small_code, small_graph)):
        rows = np.zeros((H.m, H.n), dtype=np.uint8)
        for i, row in enumerate(H.rows):
            for j, sym in row:
                rows[i, j] = sym
        assert not g.syndromes(rows).any()
        assert not any(syndrome_dense(H, e).any() for e in rows)
