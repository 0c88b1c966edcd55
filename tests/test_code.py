from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsagms.code import (
    CodeFormatError,
    GbSpec,
    OrthogonalityError,
    SparseCheckMatrix,
    build_gb,
    check_decodable,
    compute_params,
    gf2_rank,
    load_code,
    save_code,
    tanner_graph,
)
from qsagms.pauli import PAULI_X, PAULI_Z, check_orthogonality, symplectic_rows

from .conftest import GB_126_28
from .oracles import code_dimension_dense, gb_dimension_from_gcd


@st.composite
def gb_specs(draw):
    ell = draw(st.integers(min_value=2, max_value=12))
    k_a = draw(st.integers(min_value=1, max_value=min(4, ell)))
    k_b = draw(st.integers(min_value=1, max_value=min(4, ell)))
    a = draw(st.permutations(range(ell)).map(lambda p: tuple(sorted(p[:k_a]))))
    b = draw(st.permutations(range(ell)).map(lambda p: tuple(sorted(p[:k_b]))))
    return GbSpec(ell=ell, a_exponents=a, b_exponents=b)


def test_gbspec_validation():
    with pytest.raises(ValueError):
        GbSpec(3, (), (0,))
    with pytest.raises(ValueError):
        GbSpec(3, (0, 3), (0,))
    with pytest.raises(ValueError):
        GbSpec(3, (0, 0), (1,))
    with pytest.raises(ValueError):
        GbSpec(0, (0,), (0,))


def test_build_gb_toy(toy_code):
    assert toy_code.n == 6 and toy_code.m == 6
    assert all(len(row) == 4 for row in toy_code.rows)
    assert check_orthogonality(toy_code)


def test_toy_code_dimension_via_rank_oracle(toy_code):
    params = compute_params(toy_code)
    assert params.k == 2
    assert params.k == code_dimension_dense(toy_code)


def test_build_gb_126_28(gb126_code):
    params = compute_params(gb126_code)
    assert (params.n, params.k, params.m) == (126, 28, 126)
    assert params.d_c == 10 and params.d_v == 10
    assert params.overcomplete  # 126 > 126 - 28


def test_compute_params_toy(toy_code):
    params = compute_params(toy_code)
    assert (params.n, params.k, params.m) == (6, 2, 6)
    assert (params.d_c, params.d_v) == (4, 4)
    assert params.overcomplete  # 6 > 4
    assert str(params) == "[[6,2]] m=6 dc=4 dv=4 overcomplete=yes"


@settings(max_examples=40, deadline=None)
@given(gb_specs())
def test_gb_properties_random(spec):
    H = build_gb(spec)
    assert check_orthogonality(H)
    params = compute_params(H)
    assert params.k % 2 == 0
    assert params.k == gb_dimension_from_gcd(spec.ell, spec.a_exponents, spec.b_exponents)
    assert params.k == code_dimension_dense(H)


def test_gf2_rank_against_dense_oracle(small_code):
    from .oracles import dense_planes, gf2_rank_dense

    hx, hz = dense_planes(small_code)
    assert gf2_rank(symplectic_rows(small_code)) == gf2_rank_dense(np.hstack([hx, hz]))


def test_tanner_graph_single_entry():
    H = SparseCheckMatrix(n=1, rows=[[(0, PAULI_X)]])
    g = tanner_graph(H)
    assert g.edge_count == 1
    assert g.cn_degrees.tolist() == [1] and g.vn_degrees.tolist() == [1]


def test_tanner_graph_toy(toy_code, toy_graph):
    g = toy_graph
    assert g.edge_count == 24
    assert (g.cn_degrees == 4).all() and (g.vn_degrees == 4).all()
    # adjacency is consistent: each edge appears once on each side
    seen_cn = sorted(g.cn_gather.ravel().tolist())
    seen_vn = sorted(g.vn_gather.ravel().tolist())
    assert seen_cn == list(range(24)) and seen_vn == list(range(24))
    assert (g.vn_gather.ravel()[g.cn_gather.ravel()] == np.arange(24)).all()
    nonzeros = sum(len(row) for row in toy_code.rows)
    assert g.edge_count == nonzeros


def test_tanner_graph_126_28(gb126_graph):
    assert gb126_graph.edge_count == 1260  # 126 checks of degree 10


def test_tanner_graph_check_slots_follow_rows(tree_code, tree_graph):
    # irregular degrees: short rows are padded with qubit 0 and symbol I
    g = tree_graph
    assert (g.cn_vn.dtype, g.cn_sym.dtype, g.vn_sym.dtype) == (np.int64, np.uint8, np.uint8)
    assert g.cn_gather.dtype == g.vn_gather.dtype == g.cn_degrees.dtype == np.int64
    d_c = max(len(row) for row in tree_code.rows)
    assert g.cn_vn.shape == g.cn_sym.shape == (tree_code.m, d_c)
    for i, row in enumerate(tree_code.rows):
        pad = [0] * (d_c - len(row))
        assert g.cn_vn[i].tolist() == [j for j, _ in row] + pad
        assert g.cn_sym[i].tolist() == [sym for _, sym in row] + pad
    assert g.cn_degrees.tolist() == [len(row) for row in tree_code.rows]
    assert g.vn_degrees.tolist() == np.bincount(g.cn_vn[g.cn_sym != 0]).tolist()


def test_save_load_round_trip(tmp_path, toy_code, gb126_code):
    for idx, H in enumerate((toy_code, gb126_code)):
        path = tmp_path / f"code{idx}.qpc"
        save_code(H, path)
        loaded = load_code(path)
        assert loaded.n == H.n and loaded.rows == H.rows
        assert loaded.gb == H.gb


def test_load_rejects_duplicate_column(tmp_path):
    path = tmp_path / "dup.qpc"
    path.write_text("QPC 1\nn=2 m=1\n0: 0:X 0:Z\n")
    with pytest.raises(CodeFormatError) as err:
        load_code(path)
    assert err.value.line == 3


def test_load_rejects_anticommuting_rows(tmp_path):
    path = tmp_path / "anti.qpc"
    path.write_text("QPC 1\nn=1 m=2\n0: 0:X\n1: 0:Z\n")
    with pytest.raises(OrthogonalityError):
        load_code(path)
    H = load_code(path, validate=False)
    assert H.m == 2


@pytest.mark.parametrize(
    "content, line",
    [
        ("QPC 2\nn=1 m=1\n0: 0:X\n", 1),
        ("QPC 1\nn=1\n0: 0:X\n", 2),
        ("QPC 1\nn=1 m=1\n1: 0:X\n", 3),
        ("QPC 1\nn=1 m=1\n0: 0:Q\n", 3),
        ("QPC 1\nn=2 m=1\n0: 1:X 0:Z\n", 3),
        ("QPC 1\nn=1 m=1\n0: 2:X\n", 3),
    ],
)
def test_load_parse_errors_carry_line_numbers(tmp_path, content, line):
    path = tmp_path / "bad.qpc"
    path.write_text(content)
    with pytest.raises(CodeFormatError) as err:
        load_code(path)
    assert err.value.line == line


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "utf16.qpc"
    path.write_bytes(b"\xff\xfeQPC 1\n")
    with pytest.raises(CodeFormatError, match="not UTF-8 text"):
        load_code(path)


def test_check_decodable_needs_an_edge_at_every_node():
    check_decodable(tanner_graph(SparseCheckMatrix(n=1, rows=[[(0, PAULI_X)]])))
    shapes = [
        (SparseCheckMatrix(n=3, rows=[[(0, PAULI_Z), (1, PAULI_Z)], [(1, PAULI_Z)]]), "qubit 2"),
        (SparseCheckMatrix(n=2, rows=[[(0, PAULI_Z), (1, PAULI_Z)], []]), "check 1"),
    ]
    for H, node in shapes:
        H.validate()  # valid stabilizer matrices, which only the decoder rejects
        with pytest.raises(ValueError, match=f"isolated checks or qubits \\({node}\\)"):
            check_decodable(tanner_graph(H))


@pytest.mark.parametrize(
    "row, text, message",
    [
        ([(0, 0)], "0:I", "symbol 0 is not a nonzero Pauli"),
        ([(2, PAULI_X)], "2:X", "column 2 outside [0, 2)"),
        ([(1, PAULI_X), (1, PAULI_Z)], "1:X 1:Z", "columns not strictly increasing at 1"),
    ],
)
def test_validate_and_load_share_the_row_check(tmp_path, row, text, message):
    with pytest.raises(ValueError) as err:
        SparseCheckMatrix(n=2, rows=[row]).validate(stabilizer=False)
    assert str(err.value) == f"row 0: {message}"
    path = tmp_path / "bad.qpc"
    path.write_text(f"QPC 1\nn=2 m=1\n0: {text}\n")
    for validate in (True, False):
        with pytest.raises(CodeFormatError) as err:
            load_code(path, validate=validate)
        assert str(err.value) == f"line 3: {message}"


def test_load_row_count_mismatch(tmp_path):
    path = tmp_path / "short.qpc"
    path.write_text("QPC 1\nn=1 m=2\n0: 0:X\n")
    with pytest.raises(CodeFormatError):
        load_code(path)


def test_load_handles_comments_and_blanks(tmp_path):
    path = tmp_path / "comments.qpc"
    path.write_text(
        "# a file\nQPC 1\n\nn=1 m=1   # dims\n0: 0:X  # row\n"
    )
    H = load_code(path, validate=False)
    assert H.rows == [[(0, PAULI_X)]]


def test_shipped_code_files():
    from .conftest import CODES_DIR

    toy = load_code(CODES_DIR / "gb-6-2.qpc")
    assert str(compute_params(toy)).startswith("[[6,2]]")
    big = load_code(CODES_DIR / "gb-126-28.qpc")
    params = compute_params(big)
    assert (params.n, params.k, params.d_c) == (126, 28, 10)
    assert big.gb == GB_126_28
