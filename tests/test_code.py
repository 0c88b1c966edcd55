from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsagms import code as code_module
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
    parse_code,
    save_code,
    tanner_graph,
)
from qsagms.pauli import PAULI_X, PAULI_Z, check_orthogonality, symplectic_rows

from .conftest import CODES_DIR, GB_126_28, GB_LINE_MISMATCH, toy_with_gb_line
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
    assert [d.tolist() for d in _degrees(g)] == [[1], [1]]


def _degrees(g):
    """(check degrees, qubit degrees): each node's count of nonzero symbols."""
    return np.count_nonzero(g.cn_sym, axis=0), np.count_nonzero(g.vn_sym, axis=0)


def _assert_slot_maps_round_trip(g, H):
    """Each edge appears once on each side: the real slots of check i hold
    the (qubit ``to_check % n``, symbol) pairs of row i of ``H``,
    ``to_check`` sends every real check slot to a real qubit slot of the
    same qubit and symbol, ``to_qubit`` sends it back, and padding slots
    hold the sentinel rows."""
    real_c, real_v = g.cn_sym != 0, g.vn_sym != 0
    at, back = g.to_check[real_c], g.to_qubit[real_v]
    for i, row in enumerate(H.rows):
        k = np.flatnonzero(real_c[:, i])
        assert sorted(zip((g.to_check[k, i] % g.n).tolist(), g.cn_sym[k, i].tolist())) == row
    assert sorted(at.tolist()) == np.flatnonzero(real_v).tolist()
    assert sorted(back.tolist()) == np.flatnonzero(real_c).tolist()
    assert (g.to_qubit.ravel()[at] == np.flatnonzero(real_c)).all()
    assert (g.vn_sym.ravel()[at] == g.cn_sym[real_c]).all()
    assert (g.to_check[~real_c] == g.vn_sym.size).all()
    assert (g.to_qubit[~real_v] == g.cn_sym.size).all()


def test_tanner_graph_toy(toy_code, toy_graph):
    g = toy_graph
    assert g.edge_count == 24
    assert all((d == 4).all() for d in _degrees(g))
    _assert_slot_maps_round_trip(g, toy_code)
    nonzeros = sum(len(row) for row in toy_code.rows)
    assert g.edge_count == nonzeros


def test_tanner_graph_126_28(gb126_code, gb126_graph):
    g = gb126_graph
    assert g.edge_count == 1260  # 126 checks of degree 10
    assert g.ell == 63
    _assert_slot_maps_round_trip(g, gb126_code)
    # every check of a block, and every qubit of a half, holds its slots at
    # the same circulant offsets, in the same order
    node = np.arange(126)[:, None]
    cn_offsets = (g.to_check.T % 126 - node) % 63
    vn_offsets = (g.to_qubit.T % 126 - node) % 63
    for offsets in (cn_offsets, vn_offsets):
        assert (offsets[:63] == offsets[0]).all() and (offsets[63:] == offsets[63]).all()
    assert cn_offsets[0].tolist() == [0, 1, 14, 16, 22, 0, 3, 13, 20, 42]  # (half, offset)


@pytest.mark.parametrize(
    "gb_line", GB_LINE_MISMATCH.values(), ids=GB_LINE_MISMATCH.keys()
)
def test_tanner_graph_rejects_gb_that_does_not_build_the_rows(toy_code, gb_line):
    fields = dict(part.split("=") for part in gb_line.split()[1:])
    gb = GbSpec(
        int(fields["ell"]),
        tuple(int(e) for e in fields["a"].split(",")),
        tuple(int(e) for e in fields["b"].split(",")),
    )
    H = SparseCheckMatrix(toy_code.n, toy_code.rows, gb=gb)
    with pytest.raises(ValueError, match="^gb line does not match the rows$"):
        tanner_graph(H)
    assert tanner_graph(SparseCheckMatrix(toy_code.n, toy_code.rows)).ell is None


def test_tanner_graph_check_slots_follow_rows(tree_code, tree_graph):
    # irregular degrees: short rows are padded with qubit 0 and symbol I
    g = tree_graph
    assert (g._qubits.dtype, g.cn_sym.dtype, g.vn_sym.dtype) == (np.int64, np.uint8, np.uint8)
    assert g.to_check.dtype == g.to_qubit.dtype == np.int64
    cn_degrees, vn_degrees = _degrees(g)
    d_c = max(len(row) for row in tree_code.rows)
    assert g._qubits.shape == g.cn_sym.shape == g.to_check.shape == (d_c, tree_code.m)
    assert g.vn_sym.shape == g.to_qubit.shape == (vn_degrees.max(), tree_code.n)
    for i, row in enumerate(tree_code.rows):
        pad = [0] * (d_c - len(row))
        assert g._qubits[:, i].tolist() == [j for j, _ in row] + pad  # what syndromes reads
        assert g.cn_sym[:, i].tolist() == [sym for _, sym in row] + pad
    assert cn_degrees.tolist() == [len(row) for row in tree_code.rows]
    assert vn_degrees.tolist() == np.bincount(g._qubits[g.cn_sym != 0]).tolist()
    assert (vn_degrees < vn_degrees.max()).any()  # padded on both sides
    _assert_slot_maps_round_trip(g, tree_code)


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
        ("QPC 1\nn=1 m=1 k=99\n0: 0:X\n", 2),  # unknown key
        ("QPC 1\nn=1 m=2 m=1\n0: 0:X\n", 2),  # repeated key
        ("QPC 1\nn=1 n=1 m=1\n0: 0:X\n", 2),
        ("QPC 1\nn=2 m=2\ngb ell=1 a=0 b=0 c=1\n0: 0:X 1:X\n1: 0:Z 1:Z\n", 3),
        ("QPC 1\nn=2 m=2\ngb ell=1 a=0 b=5 b=0\n0: 0:X 1:X\n1: 0:Z 1:Z\n", 3),
        ("QPC 1\nn=2 m=2\ngb ell=1 ell=1 a=0 b=0\n0: 0:X 1:X\n1: 0:Z 1:Z\n", 3),
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


@pytest.mark.parametrize(
    "gb_line", GB_LINE_MISMATCH.values(), ids=GB_LINE_MISMATCH.keys()
)
def test_load_rejects_gb_line_that_does_not_build_the_rows(tmp_path, gb_line):
    path = tmp_path / "gb.qpc"
    path.write_text(toy_with_gb_line(gb_line))
    for validate in (True, False):
        with pytest.raises(CodeFormatError) as err:
            load_code(path, validate=validate)
        assert str(err.value) == "line 3: gb line does not match the rows"


def test_gb_line_sizes_are_compared_before_rows_are_built(monkeypatch, toy_code):
    # a gb line of 2 * 10^8 qubits for 6: building its rows would take minutes
    def no_rows(spec):
        raise AssertionError(f"built the rows of ell={spec.ell}")

    monkeypatch.setattr(code_module, "_gb_rows", no_rows)
    text = toy_with_gb_line("gb ell=100000000 a=0 b=0").encode()
    for validate in (True, False):
        with pytest.raises(CodeFormatError) as err:
            parse_code(text, validate=validate)
        assert str(err.value) == "line 3: gb line does not match the rows"
    H = SparseCheckMatrix(toy_code.n, toy_code.rows, gb=GbSpec(100_000_000, (0,), (0,)))
    with pytest.raises(ValueError, match="^gb line does not match the rows$"):
        tanner_graph(H)


@pytest.mark.parametrize(
    "name, validate, calls",
    [
        ("gb-126-28.qpc", True, 1),  # build_gb's check only
        ("gb-126-28.qpc", False, 1),
        ("plain", True, 1),
        ("plain", False, 0),
    ],
)
def test_load_checks_orthogonality_once(tmp_path, monkeypatch, name, validate, calls):
    path = CODES_DIR / name
    if name == "plain":  # gb-6-2.qpc without its gb line
        path = tmp_path / "plain.qpc"
        text = (CODES_DIR / "gb-6-2.qpc").read_text()
        path.write_text(text.replace("gb ell=3 a=0,1 b=0,2\n", ""))
    seen = []

    def counting(H):
        seen.append(H.n)
        return check_orthogonality(H)

    monkeypatch.setattr(code_module, "check_orthogonality", counting)
    H = load_code(path, validate=validate)
    assert (H.gb is None) == (name == "plain")
    assert len(seen) == calls


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
    toy = load_code(CODES_DIR / "gb-6-2.qpc")
    assert str(compute_params(toy)).startswith("[[6,2]]")
    big = load_code(CODES_DIR / "gb-126-28.qpc")
    params = compute_params(big)
    assert (params.n, params.k, params.d_c) == (126, 28, 10)
    assert big.gb == GB_126_28
