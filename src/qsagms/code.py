"""Check matrices over the Pauli alphabet: containers, Tanner graph and
syndromes, construction, I/O.

Codes are stored sparsely (per-row lists of ``(column, symbol)`` pairs,
symbols nonzero, columns strictly increasing) since row weights are tiny
compared to the block length.  The generalized bicycle construction builds
a CSS-style matrix from two commuting circulants:

    rows 0..ell-1      X symbols at the supports of [A | B]
    rows ell..2ell-1   Z symbols at the supports of [B^T | A^T]

which is stabilizer-orthogonal because circulants commute.  All 2*ell rows
are kept, so the representation is overcomplete (m > n - k) whenever the
rank is below m.

On-disk format ("QPC 1", UTF-8, LF, '#' starts a comment):

    QPC 1
    n=<int> m=<int>
    gb ell=<int> a=<e0,e1,...> b=<e0,...>     (optional provenance line)
    <i>: <j>:<S> <j>:<S> ...                  (one line per row, i = 0..m-1)

with S in {X, Y, Z} and columns strictly increasing within a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .pauli import (
    PAULI_CODES,
    PAULI_NAMES,
    PAULI_X,
    PAULI_Z,
    check_orthogonality,
    symplectic_rows,
    trace_inner,
)


class CodeFormatError(ValueError):
    """Malformed code file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class OrthogonalityError(ValueError):
    """Rows of a claimed stabilizer matrix do not all commute."""


@dataclass(frozen=True)
class GbSpec:
    """Generalized bicycle parameters: circulant size and exponent sets."""

    ell: int
    a_exponents: tuple[int, ...]
    b_exponents: tuple[int, ...]

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be positive")
        for name, exps in (("a", self.a_exponents), ("b", self.b_exponents)):
            if not exps:
                raise ValueError(f"{name} exponent set is empty")
            if len(set(exps)) != len(exps):
                raise ValueError(f"duplicate exponent in {name}")
            if any(e < 0 or e >= self.ell for e in exps):
                raise ValueError(f"{name} exponents must lie in [0, ell)")


@dataclass
class SparseCheckMatrix:
    """m x n check matrix; ``rows[i]`` lists (column, symbol) with symbol != I."""

    n: int
    rows: list[list[tuple[int, int]]]
    gb: GbSpec | None = None

    @property
    def m(self) -> int:
        return len(self.rows)

    def validate(self, stabilizer: bool = True) -> None:
        """Check structural invariants; optionally row orthogonality.

        ``stabilizer=False`` skips the orthogonality check, for fixtures
        (e.g. tree-structured test matrices) that are not stabilizer codes.
        """
        for i, row in enumerate(self.rows):
            try:
                _check_row(row, self.n)
            except ValueError as exc:
                raise ValueError(f"row {i}: {exc}") from None
        if stabilizer:
            _check_commuting(self)


def _check_row(row, n: int) -> None:
    """Raise ValueError unless ``row`` is a list of (column, symbol) pairs
    with symbols nonzero Paulis and columns strictly increasing in [0, n)."""
    prev = -1
    for j, sym in row:
        if sym not in (1, 2, 3):
            raise ValueError(f"symbol {sym} is not a nonzero Pauli")
        if not 0 <= j < n:
            raise ValueError(f"column {j} outside [0, {n})")
        if j <= prev:
            raise ValueError(f"columns not strictly increasing at {j}")
        prev = j


def _check_commuting(H: SparseCheckMatrix) -> None:
    if not check_orthogonality(H):
        raise OrthogonalityError("rows do not commute (H Λ H^T != 0 over GF(2))")


@dataclass(frozen=True)
class CodeParams:
    """Derived code parameters; k from the GF(2) rank of the symplectic form."""

    n: int
    k: int
    m: int
    d_c: int
    d_v: int
    overcomplete: bool

    def __str__(self) -> str:
        return (
            f"[[{self.n},{self.k}]] m={self.m} dc={self.d_c} dv={self.d_v}"
            f" overcomplete={'yes' if self.overcomplete else 'no'}"
        )


@dataclass
class TannerGraph:
    """Dense check-major adjacency of a check matrix, decoder-ready.

    Check i's edges fill row i of the (m, d_c) arrays in column order, so
    their row-major order is the canonical edge order; qubit j's edges fill
    row j of the (n, d_v) arrays in that same order.  Rows shorter than the
    maximum degree are padded: padding slots carry symbol 0 (identity),
    which is how kernels tell them apart, and gather index 0.

    ``cn_gather`` maps each check slot to its slot in the flattened qubit
    layout and ``vn_gather`` maps each qubit slot back, so one ``np.take``
    turns messages held in one layout into the other.
    """

    n: int
    m: int
    cn_degrees: np.ndarray
    vn_degrees: np.ndarray
    cn_vn: np.ndarray = field(repr=False)
    cn_sym: np.ndarray = field(repr=False)
    cn_gather: np.ndarray = field(repr=False)
    vn_sym: np.ndarray = field(repr=False)
    vn_gather: np.ndarray = field(repr=False)

    @property
    def edge_count(self) -> int:
        return int(self.cn_degrees.sum())

    def syndromes(self, e) -> np.ndarray:
        """Syndrome bits of error patterns ``e`` (qubits on the last axis).

        Bit i is the parity of the trace inner products between check i's
        symbols and the errors on its qubits, i.e. 1 iff stabilizer i
        anticommutes with the error; symbol-0 padding slots contribute 0.
        """
        e = np.asarray(e)
        if e.shape[-1:] != (self.n,):
            raise ValueError(f"error patterns of shape {e.shape} need {self.n} qubits")
        t = trace_inner(self.cn_sym, np.take(e, self.cn_vn, axis=-1))
        return np.bitwise_xor.reduce(t, axis=-1)


def check_decodable(graph: TannerGraph) -> None:
    """Raise ValueError unless every check and every qubit has an edge, as
    message passing needs; a valid stabilizer matrix may lack one."""
    for kind, degrees in (("check", graph.cn_degrees), ("qubit", graph.vn_degrees)):
        if not degrees.all():
            node = f"{kind} {degrees.argmin()}"
            raise ValueError(f"graph has isolated checks or qubits ({node})")


def tanner_graph(H: SparseCheckMatrix) -> TannerGraph:
    """Build the dense check-major and qubit-major layouts of ``H``."""
    cn_degrees = np.array([len(row) for row in H.rows], dtype=np.int64)
    vn_degrees = np.bincount([j for row in H.rows for j, _ in row], minlength=H.n)
    d_c, d_v = int(cn_degrees.max(initial=0)), int(vn_degrees.max(initial=0))
    cn_vn = np.zeros((H.m, d_c), dtype=np.int64)
    cn_sym = np.zeros((H.m, d_c), dtype=np.uint8)
    cn_gather = np.zeros((H.m, d_c), dtype=np.int64)
    vn_sym = np.zeros((H.n, d_v), dtype=np.uint8)
    vn_gather = np.zeros((H.n, d_v), dtype=np.int64)
    filled = [0] * H.n
    for i, row in enumerate(H.rows):
        for k, (j, sym) in enumerate(row):
            t = filled[j]
            filled[j] += 1
            cn_vn[i, k], cn_sym[i, k], cn_gather[i, k] = j, sym, j * d_v + t
            vn_sym[j, t], vn_gather[j, t] = sym, i * d_c + k
    return TannerGraph(
        H.n, H.m, cn_degrees, vn_degrees, cn_vn, cn_sym, cn_gather, vn_sym, vn_gather
    )


def _circulant_columns(ell: int, exponents, shift_sign: int = 1):
    """Support columns of circulant row i: {(i + sign*e) mod ell}."""
    return [
        sorted((i + shift_sign * e) % ell for e in exponents) for i in range(ell)
    ]


def build_gb(spec: GbSpec) -> SparseCheckMatrix:
    """Generalized bicycle matrix from circulant exponent sets.

    The first ``ell`` rows carry X symbols on [A | B]; the last ``ell`` rows
    carry Z symbols on [B^T | A^T] (a transposed circulant is the circulant
    of the negated exponents).  Orthogonality is verified and a failure is
    a construction bug, not a recoverable condition.
    """
    ell = spec.ell
    a_cols = _circulant_columns(ell, spec.a_exponents)
    b_cols = _circulant_columns(ell, spec.b_exponents)
    bt_cols = _circulant_columns(ell, spec.b_exponents, shift_sign=-1)
    at_cols = _circulant_columns(ell, spec.a_exponents, shift_sign=-1)

    rows: list[list[tuple[int, int]]] = []
    for i in range(ell):
        row = [(j, PAULI_X) for j in a_cols[i]]
        row += [(ell + j, PAULI_X) for j in b_cols[i]]
        rows.append(row)
    for i in range(ell):
        row = [(j, PAULI_Z) for j in bt_cols[i]]
        row += [(ell + j, PAULI_Z) for j in at_cols[i]]
        rows.append(row)

    H = SparseCheckMatrix(n=2 * ell, rows=rows, gb=spec)
    H.validate(stabilizer=False)
    if not check_orthogonality(H):
        raise OrthogonalityError(
            "generalized bicycle construction produced non-commuting rows"
        )
    return H


def gf2_rank(packed_rows: list[int]) -> int:
    """Rank over GF(2) of bit-packed rows via exact Gaussian elimination."""
    pivots: dict[int, int] = {}
    rank = 0
    for r in packed_rows:
        while r:
            top = r.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = r
                rank += 1
                break
            r ^= p
    return rank


def compute_params(H: SparseCheckMatrix) -> CodeParams:
    """Code parameters of ``H``; k = n minus the symplectic GF(2) rank."""
    rank = gf2_rank(symplectic_rows(H))
    k = H.n - rank
    g = tanner_graph(H)  # layout widths are the maximum degrees
    d_c, d_v = g.cn_sym.shape[1], g.vn_sym.shape[1]
    return CodeParams(
        n=H.n, k=k, m=H.m, d_c=d_c, d_v=d_v, overcomplete=H.m > H.n - k
    )


def save_code(H: SparseCheckMatrix, path) -> None:
    """Write ``H`` in the QPC 1 text format (LF newlines)."""
    lines = ["QPC 1", f"n={H.n} m={H.m}"]
    if H.gb is not None:
        a = ",".join(str(e) for e in H.gb.a_exponents)
        b = ",".join(str(e) for e in H.gb.b_exponents)
        lines.append(f"gb ell={H.gb.ell} a={a} b={b}")
    for i, row in enumerate(H.rows):
        entries = " ".join(f"{j}:{PAULI_NAMES[sym]}" for j, sym in row)
        lines.append(f"{i}: {entries}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_code(path, validate: bool = True) -> SparseCheckMatrix:
    """Read and parse a QPC 1 file (see ``parse_code``)."""
    return parse_code(Path(path).read_bytes(), validate)


def parse_code(data: bytes, validate: bool = True) -> SparseCheckMatrix:
    """Parse the bytes of a QPC 1 file.

    Raises CodeFormatError (with line number) on malformed content or
    non-UTF-8 bytes and OrthogonalityError if ``validate`` is set and rows
    do not commute.
    """
    try:
        raw = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodeFormatError(f"not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    # keep (line_number, content) for stripped non-empty lines
    lines: list[tuple[int, str]] = []
    for num, line in enumerate(raw.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            lines.append((num, text))
    if not lines:
        raise CodeFormatError("empty file")

    num, header = lines[0]
    if header != "QPC 1":
        raise CodeFormatError(f"expected 'QPC 1' header, got {header!r}", num)
    if len(lines) < 2:
        raise CodeFormatError("missing dimension line", num)

    num, dims = lines[1]
    try:
        fields = dict(part.split("=", 1) for part in dims.split())
        n = int(fields["n"])
        m = int(fields["m"])
    except (ValueError, KeyError):
        raise CodeFormatError(f"expected 'n=<int> m=<int>', got {dims!r}", num) from None
    if n < 1 or m < 1:
        raise CodeFormatError("n and m must be positive", num)

    body = lines[2:]
    gb = None
    if body and body[0][1].startswith("gb "):
        num, text = body[0]
        try:
            fields = dict(part.split("=", 1) for part in text[3:].split())
            gb = GbSpec(
                ell=int(fields["ell"]),
                a_exponents=tuple(int(e) for e in fields["a"].split(",")),
                b_exponents=tuple(int(e) for e in fields["b"].split(",")),
            )
        except (ValueError, KeyError) as exc:
            raise CodeFormatError(f"bad gb line: {exc}", num) from None
        body = body[1:]

    if len(body) != m:
        raise CodeFormatError(
            f"expected {m} row lines, found {len(body)}",
            body[-1][0] if body else num,
        )

    rows: list[list[tuple[int, int]]] = []
    for expect_i, (num, text) in enumerate(body):
        head, _, rest = text.partition(":")
        try:
            i = int(head)
        except ValueError:
            raise CodeFormatError(f"expected row index, got {head!r}", num) from None
        if i != expect_i:
            raise CodeFormatError(f"row index {i} out of order (expected {expect_i})", num)
        row: list[tuple[int, int]] = []
        for token in rest.split():
            col_text, _, sym_text = token.partition(":")
            try:
                row.append((int(col_text), PAULI_CODES[sym_text]))
            except (ValueError, KeyError):
                raise CodeFormatError(f"bad entry {token!r}", num) from None
        try:
            _check_row(row, n)
        except ValueError as exc:
            raise CodeFormatError(str(exc), num) from None
        rows.append(row)

    H = SparseCheckMatrix(n=n, rows=rows, gb=gb)
    if validate:
        _check_commuting(H)
    return H
