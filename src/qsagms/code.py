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
    n=<int> m=<int>                           (n at most MAX_QUBITS)
    gb ell=<int> a=<e0,e1,...> b=<e0,...>     (optional provenance line)
    <i>: <j>:<S> <j>:<S> ...                  (one line per row, i = 0..m-1)

with each key once, S in {X, Y, Z} and columns strictly increasing in a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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


#: Most qubits a code file may declare: larger blocks are refused where the
#: file is parsed, before any per-qubit work.
MAX_QUBITS = 1 << 20


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
    """Dense slot-major adjacency of a check matrix, in the kernel's layout.

    Arrays hold one plane per slot: check i's edges fill column i of the
    (d_c, m) arrays in the order of row i of the matrix (column order, once
    validated), and qubit j's edges column j of the (d_v, n) arrays in
    check order.  Lower-degree nodes are padded with slots of symbol 0
    (identity), so a node's degree is its count of nonzero symbols.

    A generalized bicycle matrix instead orders its slots by circulant
    offset, and ``ell`` records its circulant size (None otherwise): check
    i's slots by (half, (column - i) mod ell), qubit j's by (check block,
    (check - j) mod ell).  Shifting both qubit halves and both check blocks
    by the same amount then maps every node's slots onto the shifted node's
    in the same order, so a kernel that sums a node's slots in slot order
    decodes a jointly rotated syndrome to the rotated messages, bit for bit.

    ``to_check`` maps slot k of check i to row t * n + j of the stacked
    qubit planes, where it is slot t of qubit j (so j is that row mod n),
    and ``to_qubit`` back to row k * m + i: the rows one ``np.take`` reads
    to change layout, and for padding the row after the planes.
    """

    n: int
    m: int
    cn_sym: np.ndarray = field(repr=False)
    to_check: np.ndarray = field(repr=False)
    vn_sym: np.ndarray = field(repr=False)
    to_qubit: np.ndarray = field(repr=False)
    ell: int | None = None

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.cn_sym))

    @cached_property
    def _qubits(self) -> np.ndarray:
        """(d_c, m) qubit of each check slot, qubit 0 for padding."""
        return self.to_check % self.n

    @cached_property
    def _anti(self) -> np.ndarray:
        """(d_c, m) masks: bit p of [k, i] is the trace inner product of the
        symbol in slot k of check i with Pauli p."""
        paulis = np.arange(4, dtype=np.uint8)
        products = trace_inner(self.cn_sym[..., None], paulis)
        return np.bitwise_or.reduce(products << paulis, axis=-1)

    def syndromes(self, e) -> np.ndarray:
        """Syndrome bits of error patterns ``e`` (qubits on the last axis).

        Bit i is the parity of the trace inner products between check i's
        symbols and the errors on its qubits, i.e. 1 iff stabilizer i
        anticommutes with the error; symbol-0 padding slots contribute 0.
        The products are looked up batch-last in one (d_c, m, ...) array,
        one slot plane per check slot, gathered from the errors with the
        qubits on the first axis, and the parity is an xor across the
        planes.  The result is C-contiguous, with the checks last.
        """
        e = np.asarray(e)
        if e.shape[-1:] != (self.n,):
            raise ValueError(f"error patterns of shape {e.shape} need {self.n} qubits")
        t = np.take(np.moveaxis(e, -1, 0), self._qubits, axis=0)
        anti = self._anti.reshape(self._anti.shape + (1,) * (e.ndim - 1))
        np.bitwise_and(np.right_shift(anti, t, out=t), 1, out=t)
        return np.ascontiguousarray(np.moveaxis(np.bitwise_xor.reduce(t, axis=0), 0, -1))


def check_decodable(graph: TannerGraph) -> None:
    """Raise ValueError unless every check and every qubit has an edge, as
    message passing needs; a valid stabilizer matrix may lack one."""
    for kind, linked in (("check", graph.cn_sym.any(0)), ("qubit", graph.vn_sym.any(0))):
        if not linked.all():
            node = f"{kind} {linked.argmin()}"
            raise ValueError(f"graph has isolated checks or qubits ({node})")


def tanner_graph(H: SparseCheckMatrix) -> TannerGraph:
    """Build the dense slot-major check and qubit layouts of ``H``.

    Raises ValueError if ``H.gb`` is set but does not build the rows: the
    circulant-offset layout and the orbits it makes exact are the spec's.
    """
    ell = None
    if H.gb is not None:
        if not _gb_builds(H):
            raise ValueError("gb line does not match the rows")
        ell = H.gb.ell
    vn_degrees = np.bincount([j for row in H.rows for j, _ in row], minlength=H.n)
    d_c, d_v = max(map(len, H.rows), default=0), int(vn_degrees.max(initial=0))
    cn_sym = np.zeros((d_c, H.m), dtype=np.uint8)
    to_check = np.full((d_c, H.m), d_v * H.n, dtype=np.int64)
    vn_sym = np.zeros((d_v, H.n), dtype=np.uint8)
    to_qubit = np.full((d_v, H.n), d_c * H.m, dtype=np.int64)
    edges = []  # (check, slot, qubit, symbol), check slots in their final order
    for i, row in enumerate(H.rows):
        if ell is not None:
            row = sorted(row, key=lambda entry: (entry[0] // ell, (entry[0] - i) % ell))
        edges += [(i, k, j, sym) for k, (j, sym) in enumerate(row)]
    if ell is None:
        edges.sort(key=lambda edge: edge[2])  # stable: each qubit's checks in order
    else:
        edges.sort(key=lambda edge: (edge[2], edge[0] // ell, (edge[0] - edge[2]) % ell))
    filled = [0] * H.n
    for i, k, j, sym in edges:
        t = filled[j]
        filled[j] += 1
        cn_sym[k, i], to_check[k, i] = sym, t * H.n + j
        vn_sym[t, j], to_qubit[t, j] = sym, k * H.m + i
    return TannerGraph(H.n, H.m, cn_sym, to_check, vn_sym, to_qubit, ell)


def _circulant_columns(ell: int, exponents, shift_sign: int = 1):
    """Support columns of circulant row i: {(i + sign*e) mod ell}."""
    return [
        sorted((i + shift_sign * e) % ell for e in exponents) for i in range(ell)
    ]


def build_gb(spec: GbSpec) -> SparseCheckMatrix:
    """Generalized bicycle matrix from circulant exponent sets.

    The first ``ell`` rows carry X symbols on [A | B]; the last ``ell`` rows
    carry Z symbols on [B^T | A^T] (a transposed circulant is the circulant
    of the negated exponents).  ``validate`` checks the rows; since
    circulants commute, an OrthogonalityError would be a construction bug.
    """
    H = SparseCheckMatrix(n=2 * spec.ell, rows=_gb_rows(spec), gb=spec)
    H.validate()
    return H


def _gb_builds(H: SparseCheckMatrix) -> bool:
    """Whether ``H.gb`` builds the rows of ``H``: the sizes are compared
    first, so a gb line too large for its matrix builds no rows."""
    size = 2 * H.gb.ell
    return (size, size) == (H.n, H.m) and _gb_rows(H.gb) == H.rows


def _gb_rows(spec: GbSpec) -> list[list[tuple[int, int]]]:
    """The rows ``build_gb`` validates, unvalidated."""
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
    return rows


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
    return CodeParams(
        n=H.n, k=k, m=H.m, d_c=len(g.cn_sym), d_v=len(g.vn_sym), overcomplete=H.m > H.n - k
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
    non-UTF-8 bytes or n above MAX_QUBITS, and OrthogonalityError if
    ``validate`` is set and rows do not commute.  Rows with a ``gb`` line
    must equal ``build_gb``'s, and commute whatever ``validate`` is.
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
        (n,), (m,) = _int_fields(dims, "n", "m")
    except ValueError:
        raise CodeFormatError(f"expected 'n=<int> m=<int>', got {dims!r}", num) from None
    if n < 1 or m < 1:
        raise CodeFormatError("n and m must be positive", num)
    if n > MAX_QUBITS:
        raise CodeFormatError(f"n={n} is above the limit of {MAX_QUBITS} qubits", num)

    body = lines[2:]
    gb = gb_num = None
    if body and body[0][1].startswith("gb "):
        gb_num, text = body[0]
        try:
            (ell,), a, b = _int_fields(text[3:], "ell", "a", "b")
            gb = GbSpec(ell, a, b)
        except ValueError as exc:
            raise CodeFormatError(f"bad gb line: {exc}", gb_num) from None
        body = body[1:]

    if len(body) != m:
        raise CodeFormatError(
            f"expected {m} row lines, found {len(body)}",
            body[-1][0] if body else gb_num or num,
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
    if gb is not None and not _gb_builds(H):
        raise CodeFormatError("gb line does not match the rows", gb_num)
    if validate or gb is not None:
        _check_commuting(H)
    return H


def _int_fields(text: str, *keys: str) -> list[tuple[int, ...]]:
    """The comma-separated ints of each of ``keys``, each once in ``text``'s key=value parts."""
    pairs = [part.split("=", 1) for part in text.split()]
    if sorted(key for key, *_ in pairs) != sorted(keys):
        raise ValueError(f"expected the keys {', '.join(keys)} once each, got {text!r}")
    return [tuple(map(int, dict(pairs)[key].split(","))) for key in keys]
