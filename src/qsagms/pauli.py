"""Single-qubit Pauli arithmetic in the binary symplectic representation.

A Pauli is encoded as an integer in {0, 1, 2, 3}:

    I = 0 = (x=0, z=0)
    X = 1 = (x=1, z=0)
    Z = 2 = (x=0, z=1)
    Y = 3 = (x=1, z=1)

i.e. ``code = x_bit | (z_bit << 1)``.  Composition modulo global phase is
XOR of codes, and two Paulis anticommute exactly when their symplectic
(trace) inner product is 1.  All functions accept plain ints or numpy
integer arrays and operate element-wise.

An error pattern on n qubits ("Pauli vector") is a length-n uint8 array of
these codes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .code import SparseCheckMatrix

PAULI_I = 0
PAULI_X = 1
PAULI_Z = 2
PAULI_Y = 3

#: Symbol letters indexed by code.
PAULI_NAMES = "IXZY"

#: Letter -> code, for parsers.
PAULI_CODES = {"I": PAULI_I, "X": PAULI_X, "Z": PAULI_Z, "Y": PAULI_Y}


def x_bit(p):
    """X component of the symplectic pair."""
    return p & 1


def z_bit(p):
    """Z component of the symplectic pair."""
    return p >> 1


def from_bits(x, z):
    """Pauli code from a symplectic pair (inverse of x_bit/z_bit)."""
    return (x & 1) | ((z & 1) << 1)


def trace_inner(a, b):
    """Symplectic form of two Paulis over GF(2).

    Returns 1 iff ``a`` and ``b`` anticommute, 0 otherwise.  Symmetric and
    bilinear; ``trace_inner(p, p) == 0`` for every Pauli.
    """
    return (x_bit(a) & z_bit(b)) ^ (z_bit(a) & x_bit(b))


def pauli_compose(a, b):
    """Group composition modulo global phase: XOR of symplectic pairs."""
    return a ^ b


def pauli_vector(symbols, n=None) -> np.ndarray:
    """Normalize an error pattern to a uint8 code array, validating range.

    ``symbols`` may be a sequence of codes or a string of letters (IXZY).
    If ``n`` is given the length is checked against it.
    """
    if isinstance(symbols, str):
        try:
            arr = np.array([PAULI_CODES[c] for c in symbols], dtype=np.uint8)
        except KeyError as exc:
            raise ValueError(f"unknown Pauli letter {exc.args[0]!r}") from None
    else:
        arr = np.asarray(symbols)
        if arr.ndim != 1:
            raise ValueError("Pauli vector must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() > 3):
            raise ValueError("Pauli codes must lie in {0,1,2,3}")
        arr = arr.astype(np.uint8)
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"expected {n} qubits, got {arr.shape[0]}")
    return arr


def dense_checks(H: "SparseCheckMatrix") -> tuple[np.ndarray, np.ndarray]:
    """Check rows of ``H`` as dense (m, d_c) qubit-index and symbol arrays.

    Row i lists check i's qubits and symbols in column order; rows shorter
    than the maximum degree are padded with qubit 0 and symbol 0 (identity).
    """
    d_c = max((len(row) for row in H.rows), default=0)
    cn_vn = np.zeros((H.m, d_c), dtype=np.int64)
    cn_sym = np.zeros((H.m, d_c), dtype=np.uint8)
    for i, row in enumerate(H.rows):
        if row:
            cn_vn[i, : len(row)], cn_sym[i, : len(row)] = zip(*row)
    return cn_vn, cn_sym


def check_syndromes(cn_vn: np.ndarray, cn_sym: np.ndarray, e) -> np.ndarray:
    """Syndrome bits of error patterns ``e`` (qubits on the last axis).

    Bit i is the parity of the trace inner products between check i's
    symbols ``cn_sym[i]`` and the errors on its qubits ``cn_vn[i]``, i.e. 1
    iff stabilizer i anticommutes with the error; symbol-0 padding slots
    contribute 0.
    """
    t = trace_inner(cn_sym, np.take(e, cn_vn, axis=-1))
    return np.bitwise_xor.reduce(t, axis=-1)


def syndrome(H: "SparseCheckMatrix", e) -> np.ndarray:
    """Syndrome bits of error pattern ``e`` under check matrix ``H``.

    Bit i is the GF(2) sum over the nonzero entries of row i of the trace
    inner product between the row symbol and the error symbol, i.e. 1 iff
    stabilizer i anticommutes with ``e``.
    """
    return check_syndromes(*dense_checks(H), pauli_vector(e, n=H.n))


def residual_syndrome(s, H: "SparseCheckMatrix", e_hat) -> np.ndarray:
    """Observed syndrome XOR the syndrome of the estimate ``e_hat``.

    All-zero output means ``e_hat`` reproduces the observed syndrome.
    """
    s = np.asarray(s, dtype=np.uint8)
    if s.shape != (H.m,):
        raise ValueError(f"syndrome length {s.shape} does not match m={H.m}")
    return s ^ syndrome(H, e_hat)


def symplectic_rows(H: "SparseCheckMatrix") -> list[int]:
    """Rows of the GF(2) symplectic expansion packed as 2n-bit integers.

    Bit j is the X component at column j, bit n+j the Z component.
    """
    packed = []
    for row in H.rows:
        bits = 0
        for j, sym in row:
            if sym & 1:
                bits |= 1 << j
            if sym >> 1:
                bits |= 1 << (H.n + j)
        packed.append(bits)
    return packed


def check_orthogonality(H: "SparseCheckMatrix") -> bool:
    """True iff every pair of rows of ``H`` commutes.

    Rows r and r' commute iff their symplectic form, the parity of
    (x & z') ^ (z & x'), is 0; with the halves of r' swapped, that is the
    parity of one AND of packed rows.  Exact and exhaustive; intended to
    run once per code load.
    """
    rows = symplectic_rows(H)
    low = (1 << H.n) - 1
    swapped = [(r >> H.n) | ((r & low) << H.n) for r in rows]
    return not any(
        (r & s).bit_count() & 1 for i, r in enumerate(rows) for s in swapped[i + 1 :]
    )
