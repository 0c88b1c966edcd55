"""Single-qubit Pauli arithmetic in the binary symplectic representation.

A Pauli is encoded as an integer in {0, 1, 2, 3}:

    I = 0 = (x=0, z=0)
    X = 1 = (x=1, z=0)
    Z = 2 = (x=0, z=1)
    Y = 3 = (x=1, z=1)

i.e. ``code = x_bit | (z_bit << 1)``.  Composition modulo global phase is
XOR of codes, and two Paulis anticommute exactly when their symplectic
(trace) inner product is 1.  The single-Pauli functions accept plain ints
or numpy integer arrays and operate element-wise; the packed-row functions
take a whole check matrix.

An error pattern on n qubits is a length-n uint8 array of these codes; its
syndrome is ``code.TannerGraph.syndromes``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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


def trace_inner(a, b):
    """Symplectic form of two Paulis over GF(2).

    Returns 1 iff ``a`` and ``b`` anticommute, 0 otherwise.  Symmetric and
    bilinear; ``trace_inner(p, p) == 0`` for every Pauli.
    """
    return (x_bit(a) & z_bit(b)) ^ (z_bit(a) & x_bit(b))


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

    Only rows that share a column can anticommute.  Each column's rows are
    bucketed by symbol; two distinct nonzero Paulis anticommute, so every
    pair of rows from two buckets of a column is toggled, and the rows
    commute iff no pair is left toggled an odd number of times.  Exact, and
    the work grows with the anticommuting pairs of entries, not with m².
    """
    columns: dict[int, tuple[list, list, list]] = {}
    for i, row in enumerate(H.rows):
        for j, sym in row:
            columns.setdefault(j, ([], [], []))[sym - 1].append(i)
    odd: set[tuple[int, int]] = set()
    for x, z, y in columns.values():
        for a, b in ((x, z), (x, y), (z, y)):
            odd.symmetric_difference_update((min(i, k), max(i, k)) for i in a for k in b)
    return not odd
