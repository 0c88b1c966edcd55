from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from qsagms.code import GbSpec, SparseCheckMatrix, build_gb, tanner_graph

CODES_DIR = Path(__file__).resolve().parent.parent / "codes"

#: Verified transcription of the [[126,28]] generalized bicycle code.
GB_126_28 = GbSpec(63, (0, 1, 14, 16, 22), (0, 3, 13, 20, 42))

#: Provenance lines that do not build the rows of gb-6-2.qpc (see ``toy_with_gb_line``).
GB_LINE_MISMATCH = {
    "exponent": "gb ell=3 a=0,2 b=0,2",
    "ell": "gb ell=5 a=0,3 b=1",
}


def toy_with_gb_line(gb_line: str) -> str:
    """gb-6-2.qpc with its provenance line (line 3) replaced by ``gb_line``."""
    text = (CODES_DIR / "gb-6-2.qpc").read_text()
    assert text.splitlines()[2] == "gb ell=3 a=0,1 b=0,2"
    return text.replace("gb ell=3 a=0,1 b=0,2\n", gb_line + "\n")


@pytest.fixture(scope="session")
def toy_code():
    """The [[6,2]] fixture; every column has an identical twin."""
    return build_gb(GbSpec(3, (0, 1), (0, 2)))


@pytest.fixture(scope="session")
def toy_graph(toy_code):
    return tanner_graph(toy_code)


@pytest.fixture(scope="session")
def small_code():
    """Twin-free [[10,2]] generalized bicycle code (ell=5)."""
    return build_gb(GbSpec(5, (0, 1), (0, 2)))


@pytest.fixture(scope="session")
def small_graph(small_code):
    return tanner_graph(small_code)


@pytest.fixture(scope="session")
def gb126_code():
    return build_gb(GB_126_28)


@pytest.fixture(scope="session")
def gb126_graph(gb126_code):
    return tanner_graph(gb126_code)


@pytest.fixture(scope="session")
def tree_code():
    """Cycle-free n=9 matrix; check degrees 2-3, qubit degrees 1-3."""
    return make_tree_code(np.random.default_rng(0), n_target=9)


@pytest.fixture(scope="session")
def tree_graph(tree_code):
    return tanner_graph(tree_code)


def make_tree_code(rng: np.random.Generator, n_target: int) -> SparseCheckMatrix:
    """Random cycle-free check matrix with every check degree >= 2.

    Grown by repeatedly attaching a new check to one existing qubit plus
    one or two brand-new qubits, which keeps the bipartite graph acyclic.
    Not a stabilizer code; validate with the orthogonality flag off.
    """
    rows: list[list[tuple[int, int]]] = []
    n = 1
    while n < n_target:
        anchor = int(rng.integers(0, n))
        fresh = int(rng.integers(1, 3))
        fresh = min(fresh, n_target - n)
        if fresh == 0:
            break
        members = [anchor] + list(range(n, n + fresh))
        n += fresh
        rows.append(sorted((j, int(rng.integers(1, 4))) for j in members))
    H = SparseCheckMatrix(n=n, rows=rows)
    H.validate(stabilizer=False)
    return H
