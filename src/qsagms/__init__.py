"""Quantum LDPC decoding with syndrome-adaptive min-sum gain control.

Subpackages by concern: ``pauli`` (GF(4) symplectic arithmetic), ``code``
(check matrices, generalized bicycle construction, file I/O), ``channel``
(depolarizing sampling and priors), ``decoder`` (BP4/MS/SMS/SAGMS message
passing), ``analysis`` (gain laws, transfer functions, operation counts)
and ``harness`` (Monte Carlo frame-error-rate estimation).
"""

__version__ = "0.1.0"

from .analysis import (
    alpha_opt,
    alpha_star_approx,
    alpha_star_exact,
    check_monotonicity,
    delta_alpha,
    expected_min_g,
    linear_gain_fit,
    op_count,
    phi,
    transfer,
)
from .channel import prior_llr, sample_error
from .code import (
    CodeFormatError,
    CodeParams,
    GbSpec,
    OrthogonalityError,
    SparseCheckMatrix,
    TannerGraph,
    build_gb,
    compute_params,
    load_code,
    save_code,
    tanner_graph,
)
from .decoder import DecoderConfig, GainParams, decode_batch
from .harness import FerPoint, SweepConfig, run_point, run_sweep, wilson_interval
from .pauli import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    check_orthogonality,
    trace_inner,
)

__all__ = [
    "__version__",
    "alpha_opt",
    "alpha_star_approx",
    "alpha_star_exact",
    "check_monotonicity",
    "delta_alpha",
    "expected_min_g",
    "linear_gain_fit",
    "op_count",
    "phi",
    "transfer",
    "prior_llr",
    "sample_error",
    "CodeFormatError",
    "CodeParams",
    "GbSpec",
    "OrthogonalityError",
    "SparseCheckMatrix",
    "TannerGraph",
    "build_gb",
    "compute_params",
    "load_code",
    "save_code",
    "tanner_graph",
    "DecoderConfig",
    "GainParams",
    "decode_batch",
    "FerPoint",
    "SweepConfig",
    "run_point",
    "run_sweep",
    "wilson_interval",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "check_orthogonality",
    "trace_inner",
]
