"""Dissipative dynamics and entanglement of two atoms in a common thermal bath.

Markovian, completely positive reduced dynamics for a pair of independent
two-level atoms coupled to thermal scalar fields: Kossakowski-matrix
construction, Lindblad evolution, entanglement generation tests and the
asymptotic (stationary) entanglement as functions of bath temperature and
atom separation.
"""

from .spectral import (
    KossakowskiCoefficients,
    ModelParams,
    kossakowski_coefficients,
    kossakowski_eigenvalues,
    temperature_ratio,
)
from .dynamics import (
    CrossCheckError,
    PositivityError,
    bloch_ket,
    build_superoperator,
    evolve,
    evolve_traj,
    local_frame,
    singlet_density,
    singlet_ket,
    tau,
    trace_norm,
    unvec,
    validate_density_matrix,
    vec,
)
from .entanglement import (
    ProductState,
    canonical_state,
    concurrence,
    criterion_rs,
    generation_test,
    min_eig_pt,
    partial_transpose,
    small_time_ppt_oracle,
)
from .asymptotic import (
    ConvergenceError,
    asymptotic_state,
    threshold_tau,
)

__version__ = "0.1.0"
