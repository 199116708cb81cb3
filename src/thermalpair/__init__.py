"""Dissipative dynamics and entanglement of two atoms in a common thermal bath.

Markovian, completely positive reduced dynamics for a pair of independent
two-level atoms coupled to thermal scalar fields: Kossakowski-matrix
construction, Lindblad evolution, entanglement generation tests and the
asymptotic (stationary) entanglement as functions of bath temperature and
atom separation.
"""

from .spectral import (
    KossakowskiCoefficients,
    KossakowskiMatrix,
    ModelParams,
    build_kossakowski_closed,
    kossakowski_coefficients,
    kossakowski_from_coefficients,
    psd_check,
    temperature_ratio,
)
from .dynamics import (
    PositivityError,
    Trajectory,
    build_superoperator,
    evolve,
    evolve_traj,
    pauli_op,
    singlet_density,
    singlet_ket,
    tau,
    trace_norm,
    unvec,
    validate_density_matrix,
    vec,
)
from .entanglement import (
    GenerationVerdict,
    ProductState,
    bloch_ket,
    canonical_state,
    concurrence,
    criterion_rs,
    generation_test,
    min_eig_pt,
    partial_transpose,
    small_time_ppt_oracle,
    uv_vectors,
)
from .asymptotic import (
    ConvergenceError,
    asymptotic_state,
    spectral_gap,
    stationary_projector,
    threshold_tau,
)

__version__ = "0.1.0"
