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
    PsiTensors,
    SpectralValues,
    build_kossakowski_closed,
    build_kossakowski_spectral,
    kossakowski_coefficients,
    kossakowski_from_coefficients,
    psd_check,
    psi_tensors,
    spectral_density,
    temperature_ratio,
)
from .dynamics import (
    PositivityError,
    Trajectory,
    build_superoperator,
    choi_matrix,
    dissipator_apply,
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
    UVVectors,
    bloch_ket,
    canonical_state,
    concurrence,
    criterion_rs,
    generation_test,
    is_entangled,
    min_eig_pt,
    min_q_rate,
    partial_transpose,
    q_probe,
    q_rate,
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
