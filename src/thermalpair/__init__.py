"""Dissipative dynamics and entanglement of two atoms in a common thermal bath.

Markovian, completely positive reduced dynamics for a pair of independent
two-level atoms coupled to thermal scalar fields: Kossakowski-matrix
construction, Lindblad evolution, entanglement generation tests and the
asymptotic (stationary) entanglement as functions of bath temperature and
atom separation.

The names below are imported from their modules when first read (PEP 562),
so importing the package, or running `python -m thermalpair`, loads numpy
only through a module that uses it.
"""

from importlib import import_module

_EXPORTS = {
    "spectral": ("KossakowskiCoefficients", "ModelParams", "kossakowski_coefficients",
                 "kossakowski_eigenvalues", "temperature_ratio"),
    "generation": ("ConvergenceError", "CrossCheckError", "PositivityError", "criterion_rs",
                   "generation_test", "small_time_ppt_oracle"),
    "dynamics": ("build_superoperator", "evolve", "evolve_traj", "trace_norm", "unvec", "vec"),
    "entanglement": ("ProductState", "bloch_ket", "canonical_state", "concurrence", "dagger",
                     "local_frame", "min_eig_pt", "partial_transpose", "singlet_density",
                     "singlet_ket", "turn", "validate_density_matrix"),
    "asymptotic": ("asymptotic_state", "tau", "threshold_tau"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
