"""Dissipative dynamics and entanglement of two atoms in a common thermal bath.

Markovian, completely positive reduced dynamics for a pair of independent
two-level atoms coupled to thermal scalar fields: Kossakowski-matrix
construction, Lindblad evolution, entanglement generation tests and the
asymptotic (stationary) entanglement as functions of bath temperature and
atom separation.

Each name is imported from its own module (`thermalpair.spectral`,
`dynamics`, `generation`, `entanglement`, `asymptotic`, `trajectory`,
`cli`); importing the package alone loads none of them, so
`python -m thermalpair` loads numpy only through a module that uses it.
"""

__version__ = "0.1.0"
