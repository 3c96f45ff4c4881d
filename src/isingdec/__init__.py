"""Maximum-entropy vs maximum-likelihood decoding of Ising codes on Chimera graphs.

Subpackages:

- core: graphs, Hamiltonians, gauge/automorphism canonicalization, text format
- channel: binary symmetric channel, corruption sectors, seeded RNG streams
- exact: exhaustive-enumeration thermodynamics and decoders (<= 25 spins)
- bte: bucket-tree elimination inference and backward sampling
- transitions: spin-sign transition extraction and P_low analysis
- sa: Metropolis simulated annealing with control-error injection
- experiments: sector-grouped BER curves and surfaces
- cli: configuration-driven command-line front end
"""

from .core import (
    CapacityError,
    ChimeraGraph,
    FormatError,
    Hamiltonian,
    build_chimera,
    truncated_cell,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ChimeraGraph",
    "FormatError",
    "Hamiltonian",
    "build_chimera",
    "truncated_cell",
    "__version__",
]
