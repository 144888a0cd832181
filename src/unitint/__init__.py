"""unitint: evolution operators by Riccati base dynamics and fiber phases.

Solves i dU/dt = H(t) U for N-level Hermitian Hamiltonians by factoring U
into a base-manifold part driven by a matrix Riccati equation and a
block-diagonal fiber part carrying the phases, with a brute-force propagator
for verification.
"""

from .bloch import (
    crosscheck_pictures,
    crosscheck_so5,
    crosscheck_su2,
    precess,
    project2,
    project5,
)
from .factorization import (
    FactoredResult,
    HierarchicalResult,
    assemble_tilde_U1,
    base_coordinate,
    effective_hamiltonian_hermitian,
    effective_hamiltonian_tilde,
    gauge_unitarize,
    hierarchical_solve,
    recursion_hamiltonian,
    solve_factored,
    unitarity_closure,
    unitarized_U1,
)
from .hamiltonian import (
    BlockedHamiltonian,
    SO5Coefficients,
    build_so5,
    constant_hamiltonian,
    from_config,
    piecewise_constant,
    rotating_spin_half,
    so5_coefficients,
    spin_half,
    trig_random,
)
from .linalg import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    expm,
    hermitian_eigendecomposition,
    inv_sqrt_hpd,
    is_hermitian,
    is_traceless,
    is_unitary,
    sqrt_hpd,
)
from .oracle import compare, propagate
from .riccati import (
    StiffnessError,
    integrate_so5,
    riccati_rhs,
    so5_rhs,
    so5_z_matrix,
    so5_z_params,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
