"""Quantum mechanics on a discrete space and time lattice.

Lattice states, the tangent-grid plane wave basis with its forward-difference
momentum, unitary Cayley propagation with its Heisenberg difference schemes,
finite oscillators built on Kravchuk polynomials and rotation d-tables, and the
continuum oscillator eigenfunctions used as the limit oracle.
"""

from types import ModuleType as _ModuleType

from .lattice import LatticeState
from .planewave import (
    PlaneWaveBasis,
    build_basis,
    forward_transform,
    inverse_transform,
    momentum_apply,
    momentum_eigenvalues,
)
from .cayley import (
    CayleyPropagator,
    IdentityCheck,
    SchemeResiduals,
    build_propagator,
    check_hermitian,
    evolution_operator,
    evolution_operator_residual,
    evolve_state,
    evolve_trajectory,
    heisenberg_scheme_residuals,
    involution_identities,
)
from .kravchuk import (
    DifferentialResiduals,
    RecurrenceResiduals,
    WignerDMatrix,
    build_kravchuk,
    build_wigner_d,
    differential_residuals,
    recurrence_residuals,
    wigner_d_direct,
)
from .oscillator import (
    ConvergenceTable,
    annihilation_matrix,
    commutator_spectrum,
    continuum_convergence,
    energy_spectrum,
    hamiltonian_matrix,
    position_matrix,
    position_spectrum,
    s_grid,
)
from .hermite import (
    HermiteRecurrenceResiduals,
    eval_psi,
    gram_matrix,
    ladder_apply,
    psi_table,
    recurrence_residual,
    schrodinger_residual,
)
from .report import CheckRow, write_csv
from .cli import build_verification_report

__version__ = "0.1.0"

# every public name bound above, in import order; the submodules are not part of it
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
