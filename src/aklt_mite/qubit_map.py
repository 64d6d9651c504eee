"""Two-qubit-per-site encoding of the spin-1 chain.

Each spin-1 site becomes a pair of spin-1/2 sub-spins (a, b); spin operators
map to the sum of the two sub-spin operators.  The per-site triplet sector
carries the spin-1 physics through the fixed isometry

    |m=+1>  ->  |00>
    |m= 0>  ->  (|01> + |10>) / sqrt(2)
    |m=-1>  ->  |11>

(all equivalence tests depend on this ordering).  Dynamics generated by
mapped operators commutes with every per-site a<->b swap, so a state starting
in the symmetric (triplet) sector never leaves it.  ``verify`` checks the swap
symmetry, the isometry pullback of the mapped projector, and the lifted
closed form against the diagonalized symmetric-sector oracle
(:func:`qubit_aklt_state`).
"""

from __future__ import annotations

import numpy as np

from . import spin_ops
from .statevec import map_sites


def triplet_isometry() -> np.ndarray:
    """The 4x3 isometry embedding one spin-1 site into its qubit pair."""
    v = np.zeros((4, 3), dtype=complex)
    v[0, 0] = 1.0
    v[1, 1] = v[2, 1] = 1.0 / np.sqrt(2.0)
    v[3, 2] = 1.0
    return v


def symmetric_site_projector() -> np.ndarray:
    """Projector onto the per-site triplet sector, V V' (4x4)."""
    v = triplet_isometry()
    return v @ v.conj().T


_PI_SYM_SITE = symmetric_site_projector()
_PI_SYM_SITE.flags.writeable = False


def symmetric_weight(state: np.ndarray) -> float:
    """<psi| Pi_sym |psi>, the weight in the all-sites-triplet sector."""
    if state.shape[0] != 4:
        raise ValueError("symmetric weight is defined for qubit-pair states")
    return float(np.vdot(state, map_sites([_PI_SYM_SITE] * state.ndim, state)).real)


def lift_state(state: np.ndarray) -> np.ndarray:
    """Push a spin-1 chain state through the site-wise triplet isometry."""
    if state.shape[0] != 3:
        raise ValueError("lift_state expects a spin-1 chain state")
    return map_sites([triplet_isometry()] * state.ndim, state)


def restrict_state(state: np.ndarray) -> np.ndarray:
    """Project a qubit-pair chain state back to spin-1 coordinates (V' per site)."""
    if state.shape[0] != 4:
        raise ValueError("restrict_state expects a qubit-pair chain state")
    return map_sites([triplet_isometry().conj().T] * state.ndim, state)


def qubit_aklt_state(n: int) -> np.ndarray:
    """Zero-energy reference of the mapped Hamiltonian, restricted to the
    symmetric sector, by exact diagonalization (the oracle for
    :func:`reencoded_reference`).

    Diagonalizes V' H_mapped V on the 3^n-dimensional symmetric coordinates
    (matrix-free) and lifts the unique zero mode back to the 4^n qubit space.
    This is deliberately not a re-encoding of the spin-1 reference, so
    agreement between the two is an independent check of the mapping.
    """
    spin_ops.check_chain_size(n, "qubit")
    proj = spin_ops.bond_projector("qubit")

    def matvec(x):
        lifted = lift_state(x.reshape((3,) * n))
        return restrict_state(spin_ops.hamiltonian_apply(lifted, proj)).reshape(-1)

    vec = spin_ops.zero_mode(matvec, 3**n)
    lifted = spin_ops._fix_phase(lift_state(vec.reshape((3,) * n)))
    residual = np.linalg.norm(spin_ops.hamiltonian_apply(lifted, proj))
    if residual > spin_ops.REFERENCE_RESIDUAL_TOL:
        raise RuntimeError(f"H|ref> residual {residual:.3e} exceeds tolerance")
    return lifted


def reencoded_reference(n: int) -> np.ndarray:
    """The closed-form spin-1 reference pushed through the isometry: the
    qubit-mode reference every job uses."""
    spin_ops.check_chain_size(n, "qubit")
    return lift_state(spin_ops.aklt_state(n))
