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
from .statevec import StateVector, map_sites


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


def symmetric_weight(state: StateVector) -> float:
    """<psi| Pi_sym |psi>, the weight in the all-sites-triplet sector."""
    if state.d != 4:
        raise ValueError("symmetric weight is defined for qubit-pair states")
    projected = map_sites([_PI_SYM_SITE] * state.n_sites, state.amps)
    return float(np.vdot(state.amps, projected).real)


def lift_state(state: StateVector) -> StateVector:
    """Push a spin-1 chain state through the site-wise triplet isometry."""
    if state.d != 3:
        raise ValueError("lift_state expects a spin-1 chain state")
    return StateVector(map_sites([triplet_isometry()] * state.n_sites, state.amps), state.n_sites, 4)


def restrict_state(state: StateVector) -> StateVector:
    """Project a qubit-pair chain state back to spin-1 coordinates (V' per site)."""
    if state.d != 4:
        raise ValueError("restrict_state expects a qubit-pair chain state")
    v_dag = triplet_isometry().conj().T
    return StateVector(map_sites([v_dag] * state.n_sites, state.amps), state.n_sites, 3)


def qubit_aklt_state(n: int) -> spin_ops.AkltReference:
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
        sym = StateVector(np.asarray(x, dtype=complex), n, d=3)
        lifted = lift_state(sym)
        h_lifted = spin_ops.hamiltonian_apply(lifted, proj)
        return restrict_state(h_lifted).amps

    energy, vec = spin_ops.zero_mode(matvec, 3**n)
    lifted = lift_state(StateVector(vec, n, d=3))
    lifted = lifted.with_amps(spin_ops._fix_phase(lifted.amps))
    residual = np.linalg.norm(spin_ops.hamiltonian_apply(lifted, proj).amps)
    if residual > spin_ops.REFERENCE_RESIDUAL_TOL:
        raise RuntimeError(f"H|ref> residual {residual:.3e} exceeds tolerance")
    return spin_ops.AkltReference(lifted, energy, n)


def reencoded_reference(n: int) -> spin_ops.AkltReference:
    """The closed-form spin-1 reference pushed through the isometry: the
    qubit-mode reference every job uses."""
    spin_ops.check_chain_size(n, "qubit")
    ref = spin_ops.aklt_state(n)
    return spin_ops.AkltReference(lift_state(ref.state), ref.energy, n)
