"""Spin operators, bond projectors, the projector-sum Hamiltonian, and the
AKLT reference state.

The chain Hamiltonian is the sum over periodic bonds of the projector onto
the total-spin-2 sector of the two neighboring sites.  Its unique (periodic
boundary) zero-energy ground state is the AKLT state, which doubles as the
fidelity oracle for every experiment in this package.

The reference is built in closed form as the bond-dimension-2 matrix-product
state psi = Tr(A^{s_1} ... A^{s_N}) (Affleck, Kennedy, Lieb and Tasaki,
PRL 59, 799 (1987); Schollwoeck, arXiv:1008.3477), at a cost linear in the
Hilbert-space dimension.  The matrix-free Hamiltonian and its zero mode
stay here for the qubit oracle; exact diagonalization of the spin-1 chain
(``verify.exact_aklt_state``) is the independent oracle for the closed form.

Two site encodings (``mode``) are supported:

* ``spin1``: one spin-1 per site, local dimension 3.
* ``qubit``: two spin-1/2 per site; spin operators are replaced by the
  sum of the two sub-spin operators, local dimension 4.

The spin-1/2 operators carry the spin-operator normalization (Pauli matrices
times 1/2) on all three components, so the su(2) algebra [Sx, Sy] = i Sz and
the Casimir Sx^2 + Sy^2 + Sz^2 = (3/4) 1 hold exactly.
"""

from __future__ import annotations

import numpy as np

from .params import check_chain_size
from .statevec import apply_two_site, bond_weights

SQRT2 = np.sqrt(2.0)

# ED pathway switches to Lanczos above this Hilbert-space dimension (N > 5
# for spin-1); Lanczos is far faster there and agrees to machine precision.
# Small spaces stay dense: from the uniform start vector, eigsh(k=2) returns
# [1, 1.083] for diag(0, 0, 1..3) at dimension 27 and misses both zeros.
_DENSE_ED_LIMIT = 243

# Tolerances for ground-space identification (zero mode) and for asserting
# that the returned reference state is annihilated by the Hamiltonian.
ZERO_ENERGY_TOL = 1e-8
REFERENCE_RESIDUAL_TOL = 1e-10


def spin1_matrices() -> np.ndarray:
    """Spin-1 matrices (Sx, Sy, Sz) in the m = +1, 0, -1 basis, stacked as
    one complex (3, 3, 3) array."""
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
    sy = 1j * np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]], dtype=complex) / SQRT2
    sz = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
    return np.stack([sx, sy, sz])


def spin_half_matrices() -> np.ndarray:
    """Spin-1/2 matrices (Pauli over 2) in the |0>, |1> basis, sigma^z |n> =
    (-1)^n |n>, stacked (Sx, Sy, Sz) as one complex (3, 2, 2) array."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
    sz = np.array([[1, 0], [0, -1]], dtype=complex) / 2
    return np.stack([sx, sy, sz])


def paired_site_matrices() -> np.ndarray:
    """Per-site spin components of the two-qubit encoding, S = s_a + s_b,
    stacked (Sx, Sy, Sz) as one complex (3, 4, 4) array."""
    eye = np.eye(2)
    return np.stack([np.kron(s, eye) + np.kron(eye, s) for s in spin_half_matrices()])


def site_matrices(mode: str) -> np.ndarray:
    """The (3, d, d) stack (Sx, Sy, Sz) of one site of encoding ``mode``."""
    if mode == "spin1":
        return spin1_matrices()
    if mode == "qubit":
        return paired_site_matrices()
    raise ValueError(f"unknown mode {mode!r}")


def _two_site_total_spin_sq(site: np.ndarray) -> np.ndarray:
    eye = np.eye(site.shape[-1])
    total = 0.0
    for s in site:
        j = np.kron(s, eye) + np.kron(eye, s)
        total = total + j @ j
    return total


def bond_projector(mode: str) -> np.ndarray:
    """Total-spin-2 bond projector, built from the quartic polynomial in the
    combined spin (S_j + S_{j+1})^2 that is 1 on the S=2 multiplet and 0 on
    S=0, 1.

    This form is an exact projector in both site representations; the
    quadratic short form (``verify.bond_projector_short_form``) agrees with
    it only where every site carries genuine spin 1, i.e. everywhere in
    spin1 mode but only on the symmetric sector in qubit mode.

    The matrix is real: in both encodings Sy is imaginary and Sx, Sz are
    real, so (S_j + S_{j+1})^2 is built with an imaginary part of exactly 0.
    It is returned as a C-contiguous float64 array, which applies to a
    complex frame as one real matmul (``statevec.apply_real``).
    """
    site = site_matrices(mode)
    csq = _two_site_total_spin_sq(site)
    eye = np.eye(csq.shape[0])
    mat = csq @ (csq - 2 * eye) / 24.0
    return np.ascontiguousarray(((mat + mat.conj().T) / 2).real)


def hamiltonian_apply(state: np.ndarray, projector: np.ndarray) -> np.ndarray:
    """Apply the projector-sum Hamiltonian: sum over bonds j of P_{j,j+1} |psi>,
    with ``projector`` the bond projector of the state's encoding.

    Matrix-free; the wraparound bond (N, 1) is included.
    """
    if state.ndim < 3:
        raise ValueError("chain Hamiltonian needs at least 3 sites")
    out = np.zeros_like(state)
    for j in range(1, state.ndim + 1):
        out += apply_two_site(projector, j, state)
    return out


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Make the first amplitude (in flat order) of (near-)largest magnitude
    real positive, for a flat vector or a chain state alike.

    AKLT states hold many amplitudes tied in magnitude; a relative 1e-9
    tolerance keeps rounding from deciding which of them sets the phase.
    """
    mags = np.abs(vec)
    k = int(np.argmax(mags >= (1.0 - 1e-9) * mags.max()))
    return vec * (abs(vec.flat[k]) / vec.flat[k])


def zero_mode(matvec, dim: int) -> np.ndarray:
    """Unit vector of the unique zero mode of a Hermitian PSD map on flat
    vectors of length ``dim``.

    Dense diagonalization below ``_DENSE_ED_LIMIT``, Lanczos (fixed start
    vector, hence deterministic) above it.  Fails if the lowest eigenvalue
    is not (numerically) zero or the zero-energy space is degenerate.
    """
    if dim <= _DENSE_ED_LIMIT:
        h = np.empty((dim, dim), dtype=complex)
        basis = np.zeros(dim, dtype=complex)
        for k in range(dim):
            basis[k] = 1.0
            h[:, k] = matvec(basis)
            basis[k] = 0.0
        vals, vecs = np.linalg.eigh(h)
        vals, vec = vals[:2], vecs[:, 0]
    else:
        # only the oracles reach this, so no job pays for importing scipy
        from scipy.sparse.linalg import LinearOperator, eigsh

        op = LinearOperator((dim, dim), matvec=matvec, dtype=complex)
        v0 = np.full(dim, 1.0 / np.sqrt(dim))
        vals, vecs = eigsh(op, k=2, which="SA", v0=v0)
        order = np.argsort(vals)
        vals, vec = vals[order], vecs[:, order[0]]
    if vals[0] > ZERO_ENERGY_TOL:
        raise RuntimeError(f"lowest eigenvalue {vals[0]:.3e} is not a zero mode")
    if vals[1] <= ZERO_ENERGY_TOL:
        raise RuntimeError("zero-energy space is degenerate; reference state undefined")
    return vec / np.linalg.norm(vec)


def aklt_state(n: int) -> np.ndarray:
    """AKLT reference state for an ``n``-site spin-1 periodic chain, in closed form.

    Contracts psi(s_1..s_N) = Tr(A^{s_1} ... A^{s_N}) site by site (site 1 the
    slowest digit), normalizes, and fixes the global phase (first
    largest-magnitude amplitude real positive).  The bond weights
    w_j = |P_j psi|^2 certify the result: sum_j sqrt(w_j) >= |H psi| must
    stay below ``REFERENCE_RESIDUAL_TOL``, or this raises.
    ``verify.exact_aklt_state`` is the diagonalization oracle.  Each A^s has
    one nonzero entry per column, so each entry of a site's stacked matmul
    is one product and an exact zero.
    """
    check_chain_size(n)
    # A^s for digits s = 0, 1, 2 (m = +1, 0, -1): A^{+1} = sqrt(2/3) sigma^+,
    # A^0 = -sqrt(1/3) sigma^z, A^{-1} = -sqrt(2/3) sigma^-
    a = np.zeros((3, 2, 2))
    a[0, 0, 1] = np.sqrt(2.0 / 3.0)
    a[1] = -np.sqrt(1.0 / 3.0) * np.diag([1.0, -1.0])
    a[2, 1, 0] = -np.sqrt(2.0 / 3.0)
    chain = a
    for _ in range(n - 1):
        chain = np.matmul(chain[:, None], a).reshape(-1, 2, 2)
    vec = np.einsum("kaa->k", chain).astype(complex)
    state = _fix_phase(vec / np.linalg.norm(vec)).reshape((3,) * n)
    residual = sum(np.sqrt(bond_weights(state, bond_projector("spin1"))))
    if residual > REFERENCE_RESIDUAL_TOL:
        raise RuntimeError(f"H|ref> residual bound {residual:.3e} exceeds tolerance")
    return state
