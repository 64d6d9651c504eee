"""Spin operators, bond projectors, the projector-sum Hamiltonian, and the
AKLT reference state.

The chain Hamiltonian is the sum over periodic bonds of the projector onto
the total-spin-2 sector of the two neighboring sites.  Its unique (periodic
boundary) zero-energy ground state is the AKLT state, which doubles as the
fidelity oracle for every experiment in this package.

The reference is built in closed form as the bond-dimension-2 matrix-product
state psi = Tr(A^{s_1} ... A^{s_N}) (Affleck, Kennedy, Lieb and Tasaki,
PRL 59, 799 (1987); Schollwoeck, arXiv:1008.3477), at a cost linear in the
Hilbert-space dimension.  Exact diagonalization of the Hamiltonian is kept
as an independent oracle (:func:`exact_aklt_state`) for ``verify`` and the
tests; no experiment calls it.

Two site encodings (``mode``) are supported:

* ``spin1``: one spin-1 per site, local dimension 3.
* ``qubit``: two spin-1/2 per site; spin operators are replaced by the
  sum of the two sub-spin operators, local dimension 4.

The spin-1/2 operators carry the spin-operator normalization (Pauli matrices
times 1/2) on all three components, so the su(2) algebra [Sx, Sy] = i Sz and
the Casimir Sx^2 + Sy^2 + Sz^2 = (3/4) 1 hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevec import StateVector, apply_two_site, bond_weights

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

# Supported chain lengths per encoding: the periodic Hamiltonian needs three
# sites, and the dense state (3^9 or 4^8 amplitudes) bounds the top.
CHAIN_SIZES = {"spin1": (3, 9), "qubit": (3, 8)}


def check_chain_size(n: int, mode: str = "spin1") -> None:
    if mode not in CHAIN_SIZES:
        raise ValueError(f"unknown mode {mode!r}")
    lo, hi = CHAIN_SIZES[mode]
    if not lo <= n <= hi:
        raise ValueError(f"n = {n} outside the supported {mode} range {lo}..{hi}")


@dataclass(frozen=True)
class SpinMatrices:
    """The three Cartesian spin components for one site."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

    def as_tuple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.sx, self.sy, self.sz)

    @property
    def dim(self) -> int:
        return self.sx.shape[0]


def spin1_matrices() -> SpinMatrices:
    """Spin-1 matrices in the m = +1, 0, -1 basis."""
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
    sy = 1j * np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]], dtype=complex) / SQRT2
    sz = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
    return SpinMatrices(sx, sy, sz)


def spin_half_matrices() -> SpinMatrices:
    """Spin-1/2 matrices (Pauli over 2) in the |0>, |1> basis, sigma^z |n> = (-1)^n |n>."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
    sz = np.array([[1, 0], [0, -1]], dtype=complex) / 2
    return SpinMatrices(sx, sy, sz)


def paired_site_matrices() -> SpinMatrices:
    """Per-site spin components of the two-qubit encoding: S = s_a + s_b (4x4)."""
    half = spin_half_matrices()
    eye = np.eye(2)
    return SpinMatrices(
        *(np.kron(s, eye) + np.kron(eye, s) for s in half.as_tuple())
    )


def site_matrices(mode: str) -> SpinMatrices:
    if mode == "spin1":
        return spin1_matrices()
    if mode == "qubit":
        return paired_site_matrices()
    raise ValueError(f"unknown mode {mode!r}")


def _two_site_total_spin_sq(site: SpinMatrices) -> np.ndarray:
    eye = np.eye(site.dim)
    total = 0.0
    for s in site.as_tuple():
        j = np.kron(s, eye) + np.kron(eye, s)
        total = total + j @ j
    return total


def bond_projector(mode: str) -> np.ndarray:
    """Total-spin-2 bond projector, built from the quartic polynomial in the
    combined spin (S_j + S_{j+1})^2 that is 1 on the S=2 multiplet and 0 on
    S=0, 1.

    This form is an exact projector in both site representations; the
    quadratic short form (see :func:`bond_projector_short_form`) agrees with
    it only where every site carries genuine spin 1, i.e. everywhere in
    spin1 mode but only on the symmetric sector in qubit mode.
    """
    site = site_matrices(mode)
    csq = _two_site_total_spin_sq(site)
    eye = np.eye(csq.shape[0])
    mat = csq @ (csq - 2 * eye) / 24.0
    return (mat + mat.conj().T) / 2


def bond_projector_short_form(mode: str) -> np.ndarray:
    """The quadratic form (dot + dot^2/3 + 2/3)/2 of the bond projector.

    Uses S_j . S_j = 2 for its simplification, which only holds sitewise on
    genuine spin-1 degrees of freedom.
    """
    site = site_matrices(mode)
    eye_site = np.eye(site.dim)
    dot = sum(np.kron(s, s) for s in site.as_tuple())
    eye = np.kron(eye_site, eye_site)
    return (dot + dot @ dot / 3.0 + 2.0 / 3.0 * eye) / 2.0


@dataclass(frozen=True)
class CoupledState:
    """One |S, m> eigenvector of two coupled spin-1 sites."""

    s: int
    m: int
    vec: np.ndarray


def coupled_basis() -> list[CoupledState]:
    """The nine |S, m> states of two spin-1 sites, built by ladder operators.

    Starts from the stretched |2, 2> = |m=1>|m=1> state, walks down each
    multiplet with the total lowering operator, and finds the top of the
    next multiplet by orthogonality within the fixed-m subspace
    (Condon-Shortley phases: first nonzero coefficient positive).
    """
    s1 = spin1_matrices()
    eye = np.eye(3)
    s_minus = (s1.sx - 1j * s1.sy)
    lower = np.kron(s_minus, eye) + np.kron(eye, s_minus)

    states: list[CoupledState] = []
    tops: list[np.ndarray] = []
    top = np.zeros(9, dtype=complex)
    top[0] = 1.0  # |m=1>|m=1> at digits (0, 0)
    for s in (2, 1, 0):
        tops.append(top)
        vec = top
        states.append(CoupledState(s, s, vec))
        for m in range(s - 1, -s - 1, -1):
            vec = lower @ vec
            vec = vec / np.linalg.norm(vec)
            states.append(CoupledState(s, m, vec))
        if s == 0:
            break
        # top of the next multiplet: the m = s-1 vector orthogonal to all
        # previously found multiplets' m = s-1 members
        got = [st.vec for st in states if st.m == s - 1]
        basis = _m_subspace_basis(s - 1)
        top = _orthogonal_complement_vector(basis, got)
    return states


def _m_subspace_basis(m: int) -> list[np.ndarray]:
    """Product basis vectors of two spin-1 sites with total projection m."""
    out = []
    for d1 in range(3):
        for d2 in range(3):
            if (1 - d1) + (1 - d2) == m:
                v = np.zeros(9, dtype=complex)
                v[3 * d1 + d2] = 1.0
                out.append(v)
    return out


def _orthogonal_complement_vector(
    basis: list[np.ndarray], known: list[np.ndarray]
) -> np.ndarray:
    """The unit vector in span(basis) orthogonal to all of ``known``."""
    b = np.stack(basis, axis=1)
    coeffs = np.eye(len(basis), dtype=complex)
    for k in known:
        proj = b.conj().T @ k
        coeffs = coeffs - np.outer(proj, proj.conj()) @ coeffs
    # any nonzero column spans the 1-dim complement
    col = coeffs[:, int(np.argmax(np.linalg.norm(coeffs, axis=0)))]
    vec = b @ col
    vec = vec / np.linalg.norm(vec)
    k = int(np.argmax(np.abs(vec) > 1e-12))
    phase = vec[k] / abs(vec[k])
    return vec / phase


def hamiltonian_apply(state: StateVector, projector: np.ndarray | None = None) -> StateVector:
    """Apply the projector-sum Hamiltonian: sum over bonds j of P_{j,j+1} |psi>.

    Matrix-free; the wraparound bond (n_sites, 1) is included.  ``projector``
    defaults to the bond projector matching the state's site dimension.
    """
    if state.n_sites < 3:
        raise ValueError("chain Hamiltonian needs at least 3 sites")
    if projector is None:
        projector = bond_projector("spin1" if state.d == 3 else "qubit")
    out = np.zeros_like(state.amps)
    for j in range(1, state.n_sites + 1):
        out += apply_two_site(projector, j, state).amps
    return state.with_amps(out)


@dataclass(frozen=True)
class AkltReference:
    """Unit-norm zero-energy reference state for an N-site periodic chain."""

    state: StateVector
    energy: float
    n: int


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Make the first amplitude of (near-)largest magnitude real positive.

    AKLT states hold many amplitudes tied in magnitude; a relative 1e-9
    tolerance keeps rounding from deciding which of them sets the phase.
    """
    mags = np.abs(vec)
    k = int(np.argmax(mags >= (1.0 - 1e-9) * mags.max()))
    return vec * (abs(vec[k]) / vec[k])


def zero_mode(matvec, dim: int) -> tuple[float, np.ndarray]:
    """Energy and unit vector of the unique zero mode of a Hermitian PSD map.

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
    return float(vals[0]), vec / np.linalg.norm(vec)


def aklt_state(n: int) -> AkltReference:
    """AKLT reference state for an ``n``-site spin-1 periodic chain, in closed form.

    Contracts psi(s_1..s_N) = Tr(A^{s_1} ... A^{s_N}) site by site (site 1 the
    slowest digit), normalizes, and fixes the global phase (first
    largest-magnitude amplitude real positive).  The bond weights
    w_j = |P_j psi|^2 certify the result: ``energy`` = sum_j w_j = <psi|H psi>
    >= 0, and sum_j sqrt(w_j) >= |H psi| must stay below
    ``REFERENCE_RESIDUAL_TOL``.  :func:`exact_aklt_state` is the diagonalization oracle.
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
        chain = np.einsum("kab,sbc->ksac", chain, a).reshape(-1, 2, 2)
    vec = np.einsum("kaa->k", chain).astype(complex)
    vec = _fix_phase(vec / np.linalg.norm(vec))
    state = StateVector(vec, n, 3)
    weights = bond_weights(state, bond_projector("spin1"))
    residual = sum(np.sqrt(weights))
    if residual > REFERENCE_RESIDUAL_TOL:
        raise RuntimeError(f"H|ref> residual bound {residual:.3e} exceeds tolerance")
    return AkltReference(state, sum(weights), n)


def exact_aklt_state(n: int) -> AkltReference:
    """AKLT reference state by exact diagonalization (the oracle for
    :func:`aklt_state`).

    Obtained by diagonalizing the projector-sum Hamiltonian; fails if the
    lowest eigenvalue is not (numerically) zero or the zero mode is not
    unique.  Global phase as in :func:`aklt_state`.
    """
    check_chain_size(n)
    proj = bond_projector("spin1")
    dim = 3**n

    def matvec(x):
        sv = StateVector(np.asarray(x, dtype=complex), n, 3)
        return hamiltonian_apply(sv, proj).amps

    energy, vec = zero_mode(matvec, dim)
    state = StateVector(_fix_phase(vec), n, 3)
    residual = np.linalg.norm(hamiltonian_apply(state, proj).amps)
    if residual > REFERENCE_RESIDUAL_TOL:
        raise RuntimeError(f"H|ref> residual {residual:.3e} exceeds tolerance")
    return AkltReference(state, energy, n)
