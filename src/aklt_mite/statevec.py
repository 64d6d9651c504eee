"""Dense state vectors on a small periodic chain, with local operator application.

Basis conventions (fixed; stored outputs depend on them):

* Every chain site is one digit of dimension ``d`` in the flattened amplitude
  index, and site 1 is the slowest-varying digit, i.e.
  ``amps.reshape((d,) * n_sites)`` puts site 1 on axis 0.
* Spin-1 sites (``d = 3``) encode ``m = +1, 0, -1`` as digits ``0, 1, 2``.
* A qubit-pair site (``d = 4``) holds sub-spins (a, b) as the single digit
  ``2a + b``; ``|0>`` is the ``sigma^z = +1`` state, so digit 0 means both
  sub-spins up.  This is the amplitude order of two adjacent qubit axes.

Bond indices are 1-based: bond ``j`` couples chain sites ``(j, j+1)`` with
``j = n_sites`` wrapping around to site 1 (periodic boundary).

``product_state`` builds the one start state of every trajectory, each
site at digit 0 (flat index 0).  The job path works in a rotating site
layout: ``rotate_sites`` shifts the site order cyclically, ``walk_bonds``
visits a sequence of bonds on their (d^2, d^(n-2)) *frames*,
``bond_weights`` reads <psi|P|psi> on every bond in one rotation pass, and
``map_sites`` applies one operator per site.  The chain-order functions
``apply_two_site``, ``apply_one_site``, ``partial_fidelity`` and
``born_sample`` are the independent oracles those are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-12


@dataclass
class StateVector:
    """Complex amplitudes over ``n_sites`` chain sites of dimension ``d``
    (3 for a spin-1 chain, 4 for the qubit-pair encoding)."""

    amps: np.ndarray
    n_sites: int
    d: int

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.shape != (self.dim,):
            raise ValueError(
                f"amplitude vector has length {self.amps.size}, expected "
                f"{self.d}^{self.n_sites} = {self.dim}"
            )

    @property
    def dim(self) -> int:
        return self.d**self.n_sites

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def with_amps(self, amps: np.ndarray) -> "StateVector":
        return StateVector(amps, self.n_sites, self.d)


@dataclass
class KrausPair:
    """Two-outcome measurement operation {m0, m1} on one bond.

    Completeness m0'm0 + m1'm1 = 1 is checked at construction; the pair is
    unusable for Born sampling otherwise.
    """

    m0: np.ndarray
    m1: np.ndarray

    def __post_init__(self):
        self.m0 = np.asarray(self.m0, dtype=complex)
        self.m1 = np.asarray(self.m1, dtype=complex)
        if self.m0.shape != self.m1.shape or self.m0.ndim != 2:
            raise ValueError("Kraus operators must be two square matrices of equal shape")
        ident = np.eye(self.m0.shape[0])
        defect = self.m0.conj().T @ self.m0 + self.m1.conj().T @ self.m1 - ident
        if np.max(np.abs(defect)) > _NORM_TOL:
            raise ValueError(
                f"Kraus pair violates completeness by {np.max(np.abs(defect)):.3e}"
            )


def product_state(n_sites: int, d: int) -> StateVector:
    """The all-digit-0 product state, the start of every trajectory: each
    site in its first basis state (m = +1 for spin 1, both sub-spins up for
    a qubit pair), which is flat amplitude index 0."""
    amps = np.zeros(d**n_sites, dtype=complex)
    amps[0] = 1.0
    return StateVector(amps, n_sites, d)


def apply_two_site(op: np.ndarray, j: int, state: StateVector) -> StateVector:
    """Apply a bond operator to sites ``(j, j+1)``; bond ``n_sites`` wraps.

    ``op`` acts on the combined local space of the two sites
    (9x9 for spin-1, 16x16 for qubit pairs).  The two sites are moved to
    the front, the others keeping chain order, hit by one matrix product
    and moved back.  The result is NOT renormalized.
    """
    if not 1 <= j <= state.n_sites:
        raise ValueError(f"bond index {j} out of range 1..{state.n_sites}")
    d = state.d
    if op.shape != (d * d, d * d):
        raise ValueError(f"operator shape {op.shape} does not match bond dim {d * d}")
    if j == state.n_sites:  # (site n, site 1) of the (site 1, middle, site n) view
        x, back = state.amps.reshape(d, -1, d).transpose(2, 0, 1), (1, 2, 0)
    else:
        x, back = state.amps.reshape(d ** (j - 1), d * d, -1).transpose(1, 0, 2), (1, 0, 2)
    y = op @ x.reshape(d * d, -1)
    return state.with_amps(y.reshape(x.shape).transpose(back).reshape(-1))


def apply_one_site(op: np.ndarray, j: int, state: StateVector) -> StateVector:
    """Apply a single-site operator to chain site ``j`` (not renormalized),
    as one step of ``map_sites`` with the other sites in its cyclic order
    (j+1, ..., n, 1, ..., j-1), so that the two agree bit for bit."""
    if not 1 <= j <= state.n_sites:
        raise ValueError(f"site index {j} out of range 1..{state.n_sites}")
    d = state.d
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match site dim {d}")
    left = d ** (j - 1)
    x = state.amps.reshape(left, d, -1).transpose(1, 2, 0).reshape(d, -1)
    y = (x.T @ op.T).reshape(-1, left, d).transpose(1, 2, 0)
    return state.with_amps(y.reshape(-1))


def rotate_sites(amps: np.ndarray, d: int, k: int) -> np.ndarray:
    """Flat amplitudes with their first ``k`` site axes moved behind the
    others, a cyclic shift of the site order: one copy, none for k = 0.
    Rotating by k and then by n - k gives the input back exactly."""
    return amps.reshape(d**k, -1).T.reshape(-1)


def walk_bonds(state: StateVector, bonds, visit) -> StateVector:
    """``visit(j, frame)`` on each of ``bonds`` in turn, which returns the
    frame to go on with; the state comes back in chain order.  Bond j's
    *frame* is the (d^2, d^(n-2)) view of the amplitudes with its sites
    first (j, ..., n, 1, ..., j-1), on which a bond operator is one matmul
    from the left; the next bond is one ``rotate_sites`` copy away."""
    n, d = state.n_sites, state.d
    amps, at = state.amps, 0  # amps holds the sites in the order at+1, ..., n, 1, ..., at
    for j in bonds:
        frame = rotate_sites(amps, d, (j - 1 - at) % n).reshape(d * d, -1)
        at = j - 1
        amps = visit(j, frame).reshape(-1)
    return state.with_amps(rotate_sites(amps, d, -at % n))


def bond_weights(state: StateVector, projector: np.ndarray) -> list[float]:
    """<psi|P_{j,j+1}|psi> = |P frame_j|^2 for every bond j = 1..n, each
    frame rotated straight from chain order: one rotation pass."""
    weights = []
    for k in range(state.n_sites):
        excited = projector @ rotate_sites(state.amps, state.d, k).reshape(len(projector), -1)
        weights.append(float(np.vdot(excited, excited).real))
    return weights


def map_sites(ops, amps: np.ndarray) -> np.ndarray:
    """Flat amplitudes with ``ops[i]`` (shape ``(d_out, d_in)``) applied to
    their i-th site axis, one operator per site.  Each step is one matmul
    whose output holds its site last, so it also rotates the site order by
    one without a copy; after the last site the order is restored."""
    for op in ops:
        amps = (amps.reshape(op.shape[1], -1).T @ op.T).reshape(-1)
    return amps


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for two unit-norm states of identical shape."""
    if a.amps.shape != b.amps.shape:
        raise ValueError("state shapes differ")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def partial_fidelity(state: StateVector, j: int, projector: np.ndarray) -> float:
    """Weight <psi|(1 - P_{j,j+1})|psi> in the bond's zero-eigenvalue sector.

    Real to numerical precision for a Hermitian projector; clamped to [0, 1].
    """
    val = 1.0 - np.vdot(state.amps, apply_two_site(projector, j, state).amps).real
    return float(min(1.0, max(0.0, val)))


def born_sample(
    kraus: KrausPair, j: int, state: StateVector, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Sample one measurement outcome on bond ``j`` and collapse the state.

    Outcome ``q`` is drawn with probability ||m_q psi||^2; the returned state
    is the renormalized post-measurement state.  Exactly one uniform variate
    is consumed per call.  This is the full-state oracle: jobs sample
    through ``mite.two_level_sample``, which ``verify`` checks against it.
    """
    psi0 = apply_two_site(kraus.m0, j, state)
    p0 = float(np.vdot(psi0.amps, psi0.amps).real)
    if rng.random() < p0:
        return 0, psi0.with_amps(psi0.amps / np.sqrt(p0))
    psi1 = apply_two_site(kraus.m1, j, state)
    p1 = float(np.vdot(psi1.amps, psi1.amps).real)
    if p1 <= 0.0:
        raise RuntimeError("both measurement outcomes have zero weight; corrupt Kraus pair")
    return 1, psi1.with_amps(psi1.amps / np.sqrt(p1))
