"""Dense states of a small periodic chain, with local operator application.

A chain state is a complex ``numpy`` array of shape ``(d,) * N``: axis i
holds chain site i + 1, so N is ``state.ndim`` and the site dimension d is
``state.shape[0]`` (3 for a spin-1 chain, 4 for the qubit-pair encoding).
Every function here reads both from the shape, and every state it returns
is C-contiguous: flat reads such as ``np.linalg.norm``, which sums in
memory order, then see the amplitudes in index order.

Basis conventions (fixed; stored outputs depend on them):

* In the flattened (row-major) amplitude index every site is one digit of
  dimension ``d``, and site 1 is the slowest-varying digit.
* Spin-1 sites (``d = 3``) encode ``m = +1, 0, -1`` as digits ``0, 1, 2``.
* A qubit-pair site (``d = 4``) holds sub-spins (a, b) as the single digit
  ``2a + b``; ``|0>`` is the ``sigma^z = +1`` state, so digit 0 means both
  sub-spins up.  This is the amplitude order of two adjacent qubit axes.

Bond indices are 1-based: bond ``j`` couples chain sites ``(j, j+1)`` with
``j = N`` wrapping around to site 1 (periodic boundary).

``product_state`` builds the one start state of every trajectory, each
site at digit 0 (flat index 0).  The job path works in a rotating site
layout: ``rotate_sites`` shifts the site order cyclically, ``walk_bonds``
visits a sequence of bonds on their (d^2, d^(N-2)) *frames*,
``bond_weights`` reads <psi|P|psi> on every bond in one rotation pass,
``apply_real`` applies a real operator (the bond projector) to a frame as
one real matmul, and ``map_sites`` applies one operator per site.  The
chain-order functions ``apply_two_site``, ``apply_one_site``,
``partial_fidelity`` and ``born_sample`` are the independent oracles those
are tested against.
"""

from __future__ import annotations

import numpy as np


def product_state(n_sites: int, d: int) -> np.ndarray:
    """The all-digit-0 product state, the start of every trajectory: each
    site in its first basis state (m = +1 for spin 1, both sub-spins up for
    a qubit pair), which is flat amplitude index 0."""
    state = np.zeros((d,) * n_sites, dtype=complex)
    state.flat[0] = 1.0
    return state


def apply_two_site(op: np.ndarray, j: int, state: np.ndarray) -> np.ndarray:
    """Apply a bond operator to sites ``(j, j+1)``; bond N wraps.

    ``op`` acts on the combined local space of the two sites
    (9x9 for spin-1, 16x16 for qubit pairs).  The two sites are moved to
    the front, the others keeping chain order, hit by one matrix product
    and moved back.  The result is NOT renormalized.
    """
    n, d = state.ndim, state.shape[0]
    if not 1 <= j <= n:
        raise ValueError(f"bond index {j} out of range 1..{n}")
    if op.shape != (d * d, d * d):
        raise ValueError(f"operator shape {op.shape} does not match bond dim {d * d}")
    if j == n:  # (site n, site 1) of the (site 1, middle, site n) view
        x, back = state.reshape(d, -1, d).transpose(2, 0, 1), (1, 2, 0)
    else:
        x, back = state.reshape(d ** (j - 1), d * d, -1).transpose(1, 0, 2), (1, 0, 2)
    y = op @ x.reshape(d * d, -1)
    return np.ascontiguousarray(y.reshape(x.shape).transpose(back)).reshape(state.shape)


def apply_one_site(op: np.ndarray, j: int, state: np.ndarray) -> np.ndarray:
    """Apply a single-site operator to chain site ``j`` (not renormalized),
    as one step of ``map_sites`` with the other sites in its cyclic order
    (j+1, ..., n, 1, ..., j-1), so that the two agree bit for bit."""
    n, d = state.ndim, state.shape[0]
    if not 1 <= j <= n:
        raise ValueError(f"site index {j} out of range 1..{n}")
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match site dim {d}")
    left = d ** (j - 1)
    x = state.reshape(left, d, -1).transpose(1, 2, 0).reshape(d, -1)
    y = (x.T @ op.T).reshape(-1, left, d).transpose(1, 2, 0)
    return np.ascontiguousarray(y).reshape(state.shape)


def rotate_sites(state: np.ndarray, k: int) -> np.ndarray:
    """The state with its first ``k`` site axes moved behind the others, a
    cyclic shift of the site order: one copy, none for k = 0.  Rotating by
    k and then by N - k gives the input back exactly."""
    return np.ascontiguousarray(state.reshape(state.shape[0] ** k, -1).T).reshape(state.shape)


def walk_bonds(state: np.ndarray, bonds, visit) -> np.ndarray:
    """``visit(j, frame)`` on each of ``bonds`` in turn, which returns the
    frame to go on with; the state comes back in chain order.  Bond j's
    *frame* is the (d^2, d^(N-2)) view of the amplitudes with its sites
    first (j, ..., N, 1, ..., j-1), on which a bond operator is one matmul
    from the left; the next bond is one ``rotate_sites`` copy away."""
    shape, n, d = state.shape, state.ndim, state.shape[0]
    at = 0  # state holds the sites in the order at+1, ..., n, 1, ..., at
    for j in bonds:
        frame = rotate_sites(state, (j - 1 - at) % n).reshape(d * d, -1)
        at = j - 1
        state = visit(j, frame).reshape(shape)
    return rotate_sites(state, -at % n)


def apply_real(op: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """``op @ frame`` for a real float64 ``op`` and a C-contiguous complex
    ``frame``, as one real matmul on the frame's float64 view, whose rows
    hold the real and imaginary parts interleaved.  A real operator mixes
    no real part into an imaginary one, so the complex product is the
    view of the real one.  Any other dtype or layout raises ``ValueError``
    instead of being converted or copied."""
    if op.dtype != np.float64 or frame.dtype != np.complex128 or not frame.flags.c_contiguous:
        raise ValueError(
            f"apply_real needs a float64 operator and a C-contiguous complex128 frame, "
            f"not {op.dtype} and {frame.dtype} (C-contiguous: {frame.flags.c_contiguous})"
        )
    return (op @ frame.view(np.float64)).view(np.complex128)


def bond_weights(state: np.ndarray, projector: np.ndarray) -> list[float]:
    """<psi|P_{j,j+1}|psi> = |P frame_j|^2 for every bond j = 1..N, each
    frame rotated straight from chain order: one rotation pass.  The
    projector is real (``spin_ops.bond_projector``), so each frame is hit
    by ``apply_real``."""
    weights = []
    for k in range(state.ndim):
        excited = apply_real(projector, rotate_sites(state, k).reshape(len(projector), -1))
        weights.append(float(np.vdot(excited, excited).real))
    return weights


def map_sites(ops, state: np.ndarray) -> np.ndarray:
    """The state with ``ops[i]`` (shape ``(d_out, d_in)``) applied to its
    i-th site axis, one operator per site; the result has shape
    ``(d_out,) * N``.  Each step is one matmul whose output holds its site
    last, so it also rotates the site order by one without a copy; after
    the last site the order is restored."""
    for op in ops:
        state = state.reshape(op.shape[1], -1).T @ op.T
    return state.reshape([len(op) for op in ops])


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for two unit-norm states of identical shape."""
    if a.shape != b.shape:
        raise ValueError("state shapes differ")
    return float(abs(np.vdot(a, b)) ** 2)


def partial_fidelity(state: np.ndarray, j: int, projector: np.ndarray) -> float:
    """Weight <psi|(1 - P_{j,j+1})|psi> in the bond's zero-eigenvalue sector.

    Real to numerical precision for a Hermitian projector; clamped to [0, 1].
    """
    val = 1.0 - np.vdot(state, apply_two_site(projector, j, state)).real
    return float(min(1.0, max(0.0, val)))


def born_sample(
    kraus, j: int, state: np.ndarray, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Sample one measurement outcome on bond ``j`` and collapse the state
    with the pair ``kraus.m0``, ``kraus.m1`` (``verify.measurement_kraus``).

    Outcome ``q`` is drawn with probability ||m_q psi||^2; the returned state
    is the renormalized post-measurement state.  Exactly one uniform variate
    is consumed per call.  This is the full-state oracle: jobs collapse
    through ``mite.TwoLevelBond.sample``, which the tests check against it.
    """
    psi0 = apply_two_site(kraus.m0, j, state)
    p0 = float(np.vdot(psi0, psi0).real)
    if rng.random() < p0:
        return 0, psi0 / np.sqrt(p0)
    psi1 = apply_two_site(kraus.m1, j, state)
    p1 = float(np.vdot(psi1, psi1).real)
    if p1 <= 0.0:
        raise RuntimeError("both measurement outcomes have zero weight; corrupt Kraus pair")
    return 1, psi1 / np.sqrt(p1)
