"""Variational recompilation of the five-qubit bond-measurement unitary.

The target is exp(-i epsilon P (x) sigma_y): the mapped 16x16 bond projector
coupled to one ancilla qubit (qubit 5, the fastest-varying axis).  Because
P is idempotent the exponential has the closed form

    1 + (cos eps - 1) (P (x) 1) - i sin eps (P (x) sigma_y),

which ``verify`` and the tests hold against scipy's ``expm`` as the
independent oracle.

The ansatz is a layered circuit on 5 qubits: an initial moment of one
three-angle single-qubit gate per qubit, then ``n_layers`` repetitions of a
CNOT moment (odd layers entangle qubit pairs (1,2), (3,4); even layers
(2,3), (4,5); control on the lower-numbered qubit) followed by another
five-gate moment.  Its angles, each in [0, 2 pi], are one flat vector of
3 * 5 * (n_layers + 1) entries, moment by moment, gate by gate; the
vector's length gives the depth, read by ``moment_angles``.
Optimization is box-constrained L-BFGS with analytic gradients, wrapped in
random-restart hops around the best point found: ``optimize_once`` is one
repetition, and returns what it found.  The scan over depths and
repetitions, its seeds, rows and per-depth summary belong to
``jobs.run_recompile`` alone.  ``lbfgsb`` drives scipy's
compiled L-BFGS-B core, loaded by file path, so no job imports the
``scipy.optimize`` package and its start-up cost.  ``verify`` holds the
ansatz's unitary, its fidelity and the operator-Schmidt-rank bound on it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .params import OptimizerConfig
from .spin_ops import bond_projector

N_QUBITS = 5
DIM = 2**N_QUBITS
PARAMS_PER_MOMENT = 3 * N_QUBITS
HOP_SIZE = 0.3  # amplitude of the uniform jitter a restart hop adds to every angle

_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def u3_and_derivatives(angles: np.ndarray) -> np.ndarray:
    """The three-angle gate u3(theta, phi, lambda) and its angle derivatives
    for every angle triple on the last axis of ``angles``: shape
    ``(..., 4, 2, 2)``, index 0 the gate and 1 + a its derivative in angle a.

        u3 = [[cos(theta/2), -e^{i lambda} sin(theta/2)],
              [e^{i phi} sin(theta/2), e^{i (phi + lambda)} cos(theta/2)]]

    Every entry is written from its real and imaginary parts, each one real
    product of e^{i phi}, e^{i lambda}, e^{i (phi + lambda)} or
    e^{i phi} e^{i lambda} (taken as numpy's scalar complex product,
    ``(ar br - ai bi, ar bi + ai br)``) with a cosine or sine of theta/2.
    So the entries have the bits of the scalar complex expressions, which
    a complex array product would not keep.
    """
    angles = np.asarray(angles, dtype=float)
    theta, phi, lam = (angles[..., k] for k in range(3))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    ep, el, epl = np.exp(1j * phi), np.exp(1j * lam), np.exp(1j * (phi + lam))
    er, ei, lr, li = ep.real, ep.imag, el.real, el.imag
    pr, pi = er * lr - ei * li, er * li + ei * lr  # e^{i phi} e^{i lambda}
    out = np.zeros(theta.shape + (4, 2, 2), dtype=complex)
    re, im = out.real, out.imag
    re[..., 0, 0, 0] = c
    re[..., 0, 0, 1], im[..., 0, 0, 1] = -(lr * s), -(li * s)
    re[..., 0, 1, 0], im[..., 0, 1, 0] = er * s, ei * s
    re[..., 0, 1, 1], im[..., 0, 1, 1] = epl.real * c, epl.imag * c
    # d/d theta = [[-s, -e^{i lambda} c], [e^{i phi} c, -e^{i phi} e^{i lambda} s]] / 2
    re[..., 1, 0, 0] = 0.5 * -s
    re[..., 1, 0, 1], im[..., 1, 0, 1] = 0.5 * -(lr * c), 0.5 * -(li * c)
    re[..., 1, 1, 0], im[..., 1, 1, 0] = 0.5 * (er * c), 0.5 * (ei * c)
    re[..., 1, 1, 1], im[..., 1, 1, 1] = 0.5 * -(pr * s), 0.5 * -(pi * s)
    # d/d phi = [[0, 0], [i e^{i phi} s, i e^{i phi} e^{i lambda} c]]
    re[..., 2, 1, 0], im[..., 2, 1, 0] = -(ei * s), er * s
    re[..., 2, 1, 1], im[..., 2, 1, 1] = -(pi * c), pr * c
    # d/d lambda = [[0, -i e^{i lambda} s], [0, i e^{i phi} e^{i lambda} c]]
    re[..., 3, 0, 1], im[..., 3, 0, 1] = li * s, -(lr * s)
    re[..., 3, 1, 1], im[..., 3, 1, 1] = -(pi * c), pr * c
    return out


_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def cnot_moment(parity: str) -> np.ndarray:
    """CNOT layer on odd bonds (1,2),(3,4) or even bonds (2,3),(4,5)."""
    eye = np.eye(2)
    if parity == "odd":
        return np.kron(np.kron(_CX, _CX), eye)
    if parity == "even":
        return np.kron(eye, np.kron(_CX, _CX))
    raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")


def cnot_gather(parity: str) -> np.ndarray:
    """Index table ``g`` of the permutation ``m = cnot_moment(parity)``:
    ``m @ x`` is ``x[g]`` and ``x @ m`` is ``x.take(g, axis=1)``, with the
    bits of the matrix products (each sum has one term times 1).  One table
    serves both sides because ``m``, a kron of CX and identities, is
    symmetric."""
    return cnot_moment(parity).real.argmax(axis=1)


_CNOT_GATHERS = (cnot_gather("even"), cnot_gather("odd"))  # indexed by layer % 2


def n_params(n_layers: int) -> int:
    return PARAMS_PER_MOMENT * (n_layers + 1)


def moment_angles(params: np.ndarray) -> np.ndarray:
    """The flat angle vector as ``(n_layers + 1, N_QUBITS, 3)``, one row per
    gate moment; a length that is not a positive multiple of 15 raises
    ``ValueError``."""
    if len(params) == 0:
        raise ValueError("an angle vector holds at least one gate moment")
    return params.reshape(-1, N_QUBITS, 3)


def _kron_gates(gates: np.ndarray) -> np.ndarray:
    """Kron each row of a ``(B, k, 2, 2)`` gate stack into a ``(B, 2^k, 2^k)``
    moment, the first gate slowest, factor by factor from the left.  Each
    step writes four strided products ``out * g_f[k, l]`` into rows k::2
    and columns l::2, the products and operand order of ``np.kron``, so the
    entries are bit-identical to ``np.kron(np.kron(g0, g1), ...)`` per row."""
    out = gates[:, 0]
    for f in range(1, gates.shape[1]):
        step = np.empty((len(out), 2 * out.shape[1], 2 * out.shape[2]), dtype=complex)
        for k in range(2):
            for l in range(2):
                np.multiply(out, gates[:, f, k, l, None, None], out=step[:, k::2, l::2])
        out = step
    return out


# which u3_and_derivatives slot each gate of a moment's 16 kron rows reads:
# row 0 the gates (slot 0), row 1 + 3 q + a gate q's derivative in angle a
_SLOTS = np.vstack([np.zeros(N_QUBITS, dtype=int),
                    np.kron(np.eye(N_QUBITS, dtype=int), np.arange(1, 4)[:, None])])


def _forward(moments: np.ndarray) -> tuple[list, np.ndarray]:
    """Apply gate moment 0, then a CNOT moment and gate moment ``moments[b]``
    per layer b.  Returns ``before``, where ``before[b]`` is the product of
    everything applied before gate moment b (``None``, the identity, for
    b = 0), and the circuit's unitary."""
    before = [None]
    acc = moments[0]
    for layer in range(1, len(moments)):
        acc = acc[_CNOT_GATHERS[layer % 2]]
        before.append(acc)
        acc = moments[layer] @ acc
    return before, acc


def target_unitary(epsilon: float) -> np.ndarray:
    """exp(-i epsilon P (x) sigma_y) on 4 system qubits + 1 ancilla."""
    proj = bond_projector("qubit")
    eye = np.eye(DIM)
    return (
        eye
        + (np.cos(epsilon) - 1) * np.kron(proj, np.eye(2))
        - 1j * np.sin(epsilon) * np.kron(proj, _SIGMA_Y)
    )


def loss_and_grad(params: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss 1 - |Tr(V'U)|/d and its analytic gradient, at the flat angle
    vector ``params`` of any depth.

    The gradient differentiates one gate moment at a time against cached
    products of the moments before and after it; CNOT moments enter those
    products as row or column gathers, and identity factors are skipped.
    Every gate moment and its 15 derivative moments (gate q replaced by
    d u3 / d angle a) are built in one batched kron, and each angle is one
    ``np.vdot`` of its derivative moment with its moment's core.
    Cross-checked against central finite differences, and bit for bit
    against a per-angle ``np.kron`` oracle, in the test suite.
    """
    angles = moment_angles(params)
    n_layers = len(angles) - 1
    rows = u3_and_derivatives(angles)[:, np.arange(N_QUBITS), _SLOTS]
    all_moments = _kron_gates(rows.reshape(-1, N_QUBITS, 2, 2))
    all_moments = all_moments.reshape(rows.shape[:2] + all_moments.shape[1:])
    moments = all_moments[:, 0]
    before, v = _forward(moments)

    t = np.vdot(v, target)
    mag = abs(t)
    loss = 1.0 - mag / DIM
    if mag < 1e-15:
        return loss, np.zeros_like(params)

    # after[b]: the product of everything applied after gate moment b
    after = [None] * (n_layers + 1)
    acc = moments[n_layers]
    for layer in range(n_layers, 0, -1):
        acc = acc.take(_CNOT_GATHERS[layer % 2], axis=1)
        after[layer - 1] = acc
        if layer > 1:
            acc = acc @ moments[layer - 1]

    dt = np.empty(len(params), dtype=complex)
    for block in range(n_layers + 1):
        core = target
        if after[block] is not None:
            core = after[block].conj().T @ core
        if before[block] is not None:
            core = core @ before[block].conj().T
        for k, dmoment in enumerate(all_moments[block, 1:], start=block * PARAMS_PER_MOMENT):
            dt[k] = np.vdot(dmoment, core)
    # -Re(conj(t) dt) / (|t| d), with numpy's scalar complex product
    tc = t.conjugate()
    return loss, -(tc.real * dt.real - tc.imag * dt.imag) / (mag * DIM)


@dataclass(frozen=True)
class RepetitionResult:
    """What one repetition found; ``jobs.run_recompile`` places it in the scan."""

    fidelity: float
    hops_used: int
    iterations: int
    failed: bool = False


def _lbfgsb_core():
    """scipy's compiled L-BFGS-B module, loaded once by file path under its
    own name, so that the ``scipy.optimize`` package is never imported."""
    name = "scipy.optimize._lbfgsb"
    if name not in sys.modules:
        import importlib.machinery
        import importlib.util
        from pathlib import Path

        folder = Path(importlib.util.find_spec("scipy").submodule_search_locations[0], "optimize")
        path = next(p for s in importlib.machinery.EXTENSION_SUFFIXES
                    if (p := folder / f"_lbfgsb{s}").exists())
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def lbfgsb(x0: np.ndarray, target: np.ndarray, maxiter: int):
    """Minimize ``loss_and_grad`` over the box [0, 2 pi] from ``x0`` and
    return (x, f, nit).  This is the loop of scipy's
    ``minimize(method="L-BFGS-B")`` at its defaults (m = 10, ftol, gtol =
    1e-5, maxls = 20, maxfun = 15000) and ``maxiter``, on the same compiled
    core, so every iterate has scipy's bits.  scipy's wrapper would reuse
    its last evaluation at an x that did not move; the tests hold the
    evaluation points equal to scipy's.  A core that refuses the call
    raises a ``RuntimeError`` naming the installed scipy."""
    setulb, m, n = _lbfgsb_core().setulb, 10, len(x0)
    factr = 2.2204460492503131e-09 / np.finfo(float).eps  # scipy's default ftol
    low, up = np.zeros(n), np.full(n, 2 * np.pi)
    x, nbd = np.clip(x0, low, up), np.full(n, 2, np.int32)
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa, task, ln_task = np.zeros(3 * n, np.int32), np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    nit = nfev = 0
    while True:
        g = g.astype(np.float64)
        try:
            setulb(m, x, low, up, nbd, f, g, factr, 1e-5, wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        except TypeError as exc:  # a core whose signature is not the one this loop drives
            from importlib.metadata import version
            raise RuntimeError(f"scipy {version('scipy')}'s L-BFGS-B core does not take the "
                               f"arguments of the scipy >= 1.15 core this driver calls: {exc}") from exc
        if task[0] == 3:  # evaluate f and g at x
            f, g = loss_and_grad(x.copy(), target)
            nfev += 1
        elif task[0] == 1:  # new iterate
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > 15000:
                task[:] = 5, 502
        else:
            return x, f, nit


def optimize_once(
    target: np.ndarray, n_layers: int, rng: np.random.Generator, cfg: OptimizerConfig
) -> RepetitionResult:
    """One repetition: ``cfg.n_hops + 1`` local optimizations, the first
    from a uniform random start, each later one (a hop) from the best
    parameters so far jittered by uniform noise of amplitude ``HOP_SIZE``
    and clipped to the box.  A non-finite loss, from the first run or any
    hop, aborts the repetition, which is recorded as failed.
    """
    npar = n_params(n_layers)
    iterations = 0
    best_x, best_f = None, np.inf
    for hop in range(cfg.n_hops + 1):
        if hop == 0:
            x0 = rng.uniform(0.0, 2 * np.pi, npar)
        else:
            x0 = np.clip(best_x + rng.uniform(-HOP_SIZE, HOP_SIZE, npar), 0.0, 2 * np.pi)
        x, f, nit = lbfgsb(x0, target, cfg.maxiter)
        iterations += nit
        if not np.isfinite(f):
            return RepetitionResult(float("nan"), hop, iterations, failed=True)
        if f < best_f:
            best_x, best_f = x, f
    return RepetitionResult(1.0 - float(best_f), cfg.n_hops, iterations)


def cnot_count(n_layers: int) -> int:
    """Two CNOTs per layer by construction."""
    return 2 * n_layers
