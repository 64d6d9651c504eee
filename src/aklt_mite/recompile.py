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
five-gate moment.  Parameters: 3 * 5 * (n_layers + 1) angles in [0, 2 pi].
Optimization is box-constrained L-BFGS with analytic gradients, wrapped in
random-restart hops around the best point found.  ``lbfgsb`` drives scipy's
compiled L-BFGS-B core, loaded by file path, so no job imports the
``scipy.optimize`` package and its start-up cost.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .spin_ops import bond_projector

N_QUBITS = 5
DIM = 2**N_QUBITS
GATES_PER_MOMENT = N_QUBITS
PARAMS_PER_MOMENT = 3 * GATES_PER_MOMENT
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


def cnot_gathers(parity: str) -> tuple[np.ndarray, np.ndarray]:
    """Index tables ``rows, cols`` of the permutation ``m = cnot_moment(parity)``:
    ``m @ x`` is ``x[rows]`` and ``x @ m`` is ``x.take(cols, axis=1)``, with
    the bits of the matrix products (each sum has one term times 1)."""
    m = cnot_moment(parity).real
    return m.argmax(axis=1), m.argmax(axis=0)


_CNOT_GATHERS = (cnot_gathers("even"), cnot_gathers("odd"))  # indexed by layer % 2


def n_params(n_layers: int) -> int:
    return PARAMS_PER_MOMENT * (n_layers + 1)


@dataclass(frozen=True)
class ParamCircuit:
    """Layered ansatz: ``n_layers`` CNOT+gate layers after an initial moment."""

    n_layers: int
    params: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "params", np.asarray(self.params, dtype=float))
        if self.params.shape != (n_params(self.n_layers),):
            raise ValueError(
                f"expected {n_params(self.n_layers)} parameters for "
                f"{self.n_layers} layers, got {self.params.size}"
            )


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


def _factor_rows(gd: np.ndarray) -> np.ndarray:
    """The kron factors of every gate moment and its 15 derivative moments,
    shape ``(n_layers + 1, 16, 5, 2, 2)``, from ``u3_and_derivatives`` of the
    angles: row 0 holds the moment's gates, row 1 + 3 q + a the same gates
    with gate q replaced by its derivative in angle a."""
    q = np.repeat(np.arange(GATES_PER_MOMENT), 3)
    a = np.tile(np.arange(1, 4), GATES_PER_MOMENT)
    rows = np.repeat(gd[:, None, :, 0], 1 + PARAMS_PER_MOMENT, axis=1)
    rows[:, 1 + np.arange(PARAMS_PER_MOMENT), q] = gd[:, q, a]
    return rows


def _forward(moments: np.ndarray) -> tuple[list, np.ndarray]:
    """Apply gate moment 0, then a CNOT moment and gate moment ``moments[b]``
    per layer b.  Returns ``before``, where ``before[b]`` is the product of
    everything applied before gate moment b (``None``, the identity, for
    b = 0), and the circuit's unitary."""
    before = [None]
    acc = moments[0]
    for layer in range(1, len(moments)):
        acc = acc[_CNOT_GATHERS[layer % 2][0]]
        before.append(acc)
        acc = moments[layer] @ acc
    return before, acc


def circuit_unitary(circ: ParamCircuit) -> np.ndarray:
    """Evaluate the ansatz to its 32x32 unitary."""
    gates = u3_and_derivatives(circ.params.reshape(-1, GATES_PER_MOMENT, 3))[:, :, 0]
    return _forward(_kron_gates(gates))[1]


def unitary_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Normalized trace overlap |Tr(V' U)| / d, global-phase invariant."""
    if u.shape != v.shape:
        raise ValueError("operator shapes differ")
    return float(abs(np.vdot(v, u)) / u.shape[0])


def target_unitary(epsilon: float) -> np.ndarray:
    """exp(-i epsilon P (x) sigma_y) on 4 system qubits + 1 ancilla."""
    proj = bond_projector("qubit")
    eye = np.eye(DIM)
    return (
        eye
        + (np.cos(epsilon) - 1) * np.kron(proj, np.eye(2))
        - 1j * np.sin(epsilon) * np.kron(proj, _SIGMA_Y)
    )


def loss_and_grad(
    params: np.ndarray, n_layers: int, target: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss 1 - |Tr(V'U)|/d and its analytic gradient.

    The gradient differentiates one gate moment at a time against cached
    products of the moments before and after it; CNOT moments enter those
    products as row or column gathers, and identity factors are skipped.
    Every gate moment and its 15 derivative moments (gate q replaced by
    d u3 / d angle a) are built in one batched kron, and each angle is one
    ``np.vdot`` of its derivative moment with its moment's core.
    Cross-checked against central finite differences, and bit for bit
    against a per-angle ``np.kron`` oracle, in the test suite.
    """
    params = ParamCircuit(n_layers, params).params
    rows = _factor_rows(u3_and_derivatives(params.reshape(-1, GATES_PER_MOMENT, 3)))
    all_moments = _kron_gates(rows.reshape(-1, GATES_PER_MOMENT, 2, 2))
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
        acc = acc.take(_CNOT_GATHERS[layer % 2][1], axis=1)
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


def schmidt_fidelity_bound(target: np.ndarray, n_layers: int) -> float:
    """Upper bound on ``unitary_fidelity(circuit_unitary(c), target)`` over
    every depth-``n_layers`` ansatz ``c``, from operator Schmidt ranks.

    Across the cut between qubits k and k+1 only the CNOTs on that pair
    cross: odd layers cross cuts 1|2 and 3|4, even layers 2|3 and 4|5.  A
    CNOT has operator Schmidt rank 2 and single-qubit gates rank 1, so the
    ansatz V has rank at most r = 2^(layers crossing the cut).  With
    ``target`` U reshaped across the cut and s_i its singular values,
    Cauchy-Schwarz against the best rank-r approximation gives
    |Tr(V'U)| <= ||V||_F sqrt(sum_{i<=r} s_i^2), and ||V||_F = sqrt(d) for
    a unitary V, so the fidelity is at most sqrt(sum_{i<=r} s_i^2 / d) on
    every cut.  The bound is the minimum over the four cuts.
    """
    if n_layers < 0:
        raise ValueError("n_layers must be nonnegative")
    tensor = target.reshape((2,) * (2 * N_QUBITS))  # row qubits, then column qubits
    bound = math.inf
    for cut in range(1, N_QUBITS):
        left = [*range(cut), *range(N_QUBITS, N_QUBITS + cut)]
        right = [*range(cut, N_QUBITS), *range(N_QUBITS + cut, 2 * N_QUBITS)]
        matrix = tensor.transpose(left + right).reshape(4**cut, -1)
        weights = np.linalg.svd(matrix, compute_uv=False) ** 2 / DIM
        rank = 2 ** ((n_layers + cut % 2) // 2)  # odd cuts cross on odd layers
        bound = min(bound, math.sqrt(weights[:rank].sum()))
    return bound


@dataclass
class OptimizerConfig:
    """Knobs for one recompilation run."""

    maxiter: int = 100
    n_hops: int = 5
    repetitions: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.maxiter < 1:
            raise ValueError("maxiter must be at least 1")
        if self.n_hops < 0:
            raise ValueError("n_hops must be nonnegative")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class RepetitionResult:
    n_layers: int
    repetition: int
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


def lbfgsb(x0: np.ndarray, n_layers: int, target: np.ndarray, maxiter: int):
    """Minimize ``loss_and_grad`` over the box [0, 2 pi] from ``x0`` and
    return (x, f, nit).  This is the loop of scipy's
    ``minimize(method="L-BFGS-B")`` at its defaults (m = 10, ftol, gtol =
    1e-5, maxls = 20, maxfun = 15000) and ``maxiter``, on the same compiled
    core, so every iterate has scipy's bits.  scipy's wrapper would reuse
    its last evaluation at an x that did not move; the tests hold the
    evaluation points equal to scipy's."""
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
        setulb(m, x, low, up, nbd, f, g, factr, 1e-5, wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # evaluate f and g at x
            f, g = loss_and_grad(x.copy(), n_layers, target)
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
    """One repetition: random start, local optimization, then hop restarts.

    Each hop jitters the best parameters by uniform noise of amplitude
    ``HOP_SIZE`` (clipped to the box) and re-runs the local optimizer.
    A non-finite loss, from the first run or any hop, aborts the repetition,
    which is recorded as failed.
    """
    npar = n_params(n_layers)
    iterations = 0

    def local(x0):
        nonlocal iterations
        x, f, nit = lbfgsb(x0, n_layers, target, cfg.maxiter)
        iterations += nit
        return x, f

    def failed(hops_used):
        return RepetitionResult(n_layers, -1, float("nan"), hops_used, iterations, failed=True)

    best_x, best_f = local(rng.uniform(0.0, 2 * np.pi, npar))
    if not np.isfinite(best_f):
        return failed(0)
    hops_used = 0
    for _ in range(cfg.n_hops):
        jitter = rng.uniform(-HOP_SIZE, HOP_SIZE, npar)
        x, f = local(np.clip(best_x + jitter, 0.0, 2 * np.pi))
        hops_used += 1
        if not np.isfinite(f):
            return failed(hops_used)
        if f < best_f:
            best_x, best_f = x, f
    return RepetitionResult(n_layers, -1, 1.0 - float(best_f), hops_used, iterations)


def cnot_count(n_layers: int) -> int:
    """Two CNOTs per layer by construction."""
    return 2 * n_layers


@dataclass
class RecompileReport:
    """Per-repetition results plus per-depth aggregates."""

    entries: list[RepetitionResult] = field(default_factory=list)

    def summary(self) -> dict:
        out = {}
        depths = sorted({e.n_layers for e in self.entries})
        for nl in depths:
            fids = [e.fidelity for e in self.entries if e.n_layers == nl and not e.failed]
            out[nl] = {
                "mean_fidelity": float(np.mean(fids)) if fids else float("nan"),
                "std_fidelity": float(np.std(fids)) if fids else float("nan"),
                "max_fidelity": float(np.max(fids)) if fids else float("nan"),
                "cnot_count": cnot_count(nl),
                "failures": sum(1 for e in self.entries if e.n_layers == nl and e.failed),
            }
        return out


def recompile_scan(
    epsilon: float, layer_counts: list[int], cfg: OptimizerConfig
) -> RecompileReport:
    """Optimize the ansatz at every depth in ``layer_counts``.

    Repetition seeds are ``cfg.seed + index`` within each depth, so scans
    are reproducible and individual repetitions can be re-run in isolation.
    """
    target = target_unitary(epsilon)
    report = RecompileReport()
    for nl in layer_counts:
        for rep in range(cfg.repetitions):
            rng = np.random.default_rng(cfg.seed + rep)
            entry = optimize_once(target, nl, rng, cfg)
            entry.repetition = rep
            report.entries.append(entry)
    return report
