"""Variational recompilation of the five-qubit bond-measurement unitary.

The target is exp(-i epsilon P (x) sigma_y): the mapped 16x16 bond projector
coupled to one ancilla qubit (qubit 5, the fastest-varying axis).  Because
P is idempotent the exponential has the closed form

    1 + (cos eps - 1) (P (x) 1) - i sin eps (P (x) sigma_y),

which doubles as the independent oracle check against scipy's expm.

The ansatz is a layered circuit on 5 qubits: an initial moment of one
three-angle single-qubit gate per qubit, then ``n_layers`` repetitions of a
CNOT moment (odd layers entangle qubit pairs (1,2), (3,4); even layers
(2,3), (4,5); control on the lower-numbered qubit) followed by another
five-gate moment.  Parameters: 3 * 5 * (n_layers + 1) angles in [0, 2 pi].
Optimization is box-constrained L-BFGS with analytic gradients, wrapped in
random-restart hops around the best point found.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .spin_ops import bond_projector

N_QUBITS = 5
DIM = 2**N_QUBITS
GATES_PER_MOMENT = N_QUBITS
PARAMS_PER_MOMENT = 3 * GATES_PER_MOMENT

_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """Three-angle single-qubit gate, standard parameterization."""
    ct, st = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [ct, -np.exp(1j * lam) * st],
            [np.exp(1j * phi) * st, np.exp(1j * (phi + lam)) * ct],
        ]
    )


def _du3(theta: float, phi: float, lam: float, which: int) -> np.ndarray:
    """Derivative of :func:`u3` with respect to angle ``which`` (0, 1, 2)."""
    ct, st = np.cos(theta / 2), np.sin(theta / 2)
    ep, el = np.exp(1j * phi), np.exp(1j * lam)
    if which == 0:
        return 0.5 * np.array([[-st, -el * ct], [ep * ct, -ep * el * st]])
    if which == 1:
        return np.array([[0, 0], [1j * ep * st, 1j * ep * el * ct]])
    return np.array([[0, -1j * el * st], [0, 1j * ep * el * ct]])


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


def _gate_moment(block: np.ndarray) -> np.ndarray:
    """Kron together five single-qubit gates, qubit 1 slowest."""
    out = block[0]
    for g in block[1:]:
        out = np.kron(out, g)
    return out


def _moments(circ: ParamCircuit) -> list[np.ndarray]:
    """Circuit moments in application order (first applied first)."""
    p = circ.params.reshape(-1, GATES_PER_MOMENT, 3)
    moments = [_gate_moment([u3(*angles) for angles in p[0]])]
    for layer in range(1, circ.n_layers + 1):
        moments.append(cnot_moment("odd" if layer % 2 == 1 else "even"))
        moments.append(_gate_moment([u3(*angles) for angles in p[layer]]))
    return moments


def circuit_unitary(circ: ParamCircuit) -> np.ndarray:
    """Evaluate the ansatz to its 32x32 unitary."""
    out = np.eye(DIM, dtype=complex)
    for m in _moments(circ):
        out = m @ out
    return out


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
    prefix/suffix products; cross-checked against central finite differences
    in the test suite.
    """
    circ = ParamCircuit(n_layers, params)
    moments = _moments(circ)
    n_mom = len(moments)

    suffix = [np.eye(DIM, dtype=complex)]  # suffix[i] = M_{i-1} ... M_0
    for m in moments:
        suffix.append(m @ suffix[-1])
    v = suffix[-1]
    prefix = [np.eye(DIM, dtype=complex)] * n_mom  # prefix[i] = M_{T-1} ... M_{i+1}
    acc = np.eye(DIM, dtype=complex)
    for i in range(n_mom - 1, -1, -1):
        prefix[i] = acc
        acc = acc @ moments[i]

    t = np.vdot(v, target)
    mag = abs(t)
    loss = 1.0 - mag / DIM
    grad = np.zeros_like(params)
    if mag < 1e-15:
        return loss, grad

    p = params.reshape(-1, GATES_PER_MOMENT, 3)
    for block in range(n_layers + 1):
        mom_idx = 2 * block  # gate moments sit at even positions
        core = prefix[mom_idx].conj().T @ target @ suffix[mom_idx].conj().T
        gates = [u3(*angles) for angles in p[block]]
        for q in range(GATES_PER_MOMENT):
            for a in range(3):
                dgates = list(gates)
                dgates[q] = _du3(*p[block, q], a)
                dt = np.vdot(_gate_moment(dgates), core)
                grad[block * PARAMS_PER_MOMENT + 3 * q + a] = (
                    -(t.conjugate() * dt).real / (mag * DIM)
                )
    return loss, grad


@dataclass
class OptimizerConfig:
    """Knobs for one recompilation run."""

    maxiter: int = 100
    n_hops: int = 5
    hop_size: float = 0.3
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
    params: np.ndarray | None = None


def optimize_once(
    target: np.ndarray, n_layers: int, rng: np.random.Generator, cfg: OptimizerConfig
) -> RepetitionResult:
    """One repetition: random start, local optimization, then hop restarts.

    Each hop jitters the best parameters by uniform noise of amplitude
    ``hop_size`` (clipped to the box) and re-runs the local optimizer.
    Non-finite losses abort the repetition, which is recorded as failed.
    """
    npar = n_params(n_layers)
    bounds = [(0.0, 2 * np.pi)] * npar
    iterations = 0

    def local(x0):
        nonlocal iterations
        res = minimize(
            loss_and_grad,
            x0,
            args=(n_layers, target),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": cfg.maxiter},
        )
        iterations += res.nit
        return res

    best = local(rng.uniform(0.0, 2 * np.pi, npar))
    hops_used = 0
    for _ in range(cfg.n_hops):
        jitter = rng.uniform(-cfg.hop_size, cfg.hop_size, npar)
        res = local(np.clip(best.x + jitter, 0.0, 2 * np.pi))
        hops_used += 1
        if not np.isfinite(res.fun):
            return RepetitionResult(n_layers, -1, float("nan"), hops_used, iterations, failed=True)
        if res.fun < best.fun:
            best = res
    return RepetitionResult(
        n_layers, -1, 1.0 - float(best.fun), hops_used, iterations, params=best.x
    )


def cnot_count(n_layers: int) -> int:
    """Two CNOTs per layer by construction."""
    return 2 * n_layers


@dataclass
class RecompileReport:
    """Per-repetition results plus per-depth aggregates."""

    epsilon: float
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
    report = RecompileReport(epsilon=epsilon)
    for nl in layer_counts:
        for rep in range(cfg.repetitions):
            rng = np.random.default_rng(cfg.seed + rep)
            entry = optimize_once(target, nl, rng, cfg)
            entry.repetition = rep
            report.entries.append(entry)
    return report
