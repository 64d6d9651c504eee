"""Run parameters of the jobs and their checks, on the standard library
alone, so that the command line checks a configuration before numpy loads."""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_ETA = {"spin1": 4.0, "qubit": 2.0}
COUNTER_CAP = 256  # bond counters rescale above this; fire_window may be at most a quarter of it

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
class MiteConfig:
    """Run parameters for trajectory preparation.

    ``eta = None`` resolves to the mode default (4 for spin1, 2 for qubit).
    ``early_stop`` ends a trajectory once the total fidelity exceeds
    ``1 - early_stop``; set it to ``None`` to run all ``r_max`` rounds.
    """

    epsilon: float = 0.5
    eta: float | None = None
    n_iter: int = 30
    r_max: int = 100
    window: int = 10
    fire_window: int = 10
    noise_axis: str | None = None
    noise_sigma2: float = 0.0
    seed: int = 0
    early_stop: float | None = 1e-6

    def __post_init__(self):
        # written so that NaN fails them: NaN compares false with everything
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.eta is not None and not 0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")
        if not 1 <= self.window <= self.n_iter:
            raise ValueError("need n_iter >= window >= 1")
        if not 1 <= self.fire_window <= COUNTER_CAP // 4:
            raise ValueError(f"need 1 <= fire_window <= {COUNTER_CAP // 4}")
        if self.r_max < 0:
            raise ValueError("r_max must be nonnegative")
        if self.noise_axis not in (None, "x", "z"):
            raise ValueError("noise axis must be 'x' or 'z'")
        if not 0 <= self.noise_sigma2 < math.inf:
            raise ValueError("noise variance parameter must be nonnegative and finite")
        if self.noise_axis is None and self.noise_sigma2 > 0:
            raise ValueError("noise_sigma2 > 0 needs a noise_axis")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.early_stop is not None and not 0 <= self.early_stop < 1:
            raise ValueError("early_stop must be None or in [0, 1)")

    def e_th(self, mode: str) -> float:
        """Threshold energy epsilon/eta; must sit below the 1/2 midpoint
        between the two bond-energy levels."""
        e_th = self.epsilon / (DEFAULT_ETA[mode] if self.eta is None else self.eta)
        if e_th >= 0.5:
            raise ValueError(f"e_th = {e_th} not below the level midpoint 1/2")
        return e_th


@dataclass(frozen=True)
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
