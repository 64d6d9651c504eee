"""Weak-measurement trajectory dynamics with adaptive corrective feedback.

One subroutine acts on a single bond: it repeatedly applies a two-outcome
weak measurement built from the bond projector, tracks the outcome counts
(k0, k1) since the last correction, and estimates the bond energy the
record points at,

    e_peak = arcsin((k1 - k0) / (k0 + k1)) / (2 epsilon).

The subroutine declares convergence after ``window`` consecutive estimates
below the threshold e_th = epsilon / eta.  A correction (random two-site
rotation) fires when the estimate crosses the threshold AND the crossing
is backed by ``fire_window`` consecutive q = 1 outcomes.  Both halves of
the trigger matter:

* The run requirement keeps the loop from chasing shot noise.  A lone
  q = 1 right after a counter reset already estimates e_peak = pi/2, so
  firing on the first crossing produces correction chains that keep any
  chain from locking (measured: mean fidelity 0.4-0.65 at 100 rounds).
  At an excited bond, runs of ``fire_window`` excited outcomes appear
  within a couple of attempts (p1 ~ 0.92 at eps = 0.5); at a converged
  bond they cost 2^-fire_window per fresh stretch.
* The threshold requirement silences the residual noise trigger once a
  bond has accumulated history: a run of 12 on top of 500 balanced counts
  barely moves the estimate, so converged bonds are left alone for good,
  where the run alone would still re-kick them roughly once per thousand
  measurements and leave a fraction of long trajectories caught
  mid-repair.

Two bookkeeping rules keep the threshold half responsive.  Counters are
rescaled (both counts halved) above ``COUNTER_CAP`` accumulated outcomes,
bounding how much history a fresh excitation must outvote.  And a
correction resets the counters of the two bonds sharing a site with it:
their evidence describes a state that no longer exists, and fresh counters
let real damage fire within tens of measurements instead of drifting
through hundreds of stale counts.

Counters persist across sweep rounds otherwise.  The iteration cap
``n_iter`` bounds each unconverged stretch between corrections, so a
subroutine visit resolves its bond (kick, re-collapse, re-check) instead
of carrying half-finished repairs into the next round.

A sweep round runs the subroutine over all odd bonds, then all even bonds
(``sweep_order``).

Layout.  A round is one ``statevec.walk_bonds`` over ``sweep_order``, so
each visit works on its bond's *frame* (the rotating site layout), as does
the projection cascade.  Noise and the qubit symmetric weight are
``statevec.map_sites`` chains; ``bond_partials`` reads every bond's partial
fidelity from ``statevec.bond_weights``.

Between corrections a visit never leaves the plane span{P psi, (1 - P) psi}
of its bond: both measurement operators are (1 + (g_q - 1) P) / sqrt(2).
``two_level_sample`` therefore samples and collapses on the excited weight
w = <psi|P|psi> alone, and the frame is built only before a correction
and at the end of the visit.  This bond kernel is the one part of the loop
a caller can swap: ``prepare`` takes a ``kernel`` (default
``TwoLevelBond``) and hands it through ``sweep_round`` to every
``mite_subroutine`` visit, and ``verify`` runs the same loop with a
full-state kernel that collapses the frame with the matrix Kraus pair.
A kernel provides ``open(frame, j, projector)``, which returns a
bond with ``sample(gains, rng) -> q``, ``kick(u)`` (apply the correction
``u`` and return the bond of the new stretch), ``state()`` (the frame) and
the excited weight ``w`` (read by ``verify.RecordingKernel``).

RNG discipline (one trajectory = one ``numpy`` Generator): each round
first draws the per-site noise angles as one ``standard_normal(N)`` (sites
1..N, only when noise is active), then per measurement one uniform
variate, and per correction one ``random(6)`` (three per site, x/y/z
order, lower-numbered site first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import qubit_map
from .spin_ops import (
    AkltReference,
    SpinMatrices,
    _fix_phase,
    aklt_state,
    bond_projector,
    check_chain_size,
    site_matrices,
    spin1_matrices,
)
from .statevec import (
    KrausPair,
    StateVector,
    bond_weights,
    fidelity,
    map_sites,
    product_state,
    walk_bonds,
)

SQRT2 = math.sqrt(2.0)
_IDEMPOTENT_TOL = 1e-10
_BUILT_NORM_TOL = 1e-10
_WEIGHT_TOL = 1e-12
_SYM_WEIGHT_TOL = 1e-9
DEFAULT_ETA = {"spin1": 4.0, "qubit": 2.0}
COUNTER_CAP = 256  # bond counters rescale above this; fire_window may be at most a quarter of it


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


@dataclass
class MeasurementCounter:
    """Per-bond outcome record since the last correction.

    ``run1`` is the current streak of consecutive q = 1 outcomes (it resets
    on any q = 0 and on corrections; k0, k1 reset on corrections only).
    """

    k0: int = 0
    k1: int = 0
    run1: int = 0

    @property
    def total(self) -> int:
        return self.k0 + self.k1

    def record(self, q: int):
        if q == 0:
            self.k0 += 1
            self.run1 = 0
        else:
            self.k1 += 1
            self.run1 += 1

    def rescale(self):
        """Halve both counts (ratio-preserving forgetting at the cap)."""
        self.k0 //= 2
        self.k1 //= 2

    def reset(self):
        self.k0 = 0
        self.k1 = 0
        self.run1 = 0


def measurement_kraus(epsilon: float, projector: np.ndarray) -> KrausPair:
    """Weak-measurement pair m_q = (1 + (cos eps - 1 - (-1)^q sin eps) P) / sqrt(2).

    Acts as 1/sqrt(2) on the projector's kernel and as
    (cos eps -+ sin eps)/sqrt(2) on its range; the 1/sqrt(2) prefactor makes
    the pair complete (m0'm0 + m1'm1 = 1) exactly.  The job path samples
    the same pair through ``two_level_sample``; this matrix form feeds the
    full-state oracle.
    """
    projector = np.asarray(projector, dtype=complex)
    defect = np.max(np.abs(projector @ projector - projector))
    if defect > _IDEMPOTENT_TOL:
        raise ValueError(f"projector is not idempotent (defect {defect:.3e})")
    eye = np.eye(projector.shape[0])
    c, s = math.cos(epsilon), math.sin(epsilon)
    m0 = (eye + (c - 1 - s) * projector) / SQRT2
    m1 = (eye + (c - 1 + s) * projector) / SQRT2
    return KrausPair(m0, m1)


def measurement_gains(epsilon: float) -> tuple[float, float]:
    """Range factors g_q = cos eps -+ sin eps of the pair m_q = (1 + (g_q - 1) P) / sqrt(2).

    g0^2 + g1^2 = 2, so the outcome probabilities (g_q^2 w + 1 - w) / 2
    sum to 1 for every excited weight w.
    """
    c, s = math.cos(epsilon), math.sin(epsilon)
    return c - s, c + s


@dataclass
class TwoLevelBond:
    """A bond visit's state between corrections, as two real amplitudes.

    The state is alpha P psi0 + beta (1 - P) psi0 for the frame psi0 the
    stretch started from, with ``excited`` = P psi0, and ``w`` is its
    excited weight <psi|P|psi>.  ``open`` and ``kick`` pay the stretch's
    one projector application; ``sample`` is ``two_level_sample``;
    ``state`` builds the frame back.
    """

    j: int
    base: np.ndarray
    excited: np.ndarray
    w: float
    projector: np.ndarray
    alpha: float = 1.0
    beta: float = 1.0

    @classmethod
    def open(cls, frame: np.ndarray, j: int, projector: np.ndarray) -> "TwoLevelBond":
        excited = projector @ frame
        bond = cls(j, frame, excited, float(np.vdot(excited, excited).real), projector)
        bond._check_weight()
        return bond

    def kick(self, u: np.ndarray) -> "TwoLevelBond":
        """The correction ``u`` on the built frame, opened as a new stretch."""
        return self.open(u @ self.state(), self.j, self.projector)

    def _check_weight(self):
        if not -_WEIGHT_TOL <= self.w <= 1.0 + _WEIGHT_TOL:
            raise RuntimeError(f"bond {self.j}: excited weight {self.w!r} outside [0, 1]")

    def sample(self, gains: tuple[float, float], rng: np.random.Generator) -> int:
        return two_level_sample(self, gains, rng)

    def state(self) -> np.ndarray:
        """alpha P psi0 + beta (1 - P) psi0, renormalized by its own norm.

        The norm before renormalizing is 1 up to rounding; a larger defect
        means the scalars drifted from the vectors and raises.
        """
        self._check_weight()
        amps = self.base - self.excited
        amps *= self.beta
        amps += self.alpha * self.excited
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > _BUILT_NORM_TOL:
            raise RuntimeError(f"bond {self.j}: built state has norm {nrm!r}, not 1")
        amps /= nrm
        return amps


def two_level_sample(
    bond: TwoLevelBond, gains: tuple[float, float], rng: np.random.Generator
) -> int:
    """Sample one weak measurement on ``bond`` and collapse it in place.

    Outcome q has probability p_q = (g_q^2 w + 1 - w) / 2; the collapse
    scales alpha by g_q / sqrt(2 p_q) and beta by 1 / sqrt(2 p_q), so the
    excited weight becomes g_q^2 w / (2 p_q).  Exactly one uniform variate
    is consumed per call, as in ``statevec.born_sample``.
    """
    w = bond.w
    g0, g1 = gains
    p0 = (g0 * g0 * w + 1.0 - w) / 2
    if rng.random() < p0:
        q, g, p = 0, g0, p0
    else:
        q, g, p = 1, g1, (g1 * g1 * w + 1.0 - w) / 2
    scale = 1.0 / math.sqrt(2 * p)
    bond.alpha *= g * scale
    bond.beta *= scale
    bond.w = g * g * w / (2 * p)
    return q


def peak_energy(k0: int, k1: int, epsilon: float) -> float:
    """Energy at which the accumulated measurement amplitude is peaked."""
    total = k0 + k1
    if total <= 0:
        raise ValueError("peak energy undefined for empty counts")
    return math.asin((k1 - k0) / total) / (2.0 * epsilon)


def site_rotations(vs, site: SpinMatrices) -> np.ndarray:
    """exp(i v.S) for each rotation vector v of the (k, 3) stack ``vs``, in
    closed form (one vector is a stack of one); returns the (k, d, d)
    stack of site matrices.

    For a unit vector n, n.S has spectrum in {-1, 0, 1} in both encodings
    (spin 1; triplet plus singlet of a qubit pair), so (n.S)^3 = n.S and

        exp(i t n.S) = 1 + i sin t (n.S) + (cos t - 1) (n.S)^2,  t = |v|.

    In terms of G = v.S the coefficients are sin t / t and
    (cos t - 1) / t^2 = -2 (sin(t/2) / t)^2, the latter free of
    cancellation at small t; v = 0 gives the identity exactly.  The
    coefficients come from ``math`` row by row (numpy's vectorised sin
    does not promise libm's bits), so every matrix is bit for bit the one
    the formula gives for its vector alone.
    """
    vs = np.asarray(vs, dtype=float).reshape(-1, 3)
    coef = []
    for vx, vy, vz in vs.tolist():
        t = math.hypot(vx, vy, vz)
        if t == 0.0:
            coef.append((0j, 0.0))
        else:
            half = math.sin(t / 2) / t
            coef.append((1j * math.sin(t) / t, 2 * half * half))
    lin, quad = np.array(coef).T[:, :, None, None]
    vx, vy, vz = vs.T[:, :, None, None]
    gen = vx * site.sx + vy * site.sy + vz * site.sz
    return np.eye(site.dim) + lin * gen - quad * (gen @ gen)


def correction_unitary(site: SpinMatrices, rng: np.random.Generator) -> np.ndarray:
    """Independent random spin rotations exp(2 pi i a.S) on the two sites of
    a bond.

    Six uniform [0, 1) draws: x/y/z components of ``a`` for the
    lower-numbered site, then for its neighbor.  The kron of the two site
    matrices is one broadcast product, the same single products as
    ``np.kron``.
    """
    left, right = site_rotations(2 * np.pi * rng.random(6).reshape(2, 3), site)
    d2 = site.dim * site.dim
    return (left[:, None, :, None] * right[None, :, None, :]).reshape(d2, d2)


def sweep_order(n: int) -> list[int]:
    """Bonds in the order one sweep visits them: all odd, then all even."""
    return list(range(1, n + 1, 2)) + list(range(2, n + 1, 2))


@dataclass(frozen=True)
class ChainOps:
    """Operators and reference state for one (n, mode) chain."""

    n: int
    mode: str
    projector: np.ndarray
    site: SpinMatrices
    reference: AkltReference

    def initial_state(self) -> StateVector:
        return product_state(self.n, self.site.dim)


def build_chain(n: int, mode: str) -> ChainOps:
    reference = aklt_state(n) if mode == "spin1" else qubit_map.reencoded_reference(n)
    return ChainOps(
        n=n,
        mode=mode,
        projector=bond_projector(mode),
        site=site_matrices(mode),
        reference=reference,
    )


@dataclass
class SubroutineStats:
    """Audit record of one subroutine invocation."""

    bond: int
    measurements: int = 0
    corrections: int = 0
    converged: bool = False
    e_peak_last: float = 0.0


def mite_subroutine(
    frame: np.ndarray,
    j: int,
    chain: ChainOps,
    config: MiteConfig,
    rng: np.random.Generator,
    counter: MeasurementCounter,
    kernel,
) -> tuple[np.ndarray, SubroutineStats]:
    """Run one measure-and-correct subroutine on bond ``j``'s ``frame``
    (see the module docstring); returns the frame after the visit.

    Measures until either ``window`` consecutive in-threshold estimates
    declare convergence or ``n_iter`` measurements pass without a
    correction.  A correction fires the moment the peak estimate sits at
    or above threshold while the counter's last ``fire_window`` outcomes
    are all q = 1; it resets the counter and the iteration budget, so one
    visit may fire several times (each backed by its own complete run)
    before it converges or gives up.

    Measurements run on ``kernel``: it opens the bond at the start of the
    visit, kicks it with each correction, and samples every outcome.  The
    two-level kernel pays one projector application per opening and per
    kick.  ``counter`` carries the bond's record across invocations.
    """
    e_th = config.e_th(chain.mode)
    gains = measurement_gains(config.epsilon)
    stats = SubroutineStats(bond=j)
    bond = kernel.open(frame, j, chain.projector)
    streak = 0
    t = 0
    while t < config.n_iter:
        q = bond.sample(gains, rng)
        t += 1
        stats.measurements += 1
        counter.record(q)
        if counter.total > COUNTER_CAP:
            counter.rescale()
        e_peak = peak_energy(counter.k0, counter.k1, config.epsilon)
        stats.e_peak_last = e_peak
        if counter.run1 >= config.fire_window and e_peak >= e_th:
            bond = bond.kick(correction_unitary(chain.site, rng))
            stats.corrections += 1
            counter.reset()
            streak = 0
            t = 0
        else:
            streak = streak + 1 if e_peak < e_th else 0
        if streak >= config.window:
            stats.converged = True
            break
    return bond.state(), stats


def sweep_round(
    state: StateVector,
    chain: ChainOps,
    config: MiteConfig,
    rng: np.random.Generator,
    counters: dict[int, MeasurementCounter],
    kernel,
) -> tuple[StateVector, list[SubroutineStats]]:
    """One full sweep: subroutines on all odd bonds, then all even bonds,
    each on its bond's frame with its counter from ``counters``."""
    stats: list[SubroutineStats] = []

    def visit(j: int, frame: np.ndarray) -> np.ndarray:
        frame, st = mite_subroutine(frame, j, chain, config, rng, counters[j], kernel)
        if st.corrections > 0:
            # neighbors' evidence refers to a state the correction destroyed
            counters[1 + (j - 2) % chain.n].reset()
            counters[1 + j % chain.n].reset()
        stats.append(st)
        return frame

    return walk_bonds(state, sweep_order(chain.n), visit), stats


_AXES = {"x": np.array([1.0, 0.0, 0.0]), "z": np.array([0.0, 0.0, 1.0])}


def apply_noise(
    state: StateVector,
    axis: str | None,
    sigma2: float,
    rng: np.random.Generator,
    site: SpinMatrices,
) -> StateVector:
    """Random local rotations exp(i xi_j S_j^axis) on every site.

    Angles are i.i.d. with density proportional to exp(-xi^2 / sigma2),
    i.e. Gaussian with variance sigma2 / 2 (the density is taken literally;
    note the factor 2).  ``sigma2 = 0`` is the identity and consumes no
    random numbers.
    """
    if sigma2 == 0.0:
        return state
    xi = math.sqrt(sigma2 / 2.0) * rng.standard_normal(state.n_sites)
    return state.with_amps(map_sites(site_rotations(xi[:, None] * _AXES[axis], site), state.amps))


def bond_partials(state: StateVector, projector: np.ndarray) -> list[float]:
    """Partial fidelity <psi|(1 - P)|psi> of every bond 1..n, clamped to [0, 1]."""
    return [min(1.0, max(0.0, 1.0 - w)) for w in bond_weights(state, projector)]


@dataclass
class TrajectoryRecord:
    """Everything one prepared trajectory reports.

    Round-indexed series: ``f_tot[r]`` and ``partial[r]`` include the
    initial state at r = 0; ``e_peak``, ``corrections`` and
    ``measurements`` start at round 1 (list index 0).  ``e_peak[r][b]`` is
    the last peak estimate seen on bond b+1 during round r+1 (signed).
    """

    n: int
    mode: str
    seed: int
    f_tot: list[float]
    partial: list[list[float]]
    e_peak: list[list[float]]
    corrections: list[int]
    measurements: list[list[int]]
    sym_weight: list[float] | None = None


def _checked_symmetric_weight(state: StateVector) -> float:
    """A qubit trajectory's symmetric-sector weight, which every operation of
    the loop keeps at 1; a weight that left it means a broken operator."""
    w = qubit_map.symmetric_weight(state)
    if abs(w - 1.0) > _SYM_WEIGHT_TOL:
        raise RuntimeError(f"symmetric-sector weight {w!r} left 1")
    return w


def prepare(config: MiteConfig, n: int, mode: str, kernel=TwoLevelBond) -> TrajectoryRecord:
    """Run one full preparation trajectory and record it.

    Starts from the all-(m=1) product state (spin1) or the all-|00> state
    (qubit), applies noise at the top of each round (the identity at
    ``noise_sigma2 = 0``), and sweeps until ``r_max`` rounds or the
    early-stop fidelity is reached.  Every measurement goes through
    ``kernel`` (see ``mite_subroutine``).  A ``RuntimeError`` in round r
    (0: the initial diagnostics) is re-raised prefixed with
    ``seed {seed}, round {r}: ``, so it can be replayed.
    """
    chain = build_chain(n, mode)
    config.e_th(mode)  # validate threshold up front
    rng = np.random.default_rng(config.seed)
    state = chain.initial_state()
    counters = {j: MeasurementCounter() for j in range(1, n + 1)}
    record = TrajectoryRecord(n=n, mode=mode, seed=config.seed, f_tot=[], partial=[], e_peak=[],
                              corrections=[], measurements=[],
                              sym_weight=[] if mode == "qubit" else None)
    try:
        for r in range(config.r_max + 1):  # round 0 records the initial state
            if r > 0:
                state = apply_noise(state, config.noise_axis, config.noise_sigma2, rng, chain.site)
                state, stats = sweep_round(state, chain, config, rng, counters, kernel)
                by_bond = {st.bond: st for st in stats}
                record.e_peak.append([by_bond[j].e_peak_last for j in range(1, n + 1)])
                record.corrections.append(sum(st.corrections for st in stats))
                record.measurements.append([by_bond[j].measurements for j in range(1, n + 1)])
            record.f_tot.append(fidelity(state, chain.reference.state))
            record.partial.append(bond_partials(state, chain.projector))
            if record.sym_weight is not None:
                record.sym_weight.append(_checked_symmetric_weight(state))
            if r > 0 and config.early_stop is not None and record.f_tot[-1] > 1.0 - config.early_stop:
                break
    except RuntimeError as exc:
        raise RuntimeError(f"seed {config.seed}, round {r}: {exc}") from exc
    return record


def run_trajectories(
    config: MiteConfig, n: int, mode: str, runs: int, threads: int
) -> list[TrajectoryRecord]:
    """Independent trajectories with per-run seeds ``config.seed + run_id``.

    ``threads > 1`` spreads the runs over that many worker processes, at
    most one per run; the records, returned in ``run_id`` order, do not
    depend on it.
    """
    configs = [replace(config, seed=config.seed + run_id) for run_id in range(runs)]
    workers = min(threads, runs)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(prepare, configs, repeat(n), repeat(mode)))
    return [prepare(c, n, mode) for c in configs]


def padded_series(record: TrajectoryRecord, r_max: int) -> np.ndarray:
    """Round-indexed fidelity series padded to length r_max + 1 with the
    final value (early-stopped trajectories hold their converged state)."""
    f = list(record.f_tot)
    f.extend([f[-1]] * (r_max + 1 - len(f)))
    return np.array(f[: r_max + 1])


# ---------------------------------------------------------------------------
# deterministic direct-projection oracle

def sx_stretched_site_ket() -> np.ndarray:
    """The Sx eigenvalue +1 eigenvector of one spin-1 site, in the Sz basis."""
    vals, vecs = np.linalg.eigh(spin1_matrices().sx)
    return _fix_phase(vecs[:, int(np.argmax(vals))])


def twisted_sx_product(n: int, theta: float) -> StateVector:
    """Product of x-stretched site states with a per-site twist about z:
    site j carries exp(-i theta (j-1) Sz) |m_x = +1>.

    The twist is load-bearing.  Without it the state is annihilated by the
    very first bond projection (every bond of a uniformly stretched product
    is a pure total-spin-2 pair), and ANY uniform product is exactly
    orthogonal to the target for odd chain lengths (the odd-N reference
    state is odd under site reflection while uniform products are even).
    A twist angle incommensurate with pi breaks both selection rules for
    every chain length; at commensurate angles some lengths regain a shared
    symmetry and the overlap vanishes again.  The cascade uses theta = 1.
    """
    s1 = spin1_matrices()
    base = sx_stretched_site_ket()
    amps = np.array([1.0 + 0j])
    for twist in site_rotations([(0.0, 0.0, -theta * j) for j in range(n)], s1):
        amps = np.kron(amps, twist @ base)
    return StateVector(amps, n, 3)


def direct_projection_converge(
    n: int, r_max: int, reference: AkltReference | None = None
) -> np.ndarray:
    """Fidelity series of the deterministic projection cascade.

    Starting from ``twisted_sx_product(n, 1.0)``, each round applies
    (1 - P) on every odd bond, then on every even bond, renormalizing once
    per round.  Returns fidelities against ``reference`` (the closed-form
    AKLT state when omitted) at r = 0 .. r_max.
    """
    check_chain_size(n)
    if reference is None:
        reference = aklt_state(n)
    comp = np.eye(9) - bond_projector("spin1")
    state = twisted_sx_product(n, 1.0)
    series = [fidelity(state, reference.state)]
    for _ in range(r_max):
        state = walk_bonds(state, sweep_order(n), lambda j, frame: comp @ frame)
        nrm = state.norm()
        if nrm < 1e-15:
            raise RuntimeError("projection cascade annihilated the state")
        state = state.with_amps(state.amps / nrm)
        series.append(fidelity(state, reference.state))
    return np.array(series)


def critical_rounds(series, level: float = 0.9) -> float:
    """Interpolated round at which the round-indexed ``series`` first reaches ``level``."""
    series = np.asarray(series, dtype=float)
    above = np.nonzero(series >= level)[0]
    if above.size == 0:
        raise ValueError(f"series never reaches level {level}")
    i = int(above[0])
    if i == 0:
        return 0.0
    s0, s1 = series[i - 1], series[i]
    return float(i - 1 + (level - s0) / (s1 - s0))
