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

Counters persist across sweep rounds otherwise.  A bond's counts are the
tuple (k0, k1, run1), ``run1`` the current streak of consecutive q = 1
outcomes (it resets on any q = 0; all three reset on corrections).
``mite_subroutine`` takes its bond's tuple and returns the end counts in
``SubroutineStats.counts``; ``sweep_round`` keeps them per bond and
applies the neighbour reset.  The iteration cap ``n_iter`` bounds each
unconverged stretch between corrections, so a subroutine visit resolves
its bond (kick, re-collapse, re-check) instead of carrying half-finished
repairs into the next round.

A sweep round runs the subroutine over all odd bonds, then all even bonds
(``sweep_order``).

Layout.  A round is one ``statevec.walk_bonds`` over ``sweep_order``, so
each visit works on its bond's *frame* (the rotating site layout), as does
the projection cascade.  Noise and the qubit symmetric weight are
``statevec.map_sites`` chains; ``bond_partials`` reads every bond's partial
fidelity from ``statevec.bond_weights``.

Between corrections a visit never leaves the plane span{P psi, (1 - P) psi}
of its bond: both measurement operators are (1 + (g_q - 1) P) / sqrt(2).
``TwoLevelBond.sample`` therefore collapses on the excited weight
w = <psi|P|psi> alone, and the frame is built only before a correction
and at the end of the visit.  This bond kernel is the one part of the loop
a caller can swap: ``prepare`` takes a ``kernel`` (default
``TwoLevelBond``) and hands it through ``sweep_round`` to every
``mite_subroutine`` visit, and ``verify`` runs the same loop with a
full-state kernel that collapses the frame with the matrix Kraus pair
(``verify.measurement_kraus``).  A kernel provides ``open(frame, j,
projector)``, which returns a bond with ``sample(gains, u) -> q``,
``kick(u)`` (apply the correction ``u`` and return the bond of the new
stretch), ``state()`` (the frame) and the excited weight ``w`` (read by
``verify.RecordingKernel``).

RNG discipline (one trajectory = one ``numpy`` Generator): each round
first draws the per-site noise angles as one ``standard_normal(N)`` (sites
1..N, only when noise is active); then ``mite_subroutine`` uses one
uniform ``u`` per measurement, which picks the kernel's outcome, and one
``random(6)`` per correction (three per site, x/y/z order, lower-numbered
site first).  The visit draws a stretch's uniforms in blocks of at most
``UNIFORM_BLOCK`` (one ``random(n_iter)`` when ``n_iter`` fits) and rewinds
the unused tail of the current block with ``bit_generator.advance`` before
each correction's ``random(6)`` and at the end of the visit, so the stream
advances exactly as one scalar ``random()`` per measurement would advance
it, and a visit holds at most one block whatever ``n_iter`` is; the bit
generator must be able to move backwards, as ``default_rng``'s PCG64 can.
No kernel sees the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qubit_map
from .params import COUNTER_CAP, MiteConfig, check_chain_size
from .spin_ops import aklt_state, bond_projector
from .statevec import (
    apply_real,
    bond_weights,
    fidelity,
    map_sites,
    product_state,
    walk_bonds,
)

_BUILT_NORM_TOL = 1e-10
_WEIGHT_TOL = 1e-12
_SYM_WEIGHT_TOL = 1e-9
UNIFORM_BLOCK = 1024  # most uniforms a visit draws at once; at least the default n_iter


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
    one projector application; ``sample`` collapses the two scalars on the
    uniform it is handed; ``state`` builds the frame back.
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
        excited = apply_real(projector, frame)
        bond = cls(j, frame, excited, float(np.vdot(excited, excited).real), projector)
        bond._check_weight()
        return bond

    def kick(self, u: np.ndarray) -> "TwoLevelBond":
        """The correction ``u`` on the built frame, opened as a new stretch."""
        return self.open(u @ self.state(), self.j, self.projector)

    def _check_weight(self):
        if not -_WEIGHT_TOL <= self.w <= 1.0 + _WEIGHT_TOL:
            raise RuntimeError(f"bond {self.j}: excited weight {self.w!r} outside [0, 1]")

    def sample(self, gains: tuple[float, float], u: float) -> int:
        """Collapse on the outcome q the uniform ``u`` in [0, 1) picks and return
        it: q = 0 exactly when u < p0, with p_q = (g_q^2 w + 1 - w) / 2.  The
        collapse scales alpha by g_q / sqrt(2 p_q) and beta by 1 / sqrt(2 p_q),
        so the excited weight becomes g_q^2 w / (2 p_q)."""
        w = self.w
        g0, g1 = gains
        p0 = (g0 * g0 * w + 1.0 - w) / 2
        if u < p0:
            q, g, p = 0, g0, p0
        else:
            q, g, p = 1, g1, (g1 * g1 * w + 1.0 - w) / 2
        scale = 1.0 / math.sqrt(2 * p)
        self.alpha *= g * scale
        self.beta *= scale
        self.w = g * g * w / (2 * p)
        return q

    def state(self) -> np.ndarray:
        """alpha P psi0 + beta (1 - P) psi0, renormalized by its own norm.

        The norm before renormalizing is 1 up to rounding; a larger defect
        means the scalars drifted from the vectors and raises.  It is taken
        as the two real dots ``np.linalg.norm`` computes, with its bits.
        """
        self._check_weight()
        amps = self.base - self.excited
        amps *= self.beta
        amps += self.alpha * self.excited
        flat = amps.reshape(-1)
        re, im = flat.real, flat.imag
        nrm = math.sqrt(re.dot(re) + im.dot(im))
        if abs(nrm - 1.0) > _BUILT_NORM_TOL:
            raise RuntimeError(f"bond {self.j}: built state has norm {nrm!r}, not 1")
        amps /= nrm
        return amps


def peak_energy(k0: int, k1: int, epsilon: float) -> float:
    """Energy at which the accumulated measurement amplitude is peaked."""
    total = k0 + k1
    if total <= 0:
        raise ValueError("peak energy undefined for empty counts")
    return math.asin((k1 - k0) / total) / (2.0 * epsilon)


_SQRT2 = math.sqrt(2.0)


def site_rotations(vs, d: int) -> np.ndarray:
    """exp(i v.S) for each rotation vector v of the (k, 3) stack ``vs`` (one
    vector is a stack of one), S the spin of one site of dimension ``d``
    (3: spin 1, 4: a qubit pair); returns the (k, d, d) stack.

    Each matrix is built from the Cayley-Klein pair (a, b) of the spin-1/2
    rotation U = exp(i t n.sigma / 2) = [[a, b], [-b*, a*]], v = t n:

        a = cos(t/2) + i n_z sin(t/2),   b = (n_y + i n_x) sin(t/2).

    For spin 1 the rotation is D^1(U), whose rows in the m = +1, 0, -1
    basis are

        (a^2, sqrt2 a b, b^2),
        (-sqrt2 a b*, |a|^2 - |b|^2, sqrt2 a* b),
        (b*^2, -sqrt2 a* b*, a*^2);

    for a qubit pair, S = s_a + s_b, it is U (x) U, whose entries are the
    same products.  Each product is written out in real arithmetic on
    c = cos(t/2) and (x, y, z) = n sin(t/2), with |b|^2 = x^2 + y^2,
    |a|^2 = 1 - |b|^2 and Re a^2 = 1 - (sin^2(t/2) + z^2), so a rotation
    near the identity is 1 plus small terms; v = 0 gives the identity
    exactly, and an axis-aligned v has an exact unit n.  Everything is
    scalar ``math`` and Python, vector by vector, so each matrix of a
    stack is bit for bit the one its vector gives alone.
    """
    if d not in (3, 4):
        raise ValueError(f"no site rotation for site dimension {d}")
    mats = []
    for vx, vy, vz in np.asarray(vs, dtype=float).reshape(-1, 3).tolist():
        t = math.hypot(vx, vy, vz)
        if t == 0.0:
            c = 1.0
            h = x = y = z = 0.0
        else:
            c, h = math.cos(t / 2), math.sin(t / 2)
            x, y, z = vx / t * h, vy / t * h, vz / t * h
        bb = x * x + y * y  # |b|^2
        a2 = complex(1.0 - (h * h + z * z), 2 * c * z)
        b2 = complex(y * y - x * x, 2 * x * y)
        ab = complex(c * y - z * x, c * x + z * y)
        abc = complex(c * y + z * x, z * y - c * x)  # a b*
        if d == 3:
            mats.append(((a2, _SQRT2 * ab, b2),
                         (-_SQRT2 * abc, 1.0 - 2 * bb, _SQRT2 * abc.conjugate()),
                         (b2.conjugate(), -_SQRT2 * ab.conjugate(), a2.conjugate())))
        else:
            aa = 1.0 - bb
            mats.append(((a2, ab, ab, b2),
                         (-abc, aa, -bb, abc.conjugate()),
                         (-abc, -bb, aa, abc.conjugate()),
                         (b2.conjugate(), -ab.conjugate(), -ab.conjugate(), a2.conjugate())))
    return np.array(mats, dtype=complex)


def correction_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Independent random spin rotations exp(2 pi i a.S) on the two sites of
    a bond, each of site dimension ``d``.

    Six uniform [0, 1) draws: x/y/z components of ``a`` for the
    lower-numbered site, then for its neighbor.  The kron of the two site
    matrices is one broadcast product, the same single products as
    ``np.kron``.
    """
    left, right = site_rotations(2 * np.pi * rng.random(6).reshape(2, 3), d)
    return (left[:, None, :, None] * right[None, :, None, :]).reshape(d * d, d * d)


def sweep_order(n: int) -> list[int]:
    """Bonds in the order one sweep visits them: all odd, then all even."""
    return list(range(1, n + 1, 2)) + list(range(2, n + 1, 2))


@dataclass(frozen=True)
class ChainOps:
    """Operators and reference state of one encoding ``mode``: the bond
    projector and the reference state, whose shape (d,) * N gives the chain
    length and the site dimension."""

    mode: str
    projector: np.ndarray
    reference: np.ndarray


def build_chain(n: int, mode: str) -> ChainOps:
    reference = aklt_state(n) if mode == "spin1" else qubit_map.reencoded_reference(n)
    return ChainOps(
        mode=mode,
        projector=bond_projector(mode),
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
    counts: tuple[int, int, int] = (0, 0, 0)  # (k0, k1, run1) at the end of the visit


def mite_subroutine(
    frame: np.ndarray,
    j: int,
    chain: ChainOps,
    config: MiteConfig,
    rng: np.random.Generator,
    counts: tuple[int, int, int],
    kernel,
) -> tuple[np.ndarray, SubroutineStats]:
    """Run one measure-and-correct subroutine on bond ``j``'s ``frame``
    (see the module docstring); returns the frame after the visit.

    Measures until either ``window`` consecutive in-threshold estimates
    declare convergence or ``n_iter`` measurements pass without a
    correction.  A correction fires the moment the peak estimate sits at
    or above threshold while the last ``fire_window`` outcomes are all
    q = 1; it resets the counts and the iteration budget, so one
    visit may fire several times (each backed by its own complete run)
    before it converges or gives up.

    Measurements run on ``kernel``: it opens the bond at the start of the
    visit, kicks it with each correction, and collapses on each uniform
    drawn here, in blocks of at most ``UNIFORM_BLOCK`` (see the module
    docstring for the blocks and rewinds), so a visit's memory does not
    grow with ``n_iter``.  The two-level kernel pays one projector
    application per opening and per kick.  ``counts`` is the bond's (k0,
    k1, run1) from its last visit; the visit counts on from it and returns
    its end counts in ``stats.counts``, built once, at the end.
    """
    epsilon, e_th = config.epsilon, config.e_th(chain.mode)
    d = chain.reference.shape[0]
    n_iter, window, fire_window = config.n_iter, config.window, config.fire_window
    gains = measurement_gains(epsilon)
    advance = rng.bit_generator.advance
    bond = kernel.open(frame, j, chain.projector)
    k0, k1, run1 = counts
    measurements = corrections = streak = t = 0
    converged = False
    us = []  # the current block's unused uniforms, the next one last
    while t < n_iter:
        if not us:
            us = rng.random(min(UNIFORM_BLOCK, n_iter - t)).tolist()[::-1]
        q = bond.sample(gains, us.pop())
        t += 1
        if q == 0:
            k0 += 1
            run1 = 0
        else:
            k1 += 1
            run1 += 1
        if k0 + k1 > COUNTER_CAP:  # halve both: forgetting that keeps their ratio
            k0 //= 2
            k1 //= 2
        if peak_energy(k0, k1, epsilon) < e_th:
            streak += 1
            if streak >= window:
                converged = True
                break
        elif run1 >= fire_window:
            advance(-len(us))
            bond = bond.kick(correction_unitary(d, rng))
            measurements += t
            corrections += 1
            k0 = k1 = run1 = streak = t = 0
            us = []
        else:
            streak = 0
    if us:
        advance(-len(us))
    # the last measurement of a visit never fires, so its estimate is the end counts'
    stats = SubroutineStats(bond=j, measurements=measurements + t, corrections=corrections,
                            converged=converged, e_peak_last=peak_energy(k0, k1, epsilon),
                            counts=(k0, k1, run1))
    return bond.state(), stats


def sweep_round(
    state: np.ndarray,
    chain: ChainOps,
    config: MiteConfig,
    rng: np.random.Generator,
    counts: dict[int, tuple[int, int, int]],
    kernel,
) -> tuple[np.ndarray, list[SubroutineStats]]:
    """One full sweep: subroutines on all odd bonds, then all even bonds,
    each on its bond's frame with its (k0, k1, run1) from ``counts``.  Each
    visit's ``stats.counts`` goes back into ``counts``; a visit that fired
    a correction sets both neighbouring bonds (bond n wrapping to 1) to
    (0, 0, 0)."""
    stats: list[SubroutineStats] = []
    n = state.ndim

    def visit(j: int, frame: np.ndarray) -> np.ndarray:
        frame, st = mite_subroutine(frame, j, chain, config, rng, counts[j], kernel)
        counts[j] = st.counts
        if st.corrections > 0:
            # neighbors' evidence refers to a state the correction destroyed
            counts[1 + (j - 2) % n] = counts[1 + j % n] = (0, 0, 0)
        stats.append(st)
        return frame

    return walk_bonds(state, sweep_order(n), visit), stats


_AXES = {"x": np.array([1.0, 0.0, 0.0]), "z": np.array([0.0, 0.0, 1.0])}


def apply_noise(
    state: np.ndarray,
    axis: str | None,
    sigma2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random local rotations exp(i xi_j S_j^axis) on every site, each
    built for the state's site dimension.

    Angles are i.i.d. with density proportional to exp(-xi^2 / sigma2),
    i.e. Gaussian with variance sigma2 / 2 (the density is taken literally;
    note the factor 2).  ``sigma2 = 0`` is the identity and consumes no
    random numbers.
    """
    if sigma2 == 0.0:
        return state
    xi = math.sqrt(sigma2 / 2.0) * rng.standard_normal(state.ndim)
    return map_sites(site_rotations(xi[:, None] * _AXES[axis], state.shape[0]), state)


def bond_partials(state: np.ndarray, projector: np.ndarray) -> list[float]:
    """Partial fidelity <psi|(1 - P)|psi> of every bond 1..n, clamped to [0, 1]."""
    return [min(1.0, max(0.0, 1.0 - w)) for w in bond_weights(state, projector)]


@dataclass
class TrajectoryRecord:
    """Everything one prepared trajectory reports; the chain length, mode
    and seed it ran with are ``prepare``'s arguments, not part of it.

    Round-indexed series: ``f_tot[r]`` and ``partial[r]`` include the
    initial state at r = 0; ``e_peak``, ``corrections`` and
    ``measurements`` start at round 1 (list index 0).  ``e_peak[r][b]`` is
    the last peak estimate seen on bond b+1 during round r+1 (signed).
    """

    f_tot: list[float]
    partial: list[list[float]]
    e_peak: list[list[float]]
    corrections: list[int]
    measurements: list[list[int]]
    sym_weight: list[float] | None = None


def _checked_symmetric_weight(state: np.ndarray) -> float:
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
    state = product_state(n, chain.reference.shape[0])
    counts = dict.fromkeys(range(1, n + 1), (0, 0, 0))
    record = TrajectoryRecord(f_tot=[], partial=[], e_peak=[], corrections=[], measurements=[],
                              sym_weight=[] if mode == "qubit" else None)
    try:
        for r in range(config.r_max + 1):  # round 0 records the initial state
            if r > 0:
                state = apply_noise(state, config.noise_axis, config.noise_sigma2, rng)
                state, stats = sweep_round(state, chain, config, rng, counts, kernel)
                by_bond = {st.bond: st for st in stats}
                record.e_peak.append([by_bond[j].e_peak_last for j in range(1, n + 1)])
                record.corrections.append(sum(st.corrections for st in stats))
                record.measurements.append([by_bond[j].measurements for j in range(1, n + 1)])
            record.f_tot.append(fidelity(state, chain.reference))
            record.partial.append(bond_partials(state, chain.projector))
            if record.sym_weight is not None:
                record.sym_weight.append(_checked_symmetric_weight(state))
            if r > 0 and config.early_stop is not None and record.f_tot[-1] > 1.0 - config.early_stop:
                break
    except RuntimeError as exc:
        raise RuntimeError(f"seed {config.seed}, round {r}: {exc}") from exc
    return record


def padded_series(record: TrajectoryRecord, r_max: int) -> np.ndarray:
    """Round-indexed fidelity series padded to length r_max + 1 with the
    final value (early-stopped trajectories hold their converged state)."""
    f = list(record.f_tot)
    f.extend([f[-1]] * (r_max + 1 - len(f)))
    return np.array(f[: r_max + 1])


# ---------------------------------------------------------------------------
# the deterministic projection cascade behind the ``project`` job

def sx_stretched_site_ket() -> np.ndarray:
    """Sx's eigenvalue +1 eigenvector (1/2, sqrt(1/2), 1/2) of a spin-1 site, Sz basis."""
    return np.array([0.5, math.sqrt(0.5), 0.5], dtype=complex)


def twisted_sx_product(n: int, theta: float) -> np.ndarray:
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
    base = sx_stretched_site_ket()
    amps = np.array([1.0 + 0j])
    for twist in site_rotations([(0.0, 0.0, -theta * j) for j in range(n)], 3):
        amps = np.kron(amps, twist @ base)
    return amps.reshape((3,) * n)


def direct_projection_converge(
    n: int, r_max: int, reference: np.ndarray | None = None
) -> np.ndarray:
    """Fidelity series of the deterministic projection cascade.

    Starting from ``twisted_sx_product(n, 1.0)``, each round applies
    (1 - P) on every odd bond, then on every even bond, renormalizing once
    per round.  Returns fidelities against ``reference`` (the closed-form
    AKLT state when omitted) at r = 0 .. r_max.  A state annihilated in
    round r raises a ``RuntimeError`` prefixed ``n = {n}, round {r}: ``.
    """
    check_chain_size(n)
    if reference is None:
        reference = aklt_state(n)
    comp = np.eye(9) - bond_projector("spin1")
    state = twisted_sx_product(n, 1.0)
    series = [fidelity(state, reference)]
    for r in range(1, r_max + 1):
        state = walk_bonds(state, sweep_order(n), lambda j, frame: apply_real(comp, frame))
        nrm = float(np.linalg.norm(state))
        if nrm < 1e-15:
            raise RuntimeError(f"n = {n}, round {r}: projection cascade annihilated the state")
        state = state / nrm
        series.append(fidelity(state, reference))
    return np.array(series)


CRITICAL_FIDELITY = 0.9  # the paper's r_c: rounds until the fidelity reaches 0.9


def critical_rounds(series) -> float | None:
    """Interpolated round at which the round-indexed ``series`` first reaches
    ``CRITICAL_FIDELITY``; ``None`` if it never does."""
    series = np.asarray(series, dtype=float)
    above = np.nonzero(series >= CRITICAL_FIDELITY)[0]
    if above.size == 0:
        return None
    i = int(above[0])
    if i == 0:
        return 0.0
    s0, s1 = series[i - 1], series[i]
    return float(i - 1 + (CRITICAL_FIDELITY - s0) / (s1 - s0))
