"""Named self-checks covering every operator identity the method relies on.

Each check returns (passed, detail); ``CHECKS`` names them in the order
``aklt-mite verify`` runs them.  The test suite runs each check as its own
case instead of restating it, and a deployed build can be validated
without a test harness present.  The ``expm`` oracles import scipy inside
their checks, so importing this module does not load scipy; the CLI
imports it only for ``aklt-mite verify``.

The two-level bond kernel's oracle is ``FullStateKernel``: ``mite.prepare``
runs with it in place of ``mite.TwoLevelBond``, so both sides share every
rule of the loop and differ only in how one measurement collapses the
state.  ``RecordingKernel`` wraps either one to record each bond's partial
fidelity after every one of its measurements.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np

from . import mite, qubit_map, recompile, spin_ops, statevec


def _maxabs(x) -> float:
    return float(np.max(np.abs(x)))


def check_spin1_algebra():
    s = spin_ops.spin1_matrices()
    defect = max(
        _maxabs(s.sx @ s.sy - s.sy @ s.sx - 1j * s.sz),
        _maxabs(s.sy @ s.sz - s.sz @ s.sy - 1j * s.sx),
        _maxabs(s.sz @ s.sx - s.sx @ s.sz - 1j * s.sy),
    )
    return defect <= 1e-12, f"max commutator defect {defect:.2e}"


def check_spin1_casimir():
    s = spin_ops.spin1_matrices()
    defect = _maxabs(s.sx @ s.sx + s.sy @ s.sy + s.sz @ s.sz - 2 * np.eye(3))
    return defect <= 1e-12, f"S^2 - 2*1 defect {defect:.2e}"


def check_spin_half_algebra():
    s = spin_ops.spin_half_matrices()
    defect = max(
        _maxabs(s.sx @ s.sy - s.sy @ s.sx - 1j * s.sz),
        _maxabs(s.sx @ s.sx + s.sy @ s.sy + s.sz @ s.sz - 0.75 * np.eye(2)),
    )
    return defect <= 1e-12, f"algebra/casimir defect {defect:.2e}"


def check_projector_idempotent():
    p = spin_ops.bond_projector("spin1")
    defect = _maxabs(p @ p - p)
    return defect <= 1e-12, f"P^2 - P defect {defect:.2e}"


def check_projector_hermitian_trace():
    p = spin_ops.bond_projector("spin1")
    herm = _maxabs(p - p.conj().T)
    tr = abs(np.trace(p).real - 5.0)
    return herm <= 1e-12 and tr <= 1e-12, f"hermiticity {herm:.2e}, trace-5 {tr:.2e}"


def check_projector_spectrum():
    p = spin_ops.bond_projector("spin1")
    vals = np.sort(np.linalg.eigvalsh(p))
    want = [0] * 4 + [1] * 5
    ok = np.allclose(vals, want, rtol=0, atol=1e-12)
    return ok, f"eigenvalues off 0x4 1x5 by {_maxabs(vals - want):.2e}"


def check_projector_forms_agree():
    diff = _maxabs(
        spin_ops.bond_projector("spin1")
        - spin_ops.bond_projector_short_form("spin1")
    )
    return diff <= 1e-12, f"quartic vs short form {diff:.2e}"


def check_coupled_basis_action():
    p = spin_ops.bond_projector("spin1")
    worst = 0.0
    for cs in spin_ops.coupled_basis():
        expect = 1.0 if cs.s == 2 else 0.0
        worst = max(worst, float(np.linalg.norm(p @ cs.vec - expect * cs.vec)))
    return worst <= 1e-12, f"worst |P v - delta_S2 v| = {worst:.2e}"


def check_adjacent_projectors_noncommute():
    p = spin_ops.bond_projector("spin1")
    p12 = np.kron(p, np.eye(3))
    p23 = np.kron(np.eye(3), p)
    norm = float(np.linalg.norm(p12 @ p23 - p23 @ p12))
    return norm > 0.1, f"commutator norm {norm:.3f} (must exceed 0.1)"


def check_kraus_completeness():
    worst = 0.0
    for mode in ("spin1", "qubit"):
        p = spin_ops.bond_projector(mode)
        k = mite.measurement_kraus(0.5, p)
        comp = k.m0.conj().T @ k.m0 + k.m1.conj().T @ k.m1 - np.eye(p.shape[0])
        worst = max(worst, _maxabs(comp))
    return worst <= 1e-12, f"completeness defect {worst:.2e}"


def check_aklt_zero_energy():
    ref = spin_ops.aklt_state(4)
    resid = float(np.linalg.norm(spin_ops.hamiltonian_apply(ref.state).amps))
    return resid <= 1e-10, f"|H psi| = {resid:.2e}, E0 = {ref.energy:.2e}"


def check_aklt_closed_form_matches_ed():
    worst = 0.0
    for n in (4, 5, 6):
        closed = spin_ops.aklt_state(n).state.amps
        exact = spin_ops.exact_aklt_state(n).state.amps
        overlap = np.vdot(exact, closed)
        worst = max(worst, float(np.linalg.norm(closed - overlap / abs(overlap) * exact)))
    return worst <= 1e-12, f"worst |psi_closed - psi_ED| = {worst:.2e} (N = 4..6)"


def check_aklt_common_projector():
    ref = spin_ops.aklt_state(4)
    p = spin_ops.bond_projector("spin1")
    worst = max(
        abs(1.0 - statevec.partial_fidelity(ref.state, j, p)) for j in range(1, 5)
    )
    return worst <= 1e-9, f"worst |1 - partial fidelity| = {worst:.2e}"


def check_correction_unitarity():
    from scipy.linalg import expm

    rng = np.random.default_rng(7)
    worst = worst_expm = 0.0
    for mats in (spin_ops.spin1_matrices(), spin_ops.paired_site_matrices()):
        for _ in range(20):
            u = mite.correction_unitary(mats, rng)
            worst = max(worst, _maxabs(u @ u.conj().T - np.eye(u.shape[0])))
            # correction-sized and noise-sized rotation vectors
            vs = np.stack([2 * np.pi * rng.random(3), 0.1 * rng.standard_normal(3)])
            for v, rot in zip(vs, mite.site_rotations(vs, mats)):
                gen = v[0] * mats.sx + v[1] * mats.sy + v[2] * mats.sz
                worst_expm = max(worst_expm, _maxabs(rot - expm(1j * gen)))
    passed = worst <= 1e-12 and worst_expm <= 1e-12
    return passed, f"worst unitarity defect {worst:.2e}, closed form vs expm {worst_expm:.2e}"


def check_mapped_swap_symmetry():
    p = spin_ops.bond_projector("qubit")
    sw = qubit_map.site_swap()
    eye = np.eye(4)
    defect = max(
        _maxabs(p @ np.kron(sw, eye) - np.kron(sw, eye) @ p),
        _maxabs(p @ np.kron(eye, sw) - np.kron(eye, sw) @ p),
    )
    return defect <= 1e-12, f"swap commutator defect {defect:.2e}"


def check_mapped_isometry_pullback():
    diff = _maxabs(
        qubit_map.isometry_pullback(spin_ops.bond_projector("qubit"))
        - spin_ops.bond_projector("spin1")
    )
    return diff <= 1e-12, f"pullback defect {diff:.2e}"


def check_qubit_reference_equivalence():
    fid = qubit_map.mapping_equivalence_fidelity(3)
    return fid >= 1 - 1e-9, f"fidelity {fid:.12f}"


def check_symmetric_weight_initial():
    st = statevec.product_state(3, 4)
    w = qubit_map.symmetric_weight(st)
    return abs(w - 1.0) <= 1e-12, f"weight {w:.12f}"


def check_target_unitary_closed_form():
    from scipy.linalg import expm

    eps = 0.5
    closed = recompile.target_unitary(eps)
    p = spin_ops.bond_projector("qubit")
    oracle = expm(-1j * eps * np.kron(p, np.array([[0, -1j], [1j, 0]])))
    diff = _maxabs(closed - oracle)
    return diff <= 1e-10, f"closed form vs expm {diff:.2e}"


def check_circuit_unitarity():
    rng = np.random.default_rng(3)
    circ = recompile.ParamCircuit(2, rng.uniform(0, 2 * np.pi, recompile.n_params(2)))
    u = recompile.circuit_unitary(circ)
    defect = _maxabs(u @ u.conj().T - np.eye(32))
    return defect <= 1e-10, f"unitarity defect {defect:.2e}"


def check_gradient_finite_difference():
    rng = np.random.default_rng(5)
    target = recompile.target_unitary(0.5)
    x = rng.uniform(0, 2 * np.pi, recompile.n_params(1))
    _, grad = recompile.loss_and_grad(x, 1, target)
    h = 1e-5
    worst = 0.0
    for k in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fd = (
            recompile.loss_and_grad(xp, 1, target)[0]
            - recompile.loss_and_grad(xm, 1, target)[0]
        ) / (2 * h)
        worst = max(worst, abs(grad[k] - fd) / max(abs(fd), 1e-8))
    return worst <= 1e-4, f"max relative error {worst:.2e}"


def check_schmidt_fidelity_bound():
    """Random depth-L ansatz unitaries meet their own Schmidt bound at
    depth L (the layer-to-cut rank count is not too small) and miss it at
    depth L - 1 (nor too large); their fidelities to the target stay below
    the target's bound, which stays below 0.9999 up to depth 7."""
    rng = np.random.default_rng(7)
    target = recompile.target_unitary(0.5)
    own, below, over = 1.0, 0.0, 0.0
    for n_layers in range(1, 5):
        params = rng.uniform(0, 2 * np.pi, recompile.n_params(n_layers))
        u = recompile.circuit_unitary(recompile.ParamCircuit(n_layers, params))
        own = min(own, recompile.schmidt_fidelity_bound(u, n_layers))
        below = max(below, recompile.schmidt_fidelity_bound(u, n_layers - 1))
        over = max(over, recompile.unitary_fidelity(u, target)
                   - recompile.schmidt_fidelity_bound(target, n_layers))
    ceiling = max(recompile.schmidt_fidelity_bound(target, n) for n in range(8))
    passed = own >= 1 - 1e-12 and below <= 0.99 and over <= 0 and ceiling < 0.9999
    return passed, (
        f"ansatz at own depth {own:.15f}, one layer less {below:.4f}; "
        f"target bound up to depth 7 {ceiling:.5f}"
    )


def check_born_frequencies():
    p = spin_ops.bond_projector("spin1")
    kraus = mite.measurement_kraus(0.5, p)
    state = statevec.product_state(2, 3)  # stretched pair, E = 1
    p0 = (np.cos(0.5) - np.sin(0.5)) ** 2 / 2
    rng = np.random.default_rng(11)
    n = 10_000
    hits = sum(1 - statevec.born_sample(kraus, 1, state, rng)[0] for _ in range(n))
    se = np.sqrt(p0 * (1 - p0) / n)
    dev = abs(hits / n - p0) / se
    return dev <= 3.0, f"empirical p0 {hits / n:.4f} vs {p0:.4f} ({dev:.2f} sigma)"


def check_own_measurements_preserve_mean_weight():
    """Both Kraus operators commute with P, so sum_q m_q' P m_q = P and a
    bond's own measurements keep its expected excited weight: each outcome
    of ``mite.two_level_sample``, weighted by its Born probability
    p_q = |m_q psi|^2 under the matrix pair on the two-level model
    psi = (sqrt w, sqrt(1 - w)), P = diag(1, 0), averages back to w.  A
    stub generator picks the outcome: a draw of 0 gives q = 0, and of
    1 - 2**-53, the largest value ``Generator.random`` returns, q = 1."""
    proj = np.diag([1.0, 0.0])
    worst = 0.0
    outcomes_ok = True
    for eps in (0.1, 0.5, 0.75, 1.0):
        gains = mite.measurement_gains(eps)
        kraus = mite.measurement_kraus(eps, proj)
        for w in np.linspace(0.0, 1.0, 101):
            psi = np.array([np.sqrt(w), np.sqrt(1.0 - w)])
            mean = 0.0
            for q, (m, u) in enumerate(((kraus.m0, 0.0), (kraus.m1, 1.0 - 2.0**-53))):
                bond = mite.TwoLevelBond(0, None, None, float(w), None)
                stub = SimpleNamespace(random=lambda: u)
                outcomes_ok &= mite.two_level_sample(bond, gains, stub) == q
                mean += np.linalg.norm(m @ psi) ** 2 * bond.w
            worst = max(worst, float(abs(mean - w)))
    return outcomes_ok and worst <= 1e-15, f"max |p0 w0' + p1 w1' - w| {worst:.2e}"


@dataclasses.dataclass(frozen=True)
class FullStateKernel:
    """Bond kernel for ``mite.prepare`` that keeps the whole frame: each
    measurement collapses it with the matrix Kraus pair of ``epsilon``
    (outcome q with probability |m_q psi|^2, then m_q psi renormalized),
    and the excited weight is read back from the collapsed frame."""

    epsilon: float

    def open(self, frame, j, projector):
        return FullStateBond(frame, projector, mite.measurement_kraus(self.epsilon, projector))


@dataclasses.dataclass
class FullStateBond:
    psi: np.ndarray
    projector: np.ndarray
    kraus: statevec.KrausPair

    @property
    def w(self) -> float:
        excited = self.projector @ self.psi
        return float(np.vdot(excited, excited).real)

    def sample(self, gains, rng) -> int:
        # ``gains`` feed the two-level kernel; this one collapses with its own pair
        psi0 = self.kraus.m0 @ self.psi
        q, psi = (0, psi0) if rng.random() < np.vdot(psi0, psi0).real else (1, self.kraus.m1 @ self.psi)
        self.psi = psi / np.linalg.norm(psi)
        return q

    def kick(self, u):
        self.psi = u @ self.psi
        return self

    def state(self):
        return self.psi


@dataclasses.dataclass
class RecordingKernel:
    """Bond kernel for one trajectory that runs ``inner`` and, after each of
    bond j's measurements, appends (t, min(1, max(0, 1 - w))) to
    ``series[j]``: t counts the bond's measurements over all its visits
    from 1, and a correction rewrites the last pair with the kicked bond's
    value."""

    inner: object
    series: dict = dataclasses.field(default_factory=dict)

    def open(self, frame, j, projector):
        return RecordingBond(self.inner.open(frame, j, projector), self.series.setdefault(j, []))


@dataclasses.dataclass
class RecordingBond:
    bond: object
    series: list

    def _record(self):
        self.series.append((len(self.series) + 1, min(1.0, max(0.0, 1.0 - self.bond.w))))

    def sample(self, gains, rng) -> int:
        q = self.bond.sample(gains, rng)
        self._record()
        return q

    def kick(self, u):
        self.bond = self.bond.kick(u)
        self.series.pop()
        self._record()
        return self

    def state(self):
        return self.bond.state()


# float series of a TrajectoryRecord; every other field must match exactly
_FLOAT_FIELDS = ("f_tot", "partial", "sym_weight")


def _recorded_run(config, n, mode, inner):
    """``mite.prepare`` on ``RecordingKernel(inner)`` as (exact fields, float
    arrays): the bond series' indices go to the exact part and their values
    to the float part."""
    kernel = RecordingKernel(inner)
    exact, floats = {}, {}
    for name, value in dataclasses.asdict(mite.prepare(config, n, mode, kernel=kernel)).items():
        if value is not None and name in _FLOAT_FIELDS:
            exact[name], floats[name] = np.shape(value), np.ravel(value)
        else:
            exact[name] = value
    exact["bond_series"] = {j: [t for t, _ in pairs] for j, pairs in kernel.series.items()}
    floats["bond_series"] = np.array([f for pairs in kernel.series.values() for _, f in pairs])
    return exact, floats


TWO_LEVEL_CASES = ((4, "spin1"), (6, "spin1"), (5, "qubit"))


def check_two_level_kernel(cases=TWO_LEVEL_CASES, seeds=(0,), r_max: int = 10):
    """``mite.prepare`` against itself on ``FullStateKernel``, noiseless and
    with z-noise sigma2 = 1e-2, each in a ``RecordingKernel``: every integer
    and ``None`` field of the records and the bond-series indices identical,
    the float series and the bond-series values within 1e-12."""
    worst = dict.fromkeys(_FLOAT_FIELDS + ("bond_series",), 0.0)
    diverged = []
    for n, mode in cases:
        for sigma2 in (0.0, 1e-2):
            for seed in seeds:
                config = mite.MiteConfig(seed=seed, r_max=r_max, noise_sigma2=sigma2,
                                         noise_axis="z" if sigma2 else None)
                got, got_floats = _recorded_run(config, n, mode, mite.TwoLevelBond)
                want, want_floats = _recorded_run(config, n, mode, FullStateKernel(config.epsilon))
                differ = [name for name in want if got[name] != want[name]]
                if differ:
                    diverged.append(f"{mode} N={n} sigma2={sigma2} seed={seed} ({', '.join(differ)})")
                    continue
                for name, values in want_floats.items():
                    worst[name] = max(worst[name], _maxabs(got_floats[name] - values))
    detail = "worst diff " + ", ".join(f"{name} {gap:.2e}" for name, gap in worst.items())
    if diverged:
        detail = f"records diverge: {'; '.join(diverged)}; " + detail
    return not diverged and max(worst.values()) <= 1e-12, detail


CHECKS = [
    ("spin1_su2_algebra", check_spin1_algebra),
    ("spin1_casimir", check_spin1_casimir),
    ("spin_half_algebra", check_spin_half_algebra),
    ("bond_projector_idempotent", check_projector_idempotent),
    ("bond_projector_hermitian_trace5", check_projector_hermitian_trace),
    ("bond_projector_spectrum_0x4_1x5", check_projector_spectrum),
    ("bond_projector_forms_agree", check_projector_forms_agree),
    ("coupled_basis_projector_action", check_coupled_basis_action),
    ("adjacent_projectors_noncommute", check_adjacent_projectors_noncommute),
    ("kraus_completeness", check_kraus_completeness),
    ("aklt_zero_energy", check_aklt_zero_energy),
    ("aklt_closed_form_matches_ed", check_aklt_closed_form_matches_ed),
    ("aklt_common_projector", check_aklt_common_projector),
    ("correction_unitarity", check_correction_unitarity),
    ("mapped_projector_swap_symmetry", check_mapped_swap_symmetry),
    ("mapped_projector_isometry_pullback", check_mapped_isometry_pullback),
    ("qubit_reference_equivalence", check_qubit_reference_equivalence),
    ("symmetric_weight_initial_state", check_symmetric_weight_initial),
    ("target_unitary_closed_form", check_target_unitary_closed_form),
    ("ansatz_circuit_unitarity", check_circuit_unitarity),
    ("gradient_finite_difference", check_gradient_finite_difference),
    ("recompile_schmidt_fidelity_bound", check_schmidt_fidelity_bound),
    ("born_rule_frequencies", check_born_frequencies),
    ("own_measurements_preserve_mean_weight", check_own_measurements_preserve_mean_weight),
    ("two_level_kernel_matches_full_state", check_two_level_kernel),
]


def all_checks() -> list[tuple[str, bool, str]]:
    """Run every check in ``CHECKS``; a check that raises counts as failed."""
    results = []
    for name, fn in CHECKS:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results
