"""Named self-checks covering every operator identity the method relies on.

Each check returns (passed, detail).  The suite is what ``aklt-mite verify``
runs; it is deliberately redundant with the test suite so a deployed build
can be validated without a test harness present.  The ``expm`` oracles
import scipy inside their checks, so importing this module (and with it the
CLI) does not load scipy.
"""

from __future__ import annotations

import numpy as np

from . import mite, qubit_map, recompile, spin_ops, statevec

Check = tuple[str, "callable"]


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
    ok = np.allclose(vals[:4], 0, atol=1e-12) and np.allclose(vals[4:], 1, atol=1e-12)
    return ok, f"eigenvalues {np.round(vals, 12)}"


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
    return norm > 1e-6, f"commutator norm {norm:.3f} (must be nonzero)"


def check_kraus_completeness(defect_mode: str | None = None):
    tol = 1e-12
    worst = 0.0
    for mode in ("spin1", "qubit"):
        p = spin_ops.bond_projector(mode)
        if defect_mode == "kraus-half":
            # deliberately corrupted normalization: 1/2 instead of 1/sqrt(2)
            eye = np.eye(p.shape[0])
            c, s = np.cos(0.5), np.sin(0.5)
            m0 = (eye + (c - 1 - s) * p) / 2
            m1 = (eye + (c - 1 + s) * p) / 2
            comp = m0.conj().T @ m0 + m1.conj().T @ m1 - eye
        else:
            k = mite.measurement_kraus(0.5, p)
            comp = k.m0.conj().T @ k.m0 + k.m1.conj().T @ k.m1 - np.eye(p.shape[0])
        worst = max(worst, _maxabs(comp))
    return worst <= tol, f"completeness defect {worst:.2e}"


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
            for v in (2 * np.pi * rng.random(3), 0.1 * rng.standard_normal(3)):
                gen = v[0] * mats.sx + v[1] * mats.sy + v[2] * mats.sz
                worst_expm = max(worst_expm, _maxabs(mite.site_rotation(v, mats) - expm(1j * gen)))
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
    st = statevec.product_state(3, d=4, local=0)
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


def check_born_frequencies():
    p = spin_ops.bond_projector("spin1")
    kraus = mite.measurement_kraus(0.5, p)
    state = statevec.product_state(2, d=3, local=0)  # stretched pair, E = 1
    p0 = (np.cos(0.5) - np.sin(0.5)) ** 2 / 2
    rng = np.random.default_rng(11)
    n = 10_000
    hits = sum(1 - statevec.born_sample(kraus, 1, state, rng)[0] for _ in range(n))
    se = np.sqrt(p0 * (1 - p0) / n)
    dev = abs(hits / n - p0) / se
    return dev <= 3.0, f"empirical p0 {hits / n:.4f} vs {p0:.4f} ({dev:.2f} sigma)"


def reference_visit(state, j, chain, config, rng, counter, bond_series, bond_t0):
    """``mite.mite_subroutine`` on the full state: every measurement is one
    ``statevec.born_sample`` with the matrix Kraus pair, under the same
    trigger logic, and the bond series reads ``statevec.partial_fidelity``."""
    kraus = mite.measurement_kraus(config.epsilon, chain.projector)
    e_th = config.e_th(chain.mode)
    stats = mite.SubroutineStats(bond=j)
    streak = t = 0
    while t < config.n_iter:
        q, state = statevec.born_sample(kraus, j, state, rng)
        t += 1
        stats.measurements += 1
        counter.record(q)
        if counter.total > config.counter_cap:
            counter.rescale()
        e_peak = mite.peak_energy(counter.k0, counter.k1, config.epsilon)
        stats.e_peak_last = e_peak
        if counter.run1 >= config.fire_window and e_peak >= e_th:
            state = statevec.apply_two_site(mite.correction_unitary(chain.site, rng), j, state)
            stats.corrections += 1
            counter.reset()
            streak = t = 0
        else:
            streak = streak + 1 if e_peak < e_th else 0
        bond_series.append(
            (bond_t0 + stats.measurements, statevec.partial_fidelity(state, j, chain.projector))
        )
        if streak >= config.window:
            stats.converged = True
            break
    return state, stats


def reference_trajectory(config, n: int, mode: str) -> mite.TrajectoryRecord:
    """``mite.prepare`` with every visit run by ``reference_visit``; fills
    the record fields the two-level kernel must reproduce."""
    chain = mite.build_chain(n, mode)
    rng = np.random.default_rng(config.seed)
    state = chain.initial_state()
    counters = {j: mite.MeasurementCounter() for j in range(1, n + 1)}
    series = {j: [] for j in range(1, n + 1)}
    rec = mite.TrajectoryRecord(
        n=n, mode=mode, seed=config.seed, rounds_executed=0,
        f_tot=[statevec.fidelity(state, chain.reference.state)], partial=[], e_peak=[],
        corrections=[], measurements=[], converged_round=None, bond_series=series,
    )
    odd, even = chain.bonds()
    for r in range(1, config.r_max + 1):
        if config.noise_axis is not None:
            state = mite.apply_noise(state, config.noise_axis, config.noise_sigma2, rng, chain.site)
        by_bond = {}
        for j in odd + even:
            state, by_bond[j] = reference_visit(
                state, j, chain, config, rng, counters[j], series[j], len(series[j])
            )
            if by_bond[j].corrections > 0:
                counters[1 + (j - 2) % n].reset()
                counters[1 + j % n].reset()
        rec.rounds_executed = r
        rec.f_tot.append(statevec.fidelity(state, chain.reference.state))
        rec.e_peak.append([by_bond[j].e_peak_last for j in range(1, n + 1)])
        rec.corrections.append(sum(st.corrections for st in by_bond.values()))
        rec.measurements.append([by_bond[j].measurements for j in range(1, n + 1)])
        if config.early_stop is not None and rec.f_tot[-1] > 1.0 - config.early_stop:
            rec.converged_round = r
            break
    return rec


TWO_LEVEL_CASES = ((4, "spin1"), (6, "spin1"), (5, "qubit"))


def check_two_level_kernel(cases=TWO_LEVEL_CASES, seeds=(0,), r_max: int = 10):
    """``mite.prepare`` against ``reference_trajectory``, noiseless and with
    z-noise sigma2 = 1e-2, bond series on: identical outcome, measurement
    and correction records, fidelities and bond series within 1e-12."""
    tol = 1e-12
    worst_f = worst_series = 0.0
    diverged = []
    for n, mode in cases:
        for sigma2 in (0.0, 1e-2):
            for seed in seeds:
                config = mite.MiteConfig(
                    seed=seed, r_max=r_max, record_bond_series=True,
                    noise_axis="z" if sigma2 else None, noise_sigma2=sigma2,
                )
                got = mite.prepare(config, n, mode)
                want = reference_trajectory(config, n, mode)
                same = (
                    got.e_peak == want.e_peak
                    and got.measurements == want.measurements
                    and got.corrections == want.corrections
                    and got.converged_round == want.converged_round
                    and all(
                        [t for t, _ in got.bond_series[j]] == [t for t, _ in want.bond_series[j]]
                        for j in want.bond_series
                    )
                )
                if not same:
                    diverged.append(f"{mode} N={n} sigma2={sigma2} seed={seed}")
                    continue
                worst_f = max(worst_f, _maxabs(np.subtract(got.f_tot, want.f_tot)))
                for j, pairs in want.bond_series.items():
                    diff = np.subtract([f for _, f in got.bond_series[j]], [f for _, f in pairs])
                    worst_series = max(worst_series, _maxabs(diff))
    detail = f"worst |dF| {worst_f:.2e}, worst bond-series diff {worst_series:.2e}"
    if diverged:
        detail = f"records diverge: {', '.join(diverged)}; " + detail
    return not diverged and worst_f <= tol and worst_series <= tol, detail


def all_checks(defect_mode: str | None = None) -> list[tuple[str, bool, str]]:
    """Run every named check; ``defect_mode`` injects deliberate faults."""
    checks = [
        ("spin1_su2_algebra", check_spin1_algebra),
        ("spin1_casimir", check_spin1_casimir),
        ("spin_half_algebra", check_spin_half_algebra),
        ("bond_projector_idempotent", check_projector_idempotent),
        ("bond_projector_hermitian_trace5", check_projector_hermitian_trace),
        ("bond_projector_spectrum_0x4_1x5", check_projector_spectrum),
        ("bond_projector_forms_agree", check_projector_forms_agree),
        ("coupled_basis_projector_action", check_coupled_basis_action),
        ("adjacent_projectors_noncommute", check_adjacent_projectors_noncommute),
        ("kraus_completeness", lambda: check_kraus_completeness(defect_mode)),
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
        ("born_rule_frequencies", check_born_frequencies),
        ("two_level_kernel_matches_full_state", check_two_level_kernel),
    ]
    results = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results
