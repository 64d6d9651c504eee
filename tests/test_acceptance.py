"""Acceptance gate: one test per criterion, at the stated tolerances.

Heavyweight artifacts (exact references, trajectory batteries) are computed
once per session and shared.  Each test prints its measured numbers; run

    pytest tests/test_acceptance.py -v -rA

to see them.  Two criteria are known-red and carry their analysis in
their docstrings (see also notes in the repository's review
ledger): the within-100-measurement partial-fidelity bound and the
0.9999 recompilation fidelity at depth 4.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from aklt_mite import mite, recompile, spin_ops
from aklt_mite.cli import main as cli_main
from aklt_mite.statevec import born_sample, partial_fidelity, product_state
from aklt_mite.verify import RecordingKernel

from conftest import phase_aligned_distance

R_MAX = 100
RUNS = 20
BASE_SEED = 0


@pytest.fixture(scope="module")
def references():
    """Exact-diagonalization references: the oracle the closed form is held to."""
    return {n: spin_ops.exact_aklt_state(n) for n in range(3, 9)}


def battery(n, mode="spin1", runs=RUNS, **overrides):
    """Records of ``runs`` trajectories seeded ``seed + run_id``, the seed
    layout of ``mite.run_trajectories``, each on its own ``RecordingKernel``,
    and the runs' per-bond series."""
    # acceptance runs go the full r_max so late rounds are measured, not
    # frozen by the early-stop convenience
    cfg = mite.MiteConfig(**{"seed": BASE_SEED, "r_max": R_MAX, "early_stop": None, **overrides})
    records, series = [], []
    for run_id in range(runs):
        kernel = RecordingKernel(mite.TwoLevelBond)
        records.append(mite.prepare(replace(cfg, seed=cfg.seed + run_id), n, mode, kernel=kernel))
        series.append(kernel.series)
    return records, series


@pytest.fixture(scope="module")
def spin1_runs():
    return {n: battery(n) for n in (4, 6)}


@pytest.fixture(scope="module")
def spin1_batteries(spin1_runs):
    return {n: records for n, (records, _) in spin1_runs.items()}


@pytest.fixture(scope="module")
def noise_batteries():
    out = {}
    for axis in ("x", "z"):
        for sigma2 in (1e-4, 1e-2):
            out[(axis, sigma2)], _ = battery(4, noise_axis=axis, noise_sigma2=sigma2)
    return out


def mean_padded(records):
    return np.stack([mite.padded_series(r, R_MAX) for r in records]).mean(axis=0)


def padded_peak_series(record, r_max):
    """Per-round bond-averaged peak estimates padded to length r_max."""
    p = [float(np.mean(row)) for row in record.e_peak]
    if not p:
        return np.zeros(r_max)
    p.extend([p[-1]] * (r_max - len(p)))
    return np.array(p[:r_max])


# ---------------------------------------------------------------------------


def test_criterion_1_operator_identities():
    """P^2 = P, Hermiticity, spectrum {0 x4, 1 x5}, trace 5; Kraus
    completeness <= 1e-12; correction unitaries unitary <= 1e-12; target
    unitary closed form vs exponential oracle <= 1e-10."""
    p = spin_ops.bond_projector("spin1")
    assert np.max(np.abs(p @ p - p)) <= 1e-12
    assert np.max(np.abs(p - p.conj().T)) <= 1e-12
    assert abs(np.trace(p).real - 5.0) <= 1e-12
    vals = np.sort(np.linalg.eigvalsh(p))
    assert np.allclose(vals, [0] * 4 + [1] * 5, rtol=0, atol=1e-12)

    for mode in ("spin1", "qubit"):
        pm = spin_ops.bond_projector(mode)
        k = mite.measurement_kraus(0.5, pm)
        comp = k.m0.conj().T @ k.m0 + k.m1.conj().T @ k.m1 - np.eye(pm.shape[0])
        assert np.max(np.abs(comp)) <= 1e-12

    rng = np.random.default_rng(1)
    for site in (spin_ops.spin1_matrices(), spin_ops.paired_site_matrices()):
        for _ in range(25):
            u = mite.correction_unitary(site, rng)
            assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= 1e-12

    eps = 0.5
    sy = np.array([[0, -1j], [1j, 0]])
    target = recompile.target_unitary(eps)
    oracle = expm(-1j * eps * np.kron(spin_ops.bond_projector("qubit"), sy))
    defect = np.max(np.abs(target - oracle))
    print(f"criterion 1: closed-form-vs-expm defect {defect:.2e}")
    assert defect <= 1e-10


def test_criterion_2_aklt_oracle(references):
    """For N = 3..8: zero ground energy within 1e-8, unique zero mode, and
    unit weight in every bond's kernel within 1e-9; the closed-form
    reference every job uses equals that zero mode within 1e-12."""
    p = spin_ops.bond_projector("spin1")
    for n, ref in references.items():
        assert abs(ref.energy) <= 1e-8
        for j in range(1, n + 1):
            assert abs(partial_fidelity(ref.state, j, p) - 1.0) <= 1e-9
        resid = np.linalg.norm(spin_ops.hamiltonian_apply(ref.state).amps)
        gap = phase_aligned_distance(spin_ops.aklt_state(n).state.amps, ref.state.amps)
        print(f"criterion 2: N={n} E0={ref.energy:.2e} |H psi|={resid:.2e} "
              f"|psi_closed - psi_ED|={gap:.2e}")
        assert resid <= 1e-10
        assert gap <= 1e-12
    # uniqueness is enforced inside the solver; a degenerate zero space raises


def test_criterion_3_direct_projection(references):
    """Projection cascade reaches F = 0.9 within 12 rounds for every
    N = 3..8, with max/min round count at most 3."""
    r_c = {}
    for n in range(3, 9):
        series = mite.direct_projection_converge(n, r_max=15, reference=references[n])
        r_c[n] = mite.critical_rounds(series, 0.9)
    print("criterion 3: r_c =", {n: round(v, 2) for n, v in r_c.items()})
    assert all(v <= 12 for v in r_c.values())
    assert max(r_c.values()) / min(r_c.values()) <= 3.0


def test_criterion_4a_mean_fidelity(spin1_batteries):
    """N = 4 and N = 6 trajectory means reach 0.9 by round 100."""
    for n, records in spin1_batteries.items():
        curve = mean_padded(records)
        print(f"criterion 4a: N={n} mean F(100) = {curve[-1]:.4f}")
        assert curve[-1] >= 0.9


def test_criterion_4b_partial_fidelity_within_T100(spin1_runs):
    """KNOWN RED.  Stated bound: the trajectory-mean per-bond partial
    fidelity reaches 0.9 within the bond's first 100 measurements.

    Lemma 1 (``test_lemma_1_every_visit_spends_window_measurements``): a
    visit ends only at ``streak >= window`` or at t = ``n_iter`` >=
    ``window``, and a correction resets both counters, so every visit
    spends at least ``window`` = 10 measurements on its bond.  A round
    visits each bond once, so a bond's first 100 measurements fall in its
    first 10 rounds: every value the bound reads is of a state from them.

    Lemma 2 (``verify`` check ``own_measurements_preserve_mean_weight``):
    both Kraus operators commute with the bond projector, so a bond's own
    measurements leave its expected excited weight unchanged.  The mean
    partial fidelity rises only at corrections and at the neighbouring
    bonds' operations.

    The test prints the curve's maximum over T <= 100 and, per chain
    length, the last round that holds a bond's 100th measurement and the
    mean partial fidelity at round 10.  The bound is kept as stated rather
    than loosened.
    """
    curves = []
    for _, run_series in spin1_runs.values():
        for bonds in run_series:
            for series in bonds.values():
                by_t = dict(series)
                filled, last = [], 0.0
                for t in range(1, 101):
                    last = by_t.get(t, last)
                    filled.append(last)
                curves.append(filled)
    mean_curve = np.stack(curves).mean(axis=0)
    for n, (records, _) in spin1_runs.items():
        last = max(int(np.searchsorted(np.cumsum([row[b] for row in rec.measurements]), 100)) + 1
                   for rec in records for b in range(n))
        at_10 = np.mean([rec.partial[10] for rec in records])
        print(f"criterion 4b: N={n} 100th measurement by round {last}; "
              f"mean partial fidelity at round 10 = {at_10:.3f}")
    print(f"criterion 4b: max mean partial fidelity over T<=100 = {mean_curve.max():.3f}")
    assert mean_curve.max() >= 0.9


def test_lemma_1_every_visit_spends_window_measurements(spin1_batteries):
    """Lemma 1 of criterion 4b: a visit ends only at ``streak >= window`` or
    at t = ``n_iter`` >= ``window``, and a correction resets both counters,
    so every visit spends at least ``window`` measurements on its bond."""
    window = mite.MiteConfig().window
    fewest = min(min(row) for records in spin1_batteries.values()
                 for rec in records for row in rec.measurements)
    print(f"lemma 1: fewest measurements in one visit = {fewest} (window {window})")
    assert fewest >= window


def test_criterion_4c_peak_energy_tail(spin1_batteries):
    """The trajectory-averaged peak-energy estimate sits below 1e-2 in
    magnitude from round 80 on (the paper-scale value is ~1e-3; an order
    of magnitude is allowed for the reduced trajectory count)."""
    for n, records in spin1_batteries.items():
        peaks = np.stack([padded_peak_series(r, R_MAX) for r in records])
        tail = np.abs(peaks.mean(axis=0)[79:]).mean()
        print(f"criterion 4c: N={n} |mean peak| over r>=80 = {tail:.4f}")
        assert tail < 1e-2


def test_criterion_5_size_independence(spin1_batteries):
    """Median rounds to F = 0.9 for N = 4 vs N = 6 within a factor of 2."""
    medians = {}
    for n, records in spin1_batteries.items():
        crossings = []
        for rec in records:
            try:
                crossings.append(mite.critical_rounds(mite.padded_series(rec, R_MAX), 0.9))
            except ValueError:
                crossings.append(float(R_MAX))
        medians[n] = float(np.median(crossings))
    ratio = max(medians.values()) / min(medians.values())
    print(f"criterion 5: median rounds to 0.9 = {medians}, ratio = {ratio:.2f}")
    assert ratio <= 2.0


def test_criterion_6_qubit_mode():
    """Qubit encoding at N = 3, eta = 2: mean F reaches 0.9 by round 100
    and the symmetric-sector weight stays 1 within 1e-9 every round."""
    records, _ = battery(3, mode="qubit")
    curve = mean_padded(records)
    print(f"criterion 6: qubit N=3 mean F(100) = {curve[-1]:.4f}")
    assert curve[-1] >= 0.9
    for rec in records:
        assert all(abs(w - 1.0) <= 1e-9 for w in rec.sym_weight)


def test_criterion_7_noise(noise_batteries):
    """Weak noise barely harms the preparation; strong noise still reaches
    three quarters; early-stage suppression is worse for x than z."""
    finals = {}
    for key, records in noise_batteries.items():
        finals[key] = mean_padded(records)[-1]
    print("criterion 7: final means =",
          {f"{ax},{s2:g}": round(v, 4) for (ax, s2), v in finals.items()})
    assert finals[("x", 1e-4)] >= 0.95
    assert finals[("z", 1e-4)] >= 0.95
    assert finals[("x", 1e-2)] >= 0.75
    assert finals[("z", 1e-2)] >= 0.75
    early = {}
    for axis in ("x", "z"):
        curves = np.stack([mite.padded_series(r, R_MAX) for r in noise_batteries[(axis, 1e-2)]])
        early[axis] = curves[:, 1:21].mean()
    print(f"criterion 7: early-round means x={early['x']:.4f} z={early['z']:.4f}")
    assert early["x"] <= early["z"]


def test_criterion_8a_recompilation_fidelity():
    """KNOWN RED.  Stated bound: best-of->=20 repetitions at depth 4
    reaches fidelity 0.9999.

    No optimizer can meet it, by operator Schmidt rank
    (``recompile.schmidt_fidelity_bound``).  Across the cut between qubits
    k and k+1 only the CNOTs on that pair cross, each of rank 2: odd layers
    cross cuts 1|2 and 3|4, even layers 2|3 and 4|5, so a depth-L ansatz
    has rank at most 2^(layers crossing the cut).  A unitary V of rank r
    has |Tr(V'U)|/d <= sqrt(sum_{i<=r} s_i^2), with s_i the target's
    Schmidt values across the cut normalised to sum s_i^2 = 1.  The
    target's ranks across the four cuts are 4, 10, 5 and 2, and the
    minimum over cuts is 0.99361 at depths 4-5 (0.99957 at 6-7): below
    0.9999 at every depth up to 7.  The optimizer's best, 0.974695 at
    depth 4, sits under the bound, as ``verify`` and the recompile tests
    check.  The criterion is left as stated rather than re-targeted.
    """
    cfg = recompile.OptimizerConfig(maxiter=100, n_hops=5, repetitions=RUNS, seed=BASE_SEED)
    report = recompile.recompile_scan(0.5, [4], cfg)
    best = report.summary()[4]["max_fidelity"]
    bound = recompile.schmidt_fidelity_bound(recompile.target_unitary(0.5), 4)
    print(f"criterion 8a: max fidelity over {RUNS} repetitions at depth 4 = {best:.6f}"
          f" (Schmidt-rank bound {bound:.5f})")
    assert best >= 0.9999


def test_criterion_8b_cnot_count():
    """The depth needed by the best solutions keeps the CNOT count at or
    below 12 (two per layer, depth <= 6)."""
    assert recompile.cnot_count(4) == 8
    assert recompile.cnot_count(6) == 12
    assert all(recompile.cnot_count(nl) <= 12 for nl in range(7))


def test_criterion_9_statistical_sanity(tmp_path):
    """Born frequencies within 3 standard errors over >= 1e4 samples, and
    byte-identical outputs for identical seeds."""
    p = spin_ops.bond_projector("spin1")
    kraus = mite.measurement_kraus(0.5, p)
    state = product_state(2, d=3)
    p0 = (math.cos(0.5) - math.sin(0.5)) ** 2 / 2
    rng = np.random.default_rng(123)
    n = 10_000
    zeros = sum(1 - born_sample(kraus, 1, state, rng)[0] for _ in range(n))
    se = math.sqrt(p0 * (1 - p0) / n)
    dev = abs(zeros / n - p0) / se
    print(f"criterion 9: empirical p0 = {zeros / n:.4f}, analytic {p0:.4f} ({dev:.2f} se)")
    assert dev <= 3.0

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code = cli_main(["prepare", "--n", "4", "--runs", "3", "--rounds", "5",
                         "--seed", "1", "--out", str(out)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
