import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from aklt_mite import mite, spin_ops, statevec, verify
from aklt_mite.statevec import (
    StateVector,
    apply_two_site,
    born_sample,
    fidelity,
    partial_fidelity,
    product_state,
)

from conftest import random_unit_vector


class TestMeasurementKraus:
    def test_matches_spectral_construction(self, proj9):
        # oracle: build the pair from the coupled |S, m> eigenbasis directly
        eps = 0.5
        kraus = mite.measurement_kraus(eps, proj9)
        for q, mat in ((0, kraus.m0), (1, kraus.m1)):
            spectral = np.zeros((9, 9), dtype=complex)
            for cs in spin_ops.coupled_basis():
                e = 1.0 if cs.s == 2 else 0.0
                factor = math.cos(eps * e) - (-1) ** q * math.sin(eps * e)
                spectral += factor * np.outer(cs.vec, cs.vec.conj())
            spectral /= np.sqrt(2)
            assert np.max(np.abs(mat - spectral)) <= 1e-12

    @pytest.mark.parametrize("mode", ["spin1", "qubit"])
    def test_completeness(self, mode):
        p = spin_ops.bond_projector(mode)
        k = mite.measurement_kraus(0.5, p)
        comp = k.m0.conj().T @ k.m0 + k.m1.conj().T @ k.m1
        assert np.max(np.abs(comp - np.eye(p.shape[0]))) <= 1e-12

    def test_scalar_actions(self, proj9):
        eps = 0.5
        kraus = mite.measurement_kraus(eps, proj9)
        kernel_vec = next(c.vec for c in spin_ops.coupled_basis() if c.s == 0)
        range_vec = next(c.vec for c in spin_ops.coupled_basis() if c.s == 2)
        for mat in (kraus.m0, kraus.m1):
            assert np.allclose(mat @ kernel_vec, kernel_vec / np.sqrt(2), atol=1e-12)
        factor0 = (math.cos(eps) - math.sin(eps)) / np.sqrt(2)
        assert factor0 == pytest.approx(0.2816, abs=1e-4)
        assert np.allclose(kraus.m0 @ range_vec, factor0 * range_vec, atol=1e-12)

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError):
            mite.measurement_kraus(0.5, 0.5 * np.eye(4))


class TestPeakEnergy:
    def test_symmetric_counts(self):
        assert mite.peak_energy(7, 7, 0.5) == 0.0

    def test_pure_excited_counts(self):
        assert mite.peak_energy(0, 12, 0.5) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_direct_evaluation(self):
        assert mite.peak_energy(3, 5, 0.5) == pytest.approx(math.asin(0.25), abs=1e-12)
        assert mite.peak_energy(3, 5, 0.5) == pytest.approx(0.2527, abs=5e-5)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            mite.peak_energy(0, 0, 0.5)

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_bounded_by_quarter_turn(self, k0, k1):
        if k0 + k1 == 0:
            return
        e = mite.peak_energy(k0, k1, 0.5)
        assert abs(e) <= np.pi / 2 + 1e-12


class TestAmplitudeDiagnostic:
    def test_peak_location_consistent(self):
        # oracle: grid argmax of the accumulated log amplitude
        # k0 log|cos(chi + pi/4)| + k1 log|cos(chi - pi/4)| sits at the closed-form estimate
        k0, k1, eps = 10, 30, 0.5
        chis = np.linspace(-np.pi / 4 + 1e-3, np.pi / 4 - 1e-3, 20001)
        values = k0 * np.log(np.abs(np.cos(chis + np.pi / 4))) + k1 * np.log(
            np.abs(np.cos(chis - np.pi / 4))
        )
        chi_star = chis[int(np.argmax(values))]
        assert chi_star / eps == pytest.approx(mite.peak_energy(k0, k1, eps), abs=1e-3)


class TestCorrectionUnitary:
    def test_zero_angles_identity(self):
        s1 = spin_ops.spin1_matrices()
        assert np.allclose(mite.site_rotation([0, 0, 0], s1), np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("maker", [spin_ops.spin1_matrices, spin_ops.paired_site_matrices])
    def test_unitarity(self, maker):
        site = maker()
        rng = np.random.default_rng(3)
        for _ in range(100):
            u = mite.correction_unitary(site, rng)
            assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= 1e-12

    def test_full_z_turn_is_identity_for_integer_spin(self):
        # 2 pi rotation of a spin-1: exp(2 pi i Sz) = diag(e^{2pi i}, 1, e^{-2pi i})
        s1 = spin_ops.spin1_matrices()
        assert np.allclose(mite.site_rotation([0, 0, 2 * np.pi], s1), np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("maker", [spin_ops.spin1_matrices, spin_ops.paired_site_matrices])
    def test_closed_form_matches_expm(self, maker):
        site = maker()
        rng = np.random.default_rng(8)
        vectors = [np.zeros(3), [0.0, 0.0, 1e-9]]
        vectors += [2 * np.pi * rng.random(3) for _ in range(50)]  # correction-sized
        vectors += [0.1 * rng.standard_normal(3) for _ in range(50)]  # noise-sized
        for v in vectors:
            gen = v[0] * site.sx + v[1] * site.sy + v[2] * site.sz
            assert np.max(np.abs(mite.site_rotation(v, site) - expm(1j * gen))) <= 1e-12

    def test_six_draw_reproducibility(self):
        s1 = spin_ops.spin1_matrices()
        u1 = mite.correction_unitary(s1, np.random.default_rng(5))
        u2 = mite.correction_unitary(s1, np.random.default_rng(5))
        assert np.array_equal(u1, u2)


class TestConfig:
    def test_defaults_give_threshold_below_midpoint(self):
        cfg = mite.MiteConfig()
        assert cfg.e_th("spin1") == pytest.approx(0.125)
        assert cfg.e_th("qubit") == pytest.approx(0.25)

    def test_threshold_at_midpoint_rejected(self):
        with pytest.raises(ValueError):
            mite.MiteConfig(eta=1.0).e_th("spin1")

    def test_window_bounds(self):
        with pytest.raises(ValueError):
            mite.MiteConfig(window=31, n_iter=30)
        with pytest.raises(ValueError):
            mite.MiteConfig(noise_axis="y")


def record_visits(monkeypatch):
    """Log what the subroutine does, in order: each measurement outcome q
    (0 or 1) and ``"fire"`` for each correction."""
    events = []
    sample, correction = mite.two_level_sample, mite.correction_unitary

    def logged_sample(*args):
        q = sample(*args)
        events.append(q)
        return q

    def logged_correction(*args):
        events.append("fire")
        return correction(*args)

    monkeypatch.setattr(mite, "two_level_sample", logged_sample)
    monkeypatch.setattr(mite, "correction_unitary", logged_correction)
    return events


class TestSubroutine:
    def test_excited_bond_draws_a_correction(self, proj9, monkeypatch):
        """A stretched pair keeps producing excited outcomes (p1 ~ 0.92), so
        the feedback loop fires a correction almost surely within a few
        visits of the persistent-counter subroutine."""
        cfg = mite.MiteConfig(seed=0)
        chain = mite.build_chain(3, "spin1")
        two_site = mite.ChainOps(
            n=2, mode="spin1", projector=chain.projector, site=chain.site, reference=None,
        )
        events = record_visits(monkeypatch)
        fired = 0
        first_fire_meas = []
        runs = 1000
        rng = np.random.default_rng(0)
        for _ in range(runs):
            events.clear()
            state = product_state(2, d=3, local=0)
            counter = mite.MeasurementCounter()
            for _visit in range(3):  # the loop spans sweep rounds in practice
                state, stats = mite.mite_subroutine(state, 1, two_site, cfg, rng, counter)
                if stats.corrections > 0:
                    fired += 1
                    # measurements up to and including the one that fired
                    first_fire_meas.append(events.index("fire"))
                    break
        assert fired / runs > 0.99
        # the log holds the outcomes: every trigger follows a complete excited run
        assert min(first_fire_meas) >= cfg.fire_window
        # the trigger needs one clean run of excited outcomes: tens, not hundreds
        assert np.median(first_fire_meas) <= 3 * cfg.fire_window

    def test_measurements_leave_reference_invariant(self, aklt, proj9):
        """The exact fixed point: both outcomes act as 1/sqrt(2) on the
        zero-eigenvalue sector, so sampling never moves the reference."""
        kraus = mite.measurement_kraus(0.5, proj9)
        state = aklt[4].state
        rng = np.random.default_rng(2)
        for j in (1, 2, 3, 4):
            for _ in range(25):
                _, out = born_sample(kraus, j, state, rng)
                assert np.max(np.abs(out.amps - state.amps)) <= 1e-12

    def test_reference_round_trip_without_corrections(self, aklt):
        """While no correction fires, a sweep from the reference returns it
        exactly; corrections off the fixed point are rare (2^-fire_window
        per fresh run) but not impossible, so the invariant is conditional."""
        cfg = mite.MiteConfig(seed=0)
        chain = mite.build_chain(4, "spin1")
        state = aklt[4].state
        rng = np.random.default_rng(0)
        counters = {j: mite.MeasurementCounter() for j in range(1, 5)}
        for _ in range(5):
            state, stats = mite.sweep_round(state, chain, cfg, rng, counters)
            assert sum(s.corrections for s in stats) == 0
            assert fidelity(state, chain.reference.state) == pytest.approx(1.0, abs=1e-9)

    def test_counter_resets_after_each_correction(self, monkeypatch):
        cfg = mite.MiteConfig(seed=0)
        chain = mite.build_chain(3, "spin1")
        state = chain.initial_state()
        rng = np.random.default_rng(1)
        counter = mite.MeasurementCounter()
        events = record_visits(monkeypatch)
        _, stats = mite.mite_subroutine(state, 1, chain, cfg, rng, counter)
        assert stats.corrections >= 1
        assert events.count("fire") == stats.corrections
        stretches = [[]]  # outcomes between corrections
        for event in events:
            if event == "fire":
                stretches.append([])
            else:
                stretches[-1].append(event)
        *fired, last = stretches
        for outcomes in fired:  # each trigger is a complete run of excited outcomes
            assert outcomes[-cfg.fire_window:] == [1] * cfg.fire_window
        # the counter restarted at the last correction (too few outcomes to rescale)
        assert (counter.k0, counter.k1) == (last.count(0), last.count(1))

    def test_deterministic_replay(self, monkeypatch):
        cfg = mite.MiteConfig(seed=0)
        chain = mite.build_chain(3, "spin1")
        events = record_visits(monkeypatch)
        out = []
        for _ in range(2):
            events.clear()
            state = chain.initial_state()
            rng = np.random.default_rng(7)
            state, stats = mite.mite_subroutine(state, 2, chain, cfg, rng)
            out.append((tuple(events), stats.corrections, state.amps.copy()))
        assert out[0][0] == out[1][0]
        assert out[0][1] == out[1][1]
        assert np.array_equal(out[0][2], out[1][2])


class TestTwoLevelKernel:
    @pytest.mark.parametrize("case", verify.TWO_LEVEL_CASES, ids=lambda c: f"{c[1]}-n{c[0]}")
    def test_matches_full_state_reference(self, case):
        passed, detail = verify.check_two_level_kernel(cases=[case], seeds=(0, 1, 2), r_max=30)
        assert passed, detail

    def test_reference_check_catches_a_wrong_collapse(self, monkeypatch):
        # the kernel collapses with epsilon off by 1e-9; the invariants still hold
        gains = mite.measurement_gains
        monkeypatch.setattr(mite, "measurement_gains", lambda eps: gains(eps + 1e-9))
        passed, detail = verify.check_two_level_kernel(cases=[(4, "spin1")], r_max=5)
        assert not passed, detail

    def test_one_projector_application_per_stretch(self, monkeypatch):
        chain = mite.build_chain(3, "spin1")
        calls = []
        apply = mite.apply_two_site

        def counted(op, j, state):
            calls.append(op is chain.projector)
            return apply(op, j, state)

        def forbidden(*args):
            raise AssertionError("the job path called the full-state sampler")

        monkeypatch.setattr(mite, "apply_two_site", counted)
        monkeypatch.setattr(statevec, "born_sample", forbidden)
        rng = np.random.default_rng(1)
        counter = mite.MeasurementCounter()
        corrections = 0
        for visit in range(6):
            calls.clear()
            state, stats = mite.mite_subroutine(
                chain.initial_state(), 1 + visit % 3, chain, mite.MiteConfig(), rng, counter
            )
            corrections += stats.corrections
            assert calls.count(True) == 1 + stats.corrections
            assert calls.count(False) == stats.corrections  # the kicks
        assert corrections > 0

    def test_sampling_matches_the_full_state_collapse(self, proj9, rng):
        state = StateVector(random_unit_vector(rng, 81), 4, 3)
        kraus = mite.measurement_kraus(0.5, proj9)
        bond = mite.TwoLevelBond.open(state, 2, proj9)
        gains = mite.measurement_gains(0.5)
        for seed in range(20):
            q = mite.two_level_sample(bond, gains, np.random.default_rng(seed))
            q_full, state = born_sample(kraus, 2, state, np.random.default_rng(seed))
            assert q == q_full
            assert abs(1 - bond.w - partial_fidelity(state, 2, proj9)) <= 1e-12
        assert np.max(np.abs(bond.state().amps - state.amps)) <= 1e-12

    @pytest.mark.parametrize("field, value", [("alpha", 1.1), ("beta", 0.9), ("w", 1.01), ("w", -0.01)])
    def test_corrupted_scalars_raise_naming_the_bond(self, proj9, rng, field, value):
        state = StateVector(random_unit_vector(rng, 81), 4, 3)
        bond = mite.TwoLevelBond.open(state, 3, proj9)
        mite.two_level_sample(bond, mite.measurement_gains(0.5), rng)
        setattr(bond, field, value if field == "w" else value * getattr(bond, field))
        with pytest.raises(RuntimeError, match="bond 3"):
            bond.state()


class TestSweepRound:
    def test_bond_order_n6(self):
        cfg = mite.MiteConfig(seed=0)
        chain = mite.build_chain(6, "spin1")
        state = chain.initial_state()
        _, stats = mite.sweep_round(state, chain, cfg, np.random.default_rng(0))
        assert [s.bond for s in stats] == [1, 3, 5, 2, 4, 6]

    def test_bond_partition_n4(self):
        assert mite.sweep_order(4) == [1, 3, 2, 4]


class TestPrepare:
    def test_zero_rounds_records_initial_fidelity_only(self):
        rec = mite.prepare(mite.MiteConfig(seed=0, r_max=0), 3, "spin1")
        assert rec.rounds_executed == 0
        assert len(rec.f_tot) == 1
        assert rec.e_peak == []

    def test_series_lengths_consistent(self):
        rec = mite.prepare(mite.MiteConfig(seed=3, r_max=12, early_stop=None), 4, "spin1")
        r = rec.rounds_executed
        assert len(rec.f_tot) == r + 1
        assert len(rec.partial) == r + 1
        assert len(rec.e_peak) == r
        assert len(rec.corrections) == r
        assert len(rec.measurements) == r

    def test_bit_identical_replay(self):
        cfg = mite.MiteConfig(seed=11, r_max=10, record_bond_series=True)
        a = mite.prepare(cfg, 3, "spin1")
        b = mite.prepare(cfg, 3, "spin1")
        assert a.f_tot == b.f_tot
        assert a.e_peak == b.e_peak
        assert a.bond_series == b.bond_series

    def test_trajectory_seed_layout(self):
        recs = mite.run_trajectories(mite.MiteConfig(seed=5, r_max=2), 3, "spin1", 3)
        assert [r.seed for r in recs] == [5, 6, 7]

    def test_fidelity_improves_at_small_size(self):
        rec = mite.prepare(mite.MiteConfig(seed=0), 3, "spin1")
        assert rec.f_tot[-1] > 0.9


class TestNoise:
    def test_zero_variance_is_identity_and_consumes_no_randomness(self):
        state = product_state(3, d=3, local=1)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = mite.apply_noise(state, "x", 0.0, rng, spin_ops.site_matrices("spin1"))
        assert np.array_equal(out.amps, state.amps)
        assert rng.bit_generator.state == before

    def test_z_noise_preserves_amplitude_magnitudes(self):
        # diagonal generator: only phases move on an Sz-basis product state
        state = product_state(3, d=3, local=0)
        out = mite.apply_noise(state, "z", 0.01, np.random.default_rng(4), spin_ops.site_matrices("spin1"))
        assert np.allclose(np.abs(out.amps), np.abs(state.amps), atol=1e-12)

    def test_norm_preserved(self, rng):
        state = StateVector(random_unit_vector(rng, 81), 4, 3)
        out = mite.apply_noise(state, "x", 0.05, rng, spin_ops.site_matrices("spin1"))
        assert abs(out.norm() - 1.0) <= 1e-12

    def test_noiseless_config_matches_noise_free_run(self):
        plain = mite.prepare(mite.MiteConfig(seed=2, r_max=6), 3, "spin1")
        zeroed = mite.prepare(
            mite.MiteConfig(seed=2, r_max=6, noise_axis="z", noise_sigma2=0.0), 3, "spin1"
        )
        assert plain.f_tot == zeroed.f_tot


class TestNoDiagonalization:
    def test_job_paths_never_call_the_eigensolver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a job path diagonalized the Hamiltonian")

        monkeypatch.setattr(spin_ops, "ground_pair", forbidden)
        for mode in ("spin1", "qubit"):
            assert mite.build_chain(4, mode).reference.n == 4
        series = mite.direct_projection_converge(7, 2)
        assert series.shape == (3,)


class TestDirectProjection:
    def test_bond_factor_idempotent(self, proj9, rng):
        comp = np.eye(9) - proj9
        state = StateVector(random_unit_vector(rng, 27), 3, 3)
        once = apply_two_site(comp, 2, state)
        twice = apply_two_site(comp, 2, once)
        assert np.max(np.abs(once.amps - twice.amps)) <= 1e-12

    def test_converges_within_eight_rounds_small_sizes(self, aklt):
        for n in (3, 4, 5, 6):
            series = mite.direct_projection_converge(n, r_max=10, reference=aklt[n])
            assert mite.critical_rounds(series, 0.9) <= 8

    def test_monotone_after_first_round(self, aklt):
        # observed numerically on these sizes; recorded as a regression guard
        for n in (3, 4, 5, 6):
            series = mite.direct_projection_converge(n, r_max=12, reference=aklt[n])
            diffs = np.diff(series[1:])
            assert np.all(diffs >= -1e-12)

    def test_untwisted_product_is_annihilated(self, aklt):
        """The stretched x-product is a pure total-spin-2 pair on every bond,
        so the first projection round maps it to zero exactly; this is why
        the default carries the symmetry-breaking twist."""
        with pytest.raises(RuntimeError):
            mite.direct_projection_converge(4, r_max=2, reference=aklt[4], twist=0.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mite.direct_projection_converge(2)


class TestCriticalRounds:
    def test_linear_interpolation(self):
        assert mite.critical_rounds([0.5, 0.95], rounds=[1, 2]) == pytest.approx(
            1.0 + 0.4 / 0.45, abs=1e-12
        )

    def test_starting_above_level(self):
        assert mite.critical_rounds([0.95, 0.99]) == 0.0

    def test_never_crossing_signals(self):
        with pytest.raises(ValueError):
            mite.critical_rounds([0.1, 0.2, 0.3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mite.critical_rounds([0.1, 0.95], rounds=[0, 1, 2])
