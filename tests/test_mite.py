import concurrent.futures
import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from aklt_mite import jobs, mite, qubit_map, recompile, spin_ops, statevec, verify
from aklt_mite.statevec import (
    apply_one_site,
    apply_two_site,
    born_sample,
    fidelity,
    map_sites,
    partial_fidelity,
    product_state,
    rotate_sites,
    walk_bonds,
)

from conftest import phase_aligned_distance, product_of, random_state

GOLDEN_BOND_SERIES = Path(__file__).parent / "data" / "golden_bond_series.json"


def frame_of(state, j):
    """Bond ``j``'s frame: the amplitudes rotated to start at site j, as a
    (d^2, d^(n-2)) matrix."""
    return rotate_sites(state, j - 1).reshape(state.shape[0] ** 2, -1)


def unrotated(frame, j, n, d):
    """The chain state of bond ``j``'s frame, back in chain order."""
    return rotate_sites(frame.reshape((d,) * n), (n - j + 1) % n)


def forbid_chain_order_applies(monkeypatch, forbidden):
    """Replace every binding of the chain-order bond apply and of the
    Hamiltonian by ``forbidden``."""
    monkeypatch.setattr(statevec, "apply_two_site", forbidden)
    monkeypatch.setattr(spin_ops, "apply_two_site", forbidden)
    monkeypatch.setattr(spin_ops, "hamiltonian_apply", forbidden)


class TestMeasurementKraus:
    def test_matches_spectral_construction(self, proj9):
        # oracle: build the pair from the coupled |S, m> eigenbasis directly
        eps = 0.5
        kraus = verify.measurement_kraus(eps, proj9)
        for q, mat in ((0, kraus.m0), (1, kraus.m1)):
            spectral = np.zeros((9, 9), dtype=complex)
            for cs in verify.coupled_basis():
                e = 1.0 if cs.s == 2 else 0.0
                factor = math.cos(eps * e) - (-1) ** q * math.sin(eps * e)
                spectral += factor * np.outer(cs.vec, cs.vec.conj())
            spectral /= np.sqrt(2)
            assert np.max(np.abs(mat - spectral)) <= 1e-12

    def test_scalar_actions(self, proj9):
        eps = 0.5
        kraus = verify.measurement_kraus(eps, proj9)
        kernel_vec = next(c.vec for c in verify.coupled_basis() if c.s == 0)
        range_vec = next(c.vec for c in verify.coupled_basis() if c.s == 2)
        for mat in (kraus.m0, kraus.m1):
            assert np.allclose(mat @ kernel_vec, kernel_vec / np.sqrt(2), atol=1e-12)
        factor0 = (math.cos(eps) - math.sin(eps)) / np.sqrt(2)
        assert factor0 == pytest.approx(0.2816, abs=1e-4)
        assert np.allclose(kraus.m0 @ range_vec, factor0 * range_vec, atol=1e-12)

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError):
            verify.measurement_kraus(0.5, 0.5 * np.eye(4))


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


def _site_rotation(v, site):
    """exp(i v.S) for one vector by the generator formula
    1 + i (sin t / t) G - 2 (sin(t/2) / t)^2 G^2, G = v.S: an independent
    closed form, kept as the tolerance oracle of ``mite.site_rotations``."""
    vx, vy, vz = map(float, v)
    t = math.hypot(vx, vy, vz)
    d = site.shape[-1]
    if t == 0.0:
        return np.eye(d, dtype=complex)
    sx, sy, sz = site
    gen = vx * sx + vy * sy + vz * sz
    half = math.sin(t / 2) / t
    return np.eye(d) + (1j * math.sin(t) / t) * gen - (2 * half * half) * (gen @ gen)


SITES = [spin_ops.spin1_matrices, spin_ops.paired_site_matrices]


def rotation_vectors(rng):
    """Rotation vectors of every size the jobs use, and the edge cases."""
    vectors = [np.zeros(3), [0.0, 0.0, -1e-300], [0.0, 0.0, 1e-9]]
    vectors += [(0.0, 0.0, -1.0 * j) for j in range(9)]  # cascade twists
    vectors += [2 * np.pi * rng.random(3) for _ in range(100)]  # correction-sized
    vectors += [0.07 * rng.standard_normal() * np.array(axis)  # noise-sized
                for axis in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]) for _ in range(50)]
    vectors += [rng.standard_normal(3) * 10.0 ** rng.integers(-12, 3) for _ in range(100)]
    return np.array(vectors, dtype=float)


class TestCorrectionUnitary:
    def test_zero_angles_identity(self):
        for d in (3, 4):
            rots = mite.site_rotations([[0, 0, 0], [1.0, 2.0, 3.0], [0, 0, 0]], d)
            assert np.array_equal(rots[0], np.eye(d)) and np.array_equal(rots[2], np.eye(d))

    @pytest.mark.parametrize("maker", SITES)
    def test_unitarity(self, maker):
        d = maker().shape[-1]
        rng = np.random.default_rng(3)
        for _ in range(100):
            u = mite.correction_unitary(d, rng)
            assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= 1e-12

    def test_full_z_turn_is_identity_for_integer_spin(self):
        # 2 pi rotation of a spin-1: exp(2 pi i Sz) = diag(e^{2pi i}, 1, e^{-2pi i})
        assert np.allclose(mite.site_rotations([0, 0, 2 * np.pi], 3)[0], np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("maker", SITES)
    def test_closed_form_matches_expm(self, maker):
        site = maker()
        rng = np.random.default_rng(8)
        vectors = [np.zeros(3), [0.0, 0.0, 1e-9]]
        vectors += [2 * np.pi * rng.random(3) for _ in range(50)]  # correction-sized
        vectors += [0.1 * rng.standard_normal(3) for _ in range(50)]  # noise-sized
        for v, rot in zip(vectors, mite.site_rotations(vectors, site.shape[-1])):
            gen = v[0] * site[0] + v[1] * site[1] + v[2] * site[2]
            assert np.max(np.abs(rot - expm(1j * gen))) <= 1e-12

    @pytest.mark.parametrize("maker", SITES)
    def test_matches_the_generator_formula(self, maker):
        """The Cayley-Klein build against the generator formula of
        ``_site_rotation``, entry by entry (measured: at most 6.7e-16)."""
        site = maker()
        vectors = rotation_vectors(np.random.default_rng(12))
        rots = mite.site_rotations(vectors, site.shape[-1])
        gap = max(float(np.max(np.abs(rot - _site_rotation(v, site)))) for v, rot in zip(vectors, rots))
        assert gap <= 2e-15

    @pytest.mark.parametrize("size", ["correction", "noise", "axis_noise"])
    def test_encodings_agree_through_the_triplet_isometry(self, size):
        """V' exp(i v.S_pair) V = exp(i v.S_spin1) for V the triplet
        isometry: the spin-1 vs. qubit encoding oracle of the rotations, on
        correction-sized and noise-sized vectors (the jobs' noise is along
        one axis)."""
        rng = np.random.default_rng(40)
        if size == "correction":
            vectors = 2 * np.pi * rng.random((200, 3))
        elif size == "noise":
            vectors = 0.1 * rng.standard_normal((200, 3))
        else:
            vectors = 0.07 * rng.standard_normal((200, 1)) * np.eye(3)[rng.integers(0, 3, 200)]
        v = qubit_map.triplet_isometry()
        pairs, spins = mite.site_rotations(vectors, 4), mite.site_rotations(vectors, 3)
        gap = max(float(np.max(np.abs(v.conj().T @ pair @ v - spin))) for pair, spin in zip(pairs, spins))
        assert gap <= 1e-15

    @pytest.mark.parametrize("maker", SITES)
    def test_stack_matches_scalar_formula_bitwise(self, maker):
        """Every matrix of a stack is bit for bit the one its vector gives in
        a one-row call, whatever the stack size or position."""
        d = maker().shape[-1]
        vectors = rotation_vectors(np.random.default_rng(12))
        rows = [mite.site_rotations(v, d)[0] for v in vectors]
        for k in (1, 2, 5, 9, len(vectors)):
            for start in range(0, len(vectors) - k + 1, max(k, 37)):
                rots = mite.site_rotations(vectors[start:start + k], d)
                assert rots.shape == (k, d, d)
                for row, rot in zip(rows[start:start + k], rots):
                    assert np.array_equal(rot, row)

    @pytest.mark.parametrize("maker", SITES)
    def test_correction_matches_kron_of_scalar_rotations_bitwise(self, maker):
        """A correction is ``np.kron`` of its two rows, each a one-row call."""
        d = maker().shape[-1]
        for seed in range(50):
            rng = np.random.default_rng(seed)
            left = mite.site_rotations(2 * np.pi * rng.random(3), d)[0]
            right = mite.site_rotations(2 * np.pi * rng.random(3), d)[0]
            u = mite.correction_unitary(d, np.random.default_rng(seed))
            assert np.array_equal(u, np.kron(left, right))

    def test_six_draw_reproducibility(self):
        u1 = mite.correction_unitary(3, np.random.default_rng(5))
        u2 = mite.correction_unitary(3, np.random.default_rng(5))
        assert np.array_equal(u1, u2)

    def test_site_dimension_other_than_three_or_four_rejected(self):
        with pytest.raises(ValueError, match="site dimension 2"):
            mite.site_rotations([0.1, 0.2, 0.3], 2)


class TestRngStreams:
    """The batched draws consume the generator exactly as the scalar draws
    they replace, value for value and state for state."""

    @pytest.mark.parametrize("seed", [0, 1, 21, 12345])
    def test_random_six_is_two_random_three(self, seed):
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            six = batched.random(6)
            assert np.array_equal(six, np.concatenate([scalar.random(3), scalar.random(3)]))
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_visit_advances_the_stream_as_scalar_draws(self, aklt):
        """A visit draws its uniforms in blocks and rewinds the unused tail
        before each correction's ``random(6)`` and at its end: the stream
        ends where one scalar ``random()`` per measurement and six per
        correction would leave it.  The visits seen include one that fired,
        one that converged without firing and one that hit the cap, at the
        default ``n_iter`` and at one whose stretches span several blocks."""
        chain = mite.build_chain(4, "spin1")
        several = 2 * mite.UNIFORM_BLOCK + 100
        for config in (mite.MiteConfig(), mite.MiteConfig(n_iter=several, window=several)):
            kinds = set()
            for seed in range(8):
                for state in (product_state(4, 3), aklt[4]):
                    rng = np.random.default_rng(seed)
                    _, stats = mite.mite_subroutine(frame_of(state, 1), 1, chain, config,
                                                    rng, (0, 0, 0), mite.TwoLevelBond)
                    scalar = np.random.default_rng(seed)
                    for _ in range(stats.measurements + 6 * stats.corrections):
                        scalar.random()
                    assert rng.bit_generator.state == scalar.bit_generator.state, (seed, stats)
                    kinds.add("fired" if stats.corrections else
                              "converged" if stats.converged else "cap")
            assert kinds == {"fired", "converged", "cap"}, config

    def test_a_visit_draws_at_most_one_block_at_a_time(self, aklt):
        """At ``n_iter`` = 10^5 the visit's stretches are far longer than a
        block, yet no ``random`` call asks for more than ``UNIFORM_BLOCK``
        uniforms."""
        sizes = []

        class RecordingGenerator:
            def __init__(self, rng):
                self.bit_generator = rng.bit_generator
                self._rng = rng

            def random(self, size=None):
                sizes.append(size)
                return self._rng.random(size)

        config = mite.MiteConfig(n_iter=10**5, window=10**5)
        _, stats = mite.mite_subroutine(frame_of(aklt[4], 1), 1, mite.build_chain(4, "spin1"),
                                        config, RecordingGenerator(np.random.default_rng(0)),
                                        (0, 0, 0), mite.TwoLevelBond)
        assert stats.measurements > 3 * mite.UNIFORM_BLOCK
        assert max(sizes) == mite.UNIFORM_BLOCK

    @pytest.mark.parametrize("seed", [0, 1, 21, 12345])
    def test_standard_normal_n_is_n_scalar_draws(self, seed):
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in range(3, 10):
            xs = batched.standard_normal(n)
            assert np.array_equal(xs, [scalar.standard_normal() for _ in range(n)])
        assert batched.bit_generator.state == scalar.bit_generator.state


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
        mite.MiteConfig(fire_window=mite.COUNTER_CAP // 4)
        with pytest.raises(ValueError):
            mite.MiteConfig(fire_window=mite.COUNTER_CAP // 4 + 1)

    def test_noise_variance_needs_an_axis(self):
        """Without an axis a positive variance would run without noise."""
        with pytest.raises(ValueError, match="noise_sigma2 > 0 needs a noise_axis"):
            mite.MiteConfig(noise_sigma2=1e-2)
        mite.MiteConfig(noise_axis="z", noise_sigma2=1e-2)
        mite.MiteConfig(noise_axis="z", noise_sigma2=0.0)

    @pytest.mark.parametrize("early_stop", [math.nan, math.inf, -math.inf, -1e-6, 1.0, 2.0])
    def test_early_stop_outside_unit_interval_rejected(self, early_stop):
        with pytest.raises(ValueError, match="early_stop"):
            mite.MiteConfig(early_stop=early_stop)

    @pytest.mark.parametrize("early_stop", [None, 0.0, 1e-6, 0.5])
    def test_early_stop_accepted(self, early_stop):
        assert mite.MiteConfig(early_stop=early_stop).early_stop == early_stop


def record_visits(monkeypatch):
    """Log what the subroutine does, in order: each measurement outcome q
    (0 or 1) and ``"fire"`` for each correction."""
    events = []
    sample, correction = mite.TwoLevelBond.sample, mite.correction_unitary

    def logged_sample(*args):
        q = sample(*args)
        events.append(q)
        return q

    def logged_correction(*args):
        events.append("fire")
        return correction(*args)

    monkeypatch.setattr(mite.TwoLevelBond, "sample", logged_sample)
    monkeypatch.setattr(mite, "correction_unitary", logged_correction)
    return events


class TestSubroutine:
    def test_excited_bond_draws_a_correction(self, proj9, monkeypatch):
        """A stretched pair keeps producing excited outcomes (p1 ~ 0.92), so
        the feedback loop fires a correction almost surely within a few
        visits of the persistent-counter subroutine."""
        cfg = mite.MiteConfig(seed=0)
        chain = mite.build_chain(3, "spin1")  # a visit reads only the frame of its bond
        events = record_visits(monkeypatch)
        fired = 0
        first_fire_meas = []
        runs = 1000
        rng = np.random.default_rng(0)
        for _ in range(runs):
            events.clear()
            state = frame_of(product_state(2, 3), 1)
            counts = (0, 0, 0)
            for _visit in range(3):  # the loop spans sweep rounds in practice
                state, stats = mite.mite_subroutine(
                    state, 1, chain, cfg, rng, counts, mite.TwoLevelBond
                )
                counts = stats.counts
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

    def test_visit_loop_draws_every_uniform_the_kernel_sees(self):
        """The loop owns the stream: the kernel is handed one uniform per
        measurement, in the generator's order with one ``random(6)`` skipped
        at each correction, and nothing else is drawn."""
        log = []

        class LoggedBond(mite.TwoLevelBond):
            def sample(self, gains, u):
                log.append(u)
                return super().sample(gains, u)

            def kick(self, u):
                log.append("fire")
                return super().kick(u)

        chain = mite.build_chain(4, "spin1")
        counts = dict.fromkeys(range(1, 5), (0, 0, 0))
        rng = np.random.default_rng(3)
        state = product_state(4, 3)
        for _ in range(3):
            state, _ = mite.sweep_round(state, chain, mite.MiteConfig(), rng, counts, LoggedBond)
        assert "fire" in log
        fresh = np.random.default_rng(3)
        for event in log:
            if event == "fire":
                fresh.random(6)
            else:
                assert event == fresh.random()
        assert fresh.bit_generator.state == rng.bit_generator.state

    def test_measurements_leave_reference_invariant(self, aklt, proj9):
        """The exact fixed point: both outcomes act as 1/sqrt(2) on the
        zero-eigenvalue sector, so sampling never moves the reference."""
        kraus = verify.measurement_kraus(0.5, proj9)
        state = aklt[4]
        rng = np.random.default_rng(2)
        for j in (1, 2, 3, 4):
            for _ in range(25):
                _, out = born_sample(kraus, j, state, rng)
                assert np.max(np.abs(out - state)) <= 1e-12

    def test_reference_round_trip_without_corrections(self, aklt):
        """While no correction fires, a sweep from the reference returns it
        exactly; corrections off the fixed point are rare (2^-fire_window
        per fresh run) but not impossible, so the invariant is conditional."""
        cfg = mite.MiteConfig(seed=0)
        chain = mite.build_chain(4, "spin1")
        state = aklt[4]
        rng = np.random.default_rng(0)
        counts = dict.fromkeys(range(1, 5), (0, 0, 0))
        for _ in range(5):
            state, stats = mite.sweep_round(state, chain, cfg, rng, counts, mite.TwoLevelBond)
            assert sum(s.corrections for s in stats) == 0
            assert fidelity(state, chain.reference) == pytest.approx(1.0, abs=1e-9)

    def test_counter_resets_after_each_correction(self, monkeypatch):
        cfg = mite.MiteConfig(seed=0)
        chain = mite.build_chain(3, "spin1")
        state = frame_of(product_state(3, 3), 1)
        rng = np.random.default_rng(1)
        events = record_visits(monkeypatch)
        _, stats = mite.mite_subroutine(state, 1, chain, cfg, rng, (0, 0, 0), mite.TwoLevelBond)
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
        # the counts restarted at the last correction (too few outcomes to rescale)
        assert stats.counts[:2] == (last.count(0), last.count(1))

    def test_deterministic_replay(self, monkeypatch):
        cfg = mite.MiteConfig(seed=0)
        chain = mite.build_chain(3, "spin1")
        events = record_visits(monkeypatch)
        out = []
        for _ in range(2):
            events.clear()
            state = frame_of(product_state(3, 3), 2)
            rng = np.random.default_rng(7)
            state, stats = mite.mite_subroutine(
                state, 2, chain, cfg, rng, (0, 0, 0), mite.TwoLevelBond
            )
            out.append((tuple(events), stats.corrections, state.copy()))
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
        calls = []

        def counted(op, name):
            class Counted(np.ndarray):
                def __matmul__(self, other):
                    calls.append(name)
                    return np.asarray(self) @ other

            return op.view(Counted)

        def forbidden(*args):
            raise AssertionError("the job path called a full-state apply or sampler")

        chain = mite.build_chain(3, "spin1")
        chain = dataclasses.replace(chain, projector=counted(chain.projector, "projector"))
        correction = mite.correction_unitary
        monkeypatch.setattr(mite, "correction_unitary", lambda *a: counted(correction(*a), "kick"))
        forbid_chain_order_applies(monkeypatch, forbidden)
        monkeypatch.setattr(statevec, "born_sample", forbidden)
        rng = np.random.default_rng(1)
        counts = (0, 0, 0)
        corrections = 0
        for visit in range(6):
            calls.clear()
            j = 1 + visit % 3
            state, stats = mite.mite_subroutine(
                frame_of(product_state(3, 3), j), j, chain, mite.MiteConfig(), rng, counts,
                mite.TwoLevelBond,
            )
            counts = stats.counts
            corrections += stats.corrections
            assert calls.count("projector") == 1 + stats.corrections
            assert calls.count("kick") == stats.corrections
        assert corrections > 0

    def test_sampling_matches_the_full_state_collapse(self, proj9, rng):
        state = random_state(rng, 4, 3)
        kraus = verify.measurement_kraus(0.5, proj9)
        bond = mite.TwoLevelBond.open(frame_of(state, 2), 2, proj9)
        gains = mite.measurement_gains(0.5)
        for seed in range(20):
            q = bond.sample(gains, np.random.default_rng(seed).random())
            q_full, state = born_sample(kraus, 2, state, np.random.default_rng(seed))
            assert q == q_full
            assert abs(1 - bond.w - partial_fidelity(state, 2, proj9)) <= 1e-12
        assert np.max(np.abs(bond.state() - frame_of(state, 2))) <= 1e-12

    @pytest.mark.parametrize("field, value", [("alpha", 1.1), ("beta", 0.9), ("w", 1.01), ("w", -0.01)])
    def test_corrupted_scalars_raise_naming_the_bond(self, proj9, rng, field, value):
        state = random_state(rng, 4, 3)
        bond = mite.TwoLevelBond.open(frame_of(state, 3), 3, proj9)
        bond.sample(mite.measurement_gains(0.5), rng.random())
        setattr(bond, field, value if field == "w" else value * getattr(bond, field))
        with pytest.raises(RuntimeError, match="bond 3"):
            bond.state()


@pytest.mark.parametrize("case", json.loads(GOLDEN_BOND_SERIES.read_text()),
                         ids=lambda c: f"{c['mode']}-n{c['n']}")
class TestRecordingKernel:
    """The recorder against pinned series, so that a fault the two kernels
    of the ``verify`` check share still shows."""

    def run(self, case):
        kernel = verify.RecordingKernel(mite.TwoLevelBond)
        rec = mite.prepare(mite.MiteConfig(**case["config"]), case["n"], case["mode"], kernel=kernel)
        return rec, kernel.series

    def test_reproduces_golden_series(self, case):
        _, series = self.run(case)
        want = {int(j): pairs for j, pairs in case["series"].items()}
        assert sorted(series) == sorted(want)
        for j, pairs in want.items():
            assert [t for t, _ in series[j]] == [t for t, _ in pairs]
            gap = max(abs(got - value) for (_, got), (_, value) in zip(series[j], pairs))
            assert gap <= 1e-15, (j, gap)

    def test_one_entry_per_measurement(self, case):
        rec, series = self.run(case)
        for j in range(1, case["n"] + 1):
            m = sum(row[j - 1] for row in rec.measurements)
            assert [t for t, _ in series[j]] == list(range(1, m + 1))


class TestSweepRound:
    def test_bond_order_n6(self):
        cfg = mite.MiteConfig(seed=0)
        chain = mite.build_chain(6, "spin1")
        state = product_state(6, 3)
        counts = dict.fromkeys(range(1, 7), (0, 0, 0))
        _, stats = mite.sweep_round(
            state, chain, cfg, np.random.default_rng(0), counts, mite.TwoLevelBond
        )
        assert [s.bond for s in stats] == [1, 3, 5, 2, 4, 6]

    def test_bond_partition_n4(self):
        assert mite.sweep_order(4) == [1, 3, 2, 4]

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_a_correction_resets_both_neighbouring_bonds(self, monkeypatch, n):
        """Replays the counts rule over four rounds of two trajectories:
        every visit starts from its bond's counts at the end of its last
        visit, or from (0, 0, 0) if a correction has fired since on a bond
        sharing a site with it (bonds n and 1 share site 1).  Between them
        the two trajectories reset nonzero counts on both sides of a
        correction, at the wrap and away from it."""
        visits, subroutine = [], mite.mite_subroutine

        def logged(frame, j, chain, config, rng, counts, kernel):
            frame, st = subroutine(frame, j, chain, config, rng, counts, kernel)
            visits.append((j, counts, st))
            return frame, st

        monkeypatch.setattr(mite, "mite_subroutine", logged)
        chain = mite.build_chain(n, "spin1")
        cleared = set()  # (side, wrapped) of the resets of nonzero counts
        for seed in (0, 3):
            visits.clear()
            counts = dict.fromkeys(range(1, n + 1), (0, 0, 0))
            state, rng = product_state(n, 3), np.random.default_rng(seed)
            for _ in range(4):
                state, _ = mite.sweep_round(state, chain, mite.MiteConfig(), rng, counts,
                                            mite.TwoLevelBond)
            want = dict.fromkeys(range(1, n + 1), (0, 0, 0))
            for j, handed, st in visits:
                assert handed == want[j], (seed, j, handed, want[j])
                want[j] = st.counts
                if st.corrections:
                    for side, k, wrapped in (("left", j - 1 or n, j == 1),
                                             ("right", j % n + 1, j == n)):
                        if want[k] != (0, 0, 0):
                            cleared.add((side, wrapped))
                        want[k] = (0, 0, 0)
            assert counts == want
        assert cleared == {(side, w) for side in ("left", "right") for w in (False, True)}


@pytest.fixture
def pool_sizes(monkeypatch):
    """A stand-in process pool that records its size and runs the tasks
    here, so no process starts, on a host of 64 CPUs; the sizes of the
    pools made."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)  # pool sizes that do not depend on the host
    return sizes


def passing_through(monkeypatch, module, name, key):
    """Replace ``module.name`` by a pass-through to it that records
    ``key(*args)`` of every call in the list returned."""
    calls, original = [], getattr(module, name)

    def recorded(*args):
        calls.append(key(*args))
        return original(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


def driver_inputs(runs, threads):
    """The arguments of each ``jobs`` driver kind, for ``runs`` small
    independent runs at base seed 5: trajectories, chain lengths, or
    repetitions at depth 0."""
    cfg = {"mode": "spin1", "runs": runs, "threads": threads, "epsilon": 0.5}
    return {
        "prepare": (cfg, [3], mite.MiteConfig(seed=5, r_max=1)),
        "project": (cfg, [3, 4, 5][:runs], mite.MiteConfig(r_max=1)),
        "recompile": (cfg, [0], recompile.OptimizerConfig(maxiter=2, n_hops=0, repetitions=runs,
                                                          seed=5)),
    }


class TestPrepare:
    def test_zero_rounds_records_initial_fidelity_only(self):
        rec = mite.prepare(mite.MiteConfig(seed=0, r_max=0), 3, "spin1")
        assert len(rec.f_tot) == 1
        assert rec.e_peak == []

    def test_series_lengths_consistent(self):
        rec = mite.prepare(mite.MiteConfig(seed=3, r_max=12, early_stop=None), 4, "spin1")
        r = len(rec.f_tot) - 1
        assert r == 12
        assert len(rec.partial) == r + 1
        assert len(rec.e_peak) == r
        assert len(rec.corrections) == r
        assert len(rec.measurements) == r

    def test_bit_identical_replay(self):
        cfg = mite.MiteConfig(seed=11, r_max=10)
        ka, kb = (verify.RecordingKernel(mite.TwoLevelBond) for _ in range(2))
        a = mite.prepare(cfg, 3, "spin1", kernel=ka)
        b = mite.prepare(cfg, 3, "spin1", kernel=kb)
        assert a.f_tot == b.f_tot
        assert a.e_peak == b.e_peak
        assert ka.series == kb.series

    def test_trajectory_seed_layout(self, pool_sizes, monkeypatch):
        """The tasks every driver hands ``jobs.fan_out``, run on the stand-in
        pool in task order: trajectory k is seeded ``seed + k``, chain
        lengths go in listed order, and recompile runs depth-major with
        repetition k seeded ``seed + k`` at every depth."""
        seeds = passing_through(monkeypatch, mite, "prepare", lambda config, n, mode: config.seed)
        lengths = passing_through(monkeypatch, mite, "direct_projection_converge", lambda n, r: n)
        reps = passing_through(monkeypatch, recompile, "optimize_once", lambda target, nl, rng, opt:
                               (nl, rng.bit_generator.state["state"]["state"]))
        drivers = driver_inputs(runs=3, threads=2)
        jobs.run_prepare(*drivers["prepare"])
        jobs.run_project(*drivers["project"])
        cfg, _, opt = drivers["recompile"]
        _, rows, _ = jobs.run_recompile(cfg, [0, 1], opt)  # two depths
        assert seeds == [5, 6, 7]
        assert lengths == [3, 4, 5]
        start = [np.random.default_rng(5 + k).bit_generator.state["state"]["state"] for k in range(3)]
        assert reps == [(nl, start[k]) for nl in (0, 1) for k in range(3)]
        assert [row[:2] for row in rows] == [(nl, k) for nl in (0, 1) for k in range(3)]
        assert pool_sizes == [2, 2, 2]

    @pytest.mark.parametrize("runs, threads, workers", [(2, 500, 2), (3, 2, 2), (1, 4, None)])
    def test_at_most_one_worker_per_run(self, pool_sizes, runs, threads, workers):
        """Every driver sizes its pool by the runs it has: a pool forks all
        its workers at once.  At one worker no pool is made."""
        for kind, inputs in driver_inputs(runs, threads).items():
            _, rows, _ = getattr(jobs, f"run_{kind}")(*inputs)
            column = 1 if kind == "recompile" else 0  # repetition; run_id or n
            assert len({row[column] for row in rows}) == runs, kind
        assert pool_sizes == ([] if workers is None else [workers] * 3)

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (1, None), (None, None)])
    def test_never_more_workers_than_cpus(self, pool_sizes, monkeypatch, cpus, workers):
        """A pool forks all its workers at once, so the thread count is
        capped by the CPUs too; an unknown CPU count runs in this process."""
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert jobs.fan_out(pow, [(k, 2) for k in range(6)], 10**5) == [0, 1, 4, 9, 16, 25]
        assert pool_sizes == ([] if workers is None else [workers])

    @pytest.mark.parametrize("mode", ["spin1", "qubit"])
    def test_job_path_applies_no_chain_order_bond_operator(self, monkeypatch, mode):
        """Trajectories, the chain build with its reference certificate and
        the projection cascade all work on bond frames; the chain-order bond
        apply and the Hamiltonian are left to the oracles."""
        def forbidden(*args):
            raise AssertionError("a job moved a bond to the front and back")

        forbid_chain_order_applies(monkeypatch, forbidden)
        assert not hasattr(mite, "apply_two_site")
        cfg = mite.MiteConfig(seed=1, r_max=3, noise_axis="x", noise_sigma2=1e-2)
        assert len(mite.prepare(cfg, 4, mode).f_tot) == 4
        d = spin_ops.site_matrices(mode).shape[-1]
        assert mite.build_chain(5, mode).reference.shape == (d,) * 5
        assert mite.direct_projection_converge(5, 2).shape == (3,)

    def test_fidelity_improves_at_small_size(self):
        rec = mite.prepare(mite.MiteConfig(seed=0), 3, "spin1")
        assert rec.f_tot[-1] > 0.9


class TestNoise:
    def test_zero_variance_is_identity_and_consumes_no_randomness(self):
        state = product_of(3, np.eye(3)[1])
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = mite.apply_noise(state, "x", 0.0, rng)
        assert np.array_equal(out, state)
        assert rng.bit_generator.state == before

    def test_z_noise_preserves_amplitude_magnitudes(self):
        # diagonal generator: only phases move on an Sz-basis product state
        state = product_state(3, 3)
        out = mite.apply_noise(state, "z", 0.01, np.random.default_rng(4))
        assert np.allclose(np.abs(out), np.abs(state), atol=1e-12)

    def test_norm_preserved(self, rng):
        state = random_state(rng, 4, 3)
        out = mite.apply_noise(state, "x", 0.05, rng)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    @pytest.mark.parametrize("mode", ["spin1", "qubit"])
    @pytest.mark.parametrize("axis", ["x", "z"])
    def test_matches_per_site_scalar_rotations_bitwise(self, mode, axis):
        d = spin_ops.site_matrices(mode).shape[-1]
        unit = np.array([1.0, 0.0, 0.0]) if axis == "x" else np.array([0.0, 0.0, 1.0])
        rng = np.random.default_rng(9)
        state = random_state(rng, 4, d)
        for seed in range(10):
            expected, oracle_rng = state, np.random.default_rng(seed)
            for j in range(1, 5):
                xi = math.sqrt(0.05 / 2.0) * oracle_rng.standard_normal()
                rot = mite.site_rotations(xi * unit, d)[0]
                expected = statevec.apply_one_site(rot, j, expected)
            out = mite.apply_noise(state, axis, 0.05, np.random.default_rng(seed))
            assert np.array_equal(out, expected)

    @pytest.mark.parametrize("mode", ["spin1", "qubit"])
    @pytest.mark.parametrize("axis", ["x", "z"])
    def test_average_is_the_closed_form_dephasing(self, mode, axis):
        """Averaged over its angles, the noise is a dephasing in the
        eigenbasis of S^axis: with xi_j of variance sigma2 / 2 (density
        proportional to exp(-xi^2 / sigma2)), E exp(i xi (m_a - m_b)) =
        exp(-sigma2 (m_a - m_b)^2 / 4), so rho_ab goes to
        rho_ab exp(-sigma2 sum_j (m_aj - m_bj)^2 / 4), m_aj the eigenvalue
        of S^axis at site j in basis state a.  The eigenbasis comes from the
        eigensolver, not from the rotations under test.

        The mean of K draws of |psi'><psi'| must meet it within 6 standard
        errors per entry, each from the entry's own sampled spread (plus
        1e-12 where it has none).  Under the normal approximation an entry
        exceeds that by chance with probability at most erfc(6 / sqrt 2) =
        2e-9, so at most 2e-5 over the 9,650 entries of the four cases;
        the seed is fixed, so the test does not flicker."""
        sigma2, k, n = 0.5, 2000, 3
        site = spin_ops.site_matrices(mode)
        d = site.shape[-1]
        psi = random_state(np.random.default_rng(5), n, d)
        vals, vecs = np.linalg.eigh(site["xyz".index(axis)])
        basis = vecs
        for _ in range(n - 1):
            basis = np.kron(basis, vecs)
        rng = np.random.default_rng(2026)
        draws = np.array([mite.apply_noise(psi, axis, sigma2, rng).reshape(-1) for _ in range(k)])
        coords = draws @ basis.conj()  # row i: draw i's amplitudes in the eigenbasis
        rho = coords.T @ coords.conj() / k
        second = np.abs(coords.T) ** 2 @ np.abs(coords) ** 2 / k
        stderr = np.sqrt(np.maximum(second - np.abs(rho) ** 2, 0.0) / k)
        m = vals[np.array(np.unravel_index(np.arange(d**n), (d,) * n))]  # m[j, a]
        gaps = ((m[:, :, None] - m[:, None, :]) ** 2).sum(axis=0)
        c = psi.reshape(-1) @ basis.conj()
        want = np.outer(c, c.conj()) * np.exp(-sigma2 * gaps / 4)
        err = np.abs(rho - want)
        assert np.all(err <= 6 * stderr + 1e-12), np.max(err / (6 * stderr + 1e-12))

    def test_noiseless_config_matches_noise_free_run(self):
        plain = mite.prepare(mite.MiteConfig(seed=2, r_max=6), 3, "spin1")
        zeroed = mite.prepare(
            mite.MiteConfig(seed=2, r_max=6, noise_axis="z", noise_sigma2=0.0), 3, "spin1"
        )
        assert plain.f_tot == zeroed.f_tot


LAYOUT_CASES = [(d, n) for d in (3, 4) for n in range(3, 7)]


def _random_op(rng, dim):
    op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return op / np.linalg.norm(op, 2)


@pytest.mark.parametrize("d, n", LAYOUT_CASES)
class TestSiteLayout:
    """The rotating site layout of a sweep against the chain-order oracles
    of ``statevec``, on every bond, the wrap bond n included."""

    def test_rotation_round_trip_is_exact(self, rng, d, n):
        state = random_state(rng, n, d)
        for k in range(n + 1):
            assert np.array_equal(rotate_sites(rotate_sites(state, k), n - k), state)

    def test_frame_matmul_is_the_bond_apply(self, rng, d, n):
        state = random_state(rng, n, d)
        for j in range(1, n + 1):
            op = _random_op(rng, d * d)
            got = unrotated(op @ frame_of(state, j), j, n, d)
            assert np.max(np.abs(got - apply_two_site(op, j, state))) <= 1e-14

    @pytest.mark.parametrize("order", ["sweep", "repeating"])
    def test_walk_is_the_chain_of_bond_applies(self, rng, d, n, order):
        bonds = mite.sweep_order(n) if order == "sweep" else [2, 2, n, 1, 3, 1, n]
        state = random_state(rng, n, d)
        ops = [_random_op(rng, d * d) for _ in bonds]
        expected = state
        for j, op in zip(bonds, ops):
            expected = apply_two_site(op, j, expected)
        visits = iter(zip(bonds, ops))

        def visit(j, frame):
            bond, op = next(visits)
            assert j == bond
            return op @ frame

        got = walk_bonds(state, bonds, visit)
        assert np.max(np.abs(got - expected)) <= 1e-14

    def test_site_chain_is_the_per_site_apply(self, rng, d, n):
        state = random_state(rng, n, d)
        ops = [_random_op(rng, d) for _ in range(n)]
        expected = state
        for j, op in enumerate(ops, start=1):
            expected = apply_one_site(op, j, expected)
        assert np.array_equal(map_sites(ops, state), expected)

    def test_kick_is_the_rebuilt_bond_apply(self, rng, d, n):
        proj = spin_ops.bond_projector("spin1" if d == 3 else "qubit")
        gains = mite.measurement_gains(0.5)
        state = random_state(rng, n, d)
        for j in range(1, n + 1):
            bond = mite.TwoLevelBond.open(frame_of(state, j), j, proj)
            for _ in range(5):
                bond.sample(gains, rng.random())
            u = mite.correction_unitary(d, rng)
            full = unrotated(bond.state(), j, n, d)
            old = mite.TwoLevelBond.open(frame_of(apply_two_site(u, j, full), j), j, proj)
            new = bond.kick(u)
            assert np.max(np.abs(new.base - old.base)) <= 1e-14
            assert np.max(np.abs(new.excited - old.excited)) <= 1e-14
            assert abs(new.w - old.w) <= 1e-14

    def test_partials_and_symmetric_weight_are_the_per_bond_values(self, rng, d, n):
        proj = spin_ops.bond_projector("spin1" if d == 3 else "qubit")
        state = random_state(rng, n, d)
        expected = [partial_fidelity(state, j, proj) for j in range(1, n + 1)]
        assert np.max(np.abs(np.subtract(mite.bond_partials(state, proj), expected))) <= 1e-14
        if d == 4:  # each site's triplet projector, applied through the transposing bond apply
            site_proj = np.kron(qubit_map.symmetric_site_projector(), np.eye(4))
            projected = state
            for j in range(1, n + 1):
                projected = apply_two_site(site_proj, j, projected)
            expected_w = float(np.vdot(state, projected).real)
            assert abs(qubit_map.symmetric_weight(state) - expected_w) <= 1e-14


class TestNoDiagonalization:
    def test_job_paths_never_call_the_eigensolver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a job path diagonalized the Hamiltonian")

        monkeypatch.setattr(spin_ops, "zero_mode", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        for mode in ("spin1", "qubit"):
            d = spin_ops.site_matrices(mode).shape[-1]
            assert mite.build_chain(4, mode).reference.shape == (d,) * 4
        series = mite.direct_projection_converge(7, 2)
        assert series.shape == (3,)


def cascade_round(n):
    """One round of the projection cascade from the chain-order oracle: 1 - P
    on every bond of ``mite.sweep_order(n)`` through ``apply_two_site``,
    without the job's ``walk_bonds`` and ``apply_real``."""
    comp = np.eye(9) - spin_ops.bond_projector("spin1")

    def apply(state):
        for j in mite.sweep_order(n):
            state = apply_two_site(comp, j, state)
        return state

    return apply


class TestDirectProjection:
    @pytest.mark.parametrize("n", [4, 5])
    def test_round_norms_meet_the_naive_post_selection_probability(self, n):
        """Post-selecting the projective cascade (keep a run only if every
        bond projection passes) succeeds for r rounds with probability
        prod_s |R psi_(s-1)|^2 = |R^r psi0|^2, the squared norms the cascade
        divides away.  R is a product of orthogonal projections whose only
        common fixed vector is the AKLT state, so R^r tends to the projector
        onto it (von Neumann-Halperin) and the product to F(0) =
        |<AKLT|psi0>|^2; the gap is |R^r (1 - Pi) psi0|^2, of order
        |lambda_2|^(2r) <= 2^-60 ~ 1e-18 at 30 rounds (|lambda_2| < 1/2,
        ``TestCascadeSpectrum``), against F(0) = 2.3e-3 and 3.1e-4 at N = 4
        and 5.  So only rounding is left, and 1e-12 relative bounds it."""
        round_map = cascade_round(n)
        psi0 = mite.twisted_sx_product(n, 1.0)
        state, passed = psi0, 1.0
        for _ in range(30):
            state = round_map(state)
            norm2 = float(np.vdot(state, state).real)
            passed *= norm2
            state = state / math.sqrt(norm2)
        f0 = fidelity(psi0, spin_ops.aklt_state(n))
        assert abs(passed / f0 - 1.0) <= 1e-12, (passed, f0)

    def test_bond_factor_idempotent(self, proj9, rng):
        comp = np.eye(9) - proj9
        state = random_state(rng, 3, 3)
        once = apply_two_site(comp, 2, state)
        twice = apply_two_site(comp, 2, once)
        assert np.max(np.abs(once - twice)) <= 1e-12

    def test_converges_within_eight_rounds_small_sizes(self, aklt):
        for n in (3, 4, 5, 6):
            series = mite.direct_projection_converge(n, r_max=10, reference=aklt[n])
            assert mite.critical_rounds(series) <= 8

    def test_monotone_after_first_round(self, aklt):
        # observed numerically on these sizes; recorded as a regression guard
        for n in (3, 4, 5, 6):
            series = mite.direct_projection_converge(n, r_max=12, reference=aklt[n])
            diffs = np.diff(series[1:])
            assert np.all(diffs >= -1e-12)

    @pytest.mark.parametrize("theta", [1.0, 0.3])
    def test_twisted_product_matches_scalar_twists_bitwise(self, theta):
        base = mite.sx_stretched_site_ket()
        for n in range(3, 10):
            amps = np.array([1.0 + 0j])
            for j in range(n):
                amps = np.kron(amps, mite.site_rotations((0.0, 0.0, -theta * j), 3)[0] @ base)
            assert np.array_equal(mite.twisted_sx_product(n, theta).reshape(-1), amps)

    def test_untwisted_product_is_annihilated(self, aklt, monkeypatch):
        """The stretched x-product is a pure total-spin-2 pair on every bond,
        so the first projection round maps it to zero exactly; this is why
        the cascade starts from the symmetry-breaking twist."""
        def untwisted(n, theta):
            return product_of(n, mite.sx_stretched_site_ket())

        monkeypatch.setattr(mite, "twisted_sx_product", untwisted)
        with pytest.raises(RuntimeError, match="annihilated"):
            mite.direct_projection_converge(4, r_max=2, reference=aklt[4])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mite.direct_projection_converge(2, r_max=2)


class TestCascadeSpectrum:
    """One cascade round as a dense matrix R, built column by column from the
    chain-order oracle ``cascade_round``.  Each bond factor is an orthogonal
    projection, so |Rv| = |v| forces every factor to fix v: R's only
    eigenvalue of modulus 1 is 1, on the common kernel of the P_j, which is
    the AKLT state alone on the ring; 1 - F(r) then falls as
    |lambda_2|^(2r) at late rounds.  Swapping the odd and even halves
    would test nothing new: AB and BA share a spectrum."""

    @staticmethod
    def spectrum(n):
        round_map, dim = cascade_round(n), 3**n
        columns = np.eye(dim, dtype=complex).reshape((dim,) + (3,) * n)
        dense = np.stack([round_map(col).reshape(-1) for col in columns], axis=1)
        vals, vecs = np.linalg.eig(dense)
        order = np.argsort(-np.abs(vals))
        return vals[order], vecs[:, order]

    @pytest.mark.parametrize("n", [4, 5])
    def test_one_round_contracts_onto_the_aklt_state(self, n):
        """The fixed vector is ``aklt_state(n)``, and the rest contracts by
        |lambda_2| < 1/2 per round (0.44444 at N = 4, 0.34090 at N = 5).
        1/2 is an N-independent ceiling, above the largest |lambda_2| of
        N = 3..9 (0.456, at N = 6): a contraction bounded away from 1
        whatever N is keeps the cascade's rounds to a fixed fidelity flat
        in N, and at 1/2 every late round cuts 1 - F at least fourfold."""
        vals, vecs = self.spectrum(n)
        mods = np.abs(vals)
        assert abs(mods[0] - 1.0) <= 1e-12
        top = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        assert phase_aligned_distance(top, spin_ops.aklt_state(n).reshape(-1)) <= 1e-12
        assert mods[1] < 0.5, mods[1]

    def test_the_job_contracts_at_the_gap_rate(self):
        """At N = 4, |lambda_2|^2 = 16/81, and the ``project`` job's own
        infidelity ratio (1 - F(r+1)) / (1 - F(r)) over rounds 10-14 meets
        it within 1e-4 (measured 8.6e-6 at round 10, shrinking after)."""
        vals, _ = self.spectrum(4)
        assert abs(abs(vals[1]) ** 2 - 16 / 81) <= 1e-12
        series = mite.direct_projection_converge(4, 15)
        ratios = (1 - series[11:16]) / (1 - series[10:15])
        assert np.max(np.abs(ratios - 16 / 81)) <= 1e-4, ratios


class TestCriticalRounds:
    def test_linear_interpolation(self):
        assert mite.critical_rounds([0.2, 0.5, 0.95]) == pytest.approx(
            1.0 + 0.4 / 0.45, abs=1e-12
        )

    def test_starting_above_level(self):
        assert mite.critical_rounds([0.95, 0.99]) == 0.0

    def test_never_crossing_signals(self):
        assert mite.critical_rounds([0.1, 0.2, 0.3]) is None
