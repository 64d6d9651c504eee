import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aklt_mite import spin_ops
from aklt_mite.mite import measurement_kraus, sx_stretched_site_ket
from aklt_mite.statevec import (
    KrausPair,
    StateVector,
    apply_one_site,
    apply_two_site,
    born_sample,
    fidelity,
    partial_fidelity,
    product_state,
)

from conftest import product_of, random_unit_vector


class TestProductState:
    def test_all_m1_amplitude_layout(self):
        # m=1 encodes as digit 0, so the all-(m=1) state is flat index 0
        st_ = product_state(2, 3)
        assert st_.amps[0] == 1.0
        assert np.count_nonzero(st_.amps) == 1

    def test_sx_eigenvector_example(self):
        # oracle: the closed-form Sx eigenvalue +1 eigenvector, phase fixed
        # by its largest (middle) amplitude
        assert np.allclose(sx_stretched_site_ket(), [0.5, 1 / np.sqrt(2), 0.5], atol=1e-12)

    @given(st.integers(min_value=1, max_value=5), st.sampled_from([3, 4]))
    def test_norm_one(self, n, d):
        assert abs(product_state(n, d).norm() - 1.0) <= 1e-12

    def test_qubit_pair_sites(self):
        st_ = product_state(3, 4)
        assert st_.dim == 64
        assert st_.amps[0] == 1.0


class TestApplyTwoSite:
    def test_identity_noop(self, rng):
        state = StateVector(random_unit_vector(rng, 81), 4, 3)
        out = apply_two_site(np.eye(9), 2, state)
        assert np.allclose(out.amps, state.amps, atol=1e-15)

    def test_projector_idempotent_through_embedding(self, rng, proj9):
        state = StateVector(random_unit_vector(rng, 81), 4, 3)
        once = apply_two_site(proj9, 3, state)
        twice = apply_two_site(proj9, 3, once)
        assert np.max(np.abs(once.amps - twice.amps)) <= 1e-12

    def test_wraparound_matches_digit_permutation(self, rng):
        # oracle: brute-force index permutation swapping digits of sites 3, 1
        n, d = 3, 3
        swap = np.zeros((9, 9))
        for a in range(3):
            for b in range(3):
                swap[3 * b + a, 3 * a + b] = 1.0
        state = StateVector(random_unit_vector(rng, d**n), n, d)
        out = apply_two_site(swap, 3, state)  # bond (3, 1)
        expected = np.empty_like(state.amps)
        for idx in range(d**n):
            digits = [(idx // d**(n - 1 - k)) % d for k in range(n)]
            digits[2], digits[0] = digits[0], digits[2]
            src = sum(dig * d**(n - 1 - k) for k, dig in enumerate(digits))
            expected[idx] = state.amps[src]
        assert np.max(np.abs(out.amps - expected)) <= 1e-15

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_dense_embedding(self, rng, d, n):
        # oracle: I_left (x) op (x) I_right on the full space; for the wrap
        # bond (n, 1), conjugated by the digit rotation that puts site n first
        state = StateVector(random_unit_vector(rng, d**n), n, d)
        digits = np.indices((d,) * n).reshape(n, -1)
        rotate = np.eye(d**n)[:, np.ravel_multi_index(np.roll(digits, 1, axis=0), (d,) * n)]
        for k, apply in ((1, apply_one_site), (2, apply_two_site)):
            for j in range(1, n + 1):
                op = rng.standard_normal((d**k, d**k)) + 1j * rng.standard_normal((d**k, d**k))
                if j + k - 1 <= n:
                    dense = np.kron(np.kron(np.eye(d ** (j - 1)), op), np.eye(d ** (n - j - k + 1)))
                else:
                    dense = rotate.T @ np.kron(op, np.eye(d ** (n - 2))) @ rotate
                out = apply(op, j, state)
                assert np.max(np.abs(out.amps - dense @ state.amps)) <= 1e-12

    def test_disjoint_bonds_commute(self, rng):
        state = StateVector(random_unit_vector(rng, 81), 4, 3)
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        b = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        ab = apply_two_site(b, 3, apply_two_site(a, 1, state))
        ba = apply_two_site(a, 1, apply_two_site(b, 3, state))
        assert np.max(np.abs(ab.amps - ba.amps)) <= 1e-12

    def test_dimension_mismatch(self, rng):
        state = StateVector(random_unit_vector(rng, 81), 4, 3)
        with pytest.raises(ValueError):
            apply_two_site(np.eye(4), 1, state)
        with pytest.raises(ValueError):
            apply_two_site(np.eye(9), 5, state)

    def test_qubit_mode_bond_acts_on_four_qubits(self, rng, proj16):
        state = StateVector(random_unit_vector(rng, 64), 3, 4)
        once = apply_two_site(proj16, 3, state)  # wrap bond (3, 1)
        twice = apply_two_site(proj16, 3, once)
        assert np.max(np.abs(once.amps - twice.amps)) <= 1e-12


class TestFidelity:
    def test_self_and_orthogonal(self):
        a = product_state(2, 3)
        b = product_of(2, np.eye(3)[1])
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=2 * np.pi))
    def test_global_phase_invariance(self, phase):
        a = product_of(2, np.eye(3)[1])
        b = a.with_amps(np.exp(1j * phase) * a.amps)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(product_state(2, 3), product_state(3, 3))


class TestPartialFidelity:
    def test_stretched_product_is_zero(self, proj9):
        state = product_state(4, 3)
        for j in range(1, 5):
            assert partial_fidelity(state, j, proj9) == pytest.approx(0.0, abs=1e-12)

    def test_two_site_singlet_is_one(self, proj9):
        singlet = next(c.vec for c in spin_ops.coupled_basis() if c.s == 0)
        state = StateVector(singlet, 2, 3)
        assert partial_fidelity(state, 1, proj9) == pytest.approx(1.0, abs=1e-12)


class TestBornSample:
    def test_zero_sector_is_coin_flip_and_invariant(self, aklt, proj9):
        kraus = measurement_kraus(0.5, proj9)
        state = aklt[4].state
        psi0 = apply_two_site(kraus.m0, 2, state)
        psi1 = apply_two_site(kraus.m1, 2, state)
        assert np.vdot(psi0.amps, psi0.amps).real == pytest.approx(0.5, abs=1e-12)
        assert np.vdot(psi1.amps, psi1.amps).real == pytest.approx(0.5, abs=1e-12)
        rng = np.random.default_rng(0)
        _, post = born_sample(kraus, 2, state, rng)
        assert np.max(np.abs(post.amps - state.amps)) <= 1e-12

    def test_stretched_pair_probabilities(self, proj9):
        # oracle: scalar eigenvalue evaluation at E = 1, eps = 0.5
        eps = 0.5
        p0 = (np.cos(eps) - np.sin(eps)) ** 2 / 2
        kraus = measurement_kraus(eps, proj9)
        state = product_state(2, 3)
        psi0 = apply_two_site(kraus.m0, 1, state)
        assert np.vdot(psi0.amps, psi0.amps).real == pytest.approx(p0, abs=1e-12)
        # frequencies over many draws stay within 3 standard errors
        rng = np.random.default_rng(42)
        trials = 4000
        zeros = sum(1 - born_sample(kraus, 1, state, rng)[0] for _ in range(trials))
        se = np.sqrt(p0 * (1 - p0) / trials)
        assert abs(zeros / trials - p0) <= 3 * se

    def test_post_measurement_norm(self, rng, proj9):
        kraus = measurement_kraus(0.5, proj9)
        state = StateVector(random_unit_vector(rng, 81), 4, 3)
        for _ in range(20):
            _, state = born_sample(kraus, int(rng.integers(1, 5)), state, rng)
            assert abs(state.norm() - 1.0) <= 1e-12

    def test_seeded_determinism(self, proj9):
        kraus = measurement_kraus(0.5, proj9)
        state = product_of(3, np.eye(3)[1])
        q1, s1 = born_sample(kraus, 1, state, np.random.default_rng(9))
        q2, s2 = born_sample(kraus, 1, state, np.random.default_rng(9))
        assert q1 == q2
        assert np.array_equal(s1.amps, s2.amps)

    def test_corrupt_pair_rejected(self, proj9):
        with pytest.raises(ValueError):
            KrausPair(proj9 / 2, proj9 / 2)

    def test_zero_weight_signals_corruption(self, proj9):
        kraus = measurement_kraus(0.5, proj9)
        kraus.m0 = np.zeros((9, 9))  # corrupt after validation
        kraus.m1 = np.zeros((9, 9))
        state = product_state(2, 3)
        with pytest.raises(RuntimeError):
            born_sample(kraus, 1, state, np.random.default_rng(0))
