import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aklt_mite import mite, qubit_map, spin_ops
from aklt_mite.mite import sx_stretched_site_ket
from aklt_mite.statevec import (
    apply_one_site,
    apply_real,
    apply_two_site,
    born_sample,
    fidelity,
    partial_fidelity,
    product_state,
    rotate_sites,
    walk_bonds,
)
from aklt_mite.verify import KrausPair, coupled_basis, measurement_kraus

from conftest import product_of, random_state


def chain_states(mode, n):
    """What every state builder and job-path step returns in one encoding,
    by name: the builders of that encoding, the change of encoding into it,
    a noise step, a bond walk, a sweep round and the chain-order applies."""
    chain = mite.build_chain(n, mode)
    d = chain.reference.shape[0]
    rng = np.random.default_rng(3)
    noisy = mite.apply_noise(product_state(n, d), "x", 1e-2, rng)
    counts = dict.fromkeys(range(1, n + 1), (0, 0, 0))
    states = {
        "product_state": product_state(n, d),
        "apply_noise": noisy,
        "walk_bonds": walk_bonds(noisy, mite.sweep_order(n), lambda j, frame: chain.projector @ frame),
        "sweep_round": mite.sweep_round(noisy, chain, mite.MiteConfig(), rng, counts,
                                        mite.TwoLevelBond)[0],
        "apply_two_site": apply_two_site(chain.projector, n, noisy),
        "apply_one_site": apply_one_site(spin_ops.site_matrices(mode)[0], 2, noisy),
        "hamiltonian_apply": spin_ops.hamiltonian_apply(noisy, chain.projector),
    }
    if mode == "spin1":
        states["aklt_state"] = spin_ops.aklt_state(n)
        states["twisted_sx_product"] = mite.twisted_sx_product(n, 1.0)
        states["restrict_state"] = qubit_map.restrict_state(qubit_map.reencoded_reference(n))
    else:
        states["reencoded_reference"] = qubit_map.reencoded_reference(n)
        states["lift_state"] = qubit_map.lift_state(spin_ops.aklt_state(n))
    return states


class TestChainState:
    """A chain state is a complex array of shape (d,) * N, in C order: the
    flat reads of the job path (np.linalg.norm sums in memory order) then
    see the amplitudes in index order, as the stored outputs need."""

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("mode", ["spin1", "qubit"])
    def test_every_builder_and_step_returns_the_tensor(self, mode, n):
        d = spin_ops.site_matrices(mode).shape[-1]
        for name, state in chain_states(mode, n).items():
            assert state.shape == (d,) * n, name
            assert state.dtype == complex, name
            assert state.flags.c_contiguous, name

    def test_phase_fix_reads_the_flat_index(self, rng):
        """The first largest amplitude sits at flat index 20 of a 3-site
        spin-1 state, outside the first axis-0 slice (indices 0..8), and a
        later one ties with it: the tensor's phase fix is the flat vector's."""
        flat = 0.3 * random_state(rng, 3, 3).reshape(-1)
        flat[20], flat[25] = 0.9 * np.exp(0.7j), 0.9 * np.exp(-1.1j)
        fixed = spin_ops._fix_phase(flat)
        assert fixed[20].real > 0 and abs(fixed[20].imag) <= 1e-15
        assert np.array_equal(spin_ops._fix_phase(flat.reshape(3, 3, 3)).reshape(-1), fixed)


class TestProductState:
    def test_all_m1_amplitude_layout(self):
        # m=1 encodes as digit 0, so the all-(m=1) state is flat index 0
        st_ = product_state(2, 3)
        assert st_.flat[0] == 1.0
        assert np.count_nonzero(st_) == 1

    def test_sx_eigenvector_example(self):
        # oracles: the eigenvalue equation itself, and the eigensolver's
        # eigenvector of Sx's top eigenvalue, phase fixed by its largest
        # (middle) amplitude
        ket = sx_stretched_site_ket()
        sx = spin_ops.spin1_matrices()[0]
        assert np.max(np.abs(sx @ ket - ket)) <= 1e-15
        assert abs(np.linalg.norm(ket) - 1.0) <= 1e-15
        vals, vecs = np.linalg.eigh(sx)
        top = spin_ops._fix_phase(vecs[:, int(np.argmax(vals))])
        assert np.max(np.abs(ket - top)) <= 1e-15

    @given(st.integers(min_value=1, max_value=5), st.sampled_from([3, 4]))
    def test_norm_one(self, n, d):
        assert abs(np.linalg.norm(product_state(n, d)) - 1.0) <= 1e-12

    def test_qubit_pair_sites(self):
        st_ = product_state(3, 4)
        assert st_.shape == (4, 4, 4)
        assert st_.flat[0] == 1.0


class TestApplyReal:
    @pytest.mark.parametrize("mode", ["spin1", "qubit"])
    def test_matches_the_complex_matmul_on_every_bond(self, mode):
        p = spin_ops.bond_projector(mode)
        d = spin_ops.site_matrices(mode).shape[-1]
        rng = np.random.default_rng(17)
        worst = 0.0
        for n in range(3, 7):
            for _ in range(3):
                state = random_state(rng, n, d)
                for j in range(1, n + 1):
                    frame = rotate_sites(state, j - 1).reshape(d * d, -1)
                    got = apply_real(p, frame)
                    assert got.dtype == np.complex128 and got.shape == frame.shape
                    worst = max(worst, float(np.max(np.abs(got - p.astype(complex) @ frame))))
        assert worst <= 1e-15

    @pytest.mark.parametrize("frame_of", [
        lambda amps: amps[:81].reshape(9, 9).T,
        # each row contiguous, so the float view alone would not raise
        lambda amps: amps.reshape(18, 9)[::2],
        lambda amps: amps.reshape(9, 18)[:, :9],
    ], ids=["transposed", "every_other_row", "row_prefixes"])
    def test_non_contiguous_frame_raises(self, proj9, rng, frame_of):
        amps = random_state(rng, 4, 3).reshape(-1)
        with pytest.raises(ValueError, match="C-contiguous"):
            apply_real(proj9, frame_of(np.concatenate([amps, amps])))

    def test_complex_operator_or_real_frame_raises(self, proj9, rng):
        frame = random_state(rng, 4, 3).reshape(9, 9)
        with pytest.raises(ValueError, match="float64 operator"):
            apply_real(proj9.astype(complex), frame)
        with pytest.raises(ValueError, match="complex128 frame"):
            apply_real(proj9, frame.real.copy())


class TestApplyTwoSite:
    def test_identity_noop(self, rng):
        state = random_state(rng, 4, 3)
        out = apply_two_site(np.eye(9), 2, state)
        assert np.allclose(out, state, atol=1e-15)

    def test_projector_idempotent_through_embedding(self, rng, proj9):
        state = random_state(rng, 4, 3)
        once = apply_two_site(proj9, 3, state)
        twice = apply_two_site(proj9, 3, once)
        assert np.max(np.abs(once - twice)) <= 1e-12

    def test_wraparound_matches_digit_permutation(self, rng):
        # oracle: brute-force index permutation swapping digits of sites 3, 1
        n, d = 3, 3
        swap = np.zeros((9, 9))
        for a in range(3):
            for b in range(3):
                swap[3 * b + a, 3 * a + b] = 1.0
        state = random_state(rng, n, d)
        out = apply_two_site(swap, 3, state)  # bond (3, 1)
        expected = np.empty_like(state)
        for idx in range(d**n):
            digits = [(idx // d**(n - 1 - k)) % d for k in range(n)]
            digits[2], digits[0] = digits[0], digits[2]
            src = sum(dig * d**(n - 1 - k) for k, dig in enumerate(digits))
            expected.flat[idx] = state.flat[src]
        assert np.max(np.abs(out - expected)) <= 1e-15

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_dense_embedding(self, rng, d, n):
        # oracle: I_left (x) op (x) I_right on the full space; for the wrap
        # bond (n, 1), conjugated by the digit rotation that puts site n first
        state = random_state(rng, n, d)
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
                assert np.max(np.abs(out.reshape(-1) - dense @ state.reshape(-1))) <= 1e-12

    def test_disjoint_bonds_commute(self, rng):
        state = random_state(rng, 4, 3)
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        b = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        ab = apply_two_site(b, 3, apply_two_site(a, 1, state))
        ba = apply_two_site(a, 1, apply_two_site(b, 3, state))
        assert np.max(np.abs(ab - ba)) <= 1e-12

    def test_dimension_mismatch(self, rng):
        state = random_state(rng, 4, 3)
        with pytest.raises(ValueError):
            apply_two_site(np.eye(4), 1, state)
        with pytest.raises(ValueError):
            apply_two_site(np.eye(9), 5, state)

    def test_qubit_mode_bond_acts_on_four_qubits(self, rng, proj16):
        state = random_state(rng, 3, 4)
        once = apply_two_site(proj16, 3, state)  # wrap bond (3, 1)
        twice = apply_two_site(proj16, 3, once)
        assert np.max(np.abs(once - twice)) <= 1e-12


class TestFidelity:
    def test_self_and_orthogonal(self):
        a = product_state(2, 3)
        b = product_of(2, np.eye(3)[1])
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=2 * np.pi))
    def test_global_phase_invariance(self, phase):
        a = product_of(2, np.eye(3)[1])
        b = np.exp(1j * phase) * a
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
        singlet = next(c.vec for c in coupled_basis() if c.s == 0)
        state = singlet.reshape(3, 3)
        assert partial_fidelity(state, 1, proj9) == pytest.approx(1.0, abs=1e-12)


class TestBornSample:
    def test_zero_sector_is_coin_flip_and_invariant(self, aklt, proj9):
        kraus = measurement_kraus(0.5, proj9)
        state = aklt[4]
        psi0 = apply_two_site(kraus.m0, 2, state)
        psi1 = apply_two_site(kraus.m1, 2, state)
        assert np.vdot(psi0, psi0).real == pytest.approx(0.5, abs=1e-12)
        assert np.vdot(psi1, psi1).real == pytest.approx(0.5, abs=1e-12)
        rng = np.random.default_rng(0)
        _, post = born_sample(kraus, 2, state, rng)
        assert np.max(np.abs(post - state)) <= 1e-12

    def test_stretched_pair_probabilities(self, proj9):
        # oracle: scalar eigenvalue evaluation at E = 1, eps = 0.5
        eps = 0.5
        p0 = (np.cos(eps) - np.sin(eps)) ** 2 / 2
        kraus = measurement_kraus(eps, proj9)
        state = product_state(2, 3)
        psi0 = apply_two_site(kraus.m0, 1, state)
        assert np.vdot(psi0, psi0).real == pytest.approx(p0, abs=1e-12)
        # frequencies over many draws stay within 3 standard errors
        rng = np.random.default_rng(42)
        trials = 4000
        zeros = sum(1 - born_sample(kraus, 1, state, rng)[0] for _ in range(trials))
        se = np.sqrt(p0 * (1 - p0) / trials)
        assert abs(zeros / trials - p0) <= 3 * se

    def test_post_measurement_norm(self, rng, proj9):
        kraus = measurement_kraus(0.5, proj9)
        state = random_state(rng, 4, 3)
        for _ in range(20):
            _, state = born_sample(kraus, int(rng.integers(1, 5)), state, rng)
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-12

    def test_seeded_determinism(self, proj9):
        kraus = measurement_kraus(0.5, proj9)
        state = product_of(3, np.eye(3)[1])
        q1, s1 = born_sample(kraus, 1, state, np.random.default_rng(9))
        q2, s2 = born_sample(kraus, 1, state, np.random.default_rng(9))
        assert q1 == q2
        assert np.array_equal(s1, s2)

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
