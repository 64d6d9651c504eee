import numpy as np
import pytest

from aklt_mite import mite, qubit_map, spin_ops, verify
from aklt_mite.statevec import apply_two_site, product_state

from conftest import phase_aligned_distance, product_of, random_state


class TestIsometry:
    def test_columns_orthonormal(self):
        v = qubit_map.triplet_isometry()
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-15)

    def test_basis_order(self):
        v = qubit_map.triplet_isometry()
        # m=+1 -> |00>, m=0 -> (|01>+|10>)/sqrt2, m=-1 -> |11>
        assert v[0, 0] == 1.0
        assert v[1, 1] == pytest.approx(1 / np.sqrt(2))
        assert v[2, 1] == pytest.approx(1 / np.sqrt(2))
        assert v[3, 2] == 1.0

    def test_lift_restrict_roundtrip(self, rng):
        state = random_state(rng, 3, 3)
        lifted = qubit_map.lift_state(state)
        v = qubit_map.triplet_isometry()
        dense = np.kron(np.kron(v, v), v)
        assert np.max(np.abs(lifted.reshape(-1) - dense @ state.reshape(-1))) <= 1e-12
        back = qubit_map.restrict_state(lifted)
        assert np.max(np.abs(back - state)) <= 1e-12

    def test_lifted_spin_action_matches(self, rng):
        # mapped per-site operators reproduce spin-1 operators through the lift
        v = qubit_map.triplet_isometry()
        s1 = spin_ops.spin1_matrices()
        mapped = spin_ops.paired_site_matrices()
        for a, b in zip(s1, mapped):
            assert np.max(np.abs(v.conj().T @ b @ v - a)) <= 1e-12


class TestMappedProjector:
    def test_traces(self, proj16):
        # full trace recorded; restricted to the symmetric sector it is 5
        assert np.trace(proj16).real == pytest.approx(5.0, abs=1e-12)
        pi2 = np.kron(qubit_map.symmetric_site_projector(), qubit_map.symmetric_site_projector())
        assert np.trace(pi2 @ proj16).real == pytest.approx(5.0, abs=1e-12)

    def test_true_projector_on_full_space(self, proj16):
        assert np.max(np.abs(proj16 @ proj16 - proj16)) <= 1e-12
        vals = np.linalg.eigvalsh(proj16)
        assert np.allclose(np.sort(vals)[-5:], 1, atol=1e-12)
        assert np.allclose(np.sort(vals)[:-5], 0, atol=1e-12)

    def test_short_form_agrees_only_on_symmetric_sector(self, proj16):
        """The quadratic short form relies on S.S = 2 per site, which fails
        on singlet-carrying sectors: there it takes the value 1/3 instead of
        an eigenvalue in {0, 1}.  Both forms coincide after symmetric-sector
        projection."""
        short = verify.bond_projector_short_form("qubit")
        assert np.max(np.abs(short - proj16)) > 0.2
        pi2 = np.kron(qubit_map.symmetric_site_projector(), qubit_map.symmetric_site_projector())
        assert np.max(np.abs(pi2 @ (short - proj16) @ pi2)) <= 1e-12
        off_sector = np.sort(np.linalg.eigvalsh(short))
        assert np.min(np.abs(off_sector[4:11] - 1 / 3)) <= 1e-12


class TestSymmetricWeight:
    def test_site_singlet_has_zero_weight(self):
        singlet = np.zeros(4, dtype=complex)
        singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        state = product_of(2, singlet)
        assert qubit_map.symmetric_weight(state) == pytest.approx(0.0, abs=1e-12)

    def test_requires_pair_encoding(self):
        with pytest.raises(ValueError):
            qubit_map.symmetric_weight(product_state(3, 3))

    def test_loop_check_sees_a_weight_above_one(self):
        """A symmetric state of norm 1.2 has weight 1.44, which the
        trajectory loop's check must see rather than a weight clamped to 1."""
        state = qubit_map.lift_state(product_state(3, 3))
        with pytest.raises(RuntimeError, match="symmetric-sector weight 1.44"):
            mite._checked_symmetric_weight(1.2 * state)


class TestQubitReference:
    def test_zero_energy_and_residual(self, proj16):
        ref = qubit_map.qubit_aklt_state(3)
        h_ref = spin_ops.hamiltonian_apply(ref, proj16)
        assert abs(np.vdot(ref, h_ref).real) <= 1e-8
        resid = np.linalg.norm(h_ref)
        assert resid <= 1e-10

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            qubit_map.qubit_aklt_state(2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_job_reference_matches_sector_diagonalization(self, n):
        lifted = mite.build_chain(n, "qubit").reference
        exact = qubit_map.qubit_aklt_state(n)
        assert phase_aligned_distance(lifted, exact) <= 1e-12

    def test_job_reference_out_of_range(self):
        with pytest.raises(ValueError):
            qubit_map.reencoded_reference(9)


class TestQubitDynamics:
    def test_corrections_preserve_symmetric_sector(self, rng):
        state = qubit_map.lift_state(random_state(rng, 3, 3))
        for _ in range(20):
            u = mite.correction_unitary(4, rng)
            state = apply_two_site(u, int(rng.integers(1, 4)), state)
        assert qubit_map.symmetric_weight(state) == pytest.approx(1.0, abs=1e-9)

    def test_short_mite_run_stays_symmetric(self):
        rec = mite.prepare(mite.MiteConfig(seed=1, r_max=15), 3, "qubit")
        assert rec.sym_weight is not None
        assert all(abs(w - 1.0) <= 1e-9 for w in rec.sym_weight)

    def test_qubit_mode_converges(self):
        rec = mite.prepare(mite.MiteConfig(seed=0), 3, "qubit")
        assert rec.f_tot[-1] > 0.9


class TestTwoEncodings:
    """One trajectory, two encodings: the qubit site |00> is the spin-1
    m = +1 state and both modes draw the same random numbers, so at one eta
    a qubit trajectory is its spin-1 twin."""

    @pytest.mark.parametrize("noise", [None, "x", "z"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_prepare_gives_the_same_trajectory(self, n, noise):
        for seed in range(3):
            config = mite.MiteConfig(eta=4.0, r_max=20, seed=seed, early_stop=None,
                                     noise_axis=noise, noise_sigma2=1e-2 if noise else 0.0)
            spin1, qubit = (mite.prepare(config, n, mode) for mode in ("spin1", "qubit"))
            assert qubit.measurements == spin1.measurements, seed
            assert qubit.corrections == spin1.corrections, seed
            assert qubit.e_peak == spin1.e_peak, seed
            assert np.max(np.abs(np.subtract(qubit.f_tot, spin1.f_tot))) <= 1e-13, seed
            assert np.max(np.abs(np.subtract(qubit.partial, spin1.partial))) <= 1e-13, seed
