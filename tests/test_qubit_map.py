import numpy as np
import pytest

from aklt_mite import mite, qubit_map, spin_ops
from aklt_mite.statevec import StateVector, apply_two_site, product_state

from conftest import phase_aligned_distance, product_of, random_unit_vector


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
        state = StateVector(random_unit_vector(rng, 27), 3, 3)
        lifted = qubit_map.lift_state(state)
        v = qubit_map.triplet_isometry()
        dense = np.kron(np.kron(v, v), v)
        assert np.max(np.abs(lifted.amps - dense @ state.amps)) <= 1e-12
        back = qubit_map.restrict_state(lifted)
        assert np.max(np.abs(back.amps - state.amps)) <= 1e-12

    def test_lifted_spin_action_matches(self, rng):
        # mapped per-site operators reproduce spin-1 operators through the lift
        v = qubit_map.triplet_isometry()
        s1 = spin_ops.spin1_matrices()
        mapped = spin_ops.paired_site_matrices()
        for a, b in zip(s1.as_tuple(), mapped.as_tuple()):
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
        short = spin_ops.bond_projector_short_form("qubit")
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


class TestQubitReference:
    def test_zero_energy_and_residual(self):
        ref = qubit_map.qubit_aklt_state(3)
        assert abs(ref.energy) <= 1e-8
        resid = np.linalg.norm(spin_ops.hamiltonian_apply(ref.state).amps)
        assert resid <= 1e-10

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            qubit_map.qubit_aklt_state(2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_job_reference_matches_sector_diagonalization(self, n):
        lifted = mite.build_chain(n, "qubit").reference.state.amps
        exact = qubit_map.qubit_aklt_state(n).state.amps
        assert phase_aligned_distance(lifted, exact) <= 1e-12

    def test_job_reference_out_of_range(self):
        with pytest.raises(ValueError):
            qubit_map.reencoded_reference(9)


class TestQubitDynamics:
    def test_corrections_preserve_symmetric_sector(self, rng):
        site = spin_ops.paired_site_matrices()
        state = qubit_map.lift_state(StateVector(random_unit_vector(rng, 27), 3, 3))
        for _ in range(20):
            u = mite.correction_unitary(site, rng)
            state = apply_two_site(u, int(rng.integers(1, 4)), state)
        assert qubit_map.symmetric_weight(state) == pytest.approx(1.0, abs=1e-9)

    def test_short_mite_run_stays_symmetric(self):
        rec = mite.prepare(mite.MiteConfig(seed=1, r_max=15), 3, "qubit")
        assert rec.sym_weight is not None
        assert all(abs(w - 1.0) <= 1e-9 for w in rec.sym_weight)

    def test_qubit_mode_converges(self):
        rec = mite.prepare(mite.MiteConfig(seed=0), 3, "qubit")
        assert rec.f_tot[-1] > 0.9
