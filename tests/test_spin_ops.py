import numpy as np
import pytest

from aklt_mite import spin_ops
from aklt_mite.statevec import StateVector, apply_two_site, product_state

from conftest import random_unit_vector


def comm(a, b):
    return a @ b - b @ a


class TestSpinMatrices:
    def test_spin1_entries(self):
        s = spin_ops.spin1_matrices()
        assert np.allclose(np.diag(s.sz), [1, 0, -1])
        r2 = np.sqrt(2)
        assert np.allclose(s.sx, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / r2)
        assert np.allclose(s.sy, 1j * np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]]) / r2)

    @pytest.mark.parametrize("maker,casimir", [
        (spin_ops.spin1_matrices, 2.0),        # S(S+1), S=1
        (spin_ops.spin_half_matrices, 0.75),   # S(S+1), S=1/2
        (spin_ops.paired_site_matrices, None),
    ])
    def test_su2_algebra(self, maker, casimir):
        s = maker()
        eye = np.eye(s.dim)
        assert np.max(np.abs(comm(s.sx, s.sy) - 1j * s.sz)) <= 1e-12
        assert np.max(np.abs(comm(s.sy, s.sz) - 1j * s.sx)) <= 1e-12
        assert np.max(np.abs(comm(s.sz, s.sx) - 1j * s.sy)) <= 1e-12
        for m in s.as_tuple():
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        if casimir is not None:
            total = sum(m @ m for m in s.as_tuple())
            assert np.max(np.abs(total - casimir * eye)) <= 1e-12


class TestBondProjector:
    def test_stretched_state_is_eigenvector(self, proj9):
        # |m=1>|m=1> is digit (0,0), flat index 0
        stretched = np.zeros(9)
        stretched[0] = 1.0
        assert np.allclose(proj9 @ stretched, stretched, atol=1e-12)

    @pytest.mark.parametrize("mode", ["spin1", "qubit"])
    def test_commutes_with_pair_sz(self, mode):
        p = spin_ops.bond_projector(mode)
        site = spin_ops.site_matrices(mode)
        eye = np.eye(site.dim)
        sz_tot = np.kron(site.sz, eye) + np.kron(eye, site.sz)
        assert np.max(np.abs(p @ sz_tot - sz_tot @ p)) <= 1e-12

    def test_mapped_restriction_same_spectrum(self, proj16):
        from aklt_mite.qubit_map import isometry_pullback

        vals = np.sort(np.linalg.eigvalsh(isometry_pullback(proj16)))
        assert np.allclose(vals, [0, 0, 0, 0, 1, 1, 1, 1, 1], atol=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            spin_ops.bond_projector("spin-7")


class TestCoupledBasis:
    def test_multiplet_sizes(self):
        basis = spin_ops.coupled_basis()
        assert len(basis) == 9
        counts = {s: sum(1 for c in basis if c.s == s) for s in (2, 1, 0)}
        assert counts == {2: 5, 1: 3, 0: 1}

    def test_orthonormal(self):
        basis = spin_ops.coupled_basis()
        gram = np.array([[np.vdot(a.vec, b.vec) for b in basis] for a in basis])
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-12

    def test_m_eigenvalues(self):
        s1 = spin_ops.spin1_matrices()
        eye = np.eye(3)
        sz_tot = np.kron(s1.sz, eye) + np.kron(eye, s1.sz)
        for cs in spin_ops.coupled_basis():
            assert np.linalg.norm(sz_tot @ cs.vec - cs.m * cs.vec) <= 1e-12


def _embedded_bond(op, j, n):
    """Independent dense embedding of a two-site operator on bond (j, j+1)."""
    dim = 3**n
    mat = np.zeros((dim, dim), dtype=complex)
    basis = np.zeros(dim, dtype=complex)
    for k in range(dim):
        basis[k] = 1.0
        mat[:, k] = apply_two_site(op, j, StateVector(basis.copy(), n, 3)).amps
        basis[k] = 0.0
    return mat


class TestHamiltonian:
    def test_annihilates_reference(self, aklt):
        for n, ref in aklt.items():
            resid = np.linalg.norm(spin_ops.hamiltonian_apply(ref.state).amps)
            assert resid <= 1e-10

    @pytest.mark.parametrize("n", [3, 4])
    def test_stretched_product_expectation(self, n):
        # every bond of the all-(m=1) product is the stretched S=2 pair
        state = product_state(n, 3)
        hpsi = spin_ops.hamiltonian_apply(state)
        assert abs(np.vdot(state.amps, hpsi.amps).real - n) <= 1e-12

    def test_positive_semidefinite(self, rng):
        for _ in range(100):
            state = StateVector(random_unit_vector(rng, 81), 4, 3)
            val = np.vdot(state.amps, spin_ops.hamiltonian_apply(state).amps).real
            assert val >= -1e-12

    def test_matches_dense_oracle(self, proj9):
        # brute-force dense Hamiltonian for N=3, including the wrap bond
        n = 3
        h = sum(_embedded_bond(proj9, j, n) for j in (1, 2, 3))
        rng = np.random.default_rng(0)
        v = random_unit_vector(rng, 27)
        via_op = spin_ops.hamiltonian_apply(StateVector(v.copy(), n, 3)).amps
        assert np.max(np.abs(h @ v - via_op)) <= 1e-12

    def test_requires_three_sites(self):
        with pytest.raises(ValueError):
            spin_ops.hamiltonian_apply(product_state(2, 3))


class TestAkltState:
    def test_zero_energy_and_unit_norm(self, aklt):
        for ref in aklt.values():
            assert abs(ref.energy) <= 1e-8
            assert abs(ref.state.norm() - 1.0) <= 1e-12

    def test_self_fidelity(self, aklt):
        from aklt_mite.statevec import fidelity

        assert abs(fidelity(aklt[4].state, aklt[4].state) - 1.0) <= 1e-12

    def test_gap_positive_full_spectrum(self, proj9):
        # oracle: full diagonalization of the 27x27 Hamiltonian
        h = sum(_embedded_bond(proj9, j, 3) for j in (1, 2, 3))
        vals = np.linalg.eigvalsh(h)
        assert abs(vals[0]) <= 1e-10
        assert vals[1] > 0.1

    def test_phase_convention_reproducible(self):
        a = spin_ops.aklt_state(3).state.amps
        b = spin_ops.aklt_state(3).state.amps
        assert np.array_equal(a, b)
        k = int(np.argmax(np.abs(a)))
        assert a[k].imag == pytest.approx(0.0, abs=1e-12)
        assert a[k].real > 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            spin_ops.aklt_state(2)
        with pytest.raises(ValueError):
            spin_ops.aklt_state(10)


class TestZeroMode:
    @pytest.mark.parametrize("spectrum, refusal", [
        (range(1, 9), "not a zero mode"),
        ([0, 0, 1, 2, 3, 4, 5, 6], "degenerate"),
    ])
    def test_refuses_a_spectrum_without_a_unique_zero(self, spectrum, refusal):
        diag = np.asarray(spectrum, dtype=complex)
        with pytest.raises(RuntimeError, match=refusal):
            spin_ops.zero_mode(lambda x: diag * x, 8)


class TestClosedFormReference:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_matches_exact_diagonalization(self, n):
        # both builds fix the global phase by the same rule, so no alignment
        closed = spin_ops.aklt_state(n).state.amps
        exact = spin_ops.exact_aklt_state(n).state.amps
        assert np.linalg.norm(closed - exact) <= 1e-12

    @pytest.mark.parametrize("n", range(3, 10))
    def test_energy_is_zero(self, n):
        assert abs(spin_ops.aklt_state(n).energy) <= 1e-12

    @pytest.mark.parametrize("n", range(3, 10))
    def test_energy_is_the_hamiltonian_expectation(self, n):
        ref = spin_ops.aklt_state(n)
        expected = np.vdot(ref.state.amps, spin_ops.hamiltonian_apply(ref.state).amps).real
        assert ref.energy >= 0.0
        assert abs(ref.energy - expected) <= 1e-15

    def test_perturbed_state_fails_the_certificate(self, monkeypatch):
        fix_phase = spin_ops._fix_phase

        def perturbed(vec):
            vec = fix_phase(vec)
            vec[0] += 1e-6
            return vec / np.linalg.norm(vec)

        monkeypatch.setattr(spin_ops, "_fix_phase", perturbed)
        with pytest.raises(RuntimeError, match="residual"):
            spin_ops.aklt_state(5)

    def test_oracle_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            spin_ops.exact_aklt_state(2)
        with pytest.raises(ValueError):
            spin_ops.exact_aklt_state(10)
