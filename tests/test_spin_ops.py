import numpy as np
import pytest

from aklt_mite import spin_ops, verify
from aklt_mite.statevec import apply_two_site, bond_weights, product_state

from conftest import random_state, random_unit_vector


def comm(a, b):
    return a @ b - b @ a


SITE_DIMS = {spin_ops.spin1_matrices: 3, spin_ops.spin_half_matrices: 2,
             spin_ops.paired_site_matrices: 4}


class TestSpinMatrices:
    def test_spin1_entries(self):
        sx, sy, sz = spin_ops.spin1_matrices()
        assert np.allclose(np.diag(sz), [1, 0, -1])
        r2 = np.sqrt(2)
        assert np.allclose(sx, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / r2)
        assert np.allclose(sy, 1j * np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]]) / r2)

    @pytest.mark.parametrize("maker,casimir", [
        (spin_ops.spin1_matrices, 2.0),        # S(S+1), S=1
        (spin_ops.spin_half_matrices, 0.75),   # S(S+1), S=1/2
        (spin_ops.paired_site_matrices, None),
    ])
    def test_su2_algebra(self, maker, casimir):
        s = maker()
        # one complex (3, d, d) stack in (Sx, Sy, Sz) order
        d = SITE_DIMS[maker]
        assert isinstance(s, np.ndarray)
        assert s.shape == (3, d, d)
        assert s.dtype == complex
        sx, sy, sz = s
        eye = np.eye(d)
        assert np.max(np.abs(comm(sx, sy) - 1j * sz)) <= 1e-12
        assert np.max(np.abs(comm(sy, sz) - 1j * sx)) <= 1e-12
        assert np.max(np.abs(comm(sz, sx) - 1j * sy)) <= 1e-12
        for m in s:
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        if casimir is not None:
            total = sum(m @ m for m in s)
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
        sz = spin_ops.site_matrices(mode)[2]
        eye = np.eye(sz.shape[0])
        sz_tot = np.kron(sz, eye) + np.kron(eye, sz)
        assert np.max(np.abs(p @ sz_tot - sz_tot @ p)) <= 1e-12

    @pytest.mark.parametrize("mode", ["spin1", "qubit"])
    def test_real_because_built_with_an_imaginary_part_of_exactly_zero(self, mode):
        """The quartic is built in complex arithmetic from the (Sx, Sy, Sz)
        stack; its imaginary part is exactly 0 in both encodings, so the
        float64 projector drops nothing."""
        csq = spin_ops._two_site_total_spin_sq(spin_ops.site_matrices(mode))
        built = csq @ (csq - 2 * np.eye(len(csq))) / 24.0
        assert not built.imag.any()
        p = spin_ops.bond_projector(mode)
        assert p.dtype == np.float64 and p.flags.c_contiguous
        assert np.array_equal(p, ((built + built.conj().T) / 2).real)

    def test_mapped_restriction_same_spectrum(self, proj16):

        vals = np.sort(np.linalg.eigvalsh(verify.isometry_pullback(proj16)))
        assert np.allclose(vals, [0, 0, 0, 0, 1, 1, 1, 1, 1], atol=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            spin_ops.bond_projector("spin-7")


class TestCoupledBasis:
    def test_multiplet_sizes(self):
        basis = verify.coupled_basis()
        assert len(basis) == 9
        counts = {s: sum(1 for c in basis if c.s == s) for s in (2, 1, 0)}
        assert counts == {2: 5, 1: 3, 0: 1}

    def test_orthonormal(self):
        basis = verify.coupled_basis()
        gram = np.array([[np.vdot(a.vec, b.vec) for b in basis] for a in basis])
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-12

    def test_m_eigenvalues(self):
        sz = spin_ops.spin1_matrices()[2]
        eye = np.eye(3)
        sz_tot = np.kron(sz, eye) + np.kron(eye, sz)
        for cs in verify.coupled_basis():
            assert np.linalg.norm(sz_tot @ cs.vec - cs.m * cs.vec) <= 1e-12

    def test_total_spin_and_condon_shortley_lowering(self):
        """The table's states are S(S+1) eigenvectors of the total spin, and
        the total lowering operator takes |S, m> to sqrt(S(S+1) - m(m-1))
        |S, m-1> with a positive factor, the Condon-Shortley phases."""
        sx, sy, sz = spin_ops.spin1_matrices()
        eye = np.eye(3)
        total = [np.kron(s, eye) + np.kron(eye, s) for s in (sx, sy, sz)]
        casimir = sum(t @ t for t in total)
        lower = total[0] - 1j * total[1]
        basis = {(cs.s, cs.m): cs.vec for cs in verify.coupled_basis()}
        for (s, m), vec in basis.items():
            assert np.linalg.norm(casimir @ vec - s * (s + 1) * vec) <= 1e-12
            below = basis.get((s, m - 1), np.zeros(9))
            assert np.linalg.norm(lower @ vec - np.sqrt(s * (s + 1) - m * (m - 1)) * below) <= 1e-12


def _embedded_bond(op, j, n):
    """Independent dense embedding of a two-site operator on bond (j, j+1)."""
    dim = 3**n
    mat = np.zeros((dim, dim), dtype=complex)
    basis = np.zeros(dim, dtype=complex)
    for k in range(dim):
        basis[k] = 1.0
        mat[:, k] = apply_two_site(op, j, basis.reshape((3,) * n)).reshape(-1)
        basis[k] = 0.0
    return mat


class TestHamiltonian:
    def test_annihilates_reference(self, aklt, proj9):
        for n, ref in aklt.items():
            resid = np.linalg.norm(spin_ops.hamiltonian_apply(ref, proj9))
            assert resid <= 1e-10

    @pytest.mark.parametrize("n", [3, 4])
    def test_stretched_product_expectation(self, n, proj9):
        # every bond of the all-(m=1) product is the stretched S=2 pair
        state = product_state(n, 3)
        hpsi = spin_ops.hamiltonian_apply(state, proj9)
        assert abs(np.vdot(state, hpsi).real - n) <= 1e-12

    def test_positive_semidefinite(self, rng, proj9):
        for _ in range(100):
            state = random_state(rng, 4, 3)
            val = np.vdot(state, spin_ops.hamiltonian_apply(state, proj9)).real
            assert val >= -1e-12

    def test_matches_dense_oracle(self, proj9):
        # brute-force dense Hamiltonian for N=3, including the wrap bond
        n = 3
        h = sum(_embedded_bond(proj9, j, n) for j in (1, 2, 3))
        rng = np.random.default_rng(0)
        v = random_unit_vector(rng, 27)
        via_op = spin_ops.hamiltonian_apply(v.reshape((3,) * n), proj9).reshape(-1)
        assert np.max(np.abs(h @ v - via_op)) <= 1e-12

    def test_requires_three_sites(self, proj9):
        with pytest.raises(ValueError):
            spin_ops.hamiltonian_apply(product_state(2, 3), proj9)


class TestAkltState:
    def test_zero_energy_and_unit_norm(self, aklt, proj9):
        for ref in aklt.values():
            assert abs(np.vdot(ref, spin_ops.hamiltonian_apply(ref, proj9)).real) <= 1e-8
            assert abs(np.linalg.norm(ref) - 1.0) <= 1e-12

    def test_self_fidelity(self, aklt):
        from aklt_mite.statevec import fidelity

        assert abs(fidelity(aklt[4], aklt[4]) - 1.0) <= 1e-12

    def test_gap_positive_full_spectrum(self, proj9):
        # oracle: full diagonalization of the 27x27 Hamiltonian
        h = sum(_embedded_bond(proj9, j, 3) for j in (1, 2, 3))
        vals = np.linalg.eigvalsh(h)
        assert abs(vals[0]) <= 1e-10
        assert vals[1] > 0.1

    def test_phase_convention_reproducible(self):
        a = spin_ops.aklt_state(3)
        b = spin_ops.aklt_state(3)
        assert np.array_equal(a, b)
        k = int(np.argmax(np.abs(a)))
        assert a.flat[k].imag == pytest.approx(0.0, abs=1e-12)
        assert a.flat[k].real > 0

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
        closed = spin_ops.aklt_state(n)
        exact = verify.exact_aklt_state(n)
        assert np.linalg.norm(closed - exact) <= 1e-12

    @pytest.mark.parametrize("n", range(3, 10))
    def test_bit_identical_to_einsum_contraction(self, n):
        """One stacked matmul per site gives the bits, sign bits included,
        of the pairwise einsum contraction, finished alike."""
        a = np.zeros((3, 2, 2))
        a[0, 0, 1] = np.sqrt(2.0 / 3.0)
        a[1] = -np.sqrt(1.0 / 3.0) * np.diag([1.0, -1.0])
        a[2, 1, 0] = -np.sqrt(2.0 / 3.0)
        chain = a
        for _ in range(n - 1):
            chain = np.einsum("kab,sbc->ksac", chain, a).reshape(-1, 2, 2)
        vec = np.einsum("kaa->k", chain).astype(complex)
        want = spin_ops._fix_phase(vec / np.linalg.norm(vec)).reshape((3,) * n)
        got = spin_ops.aklt_state(n)
        assert np.array_equal(got, want)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))

    @pytest.mark.parametrize("n", range(3, 10))
    def test_energy_is_zero(self, n, proj9):
        ref = spin_ops.aklt_state(n)
        assert abs(np.vdot(ref, spin_ops.hamiltonian_apply(ref, proj9)).real) <= 1e-12

    @pytest.mark.parametrize("n", range(3, 10))
    def test_energy_is_the_hamiltonian_expectation(self, n, proj9):
        """The certificate's bond weights sum to <psi|H psi>."""
        ref = spin_ops.aklt_state(n)
        energy = sum(bond_weights(ref, proj9))
        expected = np.vdot(ref, spin_ops.hamiltonian_apply(ref, proj9)).real
        assert energy >= 0.0
        assert abs(energy - expected) <= 1e-15

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
            verify.exact_aklt_state(2)
        with pytest.raises(ValueError):
            verify.exact_aklt_state(10)
