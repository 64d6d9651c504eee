import numpy as np
import pytest
from scipy.linalg import expm

from aklt_mite import recompile as rc
from aklt_mite.spin_ops import bond_projector


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestU3:
    def test_identity(self):
        assert np.allclose(rc.u3(0, 0, 0), np.eye(2), atol=1e-14)

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]])
        assert np.allclose(rc.u3(np.pi, 0, np.pi), x, atol=1e-14)

    def test_determinant(self, rng):
        for _ in range(25):
            th, ph, la = rng.uniform(0, 2 * np.pi, 3)
            det = np.linalg.det(rc.u3(th, ph, la))
            assert det == pytest.approx(np.exp(1j * (ph + la)), abs=1e-12)

    def test_unitary(self, rng):
        for _ in range(25):
            u = rc.u3(*rng.uniform(0, 2 * np.pi, 3))
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-14


def _cx_permutation_oracle(bonds):
    """Index-level CNOT construction: flip the target bit when the control
    bit is set, qubit 1 on the most significant position."""
    dim = 32
    mat = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (4 - k)) & 1 for k in range(5)]
        for c, t in bonds:
            if bits[c - 1]:
                bits[t - 1] ^= 1
        out = sum(b << (4 - k) for k, b in enumerate(bits))
        mat[out, idx] = 1.0
    return mat


class TestCircuit:
    def test_cnot_moments_match_permutation_oracle(self):
        assert np.array_equal(rc.cnot_moment("odd"), _cx_permutation_oracle([(1, 2), (3, 4)]))
        assert np.array_equal(rc.cnot_moment("even"), _cx_permutation_oracle([(2, 3), (4, 5)]))

    def test_bad_parity(self):
        with pytest.raises(ValueError):
            rc.cnot_moment("diagonal")

    def test_zero_depth_zero_params_is_identity(self):
        circ = rc.ParamCircuit(0, np.zeros(rc.n_params(0)))
        assert np.allclose(rc.circuit_unitary(circ), np.eye(32), atol=1e-14)

    def test_zero_params_leaves_cnot_layers(self):
        circ = rc.ParamCircuit(2, np.zeros(rc.n_params(2)))
        expected = rc.cnot_moment("even") @ rc.cnot_moment("odd")
        assert np.allclose(rc.circuit_unitary(circ), expected, atol=1e-14)

    def test_unitary_for_random_params(self, rng):
        circ = rc.ParamCircuit(3, rng.uniform(0, 2 * np.pi, rc.n_params(3)))
        u = rc.circuit_unitary(circ)
        assert np.max(np.abs(u @ u.conj().T - np.eye(32))) <= 1e-10

    def test_param_count(self):
        assert rc.n_params(0) == 15
        assert rc.n_params(4) == 75
        with pytest.raises(ValueError):
            rc.ParamCircuit(2, np.zeros(10))


class TestUnitaryFidelity:
    def test_self(self, rng):
        u = random_unitary(rng, 32)
        assert rc.unitary_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase(self, rng):
        u = random_unitary(rng, 32)
        assert rc.unitary_fidelity(u, np.exp(0.7j) * u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair(self):
        x_first = np.kron(np.array([[0, 1], [1, 0]]), np.eye(16))
        assert rc.unitary_fidelity(np.eye(32), x_first) == pytest.approx(0.0, abs=1e-14)

    def test_left_multiplication_invariance(self, rng):
        u, v = random_unitary(rng, 32), random_unitary(rng, 32)
        w = random_unitary(rng, 32)
        assert rc.unitary_fidelity(w @ u, w @ v) == pytest.approx(
            rc.unitary_fidelity(u, v), abs=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rc.unitary_fidelity(np.eye(4), np.eye(8))


class TestTargetUnitary:
    def test_unitary(self):
        t = rc.target_unitary(0.5)
        assert np.max(np.abs(t @ t.conj().T - np.eye(32))) <= 1e-12

    def test_closed_form_matches_exponential_oracle(self):
        eps = 0.5
        sy = np.array([[0, -1j], [1j, 0]])
        h = np.kron(bond_projector("qubit"), sy)
        assert np.max(np.abs(rc.target_unitary(eps) - expm(-1j * eps * h))) <= 1e-10

    def test_reduces_to_identity_at_zero_time(self):
        assert np.allclose(rc.target_unitary(0.0), np.eye(32), atol=1e-14)


class TestGradient:
    def test_finite_difference_crosscheck(self, rng):
        target = rc.target_unitary(0.5)
        x = rng.uniform(0, 2 * np.pi, rc.n_params(2))
        _, grad = rc.loss_and_grad(x, 2, target)
        h = 1e-5
        for k in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            fd = (rc.loss_and_grad(xp, 2, target)[0] - rc.loss_and_grad(xm, 2, target)[0]) / (2 * h)
            assert abs(grad[k] - fd) / max(abs(fd), 1e-8) <= 1e-4

    def test_descent_direction(self, rng):
        target = rc.target_unitary(0.5)
        x = rng.uniform(0, 2 * np.pi, rc.n_params(1))
        loss, grad = rc.loss_and_grad(x, 1, target)
        assert np.linalg.norm(grad, np.inf) > 1e-6  # non-stationary point
        step = 1e-4 * grad / np.linalg.norm(grad)
        assert rc.loss_and_grad(x - step, 1, target)[0] < loss

    def test_gradient_vanishes_at_self_target_optimum(self, rng):
        # recompiling a circuit against itself has a known exact optimum
        x_star = rng.uniform(0.5, 2 * np.pi - 0.5, rc.n_params(1))
        target = rc.circuit_unitary(rc.ParamCircuit(1, x_star))
        loss, grad = rc.loss_and_grad(x_star, 1, target)
        assert loss <= 1e-14
        assert np.linalg.norm(grad, np.inf) <= 1e-5


class TestOptimize:
    def test_self_target_recovers_unit_fidelity(self, rng):
        x_star = rng.uniform(0.5, 2 * np.pi - 0.5, rc.n_params(1))
        target = rc.circuit_unitary(rc.ParamCircuit(1, x_star))
        cfg = rc.OptimizerConfig(maxiter=300, n_hops=2, repetitions=1, seed=0)
        best = max(
            rc.optimize_once(target, 1, np.random.default_rng(seed), cfg).fidelity
            for seed in range(3)
        )
        assert best >= 0.9999

    def test_deterministic_given_seed(self):
        target = rc.target_unitary(0.5)
        cfg = rc.OptimizerConfig(maxiter=30, n_hops=1, repetitions=1, seed=0)
        a = rc.optimize_once(target, 0, np.random.default_rng(3), cfg)
        b = rc.optimize_once(target, 0, np.random.default_rng(3), cfg)
        assert a.fidelity == b.fidelity

    def test_scan_report_structure(self):
        cfg = rc.OptimizerConfig(maxiter=25, n_hops=1, repetitions=2, seed=0)
        report = rc.recompile_scan(0.5, [0, 1], cfg)
        assert len(report.entries) == 4
        summary = report.summary()
        for nl in (0, 1):
            assert summary[nl]["max_fidelity"] >= summary[nl]["mean_fidelity"]
            assert summary[nl]["cnot_count"] == 2 * nl
        assert rc.cnot_count(6) == 12

    def test_zero_depth_cannot_reach_entangling_target(self):
        # single-qubit gates alone cannot produce the projector coupling
        target = rc.target_unitary(0.5)
        cfg = rc.OptimizerConfig(maxiter=300, n_hops=3, repetitions=1, seed=0)
        best = max(
            rc.optimize_once(target, 0, np.random.default_rng(seed), cfg).fidelity
            for seed in range(4)
        )
        assert best < 0.999
