import dataclasses

import numpy as np
import pytest
import scipy.optimize

from aklt_mite import jobs, spin_ops, verify
from aklt_mite import recompile as rc


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _u3(theta, phi, lam):
    """Scalar oracle: the three-angle gate, standard parameterization."""
    ct, st = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [ct, -np.exp(1j * lam) * st],
            [np.exp(1j * phi) * st, np.exp(1j * (phi + lam)) * ct],
        ]
    )


def _du3(theta, phi, lam, which):
    """Scalar oracle: derivative of :func:`_u3` in angle ``which`` (0, 1, 2)."""
    ct, st = np.cos(theta / 2), np.sin(theta / 2)
    ep, el = np.exp(1j * phi), np.exp(1j * lam)
    if which == 0:
        return 0.5 * np.array([[-st, -el * ct], [ep * ct, -ep * el * st]])
    if which == 1:
        return np.array([[0, 0], [1j * ep * st, 1j * ep * el * ct]])
    return np.array([[0, -1j * el * st], [0, 1j * ep * el * ct]])


def _gate(theta, phi, lam):
    """The gate as the production builder defines it."""
    return rc.u3_and_derivatives([theta, phi, lam])[0]


class TestU3:
    def test_identity(self):
        assert np.allclose(_gate(0, 0, 0), np.eye(2), atol=1e-14)

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]])
        assert np.allclose(_gate(np.pi, 0, np.pi), x, atol=1e-14)

    def test_determinant(self, rng):
        for _ in range(25):
            th, ph, la = rng.uniform(0, 2 * np.pi, 3)
            det = np.linalg.det(_gate(th, ph, la))
            assert det == pytest.approx(np.exp(1j * (ph + la)), abs=1e-12)

    def test_unitary(self, rng):
        for _ in range(25):
            u = _gate(*rng.uniform(0, 2 * np.pi, 3))
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-14

    def test_builder_matches_scalar_formulas_bitwise(self, rng):
        special = [0.0, np.pi / 2, np.pi, 2 * np.pi]
        grid = np.array(np.meshgrid(special, special, special)).reshape(3, -1).T
        angles = np.concatenate([rng.uniform(0, 2 * np.pi, (200, 3)), grid])
        got = rc.u3_and_derivatives(angles)
        assert got.shape == (len(angles), 4, 2, 2)
        # the builder's batch layout, (moments, gates, angles), must not matter
        assert np.array_equal(rc.u3_and_derivatives(angles[:50].reshape(10, 5, 3)),
                              got[:50].reshape(10, 5, 4, 2, 2))
        for row, (th, ph, la) in zip(got, angles):
            assert np.array_equal(row[0], _u3(th, ph, la))
            for a in range(3):
                assert np.array_equal(row[1 + a], _du3(th, ph, la, a)), (th, ph, la, a)


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

    @pytest.mark.parametrize("parity", ["odd", "even"])
    def test_gathers_match_cnot_products_bitwise(self, rng, parity):
        m = rc.cnot_moment(parity)
        assert np.array_equal(m, m.T)  # so one table gathers rows and columns alike
        g = rc.cnot_gather(parity)
        for _ in range(5):
            x = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
            assert np.array_equal(x[g], m @ x)
            assert np.array_equal(x.take(g, axis=1), x @ m)

    def test_bad_parity(self):
        with pytest.raises(ValueError):
            rc.cnot_moment("diagonal")

    def test_zero_depth_zero_params_is_identity(self):
        assert np.allclose(verify.circuit_unitary(np.zeros(rc.n_params(0))), np.eye(32), atol=1e-14)

    def test_zero_params_leaves_cnot_layers(self):
        expected = rc.cnot_moment("even") @ rc.cnot_moment("odd")
        assert np.allclose(verify.circuit_unitary(np.zeros(rc.n_params(2))), expected, atol=1e-14)

    def test_unitary_for_random_params(self, rng):
        u = verify.circuit_unitary(rng.uniform(0, 2 * np.pi, rc.n_params(3)))
        assert np.max(np.abs(u @ u.conj().T - np.eye(32))) <= 1e-10

    def test_param_count(self):
        assert rc.n_params(0) == 15
        assert rc.n_params(4) == 75
        # the angle vector's length gives the depth: it must be a positive multiple of 15
        target = rc.target_unitary(0.5)
        for length in (0, 10):
            with pytest.raises(ValueError):
                rc.loss_and_grad(np.zeros(length), target)
            with pytest.raises(ValueError):
                verify.circuit_unitary(np.zeros(length))


class TestUnitaryFidelity:
    def test_self(self, rng):
        u = random_unitary(rng, 32)
        assert verify.unitary_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase(self, rng):
        u = random_unitary(rng, 32)
        assert verify.unitary_fidelity(u, np.exp(0.7j) * u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair(self):
        x_first = np.kron(np.array([[0, 1], [1, 0]]), np.eye(16))
        assert verify.unitary_fidelity(np.eye(32), x_first) == pytest.approx(0.0, abs=1e-14)

    def test_left_multiplication_invariance(self, rng):
        u, v = random_unitary(rng, 32), random_unitary(rng, 32)
        w = random_unitary(rng, 32)
        assert verify.unitary_fidelity(w @ u, w @ v) == pytest.approx(
            verify.unitary_fidelity(u, v), abs=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            verify.unitary_fidelity(np.eye(4), np.eye(8))


class TestTargetUnitary:
    def test_unitary(self):
        t = rc.target_unitary(0.5)
        assert np.max(np.abs(t @ t.conj().T - np.eye(32))) <= 1e-12

    def test_reduces_to_identity_at_zero_time(self):
        assert np.allclose(rc.target_unitary(0.0), np.eye(32), atol=1e-14)

    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
    def test_ancilla_read_in_x_gives_the_trajectories_kraus_pair(self, eps):
        """The circuit the recompilation targets is the trajectories'
        measurement: with the ancilla (the fastest axis) prepared in |0>
        and read in the X basis, U = exp(-i eps P (x) sigma_y) leaves
        <-|U|0> = (1 + (cos eps - 1 - sin eps) P) / sqrt(2) and <+|U|0> =
        (1 + (cos eps - 1 + sin eps) P) / sqrt(2) on the four system qubits,
        the pair ``verify.measurement_kraus`` builds (sigma_y |0> = i |1>)."""
        u = rc.target_unitary(eps).reshape(16, 2, 16, 2)[:, :, :, 0]  # U|0> on the ancilla
        minus = (u[:, 0] - u[:, 1]) / np.sqrt(2)
        plus = (u[:, 0] + u[:, 1]) / np.sqrt(2)
        kraus = verify.measurement_kraus(eps, spin_ops.bond_projector("qubit"))
        assert np.max(np.abs(minus - kraus.m0)) <= 1e-15
        assert np.max(np.abs(plus - kraus.m1)) <= 1e-15


def _kron_moment(gates):
    out = gates[0]
    for g in gates[1:]:
        out = np.kron(out, g)
    return out


def _oracle_moments(params, n_layers):
    p = params.reshape(-1, 5, 3)
    moments = [_kron_moment([_u3(*angles) for angles in p[0]])]
    for layer in range(1, n_layers + 1):
        moments.append(rc.cnot_moment("odd" if layer % 2 == 1 else "even"))
        moments.append(_kron_moment([_u3(*angles) for angles in p[layer]]))
    return moments


def _oracle_unitary(params, n_layers):
    out = np.eye(32, dtype=complex)
    for m in _oracle_moments(params, n_layers):
        out = m @ out
    return out


def _oracle_loss_and_grad(params, n_layers, target):
    """The per-angle ``np.kron`` gradient: for every angle, the gate moment
    with that gate differentiated is built by its own chain of krons."""
    moments = _oracle_moments(params, n_layers)
    suffix = [np.eye(32, dtype=complex)]
    for m in moments:
        suffix.append(m @ suffix[-1])
    v = suffix[-1]
    prefix = [np.eye(32, dtype=complex)] * len(moments)
    acc = np.eye(32, dtype=complex)
    for i in range(len(moments) - 1, -1, -1):
        prefix[i] = acc
        acc = acc @ moments[i]
    t = np.vdot(v, target)
    mag = abs(t)
    grad = np.zeros_like(params)
    p = params.reshape(-1, 5, 3)
    for block in range(n_layers + 1):
        core = prefix[2 * block].conj().T @ target @ suffix[2 * block].conj().T
        gates = [_u3(*angles) for angles in p[block]]
        for q in range(5):
            for a in range(3):
                dgates = list(gates)
                dgates[q] = _du3(*p[block, q], a)
                dt = np.vdot(_kron_moment(dgates), core)
                grad[block * 15 + 3 * q + a] = -(t.conjugate() * dt).real / (mag * 32)
    return 1.0 - mag / 32, grad


class TestGradient:
    def test_finite_difference_crosscheck(self, rng):
        # depth 4 is the benchmarked depth
        target = rc.target_unitary(0.5)
        for n_layers in (0, 2, 4):
            x = rng.uniform(0, 2 * np.pi, rc.n_params(n_layers))
            _, grad = rc.loss_and_grad(x, target)
            h = 1e-5
            for k in range(len(x)):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fd = (rc.loss_and_grad(xp, target)[0]
                      - rc.loss_and_grad(xm, target)[0]) / (2 * h)
                assert abs(grad[k] - fd) / max(abs(fd), 1e-8) <= 1e-4, (n_layers, k)

    @pytest.mark.parametrize("n_layers", range(8))
    def test_bit_identical_to_kron_oracle(self, rng, n_layers):
        # the batched kron multiplies in np.kron's order, so no bit may move
        for epsilon in (0.5, 1.3):
            target = rc.target_unitary(epsilon)
            for _ in range(4):
                x = rng.uniform(0, 2 * np.pi, rc.n_params(n_layers))
                loss, grad = rc.loss_and_grad(x, target)
                want_loss, want_grad = _oracle_loss_and_grad(x, n_layers, target)
                assert loss == want_loss
                assert np.array_equal(grad, want_grad)
                assert np.array_equal(verify.circuit_unitary(x), _oracle_unitary(x, n_layers))

    def test_batched_kron_matches_np_kron(self, rng):
        gates = rng.standard_normal((7, 5, 2, 2)) + 1j * rng.standard_normal((7, 5, 2, 2))
        got = rc._kron_gates(gates)
        assert got.shape == (7, 32, 32)
        for row, want in zip(got, gates):
            assert np.array_equal(row, _kron_moment(list(want)))

    def test_vanishing_overlap_gives_unit_loss_and_zero_gradient(self):
        # zero angles at depth 0 give the identity, whose overlap with
        # Z (x) 1 is its trace, exactly 0: no gradient direction exists
        target = np.kron(np.diag([1.0, -1.0]), np.eye(16)).astype(complex)
        loss, grad = rc.loss_and_grad(np.zeros(rc.n_params(0)), target)
        assert loss == 1.0
        assert np.array_equal(grad, np.zeros(rc.n_params(0)))

    def test_descent_direction(self, rng):
        target = rc.target_unitary(0.5)
        x = rng.uniform(0, 2 * np.pi, rc.n_params(1))
        loss, grad = rc.loss_and_grad(x, target)
        assert np.linalg.norm(grad, np.inf) > 1e-6  # non-stationary point
        step = 1e-4 * grad / np.linalg.norm(grad)
        assert rc.loss_and_grad(x - step, target)[0] < loss

    def test_gradient_vanishes_at_self_target_optimum(self, rng):
        # recompiling a circuit against itself has a known exact optimum
        x_star = rng.uniform(0.5, 2 * np.pi - 0.5, rc.n_params(1))
        target = verify.circuit_unitary(x_star)
        loss, grad = rc.loss_and_grad(x_star, target)
        assert loss <= 1e-14
        assert np.linalg.norm(grad, np.inf) <= 1e-5


class TestOptimize:
    def test_self_target_recovers_unit_fidelity(self, rng):
        x_star = rng.uniform(0.5, 2 * np.pi - 0.5, rc.n_params(1))
        target = verify.circuit_unitary(x_star)
        cfg = rc.OptimizerConfig(maxiter=300, n_hops=2, repetitions=1, seed=0)
        best = max(
            rc.optimize_once(target, 1, np.random.default_rng(seed), cfg).fidelity
            for seed in range(3)
        )
        assert best >= 0.9999

    def test_config_is_frozen(self):
        # a field can change only through __post_init__'s checks
        cfg = rc.OptimizerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.maxiter = 0

    def test_deterministic_given_seed(self):
        target = rc.target_unitary(0.5)
        cfg = rc.OptimizerConfig(maxiter=30, n_hops=1, repetitions=1, seed=0)
        a = rc.optimize_once(target, 0, np.random.default_rng(3), cfg)
        b = rc.optimize_once(target, 0, np.random.default_rng(3), cfg)
        assert a.fidelity == b.fidelity

    def test_scan_report_structure(self):
        cfg = rc.OptimizerConfig(maxiter=25, n_hops=1, repetitions=2, seed=0)
        _, rows, summary = jobs.run_recompile({"epsilon": 0.5, "threads": 1}, [0, 1], cfg)
        assert len(rows) == 4
        for nl in ("0", "1"):
            per_depth = summary["per_depth"][nl]
            assert per_depth["max_fidelity"] >= per_depth["mean_fidelity"]
            assert per_depth["cnot_count"] == 2 * int(nl)
        assert rc.cnot_count(6) == 12

    def test_failed_repetition_is_left_out_of_its_depth_summary(self, monkeypatch):
        """The scan's summary counts a failed repetition in ``failures``
        and takes mean, std and max over the others; its row keeps a NaN."""
        optimize_once, found = rc.optimize_once, []

        def second_fails(target, n_layers, rng, cfg):
            found.append(optimize_once(target, n_layers, rng, cfg))
            if len(found) == 2:
                return rc.RepetitionResult(float("nan"), 0, found[-1].iterations, failed=True)
            return found[-1]

        monkeypatch.setattr(rc, "optimize_once", second_fails)
        cfg = rc.OptimizerConfig(maxiter=5, n_hops=1, repetitions=3, seed=0)
        _, rows, summary = jobs.run_recompile({"epsilon": 0.5, "threads": 1}, [1], cfg)
        per_depth = summary["per_depth"]["1"]
        kept = [found[0].fidelity, found[2].fidelity]
        assert per_depth["failures"] == 1
        assert kept[0] != kept[1]
        assert per_depth["mean_fidelity"] == np.mean(kept)
        assert per_depth["std_fidelity"] == np.std(kept)
        assert per_depth["max_fidelity"] == max(kept)
        assert [row[:2] for row in rows] == [(1, 0), (1, 1), (1, 2)]
        assert [np.isnan(row[2]) for row in rows] == [False, True, False]

    def test_first_run_nonfinite_loss_fails_without_hops(self):
        target = np.full((32, 32), np.nan, dtype=complex)
        cfg = rc.OptimizerConfig(maxiter=5, n_hops=0, repetitions=1, seed=0)
        result = rc.optimize_once(target, 0, np.random.default_rng(0), cfg)
        assert result.failed
        assert np.isnan(result.fidelity)
        assert result.hops_used == 0

    @pytest.mark.parametrize("k", [1, 3])
    def test_nonfinite_loss_in_hop_k_fails_at_that_hop(self, monkeypatch, k):
        lbfgsb, runs = rc.lbfgsb, []

        def poisoned(*args):
            x, fun, nit = lbfgsb(*args)
            runs.append(fun)
            if len(runs) == 1 + k:  # the first run, then hops 1..k
                fun = np.nan
            return x, fun, nit

        monkeypatch.setattr(rc, "lbfgsb", poisoned)
        cfg = rc.OptimizerConfig(maxiter=5, n_hops=4, repetitions=1, seed=0)
        result = rc.optimize_once(rc.target_unitary(0.5), 0, np.random.default_rng(0), cfg)
        assert result.failed
        assert result.hops_used == k
        assert np.isnan(result.fidelity)
        assert len(runs) == 1 + k  # no hop ran after the abort

    def test_zero_depth_cannot_reach_entangling_target(self):
        # single-qubit gates alone cannot produce the projector coupling
        target = rc.target_unitary(0.5)
        cfg = rc.OptimizerConfig(maxiter=300, n_hops=3, repetitions=1, seed=0)
        best = max(
            rc.optimize_once(target, 0, np.random.default_rng(seed), cfg).fidelity
            for seed in range(4)
        )
        assert best < 0.999


class TestLbfgsb:
    def test_matches_scipy_minimize_bit_for_bit(self, monkeypatch):
        """``lbfgsb`` against ``scipy.optimize.minimize(method="L-BFGS-B")``
        on the same compiled core: x, fun and nit with the same bits, and
        ``loss_and_grad`` called at the same points, whether maxiter or
        convergence ends the run."""
        loss_and_grad, points = rc.loss_and_grad, []

        def recorded(params, target):
            points.append(params.tobytes())
            return loss_and_grad(params, target)

        monkeypatch.setattr(rc, "loss_and_grad", recorded)  # lbfgsb looks it up per call
        target, converged = rc.target_unitary(0.5), 0
        for n_layers in (0, 1, 2):
            for maxiter in (5, 30, 200):
                for seed in (0, 1):
                    x0 = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, rc.n_params(n_layers))
                    x, fun, nit = rc.lbfgsb(x0, target, maxiter)
                    ours = points.copy()
                    points.clear()
                    res = scipy.optimize.minimize(
                        recorded, x0, args=(target,), jac=True, method="L-BFGS-B",
                        bounds=[(0.0, 2 * np.pi)] * len(x0), options={"maxiter": maxiter},
                    )
                    case = (n_layers, maxiter, seed)
                    assert x.tobytes() == res.x.tobytes(), case
                    assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes(), case
                    assert nit == res.nit, case
                    assert ours == points, case
                    points.clear()
                    converged += nit < maxiter
        assert converged  # the grid holds a convergence stop, not only maxiter stops

    def test_type_error_of_the_loss_is_not_a_core_mismatch(self, monkeypatch):
        """Only a ``TypeError`` of the core's own call is read as a scipy it
        cannot drive; one raised by the loss passes through unchanged."""
        def broken(params, target):
            raise TypeError("broken loss")

        monkeypatch.setattr(rc, "loss_and_grad", broken)
        with pytest.raises(TypeError, match="broken loss"):
            rc.lbfgsb(np.zeros(rc.n_params(0)), rc.target_unitary(0.5), 5)


class TestSchmidtBound:
    def test_bound_values(self):
        # re-derived by hand: target ranks 4, 10, 5, 2 across cuts 1|2 .. 4|5
        target = rc.target_unitary(0.5)
        expected = {1: 0.97360, 2: 0.98286, 3: 0.98286, 4: 0.99361,
                    5: 0.99361, 6: 0.99957, 7: 0.99957}
        for n_layers, bound in expected.items():
            assert verify.schmidt_fidelity_bound(target, n_layers) == pytest.approx(bound, abs=1e-5)

    def test_ansatz_meets_its_own_bound_only_at_its_depth(self, rng):
        for n_layers in range(1, 6):
            x = rng.uniform(0, 2 * np.pi, rc.n_params(n_layers))
            u = verify.circuit_unitary(x)
            assert verify.schmidt_fidelity_bound(u, n_layers) >= 1 - 1e-12
            assert verify.schmidt_fidelity_bound(u, n_layers - 1) < 0.99

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            verify.schmidt_fidelity_bound(rc.target_unitary(0.5), -1)

    def test_optimizer_results_stay_under_bound(self):
        cfg = rc.OptimizerConfig(maxiter=40, n_hops=1, repetitions=2, seed=0)
        _, rows, _ = jobs.run_recompile({"epsilon": 0.5, "threads": 1}, [0, 1, 2, 3, 4], cfg)
        target = rc.target_unitary(0.5)
        for n_layers, _, fidelity, _ in rows:  # a failed repetition's NaN fails too
            assert fidelity <= verify.schmidt_fidelity_bound(target, n_layers) + 1e-12
