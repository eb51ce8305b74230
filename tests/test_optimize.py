import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize as scipy_minimize

from qcorr.correlations import _cc_value_grad, _cq_value
from qcorr.optimize import (
    OptimizerConfig,
    embed_projective_in_general,
    general_povm,
    general_stack,
    haar_unitary,
    isometry_from_params,
    maximize,
    minimize,
    param_dim_general_povm,
    projective_povm,
    projective_stack,
    random_density,
    unitary_from_params,
)
from qcorr.qstate import partial_trace, permute_subsystems, von_neumann_entropy


class TestRandomObjects:
    def test_haar_unitary_is_unitary(self, rng):
        for d in (2, 3, 5):
            u = haar_unitary(d, rng)
            np.testing.assert_allclose(
                u.conj().T @ u, np.eye(d), atol=1e-12
            )

    def test_haar_determinism(self):
        u1 = haar_unitary(3, np.random.default_rng(7))
        u2 = haar_unitary(3, np.random.default_rng(7))
        np.testing.assert_array_equal(u1, u2)

    def test_random_density_rank(self, rng):
        rho = random_density((3,), 2, rng)
        evals = rho.eigenvalues()
        assert (evals > 1e-10).sum() == 2


class TestUnitaryParameterization:
    def test_params_produce_unitary(self, rng):
        for d in (2, 3):
            params = rng.normal(size=d * d)
            u = unitary_from_params(params, d)
            np.testing.assert_allclose(
                u.conj().T @ u, np.eye(d), atol=1e-12
            )

    def test_zero_params_give_identity(self):
        u = unitary_from_params(np.zeros(9), 3)
        np.testing.assert_allclose(u, np.eye(3), atol=1e-14)


class TestIsometryParameterization:
    @pytest.mark.parametrize("d,n", [(2, 4), (3, 9), (4, 16), (2, 3)])
    def test_random_params_give_isometries(self, rng, d, n):
        w = isometry_from_params(rng.normal(size=(5, 2 * n * d)), n, d)
        assert w.shape == (5, n, d)
        gram = w.conj().swapaxes(-1, -2) @ w
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(d), gram.shape),
                                   atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-8, 1e-13, 0.0])
    def test_ill_conditioned_params_give_isometries(self, rng, scale):
        d, n = 3, 9
        g = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        g[:, 1] *= scale  # condition number ~1/scale; rank-deficient at 0
        w = isometry_from_params(g.view(float).reshape(-1), n, d)
        np.testing.assert_allclose(w.conj().T @ w, np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 9), (4, 16)])
    def test_isometric_g_is_returned_unchanged(self, rng, d, n):
        g = haar_unitary(n, rng)[:, :d]
        w = isometry_from_params(g.view(float).reshape(-1), n, d)
        np.testing.assert_allclose(w, g, atol=1e-14)

    def test_param_dim_is_two_n_d(self):
        assert param_dim_general_povm(2, 4) == 16
        assert param_dim_general_povm(3, 9) == 54
        assert param_dim_general_povm(4, 16) == 128

    def test_wrong_param_count_raises(self):
        with pytest.raises(ValueError):
            isometry_from_params(np.zeros(15), 4, 2)


class TestPovmParameterizations:
    def test_projective_povm_valid(self, rng):
        params = rng.normal(size=9)
        povm = projective_povm(params, 3)
        total = sum(povm.elements)
        np.testing.assert_allclose(total, np.eye(3), atol=1e-12)
        for m in povm.elements:
            np.testing.assert_allclose(m @ m, m, atol=1e-12)

    def test_projective_stack_matches_povm(self, rng):
        params = rng.normal(size=4)
        stack = projective_stack(params, 2)
        povm = projective_povm(params, 2)
        np.testing.assert_allclose(stack, povm.as_array(), atol=1e-14)

    def test_general_povm_valid(self, rng):
        d, n = 2, 4
        params = rng.normal(size=param_dim_general_povm(d, n))
        povm = general_povm(params, d, n)
        assert povm.outcome_count == n
        total = sum(povm.elements)
        np.testing.assert_allclose(total, np.eye(d), atol=1e-12)
        for m in povm.elements:
            assert np.linalg.eigvalsh(m).min() >= -1e-12

    def test_general_stack_matches_povm(self, rng):
        d, n = 2, 4
        params = rng.normal(size=param_dim_general_povm(d, n))
        np.testing.assert_allclose(
            general_stack(params, d, n),
            general_povm(params, d, n).as_array(),
            atol=1e-14,
        )

    def test_embed_projective_reproduces_elements(self, rng):
        d, n = 2, 4
        u = haar_unitary(d, rng)
        # The projective point of basis u packs W = u^dag.
        params = embed_projective_in_general(
            np.ascontiguousarray(u.conj().T).view(float).ravel(), d, n)
        povm = general_povm(params, d, n)
        want = [np.outer(u[:, i], u[:, i].conj()) for i in range(d)]
        for i in range(d):
            np.testing.assert_allclose(povm.elements[i], want[i], atol=1e-9)
        for i in range(d, n):
            assert np.abs(povm.elements[i]).max() <= 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_embed_projective_packs_the_vectors(self, rng, d):
        from qcorr.channels import projective_basis_povm
        n = d * d
        u = haar_unitary(d, rng)
        povm = projective_basis_povm(u)
        x = np.ascontiguousarray(u.conj().T).view(float).ravel()
        # The projective point of basis u packs W = u^dag.
        np.testing.assert_allclose(general_stack(x, d, d), povm.as_array(),
                                   atol=1e-14)
        params = embed_projective_in_general(x, d, n)
        assert params.shape == (param_dim_general_povm(d, n),)
        assert np.array_equal(params[:x.size], x)
        assert not params[x.size:].any()
        want = np.zeros((n, d, d), dtype=complex)
        want[:d] = povm.as_array()
        np.testing.assert_allclose(general_stack(params, d, n), want,
                                   atol=1e-14)


class TestMaximize:
    """Objectives follow the batched contract: (k, n) points -> k values."""

    def test_recovers_quadratic_maximum(self):
        target = np.array([0.3, -1.2, 2.0])

        def objective(x):
            return -np.sum((x - target) ** 2, axis=-1)

        cfg = OptimizerConfig(seed=1, restarts=4, max_evals=2000, tol=1e-10)
        res = maximize(objective, 3, cfg)
        assert res.value == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(res.params, target, atol=1e-3)

    def test_seed_points_always_scored(self):
        seed_point = np.array([5.0, 5.0])

        def objective(x):
            return -np.sum((x - seed_point) ** 2, axis=-1)

        cfg = OptimizerConfig(seed=0, restarts=1, max_evals=3)
        res = maximize(objective, 2, cfg, seed_points=[seed_point])
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.winner == "seed 0"

    def test_deterministic_for_fixed_seed(self):
        def objective(x):
            return np.cos(x).sum(axis=-1)

        cfg = OptimizerConfig(seed=42, restarts=3, max_evals=200)
        r1 = maximize(objective, 2, cfg)
        r2 = maximize(objective, 2, cfg)
        assert r1.value == r2.value
        np.testing.assert_array_equal(r1.params, r2.params)

    def test_restart_values_tracked(self):
        def objective(x):
            return -np.sum(x ** 2, axis=-1)

        cfg = OptimizerConfig(seed=3, restarts=4, max_evals=200)
        res = maximize(objective, 2, cfg)
        assert len(res.restart_values) == 4
        assert res.value == pytest.approx(max(res.restart_values), abs=0)
        best = res.restart_values.index(res.value)
        assert res.winner == f"restart {best}"
        assert res.to_dict()["winner"] == res.winner

    def test_non_finite_objective_aborts_restart(self):
        def objective(x):
            return np.full(len(x), np.nan)

        cfg = OptimizerConfig(seed=0, restarts=2, max_evals=50)
        res = maximize(objective, 2, cfg)
        assert res.value == -np.inf
        assert len(res.diagnostics) >= 1
        assert res.winner is None

    def test_non_finite_value_aborts_only_its_own_restart(self):
        # NaN wherever x[1] > 10.2: restart 0's initial simplex reaches it
        # at its third vertex (10 * 1.05), restart 1 never does.
        def objective(x):
            return np.where(x[:, 1] > 10.2, np.nan, -np.sum(x ** 2, axis=-1))

        cfg = OptimizerConfig(seed=0, restarts=2, max_evals=400, tol=1e-10)
        starts = [np.array([1.0, 10.0]), np.array([1.0, 1.0])]
        res = maximize(objective, 2, cfg, seed_points=starts)
        assert res.restart_stops == ("non-finite", "converged")
        # Two finite vertices, then the NaN; later points are not counted.
        assert res.restart_evals[0] == 3
        assert res.restart_values[2] == objective(starts[0][None])[0]
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.diagnostics == ("restart 0: objective returned nan",)
        assert res.n_evals == 2 + sum(res.restart_evals)

    def test_restart_stops_on_budget(self):
        def objective(x):
            return -np.sum(x ** 2, axis=-1)

        cfg = OptimizerConfig(seed=0, restarts=2, max_evals=3)
        res = maximize(objective, 4, cfg)
        assert res.restart_evals == (3, 3)
        assert res.restart_stops == ("budget", "budget")
        meta = res.to_dict()
        assert meta["restart_evals"] == [3, 3]
        assert meta["restart_stops"] == ["budget", "budget"]

    def test_restart_stops_on_convergence(self):
        def objective(x):
            return -np.sum((x - 0.5) ** 2, axis=-1)

        cfg = OptimizerConfig(seed=0, restarts=3, max_evals=5000, tol=1e-8)
        res = maximize(objective, 3, cfg)
        assert res.restart_stops == ("converged",) * 3
        assert all(n < 5000 for n in res.restart_evals)
        assert res.n_evals == sum(res.restart_evals)

    def test_lockstep_minimize_reports_its_budget_stop(self):
        def fun(x):
            return np.sum(x ** 2, axis=-1)

        res = minimize(fun, np.ones((2, 3)), max_evals=5, tol=1e-8)
        assert not res.success
        assert "function evaluations" in res.message
        assert res.nfev == 10


def _scipy_restart(objective, x0, max_evals, tol):
    """One restart through scipy's Nelder-Mead: (evaluations, best value)."""
    seen = []

    def negated(x):
        seen.append(objective(x[None])[0])
        return -seen[-1]

    scipy_minimize(negated, x0, method="Nelder-Mead",
                   options={"maxfev": max_evals, "xatol": tol, "fatol": tol})
    return len(seen), max(seen)


def _wavy(x):
    """Smooth and non-convex: Nelder-Mead converges and shrinks on it."""
    return -(np.sin(x).sum(axis=-1) * np.cos(x).sum(axis=-1)
             + 0.1 * (x ** 2).sum(axis=-1))


class TestLockstepMatchesScipy:
    """Each lockstep restart takes scipy's Nelder-Mead steps exactly."""

    def _check(self, objective, starts, cfg):
        batch_sizes = []

        def counted(x):
            batch_sizes.append(len(x))
            return objective(x)

        res = maximize(counted, starts[0].size, cfg, seed_points=starts)
        for i, x0 in enumerate(starts):
            evals, best = _scipy_restart(objective, x0, cfg.max_evals, cfg.tol)
            assert res.restart_evals[i] == evals
            assert res.restart_values[len(starts) + i] == best
        assert res.value == max(res.restart_values)
        # After the first call every restart asks for one point at a time,
        # except when it shrinks its simplex.
        shrinks = sum(k > len(starts) for k in batch_sizes[1:])
        return res.restart_stops, shrinks

    def test_smooth_function(self, rng):
        stops, shrinks = [], 0
        for n in (3, 8, 20, 40):
            starts = list(rng.normal(size=(3, n)))
            cfg = OptimizerConfig(seed=0, restarts=3, max_evals=1500, tol=1e-8)
            s, k = self._check(_wavy, starts, cfg)
            stops += s
            shrinks += k
        assert {"converged", "budget"} <= set(stops)
        assert shrinks > 0

    def test_cq_general_objective(self, rng):
        rho = random_density((2, 2), 4, rng)
        rho_mat = np.ascontiguousarray(rho.matrix)
        s_b = von_neumann_entropy(partial_trace(rho, (1,)))

        def objective(x):
            return _cq_value(rho_mat, s_b, general_stack(x, 2, 4))

        starts = list(rng.normal(scale=np.pi / 4, size=(3, 16)))
        cfg = OptimizerConfig(seed=0, restarts=3, max_evals=400)
        self._check(objective, starts, cfg)


    def test_plateau_objective(self, rng):
        # Piecewise constant: the simplex values tie, so argsort's order
        # among equal values and the fatol test on ties decide the steps.
        def plateau(x):
            return np.floor(4 * x).sum(-1)

        stops = []
        # tol = 1 is one plateau step: the value spread can equal it.
        for n, tol in ((2, 1e-8), (5, 1e-8), (12, 1e-8), (3, 1.0), (6, 1.0)):
            starts = list(rng.normal(size=(3, n)))
            cfg = OptimizerConfig(seed=0, restarts=3, max_evals=600, tol=tol)
            s, _ = self._check(plateau, starts, cfg)
            stops += s
        assert "converged" in stops

    def test_budget_below_initial_simplex(self, rng):
        # max_evals < n + 1: the budget ends inside the initial simplex.
        starts = list(rng.normal(size=(3, 8)))
        cfg = OptimizerConfig(seed=0, restarts=3, max_evals=5, tol=1e-8)
        stops, _ = self._check(_wavy, starts, cfg)
        assert stops == ("budget",) * 3


def _linear_on_isometries(targets):
    """f(W_1, ...) = sum_p Re Tr(A_p^dag W_p) over isometries W_p, batched,
    with its gradient; its maximum is the sum of the A_p's singular values,
    at their polar factors."""
    shapes = tuple(a.shape for a in targets)
    packed = np.concatenate([a.reshape(-1).view(float) for a in targets])

    def objective(*ws):
        values = sum(np.real(np.sum(a.conj() * w, axis=(-2, -1)))
                     for a, w in zip(targets, ws))
        return values, np.tile(packed, (len(ws[0]), 1))

    best = sum(np.linalg.svd(a, compute_uv=False).sum() for a in targets)
    return objective, shapes, best


def _cc_general_objective(dims, seed):
    """The general I_CC objective (values and gradients) on a random state."""
    d_a, d_b = dims
    rng = np.random.default_rng(seed)
    rho = random_density(dims, d_a * d_b, rng)
    rho_mat = np.ascontiguousarray(rho.matrix)
    rho_swap = np.ascontiguousarray(
        permute_subsystems(rho, (1, 0)).matrix)
    n_a, n_b = d_a * d_a, d_b * d_b

    def objective(w_a, w_b):
        return _cc_value_grad(rho_mat, rho_swap, w_a, w_b)
    return objective, ((n_a, d_a), (n_b, d_b)), rng


class TestRiemannianAscent:
    """`maximize` with isometry shapes: monotone gradient ascent on W."""

    @pytest.mark.parametrize("shapes", [((4, 2),), ((9, 3),),
                                        ((4, 2), (9, 3)), ((3, 3), (3, 3))])
    def test_recovers_linear_maximum(self, rng, shapes):
        targets = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
        objective, shapes, best = _linear_on_isometries(targets)
        param_dim = sum(2 * n * d for n, d in shapes)
        cfg = OptimizerConfig(seed=2, restarts=3, max_evals=300, tol=1e-12)
        res = maximize(objective, param_dim, cfg, isometries=shapes)
        assert res.value == pytest.approx(best, abs=1e-8)
        assert res.restart_stops == ("converged",) * 3
        assert max(res.restart_evals) < 100
        assert res.winner.startswith("restart ")

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
    def test_lockstep_matches_restarts_one_at_a_time(self, dims):
        objective, shapes, rng = _cc_general_objective(dims, 40 + dims[1])
        param_dim = sum(2 * n * d for n, d in shapes)
        starts = list(rng.normal(scale=np.pi / 4, size=(3, param_dim)))
        cfg = OptimizerConfig(seed=0, restarts=3, max_evals=150)
        together = maximize(objective, param_dim, cfg, seed_points=starts,
                            isometries=shapes)
        one = dataclasses.replace(cfg, restarts=1)
        for i, x0 in enumerate(starts):
            alone = maximize(objective, param_dim, one, seed_points=[x0],
                             isometries=shapes)
            assert alone.restart_values[1] == together.restart_values[3 + i]
            assert alone.restart_evals == together.restart_evals[i:i + 1]
            assert alone.restart_stops == together.restart_stops[i:i + 1]

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (3, 2)])
    def test_no_restart_ends_below_its_start(self, dims):
        objective, shapes, rng = _cc_general_objective(dims, 50 + dims[1])
        param_dim = sum(2 * n * d for n, d in shapes)
        starts = list(rng.normal(scale=np.pi / 4, size=(4, param_dim)))
        for max_evals in (2, 7, 40):
            cfg = OptimizerConfig(seed=0, restarts=4, max_evals=max_evals)
            res = maximize(objective, param_dim, cfg, seed_points=starts,
                           isometries=shapes)
            for i in range(4):
                assert res.restart_values[4 + i] >= res.restart_values[i]
            assert res.value == max(res.restart_values)

    def test_restart_stops_on_budget(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        cfg = OptimizerConfig(seed=0, restarts=2, max_evals=3)
        res = maximize(objective, 16, cfg, isometries=shapes)
        assert res.restart_evals == (3, 3)
        assert res.restart_stops == ("budget", "budget")
        assert res.n_evals == 6

    def test_stationary_start_converges_at_once(self):
        # W = A is the maximum of Re Tr(A^dag W): its tangent gradient is 0.
        a = np.eye(3, 2, dtype=complex)
        objective, shapes, best = _linear_on_isometries([a])
        cfg = OptimizerConfig(seed=0, restarts=1, max_evals=50)
        res = maximize(objective, 12, cfg, seed_points=[a.view(float).ravel()],
                       isometries=shapes)
        assert res.restart_stops == ("converged",)
        assert res.restart_evals == (1,)
        assert res.value == best == 2.0
        assert res.winner == "seed 0"

    def test_non_finite_gradient_stops_only_its_restart(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        poison = np.eye(4, 2, dtype=complex)

        def poisoned(w):
            values, grads = objective(w)
            grads[np.abs(w - poison).max(axis=(-2, -1)) < 1e-12] = np.nan
            return values, grads

        # The first start is the poisoned isometry itself.
        starts = [poison.view(float).ravel(), np.full(16, 0.1)]
        cfg = OptimizerConfig(seed=0, restarts=2, max_evals=200)
        res = maximize(poisoned, 16, cfg, seed_points=starts,
                       isometries=shapes)
        assert res.restart_stops[0] == "non-finite"
        assert res.restart_evals[0] == 1
        assert res.restart_stops[1] == "converged"
        # The seed point itself is scored as non-finite as well.
        assert res.diagnostics == ("seed 0: objective returned nan",
                                   "restart 0: objective returned nan")
        assert res.winner in ("seed 1", "restart 1")

    def test_rejects_inconsistent_shapes(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        cfg = OptimizerConfig(seed=0, restarts=1, max_evals=5)
        with pytest.raises(ValueError):
            maximize(objective, 16, cfg, isometries=((3, 2),))

        def wrong_gradients(w):
            return objective(w)[0], np.zeros((len(w), 3))

        with pytest.raises(ValueError):
            maximize(wrong_gradients, 16, cfg, isometries=shapes)


class TestFixedRounds:
    """`maximize(..., rounds=R)`: R objective calls whatever the objective."""

    @staticmethod
    def _counting(objective):
        batches = []

        def counted(*ws):
            batches.append(len(ws[0]))
            return objective(*ws)
        return counted, batches

    @pytest.mark.parametrize("rounds", [1, 2, 9, 60])
    def test_every_round_evaluates_every_slot(self, rng, rounds):
        # The linear objective converges in a few steps, so restarts stop
        # early and hand their slots on.
        objective, shapes, best = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        counted, batches = self._counting(objective)
        seeds = [rng.normal(size=16)]
        cfg = OptimizerConfig(seed=3, restarts=3, max_evals=300)
        res = maximize(counted, 16, cfg, seed_points=seeds,
                       isometries=shapes, rounds=rounds)
        assert batches == [1 + 3] + [3] * (rounds - 1)
        assert res.n_evals == sum(batches) == 1 + sum(res.restart_evals)
        assert len(res.restart_values) == 1 + len(res.restart_evals)
        # Only the three runs of the last round can stop as "rounds".
        assert set(res.restart_stops) <= {"rounds", "converged"}
        assert res.restart_stops.count("rounds") <= 3
        assert res.value == max(res.restart_values)
        if rounds == 60:
            assert len(res.restart_evals) > 3
            assert res.value == pytest.approx(best, abs=1e-8)

    def test_budget_stops_hand_slots_on(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))])
        cfg = OptimizerConfig(seed=0, restarts=2, max_evals=4)
        res = maximize(objective, 18, cfg, isometries=shapes, rounds=10)
        assert res.restart_evals == (4, 4, 4, 4, 2, 2)
        assert res.restart_stops == ("budget",) * 4 + ("rounds",) * 2
        assert res.n_evals == 20

    def test_refills_are_deterministic_and_distinct(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        cfg = OptimizerConfig(seed=5, restarts=2, max_evals=3)
        runs = [maximize(objective, 16, cfg, isometries=shapes, rounds=12)
                for _ in range(2)]
        assert runs[0].to_dict() == runs[1].to_dict()
        # Each refill starts from a new point: no two restarts tie.
        assert len(set(runs[0].restart_values)) == len(runs[0].restart_values)

    def test_without_rounds_nothing_changes(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        cfg = OptimizerConfig(seed=1, restarts=3, max_evals=300, tol=1e-12)
        res = maximize(objective, 16, cfg, isometries=shapes)
        assert len(res.restart_evals) == 3
        assert res.restart_stops == ("converged",) * 3

    def test_seeds_left_unascended_keep_their_slots(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        seeds = list(rng.normal(size=(2, 16)))
        cfg = OptimizerConfig(seed=4, restarts=3, max_evals=50)
        res = maximize(objective, 16, cfg, seed_points=seeds,
                       isometries=shapes, ascend_seeds=False)
        full = maximize(objective, 16, cfg, seed_points=seeds,
                        isometries=shapes)
        # Both seeds are scored; only the third slot runs, from the same
        # random start as the third restart with the seeds ascended.
        assert res.restart_values[:2] == full.restart_values[:2]
        assert len(res.restart_evals) == 1
        assert res.restart_values[2] == full.restart_values[4]
        assert res.restart_evals == full.restart_evals[2:]
        none_left = maximize(objective, 16, dataclasses.replace(cfg, restarts=2),
                             seed_points=seeds, isometries=shapes,
                             ascend_seeds=False, rounds=30)
        assert none_left.restart_evals == ()
        assert none_left.n_evals == 2

    def test_nelder_mead_slots_refill_too(self):
        counted, batches = self._counting(lambda x: -np.sum(x ** 2, axis=-1))
        cfg = OptimizerConfig(seed=0, restarts=2, max_evals=5)
        res = maximize(counted, 3, cfg, rounds=7)
        assert len(batches) == 7
        assert res.restart_stops[-2:] == ("rounds", "rounds")
        assert res.n_evals == sum(batches)


class TestOptimizerConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0},
        {"tol": -1e-8}, {"tol": "1e-8"}, {"tol": True},
        {"outcome_count": 0}, {"ancilla_dim": 0}, {"ancilla_dim": -1},
        {"outcome_count": 2.0}, {"seed": -1}, {"seed": 1.0}, {"seed": None},
        {"restarts": 2.5}, {"restarts": 0}, {"max_evals": 0},
        {"max_evals": True},
    ], ids=repr)
    def test_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)

    def test_accepted_values_keep_their_dict(self):
        cfg = OptimizerConfig(seed=np.int64(3), restarts=2, max_evals=10,
                              tol=1, outcome_count=4, ancilla_dim=1)
        assert cfg.to_dict() == {
            "seed": 3, "restarts": 2, "max_evals": 10, "tol": 1,
            "outcome_count": 4, "projective_only": False, "ancilla_dim": 1}


def _valid_int(value, low):
    return type(value) is int and value >= low


def _config_values(ints):
    return st.one_of(ints, st.none(), st.booleans(),
                     st.floats(allow_nan=True, allow_infinity=True),
                     st.just("2"))


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({}, optional={
    "seed": _config_values(st.integers(-3, 2 ** 70)),
    "restarts": _config_values(st.integers(-2, 3)),
    "max_evals": _config_values(st.integers(-2, 30)),
    "tol": _config_values(st.integers(-2, 2)),
    "outcome_count": _config_values(st.integers(-2, 5)),
    "ancilla_dim": _config_values(st.integers(-2, 5)),
    "projective_only": st.booleans(),
}))
def test_config_raises_value_error_or_runs(kwargs):
    full = {**OptimizerConfig().to_dict(), **kwargs}
    tol = full["tol"]
    valid = (_valid_int(full["seed"], 0) and _valid_int(full["restarts"], 1)
             and _valid_int(full["max_evals"], 1)
             and all(full[k] is None or _valid_int(full[k], 1)
                     for k in ("outcome_count", "ancilla_dim"))
             and type(tol) in (int, float) and np.isfinite(tol) and tol > 0)
    try:
        cfg = OptimizerConfig(**kwargs)
    except ValueError:
        assert not valid
        return
    assert valid
    cfg = dataclasses.replace(cfg, max_evals=min(cfg.max_evals, 30),
                              restarts=min(cfg.restarts, 3))
    res = maximize(lambda x: -np.sum(x ** 2, axis=-1), 2, cfg)
    assert np.isfinite(res.value)
    assert len(res.restart_stops) == cfg.restarts
    assert set(res.restart_stops) <= {"converged", "budget"}
    assert all(n <= cfg.max_evals for n in res.restart_evals)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_projective_povm_valid_for_random_params(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    params = 3.0 * rng.normal(size=d * d)
    povm = projective_povm(params, d)
    np.testing.assert_allclose(sum(povm.elements), np.eye(d), atol=1e-11)
