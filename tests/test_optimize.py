import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_lockstep_minimize, pack_point, split_point
from qcorr.channels import Povm
from qcorr.correlations import _cc_objective, _Parties
from qcorr.lockstep import _matrices, _polar
from qcorr.optimize import (
    OptimizerConfig,
    general_povm,
    general_stack,
    haar_unitary,
    isometry_from_params,
    maximize,
    minimize,
    projective_stack,
    random_density,
    unitary_from_params,
)


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

    @staticmethod
    def _scored_seed(point, shapes):
        """A one-call search that only scores the seed `point`, on an
        objective that is 0 everywhere, so the seed wins."""
        objective, _, _ = _linear_on_isometries(
            [np.zeros(s, dtype=complex) for s in shapes])
        res = maximize(objective, shapes,
                       OptimizerConfig(restarts=1, max_evals=1),
                       seed_points=[point], ascend_seeds=False)
        assert res.winner == "seed 0"
        return res

    def test_param_dim_is_two_n_d(self):
        for shapes in (((4, 2),), ((9, 3),), ((16, 4),)):
            point = [np.zeros(s) for s in shapes]
            (n, d), = shapes
            res = self._scored_seed(point, shapes)
            assert res.params.shape == (2 * n * d,)
        shapes = ((4, 2), (9, 3))
        point = [np.zeros(s) for s in shapes]
        assert self._scored_seed(point, shapes).params.shape == (16 + 54,)

    @pytest.mark.parametrize("shapes", [((4, 2),), ((4, 2), (9, 3)),
                                        ((2, 2), (2, 2))])
    def test_packing_round_trips(self, rng, shapes):
        # The winner's params pack its matrices; its points are views of them.
        point = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
        res = self._scored_seed(point, shapes)
        x = res.params
        assert np.array_equal(pack_point(point), x)
        assert np.array_equal(pack_point(split_point(x, shapes)), x)
        start = 0
        for got, want, (n, d) in zip(res.points, point, shapes):
            assert np.array_equal(got, want)
            assert np.shares_memory(got, x)  # views of the parameters
            # The party's slice is the matrix isometry_from_params reads.
            u, _, vh = np.linalg.svd(want, full_matrices=False)
            assert np.array_equal(
                isometry_from_params(x[start:start + 2 * n * d], n, d), u @ vh)
            start += 2 * n * d

    def test_wrong_param_count_raises(self):
        with pytest.raises(ValueError):
            isometry_from_params(np.zeros(15), 4, 2)


class TestPovmParameterizations:
    def test_projective_stack_is_a_povm(self, rng):
        params = rng.normal(size=9)
        povm = Povm(tuple(projective_stack(params, 3)))
        total = sum(povm.elements)
        np.testing.assert_allclose(total, np.eye(3), atol=1e-12)
        for m in povm.elements:
            np.testing.assert_allclose(m @ m, m, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_projective_stack_matches_general_povm(self, rng, d):
        # The projectors onto the columns of U are general_povm's elements
        # for the packed isometry W = U^dag.
        params = rng.normal(size=d * d)
        u = unitary_from_params(params, d)
        x = np.ascontiguousarray(u.conj().T).view(float).ravel()
        np.testing.assert_allclose(projective_stack(params, d),
                                   general_povm(x, d, d).elements,
                                   atol=1e-12)

    def test_general_povm_valid(self, rng):
        d, n = 2, 4
        params = rng.normal(size=2 * n * d)
        povm = general_povm(params, d, n)
        assert povm.outcome_count == n
        total = sum(povm.elements)
        np.testing.assert_allclose(total, np.eye(d), atol=1e-12)
        for m in povm.elements:
            assert np.linalg.eigvalsh(m).min() >= -1e-12

    def test_general_stack_matches_povm(self, rng):
        d, n = 2, 4
        params = rng.normal(size=2 * n * d)
        np.testing.assert_allclose(
            general_stack(params, d, n),
            general_povm(params, d, n).elements,
            atol=1e-14,
        )

    def test_zero_rows_reproduce_elements(self, rng):
        d, n = 2, 4
        u = haar_unitary(d, rng)
        # The projective point of basis u is W = u^dag; [W; 0] has n rows.
        params = pack_point([np.pad(u.conj().T, ((0, n - d), (0, 0)))])
        povm = general_povm(params, d, n)
        want = [np.outer(u[:, i], u[:, i].conj()) for i in range(d)]
        for i in range(d):
            np.testing.assert_allclose(povm.elements[i], want[i], atol=1e-9)
        for i in range(d, n):
            assert np.abs(povm.elements[i]).max() <= 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_zero_rows_keep_the_polar_factor(self, rng, d):
        from qcorr.channels import projective_basis_povm
        n = d * d
        u = haar_unitary(d, rng)
        povm = projective_basis_povm(u)
        # The projective point of basis u packs W = u^dag.
        x = pack_point([u.conj().T])
        np.testing.assert_allclose(general_stack(x, d, d), povm.elements,
                                   atol=1e-14)
        # [G; 0] packs G's parameters, then zeros; its polar factor is
        # G's with the zero rows, so the POVM gains only zero elements.
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        params = pack_point([np.pad(g, ((0, n - d), (0, 0)))])
        x = pack_point([g])
        assert params.shape == (2 * n * d,)
        assert np.array_equal(params[:x.size], x)
        assert not params[x.size:].any()
        want = np.zeros((n, d), dtype=complex)
        want[:d] = isometry_from_params(x, d, d)
        np.testing.assert_allclose(isometry_from_params(params, n, d), want,
                                   atol=1e-14)
        params = pack_point([np.pad(u.conj().T, ((0, n - d), (0, 0)))])
        want = np.zeros((n, d, d), dtype=complex)
        want[:d] = povm.elements
        np.testing.assert_allclose(general_stack(params, d, n), want,
                                   atol=1e-14)


def _linear_on_isometries(targets):
    """f(W_1, ...) = sum_p Re Tr(A_p^dag W_p) over isometries W_p, batched,
    with its gradient; its maximum is the sum of the A_p's singular values,
    at their polar factors."""
    shapes = tuple(a.shape for a in targets)

    def objective(*ws):
        values = sum(np.real(np.sum(a.conj() * w, axis=(-2, -1)))
                     for a, w in zip(targets, ws))
        return values, [np.repeat(a[None], len(w), axis=0)
                        for a, w in zip(targets, ws)]

    best = sum(np.linalg.svd(a, compute_uv=False).sum() for a in targets)
    return objective, shapes, best


def _cc_general_objective(dims, seed):
    """The general I_CC objective (values and gradients) on a random state."""
    d_a, d_b = dims
    rng = np.random.default_rng(seed)
    rho = random_density(dims, d_a * d_b, rng)
    n_a, n_b = d_a * d_a, d_b * d_b
    return _cc_objective(_Parties(rho)), ((n_a, d_a), (n_b, d_b)), rng


def _distance_to(target):
    """f(W) = -||W - B||_F^2 over isometries W, batched, with its gradient;
    its maximum 0 is at W = B when B is an isometry.  Also returns the seed
    point B."""
    def objective(w):
        diff = w - target
        values = -np.sum(np.abs(diff) ** 2, axis=(-2, -1))
        return values, (-2 * diff,)
    return objective, (target.shape,), (target,)


class TestMaximize:
    """Objectives follow the one contract: they take (k, n, d) isometries
    per party and return k values and their gradients, one complex
    (k, n, d) array per party."""

    def test_recovers_quadratic_maximum(self, rng):
        target = haar_unitary(4, rng)[:, :2]
        objective, shapes, _ = _distance_to(target)
        cfg = OptimizerConfig(seed=1, restarts=4, max_evals=2000, tol=1e-10)
        res = maximize(objective, shapes, cfg)
        assert res.value == pytest.approx(0.0, abs=1e-8)
        np.testing.assert_allclose(isometry_from_params(res.params, 4, 2),
                                   target, atol=1e-4)

    @pytest.mark.parametrize("shapes", [((4, 2),), ((4, 2), (9, 3)),
                                        ((3, 3), (3, 3))])
    def test_result_carries_the_winner_per_party(self, rng, shapes):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes])
        res = maximize(objective, shapes,
                       OptimizerConfig(seed=1, restarts=2, max_evals=20))
        assert [p.shape for p in res.points] == list(shapes)
        assert np.array_equal(pack_point(res.points), res.params)
        start = 0
        for p, w, (n, d) in zip(res.points, res.isometries, shapes):
            assert np.shares_memory(p, res.params)
            # Bit for bit the polar factor of the party's parameters.
            assert np.array_equal(
                w, isometry_from_params(res.params[start:start + 2 * n * d],
                                        n, d))
            start += 2 * n * d
        # The winner's matrices seed a search as they are.
        again = maximize(objective, shapes, OptimizerConfig(
            seed=1, restarts=1, max_evals=1), seed_points=[res.points])
        assert again.restart_values[0] == res.value
        assert "points" not in res.to_dict()

    def test_seed_points_always_scored(self, rng):
        target = haar_unitary(3, rng)[:, :2]
        objective, shapes, seed_point = _distance_to(target)
        cfg = OptimizerConfig(seed=0, restarts=1, max_evals=3)
        res = maximize(objective, shapes, cfg, seed_points=[seed_point])
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.winner == "seed 0"

    def test_deterministic_for_fixed_seed(self):
        objective, shapes, _ = _cc_general_objective((2, 2), 7)
        cfg = OptimizerConfig(seed=42, restarts=3, max_evals=40)
        r1 = maximize(objective, shapes, cfg)
        r2 = maximize(objective, shapes, cfg)
        assert r1.value == r2.value
        np.testing.assert_array_equal(r1.params, r2.params)
        assert r1.to_dict() == r2.to_dict()

    def test_restart_values_tracked(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        cfg = OptimizerConfig(seed=3, restarts=4, max_evals=200)
        res = maximize(objective, shapes, cfg)
        assert len(res.restart_values) == len(res.restart_evals) >= 4
        assert res.value == pytest.approx(max(res.restart_values), abs=0)
        best = res.restart_values.index(res.value)
        assert res.winner == f"restart {best}"
        assert res.to_dict()["winner"] == res.winner

    def test_non_finite_objective_aborts_restart(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])

        def nan_everywhere(w):
            return np.full(len(w), np.nan), objective(w)[1]

        cfg = OptimizerConfig(seed=0, restarts=2, max_evals=50)
        res = maximize(nan_everywhere, shapes, cfg)
        assert res.value == -np.inf
        assert len(res.diagnostics) >= 1
        assert set(res.restart_stops) == {"non-finite"}
        assert res.winner is None

    def test_non_finite_value_aborts_only_its_own_restart(self, rng):
        # NaN wherever the value exceeds seed 0's by more than 1e-6: the
        # first step of restart 0 gains more than that.  Seed 1 is the
        # minimum, a stationary point, so restart 1 converges at once.
        a = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        objective, shapes, best = _linear_on_isometries([a])
        u, _, vh = np.linalg.svd(a, full_matrices=False)
        near = np.linalg.svd(u @ vh + 0.3 * np.eye(4, 2))[0][:, :2]
        starts = [(near,), (-u @ vh,)]
        ceiling = objective(near[None])[0][0] + 1e-6

        def poisoned(w):
            values, grads = objective(w)
            return np.where(values > ceiling, np.nan, values), grads

        cfg = OptimizerConfig(seed=0, restarts=2, max_evals=2, tol=1e-10)
        res = maximize(poisoned, shapes, cfg, seed_points=starts)
        assert res.restart_stops[:2] == ("non-finite", "converged")
        # One finite value, then the NaN.
        assert res.restart_evals[:2] == (2, 1)
        assert res.restart_values[2] == res.restart_values[0] < ceiling
        assert res.restart_values[3] == res.restart_values[1] == pytest.approx(
            -best, abs=1e-12)
        assert res.winner == "seed 0"
        assert res.diagnostics[0] == "restart 0: objective returned nan"
        assert res.n_evals == 2 + sum(res.restart_evals)

    def test_restart_stops_on_budget(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))])
        cfg = OptimizerConfig(seed=0, restarts=2, max_evals=3)
        res = maximize(objective, shapes, cfg)
        # max_evals caps the rounds: both restarts are live after the third.
        assert res.restart_evals == (3, 3)
        assert res.restart_stops == ("rounds", "rounds")
        meta = res.to_dict()
        assert meta["restart_evals"] == [3, 3]
        assert meta["restart_stops"] == ["rounds", "rounds"]

    def test_restart_stops_on_convergence(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        cfg = OptimizerConfig(seed=0, restarts=3, max_evals=5000, tol=1e-8)
        res = maximize(objective, shapes, cfg)
        # 16 parameters: 32 rounds, and every restart converges sooner.
        assert res.restart_stops[:3] == ("converged",) * 3
        assert set(res.restart_stops) <= {"converged", "rounds"}
        assert all(n < 32 for n in res.restart_evals)
        assert res.n_evals == sum(res.restart_evals)

    def test_lockstep_minimize_reports_its_budget_stop(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))])
        starts = [split_point(x, shapes) for x in rng.normal(size=(2, 18))]
        res = minimize(objective, starts, shapes, rounds=5, tol=1e-8)
        assert res.stops == ("rounds", "rounds")
        assert res.evals == (5, 5)
        assert res.nfev == 10

    def test_empty_shapes_raise(self, rng):
        objective, _, _ = _linear_on_isometries([np.eye(2, dtype=complex)])
        with pytest.raises(ValueError):
            maximize(objective, (), OptimizerConfig(restarts=1, max_evals=5))


class TestRiemannianAscent:
    """`maximize`: monotone gradient ascent on the isometries W."""

    @pytest.mark.parametrize("shapes", [((4, 2),), ((9, 3),),
                                        ((4, 2), (9, 3)), ((3, 3), (3, 3))])
    def test_recovers_linear_maximum(self, rng, shapes):
        targets = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
        objective, shapes, best = _linear_on_isometries(targets)
        cfg = OptimizerConfig(seed=2, restarts=3, max_evals=300, tol=1e-12)
        res = maximize(objective, shapes, cfg)
        assert res.value == pytest.approx(best, abs=1e-8)
        assert res.restart_stops[:3] == ("converged",) * 3
        assert max(res.restart_evals) < 100
        assert res.winner.startswith("restart ")

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
    def test_lockstep_matches_restarts_one_at_a_time(self, dims):
        objective, shapes, rng = _cc_general_objective(dims, 40 + dims[1])
        param_dim = sum(2 * n * d for n, d in shapes)
        starts = [split_point(x, shapes)
                  for x in rng.normal(scale=np.pi / 4, size=(3, param_dim))]
        cfg = OptimizerConfig(seed=0, restarts=3, max_evals=150)
        together = maximize(objective, shapes, cfg, seed_points=starts)
        one = dataclasses.replace(cfg, restarts=1)
        for i, x0 in enumerate(starts):
            alone = maximize(objective, shapes, one, seed_points=[x0])
            assert alone.restart_values[1] == together.restart_values[3 + i]
            assert alone.restart_evals[0] == together.restart_evals[i]
            assert alone.restart_stops[0] == together.restart_stops[i]

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (3, 2)])
    def test_no_restart_ends_below_its_start(self, dims):
        objective, shapes, rng = _cc_general_objective(dims, 50 + dims[1])
        param_dim = sum(2 * n * d for n, d in shapes)
        starts = [split_point(x, shapes)
                  for x in rng.normal(scale=np.pi / 4, size=(4, param_dim))]
        for max_evals in (2, 7, 40):
            cfg = OptimizerConfig(seed=0, restarts=4, max_evals=max_evals)
            res = maximize(objective, shapes, cfg, seed_points=starts)
            for i in range(4):
                assert res.restart_values[4 + i] >= res.restart_values[i]
            assert res.value == max(res.restart_values)

    def test_restart_stops_on_budget(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        cfg = OptimizerConfig(seed=0, restarts=2, max_evals=3)
        res = maximize(objective, shapes, cfg)
        assert res.restart_evals == (3, 3)
        assert res.restart_stops == ("rounds", "rounds")
        assert res.n_evals == 6

    def test_stationary_start_converges_at_once(self):
        # W = A is the maximum of Re Tr(A^dag W): its tangent gradient is 0.
        a = np.eye(3, 2, dtype=complex)
        objective, shapes, best = _linear_on_isometries([a])
        cfg = OptimizerConfig(seed=0, restarts=1, max_evals=50)
        res = maximize(objective, shapes, cfg, seed_points=[(a,)])
        assert res.restart_stops[0] == "converged"
        assert res.restart_evals[0] == 1
        assert res.value == best == 2.0
        assert res.winner == "seed 0"

    def test_non_finite_gradient_stops_only_its_restart(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        poison = np.eye(4, 2, dtype=complex)

        def poisoned(w):
            values, (grad,) = objective(w)
            grad[np.abs(w - poison).max(axis=(-2, -1)) < 1e-12] = np.nan
            return values, (grad,)

        # The first start is the poisoned isometry itself.
        starts = [(poison,), (np.full((4, 2), 0.1 + 0.1j),)]
        cfg = OptimizerConfig(seed=0, restarts=2, max_evals=200)
        res = maximize(poisoned, shapes, cfg, seed_points=starts)
        assert res.restart_stops[0] == "non-finite"
        assert res.restart_evals[0] == 1
        assert res.restart_stops[1] == "converged"
        # The seed point itself is scored as non-finite as well.
        assert res.diagnostics == ("seed 0: objective returned nan",
                                   "restart 0: objective returned nan")
        assert res.winner not in (None, "seed 0", "restart 0")

    def test_rejects_inconsistent_shapes(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        cfg = OptimizerConfig(seed=0, restarts=1, max_evals=5)
        with pytest.raises(ValueError):
            maximize(objective, shapes, cfg, seed_points=[(np.zeros((3, 2)),)])

        def wrong_gradients(w):
            return objective(w)[0], (np.zeros((len(w), 3)),)

        with pytest.raises(ValueError):
            maximize(wrong_gradients, shapes, cfg)

        def wrong_values(w):
            return objective(w)[0][:1], objective(w)[1]

        with pytest.raises(ValueError):
            maximize(wrong_values, shapes, dataclasses.replace(cfg, restarts=2))

    @pytest.mark.parametrize("shapes", [((4, 2),), ((4, 2), (9, 3))])
    def test_wrong_party_shapes_raise_naming_both(self, rng, shapes):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes])
        cfg = OptimizerConfig(seed=0, restarts=1, max_evals=5)

        def transposed(*ws):
            values, grads = objective(*ws)
            return values, [grads[0].swapaxes(-1, -2), *grads[1:]]

        # A (k, d, n) gradient has the right size but not the right shape.
        with pytest.raises(ValueError, match=r"shapes \[\(1, 2, 4\).*"
                                             r"isometry shapes \(\(4, 2\)"):
            maximize(transposed, shapes, cfg)

        def one_short(*ws):
            values, grads = objective(*ws)
            return values, list(grads)[:-1]

        with pytest.raises(ValueError, match="isometry shapes"):
            maximize(one_short, shapes, cfg)

        point = [rng.normal(size=s) + 0j for s in shapes]
        maximize(objective, shapes, cfg, seed_points=[point])
        with pytest.raises(ValueError, match=r"shapes \[\(2, 4\).*"
                                             r"isometry shapes \(\(4, 2\)"):
            maximize(objective, shapes, cfg,
                     seed_points=[[point[0].T, *point[1:]]])
        with pytest.raises(ValueError, match="isometry shapes"):
            maximize(objective, shapes, cfg, seed_points=[point + point])


class TestFixedRounds:
    """`maximize` makes min(2 param_dim, max_evals) objective calls
    whatever the objective."""

    @staticmethod
    def _counting(objective):
        batches = []

        def counted(*ws):
            batches.append(len(ws[0]))
            return objective(*ws)
        return counted, batches

    @pytest.mark.parametrize("max_evals", [1, 2, 9, 60])
    def test_every_round_evaluates_every_slot(self, rng, max_evals):
        # The linear objective converges in a few steps, so restarts stop
        # early and hand their slots on.  16 parameters: at most 32 rounds.
        objective, shapes, best = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        counted, batches = self._counting(objective)
        seeds = [split_point(rng.normal(size=16), shapes)]
        cfg = OptimizerConfig(seed=3, restarts=3, max_evals=max_evals)
        res = maximize(counted, shapes, cfg, seed_points=seeds)
        rounds = min(32, max_evals)
        assert batches == [1 + 3] + [3] * (rounds - 1)
        assert res.n_evals == sum(batches) == 1 + sum(res.restart_evals)
        assert len(res.restart_values) == 1 + len(res.restart_evals)
        # Only the three runs of the last round can stop as "rounds", and
        # no run outlasts the rounds.
        assert set(res.restart_stops) <= {"converged", "rounds"}
        assert res.restart_stops.count("rounds") <= 3
        assert max(res.restart_evals) <= rounds
        assert res.value == max(res.restart_values)
        if max_evals == 60:
            assert len(res.restart_evals) > 3
            assert res.value == pytest.approx(best, abs=1e-8)

    @pytest.mark.parametrize("shapes", [((4, 2),), ((3, 2), (2, 2))])
    def test_max_evals_only_sets_the_rounds(self, shapes):
        # Past 2 param_dim, max_evals changes nothing: with a tol too small
        # to reach, restarts from the first round run to the last.
        objective = _quadratic_on_isometries(shapes, 3)
        param_dim = sum(2 * n * d for n, d in shapes)
        runs = [maximize(objective, shapes, OptimizerConfig(
                    seed=6, restarts=3, max_evals=m * param_dim, tol=1e-14))
                for m in (2, 20)]
        assert runs[0].to_dict() == runs[1].to_dict()
        assert runs[0].restart_stops[0] == "rounds"
        assert runs[0].restart_evals[0] == 2 * param_dim

    @pytest.mark.parametrize("shapes", [((4, 2),), ((4, 2), (4, 2)),
                                        ((4, 2), (9, 3))])
    @pytest.mark.parametrize("restarts", [1, 3, 16])
    def test_one_tangent_and_one_svd_per_shape_per_round(
            self, rng, monkeypatch, shapes, restarts):
        import qcorr.lockstep as lockstep_mod

        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes])
        calls, between = [], []
        real_svd, real_tangent = np.linalg.svd, lockstep_mod._tangent

        def counted_svd(*args, **kwargs):
            calls.append("svd")
            return real_svd(*args, **kwargs)

        def counted_tangent(*args):
            calls.append("tangent")
            return real_tangent(*args)

        def counted(*ws):
            between.append(list(calls))
            calls.clear()
            return objective(*ws)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(lockstep_mod, "_tangent", counted_tangent)
        cfg = OptimizerConfig(seed=1, restarts=restarts, max_evals=20)
        res = maximize(counted, shapes, cfg)
        svds = ["svd"] * len(set(shapes))
        # Each round: the polar factors, the objective, one projection.
        assert between == [svds] + [["tangent"] + svds] * 19
        assert calls == ["tangent"]
        assert len(res.restart_evals) > restarts  # slots were refilled

    def test_refills_are_deterministic_and_distinct(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        cfg = OptimizerConfig(seed=5, restarts=2, max_evals=12, tol=1e-2)
        runs = [maximize(objective, shapes, cfg) for _ in range(2)]
        assert runs[0].to_dict() == runs[1].to_dict()
        assert len(runs[0].restart_evals) > 2
        # Each refill starts from a new point: no two restarts tie.
        assert len(set(runs[0].restart_values)) == len(runs[0].restart_values)

    @pytest.mark.parametrize("shapes", [((4, 2),), ((4, 2), (9, 3))])
    def test_random_starts_keep_their_streams(self, shapes):
        # Slot i starts from the normal(scale=pi/4, size=param_dim) draws of
        # the i-th stream spawned from the seed, viewed as complex and split
        # party after party: the first call sees their polar factors.  The
        # k-th refill starts from those of the (restarts + k)-th stream.
        objective = _quadratic_on_isometries(shapes, 2)
        calls = []

        def recording(*ws):
            calls.append([w.copy() for w in ws])
            return objective(*ws)

        cfg = OptimizerConfig(seed=9, restarts=3, max_evals=60, tol=1e-2)
        res = maximize(recording, shapes, cfg)
        param_dim = sum(2 * n * d for n, d in shapes)
        refills = len(res.restart_evals) - cfg.restarts
        assert refills >= 2
        streams = np.random.SeedSequence(cfg.seed).spawn(
            cfg.restarts + refills)
        first = calls[0]
        assert [len(w) for w in first] == [cfg.restarts] * len(shapes)

        def polar_factors(stream):
            draws = np.random.default_rng(stream).normal(scale=np.pi / 4,
                                                         size=param_dim)
            z, start, factors = draws.view(complex), 0, []
            for n, d in shapes:
                g = z[start:start + n * d].reshape(n, d)
                u, _, vh = np.linalg.svd(g, full_matrices=False)
                factors.append(u @ vh)
                start += n * d
            return factors

        for i, stream in enumerate(streams[:cfg.restarts]):
            for w, want, (n, d) in zip(first, polar_factors(stream), shapes):
                assert np.array_equal(w[i], want), (i, n, d)
        # Each refill's start shows up in a later call than the previous
        # refill's (or the same one), in one row for every party.
        last = 1
        for k, stream in enumerate(streams[cfg.restarts:]):
            want = polar_factors(stream)
            found = [(c, r) for c in range(last, len(calls))
                     for r in range(len(calls[c][0]))
                     if all(np.array_equal(w[r], v)
                            for w, v in zip(calls[c], want))]
            assert found, k
            last = found[0][0]

    def test_seeds_left_unascended_keep_their_slots(self, rng):
        objective, shapes, _ = _linear_on_isometries(
            [rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))])
        seeds = [split_point(x, shapes) for x in rng.normal(size=(2, 16))]
        cfg = OptimizerConfig(seed=4, restarts=3, max_evals=50)
        res = maximize(objective, shapes, cfg, seed_points=seeds,
                       ascend_seeds=False)
        full = maximize(objective, shapes, cfg, seed_points=seeds)
        # Both seeds are scored; only the third slot runs, from the same
        # random start as the third restart with the seeds ascended.
        assert res.restart_values[:2] == full.restart_values[:2]
        assert res.restart_values[2] == full.restart_values[4]
        assert res.restart_evals[0] == full.restart_evals[2]
        assert res.restart_stops[0] == full.restart_stops[2]
        # One slot ran: each round evaluated one point after the seeds.
        assert res.n_evals == 2 + min(2 * 16, cfg.max_evals)
        none_left = maximize(objective, shapes,
                             dataclasses.replace(cfg, restarts=2),
                             seed_points=seeds, ascend_seeds=False)
        assert none_left.restart_evals == ()
        assert none_left.n_evals == 2


class TestResultsOwnTheirArrays:
    """The driver rewrites its round arrays every round and hands the
    objective views of them; no result may alias them."""

    SHAPES = ((4, 2), (3, 3))

    def _recorded(self, seen):
        objective = _quadratic_on_isometries(self.SHAPES, 5)

        def recording(*ws):
            seen.extend(ws)  # the views themselves, not copies
            return objective(*ws)
        return recording

    def test_lockstep_rows_survive_more_rounds_and_another_run(self, rng):
        size = sum(2 * n * d for n, d in self.SHAPES)
        rows = rng.normal(scale=np.pi / 4, size=(5, size))
        points = [split_point(x, self.SHAPES) for x in rows[:2]]
        x0s = [split_point(x, self.SHAPES) for x in rows[2:]]
        seen = []
        res = minimize(self._recorded(seen), x0s, self.SHAPES, rounds=30,
                       tol=0.1, points=points,
                       refill=lambda: rng.normal(scale=np.pi / 4, size=size))
        assert res.stops[:2] == ("evaluated", "evaluated")
        assert len(res.evals) > 5  # slots were refilled
        # The seed points' rows were taken in the first round of 30, and
        # every run's row is still the point that reached its value.
        for got, want in zip(res.x[:2], rows[:2]):
            assert np.array_equal(got, want)
        objective = _quadratic_on_isometries(self.SHAPES, 5)
        for x, f in zip(res.x, res.fun):
            ws = [_polar(m)[None] for m in _matrices(x, self.SHAPES)]
            assert objective(*ws)[0][0] == pytest.approx(f, rel=1e-12)
        kept = [x.copy() for x in res.x]
        assert not any(np.shares_memory(x, w) for x in res.x for w in seen)
        minimize(self._recorded([]), x0s, self.SHAPES, rounds=30, tol=0.1,
                 points=points,
                 refill=lambda: rng.normal(scale=np.pi / 4, size=size))
        assert all(np.array_equal(x, k) for x, k in zip(res.x, kept))

    def test_search_results_survive_another_search(self, rng):
        size = sum(2 * n * d for n, d in self.SHAPES)
        seeds = [split_point(x, self.SHAPES)
                 for x in rng.normal(scale=np.pi / 4, size=(2, size))]
        cfg = OptimizerConfig(seed=3, restarts=4, max_evals=40, tol=0.1)
        seen = []
        res = maximize(self._recorded(seen), self.SHAPES, cfg,
                       seed_points=seeds)
        assert len(res.restart_evals) > cfg.restarts  # slots were refilled
        params, values = res.params.copy(), res.restart_values
        points = [p.copy() for p in res.points]
        assert not any(np.shares_memory(a, w) for a in (res.params,
                                                         *res.points)
                       for w in seen)
        maximize(self._recorded([]), self.SHAPES,
                 dataclasses.replace(cfg, seed=4), seed_points=seeds)
        assert np.array_equal(res.params, params)
        assert all(np.array_equal(p, q) for p, q in zip(res.points, points))
        assert res.restart_values == values


def _quadratic_on_isometries(shapes, seed):
    """f(W_1, ...) = sum_p Re Tr(A_p^dag W_p) + Re Tr(W_p^dag H_p W_p) / 2
    over isometries, H_p Hermitian, batched, with its gradient A_p + H_p W_p
    per party: unlike a linear objective, its steps get rejected and
    halved."""
    rng = np.random.default_rng(seed)
    terms = []
    for n, d in shapes:
        a = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        terms.append((a, 2 * (h + h.conj().T)))

    def objective(*ws):
        values, grads = 0.0, []
        for (a, h), w in zip(terms, ws):
            hw = h @ w
            values = values + np.real(np.sum(a.conj() * w + w.conj() * hw / 2,
                                             axis=(-2, -1)))
            grads.append(a + hw)
        return values, grads
    return objective


class TestLockstepMatchesOracle:
    """`minimize` steps every run as the generator oracle in conftest does,
    bit for bit: values, points, evaluations, stops and non-finite values."""

    # One stack, one stack of two or three parties, and one stack per
    # party, the equal shapes of the last set not adjacent.
    SHAPES = [((2, 2),), ((2, 2), (2, 2)), ((9, 3),), ((4, 2), (9, 3)),
              ((8, 2), (8, 2)), ((2, 2), (2, 2), (2, 2)),
              ((2, 2), (3, 3), (2, 2))]
    # (restarts, seed points, rounds, tol, poisoned, the stop reasons the
    # case must reach)
    CASES = {
        "seeds only": (0, 3, 5, 1e-8, False, {"evaluated"}),
        "refills": (3, 2, 40, 1e-3, False, {"evaluated", "converged"}),
        "cut rounds": (5, 0, 4, 1e-12, False, {"rounds"}),
        "1 round": (4, 1, 1, 1e-8, False, {"evaluated", "rounds"}),
        "2 rounds": (2, 0, 2, 1e-8, False, {"rounds"}),
        "7 rounds": (16, 1, 7, 1e-8, False, {"rounds"}),
        "poisoned": (6, 1, 30, 1e-10, True, {"non-finite"}),
        "one restart": (1, 0, 25, 1e-6, False, set()),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("shapes", SHAPES)
    def test_same_bits_as_the_generator_oracle(self, shapes, case):
        restarts, n_points, rounds, tol, poisoned, reached = self.CASES[case]
        objective = _quadratic_on_isometries(shapes, 7)
        size = sum(2 * n * d for n, d in shapes)
        rng = np.random.default_rng([size, list(self.CASES).index(case)])
        starts = rng.normal(scale=np.pi / 4, size=(restarts, size))
        points = [split_point(x, shapes)
                  for x in rng.normal(scale=np.pi / 4, size=(n_points, size))]
        # A non-finite gradient wherever the value rises well above the
        # starts', so poisoned runs stop on it part way up.
        ends = np.cumsum([2 * n * d for n, d in shapes])[:-1]
        ceiling = np.inf
        if poisoned:
            ceiling = np.median(objective(*(
                isometry_from_params(part, n, d) for part, (n, d)
                in zip(np.split(starts, ends, axis=-1), shapes)))[0]) + 0.5
        x0s = [split_point(x, shapes) for x in starts]

        def fun(*ws):
            values, grads = objective(*ws)
            grads[0][values > ceiling, 0, 0] = np.nan
            return values, grads

        def refill_from(seed):
            stream = np.random.default_rng(seed)
            return lambda: stream.normal(scale=np.pi / 4, size=size)

        args = (fun, x0s, shapes, rounds, tol)
        got = minimize(*args, points=points, refill=refill_from(1))
        want = oracle_lockstep_minimize(*args, points=points,
                                        refill=refill_from(1))
        assert np.array_equal(got.fun, want[0])
        assert len(got.x) == len(want[1])
        for got_x, want_x in zip(got.x, want[1]):
            assert got_x.shape == (size,)
            for a, b, shape in zip(_matrices(got_x, shapes), want_x, shapes):
                assert a.shape == b.shape == shape
                assert np.array_equal(a, b)
        assert got.evals == want[2]
        assert got.stops == want[3]
        assert repr(got.non_finite) == repr(want[4])
        assert got.nfev == sum(want[2])
        assert reached <= set(got.stops)
        if case == "refills":
            assert len(got.stops) > restarts + n_points


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
    objective, shapes, best = _linear_on_isometries(
        [np.array([[1.0, 2.0j], [0.5, -1.0]])])
    res = maximize(objective, shapes, cfg)
    assert np.isfinite(res.value) and res.value <= best + 1e-12
    assert len(res.restart_stops) >= cfg.restarts
    assert set(res.restart_stops) <= {"converged", "rounds"}
    assert all(n <= cfg.max_evals for n in res.restart_evals)
    assert res.n_evals == sum(res.restart_evals)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_projective_stack_is_a_povm_for_random_params(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    params = 3.0 * rng.normal(size=d * d)
    povm = Povm(tuple(projective_stack(params, d)))
    np.testing.assert_allclose(sum(povm.elements), np.eye(d), atol=1e-11)
