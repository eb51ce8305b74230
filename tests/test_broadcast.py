import dataclasses

import numpy as np
import pytest

import qcorr.broadcast as broadcast_mod
from conftest import assert_slope_on_retracted_path
from qcorr.broadcast import (
    _channel_of_isometry,
    _residual_objective,
    _seed_points,
    apply_local_broadcast,
    attachment_candidate,
    broadcast_marginals,
    broadcast_search,
    cc_broadcast_channels,
    cloning_candidate,
    delta_b_upper,
    embed_ensemble,
    regroup,
    theorem2_check,
    two_copy_candidate,
    verify_broadcast,
)
from qcorr.corpus import (
    classically_correlated_bit,
    make_corpus,
    product_state,
    random_cc,
    random_cq,
    random_pure_entangled,
    separable_non_cq,
)
from qcorr.correlations import Ensemble, holevo_chi, mutual_information
from qcorr.channels import ChannelError
from qcorr.classify import Kind, is_cq
from qcorr.lockstep import _polar
from qcorr.optimize import OptimizerConfig, isometry_from_params, random_density
from qcorr.qstate import (
    DensityMatrix,
    ProbVector,
    StateError,
    SubsystemLayout,
    bell_phi_plus,
    tensor,
)

TINY = OptimizerConfig(seed=0, restarts=2, max_evals=120)


class TestLayoutHelpers:
    def test_regroup_is_involution(self, rng):
        sigma = random_density((2, 2, 2, 2), 3, rng)
        back = regroup(regroup(sigma))
        np.testing.assert_allclose(back.matrix, sigma.matrix, atol=1e-14)

    def test_two_copy_marginals_of_rho_tensor_rho(self, rng):
        rho = random_density((2, 2), 2, rng)
        sigma = regroup(tensor(rho, rho))
        copy_x, copy_y = broadcast_marginals(sigma)
        np.testing.assert_allclose(copy_x.matrix, rho.matrix, atol=1e-12)
        np.testing.assert_allclose(copy_y.matrix, rho.matrix, atol=1e-12)

    def test_verify_broadcast_accepts_two_copies(self, rng):
        rho = random_density((2, 2), 3, rng)
        ok, res = verify_broadcast(regroup(tensor(rho, rho)), rho)
        assert ok
        assert max(res) <= 1e-10


class TestCcCloning:
    def test_cloner_copies_basis_states(self):
        from qcorr.qstate import pure_state
        from qcorr.channels import apply_channel

        theta, _ = cc_broadcast_channels(np.eye(2), np.eye(2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            out = apply_channel(theta, pure_state(e, (2,)))
            ee = np.kron(e, e)
            np.testing.assert_allclose(
                out.matrix, np.outer(ee, ee), atol=1e-14
            )

    def test_cloning_exact_on_cc_states(self, rng):
        for d in (2, 3):
            rho = random_cc(d, d, rng)
            cand = cloning_candidate(rho)
            assert cand.valid
            assert max(cand.marginal_residuals) <= 1e-12
            assert abs(cand.mi_deficit) <= 1e-9

    def test_cloning_exact_on_classical_bit_pair(self):
        cand = cloning_candidate(classically_correlated_bit())
        assert max(cand.marginal_residuals) <= 1e-12
        assert abs(cand.mi_deficit) <= 1e-12

    def test_cloning_fails_on_bell(self):
        cand = cloning_candidate(bell_phi_plus())
        assert not cand.valid


class TestAttachment:
    def test_exact_on_product_states(self, rng):
        rho = product_state(2, 2, rng)
        cand = attachment_candidate(rho)
        assert cand.valid
        assert max(cand.marginal_residuals) <= 1e-10
        assert abs(cand.mi_deficit) <= 1e-9

    def test_invalid_on_correlated_states(self, rng):
        cand = attachment_candidate(random_cc(2, 2, rng))
        assert not cand.valid


class TestEmbedEnsemble:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
    def test_mutual_information_is_holevo_chi(self, rng, n, d):
        ens = Ensemble(ProbVector(rng.dirichlet(np.ones(n))),
                       tuple(random_density((d,), 1 + i % d, rng)
                             for i in range(n)))
        rho = embed_ensemble(ens)
        assert rho.dims == (n, d)
        assert mutual_information(rho) == pytest.approx(holevo_chi(ens),
                                                        abs=1e-12)
        assert is_cq(rho).kind is Kind.CQ

    def test_zero_probability_member_raises(self, rng):
        ens = Ensemble(ProbVector([1.0, 0.0]),
                       tuple(random_density((2,), 1, rng) for _ in range(2)))
        with pytest.raises(StateError):
            embed_ensemble(ens)


class TestTheorem2Check:
    def test_two_copies_deficit_equals_mi(self, rng):
        rho = random_density((2, 2), 2, rng)
        cand = two_copy_candidate(rho)
        ok, deficit = theorem2_check(cand.sigma, rho)
        i = mutual_information(rho)
        assert deficit == pytest.approx(i, abs=1e-9)
        assert ok == (i <= 1e-9)

    def test_cc_cloning_passes_with_local_maps(self, rng):
        rho = random_cc(2, 2, rng)
        cand = cloning_candidate(rho)
        ok, deficit = theorem2_check(cand.sigma, rho)
        assert ok
        assert abs(deficit) <= 1e-9

    def test_petz_maps_rebuild_cc_broadcast(self, rng):
        from qcorr.broadcast import local_broadcast_maps_from_petz
        from qcorr.qstate import trace_distance

        rho = random_cc(2, 2, rng)
        cand = cloning_candidate(rho)
        theta_a, theta_b = local_broadcast_maps_from_petz(cand.sigma, rho)
        rebuilt = apply_local_broadcast(theta_a, theta_b, rho)
        assert trace_distance(rebuilt, cand.sigma) <= 1e-9


class TestSearchAndDeltaB:
    def test_delta_b_zero_on_cc(self, rng):
        assert delta_b_upper(random_cc(2, 2, rng), TINY) <= 1e-6

    def test_delta_b_zero_on_product(self, rng):
        assert delta_b_upper(product_state(2, 2, rng), TINY) <= 1e-6

    def test_delta_b_equals_mi_on_bell(self):
        # no locally generated broadcast beats two independent copies
        assert delta_b_upper(bell_phi_plus(), TINY) == pytest.approx(
            2.0, abs=1e-6
        )

    def test_search_never_broadcasts_bell(self):
        cand = broadcast_search(bell_phi_plus(), TINY)
        assert max(cand.marginal_residuals) > 1e-6
        assert not cand.valid

    def test_search_never_broadcasts_separable_non_cc(self):
        rng = np.random.default_rng(9)
        sep = separable_non_cq(2, 2, rng)
        cand = broadcast_search(sep, TINY)
        assert max(cand.marginal_residuals) > 1e-6

    def test_search_finds_cc_broadcast(self, rng):
        cand = broadcast_search(random_cc(2, 2, rng), TINY)
        assert cand.valid
        assert abs(cand.mi_deficit) <= 1e-9


def _isometries(rng, k, d, ancilla):
    """k random Stinespring isometries (k, d*d*ancilla, d) of one side."""
    n = d * d * ancilla
    return isometry_from_params(rng.normal(size=(k, 2 * n * d)), n, d)


def _channels(point, dims, ancillas):
    """The two channels of a search point: the polar factors of its two
    matrices as Stinespring isometries."""
    return tuple(_channel_of_isometry(_polar(v), d, anc)
                 for v, d, anc in zip(point, dims, ancillas))


def _residual_sum(rho, theta_a, theta_b):
    _, res = verify_broadcast(apply_local_broadcast(theta_a, theta_b, rho), rho)
    return res[0] + res[1]


class TestRawObjective:
    """The search objective on raw arrays against the validated composition."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
    @pytest.mark.parametrize("ancilla_dim", [None, 1])
    def test_matches_verify_broadcast(self, rng, dims, ancilla_dim):
        d_a, d_b = dims
        anc_a, anc_b = ancilla_dim or d_a, ancilla_dim or d_b
        rho = random_density(dims, 3, rng)
        objective = _residual_objective(rho, anc_a, anc_b)
        v_a = _isometries(rng, 3, d_a, anc_a)
        v_b = _isometries(rng, 3, d_b, anc_b)
        values, grads = objective(v_a, v_b)
        assert values.shape == (3,)
        # One gradient per side, shaped as that side's isometries.
        assert [g.shape for g in grads] == [v_a.shape, v_b.shape]
        for a, b, value, *grad in zip(v_a, v_b, values, *grads):
            theta_a = _channel_of_isometry(a, d_a, anc_a)
            theta_b = _channel_of_isometry(b, d_b, anc_b)
            sigma = apply_local_broadcast(theta_a, theta_b, rho)
            frobenius = [np.linalg.norm(c.matrix - rho.matrix)
                         for c in broadcast_marginals(sigma)]
            assert value == pytest.approx(-sum(f * f for f in frobenius),
                                          abs=1e-12)
            single_value, single_grad = objective(a, b)
            assert single_value == pytest.approx(value, abs=1e-12)
            for got, want in zip(single_grad, grad):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            # ||X||_F <= ||X||_1, twice the trace distance.
            _, res = verify_broadcast(sigma, rho)
            for f, r in zip(frobenius, res):
                assert f <= 2 * r + 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
    @pytest.mark.parametrize("ancilla_dim", [None, 1])
    def test_copy_marginals_of_isometries_are_states(self, rng, dims,
                                                     ancilla_dim):
        # Why the isometry check is the only one the objective makes: the
        # copy marginals of isometries pass every DensityMatrix check.
        d_a, d_b = dims
        anc_a, anc_b = ancilla_dim or d_a, ancilla_dim or d_b
        rho = random_density(dims, 3, rng)
        shuffled = rho.matrix.reshape(d_a, d_b, d_a, d_b).transpose(
            0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)
        k = 8
        v_a = _isometries(rng, k, d_a, anc_a)
        v_b = _isometries(rng, k, d_b, anc_b)
        # The objective's own dense copy marginals, from its superoperators.
        _, s_a = broadcast_mod._copy_superoperators(
            v_a, d_a, anc_a, np.eye(d_a),
            np.empty((k, 2, d_a * d_a, d_a * anc_a), dtype=complex))
        _, s_b = broadcast_mod._copy_superoperators(
            v_b, d_b, anc_b, np.eye(d_b),
            np.empty((k, 2, d_b * d_b, d_b * anc_b), dtype=complex))
        copies = s_a @ shuffled @ s_b.swapaxes(-1, -2)
        dense = copies.reshape(k, 2, d_a, d_a, d_b, d_b).swapaxes(-3, -2)
        dense = dense.reshape(k, 2, d_a * d_b, d_a * d_b)
        for a, b, pair in zip(v_a, v_b, dense):
            sigma = apply_local_broadcast(_channel_of_isometry(a, d_a, anc_a),
                                          _channel_of_isometry(b, d_b, anc_b),
                                          rho)
            for got, marginal in zip(pair, broadcast_marginals(sigma)):
                np.testing.assert_allclose(got, marginal.matrix, rtol=0,
                                           atol=1e-12)
                for m in (got, marginal.matrix):
                    DensityMatrix(SubsystemLayout(dims), m)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("ancilla_dim", [None, 1])
    def test_held_work_arrays_do_not_alias(self, rng, dims, ancilla_dim):
        d_a, d_b = dims
        anc_a, anc_b = ancilla_dim or d_a, ancilla_dim or d_b
        rho = random_density(dims, 3, rng)
        objective = _residual_objective(rho, anc_a, anc_b)
        first = (_isometries(rng, 3, d_a, anc_a), _isometries(rng, 3, d_b, anc_b))
        inputs = [first] + [(_isometries(rng, k, d_a, anc_a),
                             _isometries(rng, k, d_b, anc_b))
                            for k in (3, 5, 3)]
        inputs.append((inputs[1][0][0], inputs[1][1][0]))  # no batch axis
        kept = [tuple(v.copy() for v in pair) for pair in inputs]
        values, grads = objective(*first)
        want = (values.copy(), [g.copy() for g in grads])
        for (v_a, v_b), (k_a, k_b) in zip(inputs[1:], kept[1:]):
            got_values, got_grads = objective(v_a, v_b)
            # Each call agrees bit for bit with a fresh objective's call.
            fresh_values, fresh_grads = _residual_objective(
                rho, anc_a, anc_b)(k_a.copy(), k_b.copy())
            np.testing.assert_array_equal(got_values, fresh_values)
            for got, fresh in zip(got_grads, fresh_grads):
                np.testing.assert_array_equal(got, fresh)
            # The first call's results are left as they were returned.
            np.testing.assert_array_equal(values, want[0])
            for g, w in zip(grads, want[1]):
                np.testing.assert_array_equal(g, w)
        # No call writes its inputs, and the first input scores as before.
        for pair, copies in zip(inputs, kept):
            for v, c in zip(pair, copies):
                np.testing.assert_array_equal(v, c)
        again_values, again_grads = objective(*first)
        np.testing.assert_array_equal(again_values, want[0])
        for g, w in zip(again_grads, want[1]):
            np.testing.assert_array_equal(g, w)

    def test_non_isometry_raises_channel_error(self):
        objective = _residual_objective(bell_phi_plus(), 2, 2)
        v = np.eye(8, 2, dtype=complex)
        objective(v, v)
        with pytest.raises(ChannelError, match="isometry"):
            objective(1.01 * v, v)
        with pytest.raises(ChannelError, match="isometry"):
            objective(v, 1.01 * v)

    @pytest.mark.parametrize("bad_row", [0, 2])
    def test_non_isometry_anywhere_in_a_batch_raises(self, rng, bad_row):
        objective = _residual_objective(bell_phi_plus(), 2, 2)
        v_a, v_b = _isometries(rng, 3, 2, 2), _isometries(rng, 3, 2, 2)
        objective(v_a, v_b)
        for side in (v_a, v_b):
            side[bad_row] *= 1.01
            with pytest.raises(ChannelError, match="isometry"):
                objective(v_a, v_b)
            side[bad_row] /= 1.01

    def test_search_result_is_the_validated_candidate(self):
        cand = broadcast_search(bell_phi_plus(), TINY)
        _, res = verify_broadcast(cand.sigma, bell_phi_plus())
        assert cand.marginal_residuals == res


def _recording_maximize(monkeypatch):
    """Record each `maximize` call of the broadcast search: its parameter
    count, seed points and the number of points of every objective call."""
    real = broadcast_mod.maximize
    calls = []

    def recording(objective, shapes, cfg, **kwargs):
        sizes = []

        def counted(*vs):
            sizes.append(len(vs[0]))
            return objective(*vs)
        calls.append((sum(2 * n * d for n, d in shapes),
                      kwargs["seed_points"], sizes))
        return real(counted, shapes, cfg, **kwargs)

    monkeypatch.setattr(broadcast_mod, "maximize", recording)
    return calls


class TestStinespringSearch:
    """The gradient ascent on Stinespring isometries and its seeds."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("ancilla_dim", [None, 1])
    def test_gradient_matches_central_differences(self, dims, ancilla_dim):
        rng = np.random.default_rng(7600 + 10 * dims[0] + dims[1])
        ancillas = tuple(ancilla_dim or d for d in dims)
        shapes = tuple((d * d * anc, d) for d, anc in zip(dims, ancillas))
        rho = random_density(dims, dims[0] * dims[1], rng)
        objective = _residual_objective(rho, *ancillas)
        for _ in range(3):
            x = [_isometries(rng, 1, d, anc) for d, anc in zip(dims, ancillas)]
            assert [w.shape[1:] for w in x] == list(shapes)
            assert_slope_on_retracted_path(objective, x, rng)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_seeds_reproduce_the_structured_residuals(self, dims, extra):
        # Ancilla levels beyond d stay empty.
        ancillas = tuple(d + extra for d in dims)
        for state in make_corpus(1, seed=1, d_a=dims[0], d_b=dims[1]):
            rho = state.rho
            cloning, attachment = cloning_candidate(rho), attachment_candidate(rho)
            want = [sum(cloning.marginal_residuals),
                    sum(attachment.marginal_residuals),
                    _residual_sum(rho, cloning.theta_A, attachment.theta_B),
                    _residual_sum(rho, attachment.theta_A, cloning.theta_B)]
            seeds = _seed_points(cloning, attachment, ancillas)
            got = [_residual_sum(rho, *_channels(x, dims, ancillas))
                   for x in seeds]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                       err_msg=state.state_id)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_search_calls_do_not_depend_on_the_state(self, monkeypatch, dims):
        # 2x2 has 64 parameters (128 rounds), 2x3 has 194 (capped at 150).
        cfg = OptimizerConfig(seed=0, restarts=6, max_evals=150)
        calls = _recording_maximize(monkeypatch)
        rng = np.random.default_rng(9300 + 10 * dims[0] + dims[1])
        states = [random_cc(*dims, rng), random_cq(*dims, rng),
                  random_pure_entangled(*dims, rng), product_state(*dims, rng),
                  random_density(dims, dims[0] * dims[1], rng)]
        # One (d^3, d) Stinespring matrix per side.
        param_dim = sum(2 * d ** 4 for d in dims)
        rounds = min(2 * param_dim, cfg.max_evals)
        for rho in states:
            calls.clear()
            broadcast_search(rho, cfg)
            (got_dim, seeds, sizes), = calls
            assert got_dim == param_dim
            assert len(seeds) == 4
            # The seeds are scored, then each round takes one point per slot.
            assert sizes == [len(seeds) + cfg.restarts] + [cfg.restarts] * (
                rounds - 1)

    @pytest.mark.parametrize("dims, per_call", [((2, 2), 1), ((3, 3), 1),
                                                ((2, 3), 2)])
    def test_sides_of_one_shape_share_one_superoperator_call(
            self, monkeypatch, dims, per_call):
        real_copies, real_maximize = (broadcast_mod._copy_superoperators,
                                      broadcast_mod.maximize)
        copies, per_objective_call = [], []

        def counted_copies(*args):
            copies.append(args[0].shape)
            return real_copies(*args)

        def recording(objective, shapes, cfg, **kwargs):
            def counted(*vs):
                copies.clear()
                out = objective(*vs)
                per_objective_call.append(len(copies))
                return out
            return real_maximize(counted, shapes, cfg, **kwargs)

        monkeypatch.setattr(broadcast_mod, "_copy_superoperators",
                            counted_copies)
        monkeypatch.setattr(broadcast_mod, "maximize", recording)
        rho = random_density(dims, dims[0] * dims[1],
                             np.random.default_rng(9400 + dims[1]))
        broadcast_search(rho, OptimizerConfig(seed=0, restarts=2, max_evals=6))
        assert per_objective_call == [per_call] * 6

    def test_ancilla_one_runs_without_seeds(self, monkeypatch):
        calls = _recording_maximize(monkeypatch)
        rho = separable_non_cq(2, 2, np.random.default_rng(9))
        cfg = dataclasses.replace(TINY, ancilla_dim=1)
        cloning, attachment, search = broadcast_mod._broadcast_candidates(rho, cfg)
        (_, seeds, _), = calls
        assert seeds == []
        assert len(search.theta_A.kraus) == len(search.theta_B.kraus) == 1
        _, res = verify_broadcast(search.sigma, rho)
        assert search.marginal_residuals == res
        cand = broadcast_search(rho, cfg)
        _, res = verify_broadcast(cand.sigma, rho)
        assert cand.marginal_residuals == res


def test_delta_b_builds_each_candidate_once(rng, monkeypatch):
    calls = {"cloning": 0, "attachment": 0}

    def counted(name, fn):
        def wrapper(rho, *args):
            calls[name] += 1
            return fn(rho, *args)
        return wrapper

    monkeypatch.setattr(broadcast_mod, "cloning_candidate",
                        counted("cloning", cloning_candidate))
    monkeypatch.setattr(broadcast_mod, "attachment_candidate",
                        counted("attachment", attachment_candidate))
    assert delta_b_upper(random_cc(2, 2, rng), TINY) <= 1e-6
    assert calls == {"cloning": 1, "attachment": 1}


def test_input_mutual_information_computed_once(rng, monkeypatch):
    # Every candidate's deficit is over the same I(rho): a search and the
    # Delta_b bound each compute it once, not once per candidate.
    rho = random_cc(2, 2, rng)
    calls = []

    def counted(state, cut=None):
        calls.append(state is rho)
        return mutual_information(state, cut)

    monkeypatch.setattr(broadcast_mod, "mutual_information", counted)
    broadcast_search(rho, TINY)
    assert calls.count(True) == 1 and calls.count(False) == 3
    calls.clear()
    delta_b_upper(rho, TINY)
    assert calls.count(True) == 1 and calls.count(False) == 4
