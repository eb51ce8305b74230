import numpy as np
import pytest

import qcorr.broadcast as broadcast_mod
from qcorr.broadcast import (
    _residual_objective,
    _stinespring_channel,
    apply_local_broadcast,
    attachment_candidate,
    broadcast_marginals,
    broadcast_search,
    cc_broadcast_channels,
    cloning_candidate,
    delta_b_upper,
    regroup,
    stinespring_param_dim,
    theorem2_check,
    two_copy_candidate,
    verify_broadcast,
)
from qcorr.corpus import (
    classically_correlated_bit,
    product_state,
    random_cc,
    separable_non_cq,
)
from qcorr.correlations import mutual_information
from qcorr.channels import ChannelError
from qcorr.optimize import OptimizerConfig, random_density, unitary_from_params
from qcorr.qstate import bell_phi_plus, tensor

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


class TestRawObjective:
    """The search objective on raw arrays against the validated composition."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("ancilla_dim", [None, 1])
    def test_matches_verify_broadcast(self, rng, dims, ancilla_dim):
        d_a, d_b = dims
        anc_a, anc_b = ancilla_dim or d_a, ancilla_dim or d_b
        pd_a = stinespring_param_dim(d_a, anc_a)
        pd_b = stinespring_param_dim(d_b, anc_b)
        rho = random_density(dims, 3, rng)
        objective = _residual_objective(rho, anc_a, anc_b)
        for _ in range(3):
            x = rng.normal(scale=np.pi / 4, size=pd_a + pd_b)
            sigma = apply_local_broadcast(
                _stinespring_channel(x[:pd_a], d_a, anc_a),
                _stinespring_channel(x[pd_a:], d_b, anc_b), rho)
            _, res = verify_broadcast(sigma, rho)
            assert objective(x) == pytest.approx(-(res[0] + res[1]), abs=1e-12)

    def test_non_isometry_raises_channel_error(self, monkeypatch):
        monkeypatch.setattr(broadcast_mod, "unitary_from_params",
                            lambda p, d: 1.01 * unitary_from_params(p, d))
        objective = _residual_objective(bell_phi_plus(), 2, 2)
        with pytest.raises(ChannelError, match="isometry"):
            objective(np.zeros(2 * stinespring_param_dim(2, 2)))

    def test_search_result_is_the_validated_candidate(self):
        cand = broadcast_search(bell_phi_plus(), TINY)
        _, res = verify_broadcast(cand.sigma, bell_phi_plus())
        assert cand.marginal_residuals == res


def test_delta_b_builds_each_candidate_once(rng, monkeypatch):
    calls = {"cloning": 0, "attachment": 0}

    def counted(name, fn):
        def wrapper(rho):
            calls[name] += 1
            return fn(rho)
        return wrapper

    monkeypatch.setattr(broadcast_mod, "cloning_candidate",
                        counted("cloning", cloning_candidate))
    monkeypatch.setattr(broadcast_mod, "attachment_candidate",
                        counted("attachment", attachment_candidate))
    assert delta_b_upper(random_cc(2, 2, rng), TINY) <= 1e-6
    assert calls == {"cloning": 1, "attachment": 1}
