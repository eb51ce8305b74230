import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcorr.channels import (
    apply_local,
    depolarizing_channel,
    projective_basis_povm,
    unitary_channel,
)
from qcorr.corpus import (
    classically_correlated_bit,
    ghz,
    product_state,
    random_cc,
    random_cq,
)
from qcorr.correlations import (
    Ensemble,
    _cc_value,
    _cq_value,
    cc_state,
    classical_mutual_information,
    correlation_report,
    cq_state,
    delta_cc,
    discord,
    holevo_chi,
    multipartite_mutual_information,
    mutual_information,
    mutual_information_relative_entropy,
    optimize_icc,
    optimize_icq,
)
from qcorr.optimize import (
    OptimizerConfig,
    general_stack,
    haar_unitary,
    param_dim_general_povm,
    projective_stack,
    random_density,
)
from qcorr.qstate import (
    ClassicalJoint,
    DensityMatrix,
    ProbVector,
    SubsystemLayout,
    bell_phi_plus,
    partial_trace,
    pure_state,
    von_neumann_entropy,
)

SMALL = OptimizerConfig(seed=0, restarts=3, max_evals=300)


class TestMutualInformation:
    def test_bell_state_two_bits(self):
        assert mutual_information(bell_phi_plus()) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_classical_bit_pair_one_bit(self):
        assert mutual_information(classically_correlated_bit()) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_product_state_zero(self, rng):
        assert mutual_information(product_state(2, 3, rng)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_matches_relative_entropy_form(self, rng):
        rho = random_density((2, 3), 4, rng)
        assert mutual_information(rho) == pytest.approx(
            mutual_information_relative_entropy(rho), abs=1e-9
        )

    def test_ghz_multipartite_three_bits(self):
        assert multipartite_mutual_information(ghz(3)) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_custom_cut(self, rng):
        rho = random_density((2, 2, 2), 3, rng)
        i_01_2 = mutual_information(rho, cut=(0, 1))
        i_2_01 = mutual_information(rho, cut=(2,))
        assert i_01_2 == pytest.approx(i_2_01, abs=1e-10)


class TestClassicalQuantities:
    def test_classical_mi_frozen_value(self):
        joint = ClassicalJoint(np.array([[0.4, 0.1], [0.1, 0.4]]))
        # 1 + 0.8 log2(0.8) + 0.2 log2(0.2) computed independently
        assert classical_mutual_information(joint) == pytest.approx(
            0.2780719051126379, abs=1e-12
        )

    def test_holevo_two_pure_states_frozen_value(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        ens = Ensemble(
            ProbVector(np.array([0.5, 0.5])),
            (pure_state(np.array([1.0, 0.0]), (2,)), pure_state(plus, (2,))),
        )
        assert holevo_chi(ens) == pytest.approx(0.6008760366928562, abs=1e-12)

    def test_holevo_orthogonal_states_one_bit(self):
        ens = Ensemble(
            ProbVector(np.array([0.5, 0.5])),
            (
                pure_state(np.array([1.0, 0.0]), (2,)),
                pure_state(np.array([0.0, 1.0]), (2,)),
            ),
        )
        assert holevo_chi(ens) == pytest.approx(1.0, abs=1e-12)


class TestMeasuredStates:
    def test_cq_state_preserves_unmeasured_marginal(self, rng):
        from qcorr.qstate import partial_trace

        rho = random_density((2, 2), 3, rng)
        povm = projective_basis_povm(haar_unitary(2, rng))
        out = cq_state(rho, povm)
        np.testing.assert_allclose(
            partial_trace(out, (1,)).matrix,
            partial_trace(rho, (1,)).matrix,
            atol=1e-12,
        )

    def test_cc_state_joint_sums_to_one(self, rng):
        rho = random_density((2, 2), 4, rng)
        pa = projective_basis_povm(haar_unitary(2, rng))
        pb = projective_basis_povm(haar_unitary(2, rng))
        out, joint = cc_state(rho, pa, pb)
        assert joint.p.sum() == pytest.approx(1.0, abs=1e-10)
        diag = np.diag(out.matrix).real.reshape(2, 2)
        np.testing.assert_allclose(diag, joint.p, atol=1e-10)


class TestOptimizedBounds:
    def test_icq_exact_on_cq_state(self, rng):
        rho = random_cq(2, 2, rng)
        i = mutual_information(rho)
        opt = optimize_icq(rho, SMALL)
        assert opt.value == pytest.approx(i, abs=1e-9)

    def test_icc_exact_on_cc_state(self, rng):
        rho = random_cc(2, 2, rng)
        i = mutual_information(rho)
        opt = optimize_icc(rho, SMALL)
        assert opt.value == pytest.approx(i, abs=1e-9)

    def test_bell_icc_one_bit(self):
        opt = optimize_icc(bell_phi_plus(), SMALL)
        assert opt.value == pytest.approx(1.0, abs=1e-6)

    def test_delta_cc_zero_on_cc(self, rng):
        assert delta_cc(random_cc(2, 2, rng), SMALL) <= 1e-9

    def test_delta_cc_one_bit_on_bell(self):
        assert delta_cc(bell_phi_plus(), SMALL) == pytest.approx(1.0, abs=1e-6)

    def test_discord_zero_on_cq(self, rng):
        assert discord(random_cq(2, 2, rng), SMALL) <= 1e-9

    def test_discord_positive_on_bell(self):
        assert discord(bell_phi_plus(), SMALL) == pytest.approx(1.0, abs=1e-6)

    def test_report_chain_ordering(self, rng):
        rho = random_density((2, 2), 2, rng)
        rep = correlation_report(rho, SMALL)
        assert rep.I + 1e-12 >= rep.I_cq_lower >= rep.I_cc_lower >= 0.0
        assert rep.delta_cc_upper == pytest.approx(
            rep.I - rep.I_cc_lower, abs=1e-12
        )

    def test_report_deterministic(self, rng):
        rho = random_density((2, 2), 2, rng)
        r1 = correlation_report(rho, SMALL)
        r2 = correlation_report(rho, SMALL)
        assert r1.to_dict()["I_cc_lower"] == r2.to_dict()["I_cc_lower"]
        assert r1.to_dict()["I_cq_lower"] == r2.to_dict()["I_cq_lower"]

    def test_report_reuses_projective_icq_for_discord(self, rng):
        rho = random_density((2, 3), 4, rng)
        rep = correlation_report(rho, SMALL)
        assert rep.discord_upper == discord(rho, SMALL)
        proj_cfg = OptimizerConfig(**{**SMALL.to_dict(),
                                      "projective_only": True})
        standalone = optimize_icq(rho, proj_cfg).result.to_dict()
        assert rep.optimizer_meta["icq_projective"] == standalone

    def test_report_reuses_side_a_seeds(self, rng, monkeypatch):
        import qcorr.classify as classify_mod
        import qcorr.optimize as optimize_mod

        calls = []
        real = classify_mod.joint_diagonalize

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(classify_mod, "joint_diagonalize", counting)
        monkeypatch.setattr(optimize_mod, "joint_diagonalize", counting)
        rho = random_density((2, 3), 4, rng)
        rep = correlation_report(rho, SMALL)
        # Per side: the classical basis, and the parameters of it and of
        # the marginal eigenbasis.  Side A's are computed once, not twice.
        assert len(calls) == 6
        monkeypatch.undo()
        icq = optimize_icq(rho, SMALL)
        assert len(icq.seeds_a) == 3
        fresh = optimize_icc(rho, SMALL,
                             icq=dataclasses.replace(icq, seeds_a=()))
        assert rep.optimizer_meta["icc"] == fresh.result.to_dict()
        assert rep.I_cc_lower == min(rep.I_cq_lower, fresh.value)


    # On these states the general family cannot beat the projective one;
    # its value ties up to rounding, which must not flip the family.
    @pytest.mark.parametrize("state", [
        bell_phi_plus,
        classically_correlated_bit,
        lambda: random_cc(2, 2, np.random.default_rng(3)),
        lambda: random_cc(3, 3, np.random.default_rng(3)),
    ], ids=["bell", "cc_bit", "cc_2x2", "cc_3x3"])
    def test_reported_family_is_projective_on_ties(self, state):
        rep = correlation_report(state(), SMALL)
        assert rep.optimizer_meta["icq_family"] == "projective"
        assert rep.optimizer_meta["icc_family"] == "projective"


class TestDataProcessing:
    def test_local_unitary_preserves_mi(self, rng):
        rho = random_density((2, 2), 3, rng)
        u = unitary_channel(haar_unitary(2, rng))
        out = apply_local(u, 0, rho)
        assert mutual_information(out) == pytest.approx(
            mutual_information(rho), abs=1e-10
        )

    def test_depolarizing_kills_mi(self, rng):
        rho = random_density((2, 2), 3, rng)
        out = apply_local(depolarizing_channel(2), 0, rho)
        assert mutual_information(out) <= 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_mi_nonnegative_and_bounded(seed):
    rng = np.random.default_rng(seed)
    rho = random_density((2, 2), int(rng.integers(1, 5)), rng)
    i = mutual_information(rho)
    assert -1e-10 <= i <= 2.0 * np.log2(2) + 1e-10


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_measurement_never_increases_mi(seed):
    rng = np.random.default_rng(seed)
    rho = random_density((2, 2), int(rng.integers(1, 5)), rng)
    povm = projective_basis_povm(haar_unitary(2, rng))
    out = cq_state(rho, povm)
    assert mutual_information(out) <= mutual_information(rho) + 1e-9


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
@pytest.mark.parametrize("family", ["projective", "general"])
def test_batched_objectives_match_single_points(rng, dims, family):
    d_a, d_b = dims
    rho = random_density(dims, 2, rng)
    rho_mat = np.ascontiguousarray(rho.matrix)
    s_b = von_neumann_entropy(partial_trace(rho, (1,)))

    def stacks(d, k):
        if family == "projective":
            return projective_stack, rng.normal(size=(k, d * d)), (d,)
        return (general_stack,
                rng.normal(size=(k, param_dim_general_povm(d, d * d))),
                (d, d * d))

    stack_a, xa, args_a = stacks(d_a, 4)
    stack_b, xb, args_b = stacks(d_b, 4)
    ms, ns = stack_a(xa, *args_a), stack_b(xb, *args_b)
    cq, cc = _cq_value(rho_mat, s_b, ms), _cc_value(rho_mat, ms, ns)
    assert cq.shape == cc.shape == (4,)
    for i in range(4):
        m1, n1 = stack_a(xa[i], *args_a), stack_b(xb[i], *args_b)
        assert cq[i] == pytest.approx(_cq_value(rho_mat, s_b, m1), abs=1e-12)
        assert cc[i] == pytest.approx(_cc_value(rho_mat, m1, n1), abs=1e-12)


class TestStackedPartyObjectives:
    """The I_CC objectives parameterize both parties in one call when their
    shapes agree, and in one call per party otherwise; either way the
    values are bitwise those of the per-party composition."""

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (3, 2)])
    def test_objectives_equal_per_party_composition(self, dims, monkeypatch):
        import qcorr.correlations as corr_mod

        d_a, d_b = dims
        rng = np.random.default_rng(9000 + 10 * d_a + d_b)
        rho = random_density(dims, d_a * d_b, rng)
        rho_mat = np.ascontiguousarray(rho.matrix)
        cfg = OptimizerConfig(seed=0, restarts=1, max_evals=5)
        icq = optimize_icq(rho, cfg)

        objectives, stack_calls = [], []
        real_maximize = corr_mod.maximize

        def recording(objective, *args, **kwargs):
            objectives.append(objective)
            return real_maximize(objective, *args, **kwargs)

        def counted(stack):
            def call(*args, **kwargs):
                stack_calls.append(stack.__name__)
                return stack(*args, **kwargs)
            return call

        monkeypatch.setattr(corr_mod, "maximize", recording)
        optimize_icc(rho, cfg, icq=icq)
        proj_obj, gen_obj = objectives
        monkeypatch.setattr(corr_mod, "projective_stack",
                            counted(projective_stack))
        monkeypatch.setattr(corr_mod, "general_stack", counted(general_stack))

        pd_a = d_a * d_a
        n_a, n_b = d_a * d_a, d_b * d_b
        gd_a = param_dim_general_povm(d_a, n_a)
        calls_per_eval = 1 if d_a == d_b else 2
        for k in (1, 3, 30):
            x = rng.normal(scale=np.pi / 4, size=(k, pd_a + d_b * d_b))
            stack_calls.clear()
            got = proj_obj(x)
            assert stack_calls == ["projective_stack"] * calls_per_eval
            want = _cc_value(rho_mat, projective_stack(x[:, :pd_a], d_a),
                             projective_stack(x[:, pd_a:], d_b))
            assert np.array_equal(got, want), k

            y = rng.normal(scale=np.pi / 4,
                           size=(k, gd_a + param_dim_general_povm(d_b, n_b)))
            stack_calls.clear()
            got = gen_obj(y)
            assert stack_calls == ["general_stack"] * calls_per_eval
            want = _cc_value(rho_mat, general_stack(y[:, :gd_a], d_a, n_a),
                             general_stack(y[:, gd_a:], d_b, n_b))
            assert np.array_equal(got, want), k


# Report invariants on random inputs at every supported local dimension
# and rank, at a budget too small to matter: exactness comes from the seed
# points, the chain from the report's construction.  At d = 4 the general
# family has 128 parameters per side, so each restart's initial simplex
# is cut off by the budget.
TINY = OptimizerConfig(seed=0, restarts=2, max_evals=60)
DIMS = st.tuples(st.integers(2, 4), st.integers(2, 4))


def _assert_chain(rep):
    assert rep.I + 1e-12 >= rep.I_cq_lower >= rep.I_cc_lower >= 0.0


@settings(max_examples=12, deadline=None)
@given(DIMS, st.data())
def test_chain_on_random_states(dims, data):
    rank = data.draw(st.integers(1, dims[0] * dims[1]), label="rank")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    _assert_chain(correlation_report(random_density(dims, rank, rng), TINY))


@settings(max_examples=12, deadline=None)
@given(DIMS, st.data())
def test_icq_exact_on_cq_states(dims, data):
    d_a, d_b = dims
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    # `symbols` classical values with conditional states of the drawn ranks:
    # total rank from 1 (a product pure state) to d_a * d_b.
    symbols = data.draw(st.integers(1, d_a), label="symbols")
    ranks = data.draw(st.lists(st.integers(1, d_b), min_size=symbols,
                               max_size=symbols), label="ranks")
    u = haar_unitary(d_a, rng)
    p = rng.dirichlet(np.ones(symbols))
    m = sum(p[i] * np.kron(np.outer(u[:, i], u[:, i].conj()),
                           random_density((d_b,), r, rng).matrix)
            for i, r in enumerate(ranks))
    rho = DensityMatrix(SubsystemLayout(dims), m)
    rep = correlation_report(rho, TINY)
    _assert_chain(rep)
    assert rep.I_cq_lower == pytest.approx(rep.I, abs=1e-9)


@settings(max_examples=12, deadline=None)
@given(DIMS, st.data())
def test_icc_exact_on_cc_states(dims, data):
    d_a, d_b = dims
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rank = data.draw(st.integers(1, d_a * d_b), label="rank")
    support = rng.choice(d_a * d_b, size=rank, replace=False)
    p = np.zeros(d_a * d_b)
    p[support] = rng.dirichlet(np.ones(rank))
    u, v = haar_unitary(d_a, rng), haar_unitary(d_b, rng)
    m = sum(p[i * d_b + j] * np.outer(np.kron(u[:, i], v[:, j]),
                                      np.kron(u[:, i], v[:, j]).conj())
            for i in range(d_a) for j in range(d_b))
    rho = DensityMatrix(SubsystemLayout(dims), m)
    rep = correlation_report(rho, TINY)
    _assert_chain(rep)
    assert rep.I_cc_lower == pytest.approx(rep.I, abs=1e-6)
