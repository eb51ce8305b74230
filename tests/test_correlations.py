import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (assert_slope_on_retracted_path, oracle_entropy_bits,
                      split_point)
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
    random_pure_entangled,
)
from qcorr.correlations import (
    Ensemble,
    _Parties,
    _cc_objective,
    _cc_value,
    _cq_objective,
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
from qcorr.classify import classical_basis
from qcorr.lockstep import _polar, _tangent, minimize
from qcorr.optimize import (
    ConfigRangeError,
    OptimizerConfig,
    general_stack,
    haar_unitary,
    isometry_from_params,
    isometry_stack,
    projective_stack,
    random_density,
)
from qcorr.qstate import (
    ClassicalJoint,
    DensityMatrix,
    ProbVector,
    StateError,
    SubsystemLayout,
    bell_phi_plus,
    partial_trace,
    permute_subsystems,
    pure_state,
    tensor,
    von_neumann_entropy,
)

SMALL = OptimizerConfig(seed=0, restarts=3, max_evals=300)


@pytest.mark.parametrize("side", [2, -1, "a", None, 0.5])
def test_optimize_icq_and_discord_reject_other_sides(side):
    # On a 2x3 state, a side taken as party 1 would measure a qutrit.
    rho = random_density((2, 3), 6, np.random.default_rng(11))
    cfg = OptimizerConfig(seed=0, restarts=1, max_evals=5)
    with pytest.raises(StateError, match="side must be 0 or 1"):
        optimize_icq(rho, cfg, side=side)
    with pytest.raises(StateError, match="side must be 0 or 1"):
        discord(rho, cfg, side=side)
    # A qubit POVM: it fits party 0, so only the side can be at fault.
    with pytest.raises(StateError, match="side must be 0 or 1"):
        cq_state(rho, projective_basis_povm(np.eye(2)), side=side)
    assert optimize_icq(rho, cfg, side=1).povm_a.dim == 3


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

    @pytest.mark.parametrize("seed", range(8))
    def test_product_states_never_below_zero(self, seed):
        # Unclamped, S(A) + S(B) - S(AB) of most of these products rounds
        # a few ulps below zero; the result is +0.0 or above, never -0.0.
        rng = np.random.default_rng(seed)
        cfg = OptimizerConfig(seed=0, restarts=1, max_evals=5)
        for dims in ((2, 2), (2, 3), (3, 3)):
            rho = product_state(*dims, rng)
            values = [mutual_information(rho), mutual_information(rho, (1,)),
                      multipartite_mutual_information(rho),
                      correlation_report(rho, cfg).I]
            for value in values:
                assert value >= 0.0 and math.copysign(1.0, value) == 1.0
                assert value <= 1e-12
        three = tensor(tensor(random_density((2,), 2, rng),
                              random_density((2,), 2, rng)),
                       random_density((3,), 3, rng))
        value = multipartite_mutual_information(three)
        assert 0.0 <= value <= 1e-12
        assert math.copysign(1.0, value) == 1.0

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

    def test_classical_mi_of_products_never_below_zero(self, rng):
        # Unclamped, H(A) + H(B) - H(AB) of about a quarter of these joints
        # rounds a few ulps below zero; the result is +0.0 or above.
        joints = [np.outer(rng.dirichlet(np.ones(m)),
                           rng.dirichlet(np.ones(n)))
                  for m, n in ((2, 2), (2, 3), (3, 3), (4, 2)) * 50]
        for _ in range(50):
            rho = tensor(random_density((2,), 2, rng),
                         random_density((2,), 2, rng))
            pa = projective_basis_povm(haar_unitary(2, rng))
            pb = projective_basis_povm(haar_unitary(2, rng))
            joints.append(cc_state(rho, pa, pb)[1].p)
        values = [classical_mutual_information(ClassicalJoint(p))
                  for p in joints]
        assert all(v >= 0.0 and math.copysign(1.0, v) == 1.0 for v in values)
        assert max(values) <= 1e-12

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
        calls = _count_work(monkeypatch)
        rho = random_density((2, 3), 4, rng)
        rep = correlation_report(rho, SMALL)
        # One classical basis per side; side A's is computed once, not
        # twice, and the seed bases are packed as isometries directly.
        assert calls.count("joint_diagonalize") == 2
        monkeypatch.undo()
        icq = optimize_icq(rho, SMALL)
        assert len(icq.parties.seeds(0)) == 3
        # The same state as another object: the I_CC search builds its
        # own record rather than reuse the I_CQ search's.
        twin = DensityMatrix(rho.layout, rho.matrix)
        fresh = optimize_icc(twin, SMALL, icq=icq)
        assert fresh.parties is not icq.parties
        assert rep.optimizer_meta["icc"] == fresh.result.to_dict()
        assert rep.I_cc_lower == min(rep.I_cq_lower, fresh.value)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_work_per_call(self, dims, monkeypatch):
        # A report validates two states (the marginals), takes their
        # entropies and S(rho), and joint-diagonalizes once per side; party
        # 1's I_CQ search validates the same two marginals and no swapped
        # state, and diagonalizes once.
        rho = random_density(dims, 4, np.random.default_rng(31))
        calls = _count_work(monkeypatch)
        correlation_report(rho, SMALL)
        assert collections.Counter(calls) == {
            "DensityMatrix": 2, "von_neumann_entropy": 3,
            "joint_diagonalize": 2}
        calls.clear()
        icq = optimize_icq(rho, SMALL, side=1)
        assert collections.Counter(calls) == {
            "DensityMatrix": 2, "von_neumann_entropy": 2,
            "joint_diagonalize": 1}
        assert icq.parties.rho is rho


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


def _count_work(monkeypatch) -> list:
    """Record the name of each state validation ("DensityMatrix"),
    entropy taken by `qcorr.correlations` and Jacobi run, until
    `monkeypatch.undo()`."""
    import qcorr.classify as classify_mod
    import qcorr.correlations as corr_mod

    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted(
        "DensityMatrix", DensityMatrix.__post_init__))
    monkeypatch.setattr(classify_mod, "joint_diagonalize", counted(
        "joint_diagonalize", classify_mod.joint_diagonalize))
    monkeypatch.setattr(corr_mod, "von_neumann_entropy", counted(
        "von_neumann_entropy", corr_mod.von_neumann_entropy))
    return calls


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("cfg", [
    SMALL, OptimizerConfig(seed=0, restarts=6, max_evals=300)],
    ids=["report", "six_restarts"])
def test_party_one_is_measured_as_the_swap_party_zero(dims, cfg):
    # Party 1's search reads the swap's form, marginal and classical basis
    # off rho itself; its results are those of the swapped state's party-0
    # search, bit for bit.
    rng = np.random.default_rng(7300 + 10 * dims[0] + dims[1])
    for rank in (2, dims[0] * dims[1]):
        rho = random_density(dims, rank, rng)
        swap = permute_subsystems(rho, (1, 0))
        got, want = optimize_icq(rho, cfg, side=1), optimize_icq(swap, cfg)
        assert got.projective.to_dict() == want.projective.to_dict()
        assert got.general.to_dict() == want.general.to_dict()
        assert got.povm_a.elements.tobytes() == want.povm_a.elements.tobytes()
        assert got.value == want.value and got.family == want.family
        # I of rho and of its swap may round apart; the gap from the
        # projective search's value may not.
        i = mutual_information(rho)
        proj = dataclasses.replace(cfg, projective_only=True)
        want = optimize_icq(swap, proj).value
        assert discord(rho, cfg, side=1) == max(i - min(want, i), 0.0)


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
        return (general_stack, rng.normal(size=(k, 2 * d ** 3)), (d, d * d))

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
    """The lockstep driver takes the polar factors of every point of a
    round with one SVD call per distinct party shape (both I_CC parties
    share one when their shapes agree) and none per accepted step; the
    I_CC objective's values and gradients on them are bitwise those of the
    per-party composition, for the projective (d-outcome) and the general
    (d^2-outcome) family."""

    @staticmethod
    def _counting_svd(monkeypatch):
        calls = []
        real = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append("svd")
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    @staticmethod
    def _recorded_objectives(rho, cfg, monkeypatch, wrap=None):
        """Run `optimize_icc` and return each search's objective and its
        isometry shapes, and the optimum; `wrap(objective)` replaces the
        objective if given."""
        import qcorr.correlations as corr_mod

        searches = []
        real_maximize = corr_mod.maximize

        def recording(objective, shapes, *args, **kwargs):
            searches.append((objective, shapes))
            return real_maximize(wrap(objective) if wrap else objective,
                                 shapes, *args, **kwargs)

        monkeypatch.setattr(corr_mod, "maximize", recording)
        return searches, optimize_icc(rho, cfg, icq=optimize_icq(rho, cfg))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (3, 2)])
    def test_objectives_equal_per_party_composition(self, dims, monkeypatch):
        d_a, d_b = dims
        rng = np.random.default_rng(9000 + 10 * d_a + d_b)
        rho = random_density(dims, d_a * d_b, rng)
        rho_mat = np.ascontiguousarray(rho.matrix)
        cfg = OptimizerConfig(seed=0, restarts=1, max_evals=5)
        searches, _ = self._recorded_objectives(rho, cfg, monkeypatch)
        monkeypatch.undo()
        # The side-0 I_CQ searches, then the two I_CC searches.
        searches = searches[-2:]

        svd_per_round = 1 if d_a == d_b else 2
        for (objective, shapes), (n_a, n_b) in zip(
                searches, ((d_a, d_b), (d_a * d_a, d_b * d_b))):
            assert shapes == ((n_a, d_a), (n_b, d_b))
            split = 2 * n_a * d_a
            size = split + 2 * n_b * d_b
            for k in (1, 3, 30):
                y = rng.normal(scale=np.pi / 4, size=(k, size))
                calls, seen = self._counting_svd(monkeypatch), []

                def recording(*ws):
                    seen.append((list(calls), ws, objective(*ws)))
                    return seen[-1][2]

                # One round that evaluates each row of y once.
                minimize(recording, (), shapes, rounds=1, tol=1e-8,
                         points=[split_point(x, shapes) for x in y])
                monkeypatch.undo()
                (svds, (w_a, w_b), (got, grad)), = seen
                assert svds == ["svd"] * svd_per_round
                assert [g.shape for g in grad] == [w_a.shape, w_b.shape]
                want_a = isometry_from_params(y[:, :split], n_a, d_a)
                want_b = isometry_from_params(y[:, split:], n_b, d_b)
                assert np.array_equal(w_a, want_a), (n_a, k)
                assert np.array_equal(w_b, want_b), (n_a, k)
                want = _cc_value(rho_mat,
                                 general_stack(y[:, :split], d_a, n_a),
                                 general_stack(y[:, split:], d_b, n_b))
                assert np.array_equal(got, want), (n_a, k)
                want, want_grad = _cc_objective(_Parties(rho))(want_a,
                                                               want_b)
                assert np.array_equal(got, want), (n_a, k)
                for g, want_g in zip(grad, want_grad):
                    assert np.array_equal(g, want_g), (n_a, k)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (3, 2)])
    def test_no_svd_per_accepted_step(self, dims, monkeypatch):
        # Count the SVD calls between consecutive objective calls of each
        # search, and after its last: each round takes the polar factors
        # once, and accepting a step takes none.
        import qcorr.optimize as optimize_mod

        d_a, d_b = dims
        rng = np.random.default_rng(9200 + 10 * d_a + d_b)
        rho = random_density(dims, d_a * d_b, rng)
        cfg = OptimizerConfig(seed=0, restarts=6, max_evals=40)
        calls, rounds = self._counting_svd(monkeypatch), []

        def wrap(objective):
            rounds.append([])

            def counted(*ws):
                rounds[-1].append(len(calls))
                calls.clear()
                return objective(*ws)
            return counted

        real_minimize = optimize_mod.minimize

        def minimize_then_count(*args, **kwargs):
            calls.clear()
            res = real_minimize(*args, **kwargs)
            rounds[-1].append(len(calls))  # after the last round
            return res

        monkeypatch.setattr(optimize_mod, "minimize", minimize_then_count)
        _, icc = self._recorded_objectives(rho, cfg, monkeypatch, wrap)
        # Projective and general I_CQ, then projective and general I_CC.
        assert len(rounds) == 4
        svd_per_round = 1 if d_a == d_b else 2
        for svds, res in zip(rounds[2:], (icc.projective, icc.general)):
            assert len(svds) == min(2 * len(res.params), cfg.max_evals) + 1
            assert svds[:-1] == [svd_per_round] * (len(svds) - 1)
            assert svds[-1] == 0
        for svds in rounds[:2]:
            assert set(svds[:-1]) == {1} and svds[-1] == 0
        # The first projective restarts start at the seeds, and their
        # accepted steps lift them above those.
        res = icc.projective
        n_seeds = len(res.restart_values) - len(res.restart_evals)
        assert any(r > s + 1e-9 for r, s in zip(
            res.restart_values[n_seeds:2 * n_seeds], res.restart_values))


def _general_objectives(rho, kind, projective=False):
    """The search objective of `kind` ("cq" or "cc") on rho, with
    gradients, for the general (d^2-outcome) or the projective (d-outcome)
    family; the value-only composition it must agree with; and its isometry
    shapes.  Both take one (..., n, d) isometry array per party."""
    d_a, d_b = rho.dims
    n_a, n_b = (d_a, d_b) if projective else (d_a * d_a, d_b * d_b)
    rho_mat = np.ascontiguousarray(rho.matrix)
    s_b = von_neumann_entropy(partial_trace(rho, (1,)))
    if kind == "cq":
        def value(w):
            return _cq_value(rho_mat, s_b, isometry_stack(w))
        return _cq_objective(_Parties(rho), 0), value, ((n_a, d_a),)

    def value(w_a, w_b):
        return _cc_value(rho_mat, isometry_stack(w_a), isometry_stack(w_b))
    return _cc_objective(_Parties(rho)), value, ((n_a, d_a), (n_b, d_b))


def _random_matrices(rng, k, shapes):
    """k random complex matrices per (n, d) entry of `shapes`, drawn as
    real (k, 2 n d) normal arrays."""
    return [rng.normal(size=(k, 2 * n * d)).view(complex).reshape(k, n, d)
            for n, d in shapes]


def _random_isometries(rng, k, shapes):
    """k random isometries per (n, d) entry of `shapes`."""
    return [isometry_from_params(rng.normal(size=(k, 2 * n * d)), n, d)
            for n, d in shapes]


GRAD_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]


class TestGeneralGradients:
    """Closed-form gradients of the general-family I_CQ and I_CC objectives
    in the isometry W."""

    @staticmethod
    def _assert_central_differences(rng, rho, kind, projective):
        objective, _, shapes = _general_objectives(rho, kind, projective)
        for _ in range(3):
            x = [_polar(w) for w in _random_matrices(rng, 1, shapes)]
            assert_slope_on_retracted_path(objective, x, rng)

    @pytest.mark.parametrize("kind", ["cq", "cc"])
    @pytest.mark.parametrize("dims", GRAD_DIMS)
    def test_match_central_differences(self, dims, kind):
        rng = np.random.default_rng(7100 + 10 * dims[0] + dims[1])
        rho = random_density(dims, dims[0] * dims[1], rng)
        self._assert_central_differences(rng, rho, kind, projective=False)

    @pytest.mark.parametrize("kind", ["cq", "cc"])
    @pytest.mark.parametrize("dims", GRAD_DIMS)
    def test_projective_match_central_differences(self, dims, kind):
        # The projective family is the n = d case: W unitary.
        rng = np.random.default_rng(7400 + 10 * dims[0] + dims[1])
        rho = random_density(dims, dims[0] * dims[1], rng)
        self._assert_central_differences(rng, rho, kind, projective=True)

    @pytest.mark.parametrize("kind", ["cq", "cc"])
    @pytest.mark.parametrize("dims", GRAD_DIMS)
    def test_batch_matches_single_points(self, dims, kind):
        rng = np.random.default_rng(7200 + 10 * dims[0] + dims[1])
        rho = random_density(dims, dims[0] * dims[1], rng)
        with_grad, _, shapes = _general_objectives(rho, kind)
        ws = _random_isometries(rng, 4, shapes)
        values, grads = with_grad(*ws)
        assert values.shape == (4,)
        assert [g.shape for g in grads] == [w.shape for w in ws]
        for i in range(4):
            value, grad = with_grad(*(w[i] for w in ws))
            assert [g.shape for g in grad] == [w[i].shape for w in ws]
            assert value == pytest.approx(values[i], rel=0, abs=1e-12)
            for g, g_batch in zip(grad, grads):
                np.testing.assert_allclose(g, g_batch[i], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["cq", "cc"])
    @pytest.mark.parametrize("dims", GRAD_DIMS)
    def test_values_are_those_of_the_value_functions(self, dims, kind):
        rng = np.random.default_rng(7300 + 10 * dims[0] + dims[1])
        rho = random_density(dims, 2, rng)
        with_grad, value, shapes = _general_objectives(rho, kind)
        ws = _random_isometries(rng, 5, shapes)
        got, want = with_grad(*ws)[0], value(*ws)
        if kind == "cc":
            assert np.array_equal(got, want)
        else:
            # eigh and eigvalsh may round the eigenvalues differently.
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("state", [
        bell_phi_plus,
        lambda: random_pure_entangled(2, 2, np.random.default_rng(1)),
        lambda: random_pure_entangled(2, 3, np.random.default_rng(2)),
        lambda: random_pure_entangled(3, 3, np.random.default_rng(3)),
    ], ids=["bell", "pure_2x2", "pure_2x3", "pure_3x3"])
    def test_rank_deficient_blocks(self, state):
        # Measuring both sides of a pure state in its Schmidt bases gives
        # I_CQ = I_CC = S_A, the maximum, with rank-deficient blocks and
        # zero joint probabilities; the gradients stay finite and vanish.
        rho = state()
        d_a, d_b = rho.dims
        s_a = von_neumann_entropy(partial_trace(rho, (0,)))
        bases = [np.linalg.eigh(partial_trace(rho, (side,)).matrix)[1]
                 for side in (0, 1)]
        # The Schmidt bases' unitaries W = U^dag, padded with zero rows.
        g_a, g_b = (np.pad(u.conj().T, ((0, d * d - d), (0, 0)))[None]
                    for u, d in zip(bases, (d_a, d_b)))
        for kind, point in (("cq", [g_a]), ("cc", [g_a, g_b])):
            objective, _, shapes = _general_objectives(rho, kind)
            value, grads = objective(*(_polar(w) for w in point))
            assert value[0] == pytest.approx(s_a, abs=1e-12), kind
            assert all(np.isfinite(g).all() for g in grads), kind
            tangent = _tangent([w[:, None] for w in point],
                               [g[:, None] for g in grads])
            norm = math.sqrt(sum(np.vdot(t, t).real for t in tangent))
            assert norm <= 1e-9, kind
        rep = correlation_report(rho, SMALL)
        assert rep.I_cq_lower == pytest.approx(s_a, abs=1e-9)
        assert rep.I_cc_lower == pytest.approx(s_a, abs=1e-9)
        for phase in ("icq", "icc"):
            assert rep.optimizer_meta[phase]["diagnostics"] == []


def _seed_bases(rho, side):
    """The seed bases of a side, as columns: computational, marginal
    eigenbasis, classical."""
    d = rho.dims[side]
    return [np.eye(d, dtype=complex),
            np.linalg.eigh(partial_trace(rho, (side,)).matrix)[1],
            classical_basis(rho, side)]


class TestProjectivePhase:
    """The projective phases search unitaries W (the d-outcome isometry
    family) by gradient ascent from the seed bases."""

    @pytest.mark.parametrize("dims", GRAD_DIMS)
    def test_povms_are_complete_orthogonal_rank1_projectors(self, dims):
        d_a, d_b = dims
        rng = np.random.default_rng(7500 + 10 * d_a + d_b)
        rho = random_density(dims, d_a * d_b, rng)
        cfg = OptimizerConfig(seed=1, restarts=2, max_evals=100,
                              projective_only=True)
        icq = optimize_icq(rho, cfg)
        icc = optimize_icc(rho, cfg, icq=icq)
        povms = [(icq.povm_a, d_a), (optimize_icq(rho, cfg, side=1).povm_a, d_b),
                 (icc.povm_a, d_a), (icc.povm_b, d_b)]
        assert icq.family == icc.family == "projective"
        for povm, d in povms:
            ms = povm.elements
            assert ms.shape == (d, d, d)
            products = np.einsum("iab,jbc->ijac", ms, ms)
            want = np.eye(d)[:, :, None, None] * ms[:, None]
            np.testing.assert_allclose(products, want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.trace(ms, axis1=1, axis2=2), 1.0,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(ms.sum(axis=0), np.eye(d),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims", GRAD_DIMS)
    def test_value_never_below_best_seed(self, dims):
        d_a, d_b = dims
        rng = np.random.default_rng(7600 + 10 * d_a + d_b)
        states = [random_density(dims, d_a * d_b, rng),
                  random_density(dims, 2, rng),
                  random_cq(d_a, d_b, rng), random_cc(d_a, d_b, rng)]
        # A budget too small to converge: the seeds carry the value.
        cfg = OptimizerConfig(seed=2, restarts=1, max_evals=3,
                              projective_only=True)
        for rho in states:
            rho_mat = np.ascontiguousarray(rho.matrix)
            s_b = von_neumann_entropy(partial_trace(rho, (1,)))
            povms_a = [projective_basis_povm(u).elements
                       for u in _seed_bases(rho, 0)]
            povms_b = [projective_basis_povm(u).elements
                       for u in _seed_bases(rho, 1)]
            cq_seeds = [_cq_value(rho_mat, s_b, m) for m in povms_a]
            cc_seeds = [_cc_value(rho_mat, m, n)
                        for m, n in [*zip(povms_a, povms_b),
                                     (povms_a[0], povms_b[1])]]
            icq = optimize_icq(rho, cfg)
            icc = optimize_icc(rho, cfg, icq=icq)
            for opt, seeds in ((icq, cq_seeds), (icc, cc_seeds)):
                res = opt.projective
                np.testing.assert_allclose(res.restart_values[:len(seeds)],
                                           seeds, rtol=0, atol=1e-12)
                assert res.value >= max(seeds) - 1e-12
                assert res.value == max(res.restart_values)


def _bell_diagonal_states(count, rng):
    """Bell-diagonal two-qubit states (I + sum_i c_i sigma_i (x) sigma_i)/4
    with every eigenvalue at least 1e-3, and their vectors c."""
    paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]], dtype=complex)]
    found = []
    while len(found) < count:
        c = rng.uniform(-1.0, 1.0, size=3)
        m = (np.eye(4) + sum(ci * np.kron(p, p)
                             for ci, p in zip(c, paulis))) / 4
        if np.linalg.eigvalsh(m).min() >= 1e-3:
            found.append((DensityMatrix(SubsystemLayout((2, 2)), m), c))
    return found


def test_bell_diagonal_states_match_the_closed_form():
    # Luo, "Quantum discord for two-qubit systems", PRA 77, 042303 (2008):
    # with c = max |c_i|, the classical correlation is
    # J = [(1 - c) log2(1 - c) + (1 + c) log2(1 + c)] / 2, and the
    # marginals are maximally mixed, so I = 2 - H(eigenvalues).  The
    # budget is the benchmark's report budget.
    cfg = OptimizerConfig(seed=0, restarts=3, max_evals=300)
    for rho, c in _bell_diagonal_states(40, np.random.default_rng(4242)):
        lam = np.linalg.eigvalsh(rho.matrix)
        i = 2.0 + float(np.sum(lam * np.log2(lam)))
        c_max = np.abs(c).max()
        j = ((1 - c_max) * np.log2(1 - c_max)
             + (1 + c_max) * np.log2(1 + c_max)) / 2
        rep = correlation_report(rho, cfg)
        assert rep.I == pytest.approx(i, rel=0, abs=1e-9), c
        assert rep.I_cq_lower == pytest.approx(j, rel=0, abs=1e-9), c
        assert rep.I_cc_lower == pytest.approx(j, rel=0, abs=1e-9), c
        assert rep.discord_upper == pytest.approx(i - j, rel=0, abs=1e-9), c


def _rank_two_purifications(d_a, count, rng):
    """Rank-2 states on (d_a, 2), each with its purification as a
    (d_a, 2, 2) array psi[a, b, e]: rho_AB = Tr_E |psi><psi|."""
    found = []
    for _ in range(count):
        z = rng.normal(size=(2 * d_a, 2)) + 1j * rng.normal(size=(2 * d_a, 2))
        vecs = np.linalg.qr(z)[0]
        w = rng.uniform(0.1, 0.9)
        psi = (vecs * np.sqrt([w, 1.0 - w])).reshape(d_a, 2, 2)
        rho = np.einsum("abe,cde->abcd", psi, psi.conj()).reshape(
            2 * d_a, 2 * d_a)
        found.append((DensityMatrix(SubsystemLayout((d_a, 2)), rho), psi))
    return found


def _koashi_winter_icq(psi):
    """Exact I_CQ measured on A of Tr_E |psi><psi|, for a qubit B and a
    qubit purifying party E.

    Koashi and Winter, "Monogamy of quantum entanglement and other
    correlations", PRA 69, 022309 (2004): I_CQ = S(B) - E_F(rho_BE).
    rho_BE is two qubits, so Wootters' concurrence (PRL 80, 2245, 1998)
    gives its entanglement of formation.
    """
    rho_be = np.einsum("abe,acf->becf", psi, psi.conj()).reshape(4, 4)
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    prod_evals = np.linalg.eigvals(rho_be @ yy @ rho_be.conj() @ yy).real
    lam = np.sort(np.sqrt(np.clip(prod_evals, 0.0, None)))[::-1]
    c = max(0.0, lam[0] - lam[1:].sum())
    x = (1 + np.sqrt(1 - c * c)) / 2
    rho_b = np.einsum("abe,ace->bc", psi, psi.conj())
    return oracle_entropy_bits(rho_b) - oracle_entropy_bits(np.diag([x, 1 - x]))


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("budget", ["report", "cli_default"])
@pytest.mark.parametrize("d_a", [2, 3])
def test_rank_two_states_match_koashi_winter(d_a, budget, side):
    # At 3x2 the report budget can fall short of the exact value, since the
    # general POVM phase only scores its seeds there; only the bound is
    # checked at that budget.
    cfg = (OptimizerConfig(seed=0, restarts=3, max_evals=300)
           if budget == "report" else OptimizerConfig(seed=0))
    exact_expected = (d_a, budget) != (3, "report")
    for rho, psi in _rank_two_purifications(d_a, 6,
                                            np.random.default_rng(6100 + d_a)):
        exact = _koashi_winter_icq(psi)
        if side == 0:
            found = correlation_report(rho, cfg).I_cq_lower
        else:
            found = optimize_icq(permute_subsystems(rho, (1, 0)), cfg,
                                 side=1).value
        assert found <= exact + 1e-7
        if exact_expected:
            assert found == pytest.approx(exact, rel=0, abs=1e-7)


class TestGeneralGain:
    def test_report_records_the_general_gain(self, rng):
        rho = random_density((3, 3), 9, rng)
        cfg = OptimizerConfig(seed=1, restarts=2, max_evals=100)
        rep = correlation_report(rho, cfg)
        meta = rep.optimizer_meta
        icq = optimize_icq(rho, cfg)
        assert meta["icq_general_gain"] == (icq.general.value
                                            - icq.projective.value)
        icc = optimize_icc(rho, cfg, icq=icq)
        assert meta["icc_general_gain"] == (icc.general.value
                                            - icc.projective.value)
        assert meta["icq"]["winner"] == icq.result.winner
        assert meta["icc"]["winner"] == icc.result.winner
        # The general search starts from the projective optimum's embedding.
        assert meta["icq_general_gain"] >= -1e-12
        assert meta["icc_general_gain"] >= -1e-12

    def test_no_gain_under_projective_only(self, rng):
        rho = random_density((2, 2), 4, rng)
        cfg = OptimizerConfig(seed=0, restarts=2, max_evals=50,
                              projective_only=True)
        meta = correlation_report(rho, cfg).optimizer_meta
        assert meta["icq_general_gain"] is None
        assert meta["icc_general_gain"] is None
        assert meta["icq"]["winner"].startswith(("seed ", "restart "))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_too_few_outcomes_raise_before_any_search(dims, monkeypatch):
    import qcorr.correlations as corr_mod

    rho = random_density(dims, 2, np.random.default_rng(4))
    searches = []
    real_maximize = corr_mod.maximize

    def counted(*args, **kwargs):
        searches.append(args[1])
        return real_maximize(*args, **kwargs)

    monkeypatch.setattr(corr_mod, "maximize", counted)
    few = OptimizerConfig(seed=0, restarts=2, max_evals=20,
                          outcome_count=min(dims) if dims[0] != dims[1] else 1)
    with pytest.raises(ConfigRangeError, match="outcome count"):
        correlation_report(rho, few)
    # optimize_icq measures party A only, so it raises only when the
    # count is below A's dimension.
    if few.outcome_count < dims[0]:
        with pytest.raises(ConfigRangeError):
            optimize_icq(rho, few)
    assert searches == []
    icq = optimize_icq(rho, dataclasses.replace(few, projective_only=True))
    searches.clear()
    with pytest.raises(ConfigRangeError):
        optimize_icc(rho, few, icq=icq)
    assert searches == []
    # Without a general phase the option is never used.
    report = correlation_report(
        rho, dataclasses.replace(few, projective_only=True))
    assert report.optimizer_meta["icq_general_gain"] is None


class TestSteadyCost:
    """Each measurement search makes a fixed number of objective calls, all
    after the first of one size, so a report costs the same on every state
    of a given size."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_search_calls_do_not_depend_on_the_state(self, monkeypatch,
                                                     dims):
        import qcorr.correlations as corr_mod

        real = corr_mod.maximize
        searches = []

        def recording(objective, *args, **kwargs):
            sizes = []

            def counted(*ws):
                sizes.append(len(ws[0]))
                return objective(*ws)
            res = real(counted, *args, **kwargs)
            searches.append((sizes, res))
            return res

        monkeypatch.setattr(corr_mod, "maximize", recording)
        rng = np.random.default_rng(9100 + 10 * dims[0] + dims[1])
        states = [random_cc(*dims, rng), random_cq(*dims, rng),
                  random_pure_entangled(*dims, rng), product_state(*dims, rng),
                  random_density(dims, dims[0] * dims[1], rng)]
        shapes = []
        for rho in states:
            searches.clear()
            correlation_report(rho, SMALL)
            # Projective I_CQ, general I_CQ, projective I_CC, general I_CC.
            assert len(searches) == 4
            shapes.append([sizes[1:] for sizes, _ in searches])
            for (sizes, res), param_dim in zip(
                    searches, [2 * dims[0] ** 2, 2 * dims[0] ** 3,
                               2 * (dims[0] ** 2 + dims[1] ** 2),
                               2 * (dims[0] ** 3 + dims[1] ** 3)]):
                assert res.n_evals == sum(sizes)
                if res.restart_evals:
                    assert len(sizes) == min(2 * param_dim, SMALL.max_evals)
                    assert set(sizes[1:]) == {SMALL.restarts}
                else:
                    # Seeds only: the general phase's seeds fill its slots.
                    assert sizes == [sizes[0]]
        assert all(s == shapes[0] for s in shapes)

    def test_general_phase_scores_its_seeds_without_ascending(self, rng):
        rho = random_density((2, 2), 4, rng)
        icq = optimize_icq(rho, SMALL)
        # Three seed bases and the projective optimum fill the 3 slots.
        assert icq.general.restart_evals == ()
        assert len(icq.general.restart_values) == 4
        assert icq.general.value == pytest.approx(icq.projective.value,
                                                  abs=1e-12)
        more = dataclasses.replace(SMALL, restarts=6)
        icq = optimize_icq(rho, more)
        assert len(icq.general.restart_values) == 4 + len(
            icq.general.restart_evals)
        assert len(icq.general.restart_evals) >= 2


# Report invariants on random inputs at every supported local dimension
# and rank, at a budget too small to matter: exactness comes from the seed
# points, the chain from the report's construction.  At d = 4 the general
# family has 128 parameters per side, so the 60-evaluation budget, not
# the parameter count, sets the number of rounds.
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
