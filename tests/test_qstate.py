import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcorr.qstate import (
    ClassicalJoint,
    DensityMatrix,
    ProbVector,
    StateError,
    StateParseError,
    bell_phi_plus,
    bits_to_nats,
    fidelity,
    maximally_mixed,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    pure_state,
    relative_entropy,
    shannon_bits,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from qcorr.optimize import random_density

from conftest import (
    oracle_entropy_bits,
    oracle_kron,
    oracle_partial_trace,
    random_density_oracle,
)


class TestValidation:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(StateError):
            DensityMatrix((2,), m)

    def test_rejects_negative(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(StateError):
            DensityMatrix((2,), m)

    def test_rejects_wrong_trace(self):
        m = np.diag([0.6, 0.6]).astype(complex)
        with pytest.raises(StateError):
            DensityMatrix((2,), m)

    def test_rejects_dims_mismatch(self):
        with pytest.raises(StateError):
            DensityMatrix((2, 3), np.eye(4, dtype=complex) / 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(StateError, match="non-finite"):
            DensityMatrix((2,), m)

    def test_rejects_nan_on_the_diagonal(self):
        # NaN passes every comparison-based check; only finiteness stops it.
        with pytest.raises(StateError, match="non-finite"):
            DensityMatrix((2,), np.diag([np.nan, 1.0]).astype(complex))

    def test_matrix_is_immutable(self):
        rho = maximally_mixed((2,))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_prob_vector_rejects_negative(self):
        with pytest.raises(StateError):
            ProbVector(np.array([1.2, -0.2]))

    def test_classical_joint_marginals(self):
        p = ClassicalJoint(np.array([[0.4, 0.1], [0.1, 0.4]]))
        np.testing.assert_allclose(p.marginal(0).p, [0.5, 0.5])
        np.testing.assert_allclose(p.marginal(1).p, [0.5, 0.5])


class TestTensorAndTrace:
    def test_tensor_matches_loop_kron(self, rng):
        a = DensityMatrix((2,), random_density_oracle(2, rng))
        b = DensityMatrix((3,), random_density_oracle(3, rng))
        ab = tensor(a, b)
        assert ab.dims == (2, 3)
        np.testing.assert_allclose(
            ab.matrix, oracle_kron(a.matrix, b.matrix), atol=1e-14
        )

    def test_partial_trace_matches_loop_oracle(self, rng):
        dims = (2, 3, 2)
        rho = DensityMatrix(dims, random_density_oracle(12, rng))
        for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
            got = partial_trace(rho, keep)
            want = oracle_partial_trace(rho.matrix, dims, keep)
            np.testing.assert_allclose(got.matrix, want, atol=1e-12)

    def test_partial_trace_of_product_recovers_factor(self, rng):
        a = DensityMatrix((2,), random_density_oracle(2, rng))
        b = DensityMatrix((3,), random_density_oracle(3, rng))
        ab = tensor(a, b)
        np.testing.assert_allclose(
            partial_trace(ab, (0,)).matrix, a.matrix, atol=1e-12
        )
        np.testing.assert_allclose(
            partial_trace(ab, (1,)).matrix, b.matrix, atol=1e-12
        )

    def test_permute_subsystems_swap(self, rng):
        a = DensityMatrix((2,), random_density_oracle(2, rng))
        b = DensityMatrix((3,), random_density_oracle(3, rng))
        ab = tensor(a, b)
        ba = permute_subsystems(ab, (1, 0))
        assert ba.dims == (3, 2)
        np.testing.assert_allclose(ba.matrix, tensor(b, a).matrix, atol=1e-13)

    def test_partial_trace_unsorted_keep_reorders(self, rng):
        a = DensityMatrix((2,), random_density_oracle(2, rng))
        b = DensityMatrix((3,), random_density_oracle(3, rng))
        c = DensityMatrix((2,), random_density_oracle(2, rng))
        abc = tensor(tensor(a, b), c)
        got = partial_trace(abc, (2, 0))
        np.testing.assert_allclose(got.matrix, tensor(c, a).matrix, atol=1e-12)


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        rho = pure_state(np.array([1.0, 0.0]), (2,))
        assert abs(von_neumann_entropy(rho)) <= 1e-12
        # +0.0, never -0.0, so reports do not print "-0.0"
        assert np.copysign(1.0, von_neumann_entropy(rho)) == 1.0

    def test_maximally_mixed_entropy(self):
        for d in (2, 3, 4):
            rho = maximally_mixed((d,))
            assert von_neumann_entropy(rho) == pytest.approx(np.log2(d), abs=1e-12)

    def test_entropy_matches_spectrum_oracle(self, rng):
        for d in (2, 3, 5):
            rho = DensityMatrix((d,), random_density_oracle(d, rng))
            assert von_neumann_entropy(rho) == pytest.approx(
                oracle_entropy_bits(rho.matrix), abs=1e-10
            )

    def test_bell_state_marginal_entropy_one_bit(self):
        rho = bell_phi_plus()
        s = von_neumann_entropy(partial_trace(rho, (0,)))
        assert s == pytest.approx(1.0, abs=1e-12)

    def test_shannon_bits_uniform(self):
        assert shannon_bits(np.full(4, 0.25)) == pytest.approx(2.0, abs=1e-12)

    def test_bits_to_nats(self):
        assert bits_to_nats(1.0) == pytest.approx(np.log(2.0), abs=1e-15)


class TestDivergences:
    def test_relative_entropy_self_zero(self, rng):
        rho = DensityMatrix((3,), random_density_oracle(3, rng))
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_relative_entropy_support_violation_infinite(self):
        p0 = pure_state(np.array([1.0, 0.0]), (2,))
        p1 = pure_state(np.array([0.0, 1.0]), (2,))
        assert relative_entropy(p0, p1) == np.inf

    def test_relative_entropy_diagonal_matches_kl(self):
        rho = DensityMatrix((2,), np.diag([0.7, 0.3]).astype(complex))
        sig = DensityMatrix((2,), np.diag([0.4, 0.6]).astype(complex))
        want = 0.7 * np.log2(0.7 / 0.4) + 0.3 * np.log2(0.3 / 0.6)
        assert relative_entropy(rho, sig) == pytest.approx(want, abs=1e-12)

    def test_trace_distance_orthogonal_pure(self):
        p0 = pure_state(np.array([1.0, 0.0]), (2,))
        p1 = pure_state(np.array([0.0, 1.0]), (2,))
        assert trace_distance(p0, p1) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_bounds_and_self(self, rng):
        rho = DensityMatrix((3,), random_density_oracle(3, rng))
        sig = DensityMatrix((3,), random_density_oracle(3, rng))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
        f = fidelity(rho, sig)
        assert -1e-12 <= f <= 1.0 + 1e-12

    def test_fidelity_pure_overlap_squared(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        p0 = pure_state(np.array([1.0, 0.0]), (2,))
        pp = pure_state(plus, (2,))
        assert fidelity(p0, pp) == pytest.approx(0.5, abs=1e-12)


class TestPartialTranspose:
    def test_bell_partial_transpose_min_eigenvalue(self):
        pt = partial_transpose(bell_phi_plus(), (1,))
        assert np.linalg.eigvalsh(pt).min() == pytest.approx(-0.5, abs=1e-12)

    def test_product_state_pt_stays_psd(self, rng):
        a = DensityMatrix((2,), random_density_oracle(2, rng))
        b = DensityMatrix((2,), random_density_oracle(2, rng))
        pt = partial_transpose(tensor(a, b), (1,))
        assert np.linalg.eigvalsh(pt).min() >= -1e-12


class TestSerialization:
    def test_state_json_roundtrip(self, tmp_path, rng):
        rho = DensityMatrix((2, 3), random_density_oracle(6, rng))
        path = tmp_path / "state.json"
        rho.save(path)
        back = DensityMatrix.load(path)
        assert back.dims == rho.dims
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)

    def test_state_json_layout(self, tmp_path):
        path = tmp_path / "mm.json"
        maximally_mixed((2,)).save(path)
        data = json.loads(path.read_text())
        assert data["dims"] == [2]
        assert data["matrix"][0] == [0.5, 0.0]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_entropy_invariants_random(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    rho = random_density((d,), d, rng)
    s = von_neumann_entropy(rho)
    assert -1e-10 <= s <= np.log2(d) + 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_relative_entropy_nonnegative_random(seed):
    rng = np.random.default_rng(seed)
    rho = random_density((3,), 3, rng)
    sig = random_density((3,), 2, rng)
    assert relative_entropy(rho, sig) >= -1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_trace_distance_metric_random(seed):
    rng = np.random.default_rng(seed)
    rho = random_density((3,), 3, rng)
    sig = random_density((3,), 2, rng)
    tau = random_density((3,), 3, rng)
    dab = trace_distance(rho, sig)
    assert -1e-12 <= dab <= 1.0 + 1e-12
    assert dab == pytest.approx(trace_distance(sig, rho), abs=1e-12)
    assert dab <= trace_distance(rho, tau) + trace_distance(tau, sig) + 1e-10


class TestJsonParsing:
    ENTRIES = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]

    def test_round_trip(self, rng):
        rho = random_density((2, 3), 4, rng)
        back = DensityMatrix.from_json_dict(
            json.loads(json.dumps(rho.to_json_dict())))
        assert back.dims == (2, 3)
        np.testing.assert_array_equal(back.matrix, rho.matrix)

    @pytest.mark.parametrize("record", [
        {"dims": [2], "matrix": [[0.25]] * 4},
        {"dims": [2], "matrix": [["0.5", "0"]] + ENTRIES[1:]},
        {"dims": [2], "matrix": [0.5, 0.0, 0.0, 0.5]},
        {"dims": [2], "matrix": [[0.5, 0.0, 1.0]] + ENTRIES[1:]},
        {"dims": [2], "matrix": "0.5 0 0 0.5"},
        {"dims": [2], "matrix": 4},
        {"dims": [2], "matrix": [[10 ** 400, 0.0]] + ENTRIES[1:]},
        {"dims": ["2"], "matrix": ENTRIES},
        {"dims": [2.0], "matrix": ENTRIES},
        {"dims": 2, "matrix": ENTRIES},
    ])
    def test_malformed_entries_are_parse_errors(self, record):
        with pytest.raises(StateParseError):
            DensityMatrix.from_json_dict(record)

    def test_non_finite_entries_are_invariant_errors(self):
        record = json.loads(
            '{"dims": [2], "matrix": [[NaN, 0], [0, 0], [0, 0], [0.5, 0]]}')
        with pytest.raises(StateError, match="non-finite") as exc:
            DensityMatrix.from_json_dict(record)
        assert not isinstance(exc.value, StateParseError)

    def test_missing_field_is_a_state_error(self):
        with pytest.raises(StateError):
            DensityMatrix.from_json_dict({"dims": [2]})
