import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcorr.channels import (
    ChannelError,
    ChannelParseError,
    KrausChannel,
    Povm,
    apply_channel,
    apply_local,
    choi_matrix,
    compose,
    computational_povm,
    depolarizing_channel,
    identity_channel,
    kraus_from_choi,
    measurement_channel,
    petz_recovery,
    projective_basis_povm,
    tensor_channels,
    unitary_channel,
)
from qcorr.optimize import haar_unitary, random_density
from qcorr.qstate import (
    maximally_mixed,
    partial_trace,
    tensor,
    trace_distance,
)

from conftest import oracle_apply_kraus


class TestPovm:
    def test_computational_povm_sums_to_identity(self):
        povm = computational_povm(3)
        total = sum(povm.elements)
        np.testing.assert_allclose(total, np.eye(3), atol=1e-14)

    def test_projective_basis_povm_from_unitary(self, rng):
        u = haar_unitary(3, rng)
        povm = projective_basis_povm(u)
        for m in povm.elements:
            np.testing.assert_allclose(m @ m, m, atol=1e-12)
        np.testing.assert_allclose(sum(povm.elements), np.eye(3), atol=1e-12)

    def test_povm_rejects_bad_completeness(self):
        with pytest.raises(ChannelError):
            Povm((np.eye(2, dtype=complex), np.eye(2, dtype=complex)))

    def test_povm_rejects_negative_element(self):
        e0 = np.diag([1.5, 0.0]).astype(complex)
        e1 = np.eye(2, dtype=complex) - e0
        with pytest.raises(ChannelError):
            Povm((e0, e1))


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_povm_rejects_non_finite_element(self, bad):
        e0 = np.diag([1.0, 0.0]).astype(complex)
        e0[0, 1] = e0[1, 0] = bad
        with pytest.raises(ChannelError, match="non-finite"):
            Povm((e0, np.eye(2, dtype=complex) - e0))


class TestKrausChannel:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_operator(self, bad):
        k = np.eye(2, dtype=complex)
        k[1, 0] = bad
        with pytest.raises(ChannelError, match="non-finite"):
            KrausChannel((k,), check_tp=False)

    def test_json_round_trip(self, rng):
        ch = KrausChannel((haar_unitary(4, rng),), out_dims=(2, 2))
        back = KrausChannel.from_json_dict(ch.to_json_dict())
        assert back.out_dims == (2, 2)
        np.testing.assert_array_equal(back.kraus[0], ch.kraus[0])

    @pytest.mark.parametrize("change", [
        {"kraus": [[[0.25]] * 4]},
        {"kraus": [[["1", "0"], [0, 0], [0, 0], [1, 0]]]},
        {"kraus": [[1.0, 0.0, 0.0, 1.0]]},
        {"kraus": "identity"},
        {"kraus": [7]},
        {"d_in": "2"},
        {"d_out": 2.5},
        {"out_dims": 2},
        {"out_dims": ["2"]},
    ])
    def test_malformed_record_is_a_parse_error(self, change):
        record = identity_channel(2).to_json_dict()
        record.update(change)
        with pytest.raises(ChannelParseError):
            KrausChannel.from_json_dict(record)

    def test_non_positive_dimensions_are_invariant_errors(self):
        with pytest.raises(ChannelError, match=">= 1"):
            KrausChannel.from_json_dict(
                {"d_in": -1, "d_out": -1, "kraus": [[[1.0, 0.0]]]})

    def test_non_finite_record_is_an_invariant_error(self):
        record = identity_channel(2).to_json_dict()
        record["kraus"][0][0] = [float("inf"), 0.0]
        with pytest.raises(ChannelError, match="non-finite") as exc:
            KrausChannel.from_json_dict(record)
        assert not isinstance(exc.value, ChannelParseError)

    def test_rejects_non_tp(self):
        with pytest.raises(ChannelError):
            KrausChannel((0.5 * np.eye(2, dtype=complex),))

    def test_apply_matches_loop_oracle(self, rng):
        u = haar_unitary(2, rng)
        v = haar_unitary(2, rng)
        ch = KrausChannel((u / np.sqrt(2), v / np.sqrt(2)))
        rho = random_density((2,), 2, rng)
        want = oracle_apply_kraus(ch.kraus, rho.matrix)
        np.testing.assert_allclose(
            apply_channel(ch, rho).matrix, want, atol=1e-13
        )

    def test_unitary_channel_preserves_spectrum(self, rng):
        rho = random_density((3,), 3, rng)
        out = apply_channel(unitary_channel(haar_unitary(3, rng)), rho)
        np.testing.assert_allclose(
            out.eigenvalues(), rho.eigenvalues(), atol=1e-12
        )

    def test_depolarizing_outputs_maximally_mixed(self, rng):
        rho = random_density((3,), 2, rng)
        out = apply_channel(depolarizing_channel(3), rho)
        np.testing.assert_allclose(
            out.matrix, maximally_mixed((3,)).matrix, atol=1e-13
        )

    def test_compose_identity_is_noop(self, rng):
        u = haar_unitary(2, rng)
        ch = compose(identity_channel(2), unitary_channel(u))
        rho = random_density((2,), 2, rng)
        np.testing.assert_allclose(
            apply_channel(ch, rho).matrix,
            apply_channel(unitary_channel(u), rho).matrix,
            atol=1e-13,
        )

    def test_channel_json_roundtrip(self, tmp_path, rng):
        ch = depolarizing_channel(2)
        path = tmp_path / "chan.json"
        ch.save(path)
        back = KrausChannel.load(path)
        assert back.d_in == 2 and back.d_out == 2
        np.testing.assert_allclose(
            choi_matrix(back), choi_matrix(ch), atol=1e-14
        )


class TestMeasurementChannel:
    def test_outputs_diagonal_outcome_register(self, rng):
        povm = projective_basis_povm(haar_unitary(3, rng))
        rho = random_density((3,), 3, rng)
        out = apply_channel(measurement_channel(povm), rho)
        off = out.matrix - np.diag(np.diag(out.matrix))
        assert np.abs(off).max() <= 1e-12

    def test_diagonal_matches_outcome_probabilities(self, rng):
        povm = projective_basis_povm(haar_unitary(2, rng))
        rho = random_density((2,), 2, rng)
        out = apply_channel(measurement_channel(povm), rho)
        probs = [np.trace(m @ rho.matrix).real for m in povm.elements]
        np.testing.assert_allclose(np.diag(out.matrix).real, probs, atol=1e-12)


class TestLocalLifts:
    def test_apply_local_matches_explicit_kron(self, rng):
        u = haar_unitary(2, rng)
        rho = random_density((2, 3), 4, rng)
        got = apply_local(unitary_channel(u), 0, rho)
        big = np.kron(u, np.eye(3))
        np.testing.assert_allclose(
            got.matrix, big @ rho.matrix @ big.conj().T, atol=1e-13
        )

    def test_local_channel_keeps_other_marginal(self, rng):
        ch = depolarizing_channel(2)
        rho = random_density((2, 3), 4, rng)
        out = apply_local(ch, 0, rho)
        np.testing.assert_allclose(
            partial_trace(out, (1,)).matrix,
            partial_trace(rho, (1,)).matrix,
            atol=1e-12,
        )

    def test_tensor_channels_on_product(self, rng):
        ua, ub = haar_unitary(2, rng), haar_unitary(2, rng)
        a = random_density((2,), 2, rng)
        b = random_density((2,), 1, rng)
        ch = tensor_channels(unitary_channel(ua), unitary_channel(ub))
        got = apply_channel(ch, tensor(a, b))
        want = tensor(
            apply_channel(unitary_channel(ua), a),
            apply_channel(unitary_channel(ub), b),
        )
        np.testing.assert_allclose(got.matrix, want.matrix, atol=1e-13)


class TestChoi:
    def test_identity_choi_is_maximally_entangled(self):
        choi = choi_matrix(identity_channel(2))
        want = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                want[i * 2 + i, j * 2 + j] = 1.0
        np.testing.assert_allclose(choi, want, atol=1e-14)

    def test_choi_roundtrip_preserves_action(self, rng):
        ch = depolarizing_channel(2)
        back = kraus_from_choi(choi_matrix(ch), 2, 2)
        rho = random_density((2,), 2, rng)
        np.testing.assert_allclose(
            apply_channel(back, rho).matrix,
            apply_channel(ch, rho).matrix,
            atol=1e-12,
        )


class TestPetzRecovery:
    def test_unitary_channel_recovery_is_inverse(self, rng):
        u = haar_unitary(3, rng)
        ch = unitary_channel(u)
        sigma = random_density((3,), 3, rng)
        rec = petz_recovery(ch, sigma)
        rho = random_density((3,), 3, rng)
        out = apply_channel(rec, apply_channel(ch, rho))
        assert trace_distance(out, rho) <= 1e-12

    def test_recovery_fixes_reference(self, rng):
        u = haar_unitary(2, rng)
        v = haar_unitary(2, rng)
        ch = KrausChannel((u / np.sqrt(2), v / np.sqrt(2)))
        sigma = random_density((2,), 2, rng)
        rec = petz_recovery(ch, sigma)
        out = apply_channel(rec, apply_channel(ch, sigma))
        assert trace_distance(out, sigma) <= 1e-10

    def test_depolarizing_recovery_returns_reference(self, rng):
        sigma = random_density((3,), 3, rng)
        rec = petz_recovery(depolarizing_channel(3), sigma)
        rho = random_density((3,), 2, rng)
        out = apply_channel(rec, apply_channel(depolarizing_channel(3), rho))
        assert trace_distance(out, sigma) <= 1e-10

    def test_rank_deficient_reference_warns(self, rng):
        sigma = random_density((2,), 1, rng)
        with pytest.warns(RuntimeWarning):
            petz_recovery(identity_channel(2), sigma)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_petz_recovery_is_cptp_on_support(seed):
    rng = np.random.default_rng(seed)
    u = haar_unitary(2, rng)
    v = haar_unitary(2, rng)
    ch = KrausChannel((u / np.sqrt(2), v / np.sqrt(2)))
    sigma = random_density((2,), 2, rng)
    rec = petz_recovery(ch, sigma)
    comp = sum(k.conj().T @ k for k in rec.kraus)
    np.testing.assert_allclose(comp, np.eye(2), atol=1e-9)
    choi = choi_matrix(rec)
    assert np.linalg.eigvalsh(choi).min() >= -1e-10
