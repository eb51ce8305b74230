import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcorr.classify import (
    TAU_CLASS,
    ClassicalityVerdict,
    Kind,
    _block_residual,
    _commutator_bound,
    _conditional_family,
    _product_residual,
    _rotation_sine,
    classical_basis,
    commute_residual,
    is_cc,
    is_cq,
    joint_diagonalize,
    ppt_label,
    side_verdicts,
)
from qcorr.channels import apply_local, unitary_channel
from qcorr.corpus import (
    classically_correlated_bit,
    make_corpus,
    random_cc,
    random_cq,
    random_pure_entangled,
    separable_non_cq,
    werner_qubit,
)
from qcorr.optimize import haar_unitary, random_density
from qcorr.qstate import (
    DensityMatrix,
    StateError,
    bell_phi_plus,
    maximally_mixed,
    pure_state,
)

from conftest import (
    oracle_block_residual,
    oracle_conditional_family,
    oracle_joint_diagonalize,
)


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


class TestCommuteResidual:
    def test_commuting_family_zero(self, rng):
        u = haar_unitary(3, rng)
        fam = [u @ np.diag(rng.normal(size=3)) @ u.conj().T for _ in range(4)]
        assert commute_residual(fam) <= 1e-12

    def test_pauli_x_z_residual(self):
        # ||[X, Z]||_F = ||2iXZ||_F = 2 sqrt(2)
        assert commute_residual([PAULI_X, PAULI_Z]) == pytest.approx(
            2.0 * np.sqrt(2.0), abs=1e-12
        )


MALFORMED_FAMILIES = {
    "empty": [],
    "empty_stack": np.zeros((0, 2, 2)),
    "non_square": [np.zeros((2, 3))],
    "vector": [np.zeros(2)],
    "unequal": [np.eye(2), np.eye(3)],
    "unequal_after_first": [np.eye(2), np.eye(2), np.zeros((2, 3))],
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FAMILIES))
@pytest.mark.parametrize("fn", [commute_residual, joint_diagonalize])
def test_malformed_family_raises_state_error(fn, name):
    with pytest.raises(StateError):
        fn(MALFORMED_FAMILIES[name])


def _corpus_states(d_a, d_b, rng):
    """One state of every corpus class at the given dims."""
    return {
        "cc": random_cc(d_a, d_b, rng),
        "cq": random_cq(d_a, d_b, rng),
        "sep": separable_non_cq(d_a, d_b, rng),
        "ent": random_pure_entangled(d_a, d_b, rng),
        "full": random_density((d_a, d_b), d_a * d_b, rng),
        "mixed": maximally_mixed((d_a, d_b)),
    }


CORPUS_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]


def _count_eigh(monkeypatch) -> list:
    """Patch `np.linalg.eigh` to log each call; the log, one entry a call."""
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(1)
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


def _count_joint_diagonalize(monkeypatch) -> list:
    """Patch the classifier's `joint_diagonalize` to log each call."""
    import qcorr.classify as classify_mod

    calls = []
    real = classify_mod.joint_diagonalize

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(classify_mod, "joint_diagonalize", counting)
    return calls


class TestStackedMatchesLoopOracles:
    """The stacked family, residual and Jacobi sweeps against member-by-
    member loops, bit for bit."""

    @pytest.mark.parametrize("dims", CORPUS_DIMS)
    def test_corpus_families(self, dims):
        rng = np.random.default_rng(7000 + 10 * dims[0] + dims[1])
        for label, rho in _corpus_states(*dims, rng).items():
            for side in (0, 1):
                fam, d_cond = _conditional_family(rho, side)
                expected = oracle_conditional_family(rho.matrix, dims, side)
                assert d_cond == dims[side]
                assert np.array_equal(fam, np.array(expected)), (label, side)
                basis = joint_diagonalize(fam)
                assert np.array_equal(basis, oracle_joint_diagonalize(expected)), \
                    (label, side)
                assert _block_residual(rho, basis, side) == \
                    oracle_block_residual(rho.matrix, dims, basis, side)

    @pytest.mark.parametrize("dims", CORPUS_DIMS)
    def test_stacked_input_is_never_written(self, dims):
        # The sweeps rotate their own copy of the family: a stacked input
        # keeps every bit, and gives the basis its members give.
        rng = np.random.default_rng(7700 + 10 * dims[0] + dims[1])
        for label, rho in _corpus_states(*dims, rng).items():
            for side in (0, 1):
                fam, _ = _conditional_family(rho, side)
                kept = fam.copy()
                basis = joint_diagonalize(fam)
                assert fam.tobytes() == kept.tobytes(), (label, side)
                assert np.array_equal(basis, joint_diagonalize(list(kept))), \
                    (label, side)
                commute_residual(fam)
                assert fam.tobytes() == kept.tobytes(), (label, side)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_unitary_hermitian_parts(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(5):
            u = haar_unitary(d, rng)
            uh = u.conj().T
            fam = [(u + uh) / 2, (u - uh) / 2j]
            assert np.array_equal(joint_diagonalize(fam),
                                  oracle_joint_diagonalize(fam))

    def test_drifting_family_stops_on_stall(self, monkeypatch):
        rho = random_pure_entangled(3, 3, np.random.default_rng(7))
        fam, _ = _conditional_family(rho, 1)
        # No common eigenbasis: without the stall rule a 101st sweep still
        # rotates, so the sweeps run out at the 100-sweep cap.
        drifted = oracle_joint_diagonalize(fam, stop_on_stall=False)
        assert not np.array_equal(drifted, oracle_joint_diagonalize(
            fam, max_sweeps=101, stop_on_stall=False))
        calls = _count_eigh(monkeypatch)
        basis = joint_diagonalize(fam)
        monkeypatch.undo()
        # One eigh per pair and sweep, three pairs at d = 3.
        assert 3 < len(calls) <= 3 * 20
        assert np.array_equal(basis, oracle_joint_diagonalize(fam))
        assert not np.array_equal(basis, drifted)
        # The sweep cap still applies, and stops the sweeps elsewhere.
        capped = joint_diagonalize(fam, max_sweeps=2)
        assert not np.array_equal(capped, basis)
        assert np.array_equal(capped, oracle_joint_diagonalize(fam, max_sweeps=2))

    @pytest.mark.parametrize("dims", CORPUS_DIMS)
    def test_classical_families_ignore_the_stall_rule(self, dims):
        # A commuting family meets the rotation tolerance before its
        # off-diagonal mass stalls, so the stall rule leaves its basis as is.
        rng = np.random.default_rng(7100 + 10 * dims[0] + dims[1])
        for _ in range(4):
            for label in ("cc", "cq"):
                rho = (random_cc if label == "cc" else random_cq)(*dims, rng)
                for side in (0, 1) if label == "cc" else (0,):
                    fam, _ = _conditional_family(rho, side)
                    basis = joint_diagonalize(fam)
                    assert _block_residual(rho, basis, side) <= TAU_CLASS
                    assert np.array_equal(basis, oracle_joint_diagonalize(
                        fam, stop_on_stall=False)), (label, side)


class TestRotationSine:
    """The Jacobi sine on Python floats against numpy's float64 scalar
    expression, bit for bit, signs of zero parts included."""

    EDGES = (0.0, -0.0, 0.3, -0.7, 1e-300, -1e-300)

    @staticmethod
    def _bits(s) -> tuple:
        s = complex(s)
        return (np.float64(s.real).tobytes(), np.float64(s.imag).tobytes())

    def _check(self, y, z, den):
        want = (np.float64(y) - 1j * np.float64(z)) / np.float64(den)
        got = _rotation_sine(y, z, 1.0 / den)
        assert self._bits(got) == self._bits(want), (y, z, den, got, want)
        assert abs(got) == abs(want)

    def test_zero_and_tiny_parts(self):
        for y in self.EDGES:
            for z in self.EDGES:
                if not (y or z):
                    continue
                for den in (0.5, 1.0, 3.7):
                    self._check(y, z, den)

    def test_random_draws(self, rng):
        for y, z, den in zip(rng.normal(size=2000), rng.normal(size=2000),
                             rng.uniform(0.1, 4.0, size=2000)):
            self._check(float(y), float(z), float(den))


class TestJointDiagonalize:
    def test_diagonalizes_commuting_family(self, rng):
        u = haar_unitary(4, rng)
        fam = [u @ np.diag(rng.normal(size=4)) @ u.conj().T for _ in range(3)]
        basis = joint_diagonalize(fam)
        np.testing.assert_allclose(
            basis.conj().T @ basis, np.eye(4), atol=1e-12
        )
        for op in fam:
            rot = basis.conj().T @ op @ basis
            off = rot - np.diag(np.diag(rot))
            assert np.abs(off).max() <= 1e-10

    @pytest.mark.parametrize("fam", [
        [np.eye(3)],
        [np.eye(2), 2.5 * np.eye(2)],
        [np.diag([1.0, 1.0, 2.0])],
        [np.diag([1.0, 1.0, 2.0]), np.diag([3.0, 3.0, 0.0])],
        [np.diag([1.0, 1.0, 2.0, 2.0]), np.eye(4)],
    ], ids=["identity_3", "identities_2", "tied_3", "tied_pair_3", "tied_4"])
    def test_degenerate_family_stops_after_one_sweep(self, fam, monkeypatch):
        calls = _count_eigh(monkeypatch)
        d = fam[0].shape[0]
        assert np.array_equal(joint_diagonalize(fam), np.eye(d))
        # Pairs tied across the family skip the 3x3 eigh; the rest take
        # one each in the single sweep.
        assert len(calls) <= d * (d - 1) // 2

    def test_single_hermitian_operator(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = a + a.conj().T
        basis = joint_diagonalize([h])
        rot = basis.conj().T @ h @ basis
        off = rot - np.diag(np.diag(rot))
        assert np.abs(off).max() <= 1e-10


class TestVerdicts:
    def test_cc_state_detected(self, rng):
        for d in (2, 3):
            v = is_cc(random_cc(d, d, rng))
            assert v.kind is Kind.CC
            assert v.residual <= 1e-8

    def test_cq_state_detected(self, rng):
        for d in (2, 3):
            v = is_cq(random_cq(d, d, rng))
            assert v.kind is Kind.CQ

    def test_qc_orientation(self, rng):
        from qcorr.qstate import permute_subsystems

        rho = permute_subsystems(random_cq(2, 2, rng), (1, 0))
        v = is_cc(rho)
        assert v.kind is Kind.QC

    def test_separable_non_classical_rejected(self, rng):
        v = is_cc(separable_non_cq(2, 2, rng))
        assert v.kind is Kind.NEITHER
        assert v.residual > 1e-8

    def test_bell_state_rejected(self):
        assert is_cc(bell_phi_plus()).kind is Kind.NEITHER

    def test_maximally_mixed_is_cc(self):
        assert is_cc(maximally_mixed((2, 2))).kind is Kind.CC

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
    def test_maximally_mixed_keeps_computational_bases(self, dims):
        v = is_cc(maximally_mixed(dims))
        assert v.kind is Kind.CC
        assert v.residual == 0.0
        assert np.array_equal(v.basis_A, np.eye(dims[0]))
        assert np.array_equal(v.basis_B, np.eye(dims[1]))

    def test_classical_bit_pair_is_cc(self):
        v = is_cc(classically_correlated_bit())
        assert v.kind is Kind.CC
        assert v.residual <= 1e-12

    def test_verdict_survives_local_rotation(self, rng):
        from qcorr.channels import apply_local, unitary_channel

        rho = random_cc(2, 2, rng)
        rot = apply_local(unitary_channel(haar_unitary(2, rng)), 0, rho)
        rot = apply_local(unitary_channel(haar_unitary(2, rng)), 1, rot)
        assert is_cc(rot).kind is Kind.CC

    def test_classical_basis_diagonalizes_cc_state(self, rng):
        rho = random_cc(3, 3, rng)
        ba = classical_basis(rho, 0)
        bb = classical_basis(rho, 1)
        rot = np.kron(ba, bb)
        m = rot.conj().T @ rho.matrix @ rot
        off = m - np.diag(np.diag(m))
        assert np.abs(off).max() <= 1e-10


def separate_cc_verdict(rho, tol):
    """`is_cc` as two bases and three residuals computed on their own, and
    for NEITHER the smaller of the two sides' commutator residuals."""
    basis_a, basis_b = classical_basis(rho, 0), classical_basis(rho, 1)
    res_a = _block_residual(rho, basis_a, 0)
    res_b = _block_residual(rho, basis_b, 1)
    if res_a <= tol and res_b <= tol:
        residual = _product_residual(rho, basis_a, basis_b)
        if residual <= tol:
            return ClassicalityVerdict(Kind.CC, basis_a, basis_b, residual)
    if res_a <= tol:
        return ClassicalityVerdict(Kind.CQ, basis_a, None, res_a)
    if res_b <= tol:
        return ClassicalityVerdict(Kind.QC, None, basis_b, res_b)
    return ClassicalityVerdict(Kind.NEITHER, None, None, min(
        commute_residual(_conditional_family(rho, s)[0]) for s in (0, 1)))


def max_entangled(d_a, d_b):
    """sum_i |ii> / sqrt(min(d_a, d_b)); the Bell state at 2x2."""
    r = min(d_a, d_b)
    psi = np.zeros(d_a * d_b, dtype=complex)
    psi[[i * d_b + i for i in range(r)]] = 1 / np.sqrt(r)
    return pure_state(psi, (d_a, d_b))


def _verdict_json(cc, cq, qc):
    return json.dumps({"verdict": cc.to_dict(), "cq_verdict": cq.to_dict(),
                       "qc_verdict": qc.to_dict()}, sort_keys=True, indent=2)


class TestSideVerdicts:
    """All three verdicts from one basis per side, byte for byte those of
    the separate calls."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("tol", [TAU_CLASS, 1e-2])
    def test_matches_separate_calls(self, dims, tol):
        rng = np.random.default_rng(8000 + 10 * dims[0] + dims[1])
        states = _corpus_states(*dims, rng)
        del states["full"]
        states["max_entangled"] = max_entangled(*dims)
        kinds = set()
        for label, rho in states.items():
            got = side_verdicts(rho, tol)
            want = (separate_cc_verdict(rho, tol), is_cq(rho, tol=tol, side=0),
                    is_cq(rho, tol=tol, side=1))
            assert _verdict_json(*got) == _verdict_json(*want), label
            assert is_cc(rho, tol=tol).to_dict() == want[0].to_dict(), label
            kinds.add(got[0].kind)
        assert {Kind.CC, Kind.NEITHER} <= kinds

    def test_bell_state(self):
        rho = bell_phi_plus()
        assert _verdict_json(*side_verdicts(rho, TAU_CLASS)) == _verdict_json(
            separate_cc_verdict(rho, TAU_CLASS), is_cq(rho, side=0),
            is_cq(rho, side=1))

    def test_one_basis_per_side(self, rng, monkeypatch):
        calls = _count_joint_diagonalize(monkeypatch)
        cc, cq, qc = side_verdicts(random_cq(3, 3, rng), TAU_CLASS)
        # Side 0 takes the sweeps; side 1 takes the commutator exit.
        assert len(calls) == 1
        assert (cc.kind, cq.kind, qc.kind) == (Kind.CQ, Kind.CQ, Kind.NEITHER)

    def test_rejects_non_bipartite(self):
        with pytest.raises(StateError):
            side_verdicts(maximally_mixed((2,)), TAU_CLASS)

    def test_public_with_the_default_tolerance(self, rng):
        import qcorr

        assert qcorr.side_verdicts is side_verdicts
        rho = random_cq(2, 3, rng)
        assert (_verdict_json(*side_verdicts(rho))
                == _verdict_json(*side_verdicts(rho, TAU_CLASS)))


def _perturbed(rho, eps, rng):
    """rho + eps * H with H = sigma - rho for a random full-rank sigma."""
    sigma = random_density(rho.dims, rho.dim, rng)
    return DensityMatrix(rho.layout,
                         rho.matrix + eps * (sigma.matrix - rho.matrix))


class TestCommutatorExit:
    """The commutator exit leaves every verdict, and every classical basis
    and residual, as the sweeps alone give them."""

    @pytest.mark.parametrize("dims", CORPUS_DIMS)
    @pytest.mark.parametrize("tol", [TAU_CLASS, 1e-2])
    def test_verdicts_match_the_sweeps(self, dims, tol):
        rng = np.random.default_rng(9000 + 10 * dims[0] + dims[1])
        kinds = set()
        for _ in range(3):
            for label, rho in _corpus_states(*dims, rng).items():
                for side in (0, 1):
                    basis = classical_basis(rho, side)
                    residual = _block_residual(rho, basis, side)
                    got = is_cq(rho, tol=tol, side=side)
                    kinds.add(got.kind)
                    if residual > tol:
                        assert got.kind is Kind.NEITHER, (label, side)
                        continue
                    assert got.kind is (Kind.CQ, Kind.QC)[side], (label, side)
                    assert np.array_equal((got.basis_A, got.basis_B)[side],
                                          basis), (label, side)
                    assert got.residual == residual, (label, side)
        assert {Kind.CQ, Kind.QC, Kind.NEITHER} <= kinds

    @pytest.mark.parametrize("dims", CORPUS_DIMS)
    @pytest.mark.parametrize("tol", [TAU_CLASS, 1e-2])
    def test_near_the_boundary(self, dims, tol):
        # eps spans tol/10 to 10 tol, so the sweeps call some perturbed
        # sides classical and some not.
        rng = np.random.default_rng(9100 + 10 * dims[0] + dims[1])
        classical = set()
        for eps in tol * np.logspace(-1, 1, 9):
            for make in (random_cc, random_cq):
                rho = _perturbed(make(*dims, rng), eps, rng)
                for side in (0, 1):
                    fam, d = _conditional_family(rho, side)
                    residual = _block_residual(rho, classical_basis(rho, side),
                                               side)
                    classical.add(residual <= tol)
                    verdict = is_cq(rho, tol=tol, side=side)
                    if residual <= tol:
                        assert commute_residual(fam) <= \
                            _commutator_bound(tol, d)
                        assert verdict.kind is not Kind.NEITHER
                    else:
                        assert verdict.kind is Kind.NEITHER
        assert classical == {True, False}

    @pytest.mark.parametrize("tol", [TAU_CLASS, 1e-2])
    def test_classical_side_with_commutator_above_tol(self, tol):
        # (|0+> <0+| + |1-> <1-|) / 2 with a coherence c between the two
        # terms: side 0 has block residual c / 2 and commutator residual
        # sqrt(2) c, so theta must sit above tol for the sweeps' CQ to stand.
        c = 1.9 * tol
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        a, b = np.kron([1.0, 0.0], plus), np.kron([0.0, 1.0], minus)
        rho = DensityMatrix((2, 2), (np.outer(a, a) + np.outer(b, b)) / 2
                            + c * (np.outer(a, b) + np.outer(b, a)))
        fam, d = _conditional_family(rho, 0)
        assert 2 * tol < commute_residual(fam) <= _commutator_bound(tol, d)
        v = is_cq(rho, tol=tol, side=0)
        assert v.kind is Kind.CQ
        assert v.residual == pytest.approx(c / 2, rel=1e-9)

    @pytest.mark.parametrize("dims", CORPUS_DIMS)
    def test_no_sweeps_on_non_classical_corpus_states(self, dims, monkeypatch):
        corpus = [s for s in make_corpus(4, 9200, *dims)
                  if s.label in ("sep", "ent")]
        calls = _count_joint_diagonalize(monkeypatch)
        for state in corpus:
            cc, cq, qc = side_verdicts(state.rho, TAU_CLASS)
            assert (cc.kind, cq.kind, qc.kind) == (Kind.NEITHER,) * 3
        assert calls == []

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_neither_residual_is_basis_free(self, dims):
        rng = np.random.default_rng(9300 + 10 * dims[0] + dims[1])
        for label, rho in _corpus_states(*dims, rng).items():
            if label in ("cc", "mixed"):
                continue
            for side in (0, 1):
                before = is_cq(rho, side=side)
                if before.kind is not Kind.NEITHER:
                    continue
                u = unitary_channel(haar_unitary(dims[side], rng))
                after = is_cq(apply_local(u, side, rho), side=side)
                assert after.kind is Kind.NEITHER
                assert abs(after.residual - before.residual) <= 1e-12, \
                    (label, side)


class TestPptLabel:
    def test_bell_is_npt(self):
        assert ppt_label(bell_phi_plus()) == "npt"

    def test_separable_is_ppt(self, rng):
        assert ppt_label(separable_non_cq(2, 2, rng)) == "ppt"

    def test_werner_high_visibility_npt(self):
        assert ppt_label(werner_qubit(0.95)) == "npt"
        assert ppt_label(werner_qubit(0.2)) == "ppt"

    def test_pure_entangled_is_npt(self, rng):
        assert ppt_label(random_pure_entangled(2, 2, rng)) == "npt"


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from([2, 3]))
def test_random_cc_always_detected(seed, d):
    rng = np.random.default_rng(seed)
    v = is_cc(random_cc(d, d, rng))
    assert v.kind is Kind.CC


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from([2, 3]))
def test_random_cq_never_misses(seed, d):
    rng = np.random.default_rng(seed)
    v = is_cq(random_cq(d, d, rng))
    assert v.kind is Kind.CQ
    assert v.residual <= 1e-8
