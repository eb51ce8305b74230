"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS line on
success (pytest -v adds its own PASSED/FAILED verdict per criterion).
Budgets are sized so the whole module stays within desk-scale runtimes.
"""

import sys

import numpy as np
import pytest

from qcorr.broadcast import (
    broadcast_search,
    cloning_candidate,
    theorem2_check,
    two_copy_candidate,
)
from qcorr.channels import (
    apply_channel,
    apply_local,
    choi_matrix,
    depolarizing_channel,
    isometry_channel,
    petz_recovery,
    tensor_channels,
    unitary_channel,
    KrausChannel,
    identity_channel,
)
from qcorr.classify import Kind, is_cc
from qcorr.cli import main
from qcorr.corpus import (
    classically_correlated_bit,
    ghz,
    make_corpus,
    random_cc,
    separable_non_cq,
)
from qcorr.correlations import (
    Ensemble,
    correlation_report,
    holevo_chi,
    multipartite_mutual_information,
    mutual_information,
    optimize_icc,
    optimize_icq,
)
from qcorr.optimize import OptimizerConfig, haar_unitary, random_density
from qcorr.qstate import (
    DensityMatrix,
    ProbVector,
    SubsystemLayout,
    bell_phi_plus,
    partial_trace,
    tensor,
    trace_distance,
)

from conftest import lift_local


def _report(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def _cq_from_ensemble(d_a, d_b, rng, commuting=False):
    """Random CQ state together with its embedded ensemble."""
    p = rng.dirichlet(np.ones(d_a))
    u = haar_unitary(d_a, rng)
    if commuting:
        basis = haar_unitary(d_b, rng)
        conds = [
            DensityMatrix(SubsystemLayout((d_b,)),
                          (basis * rng.dirichlet(np.ones(d_b))) @ basis.conj().T)
            for _ in range(d_a)
        ]
    else:
        conds = [random_density((d_b,), d_b, rng) for _ in range(d_a)]
    m = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for i in range(d_a):
        proj = np.outer(u[:, i], u[:, i].conj())
        m += p[i] * np.kron(proj, conds[i].matrix)
    rho = DensityMatrix(SubsystemLayout((d_a, d_b)), m)
    return rho, Ensemble(ProbVector(p), tuple(conds))


def test_criterion_1_exact_values():
    assert mutual_information(bell_phi_plus()) == pytest.approx(2.0, abs=1e-9)
    assert mutual_information(classically_correlated_bit()) == pytest.approx(
        1.0, abs=1e-9
    )
    assert multipartite_mutual_information(ghz(3)) == pytest.approx(
        3.0, abs=1e-9
    )
    _report("CRITERION 1 (exact mutual-information values): PASS")


def test_criterion_2_measured_info_exact_on_cq():
    rng = np.random.default_rng(1001)
    cfg = OptimizerConfig(seed=0, restarts=2, max_evals=150)
    for k in range(50):
        d_a, d_b = (2, 2) if k % 2 == 0 else (3, 3)
        rho, ens = _cq_from_ensemble(d_a, d_b, rng)
        i = mutual_information(rho)
        chi = holevo_chi(ens)
        assert abs(i - chi) <= 1e-9, f"CQ state {k}: |I - chi| = {abs(i - chi)}"
        opt = optimize_icq(rho, cfg)
        assert abs(opt.value - i) <= 1e-9, (
            f"CQ state {k}: measured bound off by {abs(opt.value - i)}"
        )
    for k in range(10):
        d = 2 if k % 2 == 0 else 3
        rho, _ = _cq_from_ensemble(d, d, rng, commuting=True)
        i = mutual_information(rho)
        opt = optimize_icc(rho, cfg)
        assert abs(opt.value - i) <= 1e-6, (
            f"commuting CQ state {k}: two-sided bound off by {abs(opt.value - i)}"
        )
    _report("CRITERION 2 (measured information exact on CQ states): PASS")


def test_criterion_3_corpus_quantumness_gap():
    cfg = OptimizerConfig(seed=0, restarts=3, max_evals=300)
    corpus = make_corpus(n_per_class=10)
    assert len(corpus) == 40
    expected_kind = {
        "cc": {Kind.CC},
        "cq": {Kind.CQ},
        "sep": {Kind.NEITHER},
        "ent": {Kind.NEITHER},
    }
    for entry in corpus:
        verdict = is_cc(entry.rho)
        assert verdict.kind in expected_kind[entry.label], (
            f"{entry.state_id}: classifier says {verdict.kind}, "
            f"label is {entry.label}"
        )
        i = mutual_information(entry.rho)
        gap = i - optimize_icc(entry.rho, cfg).value
        if entry.label == "cc":
            assert gap <= 1e-6, f"{entry.state_id}: gap {gap} on a CC state"
        purity = float(np.trace(entry.rho.matrix @ entry.rho.matrix).real)
        if entry.label == "ent" and purity > 1.0 - 1e-9:
            # pure entangled: measured correlations cannot exceed min(S_A, S_B),
            # so the gap is at least S(A) > 0
            s_a = mutual_information(entry.rho) / 2.0
            assert gap >= 1e-3, f"{entry.state_id}: gap {gap} below floor"
            assert gap >= s_a - 1e-6
    _report("CRITERION 3 (labeled corpus: gaps and verdicts): PASS")


def test_criterion_4_recovery_suite():
    rng = np.random.default_rng(2002)
    # 50 pairs of (state, information-preserving local channel)
    for k in range(50):
        rho = random_density((2, 2), int(rng.integers(1, 5)), rng)
        if k % 2 == 0:
            ch = unitary_channel(haar_unitary(2, rng))
        else:
            ch = isometry_channel(haar_unitary(4, rng)[:, :2])
        rho_a = partial_trace(rho, (0,))
        rec = petz_recovery(ch, rho_a)
        degraded = apply_local(ch, 0, rho)
        recovered = apply_local(rec, 0, degraded)
        assert trace_distance(recovered, rho) <= 1e-8, f"pair {k}"
    # factorization: recovery of a one-sided channel w.r.t. a product
    # reference acts only on that side
    for k in range(20):
        sig_a = random_density((2,), 2, rng)
        sig_b = random_density((3,), 3, rng)
        ch_a = unitary_channel(haar_unitary(2, rng))
        lifted = lift_local(ch_a, 0, SubsystemLayout((2, 3)))
        joint_rec = petz_recovery(lifted, tensor(sig_a, sig_b))
        local_rec = tensor_channels(
            petz_recovery(ch_a, sig_a), identity_channel(3)
        )
        diff = np.abs(choi_matrix(joint_rec) - choi_matrix(local_rec)).max()
        assert diff <= 1e-9, f"product reference {k}: factorization gap {diff}"
    # fully depolarizing channel: recovery lands on the reference state
    for d in (2, 3):
        sigma = random_density((d,), d, rng)
        rec = petz_recovery(depolarizing_channel(d), sigma)
        probe = random_density((d,), 1, rng)
        out = apply_channel(rec, apply_channel(depolarizing_channel(d), probe))
        assert trace_distance(out, sigma) <= 1e-10
    _report("CRITERION 4 (recovery-map suite): PASS")


def _random_qubit_channel(rng) -> KrausChannel:
    """Random CPTP qubit channel from a Stinespring isometry."""
    u = haar_unitary(4, rng)
    v = u[:, :2]  # isometry C^2 -> C^2 (x) C^2
    ops = tuple(v.reshape(2, 2, 2)[:, k, :] for k in range(2))
    return KrausChannel(ops)


def test_criterion_5_monotonicity_and_chains():
    rng = np.random.default_rng(3003)
    for k in range(200):
        rho = random_density((2, 2), int(rng.integers(1, 5)), rng)
        ch = _random_qubit_channel(rng)
        side = int(rng.integers(0, 2))
        out = apply_local(ch, side, rho)
        assert mutual_information(out) <= mutual_information(rho) + 1e-9, (
            f"pair {k}: local channel increased mutual information"
        )
    cfg = OptimizerConfig(seed=0, restarts=2, max_evals=150)
    for k in range(8):
        rho = random_density((2, 2), int(rng.integers(1, 5)), rng)
        rep = correlation_report(rho, cfg)
        assert rep.I + 1e-12 >= rep.I_cq_lower >= rep.I_cc_lower >= 0.0, (
            f"report {k}: bound chain violated"
        )
    _report("CRITERION 5 (monotonicity and bound chains): PASS")


def test_criterion_6_broadcasting_suite():
    rng = np.random.default_rng(4004)
    for k in range(10):
        rho = random_cc(2, 2, rng)
        cand = cloning_candidate(rho)
        assert max(cand.marginal_residuals) <= 1e-12, f"CC state {k}"
        assert abs(cand.mi_deficit) <= 1e-9, f"CC state {k}"
    for k in range(5):
        rho = random_density((2, 2), 2, rng)
        if mutual_information(rho) <= 1e-6:
            continue
        cand = two_copy_candidate(rho)
        ok, deficit = theorem2_check(cand.sigma, rho)
        assert not ok
        assert deficit == pytest.approx(mutual_information(rho), abs=1e-9)
    # regression: the default-budget search must not broadcast
    # non-classical states (seeds fixed inside the default config)
    bell_cand = broadcast_search(bell_phi_plus())
    assert max(bell_cand.marginal_residuals) > 1e-6
    sep = separable_non_cq(2, 2, np.random.default_rng(9))
    sep_cand = broadcast_search(sep)
    assert max(sep_cand.marginal_residuals) > 1e-6
    # The same beyond 2x2: the CC state is broadcast, the others are not.
    for d_a, d_b in ((2, 3), (3, 3)):
        for state in make_corpus(1, seed=1, d_a=d_a, d_b=d_b):
            cand = broadcast_search(state.rho)
            where = f"{d_a}x{d_b} {state.state_id}"
            if state.label == "cc":
                assert cand.valid, where
                assert max(cand.marginal_residuals) <= 1e-8, where
            else:
                assert max(cand.marginal_residuals) > 1e-6, where
    _report("CRITERION 6 (broadcasting constructions and search): PASS")


def test_criterion_7_determinism(tmp_path):
    corpus_dir = tmp_path / "corpus"
    main(["make-corpus", "--per-class", "1", "--seed", "13",
          "--out", str(corpus_dir)])
    fast = ["--restarts", "2", "--max-evals", "120", "--seed", "17"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    main(["suite", str(corpus_dir), "--out", str(out1), *fast])
    main(["suite", str(corpus_dir), "--out", str(out2), *fast])
    assert out1.read_bytes() == out2.read_bytes()
    bell_path = tmp_path / "bell.json"
    bell_phi_plus().save(bell_path)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["measures", str(bell_path), "--out", str(r1), *fast])
    main(["measures", str(bell_path), "--out", str(r2), *fast])
    assert r1.read_bytes() == r2.read_bytes()
    _report("CRITERION 7 (byte-identical deterministic reports): PASS")
