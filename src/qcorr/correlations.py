"""Correlation functionals: mutual information (quantum, classical,
multipartite), Holevo quantity, post-measurement CQ/CC states, and the
optimized measures I_CQ, I_CC with their gaps.

Optimizer outputs are lower bounds on the true maxima (the value of the
best measurement found); every derived gap is therefore an upper bound.
Reports enforce the chain I >= I_CQ >= I_CC >= 0 by construction: the CC
optimum's A-measurement is re-scored as a CQ candidate, and the final
values are clamped downward along the chain (clamps act only at numerical
noise level).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._kernels_py import (
    cc_contract,
    cc_form,
    cc_joint_probs,
    cq_blocks,
    cq_contract,
    cq_form,
    shannon_bits,
)
from .channels import (
    Povm,
    apply_local,
    measurement_channel,
)
from .classify import classical_basis
from .optimize import (
    ConfigRangeError,
    OptimizationResult,
    OptimizerConfig,
    isometry_stack,
    maximize,
)
from .qstate import (
    TAU_NUM,
    ClassicalJoint,
    DensityMatrix,
    ProbVector,
    StateError,
    _pair_entries,
    _permuted_matrix,
    partial_trace,
    permute_subsystems,
    relative_entropy,
    von_neumann_entropy,
)


@dataclass(frozen=True)
class Ensemble:
    """Probabilities paired with same-dimension states."""

    probs: ProbVector
    states: tuple[DensityMatrix, ...]

    def __post_init__(self):
        if len(self.probs.p) != len(self.states):
            raise StateError("ensemble lengths do not match")
        d = self.states[0].dim
        if any(s.dim != d for s in self.states):
            raise StateError("ensemble states must share one dimension")
        object.__setattr__(self, "states", tuple(self.states))


def _cut_partition(rho: DensityMatrix, cut):
    n = rho.layout.n_subsystems
    if cut is None:
        if n != 2:
            raise StateError("default cut requires a bipartite layout")
        return (0,), (1,)
    side_a = tuple(cut)
    side_b = tuple(p for p in range(n) if p not in side_a)
    if not side_a or not side_b:
        raise StateError("cut must split the subsystems into two nonempty groups")
    if any(p < 0 or p >= n for p in side_a) or len(set(side_a)) != len(side_a):
        raise StateError(f"invalid cut {cut}")
    return side_a, side_b


def mutual_information(rho: DensityMatrix, cut=None) -> float:
    """S(A) + S(B) - S(AB) in bits across the given bipartition, never
    below zero."""
    side_a, side_b = _cut_partition(rho, cut)
    return _information(von_neumann_entropy(partial_trace(rho, side_a))
                        + von_neumann_entropy(partial_trace(rho, side_b)),
                        rho)


def _information(marginal_entropy: float, rho: DensityMatrix) -> float:
    """The sum of rho's marginal entropies minus S(rho).  A product state
    can come out a few ulps below zero, so the difference is clamped at
    0.0 (first: max(0.0, -0.0) is 0.0, max(-0.0, 0.0) is -0.0)."""
    return max(0.0, marginal_entropy - von_neumann_entropy(rho))


def multipartite_mutual_information(rho: DensityMatrix) -> float:
    """sum_k S(A_k) - S(A_1...A_n); the relative-entropy form of total
    multipartite correlations, never below zero."""
    n = rho.layout.n_subsystems
    if n < 2:
        raise StateError("multipartite mutual information needs >= 2 subsystems")
    return _information(sum(von_neumann_entropy(partial_trace(rho, (k,)))
                            for k in range(n)), rho)


def classical_mutual_information(joint: ClassicalJoint) -> float:
    """Shannon mutual information of a bipartite joint distribution, in bits."""
    if joint.p.ndim != 2:
        raise StateError("classical mutual information needs a bipartite joint")
    h_a = joint.marginal(0).entropy_bits()
    h_b = joint.marginal(1).entropy_bits()
    return h_a + h_b - joint.entropy_bits()


def holevo_chi(ensemble: Ensemble) -> float:
    """S(sum p_i sigma_i) - sum p_i S(sigma_i), in bits."""
    avg = np.zeros_like(ensemble.states[0].matrix)
    for p, s in zip(ensemble.probs.p, ensemble.states):
        avg += p * s.matrix
    lam = np.clip(np.linalg.eigvalsh(avg), 0.0, None)
    s_avg = shannon_bits(lam / lam.sum())
    s_cond = sum(
        p * von_neumann_entropy(s)
        for p, s in zip(ensemble.probs.p, ensemble.states) if p > 0
    )
    return max(s_avg - s_cond, 0.0)


def cq_state(rho: DensityMatrix, povm_a: Povm, side: int = 0) -> DensityMatrix:
    """Post-measurement state (M (x) id)[rho] for the POVM on one party."""
    if rho.layout.n_subsystems != 2:
        raise StateError("cq_state requires a bipartite layout")
    if povm_a.dim != rho.dims[side]:
        raise StateError("POVM dimension does not match the measured party")
    return apply_local(measurement_channel(povm_a), side, rho)


def cc_state(rho: DensityMatrix, povm_a: Povm,
             povm_b: Povm) -> tuple[DensityMatrix, ClassicalJoint]:
    """Doubly measured state plus its joint outcome distribution."""
    if rho.layout.n_subsystems != 2:
        raise StateError("cc_state requires a bipartite layout")
    if povm_a.dim != rho.dims[0] or povm_b.dim != rho.dims[1]:
        raise StateError("POVM dimensions do not match the parties")
    out = apply_local(measurement_channel(povm_b), 1,
                      apply_local(measurement_channel(povm_a), 0, rho))
    probs = cc_joint_probs(
        np.ascontiguousarray(rho.matrix),
        povm_a.elements, povm_b.elements)
    return out, ClassicalJoint(np.clip(probs, 0.0, None))


# ---------------------------------------------------------------------------
# Measurement optimization


@dataclass(frozen=True)
class MeasurementOptimum:
    """Best measurement found for one correlation functional."""

    value: float
    povm_a: Povm
    povm_b: Povm | None
    family: str  # "projective" or "general"
    result: OptimizationResult
    # The projective-family search, run first whatever `family` won; for
    # I_CQ it is the search that defines the discord bound.
    projective: OptimizationResult
    # Party A's projective seed matrices (`_local_bases_seeds`) of
    # a side-0 I_CQ search, kept so the I_CC search can reuse them.
    seeds_a: tuple[np.ndarray, ...] = ()
    # The general-family search, run second; None under `projective_only`.
    general: OptimizationResult | None = None
    # The marginals (rho_A, rho_B) of a side-0 I_CQ search's state, built
    # once there and kept so the I_CC search and `correlation_report`
    # reuse them.
    marginals: tuple[DensityMatrix, ...] = ()


def _cq_value(rho_mat: np.ndarray, s_b: float, ms: np.ndarray):
    """I of the CQ state for POVM element stacks `ms` (..., n, dA, dA) on
    the first party; a float for one stack, an array over leading axes."""
    blocks = cq_blocks(rho_mat, ms)
    return _cq_bits(_block_traces(blocks), np.linalg.eigvalsh(blocks), s_b)


def _block_traces(blocks: np.ndarray) -> np.ndarray:
    """Tr B_i of conditional blocks B_i: the outcome probabilities p_i."""
    return np.trace(blocks, axis1=-2, axis2=-1).real


def _cq_bits(probs: np.ndarray, lam: np.ndarray, s_b: float):
    """H(p) + S(B) - H(eigenvalues of all blocks): I of the CQ state with
    conditional blocks B_i of traces `probs` and eigenvalues `lam`."""
    lam = np.clip(lam.reshape(lam.shape[:-2] + (-1,)), 0.0, None)
    return (shannon_bits(np.clip(probs, 0.0, None))
            + s_b - shannon_bits(lam))


def _cc_value(rho_mat: np.ndarray, ms: np.ndarray, ns: np.ndarray):
    """Classical mutual information of the outcomes of stacks `ms`, `ns`
    (same leading axes); a float for one pair of stacks."""
    p = np.clip(cc_joint_probs(rho_mat, ms, ns), 0.0, None)
    return _cc_bits(p, p.sum(axis=-1), p.sum(axis=-2))


def _cc_bits(p: np.ndarray, p_a: np.ndarray, p_b: np.ndarray):
    """H(A) + H(B) - H(AB) of joint distributions p (..., nA, nB) with
    marginals p_a (..., nA) and p_b (..., nB)."""
    return (shannon_bits(p_a) + shannon_bits(p_b)
            - shannon_bits(p.reshape(p.shape[:-2] + (-1,))))


# Eigenvalues and probabilities are floored at this inside gradient logs
# only: a zero one multiplies a vector that is zero there anyway.
_LOG_FLOOR = np.finfo(float).tiny


def _log2_floor(x: np.ndarray) -> np.ndarray:
    return np.log2(np.maximum(x, _LOG_FLOOR))


def _isometry_gradient(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean gradient of sum_i Tr[M_i Q_i] (Q_i fixed and Hermitian)
    over the isometries w whose conjugated rows a_i give M_i = a_i a_i^dag:
    its row i is 2 w_i Q_i."""
    return 2 * (w[..., None, :] @ q)[..., 0, :]


def _cq_objective(rho: DensityMatrix, s_b: float):
    """The I_CQ search objective on party 0 of rho, S(B) = `s_b`: w ->
    (the values of `_cq_value` on the general POVMs of isometries w
    (..., n, dA), and their gradients, one (..., n, dA) array in a tuple).

    One `eigh` of the blocks B_i gives both: the derivative of I in B_i is
    L_i = log2 B_i - log2 p_i (Lewis, "Derivatives of spectral functions",
    Math. Oper. Res. 21, 1996), and Tr[L_i dB_i] = Tr[dM_i Q_i] with
    Q_i = Tr_B[(I (x) L_i) rho].  The forms of rho and of its swap are
    built once, here.
    """
    d_a, d_b = rho.dims
    form = cq_form(rho.matrix, d_a)
    # The parties exchanged: its blocks trace out the measured one.
    form_swap = cq_form(_permuted_matrix(rho.matrix, rho.dims, (1, 0)), d_b)

    def value_grad(w):
        blocks = cq_contract(form, isometry_stack(w))
        lam, vecs = np.linalg.eigh(blocks)
        probs = _block_traces(blocks)
        log_ratio = _log2_floor(lam) - _log2_floor(probs)[..., None]
        l_b = (vecs * log_ratio[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
        return _cq_bits(probs, lam, s_b), (
            _isometry_gradient(w, cq_contract(form_swap, l_b)),)
    return value_grad


def _cc_objective(rho: DensityMatrix):
    """The I_CC search objective of rho: (w_a, w_b) -> (the values of
    `_cc_value` on the general POVMs of isometries w_a (..., nA, dA) and
    w_b (..., nB, dB), and their gradients, shaped as w_a and w_b).

    The derivative of I in p_ij is g_ij = log2(p_ij / (p_i. p_.j)) (up to
    a constant that completeness cancels), so party A's direction for
    element i is Q_i = sum_j g_ij R_j with R_j = Tr_B[(I (x) N_j) rho], and
    party B's is built the same way from the blocks Tr_A[(M_i (x) I) rho].
    The three forms of rho are built once, here.
    """
    d_a, d_b = rho.dims
    joint = cc_form(rho.matrix, d_a)
    form_a = cq_form(rho.matrix, d_a)
    form_b = cq_form(_permuted_matrix(rho.matrix, rho.dims, (1, 0)), d_b)

    def direction(weights, blocks):
        *batch, n, d, _ = blocks.shape
        return (weights @ blocks.reshape(*batch, n, d * d)).reshape(
            *batch, weights.shape[-2], d, d)

    def value_grad(w_a, w_b):
        ms, ns = isometry_stack(w_a), isometry_stack(w_b)
        p = np.clip(cc_contract(joint, ms, ns), 0.0, None)
        p_a, p_b = p.sum(axis=-1), p.sum(axis=-2)
        g = (_log2_floor(p) - _log2_floor(p_a)[..., :, None]
             - _log2_floor(p_b)[..., None, :])
        q_a = direction(g, cq_contract(form_b, ns))
        q_b = direction(g.swapaxes(-1, -2), cq_contract(form_a, ms))
        return _cc_bits(p, p_a, p_b), (_isometry_gradient(w_a, q_a),
                                       _isometry_gradient(w_b, q_b))
    return value_grad


def _local_bases_seeds(rho: DensityMatrix,
                       marginal: DensityMatrix) -> list[np.ndarray]:
    """Projective seed matrices of party 0 of rho, whose marginal is
    `marginal`: the isometries W = U^dag of the bases U (as columns) of the
    computational basis, the marginal's eigenbasis and the classical
    basis."""
    _, eigvecs = np.linalg.eigh(marginal.matrix)
    return [np.conj(u).T
            for u in (np.eye(marginal.dim), eigvecs, classical_basis(rho, 0))]


def _outcome_counts(cfg: OptimizerConfig, dims: tuple) -> tuple | None:
    """Outcome counts of the general POVM family on parties of local
    dimensions `dims` (None under `cfg.projective_only`).  Raises
    `ConfigRangeError` when one is below its party's dimension: a complete
    rank-1 POVM on C^d has at least d outcomes."""
    if cfg.projective_only:
        return None
    counts = tuple(d * d if cfg.outcome_count is None else cfg.outcome_count
                   for d in dims)
    for n, d in zip(counts, dims):
        if n < d:
            raise ConfigRangeError(
                f"outcome count {n} is below the measured party's dimension "
                f"{d}: a complete rank-1 POVM needs at least {d} outcomes")
    return counts


def _measure(value_grad, dims: tuple, cfg: OptimizerConfig, proj_seeds,
             general_seeds) -> MeasurementOptimum:
    """Best measurement found on parties of local dimensions `dims`.

    `value_grad(*ws)` gives the values and gradients of the functional at
    one (k, n, d) isometry array per party.  A seed is a sequence of
    per-party matrices.  The projective phase (n = d) ascends from
    `proj_seeds`.  Unless `cfg.projective_only`, the general phase
    (`cfg.outcome_count` outcomes, default d^2) scores the seeds
    `general_seeds(x)`, x being the projective optimum's matrices, each
    padded with zero rows; its value wins only if it beats the projective
    one by more than `TAU_NUM`.  An outcome count below a party's
    dimension raises `ConfigRangeError` before any search.

    Each search makes a fixed number of objective calls, two per real
    parameter but at most `max_evals`: a restart that converges early
    hands its slot to a new random one, so a search costs the same on
    every state of a given size.  Stopping a restart early saves nothing
    then, so restarts run on until their steps gain `tol / 100`.
    """
    def search(counts, seeds):
        return maximize(value_grad, tuple(zip(counts, dims)),
                        replace(cfg, tol=0.01 * cfg.tol),
                        seed_points=seeds, ascend_seeds=counts == dims)

    def found(res, family):
        povms = [Povm(isometry_stack(w)) for w in res.isometries]
        return dict(value=res.value, povm_a=povms[0],
                    povm_b=(*povms, None)[1], family=family, result=res)

    counts = _outcome_counts(cfg, dims)
    proj_res = search(dims, proj_seeds)
    best = MeasurementOptimum(projective=proj_res,
                              **found(proj_res, "projective"))
    if counts is None:
        return best

    # A matrix G with fewer rows (the projective optimum's, say) enters the
    # general family as [G; 0]: its polar factor is that of G with the zero
    # rows, so the POVM is the same, with zero elements for the new outcomes.
    gen_res = search(counts, [
        [np.concatenate((g, np.zeros((n - len(g), g.shape[1]))))
         for g, n in zip(seed, counts)]
        for seed in general_seeds(proj_res.points)])
    best = replace(best, general=gen_res)
    if gen_res.value > best.value + TAU_NUM:
        best = replace(best, **found(gen_res, "general"))
    return best


def optimize_icq(rho: DensityMatrix, cfg: OptimizerConfig,
                 side: int = 0) -> MeasurementOptimum:
    """Lower bound on I_CQ: best single-party measurement found.

    The seed set always contains the computational basis, the measured
    marginal's eigenbasis, and the jointly diagonalizing classical basis,
    which makes the bound exact (I_CQ = I) on CQ-structured inputs.  Both
    families are isometries W searched by gradient ascent: the projective
    one is the d-outcome family (W unitary), the general one has
    `cfg.outcome_count` outcomes (default d^2).  `side` is the measured
    party, 0 or 1; any other raises `StateError`.
    """
    if rho.layout.n_subsystems != 2:
        raise StateError("optimize_icq requires a bipartite layout")
    if side not in (0, 1):
        raise StateError(f"side must be 0 or 1, got {side!r}")
    work = rho if side == 0 else permute_subsystems(rho, (1, 0))
    marginals = (partial_trace(work, (0,)), partial_trace(work, (1,)))
    bases = _local_bases_seeds(work, marginals[0])
    seeds = [(x,) for x in bases]
    best = _measure(_cq_objective(work, von_neumann_entropy(marginals[1])),
                    (work.dims[0],), cfg, seeds, lambda x: [*seeds, x])
    if side:
        return best
    return replace(best, seeds_a=tuple(bases), marginals=marginals)


def optimize_icc(rho: DensityMatrix, cfg: OptimizerConfig,
                 icq: MeasurementOptimum | None = None) -> MeasurementOptimum:
    """Lower bound on I_CC: best measurement pair found.

    Seeds include the CQ optimum's A-POVM paired with the B marginal's
    eigenbasis, so the bound never falls below the classical mutual
    information of that pairing, and the classical bases of both sides,
    which makes the bound exact on CC states.  `icq` is the side-0 I_CQ
    optimum; its A-side seeds and B marginal are reused rather than
    recomputed.
    """
    if rho.layout.n_subsystems != 2:
        raise StateError("optimize_icc requires a bipartite layout")
    if icq is None:
        icq = optimize_icq(rho, cfg)

    seeds_a = list(icq.seeds_a) or _local_bases_seeds(
        rho, partial_trace(rho, (0,)))
    # The swapped state's party-0 marginal is rho_B, entry for entry.
    rho_b = icq.marginals[1] if icq.marginals else partial_trace(rho, (1,))
    seeds_b = _local_bases_seeds(permute_subsystems(rho, (1, 0)), rho_b)

    pairs = list(zip(seeds_a, seeds_b))
    proj_seeds = [*pairs, (seeds_a[0], seeds_b[1])]
    if icq.family == "projective":
        # CQ optimum's POVM paired with the B eigenbasis.
        proj_seeds.append((icq.result.points[0], seeds_b[1]))

    def general_seeds(x):
        # The I_CQ optimum's matrix, unless it has more outcomes than fit.
        x_cq = icq.result.points[0]
        if len(x_cq) > _outcome_counts(cfg, rho.dims)[0]:
            x_cq = x[0]
        return [*pairs, x, (x_cq, seeds_b[1])]

    return _measure(_cc_objective(rho), rho.dims, cfg, proj_seeds,
                    general_seeds)


def discord(rho: DensityMatrix, cfg: OptimizerConfig,
            side: int = 0) -> float:
    """Gap I - I_CQ with the measured party `side` (0 or 1, as in
    `optimize_icq`) restricted to complete projective measurements; an
    upper bound on the true discord."""
    i = mutual_information(rho)
    icq = optimize_icq(rho, replace(cfg, projective_only=True), side=side)
    return max(i - min(icq.value, i), 0.0)


def delta_cc(rho: DensityMatrix, cfg: OptimizerConfig) -> float:
    """Upper bound on Delta_CC = I - I_CC (nonnegative by construction)."""
    report = correlation_report(rho, cfg)
    return report.delta_cc_upper


@dataclass(frozen=True)
class CorrelationReport:
    I: float
    I_cq_lower: float
    I_cc_lower: float
    delta_cc_upper: float
    discord_upper: float
    best_povm_A: Povm
    best_povm_B: Povm | None
    optimizer_meta: dict

    def to_dict(self) -> dict:
        def povm_list(p):
            return None if p is None else [_pair_entries(m) for m in p.elements]
        return {
            "I": self.I,
            "I_cq_lower": self.I_cq_lower,
            "I_cc_lower": self.I_cc_lower,
            "delta_cc_upper": self.delta_cc_upper,
            "discord_upper": self.discord_upper,
            "best_povm_A": povm_list(self.best_povm_A),
            "best_povm_B": povm_list(self.best_povm_B),
            "optimizer_meta": self.optimizer_meta,
        }


def _general_gain(opt: MeasurementOptimum) -> float | None:
    """General-family value minus projective value (None if not searched)."""
    if opt.general is None:
        return None
    return opt.general.value - opt.projective.value


def correlation_report(rho: DensityMatrix,
                       cfg: OptimizerConfig) -> CorrelationReport:
    """All correlation measures of a bipartite state, chain-consistent.
    Raises `ConfigRangeError` before any search if `cfg.outcome_count` is
    below a party's dimension and the general phase would run."""
    _cut_partition(rho, None)  # a state of other than two parties raises
    _outcome_counts(cfg, rho.dims)
    icq = optimize_icq(rho, cfg)
    icc = optimize_icc(rho, cfg, icq=icq)

    # I from the marginals the I_CQ search built.
    rho_a, rho_b = icq.marginals
    s_b = von_neumann_entropy(rho_b)
    i = _information(von_neumann_entropy(rho_a) + s_b, rho)
    # Re-score the CC optimum's A-measurement as a CQ candidate so the
    # reported chain holds structurally (data processing on the B side).
    cq_at_cc = _cq_value(rho.matrix, s_b, icc.povm_a.elements)

    # I is never below zero; the measured bounds stop at zero too.
    i_cq = max(min(i, max(icq.value, cq_at_cc)), 0.0)
    i_cc = max(min(i_cq, icc.value), 0.0)

    # The projective I_CQ search inside `icq` is the one `discord` runs.
    discord_val = max(i - min(icq.projective.value, i), 0.0)

    meta = {
        "config": cfg.to_dict(),
        "icq": icq.result.to_dict(),
        "icc": icc.result.to_dict(),
        "icq_projective": icq.projective.to_dict(),
        "icq_family": icq.family,
        "icc_family": icc.family,
        "icq_general_gain": _general_gain(icq),
        "icc_general_gain": _general_gain(icc),
        "outcome_cap": "d^2 rank-1 outcomes for the general POVM family",
    }
    return CorrelationReport(
        I=i,
        I_cq_lower=i_cq,
        I_cc_lower=i_cc,
        delta_cc_upper=i - i_cc,
        discord_upper=discord_val,
        best_povm_A=icc.povm_a if icc.povm_b is not None else icq.povm_a,
        best_povm_B=icc.povm_b,
        optimizer_meta=meta,
    )


def mutual_information_relative_entropy(rho: DensityMatrix,
                                        cut=None) -> float:
    """Cross-check form: S(rho || rho_A (x) rho_B)."""
    from .qstate import tensor

    side_a, side_b = _cut_partition(rho, cut)
    rho_a = partial_trace(rho, side_a)
    rho_b = partial_trace(rho, side_b)
    perm = side_a + side_b
    reordered = permute_subsystems(rho, perm)
    return relative_entropy(reordered, tensor(rho_a, rho_b))
