"""Broadcast-state constructions and the local-broadcasting experiments.

Layout convention for broadcast states is [A, A', B, B']: the copy cut is
positions {0, 2} vs {1, 3} and the party cut is {0, 1} vs {2, 3}.  Applying
theta_A at position 0 and theta_B at the (shifted) B position produces this
layout directly; `regroup` converts from construction order [A, B, A', B'].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelError,
    KrausChannel,
    apply_local,
    petz_recovery,
)
from .classify import classical_basis
from .correlations import Ensemble, mutual_information
from .optimize import (
    OptimizerConfig,
    maximize,
    unitary_from_params,
)
from .qstate import (
    TAU_HERM,
    TAU_NUM,
    TAU_PSD,
    TAU_TR,
    DensityMatrix,
    StateError,
    SubsystemLayout,
    ket,
    partial_trace,
    permute_subsystems,
    tensor,
    trace_distance,
)

TAU_BC = 1e-8  # broadcast marginal residual tolerance


@dataclass(frozen=True)
class BroadcastCandidate:
    sigma: DensityMatrix  # layout [A, A', B, B']
    theta_A: KrausChannel | None
    theta_B: KrausChannel | None
    marginal_residuals: tuple[float, float]
    mi_deficit: float
    valid: bool

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma.to_json_dict(),
            "theta_A": None if self.theta_A is None else self.theta_A.to_json_dict(),
            "theta_B": None if self.theta_B is None else self.theta_B.to_json_dict(),
            "marginal_residuals": list(self.marginal_residuals),
            "mi_deficit": self.mi_deficit,
            "valid": self.valid,
        }


def regroup(sigma: DensityMatrix) -> DensityMatrix:
    """Swap positions 1 and 2: [A, B, A', B'] <-> [A, A', B, B'].

    The permutation is an involution, so the same call converts back.
    """
    if sigma.layout.n_subsystems != 4:
        raise StateError("regroup expects a four-party state")
    return permute_subsystems(sigma, (0, 2, 1, 3))


def broadcast_marginals(sigma: DensityMatrix) -> tuple[DensityMatrix, DensityMatrix]:
    """The two copy marginals (AB and A'B') of an [A, A', B, B'] state."""
    if sigma.layout.n_subsystems != 4:
        raise StateError("broadcast state must have four subsystems")
    return partial_trace(sigma, (0, 2)), partial_trace(sigma, (1, 3))


def verify_broadcast(sigma: DensityMatrix, rho: DensityMatrix,
                     tol: float = TAU_BC) -> tuple[bool, tuple[float, float]]:
    """Check both copy marginals equal rho within tol (trace distance)."""
    if rho.layout.n_subsystems != 2:
        raise StateError("source state must be bipartite")
    copy_x, copy_y = broadcast_marginals(sigma)
    if copy_x.dims != rho.dims:
        raise StateError(
            f"broadcast layout {sigma.dims} incompatible with source {rho.dims}")
    res = (trace_distance(copy_x, rho), trace_distance(copy_y, rho))
    return (res[0] <= tol and res[1] <= tol), res


def apply_local_broadcast(theta_a: KrausChannel, theta_b: KrausChannel,
                          rho: DensityMatrix) -> DensityMatrix:
    """(theta_A (x) theta_B)[rho] in [A, A', B, B'] layout."""
    if rho.layout.n_subsystems != 2:
        raise StateError("source state must be bipartite")
    step = apply_local(theta_a, 0, rho)       # [A, A', B]
    n_a = len(theta_a.out_dims)
    return apply_local(theta_b, n_a, step)    # [A, A', B, B']


def cc_broadcast_channels(basis_a: np.ndarray,
                          basis_b: np.ndarray) -> tuple[KrausChannel, KrausChannel]:
    """Classical cloners of two local bases: |i><i'| -> delta_ii' |ii><ii|."""
    def cloner(basis: np.ndarray) -> KrausChannel:
        basis = np.asarray(basis, dtype=complex)
        d = basis.shape[0]
        if np.abs(basis.conj().T @ basis - np.eye(d)).max() > TAU_NUM:
            raise ChannelError("cloner basis is not orthonormal")
        ops = tuple(
            np.outer(np.kron(basis[:, i], basis[:, i]), basis[:, i].conj())
            for i in range(d)
        )
        return KrausChannel(ops, out_dims=(d, d))

    return cloner(basis_a), cloner(basis_b)


def theorem2_check(sigma: DensityMatrix, rho: DensityMatrix,
                   tol: float = TAU_NUM) -> tuple[bool, float]:
    """Mutual-information test across the party cut AA'|BB'.

    Returns (|deficit| <= tol, deficit) with deficit = I(sigma_AA':BB') -
    I(rho).  When the deficit vanishes, local Petz maps rebuilding sigma
    from rho exist; `local_broadcast_maps_from_petz` constructs them.
    """
    ok, res = verify_broadcast(sigma, rho)
    if not ok:
        raise StateError(
            f"broadcast condition violated: marginal residuals {res}")
    deficit = mutual_information(sigma, cut=(0, 1)) - mutual_information(rho)
    ok = abs(deficit) <= tol
    if ok:
        # The equality case promises local maps rebuilding sigma from rho;
        # construct them and verify, warning on numerical failure.
        theta_a, theta_b = local_broadcast_maps_from_petz(sigma, rho)
        rebuilt = apply_local_broadcast(theta_a, theta_b, rho)
        err = trace_distance(rebuilt, sigma)
        if err > 1e-8:
            import warnings

            warnings.warn(
                f"Petz local maps rebuild sigma only to trace distance {err:.3e}",
                RuntimeWarning, stacklevel=2)
    return ok, deficit


def _trace_out_second_channel(d: int, d_env: int) -> KrausChannel:
    """Partial-trace channel C^(d*d_env) -> C^d over the second factor."""
    ops = tuple(
        np.kron(np.eye(d, dtype=complex), ket(k, d_env).conj().reshape(1, -1))
        for k in range(d_env)
    )
    return KrausChannel(ops)


def local_broadcast_maps_from_petz(
        sigma: DensityMatrix,
        rho: DensityMatrix) -> tuple[KrausChannel, KrausChannel]:
    """Local maps Theta_X = (Tr_X')^* recovering sigma from rho.

    The Petz recovery of each partial-trace channel is taken with respect
    to the corresponding pair marginal of sigma; when the party-cut mutual
    information of sigma equals I(rho), these maps broadcast rho to sigma.
    """
    d_a, d_ap, d_b, d_bp = sigma.dims
    sigma_aa = partial_trace(sigma, (0, 1))
    sigma_bb = partial_trace(sigma, (2, 3))
    theta_a = petz_recovery(_trace_out_second_channel(d_a, d_ap), sigma_aa)
    theta_b = petz_recovery(_trace_out_second_channel(d_b, d_bp), sigma_bb)
    return theta_a, theta_b


def _candidate(rho: DensityMatrix, theta_a: KrausChannel,
               theta_b: KrausChannel) -> BroadcastCandidate:
    sigma = apply_local_broadcast(theta_a, theta_b, rho)
    valid, res = verify_broadcast(sigma, rho)
    deficit = mutual_information(sigma, cut=(0, 1)) - mutual_information(rho)
    return BroadcastCandidate(sigma, theta_a, theta_b, res, deficit, valid)


def cloning_candidate(rho: DensityMatrix) -> BroadcastCandidate:
    """Clone both classical bases found by the classifier.

    Exact for CC states (cloning their classical bases preserves the full
    mutual information); a seed candidate otherwise.
    """
    theta_a, theta_b = cc_broadcast_channels(
        classical_basis(rho, 0), classical_basis(rho, 1))
    return _candidate(rho, theta_a, theta_b)


def attachment_candidate(rho: DensityMatrix) -> BroadcastCandidate:
    """Locally attach the fixed marginal states: Theta_X[.] = . (x) rho_X.

    The AB copy is exact for every input; the A'B' copy equals
    rho_A (x) rho_B, so the candidate is exact precisely for product states.
    """
    def attach(marginal: DensityMatrix) -> KrausChannel:
        d = marginal.dim
        evals, vecs = np.linalg.eigh(marginal.matrix)
        ops = []
        for lam, v in zip(evals, vecs.T):
            if lam > 1e-15:
                ops.append(np.sqrt(lam)
                           * np.kron(np.eye(d, dtype=complex), v.reshape(-1, 1)))
        return KrausChannel(tuple(ops), out_dims=(d, d))

    return _candidate(rho, attach(partial_trace(rho, (0,))),
                      attach(partial_trace(rho, (1,))))


def _stinespring_channel(params: np.ndarray, d: int,
                         ancilla: int) -> KrausChannel:
    """Channel d -> d*d via an isometry into d*d (x) ancilla."""
    big = d * d * ancilla
    u = unitary_from_params(params, big)
    v = u[:, :d]  # isometry C^d -> C^(d^2 * ancilla)
    ops = tuple(
        v.reshape(d * d, ancilla, d)[:, k, :]
        for k in range(ancilla)
    )
    return KrausChannel(ops, out_dims=(d, d))


def stinespring_param_dim(d: int, ancilla: int) -> int:
    return (d * d * ancilla) ** 2


def _copy_superoperators(params: np.ndarray, d: int,
                         ancilla: int) -> np.ndarray:
    """Both copy marginals of `_stinespring_channel` as superoperators.

    Entry [c, (a, b), (i, j)] is <a| Tr_rest[V |i><j| V^dag] |b> with V
    the Stinespring isometry; copy c = 0 keeps A and c = 1 keeps A', the
    other copy and the ancilla are traced out.  Raw arrays for the search
    loop: the only check is the isometry condition V^dag V = I that
    constructing the `KrausChannel` would make.
    """
    v = unitary_from_params(params, d * d * ancilla)[:, :d]
    err = np.abs(v.conj().T @ v - np.eye(d)).max()
    if err > TAU_NUM:
        raise ChannelError(
            f"Stinespring map is not an isometry: max |V^dag V - I| = {err:.3e}")
    w = v.reshape(d, d, ancilla, d)  # [a, a', k, i]
    legs = np.stack((w.transpose(0, 3, 1, 2),   # [(a, i), (a', k)]
                     w.transpose(1, 3, 0, 2)))  # [(a', i), (a, k)]
    legs = legs.reshape(2, d * d, d * ancilla)
    gram = legs @ legs.conj().transpose(0, 2, 1)  # [c, (a, i), (b, j)]
    return gram.reshape(2, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(
        2, d * d, d * d)


def _residual_objective(rho: DensityMatrix, anc_a: int, anc_b: int):
    """params -> -(sum of both copy-marginal trace distances to rho).

    Equals minus the residual sum of `verify_broadcast` on
    `apply_local_broadcast` of the two Stinespring channels, computed on
    raw arrays: each copy marginal is S_A R S_B^T with R the reshuffled
    rho.  The copy marginals get the Hermiticity, trace and PSD checks of
    `DensityMatrix` (the PSD test shares the residuals' `eigvalsh`).
    """
    d_a, d_b = rho.dims
    n = d_a * d_b
    pd_a = stinespring_param_dim(d_a, anc_a)
    mat = rho.matrix
    shuffled = mat.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(
        d_a * d_a, d_b * d_b)  # [(i1, j1), (i2, j2)]

    def objective(params):
        s_a = _copy_superoperators(params[:pd_a], d_a, anc_a)
        s_b = _copy_superoperators(params[pd_a:], d_b, anc_b)
        copies = (s_a @ shuffled @ s_b.transpose(0, 2, 1)).reshape(
            2, d_a, d_a, d_b, d_b).transpose(0, 1, 3, 2, 4).reshape(2, n, n)
        if np.abs(copies - copies.conj().transpose(0, 2, 1)).max() > TAU_HERM:
            raise StateError("copy marginal is not Hermitian within tolerance")
        tr = np.trace(copies, axis1=1, axis2=2).real
        if np.abs(tr - 1.0).max() > TAU_TR:
            raise StateError(f"copy marginal traces are {tr}, not 1 within tolerance")
        evals = np.linalg.eigvalsh(np.concatenate((copies - mat, copies)))
        if evals[2:].min() < -TAU_PSD:
            raise StateError(
                f"copy marginal has negative eigenvalue {evals[2:].min()}")
        return -0.5 * np.abs(evals[:2]).sum()

    return objective


def _broadcast_candidates(rho: DensityMatrix,
                          cfg: OptimizerConfig | None) -> list[BroadcastCandidate]:
    """Basis cloning, marginal attachment and the optimized Stinespring pair."""
    if rho.layout.n_subsystems != 2:
        raise StateError("broadcast search requires a bipartite state")
    if cfg is None:
        cfg = OptimizerConfig(restarts=6, max_evals=500)
    d_a, d_b = rho.dims
    anc_a = cfg.ancilla_dim or d_a
    anc_b = cfg.ancilla_dim or d_b
    pd_a = stinespring_param_dim(d_a, anc_a)
    pd_b = stinespring_param_dim(d_b, anc_b)

    candidates = [cloning_candidate(rho), attachment_candidate(rho)]
    res = maximize(_residual_objective(rho, anc_a, anc_b), pd_a + pd_b, cfg)
    theta_a = _stinespring_channel(res.params[:pd_a], d_a, anc_a)
    theta_b = _stinespring_channel(res.params[pd_a:], d_b, anc_b)
    candidates.append(_candidate(rho, theta_a, theta_b))
    return candidates


def broadcast_search(rho: DensityMatrix,
                     cfg: OptimizerConfig | None = None) -> BroadcastCandidate:
    """Best local-broadcast candidate found by derivative-free search.

    Structured candidates (basis cloning, marginal attachment) are always
    evaluated; a Stinespring ansatz over both local channels is then
    optimized for minimal marginal residuals.  For non-CC inputs the
    residual is expected to stay bounded away from zero (a demonstration,
    not a proof).
    """
    def merit(c: BroadcastCandidate) -> float:
        return -(c.marginal_residuals[0] + c.marginal_residuals[1])

    return max(_broadcast_candidates(rho, cfg), key=merit)


def two_copy_candidate(rho: DensityMatrix) -> BroadcastCandidate:
    """sigma = rho (x) rho regrouped to [A, A', B, B'].

    Always a broadcast state (both copy marginals equal rho), but not
    locally generated unless rho is a product state.
    """
    sigma = regroup(DensityMatrix(
        SubsystemLayout(rho.dims + rho.dims),
        np.kron(rho.matrix, rho.matrix)))
    valid, res = verify_broadcast(sigma, rho)
    deficit = mutual_information(sigma, cut=(0, 1)) - mutual_information(rho)
    return BroadcastCandidate(sigma, None, None, res, deficit, valid)


def delta_b_upper(rho: DensityMatrix, cfg: OptimizerConfig | None = None,
                  feasibility_tol: float = 1e-6) -> float:
    """Heuristic upper bound on Delta_b = min_sigma I(sigma_AA':BB') - I(rho).

    The minimum runs over broadcast states only; candidates are the
    two-independent-copies construction (always a broadcast state) plus any
    feasible candidates produced by the local search.  The sign of the raw
    value is not guaranteed by the bound direction and is reported as is.
    """
    candidates = [two_copy_candidate(rho)] + [
        cand for cand in _broadcast_candidates(rho, cfg)
        if max(cand.marginal_residuals) <= feasibility_tol]
    return min(c.mi_deficit for c in candidates)


def embed_ensemble(ensemble: Ensemble) -> DensityMatrix:
    """CQ embedding sum_i p_i |i><i| (x) rho_i of an ensemble."""
    if (ensemble.probs.p <= 0).any():
        raise StateError("ensemble embedding requires strictly positive probabilities")
    n = len(ensemble.states)
    d = ensemble.states[0].dim
    out = np.zeros((n * d, n * d), dtype=complex)
    for i, (p, s) in enumerate(zip(ensemble.probs.p, ensemble.states)):
        proj = np.outer(ket(i, n), ket(i, n).conj())
        out += p * np.kron(proj, s.matrix)
    return DensityMatrix(SubsystemLayout((n, d)), out)
