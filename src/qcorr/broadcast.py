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
from .optimize import OptimizerConfig, maximize, unitary_from_params
from .qstate import (
    TAU_NUM,
    DensityMatrix,
    StateError,
    SubsystemLayout,
    ket,
    partial_trace,
    permute_subsystems,
    trace_distance,
)

TAU_BC = 1e-8  # broadcast marginal residual tolerance


@dataclass(frozen=True, eq=False)
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


def verify_broadcast(sigma: DensityMatrix,
                     rho: DensityMatrix) -> tuple[bool, tuple[float, float]]:
    """Both copy marginals' trace distances to rho, and whether the larger
    is at most TAU_BC, the threshold of every broadcast test."""
    if rho.layout.n_subsystems != 2:
        raise StateError("source state must be bipartite")
    copy_x, copy_y = broadcast_marginals(sigma)
    if copy_x.dims != rho.dims:
        raise StateError(
            f"broadcast layout {sigma.dims} incompatible with source {rho.dims}")
    res = (trace_distance(copy_x, rho), trace_distance(copy_y, rho))
    return max(res) <= TAU_BC, res


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
        # ops[i] = np.outer(np.kron(b_i, b_i), b_i.conj()) for column b_i.
        cols = basis.T
        clones = (cols[:, :, None] * cols[:, None, :]).reshape(d, d * d)
        return KrausChannel(clones[:, :, None] * cols.conj()[:, None, :],
                            out_dims=(d, d))

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
    # ops[k] = np.kron(I_d, <k|): one Kronecker product over the stack of bras.
    return KrausChannel(np.kron(np.eye(d), np.eye(d_env)[:, None, :]))


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


def _scored(rho: DensityMatrix, sigma: DensityMatrix, mi_rho: float | None,
            theta_a: KrausChannel | None = None,
            theta_b: KrausChannel | None = None) -> BroadcastCandidate:
    """`sigma` as a candidate broadcast of rho: its marginal residuals and
    validity (`verify_broadcast`) and its mutual-information deficit over
    `mi_rho`, I(rho) (computed here if None)."""
    valid, res = verify_broadcast(sigma, rho)
    if mi_rho is None:
        mi_rho = mutual_information(rho)
    deficit = mutual_information(sigma, cut=(0, 1)) - mi_rho
    return BroadcastCandidate(sigma, theta_a, theta_b, res, deficit, valid)


def _candidate(rho: DensityMatrix, theta_a: KrausChannel,
               theta_b: KrausChannel, mi_rho: float | None) -> BroadcastCandidate:
    return _scored(rho, apply_local_broadcast(theta_a, theta_b, rho), mi_rho,
                   theta_a, theta_b)


def cloning_candidate(rho: DensityMatrix,
                      mi_rho: float | None = None) -> BroadcastCandidate:
    """Clone both classical bases found by the classifier.

    Exact for CC states (cloning their classical bases preserves the full
    mutual information); a seed candidate otherwise.  `mi_rho` is I(rho)
    when the caller has it.
    """
    theta_a, theta_b = cc_broadcast_channels(
        classical_basis(rho, 0), classical_basis(rho, 1))
    return _candidate(rho, theta_a, theta_b, mi_rho)


def attachment_candidate(rho: DensityMatrix,
                         mi_rho: float | None = None) -> BroadcastCandidate:
    """Locally attach the fixed marginal states: Theta_X[.] = . (x) rho_X.

    The AB copy is exact for every input; the A'B' copy equals
    rho_A (x) rho_B, so the candidate is exact precisely for product states.
    `mi_rho` is I(rho) when the caller has it.
    """
    def attach(marginal: DensityMatrix) -> KrausChannel:
        d = marginal.dim
        evals, vecs = np.linalg.eigh(marginal.matrix)
        keep = evals > 1e-15
        # ops[k] = np.kron(I_d, |v_k>) for the kept eigenvectors v_k.
        ops = np.kron(np.eye(d, dtype=complex), vecs.T[keep][:, :, None])
        return KrausChannel(np.sqrt(evals[keep])[:, None, None] * ops,
                            out_dims=(d, d))

    return _candidate(rho, attach(partial_trace(rho, (0,))),
                      attach(partial_trace(rho, (1,))), mi_rho)


def _channel_of_isometry(v: np.ndarray, d: int, ancilla: int) -> KrausChannel:
    """The channel d -> d*d with Stinespring isometry V: C^d -> C^d (x) C^d
    (x) C^ancilla, given as its (d*d*ancilla, d) matrix with rows in
    [a, a', k] order: Kraus operator k is V's rows of ancilla level k."""
    return KrausChannel(v.reshape(d * d, ancilla, d).swapaxes(0, 1),
                        out_dims=(d, d))


def _stinespring_channel(params: np.ndarray, d: int,
                         ancilla: int) -> KrausChannel:
    """The channel of the first d columns of exp(iH) on C^(d*d*ancilla).

    Kept only for the benchmark's hooks until ROADMAP item 1 lands."""
    return _channel_of_isometry(
        unitary_from_params(params, d * d * ancilla)[:, :d], d, ancilla)


def _channel_point(channel: KrausChannel, ancilla: int) -> np.ndarray:
    """A channel with at most `ancilla` Kraus operators as a search point:
    its (d*d*ancilla, d) Stinespring isometry, the inverse of
    `_channel_of_isometry` with unused ancilla levels zero."""
    v = np.zeros((channel.d_out, ancilla, channel.d_in), dtype=complex)
    v[:, :len(channel.kraus)] = channel.kraus.swapaxes(0, 1)
    return v.reshape(-1, channel.d_in)


def _legs(w: np.ndarray) -> np.ndarray:
    """[..., a, a', k, i] -> [..., a, i, a', k]: the order in which copy A's
    marginal is a Gram matrix over (a', k).  Swapping a and a' first gives
    copy A''s order."""
    return w.swapaxes(-1, -3).swapaxes(-1, -2)


def _copy_superoperators(v: np.ndarray, d: int, ancilla: int,
                         eye: np.ndarray, legs: np.ndarray):
    """Both copy marginals of the channels of isometries v (..., d*d*ancilla,
    d) as superoperators, with the factors they are built from.

    Returns (legs, s): legs[..., c] is V rearranged to [(a, i), (a', k)]
    for copy c = 0 (keeps A) and to [(a', i), (a, k)] for c = 1 (keeps A');
    s[..., c, (a, b), (i, j)] = <a| Tr_rest[V |i><j| V^dag] |b> is
    legs[..., c] @ legs[..., c]^dag with its middle indices swapped.
    `eye` is np.eye(d), and the returned legs are written into `legs`, a
    C-contiguous complex array of shape (..., 2, d*d, d*ancilla) that the
    caller holds.  Raw arrays for the search loop: the only check is the
    isometry condition V^dag V = I that constructing the `KrausChannel`
    would make, applied to every isometry of the batch.
    """
    batch = v.shape[:-2]
    err = np.abs(v.conj().swapaxes(-1, -2) @ v - eye).max()
    if err > TAU_NUM:
        raise ChannelError(
            f"Stinespring map is not an isometry: max |V^dag V - I| = {err:.3e}")
    w = v.reshape(batch + (d, d, ancilla, d))  # [..., a, a', k, i]
    both = legs.reshape(batch + (2, d, d, d, ancilla))
    np.copyto(both[..., 0, :, :, :, :], _legs(w))
    np.copyto(both[..., 1, :, :, :, :], _legs(w.swapaxes(-4, -3)))
    gram = legs @ legs.conj().swapaxes(-1, -2)  # [..., c, (a, i), (b, j)]
    return legs, _swap_middle(gram, d)


def _swap_middle(x: np.ndarray, d: int) -> np.ndarray:
    """[..., (p, q), (r, s)] -> [..., (p, r), (q, s)] for d x d x d x d: an
    involution mapping the Gram matrices to the superoperators and back."""
    return x.reshape(x.shape[:-2] + (d, d, d, d)).swapaxes(-3, -2).reshape(
        x.shape[:-2] + (d * d, d * d))


def _stinespring_gradient(legs: np.ndarray, g: np.ndarray, d: int,
                          ancilla: int) -> np.ndarray:
    """Euclidean gradient (..., d*d*ancilla, d) on V of f with
    df = Re sum_c <H_c, dS_c> (S_c the superoperators of
    `_copy_superoperators`, H_c = g[..., c]): through gram = L L^dag it is
    (H^ + H^^dag) L per copy, H^ being H with its middle indices swapped,
    mapped back onto V by the inverse leg order and summed over copies."""
    h = _swap_middle(g, d)
    gamma = (h + h.conj().swapaxes(-1, -2)) @ legs
    # The inverse of `_legs`: [..., c, p, i, q, k] -> [..., c, p, q, k, i].
    gamma = gamma.reshape(gamma.shape[:-2] + (d, d, d, ancilla)).swapaxes(
        -1, -2).swapaxes(-1, -3)
    z = gamma[..., 0, :, :, :, :] + gamma[..., 1, :, :, :, :].swapaxes(-4, -3)
    return z.reshape(z.shape[:-4] + (d * d * ancilla, d))


def _residual_objective(rho: DensityMatrix, anc_a: int, anc_b: int):
    """(v_a, v_b) -> (-sum_c ||C_c - rho||_F^2, its gradient).

    v_a and v_b are Stinespring isometries (..., d*d*anc, d) of the two
    sides, and C_c the copy marginals of `apply_local_broadcast` of their
    channels (`_channel_of_isometry`), computed on raw arrays.  Reshuffling
    only permutes entries, so the surrogate is -sum_c ||E_c||_F^2 with
    E_c = S_A[c] R S_B[c]^T - R, R the reshuffled rho.  It vanishes exactly
    where the trace residuals of `verify_broadcast` do and, unlike them,
    is smooth: df = -2 Re sum_c (<E_c (R S_B^T)^dag, dS_A> +
    <E_c^T conj(S_A R), dS_B>), carried onto each V by
    `_stinespring_gradient`.  The gradients are shaped as v_a and v_b.
    When the sides share d and the ancilla,
    both go through one `_copy_superoperators` and one
    `_stinespring_gradient` call on the stacked pair.

    The isometry check V^dag V = I of `_copy_superoperators` is the only
    check; one failing isometry fails the whole batch.  It implies the
    checks a `DensityMatrix` would make on the copy marginals: each is
    Tr_rest[V X V^dag] of the validated rho under isometries, so it is
    Hermitian and positive semidefinite up to rounding, and its trace is
    1 + O(max |V^dag V - I|).  Every candidate that leaves the search is
    still built as a `KrausChannel` and validated as a `DensityMatrix`
    (`_candidate`).

    The objective holds its work arrays (the stacked side pair, the legs
    and the stacked gradient pair), one set per batch shape, and refills
    them on every call, so a round allocates no arrays of that size
    twice.  The values and gradients it returns are new arrays and its
    inputs are only read, but the held arrays make an objective
    non-reentrant: no two calls of one objective may overlap.
    """
    d_a, d_b = rho.dims
    mat = rho.matrix
    shuffled = mat.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(
        d_a * d_a, d_b * d_b)  # [(i1, j1), (i2, j2)]

    same = (d_a, anc_a) == (d_b, anc_b)
    eye_a, eye_b = np.eye(d_a), np.eye(d_b)
    work = {}  # batch shape -> (pair, legs, grad), see `held`

    def held(batch):
        """The work arrays of one batch shape: when the sides share a shape,
        the stacked pair and, with a leading side axis, the legs and the
        gradient pair; else no pair and each side's legs and gradient."""
        if batch not in work:
            def empty(lead, *shape):
                return np.empty(lead + shape, dtype=complex)
            if same:
                side = (2,) + batch
                work[batch] = (empty(side, d_a * d_a * anc_a, d_a),
                               empty(side, 2, d_a * d_a, d_a * anc_a),
                               empty(side, 2, d_a * d_a, d_a * d_a))
            else:
                work[batch] = (
                    None,
                    tuple(empty(batch, 2, d * d, d * anc)
                          for d, anc in ((d_a, anc_a), (d_b, anc_b))),
                    tuple(empty(batch, 2, d * d, d * d) for d in (d_a, d_b)))
        return work[batch]

    def objective(v_a, v_b):
        pair, legs, grad = held(v_a.shape[:-2])
        if same:  # both sides in one call: (side, ..., copy, ...) arrays
            pair[0], pair[1] = v_a, v_b
            legs, (s_a, s_b) = _copy_superoperators(pair, d_a, anc_a, eye_a,
                                                    legs)
        else:
            legs_a, s_a = _copy_superoperators(v_a, d_a, anc_a, eye_a, legs[0])
            legs_b, s_b = _copy_superoperators(v_b, d_b, anc_b, eye_b, legs[1])
        s_b_t = s_b.swapaxes(-1, -2)
        left = s_a @ shuffled  # S_A R
        err = left @ s_b_t - shuffled  # reshuffled copy marginals minus R
        value = -(err.real ** 2 + err.imag ** 2).sum(axis=(-3, -2, -1))
        np.matmul(err, (shuffled @ s_b_t).conj().swapaxes(-1, -2), out=grad[0])
        np.matmul(err.swapaxes(-1, -2), left.conj(), out=grad[1])
        for g in grad:
            g *= -2
        if same:
            return value, tuple(_stinespring_gradient(legs, grad, d_a, anc_a))
        return value, (_stinespring_gradient(legs_a, grad[0], d_a, anc_a),
                       _stinespring_gradient(legs_b, grad[1], d_b, anc_b))

    return objective


def _seed_points(cloning: BroadcastCandidate, attachment: BroadcastCandidate,
                 ancillas: tuple[int, int]) -> list[tuple]:
    """Search points of the structured channel pairs: cloning on both
    sides, attachment on both sides, cloning on A with attachment on B,
    and the reverse.  Each side's ancilla must hold its channel's Kraus
    operators (d for cloning, the marginal's rank for attachment)."""
    clone, attach = ((_channel_point(c.theta_A, ancillas[0]),
                      _channel_point(c.theta_B, ancillas[1]))
                     for c in (cloning, attachment))
    return [clone, attach, (clone[0], attach[1]), (attach[0], clone[1])]


def _broadcast_candidates(rho: DensityMatrix, cfg: OptimizerConfig | None,
                          mi_rho: float | None = None) -> list[BroadcastCandidate]:
    """Basis cloning, marginal attachment and the optimized Stinespring pair,
    scored against I(rho) (`mi_rho`, computed once here if None).

    The search is a lockstep Riemannian ascent of the surrogate of
    `_residual_objective` on both sides' isometries, with the fixed number
    of rounds `maximize` gives every search.  Unless an ancilla is smaller
    than its side, the structured channels seed it: cloning and attachment
    on both sides and the two mixed pairs, taken from the two structured
    candidates, so their bases and marginal spectra are computed once.
    """
    if rho.layout.n_subsystems != 2:
        raise StateError("broadcast search requires a bipartite state")
    if cfg is None:
        cfg = OptimizerConfig(restarts=6, max_evals=500)
    dims = rho.dims
    ancillas = tuple(d if cfg.ancilla_dim is None else cfg.ancilla_dim
                     for d in dims)
    shapes = tuple((d * d * anc, d) for d, anc in zip(dims, ancillas))

    if mi_rho is None:
        mi_rho = mutual_information(rho)
    cloning = cloning_candidate(rho, mi_rho)
    attachment = attachment_candidate(rho, mi_rho)
    seeds = (_seed_points(cloning, attachment, ancillas)
             if all(anc >= d for d, anc in zip(dims, ancillas)) else [])
    res = maximize(_residual_objective(rho, *ancillas), shapes, cfg,
                   seed_points=seeds)
    theta_a, theta_b = (_channel_of_isometry(v, d, anc)
                        for v, d, anc in zip(res.isometries, dims, ancillas))
    return [cloning, attachment, _candidate(rho, theta_a, theta_b, mi_rho)]


def broadcast_search(rho: DensityMatrix,
                     cfg: OptimizerConfig | None = None) -> BroadcastCandidate:
    """Best local-broadcast candidate found: the one with the least larger
    marginal residual, the earlier on a tie (cloning, attachment, search).

    Structured candidates (basis cloning, marginal attachment) are always
    evaluated; a pair of Stinespring isometries, seeded with them, then
    ascends a smooth surrogate of the residuals by Riemannian gradient
    ascent.  For non-CC inputs the residual is expected to stay bounded
    away from zero (a demonstration, not a proof).
    """
    return min(_broadcast_candidates(rho, cfg),
               key=lambda c: max(c.marginal_residuals))


def two_copy_candidate(rho: DensityMatrix,
                       mi_rho: float | None = None) -> BroadcastCandidate:
    """sigma = rho (x) rho regrouped to [A, A', B, B'].

    Always a broadcast state (both copy marginals equal rho), but not
    locally generated unless rho is a product state.  `mi_rho` is I(rho)
    when the caller has it.
    """
    return _scored(rho, regroup(DensityMatrix(
        SubsystemLayout(rho.dims + rho.dims),
        np.kron(rho.matrix, rho.matrix))), mi_rho)


def delta_b_upper(rho: DensityMatrix,
                  cfg: OptimizerConfig | None = None) -> float:
    """Heuristic upper bound on Delta_b = min_sigma I(sigma_AA':BB') - I(rho).

    The minimum runs over broadcast states only; candidates are the
    two-independent-copies construction (always a broadcast state) plus the
    `valid` candidates of the local search (larger marginal residual at
    most TAU_BC).  The sign of the raw value is not guaranteed by the bound
    direction and is reported as is.
    """
    mi_rho = mutual_information(rho)
    candidates = [two_copy_candidate(rho, mi_rho)] + [
        cand for cand in _broadcast_candidates(rho, cfg, mi_rho) if cand.valid]
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
