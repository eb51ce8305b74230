"""Randomness, POVM parameterizations, and derivative-free maximization.

The maximizer is a multi-start Nelder-Mead ascent.  Objectives involve
eigendecompositions with non-smooth level crossings, so derivative-free
search is used throughout.  Runs are deterministic for a fixed seed: RNG
streams are spawned per restart, and user-supplied seed points are always
evaluated directly, so the returned value never falls below any seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import logm
from scipy.optimize import minimize

from .channels import Povm
from .qstate import DensityMatrix, StateError, _as_layout


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    restarts: int = 16
    max_evals: int = 5000
    tol: float = 1e-8
    outcome_count: int | None = None
    projective_only: bool = False
    ancilla_dim: int | None = None

    def __post_init__(self):
        if self.restarts < 1 or self.max_evals < 1:
            raise ValueError("restarts and max_evals must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "restarts": self.restarts,
            "max_evals": self.max_evals,
            "tol": self.tol,
            "outcome_count": self.outcome_count,
            "projective_only": self.projective_only,
            "ancilla_dim": self.ancilla_dim,
        }


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    params: np.ndarray
    n_evals: int
    restart_values: tuple[float, ...]
    seed: int
    diagnostics: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "params": [float(x) for x in np.asarray(self.params).reshape(-1)],
            "n_evals": self.n_evals,
            "restart_values": list(self.restart_values),
            "seed": self.seed,
            "diagnostics": list(self.diagnostics),
        }


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix (Mezzadri's recipe)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_density(layout, rank: int,
                   rng: np.random.Generator) -> DensityMatrix:
    """Ginibre-induced random state of the requested rank."""
    layout = _as_layout(layout)
    d = layout.dim
    if rank < 1 or rank > d:
        raise StateError(f"rank must be in [1, {d}], got {rank}")
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityMatrix(layout, m / m.trace())


_ZERO = np.zeros(1)


@functools.lru_cache(maxsize=None)
def _generator_gather(d: int) -> np.ndarray:
    """Index map from [params, -params, 0] to the (re, im) parts of H.

    The packing: the first d parameters are the diagonal of H; the rest
    fill the strict upper triangle row by row, pair (x, y) giving the
    generator entry A_ij = x + iy of A = iH, so H_ij = y - ix and
    H_ji = y + ix.
    """
    n = d * d
    zero, neg = 2 * n, n
    idx = np.empty((d, d, 2), dtype=np.intp)
    diag = np.arange(d)
    idx[diag, diag] = np.stack([diag, np.full(d, zero)], axis=1)
    rows, cols = np.triu_indices(d, 1)
    k = d + 2 * np.arange(rows.size)  # offset of each (x, y) pair
    idx[rows, cols] = np.stack([k + 1, neg + k], axis=1)
    idx[cols, rows] = np.stack([k + 1, k], axis=1)
    idx = idx.reshape(n, 2)
    idx.flags.writeable = False
    return idx


def _hermitian_generator(params: np.ndarray, d: int) -> np.ndarray:
    """Pack d^2 reals into the Hermitian d x d generator H (layout in
    `_generator_gather`) with one gather."""
    src = np.concatenate((params, -params, _ZERO))
    return src[_generator_gather(d)].view(complex).reshape(d, d)


def param_dim_unitary(d: int) -> int:
    return d * d


def unitary_from_params(params: np.ndarray, d: int) -> np.ndarray:
    params = np.asarray(params, dtype=float).reshape(-1)
    if params.size != d * d:
        raise ValueError(f"expected {d * d} parameters, got {params.size}")
    # exp(iH) via the spectral decomposition of H; much faster than a
    # general matrix exponential at these sizes.
    evals, vecs = np.linalg.eigh(_hermitian_generator(params, d))
    return (vecs * np.exp(1j * evals)) @ vecs.conj().T


def params_from_unitary(u: np.ndarray) -> np.ndarray:
    """Inverse of `unitary_from_params` (principal branch)."""
    d = u.shape[0]
    a = logm(u)
    a = 0.5 * (a - a.conj().T)  # project onto anti-Hermitian matrices
    params = np.empty(d * d)
    params[:d] = np.diag(a).imag
    upper = a[np.triu_indices(d, 1)]
    params[d::2] = upper.real
    params[d + 1::2] = upper.imag
    return params


def projective_stack(params: np.ndarray, d: int) -> np.ndarray:
    """Unvalidated (d, d, d) element stack of `projective_povm` (hot path)."""
    u = unitary_from_params(params, d)
    cols = u.T  # cols[i] = i-th column of u
    return np.ascontiguousarray(cols[:, :, None] * cols.conj()[:, None, :])


def projective_povm(params: np.ndarray, d: int) -> Povm:
    """Rank-1 projectors onto the columns of exp(antiHermitian(params))."""
    return Povm(tuple(projective_stack(params, d)))


def general_stack(params: np.ndarray, d: int, n_outcomes: int) -> np.ndarray:
    """Unvalidated (n, d, d) element stack of `general_povm` (hot path)."""
    u = unitary_from_params(params, n_outcomes)
    w = u[:, :d].conj()  # rows w[i] define the rank-1 elements
    return np.ascontiguousarray(w[:, :, None] * w.conj()[:, None, :])


def general_povm(params: np.ndarray, d: int, n_outcomes: int) -> Povm:
    """n rank-1 POVM elements from an n-dimensional parameterized unitary.

    The first d columns of U form an isometry W; element i is the projector
    onto the conjugated i-th row of W, so completeness follows from column
    orthonormality.  Requires n_outcomes >= d.
    """
    if n_outcomes < d:
        raise ValueError("need at least d outcomes for completeness")
    return Povm(tuple(general_stack(params, d, n_outcomes)))


def param_dim_general_povm(d: int, n_outcomes: int) -> int:
    return n_outcomes * n_outcomes


def _complete_isometry(w: np.ndarray) -> np.ndarray:
    """Extend an n x d matrix with orthonormal columns to an n x n unitary."""
    n, d = w.shape
    q, _ = np.linalg.qr(np.hstack([w, np.eye(n, dtype=complex)]))
    u = np.array(q[:, :n])
    # The first d columns of q span col(w) up to phases; substituting w keeps
    # the remaining columns orthogonal, hence u stays unitary.
    u[:, :d] = w
    return u


def embed_projective_in_general(povm: Povm, n_outcomes: int) -> np.ndarray:
    """Parameters putting a rank-1 projective POVM in the general family."""
    d = povm.dim
    if n_outcomes < povm.outcome_count:
        raise ValueError("general family has too few outcomes")
    w = np.zeros((n_outcomes, d), dtype=complex)
    for i, m in enumerate(povm.elements):
        evals, v = np.linalg.eigh(m)
        w[i] = (np.sqrt(max(evals[-1], 0.0)) * v[:, -1]).conj()
    return params_from_unitary(_complete_isometry(w))


def maximize(objective, param_dim: int, cfg: OptimizerConfig,
             seed_points=()) -> OptimizationResult:
    """Multi-start Nelder-Mead ascent of `objective` over R^param_dim.

    Seed points are evaluated directly (and polish-started when restart
    budget allows), so the result never undercuts any of them.  A restart
    whose objective goes non-finite is aborted and recorded.
    """
    best_val = -np.inf
    best_params = np.zeros(param_dim)
    n_evals = 0
    restart_values: list[float] = []
    diagnostics: list[str] = []

    class _NonFinite(Exception):
        pass

    restart_best = -np.inf

    def run_eval(x):
        nonlocal n_evals, best_val, best_params, restart_best
        n_evals += 1
        val = float(objective(x))
        if not np.isfinite(val):
            raise _NonFinite(f"objective returned {val}")
        if val > restart_best:
            restart_best = val
        if val > best_val:
            best_val = val
            best_params = np.array(x, dtype=float)
        return val

    seed_points = [np.asarray(s, dtype=float).reshape(-1) for s in seed_points]
    for s in seed_points:
        if s.size != param_dim:
            raise ValueError("seed point has wrong dimension")

    ss = np.random.SeedSequence(cfg.seed)
    streams = ss.spawn(cfg.restarts)

    starts = list(seed_points)
    for i in range(len(starts), cfg.restarts):
        rng = np.random.default_rng(streams[i])
        starts.append(rng.normal(scale=np.pi / 4, size=param_dim))

    # Direct evaluation of every seed point (dominance guarantee).
    for idx, s in enumerate(seed_points):
        restart_best = -np.inf
        try:
            run_eval(s)
            restart_values.append(restart_best)
        except _NonFinite as exc:
            restart_values.append(-np.inf)
            diagnostics.append(f"seed {idx}: {exc}")

    if param_dim > 0:
        for idx, x0 in enumerate(starts[:cfg.restarts]):
            restart_best = -np.inf
            try:
                minimize(
                    lambda x: -run_eval(x), x0, method="Nelder-Mead",
                    options={
                        "maxfev": cfg.max_evals,
                        "xatol": cfg.tol,
                        "fatol": cfg.tol,
                    },
                )
                restart_values.append(restart_best)
            except _NonFinite as exc:
                restart_values.append(
                    restart_best if np.isfinite(restart_best) else -np.inf)
                diagnostics.append(f"restart {idx}: {exc}")
    elif not seed_points:
        restart_values.append(run_eval(np.zeros(0)))

    return OptimizationResult(
        value=best_val,
        params=best_params,
        n_evals=n_evals,
        restart_values=tuple(restart_values),
        seed=cfg.seed,
        diagnostics=tuple(diagnostics),
    )
