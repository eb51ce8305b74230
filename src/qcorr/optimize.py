"""Randomness, POVM parameterizations, and multi-start maximization.

`maximize` runs every restart of a search in lockstep, with one of two
step rules:

- Nelder-Mead (derivative-free) for the projective POVM phases and the
  broadcast search.  Their points pass through exp(iH) of a Hermitian
  generator, whose derivative needs the divided differences of H's
  spectrum, and the broadcast residual is a trace norm, which is not smooth
  where its argument is singular.  Each restart takes scipy's Nelder-Mead
  steps exactly.
- Riemannian gradient ascent for the general POVM phases.  Their points
  are isometries W (`isometry_from_params`), and both I_CQ and I_CC are
  smooth functions of W with closed-form gradients (the spectral-function
  derivative of Tr B log B is defined wherever the blocks B are, level
  crossings included).  Each restart steps along the tangent gradient
  with a Barzilai-Borwein length, retracts with the polar factor, and
  halves the step until the Armijo test passes, so every accepted step
  rises.  It needs tens of evaluations where Nelder-Mead uses hundreds.

Both step rules and the lockstep driver `minimize` live in `lockstep`.

Runs are deterministic for a fixed seed: RNG streams are spawned per
restart, and user-supplied seed points are always evaluated directly, so
the returned value never falls below any seed.

Objectives are batched: they map a (k, n) array of points to k values (or,
for the gradient rule, to k values and a (k, n) array of gradients).  One
objective call evaluates every point the live restarts need next: the
seed points, then the whole initial simplex or the start point of each
restart, then one trial point (or one shrunk simplex) per restart.  The
parameterizations below accept the same leading batch axes.

Per-call overhead, not FLOPs, sets the speed at these sizes, so the
objectives stack work instead of looping: the two-party I_CC objectives
parameterize both parties in one call when their shapes agree.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .channels import Povm
from .classify import joint_diagonalize
from .lockstep import minimize
from .qstate import DensityMatrix, StateError, _as_layout


def _int_at_least(value, low: int) -> bool:
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low)


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
        for name, low in (("seed", 0), ("restarts", 1), ("max_evals", 1)):
            value = getattr(self, name)
            if not _int_at_least(value, low):
                raise ValueError(
                    f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("outcome_count", "ancilla_dim"):
            value = getattr(self, name)
            if value is not None and not _int_at_least(value, 1):
                raise ValueError(
                    f"{name} must be None or an integer >= 1, got {value!r}")
        tol = self.tol
        if not (isinstance(tol, numbers.Real) and not isinstance(tol, bool)
                and math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be a finite number > 0, got {tol!r}")

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
    # Seed points first, then the restarts.
    restart_values: tuple[float, ...]
    seed: int
    diagnostics: tuple[str, ...] = field(default=())
    # Per restart: evaluations used and why it stopped ("converged",
    # "budget" or "non-finite").
    restart_evals: tuple[int, ...] = field(default=())
    restart_stops: tuple[str, ...] = field(default=())
    # Which start gave `value`: "seed i" or "restart i" (None if no value
    # was finite).
    winner: str | None = None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "params": [float(x) for x in np.asarray(self.params).reshape(-1)],
            "n_evals": self.n_evals,
            "restart_values": list(self.restart_values),
            "seed": self.seed,
            "diagnostics": list(self.diagnostics),
            "restart_evals": list(self.restart_evals),
            "restart_stops": list(self.restart_stops),
            "winner": self.winner,
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
    """Pack (..., d^2) reals into Hermitian (..., d, d) generators H
    (layout in `_generator_gather`) with one gather."""
    batch = params.shape[:-1]
    src = np.concatenate((params, -params, np.zeros(batch + (1,))), axis=-1)
    return np.take(src, _generator_gather(d), axis=-1).view(complex).reshape(
        batch + (d, d))


def param_dim_unitary(d: int) -> int:
    return d * d


def unitary_from_params(params: np.ndarray, d: int) -> np.ndarray:
    """exp(iH) of the generator packed in `params`: (..., d^2) -> (..., d, d)."""
    params = np.atleast_1d(np.asarray(params, dtype=float))
    if params.shape[-1] != d * d:
        raise ValueError(f"expected {d * d} parameters, got {params.shape[-1]}")
    # exp(iH) via the spectral decomposition of H; much faster than a
    # general matrix exponential at these sizes, and stacked generators
    # share one `eigh` call.
    evals, vecs = np.linalg.eigh(_hermitian_generator(params, d))
    phases = np.exp(1j * evals)[..., None, :]
    return (vecs * phases) @ vecs.conj().swapaxes(-1, -2)


def params_from_unitary(u: np.ndarray) -> np.ndarray:
    """Inverse of `unitary_from_params` (phases taken in (-pi, pi]).

    U is normal, so its Hermitian parts (U + U^dag)/2 and (U - U^dag)/2i
    commute; their common eigenbasis J diagonalizes U, and H is
    J diag(angle(J^dag U J)) J^dag.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    uh = u.conj().T
    j = joint_diagonalize([(u + uh) / 2, (u - uh) / 2j])
    theta = np.angle(np.diag(j.conj().T @ u @ j))
    a = 1j * (j * theta) @ j.conj().T  # A = iH
    params = np.empty(d * d)
    params[:d] = np.diag(a).imag
    upper = a[np.triu_indices(d, 1)]
    params[d::2] = upper.real
    params[d + 1::2] = upper.imag
    return params


def projective_stack(params: np.ndarray, d: int) -> np.ndarray:
    """Unvalidated (..., d, d, d) element stacks of `projective_povm`
    (hot path)."""
    u = unitary_from_params(params, d)
    cols = u.swapaxes(-1, -2)  # cols[..., i, :] = i-th column of u
    return np.ascontiguousarray(cols[..., :, None] * cols.conj()[..., None, :])


def projective_povm(params: np.ndarray, d: int) -> Povm:
    """Rank-1 projectors onto the columns of exp(antiHermitian(params))."""
    return Povm(tuple(projective_stack(params, d)))


def isometry_from_params(params: np.ndarray, n: int, d: int) -> np.ndarray:
    """Polar factor W = G (G^dag G)^{-1/2} of the complex n x d matrix G
    packed in `params` as (re, im) pairs, row by row:
    (..., 2nd) -> (..., n, d).

    Computed as u @ vh of a thin SVD of G, which is an isometry to
    rounding whatever G's conditioning; an isometric G comes back as is.
    """
    params = np.ascontiguousarray(np.atleast_1d(params), dtype=float)
    if params.shape[-1] != 2 * n * d:
        raise ValueError(
            f"expected {2 * n * d} parameters, got {params.shape[-1]}")
    g = params.view(complex).reshape(params.shape[:-1] + (n, d))
    u, _, vh = np.linalg.svd(g, full_matrices=False)
    return u @ vh


def isometry_stack(w: np.ndarray) -> np.ndarray:
    """(..., n, d, d) projectors onto the conjugated rows of (..., n, d)
    isometries: the elements of the general POVM family (hot path)."""
    w = w.conj()
    return np.ascontiguousarray(w[..., :, None] * w.conj()[..., None, :])


def general_stack(params: np.ndarray, d: int, n_outcomes: int) -> np.ndarray:
    """Unvalidated (..., n, d, d) element stacks of `general_povm` (hot path)."""
    return isometry_stack(isometry_from_params(params, n_outcomes, d))


def general_povm(params: np.ndarray, d: int, n_outcomes: int) -> Povm:
    """n rank-1 POVM elements from a parameterized n x d isometry.

    W = `isometry_from_params(params, n, d)` has orthonormal columns;
    element i is the projector onto the conjugated i-th row of W, so
    completeness follows from W^dag W = I.  Requires n_outcomes >= d.
    """
    if n_outcomes < d:
        raise ValueError("need at least d outcomes for completeness")
    return Povm(tuple(general_stack(params, d, n_outcomes)))


def param_dim_general_povm(d: int, n_outcomes: int) -> int:
    return 2 * n_outcomes * d


def embed_projective_in_general(povm: Povm, n_outcomes: int) -> np.ndarray:
    """Parameters putting a rank-1 projective POVM in the general family:
    G's row i is the conjugated vector of element i, and rows past the
    POVM's outcomes are zero."""
    d = povm.dim
    if n_outcomes < povm.outcome_count:
        raise ValueError("general family has too few outcomes")
    w = np.zeros((n_outcomes, d), dtype=complex)
    for i, m in enumerate(povm.elements):
        evals, v = np.linalg.eigh(m)
        w[i] = (np.sqrt(max(evals[-1], 0.0)) * v[:, -1]).conj()
    return w.view(float).reshape(-1)



def maximize(objective, param_dim: int, cfg: OptimizerConfig,
             seed_points=(), isometries: tuple = ()) -> OptimizationResult:
    """Multi-start lockstep ascent of a batched objective over R^param_dim.

    `objective` maps a (k, param_dim) array to k values, and the restarts
    are Nelder-Mead runs.  With `isometries`, the (n, d) shapes of the
    complex matrices each point packs (as in `isometry_from_params`), it
    returns the k values and their (k, param_dim) Euclidean gradients at
    the polar factors of those matrices, and the restarts are monotone
    Riemannian gradient ascents on the isometries.  Seed points are
    evaluated directly (and start restarts while restarts remain), so the
    result never undercuts any of them.  A restart whose objective goes
    non-finite is aborted and recorded; the others run on.  Ties go to the
    earliest seed, then the earliest restart, as if the restarts ran one
    after another.
    """
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
    if param_dim > 0:
        starts = starts[:cfg.restarts]
    else:
        starts = [] if seed_points else [np.zeros(0)]

    if isometries:
        def negated(x):
            values, grads = objective(x)
            return (-np.asarray(values, dtype=float),
                    -np.asarray(grads, dtype=float))
    else:
        def negated(x):
            return -np.asarray(objective(x), dtype=float)

    res = minimize(negated, np.reshape(starts, (len(starts), param_dim)),
                   cfg.max_evals, cfg.tol,
                   points=np.reshape(seed_points, (len(seed_points), param_dim)),
                   isometries=tuple(isometries))

    n_seeds = len(seed_points)
    names = ([f"seed {i}" for i in range(n_seeds)]
             + [f"restart {i}" for i in range(len(starts))])
    best_val = -np.inf
    best_params = np.zeros(param_dim)
    winner = None
    restart_values = []
    for name, f, x in zip(names, res.fun, res.x):
        val = float(-f)
        restart_values.append(val)
        if val > best_val:
            best_val, best_params, winner = val, x, name
    diagnostics = tuple(f"{name}: objective returned {-bad}"
                        for name, bad in zip(names, res.non_finite)
                        if bad is not None)
    return OptimizationResult(
        value=best_val,
        params=best_params,
        n_evals=res.nfev,
        restart_values=tuple(restart_values),
        seed=cfg.seed,
        diagnostics=diagnostics,
        restart_evals=res.evals[n_seeds:],
        restart_stops=res.stops[n_seeds:],
        winner=winner,
    )
