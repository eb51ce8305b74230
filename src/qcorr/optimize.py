"""Randomness, POVM parameterizations, and multi-start maximization.

`maximize` runs every restart of a search in lockstep as a monotone
Riemannian gradient ascent on isometries; the step rule and the driver
(`minimize`, an ascent despite the name) live in `lockstep`.

- The measurement searches (the projective and general POVM phases of
  I_CQ and I_CC, and so the discord bound) take one W per party.  The
  projective family is the n = d case, a unitary W whose conjugated rows
  give the d rank-1 projectors, and the general family has n > d rows.
  Both I_CQ and I_CC are smooth functions of W with closed-form gradients
  (the spectral-function derivative of Tr B log B is defined wherever the
  blocks B are, level crossings included).
- The broadcast search takes one Stinespring isometry
  V: C^d -> C^d (x) C^d (x) C^anc per party and climbs the smooth
  surrogate -sum_c ||C_c - rho||_F^2 of its copy marginals C_c, which is
  quadratic in each V.

Each restart steps along the tangent gradient with a Barzilai-Borwein
length, retracts with the polar factor, and halves the step until the
Armijo test passes, so every accepted step rises.  `maximize` gives every
search the same number of rounds, two per real parameter but at most
`max_evals`: a restart that converges early hands its slot to a new
random start, so a search costs the same on every state of a given size.

Runs are deterministic for a fixed seed: RNG streams are spawned per
restart, and user-supplied seed points are always evaluated directly, so
the returned value never falls below any seed.

Objectives are batched, and there is one contract: an objective takes the
points' isometries, one (k, n_p, d_p) array per party, and returns k
values and their Euclidean gradients, shaped as those isometries.  Points
are per-party matrices everywhere (seeds, random starts, the driver's
stacks and the winner); only `OptimizationResult.params` serializes one
into reals, in the layout `isometry_from_params` reads.  The driver
takes the polar factors with one batched SVD per distinct party shape,
so both I_CC parties share one when their shapes agree.  One objective
call evaluates every point the live restarts need next: the seed points
and the start point of each restart, then one trial point per restart.
The parameterizations below accept the same leading batch axes.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .channels import Povm
from .lockstep import _matrices, _polar, minimize
from .qstate import DensityMatrix, StateError, _as_layout


def _int_at_least(value, low: int) -> bool:
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low)


class ConfigRangeError(ValueError):
    """An `OptimizerConfig` value valid on its own but out of range for the
    state it is applied to, such as fewer POVM outcomes than a measured
    party's dimension."""


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
    # "non-finite" or "rounds").
    restart_evals: tuple[int, ...] = field(default=())
    restart_stops: tuple[str, ...] = field(default=())
    # Which start gave `value`: "seed i" or "restart i" (None if no value
    # was finite).
    winner: str | None = None
    # The winner's complex matrices, one per party, not serialized: views
    # of `params`, fit to seed another search.
    points: tuple[np.ndarray, ...] = field(default=(), repr=False,
                                           compare=False)

    @functools.cached_property
    def isometries(self) -> tuple[np.ndarray, ...]:
        """The polar factors of `points`, as `isometry_from_params` takes
        them (not serialized)."""
        return tuple(_polar(g) for g in self.points)

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

    Kept only for the benchmark's hooks until ROADMAP item 1 lands.

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
    (layout in `_generator_gather`) with one gather.

    Kept only for the benchmark's hooks until ROADMAP item 1 lands."""
    batch = params.shape[:-1]
    src = np.concatenate((params, -params, np.zeros(batch + (1,))), axis=-1)
    return np.take(src, _generator_gather(d), axis=-1).view(complex).reshape(
        batch + (d, d))


def unitary_from_params(params: np.ndarray, d: int) -> np.ndarray:
    """exp(iH) of the generator packed in `params`: (..., d^2) -> (..., d, d).

    Kept only for the benchmark's hooks until ROADMAP item 1 lands."""
    params = np.atleast_1d(np.asarray(params, dtype=float))
    if params.shape[-1] != d * d:
        raise ValueError(f"expected {d * d} parameters, got {params.shape[-1]}")
    # exp(iH) via the spectral decomposition of H; much faster than a
    # general matrix exponential at these sizes, and stacked generators
    # share one `eigh` call.
    evals, vecs = np.linalg.eigh(_hermitian_generator(params, d))
    phases = np.exp(1j * evals)[..., None, :]
    return (vecs * phases) @ vecs.conj().swapaxes(-1, -2)


def projective_stack(params: np.ndarray, d: int) -> np.ndarray:
    """Unvalidated (..., d, d, d) stacks of the rank-1 projectors onto the
    columns of `unitary_from_params(params, d)`.

    Kept only for the benchmark's hooks until ROADMAP item 1 lands.  The
    same POVM, validated, is `general_povm(x, d, d)` with x the packed
    U^dag of that unitary U."""
    u = unitary_from_params(params, d)
    cols = u.swapaxes(-1, -2)  # cols[..., i, :] = i-th column of u
    return np.ascontiguousarray(cols[..., :, None] * cols.conj()[..., None, :])


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
    return _polar(params.view(complex).reshape(params.shape[:-1] + (n, d)))


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


def maximize(objective, shapes, cfg: OptimizerConfig, seed_points=(),
             ascend_seeds: bool = True) -> OptimizationResult:
    """Multi-start lockstep Riemannian ascent of a batched objective.

    `shapes` holds the (n, d) shapes of the complex matrices of a point,
    one per party (an empty `shapes` raises ValueError), and `param_dim` =
    sum 2 n d.  `objective(*ws)` takes the polar factors of k points, one
    (k, n, d) array per party, and returns the k values and their Euclidean
    gradients, shaped as the ws.  A point is a sequence of complex (n, d)
    matrices, one per party: the seed points, the random starts and the
    winner alike.  Another shape of a gradient or a seed matrix raises
    ValueError.  Seed points are evaluated directly, so the result never
    undercuts any of them, and take the first of the `cfg.restarts`
    restart slots; they start the restarts in those slots unless
    `ascend_seeds` is False, which leaves those slots empty.  The other
    slots start at random points.  A restart whose objective goes
    non-finite is aborted and recorded; the others run on.  Ties go to
    the earliest seed, then the earliest restart, as if the restarts ran
    one after another.  The result carries the winner per party: its
    matrices (`points`) and their polar factors (`isometries`); only
    `params` serializes it into reals.

    The search makes min(2 param_dim, `cfg.max_evals`) objective calls
    (one when no slot runs a restart): a restart that stops sooner hands
    its slot to a restart from a new random point (see
    `lockstep.minimize`), so the cost is set by the slots and the shapes
    alone, and the restarts still running after the last call stop as
    "rounds".
    """
    shapes = tuple(shapes)
    if not shapes:
        raise ValueError("maximize needs at least one isometry shape")
    param_dim = sum(2 * n * d for n, d in shapes)
    ss = np.random.SeedSequence(cfg.seed)
    streams = ss.spawn(cfg.restarts)

    def random_start(stream):
        rng = np.random.default_rng(stream)
        return _matrices(rng.normal(scale=np.pi / 4, size=param_dim), shapes)

    seed_points = list(seed_points)
    n_seeds = len(seed_points)
    starts = (seed_points if ascend_seeds else []) + [
        random_start(s) for s in streams[n_seeds:]]
    res = minimize(objective, starts[:cfg.restarts], shapes,
                   min(2 * param_dim, cfg.max_evals), cfg.tol,
                   points=seed_points,
                   refill=lambda: random_start(ss.spawn(1)[0]))
    names = ([f"seed {i}" for i in range(n_seeds)]
             + [f"restart {i}" for i in range(len(res.evals) - n_seeds)])
    best = int(np.argmax(res.fun))  # the earliest of the highest values
    # The one packing: zeros when no value was finite.
    params = np.concatenate([p.reshape(-1) for p in res.x[best]]).view(float)
    diagnostics = tuple(f"{name}: objective returned {bad}"
                        for name, bad in zip(names, res.non_finite)
                        if bad is not None)
    return OptimizationResult(
        value=float(res.fun[best]),
        params=params,
        n_evals=res.nfev,
        restart_values=tuple(float(f) for f in res.fun),
        seed=cfg.seed,
        diagnostics=diagnostics,
        restart_evals=res.evals[n_seeds:],
        restart_stops=res.stops[n_seeds:],
        winner=names[best] if res.fun[best] > -np.inf else None,
        points=_matrices(params, shapes),
    )
