"""Randomness, POVM parameterizations, and derivative-free maximization.

The maximizer is a multi-start Nelder-Mead ascent.  Objectives involve
eigendecompositions with non-smooth level crossings, so derivative-free
search is used throughout.  Runs are deterministic for a fixed seed: RNG
streams are spawned per restart, and user-supplied seed points are always
evaluated directly, so the returned value never falls below any seed.

Objectives are batched: they map a (k, n) array of points to k values.
All restarts advance in lockstep, so one objective call evaluates every
point the restarts need next: the seed points and whole initial simplices
at the start, then one trial point or one shrunk simplex per restart.
The parameterizations below accept the same leading batch axes.

One round costs one `concatenate` of the waiting points, one objective
call and one finiteness check, then per live restart a comparison with
its best value and one Nelder-Mead step: a scalar convergence test, the
centroid and the trial point (four array operations), and the argsort with
two takes that keep the simplex sorted.  Per-call overhead, not FLOPs,
sets the speed at these sizes, so the objectives stack work instead of
looping: the two-party I_CC objectives parameterize both parties in one
call when their shapes agree.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .channels import Povm
from .classify import joint_diagonalize
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
    # Seed points first, then the Nelder-Mead restarts.
    restart_values: tuple[float, ...]
    seed: int
    diagnostics: tuple[str, ...] = field(default=())
    # Per Nelder-Mead restart: evaluations used and why it stopped
    # ("converged", "budget" or "non-finite").
    restart_evals: tuple[int, ...] = field(default=())
    restart_stops: tuple[str, ...] = field(default=())

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


def general_stack(params: np.ndarray, d: int, n_outcomes: int) -> np.ndarray:
    """Unvalidated (..., n, d, d) element stacks of `general_povm` (hot path)."""
    w = isometry_from_params(params, n_outcomes, d).conj()
    return np.ascontiguousarray(w[..., :, None] * w.conj()[..., None, :])


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



# ---------------------------------------------------------------------------
# Lockstep Nelder-Mead


def _nelder_mead(x0: np.ndarray, max_evals: int, xatol: float, fatol: float):
    """One Nelder-Mead minimization from x0, as a generator.

    Takes exactly the steps of scipy's `minimize(method="Nelder-Mead")`
    with options maxfev, xatol and fatol: the same initial simplex (5 %
    steps, 0.00025 for zero coordinates), coefficients 1, 2, 1/2, 1/2,
    argsort reordering and stopping rules, so for the same values it
    evaluates the same points.  Each `yield` hands out an (m, n) array of
    points and receives their m values; the return value is the reason
    it stopped: "converged" or "budget".
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    diag = np.arange(n)
    sim[diag + 1, diag] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = np.full(n + 1, np.inf)
    fcalls = min(n + 1, max_evals)
    fsim[:fcalls] = yield sim[:fcalls]
    if n == 0:
        return "converged"
    # scipy sorts twice before its first iteration; with tied values a
    # second argsort need not be the identity.
    for _ in range(2):
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind)

    while fcalls < max_evals:
        # Both tests must hold; the cheap one goes first.  fsim is sorted
        # and rounding is monotone, so scipy's max|fsim[0] - fsim[1:]| is
        # the last difference.
        if (fsim[-1] - fsim[0] <= fatol
                and np.abs(sim[1:] - sim[0]).max() <= xatol):
            return "converged"
        xbar = np.add.reduce(sim[:-1], 0) / n
        # scipy's coefficient products, with the exact factors rho = 1
        # left out.
        xr = (1 + rho) * xbar - sim[-1]
        fxr, = yield xr[None]
        fcalls += 1
        if fxr < fsim[0]:
            if fcalls >= max_evals:
                return "budget"
            xe = (1 + chi) * xbar - chi * sim[-1]
            fxe, = yield xe[None]
            fcalls += 1
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fcalls >= max_evals:
                return "budget"
            if fxr < fsim[-1]:
                xc = (1 + psi) * xbar - psi * sim[-1]
                fxc, = yield xc[None]
                fcalls += 1
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc, = yield xcc[None]
                fcalls += 1
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                # scipy evaluates the shrunk vertices one by one until the
                # budget runs out; they do not depend on each other.
                m = min(n, max_evals - fcalls)
                if m == 0:
                    return "budget"
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fsim[1:m + 1] = yield sim[1:m + 1]
                fcalls += m
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind)
    return "budget"


def _evaluate_once(x: np.ndarray):
    yield x[None]
    return "evaluated"


@dataclass(frozen=True)
class LockstepResult:
    """Outcome of `minimize`, one entry per run (points, then restarts).

    `fun[i]` is the lowest value run i reached before it stopped (inf if
    none was finite) and `x[i]` the first point that reached it.  A run
    stopped by a non-finite value records that value in `non_finite[i]`
    and counts it in `evals[i]`; its later points are not counted.
    """

    fun: np.ndarray
    x: np.ndarray
    evals: tuple[int, ...]
    stops: tuple[str, ...]
    non_finite: tuple[float | None, ...]
    nfev: int
    success: bool
    message: str


def minimize(fun, x0s: np.ndarray, max_evals: int, tol: float,
             points: np.ndarray | None = None) -> LockstepResult:
    """Lockstep Nelder-Mead minimization of a batched objective.

    `fun` maps a (k, n) array to k values.  One Nelder-Mead run starts
    from each row of `x0s` (budget `max_evals`, xatol = fatol = `tol`),
    and each row of `points` is evaluated once.  Every round gathers the
    points all live runs wait for into one `fun` call.  A non-finite
    value stops only the run it belongs to.  `success` says every
    restart converged; `message` names the first reason one did not.
    """
    x0s = np.asarray(x0s, dtype=float)
    n = x0s.shape[1]
    points = np.empty((0, n)) if points is None else np.asarray(points, dtype=float)
    runs = ([_evaluate_once(p) for p in points]
            + [_nelder_mead(x0, max_evals, tol, tol) for x0 in x0s])
    n_runs = len(runs)
    best_f = np.full(n_runs, np.inf)
    best_x = np.zeros((n_runs, n))
    evals = [0] * n_runs
    stops = [""] * n_runs
    non_finite: list[float | None] = [None] * n_runs

    pending = {i: next(run) for i, run in enumerate(runs)}
    while pending:
        batch = np.concatenate(list(pending.values()))
        values = np.asarray(fun(batch), dtype=float)
        if values.shape != (len(batch),):
            raise ValueError(
                f"objective returned shape {values.shape} for {len(batch)} points")
        all_finite = np.isfinite(values).all()
        offset = 0
        for i, pts in list(pending.items()):
            m = len(pts)
            vals = values[offset:offset + m]
            offset += m
            if m == 1 and all_finite:
                # The usual round: one finite trial point.
                v = vals[0]
                if v < best_f[i]:
                    best_f[i] = v
                    best_x[i] = pts[0]
            else:
                bad = np.flatnonzero(~np.isfinite(vals))
                good = int(bad[0]) if len(bad) else m  # values before a non-finite one
                if good:
                    j = int(vals[:good].argmin())
                    if vals[j] < best_f[i]:
                        best_f[i] = vals[j]
                        best_x[i] = pts[j]
                if len(bad):
                    evals[i] += good + 1
                    non_finite[i] = float(vals[good])
                    stops[i] = "non-finite"
                    runs[i].close()
                    del pending[i]
                    continue
            evals[i] += m
            try:
                pending[i] = runs[i].send(vals)
            except StopIteration as stop:
                stops[i] = stop.value
                del pending[i]

    restart_stops = stops[len(points):]
    if "budget" in restart_stops:
        message = "Maximum number of function evaluations has been exceeded."
    elif "non-finite" in restart_stops:
        message = "A restart stopped on a non-finite objective value."
    else:
        message = "Optimization terminated successfully."
    return LockstepResult(
        fun=best_f, x=best_x, evals=tuple(evals), stops=tuple(stops),
        non_finite=tuple(non_finite), nfev=sum(evals),
        success=all(s == "converged" for s in restart_stops), message=message)


def maximize(objective, param_dim: int, cfg: OptimizerConfig,
             seed_points=()) -> OptimizationResult:
    """Multi-start Nelder-Mead ascent of a batched objective over R^param_dim.

    `objective` maps a (k, param_dim) array to k values.  Seed points are
    evaluated directly (and polish-started when restart budget allows), so
    the result never undercuts any of them.  A restart whose objective goes
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

    res = minimize(lambda x: -np.asarray(objective(x), dtype=float),
                   np.reshape(starts, (len(starts), param_dim)),
                   cfg.max_evals, cfg.tol,
                   points=np.reshape(seed_points, (len(seed_points), param_dim)))

    best_val = -np.inf
    best_params = np.zeros(param_dim)
    restart_values = []
    for f, x in zip(res.fun, res.x):
        val = float(-f)
        restart_values.append(val)
        if val > best_val:
            best_val, best_params = val, x
    n_seeds = len(seed_points)
    names = ([f"seed {i}" for i in range(n_seeds)]
             + [f"restart {i}" for i in range(len(starts))])
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
    )
