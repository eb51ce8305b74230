"""Lockstep minimization: the driver `minimize` and its two step rules.

`minimize` runs many minimizations of one batched objective at once.  Each
run is a generator that hands out the points it needs next and receives
their values; every round gathers the points of all live runs into one
objective call.  Two step rules run this way:

- `_nelder_mead`, which takes scipy's Nelder-Mead steps exactly;
- `_stiefel_descent`, a monotone Riemannian gradient descent on products
  of Stiefel manifolds.  Its points are real arrays that pack one complex
  n x d matrix per entry of `shapes`, as (re, im) pairs row by row (the
  packing of `optimize.isometry_from_params`); a matrix stands for its
  polar factor (Edelman, Arias and Smith, "The geometry of algorithms with
  orthogonality constraints", SIAM J. Matrix Anal. Appl. 20, 1998).

One round costs one `concatenate` of the waiting points, one objective
call and one finiteness check, then per live run a comparison with its
best value and one step of its rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# Nelder-Mead


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


# ---------------------------------------------------------------------------
# Riemannian gradient descent on isometries


_ARMIJO = 1e-4  # share of the predicted decrease a step must achieve
_FIRST_STEP = 0.1  # Frobenius length of a restart's first trial step
_MAX_STEP = 1.0  # longest Barzilai-Borwein step, Frobenius length


def _party_blocks(x: np.ndarray, shapes) -> list:
    """Each party's block of the real (m, P) points x as a complex
    (m, p, n, d) view: one block for all p parties when they share a
    shape, else one block (p = 1) per party."""
    m = len(x)
    if len(set(shapes)) == 1:
        n, d = shapes[0]
        return [x.reshape(m, len(shapes), 2 * n * d).view(complex).reshape(
            m, len(shapes), n, d)]
    blocks, start = [], 0
    for n, d in shapes:
        block = x[:, None, start:start + 2 * n * d]
        blocks.append(block.view(complex).reshape(m, 1, n, d))
        start += 2 * n * d
    return blocks


def _packed(parts: list) -> np.ndarray:
    """Real (m, P) points from per-block complex (m, p, n, d) arrays."""
    m = len(parts[0])
    return np.concatenate([part.reshape(m, -1).view(float) for part in parts],
                          axis=-1)


def _retract(y: np.ndarray, shapes) -> np.ndarray:
    """The polar factor U V^dag (thin SVD) of every block of the (m, P)
    points y: the computation of `optimize.isometry_from_params`."""
    parts = []
    for block in _party_blocks(y, shapes):
        u, _, vh = np.linalg.svd(block, full_matrices=False)
        parts.append(u @ vh)
    return _packed(parts)


def _tangent(x: np.ndarray, z: np.ndarray, shapes) -> np.ndarray:
    """Riemannian gradient at the isometries x of a function with Euclidean
    gradient z: Z - W herm(W^dag Z) per block."""
    parts = []
    for w, g in zip(_party_blocks(x, shapes), _party_blocks(z, shapes)):
        s = w.conj().swapaxes(-1, -2) @ g
        parts.append(g - w @ ((s + s.conj().swapaxes(-1, -2)) / 2))
    return _packed(parts)


def _stiefel_descent(x0: np.ndarray, shapes, max_evals: int, tol: float):
    """One monotone Riemannian gradient descent from x0, as a generator.

    The objective is taken at the polar factors W of each point.  Each step
    goes along minus the tangent gradient with a Barzilai-Borwein length
    (Barzilai and Borwein, "Two-point step size gradient methods", IMA J.
    Numer. Anal. 8, 1988), capped at `_MAX_STEP`, and is halved until the
    value falls by at least `_ARMIJO` times the predicted decrease t |g|^2.
    The point handed out is W - t g itself: the objective's own polar
    factor is the retraction, and only an accepted point is retracted here.

    Each `yield` hands out a (1, P) array and receives its values and
    Euclidean gradients.  Stops as "converged" when an accepted step gains
    at most `tol` or the next step's predicted gain t |g|^2 is at most
    `tol`, and as "budget" after `max_evals` evaluations.
    """
    y = x0[None]
    f, z = yield y
    evals = 1
    x = _retract(y, shapes)
    g = _tangent(x, z, shapes)
    gg = float(np.vdot(g, g))
    t = _FIRST_STEP / math.sqrt(gg) if gg else 0.0
    while evals < max_evals:
        if t * gg <= tol:
            return "converged"
        y = x - t * g
        fy, zy = yield y
        evals += 1
        if fy[0] <= f[0] - _ARMIJO * t * gg:
            gain = f[0] - fy[0]
            x_new = _retract(y, shapes)
            g_new = _tangent(x_new, zy, shapes)
            s, dg = x_new - x, g_new - g
            x, f, g = x_new, fy, g_new
            if gain <= tol:
                return "converged"
            gg = float(np.vdot(g, g))
            sy = abs(float(np.vdot(s, dg)))
            t = _MAX_STEP / math.sqrt(gg) if gg else 0.0
            if sy:
                t = min(t, float(np.vdot(s, s)) / sy)
        else:
            t *= 0.5
    return "budget"


# ---------------------------------------------------------------------------
# The driver


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
             points: np.ndarray | None = None,
             isometries: tuple = ()) -> LockstepResult:
    """Lockstep minimization of a batched objective.

    `fun` maps a (k, n) array to k values.  One Nelder-Mead run starts
    from each row of `x0s` (budget `max_evals`, xatol = fatol = `tol`),
    and each row of `points` is evaluated once.  With `isometries`, the
    (rows, cols) shapes of the complex matrices a point packs, `fun`
    returns the k values and their (k, n) Euclidean gradients, and each
    run is a `_stiefel_descent` instead; a point whose gradient is not
    finite counts as a non-finite value.  Every round gathers the points
    all live runs wait for into one `fun` call.  A non-finite value stops
    only the run it belongs to.  `success` says every restart converged;
    `message` names the first reason one did not.
    """
    x0s = np.asarray(x0s, dtype=float)
    n = x0s.shape[1]
    points = np.empty((0, n)) if points is None else np.asarray(points, dtype=float)
    if isometries and sum(2 * r * c for r, c in isometries) != n:
        raise ValueError(f"isometry shapes {isometries} do not pack {n} parameters")
    runs = ([_evaluate_once(p) for p in points]
            + [_stiefel_descent(x0, isometries, max_evals, tol) if isometries
               else _nelder_mead(x0, max_evals, tol, tol) for x0 in x0s])
    n_runs = len(runs)
    best_f = np.full(n_runs, np.inf)
    best_x = np.zeros((n_runs, n))
    evals = [0] * n_runs
    stops = [""] * n_runs
    non_finite: list[float | None] = [None] * n_runs

    pending = {i: next(run) for i, run in enumerate(runs)}
    while pending:
        batch = np.concatenate(list(pending.values()))
        if isometries:
            values, grads = fun(batch)
            values = np.asarray(values, dtype=float)
            grads = np.ascontiguousarray(grads, dtype=float)
            if grads.shape != batch.shape:
                raise ValueError(f"objective returned gradients of shape "
                                 f"{grads.shape} for points {batch.shape}")
            values = np.where(np.isfinite(grads).all(axis=-1), values, np.nan)
        else:
            values = np.asarray(fun(batch), dtype=float)
        if values.shape != (len(batch),):
            raise ValueError(
                f"objective returned shape {values.shape} for {len(batch)} points")
        all_finite = np.isfinite(values).all()
        offset = 0
        for i, pts in list(pending.items()):
            m = len(pts)
            vals = values[offset:offset + m]
            sent = (vals, grads[offset:offset + m]) if isometries else vals
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
                pending[i] = runs[i].send(sent)
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
