"""Lockstep minimization on isometries: the driver `minimize` and its
step rule `_stiefel_descent`.

`minimize` runs many minimizations of one batched objective at once.  Each
run is a generator that hands out the one point it needs next and receives
its value; every round gathers the points of all live runs into one
objective call.  Every run is a monotone Riemannian gradient descent on a
product of Stiefel manifolds: its points are real arrays that pack one
complex n x d matrix per entry of `shapes`, as (re, im) pairs row by row
(the packing of `optimize.isometry_from_params`), and a matrix stands for
its polar factor (Edelman, Arias and Smith, "The geometry of algorithms
with orthogonality constraints", SIAM J. Matrix Anal. Appl. 20, 1998).

The objective contract is the same for every search: it takes one
(k, n, d) isometry array per party and returns the k values and their
Euclidean gradients.  The driver is the one place that turns points into
isometries: each round takes the polar factors of every waiting point,
with one batched SVD per distinct matrix shape, and sends each run its
polar factors along with its values and gradients.  The polar factor of a
trial point is its retraction, so an accepted step costs no second SVD.

One round costs one `concatenate` of the waiting points, one objective
call and one finiteness check, then per live run a comparison with its
best value and one step.  There is a fixed number of rounds, and runs
that stop early are replaced, so every round evaluates as many points as
the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _polar(block: np.ndarray) -> np.ndarray:
    """The polar factor U V^dag (thin SVD) of every matrix of a stack: the
    computation of `optimize.isometry_from_params`."""
    u, _, vh = np.linalg.svd(block, full_matrices=False)
    return u @ vh


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
    Numer. Anal. 8, 1988), the long one s.s / |s.y| and the short one
    |s.y| / y.y in turn (Dai and Fletcher, Numer. Math. 100, 2005: the
    short steps spare the halvings a run of long ones costs), capped at
    `_MAX_STEP`, and is halved until the value falls by at least `_ARMIJO`
    times the predicted decrease t |g|^2.  The point handed out is W - t g
    itself: the driver's polar factor of it is the retraction.

    Each `yield` hands out a (1, P) array and receives its values, its
    Euclidean gradients and its packed polar factors.  Stops as
    "converged" when an accepted long step gains at most `tol` or the next
    long step's predicted gain t |g|^2 is at most `tol` (a short step can
    predict too little), and as "budget" after `max_evals` evaluations.
    """
    f, z, x = yield x0[None]
    evals = 1
    g = _tangent(x, z, shapes)
    gg = float(np.vdot(g, g))
    t = t_long = _FIRST_STEP / math.sqrt(gg) if gg else 0.0
    long_step, accepted = True, 0
    while evals < max_evals:
        if t * gg <= tol:
            if long_step:
                return "converged"
            t, long_step = t_long, True
            continue
        fy, zy, x_new = yield x - t * g
        evals += 1
        if fy[0] <= f[0] - _ARMIJO * t * gg:
            gain = f[0] - fy[0]
            g_new = _tangent(x_new, zy, shapes)
            s, dg = x_new - x, g_new - g
            x, f, g = x_new, fy, g_new
            if gain <= tol and long_step:
                return "converged"
            gg = float(np.vdot(g, g))
            sy = abs(float(np.vdot(s, dg)))
            t_long = t_short = _MAX_STEP / math.sqrt(gg) if gg else 0.0
            if sy:
                t_long = min(t_long, float(np.vdot(s, s)) / sy)
                t_short = min(t_short, sy / float(np.vdot(dg, dg)))
            accepted += 1
            long_step = accepted % 2 == 1
            t = t_long if long_step else t_short
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
    and counts it in `evals[i]`.
    """

    fun: np.ndarray
    x: np.ndarray
    evals: tuple[int, ...]
    stops: tuple[str, ...]
    non_finite: tuple[float | None, ...]
    nfev: int
    success: bool
    message: str


def minimize(fun, x0s: np.ndarray, shapes: tuple, rounds: int,
             max_evals: int, tol: float, points: np.ndarray | None = None,
             refill=None) -> LockstepResult:
    """Lockstep minimization of a batched objective on isometries.

    The points are (k, n) real arrays that pack one complex matrix per
    (rows, cols) entry of `shapes`.  `fun` takes the polar factors of the
    k points, one (k, rows, cols) array per shape, and returns the k
    values and their (k, n) Euclidean gradients, packed as the points; a
    point whose gradient is not finite counts as a non-finite value.  One
    `_stiefel_descent` run (budget `max_evals`, tolerance `tol`) starts
    from each row of `x0s`, and each row of `points` is evaluated once.
    Every round gathers the one point each live run waits for into one
    `fun` call.  A non-finite value stops only the run it belongs to.

    There are `rounds` rounds (fewer only when no run is left): a run that
    stops sooner hands its slot to a new run from the point `refill()`
    returns, so `refill` is needed unless `x0s` is empty or every run
    lasts all the rounds, and the runs still live after the last round
    stop as "rounds".

    `success` says every restart converged; `message` names the first
    reason one did not.
    """
    x0s = np.asarray(x0s, dtype=float)
    n = x0s.shape[1]
    points = np.empty((0, n)) if points is None else np.asarray(points, dtype=float)
    if sum(2 * r * c for r, c in shapes) != n:
        raise ValueError(f"isometry shapes {shapes} do not pack {n} parameters")

    def start(x0):
        return _stiefel_descent(x0, shapes, max_evals, tol)

    runs = [_evaluate_once(p) for p in points] + [start(x0) for x0 in x0s]
    best_f = [np.inf] * len(runs)
    best_x = [np.zeros(n)] * len(runs)
    evals = [0] * len(runs)
    stops = [""] * len(runs)
    non_finite: list[float | None] = [None] * len(runs)
    pending = {i: next(run) for i, run in enumerate(runs)}
    done = 0  # rounds so far

    def stop(i, reason):
        stops[i] = reason
        del pending[i]
        if i >= len(points) and done < rounds:
            runs.append(start(refill()))
            best_f.append(np.inf)
            best_x.append(np.zeros(n))
            evals.append(0)
            stops.append("")
            non_finite.append(None)
            pending[len(runs) - 1] = next(runs[-1])

    while pending:
        batch = np.concatenate(list(pending.values()))
        blocks = [_polar(b) for b in _party_blocks(batch, shapes)]
        values, grads = fun(*(b[:, j] for b in blocks
                              for j in range(b.shape[1])))
        polar = _packed(blocks)
        values = np.asarray(values, dtype=float)
        grads = np.ascontiguousarray(grads, dtype=float)
        if values.shape != (len(batch),):
            raise ValueError(
                f"objective returned shape {values.shape} for {len(batch)} points")
        if grads.shape != batch.shape:
            raise ValueError(f"objective returned gradients of shape "
                             f"{grads.shape} for points {batch.shape}")
        values = np.where(np.isfinite(grads).all(axis=-1), values, np.nan)
        done += 1
        for j, i in enumerate(list(pending)):
            v = values[j]
            evals[i] += 1
            if not math.isfinite(v):
                non_finite[i] = float(v)
                runs[i].close()
                stop(i, "non-finite")
                continue
            if v < best_f[i]:
                best_f[i] = v
                best_x[i] = batch[j].copy()
            try:
                pending[i] = runs[i].send(
                    (values[j:j + 1], grads[j:j + 1], polar[j:j + 1]))
            except StopIteration as end:
                stop(i, end.value)
        if done >= rounds:
            for i in pending:
                runs[i].close()
                stops[i] = "rounds"
            pending.clear()

    restart_stops = stops[len(points):]
    if "rounds" in restart_stops:
        message = "The rounds ran out before every restart converged."
    elif "budget" in restart_stops:
        message = "Maximum number of function evaluations has been exceeded."
    elif "non-finite" in restart_stops:
        message = "A restart stopped on a non-finite objective value."
    else:
        message = "Optimization terminated successfully."
    return LockstepResult(
        fun=np.array(best_f), x=np.reshape(best_x, (len(runs), n)),
        evals=tuple(evals), stops=tuple(stops),
        non_finite=tuple(non_finite), nfev=sum(evals),
        success=all(s == "converged" for s in restart_stops), message=message)
