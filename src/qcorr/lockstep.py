"""Lockstep ascent on isometries: the driver `minimize` and its step rule
`_Ascent`.

`minimize` runs many ascents of one batched objective at once; it keeps
its name because the benchmark's hooks look it up as
`qcorr.optimize.minimize`.  Every run is a monotone Riemannian gradient
ascent on a product of Stiefel manifolds: a point is one complex n x d
matrix per entry of `shapes`, and a matrix stands for its polar factor
(Edelman, Arias and Smith, "The geometry of algorithms with
orthogonality constraints", SIAM J. Matrix Anal. Appl. 20, 1998).
Points are per-party matrices everywhere, here too: the live runs'
points, tangent gradients and trial points are complex (k, p, n, d)
stacks, one stack of all p parties when they share a shape, else one
stack per party, held as their real views (`_flat`).  Only `maximize`'s
`params` serializes a point into reals.

The objective contract is the same for every search: it takes one
(k, n, d) isometry array per party and returns the k values and their
Euclidean gradients, one complex (k, n, d) array per party.  The driver
is the one place that turns points into isometries, with one batched SVD
per stack.  The polar factor of a trial point is its retraction, so an
accepted step costs no second SVD.

A round is array work on the stacks of all live runs at once: the polar
factors and the objective call, one tangent projection, the row dots the
step rule needs, one masked update of the points and gradients, and one
trial step x - t g up the objective (g is the tangent gradient of its
negative), the last three on the real views.  Only the step rule runs
per run, on Python floats.
There is a fixed number of rounds, and runs that stop early are
replaced, so every round evaluates as many points as the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

# ---------------------------------------------------------------------------
# Riemannian gradient ascent on isometries


_ARMIJO = 1e-4  # share of the predicted gain a step must achieve
_FIRST_STEP = 0.1  # Frobenius length of a restart's first trial step
_MAX_STEP = 1.0  # longest Barzilai-Borwein step, Frobenius length


def _as_parties(arrays, shapes, lead: tuple, what: str) -> list:
    """`arrays` as arrays of shapes lead + (n, d), one per (n, d) entry of
    `shapes`; a ValueError names both otherwise."""
    arrays = [np.asarray(a) for a in arrays]
    want = [lead + tuple(shape) for shape in shapes]
    if [a.shape for a in arrays] != want:
        raise ValueError(f"{what} has shapes {[a.shape for a in arrays]}, "
                         f"but isometry shapes {tuple(shapes)} need {want}")
    return arrays


def _stacks(parties: list, shapes) -> list:
    """The complex (k, p, n, d) stacks of k points from their (k, n, d)
    arrays, one per entry of `shapes`: one stack of all p parties when
    they share a shape, else one stack (p = 1) per party."""
    if len(shapes) > 1 and len(set(shapes)) == 1:
        out = np.empty((len(parties[0]), len(shapes), *shapes[0]), complex)
        for j, a in enumerate(parties):
            out[:, j] = a
        return [out]
    return [np.ascontiguousarray(a, dtype=complex)[:, None] for a in parties]


def _gathered(points, shapes) -> list:
    """The stacks of points given as sequences of per-party matrices."""
    points = [_as_parties(point, shapes, (), "point") for point in points]
    return _stacks([np.reshape([p[j] for p in points], (len(points), *shape))
                    for j, shape in enumerate(shapes)], shapes)


def _matrices(row: np.ndarray, shapes) -> tuple:
    """The per-party complex matrices, as views, of one point's real row
    (`_rows`): (re, im) pairs row by row, party after party."""
    z, ends = row.view(complex), [0, *accumulate(n * d for n, d in shapes)]
    return tuple(z[a:b].reshape(s) for a, b, s in zip(ends, ends[1:], shapes))


def _flat(stack: np.ndarray) -> np.ndarray:
    """The real (k, 2 p n d) view of a complex (k, p, n, d) stack: each
    point's (re, im) pairs row by row, party after party."""
    return stack.reshape(len(stack), -1).view(float)


def _rows(flats: list) -> np.ndarray:
    """The real (k, P) rows of the k points of several stacks' `_flat`
    views, party after party: the one view itself, or one concatenation."""
    return flats[0] if len(flats) == 1 else np.concatenate(flats, axis=-1)


def _polar(block: np.ndarray) -> np.ndarray:
    """The polar factor U V^dag (thin SVD) of every matrix of a stack."""
    u, _, vh = np.linalg.svd(block, full_matrices=False)
    return u @ vh


def _tangent(x: list, z: list) -> list:
    """Riemannian gradient g of -f at the isometry stacks x, for f with
    Euclidean gradient stacks z: W herm(W^dag Z) - Z per stack.  Stepping
    x - t g rounds as a descent of -f does, signed zeros included; x + t
    (Z - W herm(W^dag Z)) need not, where Z and its projection cancel."""
    wz = [w.conj().swapaxes(-1, -2) @ g for w, g in zip(x, z)]
    return [w @ ((s + s.conj().swapaxes(-1, -2)) / 2) - g
            for w, g, s in zip(x, z, wz)]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of the rows of two real (k, P) arrays, as k matrix
    products: each is bit for bit `np.vdot` of its two rows, which a
    pairwise-summed reduction such as `(a * b).sum(-1)` need not be."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


class _Ascent:
    """The step rule of one monotone Riemannian gradient ascent, on Python
    floats: the value f at the run's point, the trial step length t, the
    long step t_long, gg = g.g of the tangent gradient g of -f there
    (`_tangent`), whether t is a long step, and the count of accepted steps.

    The objective is taken at the polar factors W of each point.  Each step
    goes up along -g with a Barzilai-Borwein length
    (Barzilai and Borwein, "Two-point step size gradient methods", IMA J.
    Numer. Anal. 8, 1988), the long one s.s / |s.y| and the short one
    |s.y| / y.y in turn (Dai and Fletcher, Numer. Math. 100, 2005: the
    short steps spare the halvings a run of long ones costs), capped at
    `_MAX_STEP`, and is halved until the value rises by at least `_ARMIJO`
    times the predicted gain t |g|^2.  The trial point is W - t g itself:
    the driver's polar factor of it is the retraction.
    """

    __slots__ = ("f", "t", "t_long", "gg", "long_step", "accepted")

    def __init__(self):
        self.f = None

    def step(self, fy: float, dots, tol: float) -> tuple[bool, str | None]:
        """Take the value fy at the trial point, the start point first;
        `dots` holds g.g, s.s, s.y and y.y of the tangent gradient g there,
        the step s between the polar factors and the change y of the
        gradient.  Returns whether the point is accepted, and "converged"
        if the run stops before its next trial, else None: a run stops when
        an accepted long step gains at most `tol` or the next long step's
        predicted gain t |g|^2 is at most `tol` (a short step can predict
        too little, so it gives way to the long one first)."""
        gg, ss, sy, yy = dots
        accepted = True
        if self.f is None:
            self.f, self.gg, self.long_step, self.accepted = fy, gg, True, 0
            self.t = self.t_long = _FIRST_STEP / math.sqrt(gg) if gg else 0.0
        elif fy >= self.f + _ARMIJO * self.t * self.gg:
            gain, self.f = fy - self.f, fy
            if gain <= tol and self.long_step:
                return True, "converged"
            self.gg, sy = gg, abs(sy)
            t_long = t_short = _MAX_STEP / math.sqrt(gg) if gg else 0.0
            if sy:
                t_long = min(t_long, ss / sy)
                t_short = min(t_short, sy / yy)
            self.t_long = t_long
            self.accepted += 1
            self.long_step = self.accepted % 2 == 1
            self.t = t_long if self.long_step else t_short
        else:
            self.t *= 0.5
            accepted = False
        if self.t * self.gg <= tol and not self.long_step:
            self.t, self.long_step = self.t_long, True
        return accepted, None if self.t * self.gg > tol else "converged"


# ---------------------------------------------------------------------------
# The driver


@dataclass(frozen=True)
class LockstepResult:
    """Outcome of `minimize`, one entry per run (points, then restarts).

    `fun[i]` is the highest value run i reached before it stopped (-inf if
    none was finite) and `x[i]` the first point that reached it, one
    complex matrix per party (zeros if none).  A run stopped by a
    non-finite value records that value in `non_finite[i]` and counts it
    in `evals[i]`.
    """

    fun: np.ndarray
    x: tuple[tuple[np.ndarray, ...], ...]
    evals: tuple[int, ...]
    stops: tuple[str, ...]
    non_finite: tuple[float | None, ...]
    nfev: int


def minimize(fun, x0s, shapes: tuple, rounds: int, tol: float, points=(),
             refill=None) -> LockstepResult:
    """Lockstep ascent of a batched objective on isometries.

    The name is the benchmark's hook; the driver maximizes `fun`.  A point
    is a sequence of complex matrices, one per (rows, cols) entry of
    `shapes` (another shape raises ValueError).  `fun` takes the polar
    factors of k points, one (k, rows, cols) array per entry, and returns
    the k values and their Euclidean gradients, shaped as the polar
    factors (or a ValueError is raised); a point whose gradient is not
    finite counts as a non-finite value.  One ascent run (the rule of
    `_Ascent`, tolerance `tol`) starts from each point of `x0s`, and each
    of `points` is evaluated once.  Every round evaluates the one point
    each live run waits for in one `fun` call.  A non-finite value stops
    only the run it belongs to.

    There are `rounds` rounds (fewer only when no run is left): a run that
    stops sooner hands its slot to a new run from the point `refill()`
    returns, so `refill` is needed unless `x0s` is empty or every run
    lasts all the rounds, and the runs still live after the last round
    stop as "rounds".
    """
    points, x0s = list(points), list(x0s)
    ascents, best_f, best_x, evals, stops, non_finite = ([] for _ in range(6))
    zeros = np.zeros(sum(2 * n * d for n, d in shapes))  # no finite value

    def open_runs(n: int, ascend: bool = True) -> None:
        ascents.extend(_Ascent() if ascend else None for _ in range(n))
        for runs, blank in ((best_f, -np.inf), (best_x, zeros), (evals, 0),
                            (stops, ""), (non_finite, None)):
            runs.extend([blank] * n)

    open_runs(len(points), ascend=False)  # evaluated once
    open_runs(len(x0s))
    stacks = _gathered(points + x0s, shapes)
    forms = [b.shape[1:] for b in stacks]
    ids = list(range(len(evals)))  # the run of each trial point
    # The `_flat` views of each run's trial point y, of its point x and of
    # the tangent gradient g of -fun there (placeholders before a value).
    y = x = g = [_flat(b) for b in stacks]
    done = 0  # rounds so far

    while ids:
        k = len(ids)
        polar = [_polar(r.view(complex).reshape(k, *form))
                 for r, form in zip(y, forms)]
        values, grads = fun(*(p for w in polar for p in w.swapaxes(0, 1)))
        values = np.asarray(values, dtype=float)
        if values.shape != (k,):
            raise ValueError(
                f"objective returned shape {values.shape} for {k} points")
        grads = _stacks(_as_parties(grads, shapes, (k,), "objective gradient"),
                        shapes)
        finite = np.isfinite(_rows([_flat(z) for z in grads])).all(axis=-1)
        if not finite.all():
            # A non-finite value; zeros keep the row's unused work finite.
            values = np.where(finite, values, np.nan)
            grads = [np.where(finite[:, None, None, None], z, 0.0)
                     for z in grads]
        done += 1
        w_new = [_flat(w) for w in polar]
        g_new = [_flat(z) for z in _tangent(polar, grads)]
        gr, ys = _rows(g_new), _rows(y)
        s = _rows([a - b for a, b in zip(w_new, x)])
        dg = _rows([a - b for a, b in zip(g_new, g)])
        dots = zip(*(_row_dot(a, b).tolist() for a, b in (
            (gr, gr), (s, s), (s, dg), (dg, dg))))
        accepted = np.zeros(k, dtype=bool)
        steps = [0.0] * k
        keep, starts = [], []
        for j, (i, v, dot) in enumerate(zip(ids, values.tolist(), dots)):
            evals[i] += 1
            run = ascents[i]
            if not math.isfinite(v):
                non_finite[i] = v
                stop = "non-finite"
            else:
                if v > best_f[i]:
                    best_f[i], best_x[i] = v, ys[j].copy()
                if run is None:
                    stop = "evaluated"
                else:
                    accepted[j], stop = run.step(v, dot, tol)
            if stop is None:
                keep.append(j)
                steps[j] = run.t
                continue
            stops[i] = stop
            if i >= len(points) and done < rounds:
                starts.append(refill())
        if done >= rounds:
            for j in keep:
                stops[ids[j]] = "rounds"
            break

        mask = accepted[:, None]
        x = [np.where(mask, a, b) for a, b in zip(w_new, x)]
        g = [np.where(mask, a, b) for a, b in zip(g_new, g)]
        t = np.array(steps)[:, None]
        y = [a - t * b for a, b in zip(x, g)]
        if len(keep) < k:
            x, g, y = ([m[keep] for m in ms] for ms in (x, g, y))
        ids = [ids[j] for j in keep]
        if starts:
            ids += range(len(evals), len(evals) + len(starts))
            open_runs(len(starts))
            new = [_flat(b) for b in _gathered(starts, shapes)]
            x, g, y = ([np.concatenate(mc) for mc in zip(ms, new)]
                       for ms in (x, g, y))

    return LockstepResult(
        fun=np.array(best_f),
        x=tuple(_matrices(row, shapes) for row in best_x),
        evals=tuple(evals), stops=tuple(stops),
        non_finite=tuple(non_finite), nfev=sum(evals))
