"""Lockstep ascent on isometries: the driver `minimize` and its step rule
`_Ascent`.

`minimize` runs many ascents of one batched objective at once; it keeps
its name because the benchmark's hooks look it up as
`qcorr.optimize.minimize`.  Every run is a monotone Riemannian gradient
ascent on a product of Stiefel manifolds: a point is one complex n x d
matrix per entry of `shapes`, and a matrix stands for its polar factor
(Edelman, Arias and Smith, "The geometry of algorithms with
orthogonality constraints", SIAM J. Matrix Anal. Appl. 20, 1998).
Callers hand the driver per-party matrices, but it keeps each point as
one real row, the layout of `OptimizationResult.params`: (re, im) pairs
row by row, party after party.  The live runs' trial points, points and
gradients are real (k, P) arrays, and the complex (k, p, n, d) stacks
the SVD and the tangent projection work on are views of them: one stack
of all p parties when they share a shape, else one per party.

The objective contract is the same for every search: it takes one
(k, n, d) isometry array per party and returns the k values and their
Euclidean gradients, one complex (k, n, d) array per party.  The
isometries are views into arrays the driver holds and rewrites every
round, so they are valid only during the call: an objective copies
whatever it keeps.  The driver is the one place that turns points into
isometries, with one batched SVD per stack.  The polar factor of a trial
point is its retraction, so an accepted step costs no second SVD.

A round is array work on the rows of all live runs at once: the polar
factors and the objective call, one tangent projection, the row dots the
step rule needs, one masked update of the points and gradients, and one
trial step x - t g up the objective (g is the tangent gradient of its
negative).  Only the step rule runs per run, on Python floats.  The
round's arrays are held per batch size k: the polar factors, the
gradients, and one (k, 3, P) array of the tangent gradients g, the steps
s and the gradient changes dg, whose four dots g.g, s.s, s.dg and dg.dg
come from one pairwise product (k, 4, 1, P) @ (k, 4, P, 1).  Each of its
entries is one row times one column, which numpy hands to the same dot
kernel as `np.vdot`, so the dots keep its bits; a Gram product
(k, 3, P) @ (k, P, 3) rounds some of them differently.
There is a fixed number of rounds, and a run that stops early hands its
slot, in place, to a new run from the real row `refill()` returns, so
every round evaluates as many points as the first.
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


def _layout(shapes) -> list:
    """Where the complex (k, p, n, d) stacks lie in a point's row, as
    (first, end, (p, n, d)) in complex entries: one stack of all p parties
    when they share a shape, else one stack (p = 1) per party."""
    if len(shapes) > 1 and len(set(shapes)) == 1:
        (n, d), p = shapes[0], len(shapes)
        return [(0, p * n * d, (p, n, d))]
    ends = [0, *accumulate(n * d for n, d in shapes)]
    return [(a, b, (1, *s)) for a, b, s in zip(ends, ends[1:], shapes)]


def _stack_views(rows: np.ndarray, layout: list) -> list:
    """The complex stacks of k points' real (k, P) rows, as views."""
    z = rows.view(complex)
    return [z[:, a:b].reshape(len(z), *form) for a, b, form in layout]


def _party_views(stacks: list) -> list:
    """The per-party (k, n, d) views of complex (k, p, n, d) stacks."""
    return [m for stack in stacks for m in stack.swapaxes(0, 1)]


def _matrices(row: np.ndarray, shapes) -> tuple:
    """The per-party complex matrices, as views, of one point's real row:
    (re, im) pairs row by row, party after party."""
    return tuple(m[0] for m in _party_views(
        _stack_views(row[None], _layout(shapes))))


def _gathered(points, shapes, layout: list) -> np.ndarray:
    """The real (k, P) rows of k points given as per-party matrices."""
    points = [_as_parties(point, shapes, (), "point") for point in points]
    rows = np.empty((len(points), sum(2 * n * d for n, d in shapes)))
    for view, party in zip(_party_views(_stack_views(rows, layout)),
                           zip(*points)):
        view[...] = party
    return rows


def _polar(block: np.ndarray, out=None) -> np.ndarray:
    """The polar factor U V^dag (thin SVD) of every matrix of a stack,
    written into `out` if it is given."""
    u, _, vh = np.linalg.svd(block, full_matrices=False)
    return np.matmul(u, vh, out=out)


def _tangent(x: list, z: list, out=None) -> list:
    """Riemannian gradient g of -f at the isometry stacks x, for f with
    Euclidean gradient stacks z: W herm(W^dag Z) - Z per stack, written
    into the stacks `out` if they are given.  Stepping x - t g rounds as
    a descent of -f does, signed zeros included; x + t (Z - W herm(W^dag
    Z)) need not, where Z and its projection cancel."""
    tangents = []
    for w, g, o in zip(x, z, out or [None] * len(x)):
        s = w.conj().swapaxes(-1, -2) @ g
        # herm(s) = (s + s^dag) / 2, formed in place.
        s += s.conj().swapaxes(-1, -2)
        s /= 2
        tangents.append(np.subtract(w @ s, g, out=o))
    return tangents


# The rows of the (k, 3, P) round array (g, s, dg) that the four dots of
# `_Ascent.step` pair: g.g, s.s, s.dg and dg.dg.
_LEFT, _RIGHT = [0, 1, 1, 2], [0, 1, 2, 2]


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
    none was finite) and `x[i]` the first point that reached it, as its
    real row (zeros if none; `_matrices` reads it).  A run stopped by a
    non-finite value records that value in `non_finite[i]` and counts it
    in `evals[i]`.
    """

    fun: np.ndarray
    x: tuple[np.ndarray, ...]
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
    finite counts as a non-finite value.  The polar factors are views into
    arrays the driver holds and rewrites every round: they are valid only
    during the call, so `fun` must copy whatever it keeps of them.  One
    ascent run (the rule of `_Ascent`, tolerance `tol`) starts from each
    point of `x0s`, and each of `points` is evaluated once.  Every round
    evaluates the one point each live run waits for in one `fun` call.  A
    non-finite value stops only the run it belongs to.

    There are `rounds` rounds (fewer only when no run is left): a run that
    stops sooner hands its slot to a new run from the point `refill()`
    returns, as a real row in the layout of `LockstepResult.x`, so
    `refill` is needed unless `x0s` is empty or every run lasts all the
    rounds, and the runs still live after the last round stop as
    "rounds".
    """
    points, x0s = list(points), list(x0s)
    ascents, best_f, best_x, evals, stops, non_finite = ([] for _ in range(6))
    size, layout = sum(2 * n * d for n, d in shapes), _layout(shapes)
    zeros = np.zeros(size)  # no finite value
    held = {}  # k -> the round arrays of k live runs, see `round_arrays`

    def round_arrays(k: int) -> tuple:
        """The round arrays of k runs, held per k and rewritten every
        round: the rows of the polar factors w and of the objective's
        gradients z there; the (k, 3, P) rows of the tangent gradients g,
        of the steps s between polar factors and of the changes dg of g;
        the rows of g, as a view; the stack views of w, z and g; and the
        party views of w and z."""
        if k not in held:
            w, z, gsd = (np.empty((k, size)), np.empty((k, size)),
                         np.empty((k, 3, size)))
            stacks = [_stack_views(a, layout) for a in (w, z, gsd[:, 0])]
            held[k] = (w, z, gsd, gsd[:, 0], *stacks,
                       _party_views(stacks[0]), _party_views(stacks[1]))
        return held[k]

    def open_runs(n: int, ascend: bool = True) -> None:
        ascents.extend(_Ascent() if ascend else None for _ in range(n))
        for runs, blank in ((best_f, -np.inf), (best_x, zeros), (evals, 0),
                            (stops, ""), (non_finite, None)):
            runs.extend([blank] * n)

    open_runs(len(points), ascend=False)  # evaluated once
    open_runs(len(x0s))
    ids = list(range(len(evals)))  # the run of each trial point
    # The rows of each run's trial point y, of its point x and of the
    # tangent gradient g of -fun there (placeholders before a value).
    y = _gathered(points + x0s, shapes, layout)
    x, g, ys = y.copy(), y.copy(), _stack_views(y, layout)
    done = 0  # rounds so far

    while ids:
        k = len(ids)
        w_new, z, gsd, g_new, ws, zs, gs, w_parties, z_parties = (
            round_arrays(k))
        for v, w in zip(ys, ws):
            _polar(v, out=w)
        values, grads = fun(*w_parties)
        values = np.asarray(values, dtype=float)
        if values.shape != (k,):
            raise ValueError(
                f"objective returned shape {values.shape} for {k} points")
        for view, a in zip(z_parties, _as_parties(
                grads, shapes, (k,), "objective gradient")):
            view[...] = a
        # One sum finds a non-finite gradient entry (or one that overflows
        # it); only then does the row-wise test run.
        if not math.isfinite(z.sum()):
            # A non-finite value; zeros keep the row's unused work finite.
            finite = np.isfinite(z).all(axis=-1)
            values = np.where(finite, values, np.nan)
            z[~finite] = 0.0
        done += 1
        _tangent(ws, zs, gs)
        np.subtract(w_new, x, out=gsd[:, 1])
        np.subtract(g_new, g, out=gsd[:, 2])
        # g.g, s.s, s.dg and dg.dg of each run, as one pairwise product.
        dots = (gsd[:, _LEFT, None, :] @ gsd[:, _RIGHT, :, None]).reshape(
            k, 4).tolist()
        accepted = np.zeros(k, dtype=bool)
        steps = [0.0] * k
        keep, starts = [], []  # the rows of live runs, of refilled slots
        for j, (i, v, dot) in enumerate(zip(ids, values.tolist(), dots)):
            evals[i] += 1
            run = ascents[i]
            if not math.isfinite(v):
                non_finite[i] = v
                stop = "non-finite"
            else:
                if v > best_f[i]:
                    best_f[i], best_x[i] = v, y[j].copy()
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
                starts.append(j)
        if done >= rounds:
            for j in keep:
                stops[ids[j]] = "rounds"
            break

        mask = accepted[:, None]
        np.copyto(x, w_new, where=mask)
        np.copyto(g, g_new, where=mask)
        np.multiply(np.array(steps)[:, None], g, out=y)
        np.subtract(x, y, out=y)
        # A stopped run's slot takes a new run, from the refill's row (also
        # the placeholders of its point and gradient).
        for j in starts:
            ids[j] = len(evals)
            open_runs(1)
            x[j] = g[j] = y[j] = refill()
        if len(keep) + len(starts) < k:
            rows = sorted(keep + starts)
            x, g, y = x[rows], g[rows], y[rows]
            ys, ids = _stack_views(y, layout), [ids[j] for j in rows]

    return LockstepResult(
        fun=np.array(best_f), x=tuple(best_x), evals=tuple(evals),
        stops=tuple(stops), non_finite=tuple(non_finite), nfev=sum(evals))
