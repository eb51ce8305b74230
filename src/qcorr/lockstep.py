"""Lockstep minimization on isometries: the driver `minimize` and its
step rule `_Descent`.

`minimize` runs many minimizations of one batched objective at once.
Every run is a monotone Riemannian gradient descent on a product of
Stiefel manifolds: a point is one complex n x d matrix per entry of
`shapes`, packed here alone into reals as (re, im) pairs row by row, party
after party, and a matrix stands for its polar factor (Edelman, Arias and
Smith, "The geometry of algorithms with orthogonality constraints", SIAM
J. Matrix Anal. Appl. 20, 1998).

The objective contract is the same for every search: it takes one
(k, n, d) isometry array per party and returns the k values and their
Euclidean gradients, one complex (k, n, d) array per party.  The driver
is the one place that turns points into isometries, with one batched SVD
per distinct matrix shape.  The polar factor of a trial point is its
retraction, so an accepted step costs no second SVD.

A round is array work on the rows of all live runs at once: the polar
factors and the objective call, one tangent projection, the row dots the
step rule needs, one masked update of the rows' points and gradients, and
one trial step x - t g.  Only the step rule runs per row, on Python
floats.  There is a fixed number of rounds, and runs that stop early are
replaced, so every round evaluates as many points as the first.
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
    """Real (m, P) points from (m, ...) arrays, one per block or party, in
    order (real entries count as complex)."""
    m = len(parts[0])
    return np.concatenate([part.reshape(m, -1) for part in parts], axis=-1,
                          dtype=complex).view(float)


def _parties(blocks: list) -> list:
    """The per-party (m, n, d) arrays of `_party_blocks`' blocks."""
    return [b[:, j] for b in blocks for j in range(b.shape[1])]


def _as_parties(arrays, shapes, lead: tuple, what: str) -> list:
    """`arrays` as arrays of shapes lead + (n, d), one per (n, d) entry of
    `shapes`; a ValueError names both otherwise."""
    arrays = [np.asarray(a) for a in arrays]
    want = [lead + tuple(shape) for shape in shapes]
    if [a.shape for a in arrays] != want:
        raise ValueError(f"{what} has shapes {[a.shape for a in arrays]}, "
                         f"but isometry shapes {tuple(shapes)} need {want}")
    return arrays


def packed(point, shapes) -> np.ndarray:
    """The real parameters of a point: its complex matrices, one per entry
    of `shapes` (another shape raises ValueError), packed."""
    return _packed([a[None] for a in _as_parties(point, shapes, (),
                                                 "seed point")])[0]


def unpacked(x: np.ndarray, shapes) -> tuple:
    """The complex matrices of the real point x, as views: `packed` undone."""
    return tuple(p[0] for p in _parties(_party_blocks(x[None], shapes)))


def _polar(block: np.ndarray) -> np.ndarray:
    """The polar factor U V^dag (thin SVD) of every matrix of a stack."""
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


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of the rows of two real (k, P) arrays, as k matrix
    products: each is bit for bit `np.vdot` of its two rows, which a
    pairwise-summed reduction such as `(a * b).sum(-1)` need not be."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


class _Descent:
    """The step rule of one monotone Riemannian gradient descent, on Python
    floats: the value f at the run's point, the trial step length t, the
    long step t_long, gg = g.g of the tangent gradient g there, whether t
    is a long step, and the count of accepted steps.

    The objective is taken at the polar factors W of each point.  Each step
    goes along minus the tangent gradient with a Barzilai-Borwein length
    (Barzilai and Borwein, "Two-point step size gradient methods", IMA J.
    Numer. Anal. 8, 1988), the long one s.s / |s.y| and the short one
    |s.y| / y.y in turn (Dai and Fletcher, Numer. Math. 100, 2005: the
    short steps spare the halvings a run of long ones costs), capped at
    `_MAX_STEP`, and is halved until the value falls by at least `_ARMIJO`
    times the predicted decrease t |g|^2.  The trial point is W - t g
    itself: the driver's polar factor of it is the retraction.
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
        elif fy <= self.f - _ARMIJO * self.t * self.gg:
            gain, self.f = self.f - fy, fy
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


def minimize(fun, x0s: np.ndarray, shapes: tuple, rounds: int, tol: float,
             points: np.ndarray | None = None, refill=None) -> LockstepResult:
    """Lockstep minimization of a batched objective on isometries.

    The points are (k, n) real arrays that pack one complex matrix per
    (rows, cols) entry of `shapes`, as `packed` does.  `fun` takes the
    polar factors of the k points, one (k, rows, cols) array per shape, and
    returns the k values and their Euclidean gradients, shaped as the
    polar factors (or a ValueError is raised); a point whose gradient is
    not finite counts as a non-finite value.  One descent run (the rule of
    `_Descent`, tolerance `tol`) starts from each row of `x0s`, and each
    row of `points` is evaluated once.  Every round evaluates the one point
    each live run waits for in one `fun` call.  A non-finite value stops
    only the run it belongs to.

    There are `rounds` rounds (fewer only when no run is left): a run that
    stops sooner hands its slot to a new run from the point `refill()`
    returns, so `refill` is needed unless `x0s` is empty or every run
    lasts all the rounds, and the runs still live after the last round
    stop as "rounds".
    """
    x0s = np.asarray(x0s, dtype=float)
    n = x0s.shape[1]
    points = np.empty((0, n)) if points is None else np.asarray(points, dtype=float)
    if sum(2 * r * c for r, c in shapes) != n:
        raise ValueError(f"isometry shapes {shapes} do not pack {n} parameters")

    batch = np.concatenate((points, x0s))
    ids = list(range(len(batch)))  # the run of each row of `batch`
    descents = [None] * len(points) + [_Descent() for _ in x0s]
    best_f = [np.inf] * len(batch)
    best_x = [np.zeros(n)] * len(batch)
    evals = [0] * len(batch)
    stops = [""] * len(batch)
    non_finite: list[float | None] = [None] * len(batch)
    # Each row's point and tangent gradient, placeholders before a value.
    x = g = batch
    done = 0  # rounds so far

    while ids:
        blocks = [_polar(b) for b in _party_blocks(batch, shapes)]
        values, grads = fun(*_parties(blocks))
        polar = _packed(blocks)
        values = np.asarray(values, dtype=float)
        if values.shape != (len(batch),):
            raise ValueError(
                f"objective returned shape {values.shape} for {len(batch)} points")
        grads = _packed(_as_parties(grads, shapes, (len(batch),),
                                    "objective gradient"))
        finite = np.isfinite(grads).all(axis=-1)
        if not finite.all():
            # A non-finite value; zeros keep the row's unused work finite.
            values = np.where(finite, values, np.nan)
            grads = np.where(finite[:, None], grads, 0.0)
        done += 1
        g_new = _tangent(polar, grads, shapes)
        s, dg = polar - x, g_new - g
        dots = zip(*(_row_dot(a, b).tolist() for a, b in (
            (g_new, g_new), (s, s), (s, dg), (dg, dg))))
        accepted = np.zeros(len(ids), dtype=bool)
        steps = [0.0] * len(ids)
        keep, starts = [], []
        for j, (i, v, dot) in enumerate(zip(ids, values.tolist(), dots)):
            evals[i] += 1
            run = descents[i]
            if not math.isfinite(v):
                non_finite[i] = v
                stop = "non-finite"
            else:
                if v < best_f[i]:
                    best_f[i], best_x[i] = v, batch[j].copy()
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

        x = np.where(accepted[:, None], polar, x)
        g = np.where(accepted[:, None], g_new, g)
        batch = x - np.array(steps)[:, None] * g
        if len(keep) < len(ids):
            x, g, batch = x[keep], g[keep], batch[keep]
        ids = [ids[j] for j in keep]
        if starts:
            new = np.reshape(starts, (len(starts), n))
            ids += range(len(evals), len(evals) + len(new))
            descents += [_Descent() for _ in new]
            best_f += [np.inf] * len(new)
            best_x += [np.zeros(n)] * len(new)
            evals += [0] * len(new)
            stops += [""] * len(new)
            non_finite += [None] * len(new)
            x, g, batch = (np.concatenate((a, new)) for a in (x, g, batch))

    return LockstepResult(
        fun=np.array(best_f), x=np.reshape(best_x, (len(evals), n)),
        evals=tuple(evals), stops=tuple(stops),
        non_finite=tuple(non_finite), nfev=sum(evals))
