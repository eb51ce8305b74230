"""Shared fixtures and independent oracle implementations.

The oracles here are deliberately written as explicit index loops (no
vectorized shortcuts shared with the library) so that library results are
checked against a genuinely independent computation.  The lockstep oracle
is an exception: it shares the library's linear algebra and writes out
only the step rule and the round bookkeeping, one run at a time.  So is
`lift_local`, the Kronecker-product reference for `channels.apply_local`,
which shares the library's subsystem checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def oracle_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product via explicit index loops."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def oracle_partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace via explicit multi-index loops, row-major convention
    (first subsystem varies slowest)."""
    n = len(dims)
    keep = tuple(keep)
    traced = tuple(i for i in range(n) if i not in keep)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def flat(idx):
        f = 0
        for i in range(n):
            f = f * dims[i] + idx[i]
        return f

    def flat_keep(idx):
        f = 0
        for i in keep:
            f = f * dims[i] + idx[i]
        return f

    ranges = [range(dims[i]) for i in range(n)]
    for row in itertools.product(*ranges):
        for col in itertools.product(*ranges):
            if all(row[i] == col[i] for i in traced):
                out[flat_keep(row), flat_keep(col)] += rho[flat(row), flat(col)]
    return out


def oracle_entropy_bits(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits from the raw spectrum."""
    evals = np.linalg.eigvalsh(rho)
    s = 0.0
    for lam in evals:
        if lam > 1e-12:
            s -= lam * math.log2(lam)
    return s


def oracle_apply_kraus(kraus, rho: np.ndarray) -> np.ndarray:
    out = np.zeros((kraus[0].shape[0], kraus[0].shape[0]), dtype=complex)
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def lift_local(ch, position: int, layout):
    """Embed a channel as ch (x) id on the remaining subsystems: the
    Kronecker reference for `channels.apply_local`, whose lifted Kraus
    operators are full-size Kronecker products."""
    from qcorr.channels import KrausChannel, _local_split

    dims = layout.dims
    d_left, d_right = _local_split(ch, position, dims)
    eye_l = np.eye(d_left, dtype=complex)
    eye_r = np.eye(d_right, dtype=complex)
    ops = tuple(np.kron(np.kron(eye_l, k), eye_r) for k in ch.kraus)
    out_dims = dims[:position] + ch.out_dims + dims[position + 1:]
    return KrausChannel(ops, out_dims=out_dims, check_tp=ch.trace_preserving)


def oracle_joint_probs(rho: np.ndarray, ms, ns) -> np.ndarray:
    """p_ij = Tr[(M_i (x) N_j) rho], one explicit trace per outcome pair."""
    out = np.zeros((len(ms), len(ns)))
    for i, m in enumerate(ms):
        for j, n in enumerate(ns):
            prod = oracle_kron(m, n) @ rho
            out[i, j] = sum(prod[k, k] for k in range(prod.shape[0])).real
    return out


def oracle_cq_blocks(rho: np.ndarray, ms, d_b: int) -> np.ndarray:
    """B_i = Tr_A[(M_i (x) I) rho] via the loop Kronecker product and
    partial trace."""
    d_a = ms[0].shape[0]
    eye_b = np.eye(d_b, dtype=complex)
    return np.array([
        oracle_partial_trace(oracle_kron(m, eye_b) @ rho, (d_a, d_b), (1,))
        for m in ms
    ])


def oracle_anti_hermitian(params: np.ndarray, d: int) -> np.ndarray:
    """The unitary parameterization's generator packing, as a double loop:
    the first d parameters are the imaginary diagonal, then (x, y) pairs
    fill the upper triangle row by row as x + iy, anti-Hermitian below."""
    a = np.zeros((d, d), dtype=complex)
    for i in range(d):
        a[i, i] = 1j * params[i]
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            x, y = params[k], params[k + 1]
            a[i, j] = x + 1j * y
            a[j, i] = -x + 1j * y
            k += 2
    return a


def oracle_joint_diagonalize(ops, tol: float = 1e-14, max_sweeps: int = 100,
                             stop_on_stall: bool = True) -> np.ndarray:
    """Jacobi joint diagonalization one family member at a time: the
    surrogate g is summed with one outer product per member and every
    member is rotated by its own matmul.  Same sweeps, pair order,
    rotation formulas and stopping rules as `classify.joint_diagonalize`;
    a pair whose g is exactly zero is skipped.  The off-diagonal mass is
    summed entry by entry with `math.fsum`, exactly rounded whatever the
    order.  `stop_on_stall=False` drops the rule that ends the sweeps once
    that mass stalls, leaving the rotation tolerance and the sweep cap."""
    from qcorr.classify import _STALL

    ops = [np.array(o, dtype=complex) for o in ops]
    d = ops[0].shape[0]
    u = np.eye(d, dtype=complex)
    if d == 1:
        return u
    prev = None
    for _ in range(max_sweeps):
        changed = False
        for p in range(d):
            for q in range(p + 1, d):
                g = np.zeros((3, 3))
                for a in ops:
                    h = np.array([
                        a[p, p].real - a[q, q].real,
                        (a[p, q] + a[q, p]).real,
                        (1j * (a[q, p] - a[p, q])).real,
                    ])
                    g += np.outer(h, h)
                if not g.any():
                    continue
                evals, evecs = np.linalg.eigh(g)
                x, y, z = evecs[:, -1]
                if x < 0:
                    x, y, z = -x, -y, -z
                r = np.sqrt(x * x + y * y + z * z)
                if r <= 0 or y * y + z * z == 0.0:
                    continue
                c = np.sqrt((x + r) / (2 * r))
                s = (y - 1j * z) / np.sqrt(2 * r * (x + r))
                if abs(s) <= tol:
                    continue
                changed = True
                rot = np.eye(d, dtype=complex)
                rot[p, p] = c
                rot[p, q] = -np.conj(s)
                rot[q, p] = s
                rot[q, q] = c
                for k in range(len(ops)):
                    ops[k] = rot.conj().T @ ops[k] @ rot
                u = u @ rot
        if not changed:
            break
        off = math.fsum(a[p, q].real * a[p, q].real + a[p, q].imag * a[p, q].imag
                        for a in ops for p in range(d) for q in range(d)
                        if p != q)
        if stop_on_stall and prev is not None and prev - off <= _STALL * prev:
            break
        prev = off
    return u


def split_point(x, shapes) -> tuple:
    """The per-party complex matrices, as views, of a real vector x that
    holds their (re, im) pairs row by row, party after party: the layout
    of `OptimizationResult.params`."""
    z = np.ascontiguousarray(x, dtype=float).view(complex)
    ends = np.cumsum([n * d for n, d in shapes])[:-1]
    return tuple(part.reshape(shape)
                 for part, shape in zip(np.split(z, ends), shapes))


def pack_point(point) -> np.ndarray:
    """The real vector of a point's per-party matrices: `split_point`
    undone."""
    return np.concatenate([np.asarray(p, dtype=complex).reshape(-1)
                           for p in point]).view(float)


def assert_slope_on_retracted_path(objective, x, rng, h=1e-5):
    """Take a unit tangent direction xi at the isometries x (one (1, n, d)
    array per party), from normal draws of one (1, 2 n d) real array per
    party.  Assert that the slope of `objective` along xi, from the
    gradients at the polar factors of x, matches the central difference
    of its values at the polar factors of x +- h xi, which lie on the
    retracted path."""
    from qcorr.lockstep import _polar, _tangent

    def at(points):
        return objective(*(_polar(w) for w in points))

    z = [rng.normal(size=(1, 2 * w[0].size)).view(complex).reshape(w.shape)
         for w in x]
    xi = [t[:, 0] for t in _tangent([w[:, None] for w in x],
                                    [v[:, None] for v in z])]
    norm = math.sqrt(sum(np.vdot(t, t).real for t in xi))
    xi = [t / norm for t in xi]
    slope = sum(np.vdot(g, t).real for g, t in zip(at(x)[1], xi))
    fd = (at([w + h * t for w, t in zip(x, xi)])[0][0]
          - at([w - h * t for w, t in zip(x, xi)])[0][0]) / (2 * h)
    assert abs(slope - fd) <= 1e-6 * abs(fd)


def _real_row(stacks) -> np.ndarray:
    """The real (1, P) row of one point held as (1, 1, n, d) stacks, one
    per party: (re, im) pairs row by row, party after party."""
    return np.concatenate([np.asarray(p, dtype=complex).reshape(1, -1)
                           for p in stacks], axis=-1).view(float)


def _oracle_stiefel_ascent(x0, tol):
    """One ascent run as a generator: each `yield` hands out one point, a
    list of (1, 1, n, d) stacks, one per party, and receives its values,
    Euclidean gradients and polar factors in that form."""
    from qcorr.lockstep import _ARMIJO, _FIRST_STEP, _MAX_STEP, _tangent

    def dot(a, b):
        return float(np.vdot(_real_row(a), _real_row(b)))

    def minus(a, b):
        return [p - q for p, q in zip(a, b)]

    f, z, x = yield x0
    g = _tangent(x, z)  # the tangent gradient of -f
    gg = dot(g, g)
    t = t_long = _FIRST_STEP / math.sqrt(gg) if gg else 0.0
    long_step, accepted = True, 0
    while True:
        if t * gg <= tol:
            if long_step:
                return "converged"
            t, long_step = t_long, True
            continue
        fy, zy, x_new = yield [(p.view(float) - t * q.view(float)).view(complex)
                               for p, q in zip(x, g)]
        if fy[0] >= f[0] + _ARMIJO * t * gg:
            gain = fy[0] - f[0]
            g_new = _tangent(x_new, zy)
            s, dg = minus(x_new, x), minus(g_new, g)
            x, f, g = x_new, fy, g_new
            if gain <= tol and long_step:
                return "converged"
            gg = dot(g, g)
            sy = abs(dot(s, dg))
            t_long = t_short = _MAX_STEP / math.sqrt(gg) if gg else 0.0
            if sy:
                t_long = min(t_long, dot(s, s) / sy)
                t_short = min(t_short, sy / dot(dg, dg))
            accepted += 1
            long_step = accepted % 2 == 1
            t = t_long if long_step else t_short
        else:
            t *= 0.5


def oracle_lockstep_minimize(fun, x0s, shapes, rounds, tol, points=(),
                             refill=None):
    """`lockstep.minimize` with every run a generator stepped one at a
    time: the points of all live runs gather into one `fun` call per round,
    and each run gets its own back.  Points are per-party matrices, held as
    one (k, 1, n, d) stack per party; `refill()` returns a real row, as the
    driver's does.  The step rule is written out apart
    from `lockstep._Ascent`; the polar factors and tangent projection are
    the library's and each dot is `np.vdot` of two real rows, so a
    comparison pins the step logic, the round bookkeeping and the bits of
    the driver's batched dots, not the linear algebra.  Returns the
    `LockstepResult` fields (fun, x, evals, stops, non_finite)."""
    from qcorr.lockstep import _polar

    def stacked(point):
        return [np.asarray(p, dtype=complex).reshape(1, 1, *p.shape)
                for p in point]

    def evaluate_once(x):
        yield stacked(x)
        return "evaluated"

    def start(x0):
        return _oracle_stiefel_ascent(stacked(x0), tol)

    runs = [evaluate_once(p) for p in points] + [start(x0) for x0 in x0s]
    n_points = len(points)
    zeros = tuple(np.zeros(shape, dtype=complex) for shape in shapes)
    best_f = [-np.inf] * len(runs)
    best_x = [zeros] * len(runs)
    evals = [0] * len(runs)
    stops = [""] * len(runs)
    non_finite = [None] * len(runs)
    pending = {i: next(run) for i, run in enumerate(runs)}
    done = 0

    def stop(i, reason):
        stops[i] = reason
        del pending[i]
        if i >= n_points and done < rounds:
            runs.append(start(split_point(refill(), shapes)))
            best_f.append(-np.inf)
            best_x.append(zeros)
            evals.append(0)
            stops.append("")
            non_finite.append(None)
            pending[len(runs) - 1] = next(runs[-1])

    while pending:
        batch = [np.concatenate(party) for party in zip(*pending.values())]
        polar = [_polar(b) for b in batch]
        values, grads = fun(*(b[:, 0] for b in polar))
        values = np.asarray(values, dtype=float)
        grads = [np.asarray(z, dtype=complex)[:, None] for z in grads]
        finite = np.logical_and.reduce(
            [np.isfinite(z).all(axis=(1, 2, 3)) for z in grads])
        values = np.where(finite, values, np.nan)
        done += 1
        for j, i in enumerate(list(pending)):
            v = values[j]
            evals[i] += 1
            if not math.isfinite(v):
                non_finite[i] = float(v)
                runs[i].close()
                stop(i, "non-finite")
                continue
            if v > best_f[i]:
                best_f[i] = v
                best_x[i] = tuple(b[j, 0].copy() for b in batch)
            try:
                pending[i] = runs[i].send((values[j:j + 1],
                                           [z[j:j + 1] for z in grads],
                                           [p[j:j + 1] for p in polar]))
            except StopIteration as end:
                stop(i, end.value)
        if done >= rounds:
            for i in pending:
                runs[i].close()
                stops[i] = "rounds"
            pending.clear()
    return (np.array(best_f), tuple(best_x), tuple(evals), tuple(stops),
            tuple(non_finite))


def oracle_conditional_family(rho: np.ndarray, dims, side: int):
    """Conditional operators of one side, one block at a time: for each
    index m of the other side, the diagonal block <m|rho|m>, then for each
    n > m the pair t + t^dag, i(t - t^dag) of t = <m|rho|n>."""
    d_a, d_b = dims
    d_c, d_reg = (d_a, d_b) if side == 0 else (d_b, d_a)
    r = rho.reshape(d_a, d_b, d_a, d_b)

    def block(m, n):
        t = np.zeros((d_c, d_c), dtype=complex)
        for i in range(d_c):
            for j in range(d_c):
                t[i, j] = r[i, m, j, n] if side == 0 else r[m, i, n, j]
        return t

    fam = []
    for m in range(d_reg):
        fam.append(block(m, m))
        for n in range(m + 1, d_reg):
            t = block(m, n)
            fam.append(t + t.conj().T)
            fam.append(1j * (t - t.conj().T))
    return fam


def oracle_block_residual(rho: np.ndarray, dims, basis: np.ndarray,
                          side: int) -> float:
    """Largest |entry| of the off-diagonal blocks of the measured side once
    rho is rotated into `basis` there, one block at a time."""
    d_a, d_b = dims
    if side == 0:
        rot = np.kron(basis, np.eye(d_b, dtype=complex))
    else:
        rot = np.kron(np.eye(d_a, dtype=complex), basis)
    r = (rot.conj().T @ rho @ rot).reshape(d_a, d_b, d_a, d_b)
    worst = 0.0
    d_c = d_a if side == 0 else d_b
    for i in range(d_c):
        for j in range(d_c):
            if i == j:
                continue
            blk = r[i, :, j, :] if side == 0 else r[:, i, :, j]
            worst = max(worst, float(np.abs(blk).max()))
    return worst


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def random_density_oracle(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
