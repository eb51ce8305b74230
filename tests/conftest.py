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


def _oracle_stiefel_descent(x0, shapes, tol):
    """One descent run as a generator: each `yield` hands out one (1, P)
    point and receives its values, Euclidean gradients and packed polar
    factors."""
    from qcorr.lockstep import (_ARMIJO, _FIRST_STEP, _MAX_STEP, _row_dot,
                                _tangent)

    def dot(a, b):
        return float(_row_dot(a, b)[0])

    f, z, x = yield x0[None]
    g = _tangent(x, z, shapes)
    gg = dot(g, g)
    t = t_long = _FIRST_STEP / math.sqrt(gg) if gg else 0.0
    long_step, accepted = True, 0
    while True:
        if t * gg <= tol:
            if long_step:
                return "converged"
            t, long_step = t_long, True
            continue
        fy, zy, x_new = yield x - t * g
        if fy[0] <= f[0] - _ARMIJO * t * gg:
            gain = f[0] - fy[0]
            g_new = _tangent(x_new, zy, shapes)
            s, dg = x_new - x, g_new - g
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


def oracle_lockstep_minimize(fun, x0s, shapes, rounds, tol, points=None,
                             refill=None):
    """`lockstep.minimize` with every run a generator stepped one at a
    time: the points of all live runs gather into one `fun` call per round,
    and each run gets its own row back.  The step rule is written out
    apart from `lockstep._Descent`; the polar factors, tangent projection
    and row dots are the library's, so a comparison pins the step logic
    and the round bookkeeping, not the linear algebra.  Returns the
    `LockstepResult` fields (fun, x, evals, stops, non_finite)."""
    from qcorr.lockstep import _packed, _party_blocks, _polar

    x0s = np.asarray(x0s, dtype=float)
    n = x0s.shape[1]
    points = np.empty((0, n)) if points is None else np.asarray(points, dtype=float)

    def evaluate_once(x):
        yield x[None]
        return "evaluated"

    def start(x0):
        return _oracle_stiefel_descent(x0, shapes, tol)

    runs = [evaluate_once(p) for p in points] + [start(x0) for x0 in x0s]
    best_f = [np.inf] * len(runs)
    best_x = [np.zeros(n)] * len(runs)
    evals = [0] * len(runs)
    stops = [""] * len(runs)
    non_finite = [None] * len(runs)
    pending = {i: next(run) for i, run in enumerate(runs)}
    done = 0

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
        grads = _packed(list(grads))
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
    return (np.array(best_f), np.reshape(best_x, (len(runs), n)),
            tuple(evals), tuple(stops), tuple(non_finite))


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
