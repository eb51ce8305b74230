"""Shared fixtures and independent oracle implementations.

The oracles here are deliberately written as explicit index loops (no
vectorized shortcuts shared with the library) so that library results are
checked against a genuinely independent computation.
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


def oracle_joint_diagonalize(ops, tol: float = 1e-14,
                             max_sweeps: int = 100) -> np.ndarray:
    """Jacobi joint diagonalization one family member at a time: the
    surrogate g is summed with one outer product per member and every
    member is rotated by its own matmul.  Same sweeps, pair order,
    rotation formulas and stopping rule as `classify.joint_diagonalize`;
    a pair whose g is exactly zero is skipped."""
    ops = [np.array(o, dtype=complex) for o in ops]
    d = ops[0].shape[0]
    u = np.eye(d, dtype=complex)
    if d == 1:
        return u
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
    return u


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
