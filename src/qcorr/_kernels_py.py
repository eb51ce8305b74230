"""Numpy kernels on the optimizer hot path.

Each objective evaluation works on matrices of side at most ~16, so the
cost of a kernel is its number of numpy calls, not its FLOPs.  The two
contractions are therefore written as a reshape of rho followed by plain
matmuls, which dispatch in a few microseconds; `einsum` with
``optimize=True`` searched for a contraction path on every call.
"""

import numpy as np


def cc_joint_probs(rho, ms, ns):
    """Outcome probabilities p_ij = Tr[(M_i (x) N_j) rho].

    rho: (dA*dB, dA*dB) complex; ms: (nA, dA, dA); ns: (nB, dB, dB).
    """
    n_a, d_a, _ = ms.shape
    n_b, d_b, _ = ns.shape
    # r[(a, c), (b, d)] = rho[(c, d), (a, b)], so that
    # p_ij = sum_{a,c,b,d} M_i[a, c] r[(a, c), (b, d)] N_j[b, d].
    r = rho.reshape(d_a, d_b, d_a, d_b).transpose(2, 0, 3, 1).reshape(
        d_a * d_a, d_b * d_b)
    p = ms.reshape(n_a, d_a * d_a) @ r @ ns.reshape(n_b, d_b * d_b).T
    return np.ascontiguousarray(p.real)


def cq_blocks(rho, ms):
    """Unnormalized conditional blocks B_i = Tr_A[(M_i (x) I) rho].

    Returns a (n_a, dB, dB) complex array with Tr B_i = p_i.
    """
    n_a, d_a, _ = ms.shape
    d_b = rho.shape[0] // d_a
    # r[(a, c), (b, e)] = rho[(c, b), (a, e)]
    r = rho.reshape(d_a, d_b, d_a, d_b).transpose(2, 0, 1, 3).reshape(
        d_a * d_a, d_b * d_b)
    return (ms.reshape(n_a, d_a * d_a) @ r).reshape(n_a, d_b, d_b)


def shannon_bits(p):
    """Shannon entropy in bits of a flat nonnegative weight array.

    Zero weights contribute nothing; the result is never -0.0.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    nz = p[p > 0.0]
    if nz.size == 0:
        return 0.0
    # 0.0 - s rather than -s: a one-point support gives s = 0.0, and -0.0
    # would survive max(-0.0, 0.0) into reports.
    return float(0.0 - (nz * np.log2(nz)).sum())
