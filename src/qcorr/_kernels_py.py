"""Numpy kernels on the optimizer hot path.

Each objective evaluation works on matrices of side at most ~16, so the
cost of a kernel is its number of numpy calls, not its FLOPs.  The two
contractions are therefore written as a reshuffle of rho followed by plain
matmuls, which dispatch in a few microseconds; `einsum` with
``optimize=True`` searched for a contraction path on every call.  POVM
stacks and weights may carry leading batch axes, one per candidate, so a
batch of candidates shares each numpy call.

Each contraction has two steps.  A form is rho reshuffled into a matrix,
a permutation of its entries: `cc_form` for the joint probabilities and
`cq_form` for the conditional blocks.  The contraction (`cc_contract`,
`cq_contract`) is then one product of the flattened element stacks with
that matrix.  `cc_joint_probs` and `cq_blocks` build the form on every
call; the search objectives build their forms once per search and call
the contractions alone, with the same bits.
"""

import math

import numpy as np


def cc_form(rho, d_a):
    """rho (dA*dB, dA*dB) reshuffled for `cc_contract`:
    r[(a, c), (b, d)] = rho[(c, d), (a, b)], a (dA^2, dB^2) matrix."""
    d_b = rho.shape[0] // d_a
    return rho.reshape(d_a, d_b, d_a, d_b).transpose(2, 0, 3, 1).reshape(
        d_a * d_a, d_b * d_b)


def cc_contract(r, ms, ns):
    """p_ij = sum_{a,c,b,d} M_i[a, c] r[(a, c), (b, d)] N_j[b, d] for the
    form r of `cc_form`; ms: (..., nA, dA, dA) and ns: (..., nB, dB, dB)
    with the same leading axes.  Returns a real (..., nA, nB) array."""
    *batch, n_a, d_a, _ = ms.shape
    n_b, d_b = ns.shape[-3:-1]
    p = (ms.reshape(*batch, n_a, d_a * d_a) @ r
         @ ns.reshape(*batch, n_b, d_b * d_b).swapaxes(-1, -2))
    return np.ascontiguousarray(p.real)


def cc_joint_probs(rho, ms, ns):
    """Outcome probabilities p_ij = Tr[(M_i (x) N_j) rho].

    rho: (dA*dB, dA*dB) complex; ms: (..., nA, dA, dA); ns: (..., nB, dB, dB)
    with the same leading axes.  Returns (..., nA, nB).
    """
    return cc_contract(cc_form(rho, ms.shape[-1]), ms, ns)


def cq_form(rho, d_a):
    """rho (dA*dB, dA*dB) reshuffled for `cq_contract`:
    r[(a, c), (b, e)] = rho[(c, b), (a, e)], a (dA^2, dB^2) matrix."""
    d_b = rho.shape[0] // d_a
    return rho.reshape(d_a, d_b, d_a, d_b).transpose(2, 0, 1, 3).reshape(
        d_a * d_a, d_b * d_b)


def cq_contract(r, ms):
    """B_i = Tr_A[(M_i (x) I) rho] for the form r of `cq_form`;
    ms: (..., nA, dA, dA).  Returns a complex (..., nA, dB, dB) array."""
    *batch, n_a, d_a, _ = ms.shape
    d_b = math.isqrt(r.shape[1])
    return (ms.reshape(*batch, n_a, d_a * d_a) @ r).reshape(
        *batch, n_a, d_b, d_b)


def cq_blocks(rho, ms):
    """Unnormalized conditional blocks B_i = Tr_A[(M_i (x) I) rho].

    ms: (..., nA, dA, dA).  Returns a (..., nA, dB, dB) complex array with
    Tr B_i = p_i.
    """
    return cq_contract(cq_form(rho, ms.shape[-1]), ms)


def shannon_bits(p):
    """Shannon entropy in bits of nonnegative weights along the last axis.

    A 1-D input gives a float, a (..., m) input an array over the leading
    axes.  Zero weights contribute nothing; the result is never -0.0.
    """
    p = np.asarray(p, dtype=float)
    terms = p * np.log2(np.where(p > 0.0, p, 1.0))
    # 0.0 - s rather than -s: a one-point support gives s = 0.0, and -0.0
    # would survive max(-0.0, 0.0) into reports.
    h = 0.0 - terms.sum(axis=-1)
    return float(h) if h.ndim == 0 else h
