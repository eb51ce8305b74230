"""Per-layer microbenchmarks: min-of-N microseconds per call at fixed sizes.

Inputs come from a fixed generator (seed 0), independent of the workload
seed, so the table compares across runs and commits.  A case whose target
is gone, or no longer accepts these arguments, is reported as absent.
"""

from __future__ import annotations

import timeit

import numpy as np
import qcorr

import hooks

ROUNDS = 7
TARGET_S = 0.01  # wall time of one sample


def _calls_per_sample(fn) -> int:
    single = timeit.Timer(fn).timeit(number=1)
    return max(1, int(TARGET_S / max(single, 1e-7)))


def _rank1_stack(u: np.ndarray) -> np.ndarray:
    cols = u.T
    return np.ascontiguousarray(cols[:, :, None] * cols.conj()[:, None, :])


def _bind(fn, *args):
    """A zero-argument call of fn(*args), or None when fn is absent."""
    return None if fn is None else (lambda: fn(*args))


def cases() -> dict:
    """metric name -> zero-argument callable, or None when absent."""
    rng = np.random.default_rng(0)
    out = {}
    cc, cq, shannon = (hooks.resolve(hooks.BY_SPAN[f"kernels.{name}"])
                       for name in ("cc_joint_probs", "cq_blocks", "shannon_bits"))
    for d in (2, 3, 4):
        rho = np.ascontiguousarray(qcorr.random_density((d, d), d * d, rng).matrix)
        ms = _rank1_stack(qcorr.haar_unitary(d, rng))
        ns = _rank1_stack(qcorr.haar_unitary(d, rng))
        out[f"kernels.cc_joint_probs.us.{d}x{d}"] = _bind(cc, rho, ms, ns)
        out[f"kernels.cq_blocks.us.{d}x{d}"] = _bind(cq, rho, ms)
    p = rng.random(64)
    out["kernels.shannon_bits.us"] = _bind(shannon, p / p.sum())

    ufp = hooks.resolve_attr("qcorr.optimize", "unitary_from_params")
    for d in (2, 3, 4, 8, 9):
        out[f"optimize.unitary_from_params.us.d{d}"] = _bind(
            ufp, rng.normal(size=d * d), d)

    # One objective evaluation per family on a 2x2 state, as the closures
    # in optimize_icq / optimize_icc compute it.
    rho = qcorr.random_density((2, 2), 4, rng)
    rho_mat = np.ascontiguousarray(rho.matrix)
    s_b = qcorr.von_neumann_entropy(qcorr.partial_trace(rho, (1,)))
    cq_value = hooks.resolve_attr("qcorr.correlations", "_cq_value")
    cc_value = hooks.resolve_attr("qcorr.correlations", "_cc_value")
    proj = hooks.resolve_attr("qcorr.optimize", "projective_stack")
    gen = hooks.resolve_attr("qcorr.optimize", "general_stack")
    x = rng.normal(scale=np.pi / 4, size=32)
    objectives = {
        "cq_projective": lambda: cq_value(rho_mat, s_b, proj(x[:4], 2)),
        "cq_general": lambda: cq_value(rho_mat, s_b, gen(x[:16], 2, 4)),
        "cc_projective": lambda: cc_value(rho_mat, proj(x[:4], 2),
                                          proj(x[4:8], 2)),
        "cc_general": lambda: cc_value(rho_mat, gen(x[:16], 2, 4),
                                       gen(x[16:], 2, 4)),
    }
    for fam, fn in objectives.items():
        value = cq_value if fam.startswith("cq") else cc_value
        stack = proj if fam.endswith("projective") else gen
        out[f"correlations.objective.us.{fam}"] = (
            fn if value and stack else None)

    # One Stinespring objective evaluation of broadcast_search on 2x2
    # (ancilla 2: 64 parameters per side).
    stine = hooks.resolve_attr("qcorr.broadcast", "_stinespring_channel")
    apply_both = hooks.resolve_attr("qcorr.broadcast", "apply_local_broadcast")
    y = rng.normal(scale=np.pi / 4, size=128)

    def broadcast_objective():
        sigma = apply_both(stine(y[:64], 2, 2), stine(y[64:], 2, 2), rho)
        return qcorr.verify_broadcast(sigma, rho)

    out["broadcast.objective.us"] = (
        broadcast_objective if stine and apply_both else None)
    return out


def run() -> dict:
    """metric name -> min-of-N microseconds per call, None when absent.

    Samples of one case are taken in separate rounds over all cases, so
    they spread over seconds: the host's speed drifts in phases that long.
    """
    timers, results = {}, {}
    for name, fn in cases().items():
        results[name] = None
        if fn is None:
            continue
        try:
            timers[name] = (timeit.Timer(fn), _calls_per_sample(fn))
        except (TypeError, ValueError, AttributeError):
            pass  # target changed its signature or contract: absent
    for _ in range(ROUNDS):
        for name, (timer, number) in timers.items():
            per_call = timer.timeit(number=number) / number * 1e6
            results[name] = min(per_call, results[name] or float("inf"))
    return results
