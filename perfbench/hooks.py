"""Where each traced or microbenchmarked qcorr function lives.

Each hook names a span and the places its target may be defined, first
match wins.  A hook whose target no longer exists resolves to None and is
reported as `absent`; it never raises, so internal refactors (a deleted
`backend.py`, a moved kernel) degrade the per-layer table instead of
breaking the benchmark.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    span: str
    candidates: tuple[tuple[str, str], ...]  # (module, attribute)
    method: str | None = None  # wrap this method of the resolved class


def _at(module: str, *attrs: str) -> tuple[tuple[str, str], ...]:
    return tuple((module, a) for a in attrs)


def _kernel(name: str) -> Hook:
    return Hook(f"kernels.{name}",
                (("qcorr.backend", name), ("qcorr._kernels_py", name)))


def _fn(layer: str, name: str) -> Hook:
    return Hook(f"{layer}.{name}", _at(f"qcorr.{layer}", name))


HOOKS = (
    _kernel("cc_joint_probs"),
    _kernel("cq_blocks"),
    _kernel("shannon_bits"),
    _fn("optimize", "unitary_from_params"),
    _fn("optimize", "projective_stack"),
    _fn("optimize", "general_stack"),
    _fn("optimize", "maximize"),
    _fn("optimize", "minimize"),  # scipy's, as qcorr.optimize looks it up
    _fn("correlations", "correlation_report"),
    _fn("correlations", "optimize_icq"),
    _fn("correlations", "optimize_icc"),
    Hook("qstate.DensityMatrix", _at("qcorr.qstate", "DensityMatrix"),
         method="__post_init__"),
    _fn("qstate", "partial_trace"),
    _fn("qstate", "von_neumann_entropy"),
    _fn("qstate", "trace_distance"),
    Hook("channels.KrausChannel", _at("qcorr.channels", "KrausChannel"),
         method="__post_init__"),
    _fn("channels", "apply_local"),
    _fn("channels", "petz_recovery"),
    _fn("broadcast", "broadcast_search"),
    _fn("broadcast", "verify_broadcast"),
    _fn("broadcast", "cloning_candidate"),
    _fn("broadcast", "attachment_candidate"),
    _fn("broadcast", "theorem2_check"),
    _fn("classify", "classical_basis"),
    _fn("classify", "is_cc"),
    _fn("classify", "is_cq"),
    _fn("classify", "ppt_label"),
)

BY_SPAN = {h.span: h for h in HOOKS}


def resolve_attr(module: str, attr: str):
    """`module.attr`, or None when either is gone."""
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


def resolve(hook: Hook):
    """The hook's target (a function, or a class for method hooks)."""
    for module, attr in hook.candidates:
        target = resolve_attr(module, attr)
        if target is not None and (hook.method is None
                                   or hasattr(target, hook.method)):
            return target
    return None
