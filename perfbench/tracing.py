"""Span tracer for the traced benchmark run.

Wrappers are installed where each caller looks a name up: every loaded
`qcorr` module attribute that is the hook's target is replaced, so
`qcorr.correlations.backend.cq_blocks`, `qcorr.broadcast.maximize` and the
package-level names all record spans.  The objective callables handed to
`maximize` are wrapped too, named by the phase that runs them.

Spans (name, start, end, parent) are kept in flat arrays and written out
at the end; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import hooks

# Phase of a `maximize` call -> span of the objective it evaluates.
OBJECTIVE_SPAN = {
    "icq_projective": "correlations.objective/cq_projective",
    "icq_general": "correlations.objective/cq_general",
    "icc_projective": "correlations.objective/cc_projective",
    "icc_general": "correlations.objective/cc_general",
    "discord": "correlations.objective/cq_projective",
    "broadcast": "broadcast.objective",
    "other": "optimize.objective/other",
}
PHASES = ("icq_projective", "icq_general", "icc_projective", "icc_general")
_SEARCH_SPANS = ("correlations.optimize_icq", "correlations.optimize_icq/discord",
                 "correlations.optimize_icc", "broadcast.broadcast_search")


def _stopped_on_maxfev(res) -> bool:
    return (not getattr(res, "success", True)
            and "function evaluations" in str(getattr(res, "message", "")))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._child_counts: dict[tuple[int, str], int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()
        self.restarts: list[tuple[int, bool]] = []  # (nfev, hit maxfev)

    # -- spans ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def _enclosing(self, names) -> int:
        for idx in reversed(self._stack[1:]):
            if self.names[self._name[idx]] in names:
                return idx
        return -1

    def _nth_child(self, parent: int, kind: str) -> int:
        """How many `kind` calls `parent` made before this one."""
        n = self._child_counts[(parent, kind)]
        self._child_counts[(parent, kind)] = n + 1
        return n

    def wrap(self, name: str, fn):
        nid, open_, close = self._id(name), self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return traced

    # -- wrappers that label or inspect their calls --------------------

    def _phase(self) -> str:
        search = self._enclosing(_SEARCH_SPANS)
        if search < 0:
            return "other"
        name = self.names[self._name[search]]
        if name == "broadcast.broadcast_search":
            return "broadcast"
        if name.endswith("/discord"):
            return "discord"
        # The projective search runs first; its optimum seeds the general one.
        family = ("projective", "general")[min(self._nth_child(search, "max"), 1)]
        return ("icq_" if name == "correlations.optimize_icq" else "icc_") + family

    def _wrap_maximize(self, fn):
        @functools.wraps(fn)
        def traced(objective, *args, **kwargs):
            phase = self._phase()
            idx = self._open(self._id(f"optimize.maximize/{phase}"))
            try:
                return fn(self.wrap(OBJECTIVE_SPAN[phase], objective),
                          *args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _wrap_optimize_icq(self, fn):
        plain = self._id("correlations.optimize_icq")
        rerun = self._id("correlations.optimize_icq/discord")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A report's second I_CQ search is the projective rerun for discord.
            report = self._enclosing(("correlations.correlation_report",))
            later = report >= 0 and self._nth_child(report, "icq") > 0
            idx = self._open(rerun if later else plain)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _wrap_minimize(self, fn):
        nid = self._id("optimize.minimize")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.restarts.append((int(res.nfev), _stopped_on_maxfev(res)))
            return res
        return traced

    # -- installation --------------------------------------------------

    def _wrapper_for(self, hook: hooks.Hook, fn):
        special = {
            "optimize.maximize": self._wrap_maximize,
            "optimize.minimize": self._wrap_minimize,
            "correlations.optimize_icq": self._wrap_optimize_icq,
        }.get(hook.span)
        return special(fn) if special else self.wrap(hook.span, fn)

    def install(self) -> None:
        """Wrap every resolvable hook wherever qcorr modules refer to it."""
        self.absent = set()
        modules = [m for name, m in list(sys.modules.items()) if m is not None
                   and (name == "qcorr" or name.startswith("qcorr."))]
        for hook in hooks.HOOKS:
            target = hooks.resolve(hook)
            if target is None:
                self.absent.add(hook.span)
                continue
            if hook.method is not None:
                original = getattr(target, hook.method)
                self._patch(target, hook.method, self._wrapper_for(hook, original))
                continue
            wrapper = self._wrapper_for(hook, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        """Drop recorded spans and restarts, keeping the name table."""
        for col in (self._name, self._parent, self._start, self._end):
            del col[:]
        self._stack = [-1]
        self._child_counts.clear()
        self.restarts = []

    # -- results -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self._name, dtype=np.intc).astype(np.int32),
            "parent": np.frombuffer(self._parent, dtype=np.intc).astype(np.int32),
            "start": np.frombuffer(self._start, dtype=float).copy(),
            "end": np.frombuffer(self._end, dtype=float).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, total seconds, self seconds)."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        calls = np.bincount(a["name"], minlength=n_names)
        total = np.bincount(a["name"], weights=dur, minlength=n_names)
        self_t = np.bincount(a["name"], weights=dur - child, minlength=n_names)
        return {name: (int(calls[i]), float(total[i]), float(self_t[i]))
                for i, name in enumerate(self.names)}


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hook_of(span: str) -> str:
    """The hook whose wrapper records `span`."""
    return "optimize.maximize" if "objective" in span else span.split("/")[0]


def layer_metrics(summary, absent: set[str], restarts) -> dict:
    """Per-layer metrics (name -> value, None when absent) of one pass."""
    def agg(*spans):
        """(calls, total, self) summed over spans; None if all hooks absent."""
        if all(_hook_of(s) in absent for s in spans):
            return None
        rows = [summary.get(s, (0, 0.0, 0.0)) for s in spans]
        return tuple(sum(col) for col in zip(*rows))

    def pick(row, i):
        return None if row is None else row[i]

    def per_call_us(row):
        return None if row is None else _ratio(row[1], row[0]) * 1e6

    reports = agg("correlations.correlation_report")

    def per_report(row):
        """Seconds per report."""
        if row is None or reports is None:
            return None
        return _ratio(row[1], reports[0])

    out = {}
    kernels = agg("kernels.cc_joint_probs", "kernels.cq_blocks",
                  "kernels.shannon_bits")
    out["kernels.calls"] = pick(kernels, 0)
    out["kernels.self_s"] = pick(kernels, 2)

    ufp = agg("optimize.unitary_from_params")
    out["optimize.unitary_from_params.calls"] = pick(ufp, 0)
    out["optimize.unitary_from_params.self_s"] = pick(ufp, 2)

    for fam in ("cq_projective", "cq_general", "cc_projective", "cc_general"):
        out[f"correlations.objective.us_per_eval.{fam}"] = per_call_us(
            agg(f"correlations.objective/{fam}"))

    objectives = agg(*dict.fromkeys(OBJECTIVE_SPAN.values()))
    searches = agg(*(f"optimize.maximize/{p}" for p in OBJECTIVE_SPAN))
    out["optimize.maximize.evals"] = pick(objectives, 0)
    out["optimize.maximize.overhead_us_per_eval"] = (
        None if searches is None
        else _ratio(searches[1] - objectives[1], objectives[0]) * 1e6)
    if "optimize.minimize" in absent:
        per_restart = exhausted = None
    else:
        per_restart = _ratio(sum(n for n, _ in restarts), len(restarts))
        exhausted = _ratio(sum(hit for _, hit in restarts), len(restarts))
    out["optimize.maximize.evals_per_restart"] = per_restart
    out["optimize.maximize.budget_exhausted_share"] = exhausted

    for phase in PHASES:
        out[f"correlations.phase.{phase}_s"] = per_report(
            agg(f"optimize.maximize/{phase}"))
    rerun = agg("correlations.optimize_icq/discord")
    out["correlations.phase.discord_s"] = per_report(rerun)
    out["correlations.phase.discord_share"] = (
        None if rerun is None or reports is None
        else _ratio(rerun[1], reports[1]))

    dm = agg("qstate.DensityMatrix")
    out["qstate.DensityMatrix.constructions"] = pick(dm, 0)
    out["qstate.construct_s"] = pick(dm, 1)
    kc = agg("channels.KrausChannel")
    out["channels.KrausChannel.constructions"] = pick(kc, 0)
    out["channels.construct_s"] = pick(kc, 1)
    out["channels.apply_local.self_s"] = pick(agg("channels.apply_local"), 2)

    out["broadcast.objective.us_per_eval"] = per_call_us(agg("broadcast.objective"))
    out["broadcast.verify_broadcast.self_s"] = pick(
        agg("broadcast.verify_broadcast"), 2)

    for span in ("classify.classical_basis", "classify.is_cc", "classify.ppt_label",
                 "channels.petz_recovery"):
        out[f"{span}.us"] = per_call_us(agg(span))
    return out
