"""Benchmark workloads: seeded inputs, units of work, correctness gate and
determinism digest.

Everything here calls qcorr through names exported from `qcorr/__init__.py`,
looked up on the package at call time, so the end-to-end numbers survive
internal refactors and the tracer's wrappers on the package namespace see
every call.  Inputs are generated here, from the workload seed alone; the
library receives only the generated states.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np
import qcorr

# Budgets are part of each workload and recorded in the run manifest.
REPORT_BUDGET = {"restarts": 3, "max_evals": 300}
# broadcast_search's default configuration:
BROADCAST_BUDGET = {"seed": 0, "restarts": 6, "max_evals": 500}
WARMUP_BUDGET = {"restarts": 1, "max_evals": 20}

# Gate tolerances, each taken from the Tier-1 test that checks the same fact.
TOL_CHAIN = 1e-12          # test_correlations: test_report_chain_ordering
TOL_BELL_I = 1e-12         # test_correlations: test_bell_state_two_bits
TOL_BELL_MEASURED = 1e-6   # test_correlations: test_bell_icc_one_bit
TOL_CQ_EXACT = 1e-9        # test_acceptance: criterion 2
TOL_CC_EXACT = 1e-6        # test_acceptance: criterion 3
TOL_PETZ = 1e-10           # test_channels: Petz round trips
TOL_DEFICIT = 1e-9         # test_broadcast: cloning deficit
TOL_RESIDUAL_MATCH = 1e-12
MIN_NONCLASSICAL_RESIDUAL = 1e-6  # test_acceptance: criterion 6

BELL = {"I": 2.0, "I_cq": 1.0, "I_cc": 1.0}
EXPECTED_KIND = {"cc": "CC", "cq": "CQ", "sep": "neither", "ent": "neither"}
EXPECTED_PPT = {"cc": "ppt", "cq": "ppt", "sep": "ppt", "ent": "npt"}


# ---------------------------------------------------------------------------
# Seeded inputs (the corpus classes of qcorr.corpus, rebuilt from exported
# primitives so the benchmark does not depend on that module's layout)


def _state(dims, m) -> "qcorr.DensityMatrix":
    return qcorr.DensityMatrix(qcorr.SubsystemLayout(dims), m)


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def bell() -> "qcorr.DensityMatrix":
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return _state((2, 2), _projector(v))


def random_cc(d_a, d_b, rng):
    """Random joint distribution embedded in random local bases."""
    p = rng.dirichlet(np.ones(d_a * d_b)).reshape(d_a, d_b)
    u, v = qcorr.haar_unitary(d_a, rng), qcorr.haar_unitary(d_b, rng)
    m = sum(p[i, j] * _projector(np.kron(u[:, i], v[:, j]))
            for i in range(d_a) for j in range(d_b))
    return _state((d_a, d_b), m)


def random_cq(d_a, d_b, rng):
    """CQ state with random (non-commuting) conditional states."""
    p = rng.dirichlet(np.ones(d_a))
    u = qcorr.haar_unitary(d_a, rng)
    m = sum(p[i] * np.kron(_projector(u[:, i]),
                           qcorr.random_density((d_b,), d_b, rng).matrix)
            for i in range(d_a))
    return _state((d_a, d_b), m)


def random_sep(d_a, d_b, rng):
    """Mixture of product pure states, classical on neither side."""
    w = rng.dirichlet(np.ones(d_a * d_b + 1) * 5.0)
    m = sum(wk * np.kron(qcorr.random_density((d_a,), 1, rng).matrix,
                         qcorr.random_density((d_b,), 1, rng).matrix)
            for wk in w)
    return _state((d_a, d_b), m)


def random_ent(d_a, d_b, rng):
    """Pure state of full Schmidt rank, every coefficient above 0.05."""
    k = min(d_a, d_b)
    lam = rng.dirichlet(np.ones(k))
    while lam.min() <= 0.05:
        lam = rng.dirichlet(np.ones(k))
    u, v = qcorr.haar_unitary(d_a, rng), qcorr.haar_unitary(d_b, rng)
    psi = sum(np.sqrt(lam[i]) * np.kron(u[:, i], v[:, i]) for i in range(k))
    return _state((d_a, d_b), _projector(psi))


def random_full(d_a, d_b, rng):
    return qcorr.random_density((d_a, d_b), d_a * d_b, rng)


GENERATORS = {"cc": random_cc, "cq": random_cq, "sep": random_sep,
              "ent": random_ent, "full": random_full}


@dataclass(frozen=True)
class Input:
    state_id: str
    label: str
    rho: "qcorr.DensityMatrix | None"
    unitary: np.ndarray | None = None  # Petz test channel (structure only)
    members: tuple["Input", ...] = ()  # a structure unit's states


def _labeled(labels, dims, rng, tag="", with_unitary=False):
    """One state of each label, in order."""
    out = []
    for label in labels:
        rho = GENERATORS[label](*dims, rng)
        u = qcorr.haar_unitary(dims[0], rng) if with_unitary else None
        out.append(Input(f"{label}_{dims[0]}x{dims[1]}{tag}", label, rho, u))
    return out


# ---------------------------------------------------------------------------
# Correctness gate


@dataclass
class Gate:
    """Counts correctness checks; keeps the first few failures for stderr."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def fingerprint_digest(record) -> str:
    """sha256 of a JSON-able record, serialized with sorted keys."""
    blob = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One named set of seeded inputs and the unit of work run on each."""

    name = ""
    unit = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.budget = self.default_budget()
        self.inputs = self.make_inputs(np.random.default_rng(seed))

    def default_budget(self) -> dict:
        return {}

    def make_inputs(self, rng) -> list[Input]:
        raise NotImplementedError

    def run_unit(self, inp: Input):
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def record(self, out):
        """JSON-able outputs of one unit; hashed into the digest."""
        raise NotImplementedError

    def check(self, inp: Input, out, gate: Gate) -> None:
        raise NotImplementedError

    def quality(self, outputs) -> dict:
        """Deterministic output-quality figures of one pass."""
        return {}

    def manifest(self) -> dict:
        return {"workload": self.name, "seed": self.seed, "unit": self.unit,
                "units_per_pass": len(self.inputs), "budget": self.budget,
                "inputs": [i.state_id for i in self.inputs]}


class ReportWorkload(Workload):
    unit = "correlation_report"
    labels: tuple[str, ...] = ()
    dims = (2, 2)
    with_bell = False

    def default_budget(self):
        return {"seed": self.seed, **REPORT_BUDGET}

    def make_inputs(self, rng):
        # One state per class: few inputs, so each repeats often in a run.
        head = [Input("bell", "bell", bell())] if self.with_bell else []
        return head + _labeled(self.labels, self.dims, rng)

    def run_unit(self, inp):
        cfg = qcorr.OptimizerConfig(**self.budget)
        return qcorr.correlation_report(inp.rho, cfg)

    def warmup(self):
        cfg = qcorr.OptimizerConfig(seed=self.seed, **WARMUP_BUDGET)
        qcorr.correlation_report(self.inputs[0].rho, cfg)

    def record(self, out):
        return out.to_dict()

    def check(self, inp, out, gate):
        sid = inp.state_id
        gate.check(out.I + TOL_CHAIN >= out.I_cq_lower >= out.I_cc_lower >= 0.0,
                   f"{sid}: chain I >= I_CQ >= I_CC >= 0 violated "
                   f"({out.I}, {out.I_cq_lower}, {out.I_cc_lower})")
        if inp.label == "bell":
            gate.check(abs(out.I - BELL["I"]) <= TOL_BELL_I, f"{sid}: I = {out.I}")
            gate.check(abs(out.I_cq_lower - BELL["I_cq"]) <= TOL_BELL_MEASURED,
                       f"{sid}: I_CQ = {out.I_cq_lower}")
            gate.check(abs(out.I_cc_lower - BELL["I_cc"]) <= TOL_BELL_MEASURED,
                       f"{sid}: I_CC = {out.I_cc_lower}")
        elif inp.label == "cc":
            gate.check(abs(out.I - out.I_cc_lower) <= TOL_CC_EXACT,
                       f"{sid}: I - I_CC = {out.I - out.I_cc_lower} on a CC state")
        elif inp.label == "cq":
            gate.check(abs(out.I - out.I_cq_lower) <= TOL_CQ_EXACT,
                       f"{sid}: I - I_CQ = {out.I - out.I_cq_lower} on a CQ state")

    def quality(self, outputs):
        return {"bound_bits": float(sum(o.I_cq_lower + o.I_cc_lower
                                        for o in outputs))}


class ReportQubit(ReportWorkload):
    name = "report-qubit"
    labels = ("cc", "cq", "sep", "ent")
    dims = (2, 2)
    with_bell = True


class ReportQutrit(ReportWorkload):
    name = "report-qutrit"
    labels = ("cc", "cq", "sep", "full")
    dims = (3, 3)


class Broadcast(Workload):
    name = "broadcast"
    unit = "broadcast_search"

    def default_budget(self):
        return dict(BROADCAST_BUDGET)

    def make_inputs(self, rng):
        return [Input("bell", "bell", bell()),
                Input("sep_2x2_0", "sep", random_sep(2, 2, rng))]

    def run_unit(self, inp):
        return qcorr.broadcast_search(inp.rho, qcorr.OptimizerConfig(**self.budget))

    def warmup(self):
        cfg = qcorr.OptimizerConfig(seed=0, **WARMUP_BUDGET)
        qcorr.broadcast_search(self.inputs[0].rho, cfg)

    def record(self, out):
        return {"marginal_residuals": list(out.marginal_residuals),
                "mi_deficit": out.mi_deficit, "valid": out.valid}

    def check(self, inp, out, gate):
        sid = inp.state_id
        _, res = qcorr.verify_broadcast(out.sigma, inp.rho)
        gate.check(all(abs(a - b) <= TOL_RESIDUAL_MATCH
                       for a, b in zip(res, out.marginal_residuals)),
                   f"{sid}: recorded residuals {out.marginal_residuals}, "
                   f"verify_broadcast gives {res}")
        # Bell and separable non-CQ states are not locally broadcastable.
        gate.check(max(out.marginal_residuals) > MIN_NONCLASSICAL_RESIDUAL,
                   f"{sid}: residuals {out.marginal_residuals} near zero")

    def quality(self, outputs):
        return {"residual_sum": float(sum(sum(o.marginal_residuals)
                                          for o in outputs))}


class Structure(Workload):
    name = "structure"
    unit = "structure pass of 8 states: each class at 2x2 and at 3x3"
    labels = ("cc", "cq", "sep", "ent")
    groups = 50

    def make_inputs(self, rng):
        # Every unit holds one state of each class and size, so unit times
        # are alike and their median does not sit between two clusters.
        return [Input(f"group_{k}", "group", None, members=tuple(
                    inp for dims in ((2, 2), (3, 3))
                    for inp in _labeled(self.labels, dims, rng, f"_g{k}",
                                        with_unitary=True)))
                for k in range(self.groups)]

    def run_unit(self, inp):
        return [self._state_pass(m) for m in inp.members]

    @staticmethod
    def _state_pass(inp):
        rho = inp.rho
        verdict = qcorr.is_cc(rho)
        out = {
            "kind": verdict.kind.value,
            "residual": verdict.residual,
            "cq_A": qcorr.is_cq(rho, side=0).kind.value,
            "cq_B": qcorr.is_cq(rho, side=1).kind.value,
            "ppt": qcorr.ppt_label(rho),
        }
        channel = qcorr.KrausChannel((inp.unitary,))
        rec = qcorr.petz_recovery(channel, qcorr.partial_trace(rho, (0,)))
        back = qcorr.apply_local(rec, 0, qcorr.apply_local(channel, 0, rho))
        out["petz_round_trip"] = qcorr.trace_distance(back, rho)
        if verdict.kind is qcorr.Kind.CC:
            # Cloning candidate: clone both classical bases -> [A, A', B, B'].
            theta_a, theta_b = qcorr.cc_broadcast_channels(verdict.basis_A,
                                                           verdict.basis_B)
            sigma = qcorr.apply_local(theta_b, 2,
                                      qcorr.apply_local(theta_a, 0, rho))
            ok, deficit = qcorr.theorem2_check(sigma, rho)
            out["theorem2"] = {"ok": bool(ok), "deficit": deficit}
        return out

    def warmup(self):
        self._state_pass(self.inputs[0].members[0])

    def record(self, out):
        return out

    def check(self, inp, out, gate):
        for member, res in zip(inp.members, out):
            self._check_state(member, res, gate)

    @staticmethod
    def _check_state(inp, out, gate):
        sid = inp.state_id
        gate.check(out["kind"] == EXPECTED_KIND[inp.label],
                   f"{sid}: is_cc says {out['kind']}")
        gate.check(out["ppt"] == EXPECTED_PPT[inp.label],
                   f"{sid}: ppt_label says {out['ppt']}")
        gate.check(out["petz_round_trip"] <= TOL_PETZ,
                   f"{sid}: Petz round trip {out['petz_round_trip']}")
        if inp.label == "cc":
            t2 = out.get("theorem2", {"ok": False, "deficit": float("nan")})
            gate.check(t2["ok"] and abs(t2["deficit"]) <= TOL_DEFICIT,
                       f"{sid}: theorem2 deficit {t2['deficit']} on CC cloning")


WORKLOADS = {w.name: w for w in (ReportQubit, ReportQutrit, Broadcast, Structure)}


# ---------------------------------------------------------------------------
# Passes


@dataclass
class PassResult:
    unit_s: list[float]
    digests: list[str]
    outputs: list
    ref_index: list[int]  # latest reference sample before each unit

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()


def timed_unit(wl: Workload, inp: Input, gate: Gate, reference=None):
    """Run one unit, gate its output; (seconds, digest, output, ref index).

    With a calibration.Reference, a reference sample is taken first when
    one falls due; the index is that of the latest sample.
    """
    ref_index = -1 if reference is None else reference.due()
    t0 = time.perf_counter()
    out = wl.run_unit(inp)
    seconds = time.perf_counter() - t0
    wl.check(inp, out, gate)
    return seconds, fingerprint_digest(wl.record(out)), out, ref_index


def run_pass(wl: Workload, gate: Gate, reference=None) -> PassResult:
    """Run every unit of `wl` once, timing each and gating its output."""
    return PassResult(*map(list, zip(*(timed_unit(wl, inp, gate, reference)
                                       for inp in wl.inputs))))


def check_repeat(first: PassResult, again: PassResult, gate: Gate,
                 what: str) -> None:
    """Determinism: a repeated pass must reproduce every unit's digest."""
    for k, (a, b) in enumerate(zip(first.digests, again.digests)):
        gate.check(a == b, f"{what}: unit {k} digest changed")
