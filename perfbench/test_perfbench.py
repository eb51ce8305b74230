"""Smoke test of the benchmark at a tiny budget.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bootstrap

bootstrap.pin_threads()
bootstrap.import_qcorr()

import hooks  # noqa: E402
import microbench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads(run.SPEC_PATH.read_text())
TINY = {"restarts": 1, "max_evals": 20}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "REPORT_BUDGET", TINY)
    monkeypatch.setattr(workloads, "BROADCAST_BUDGET", {"seed": 0, **TINY})
    monkeypatch.setattr(workloads.Structure, "groups", 2)


def _run(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.01", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    info = {line.split()[1]: json.loads(line.split(" ", 2)[2])
            for line in lines if line.startswith("info ")}
    return code, json.loads(lines[-1]), info


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload):
    digests = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result, info = _run(capsys, workload, trace)
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
        digests[trace] = info["digest"]
        if trace:
            assert info["traced_digest"] == info["digest"]
            assert info["absent"] == []
    assert digests[0] == digests[1]


def test_traced_run_separates_the_layers(tiny, capsys):
    layer = {}
    for workload in workloads.WORKLOADS:
        _, result, _ = _run(capsys, workload, 1)
        layer[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    assert layer["broadcast"]["kernels.calls"] == 0
    assert layer["structure"]["kernels.calls"] == 0
    assert layer["structure"]["optimize.maximize.evals"] == 0
    assert layer["report-qubit"]["kernels.calls"] > 0
    assert layer["broadcast"]["broadcast.objective.us_per_eval"] > 0


@pytest.mark.parametrize("workload,table,key,wrong", [
    ("report-qubit", "BELL", "I_cc", 0.5),
    ("structure", "EXPECTED_KIND", "cc", "CQ"),
])
def test_gate_trips_on_a_corrupted_expectation(tiny, capsys, monkeypatch,
                                               workload, table, key, wrong):
    monkeypatch.setitem(getattr(workloads, table), key, wrong)
    code, result, _ = _run(capsys, workload, 0)
    assert code == 0
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]


def test_missing_hooks_are_absent_not_raised(tiny, monkeypatch):
    gone = (("qcorr.no_such_module", "cq_blocks"),)
    moved = tuple(hooks.Hook(h.span, gone) if h.span.startswith("kernels.") else h
                  for h in hooks.HOOKS)
    monkeypatch.setattr(hooks, "HOOKS", moved)
    monkeypatch.setattr(hooks, "BY_SPAN", {h.span: h for h in moved})

    assert microbench.cases()["kernels.cq_blocks.us.2x2"] is None
    wl = workloads.ReportQubit(seed=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.run_pass(wl, workloads.Gate())
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.summary(), tracer.absent, tracer.restarts)
    assert {"kernels.cc_joint_probs", "kernels.cq_blocks",
            "kernels.shannon_bits"} <= tracer.absent
    assert metrics["kernels.calls"] is None
    assert metrics["optimize.maximize.evals"] > 0


def test_fails_without_program_sources(tmp_path):
    root = Path(run.__file__).resolve().parents[1]
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "structure",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
