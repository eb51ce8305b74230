import json

import numpy as np
import pytest

from qcorr.channels import depolarizing_channel, unitary_channel
from qcorr.cli import main
from qcorr.corpus import classically_correlated_bit
from qcorr.optimize import haar_unitary
from qcorr.qstate import bell_phi_plus, pure_state


FAST = ["--restarts", "2", "--max-evals", "150"]


def _write_bell(tmp_path):
    path = tmp_path / "bell.json"
    bell_phi_plus().save(path)
    return str(path)


def test_measures_bell(tmp_path, capsys):
    state = _write_bell(tmp_path)
    out = tmp_path / "report.json"
    rc = main(["measures", state, "--out", str(out), *FAST])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["I"] == pytest.approx(2.0, abs=1e-9)
    assert payload["report"]["I_cc_lower"] == pytest.approx(1.0, abs=1e-6)
    assert payload["manifest"]["command"] == "measures"


def test_measures_nats_units(tmp_path):
    state = _write_bell(tmp_path)
    out = tmp_path / "report.json"
    rc = main(["measures", state, "--out", str(out), "--units", "nats", *FAST])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["I"] == pytest.approx(2.0 * np.log(2.0), abs=1e-9)


def test_classify_cc_state(tmp_path):
    path = tmp_path / "cc.json"
    classically_correlated_bit().save(path)
    out = tmp_path / "verdict.json"
    rc = main(["classify", str(path), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"]["kind"] == "CC"
    assert payload["ppt"] == "ppt"


def test_classify_bell(tmp_path):
    state = _write_bell(tmp_path)
    out = tmp_path / "verdict.json"
    rc = main(["classify", state, "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"]["kind"] == "neither"
    assert payload["ppt"] == "npt"


def test_broadcast_cc_state(tmp_path):
    path = tmp_path / "cc.json"
    classically_correlated_bit().save(path)
    out = tmp_path / "bc.json"
    rc = main(["broadcast", str(path), "--out", str(out), *FAST])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["candidate"]["valid"] is True
    assert abs(payload["candidate"]["mi_deficit"]) <= 1e-9


def test_petz_local_channel(tmp_path):
    state = _write_bell(tmp_path)
    rng = np.random.default_rng(0)
    chan_path = tmp_path / "chan.json"
    unitary_channel(haar_unitary(2, rng)).save(chan_path)
    out = tmp_path / "petz.json"
    rc = main(["petz", state, str(chan_path), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "local_A"
    assert payload["recovery_trace_distance"] <= 1e-10
    assert payload["I_after"] == pytest.approx(payload["I_before"], abs=1e-9)


def test_petz_global_depolarizing(tmp_path):
    state = _write_bell(tmp_path)
    chan_path = tmp_path / "chan.json"
    depolarizing_channel(4).save(chan_path)
    out = tmp_path / "petz.json"
    rc = main(["petz", state, str(chan_path), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "global"
    assert payload["recovery_trace_distance"] <= 1e-10


def test_make_corpus_and_suite_roundtrip(tmp_path):
    corpus_dir = tmp_path / "corpus"
    rc = main(["make-corpus", "--per-class", "1", "--seed", "7",
               "--out", str(corpus_dir)])
    assert rc == 0
    labels = json.loads((corpus_dir / "labels.json").read_text())
    assert len(labels) == 4
    suite_out = tmp_path / "suite.csv"
    rc = main(["suite", str(corpus_dir), "--out", str(suite_out), *FAST])
    assert rc == 0
    lines = suite_out.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
    assert lines[0].startswith("state_id,kind_label,I,")


def test_suite_determinism_byte_identical(tmp_path):
    corpus_dir = tmp_path / "corpus"
    main(["make-corpus", "--per-class", "1", "--seed", "3",
          "--out", str(corpus_dir)])
    out1 = tmp_path / "suite1.csv"
    out2 = tmp_path / "suite2.csv"
    main(["suite", str(corpus_dir), "--out", str(out1), "--seed", "5", *FAST])
    main(["suite", str(corpus_dir), "--out", str(out2), "--seed", "5", *FAST])
    assert out1.read_bytes() == out2.read_bytes()


def test_measures_determinism_byte_identical(tmp_path):
    state = _write_bell(tmp_path)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main(["measures", state, "--out", str(out1), "--seed", "11", *FAST])
    main(["measures", state, "--out", str(out2), "--seed", "11", *FAST])
    assert out1.read_bytes() == out2.read_bytes()


def test_missing_state_file_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["measures", str(tmp_path / "nope.json")])
    assert exc.value.code == 2


def test_malformed_state_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"dims\": [2]}")
    with pytest.raises(SystemExit) as exc:
        main(["classify", str(bad)])
    assert exc.value.code == 3


def test_invalid_state_matrix_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    # trace two: violates the state invariant
    bad.write_text(json.dumps({
        "dims": [2],
        "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    }))
    with pytest.raises(SystemExit) as exc:
        main(["classify", str(bad)])
    assert exc.value.code == 3


def test_suite_empty_labels_exit_code(tmp_path, capsys):
    (tmp_path / "labels.json").write_text("[]\n")
    rc = main(["suite", str(tmp_path), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "lists no states" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_classify_non_bipartite_exit_code(tmp_path, capsys):
    path = tmp_path / "ghz.json"
    ghz = np.zeros(8)
    ghz[[0, 7]] = 2 ** -0.5
    pure_state(ghz, (2, 2, 2)).save(path)
    rc = main(["classify", str(path)])
    assert rc == 3
    assert "bipartite" in capsys.readouterr().err


def _corpus_with(tmp_path, labels, states=()):
    for state_id, rho in states:
        rho.save(tmp_path / f"{state_id}.json")
    (tmp_path / "labels.json").write_text(json.dumps(labels))
    return ["suite", str(tmp_path), "--out", str(tmp_path / "s.csv"), *FAST]


@pytest.mark.parametrize("labels", [
    [{"label": "cc"}],
    [{"state_id": "bell"}],
    ["bell"],
    [{"state_id": 3, "label": "ent"}],
])
def test_suite_malformed_labels_exit_code(tmp_path, capsys, labels):
    rc = main(_corpus_with(tmp_path, labels, [("bell", bell_phi_plus())]))
    assert rc == 2
    assert "state_id" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_suite_row_state_error_exit_code(tmp_path, capsys):
    ghz = np.zeros(8)
    ghz[[0, 7]] = 2 ** -0.5
    argv = _corpus_with(tmp_path, [{"state_id": "ghz", "label": "ent"}],
                        [("ghz", pure_state(ghz, (2, 2, 2)))])
    assert main(argv) == 3
    assert "ghz" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_suite_optimizer_failure_exit_code(tmp_path, capsys):
    # A general POVM family with fewer outcomes than the dimension.
    argv = _corpus_with(tmp_path, [{"state_id": "bell", "label": "ent"}],
                        [("bell", bell_phi_plus())])
    assert main([*argv, "--outcomes", "1"]) == 4
    assert "optimizer failure" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("matrix", [
    [[0.25]] * 4,
    [["0.5", "0"], [0, 0], [0, 0], [0.5, 0]],
    [0.5, 0, 0, 0.5],
])
def test_malformed_state_entries_exit_code(tmp_path, capsys, matrix):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": [2], "matrix": matrix}))
    with pytest.raises(SystemExit) as exc:
        main(["measures", str(bad), *FAST])
    assert exc.value.code == 2
    assert "cannot read state file" in capsys.readouterr().err


def test_non_finite_state_exit_code(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"dims": [2], "matrix": [[NaN, 0], [0, 0], [0, 0], [0.5, 0]]}')
    with pytest.raises(SystemExit) as exc:
        main(["measures", str(bad), *FAST])
    assert exc.value.code == 3
    assert "non-finite" in capsys.readouterr().err


def test_malformed_channel_exit_code(tmp_path):
    state = _write_bell(tmp_path)
    chan_path = tmp_path / "chan.json"
    chan_path.write_text(json.dumps(
        {"d_in": 2, "d_out": 2, "kraus": [[[1.0], [0.0], [0.0], [1.0]]]}))
    with pytest.raises(SystemExit) as exc:
        main(["petz", state, str(chan_path)])
    assert exc.value.code == 2


def test_non_finite_channel_exit_code(tmp_path):
    state = _write_bell(tmp_path)
    chan_path = tmp_path / "chan.json"
    chan_path.write_text(
        '{"d_in": 2, "d_out": 2, "kraus": [[[Infinity, 0], [0, 0], [0, 0], [1, 0]]]}')
    with pytest.raises(SystemExit) as exc:
        main(["petz", state, str(chan_path)])
    assert exc.value.code == 3


@pytest.mark.parametrize("flag,value", [
    ("--restarts", "0"), ("--max-evals", "-5"), ("--seed", "-1"),
    ("--tol", "0"), ("--tol", "nan"), ("--ancilla", "-1"), ("--outcomes", "x"),
])
def test_invalid_option_value_exit_code(tmp_path, flag, value):
    state = _write_bell(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["broadcast", state, flag, value])
    assert exc.value.code == 2
