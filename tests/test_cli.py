import json
import math

import numpy as np
import pytest

from qcorr.channels import depolarizing_channel, unitary_channel
from qcorr.cli import main
from qcorr.corpus import classically_correlated_bit, random_cq
from qcorr.optimize import haar_unitary, random_density
from qcorr.qstate import DensityMatrix, bell_phi_plus, pure_state


FAST = ["--restarts", "2", "--max-evals", "150"]


def _fails(argv, capsys, code, path):
    """`main(argv)` returns `code` with an error naming `path` on stderr,
    and no traceback; the stderr text."""
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "error: " in err and str(path) in err
    assert "Traceback" not in err
    return err


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


def test_measures_nats_converts_the_search_values(tmp_path):
    path = tmp_path / "rho.json"
    random_density((2, 2), 4, np.random.default_rng(3)).save(path)
    payloads = {}
    for units in ("bits", "nats"):
        out = tmp_path / f"{units}.json"
        assert main(["measures", str(path), "--out", str(out),
                     "--units", units, *FAST]) == 0
        payloads[units] = json.loads(out.read_text())["report"]
    bits, nats = (payloads[u].pop("optimizer_meta") for u in ("bits", "nats"))
    ln2 = np.log(2.0)
    for phase in ("icq", "icc", "icq_projective"):
        b, n = bits.pop(phase), nats.pop(phase)
        assert n.pop("value") == b.pop("value") * ln2
        assert n.pop("restart_values") == [v * ln2
                                           for v in b.pop("restart_values")]
        assert n == b  # params, evaluations, stops and winner as they were
    for gain in ("icq_general_gain", "icc_general_gain"):
        assert nats.pop(gain) == bits.pop(gain) * ln2
    assert nats == bits
    assert payloads["nats"]["I"] == payloads["bits"]["I"] * ln2


def test_classify_cc_state(tmp_path):
    path = tmp_path / "cc.json"
    classically_correlated_bit().save(path)
    out = tmp_path / "verdict.json"
    rc = main(["classify", str(path), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"]["kind"] == "CC"
    assert payload["ppt"] == "ppt"


def test_classify_output_is_the_separate_verdicts(tmp_path):
    from qcorr.classify import is_cc, is_cq

    rng = np.random.default_rng(5)
    states = {"cc": classically_correlated_bit(), "bell": bell_phi_plus(),
              "cq": random_cq(2, 3, rng), "cq_3x3": random_cq(3, 3, rng)}
    for name, rho in states.items():
        path = tmp_path / f"{name}.json"
        rho.save(path)
        rho = DensityMatrix.load(path)
        out = tmp_path / f"{name}_verdict.json"
        assert main(["classify", str(path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        payload.update(verdict=is_cc(rho).to_dict(),
                       cq_verdict=is_cq(rho, side=0).to_dict(),
                       qc_verdict=is_cq(rho, side=1).to_dict())
        assert out.read_text() == json.dumps(payload, sort_keys=True,
                                             indent=2) + "\n", name


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


def test_petz_product_output_has_zero_information(tmp_path):
    # Fully depolarizing party A leaves a product state, whose I came out
    # as -4.440892098500626e-16 before mutual information was clamped.
    state = tmp_path / "qutrit.json"
    random_density((3, 3), 9, np.random.default_rng(7)).save(state)
    chan_path = tmp_path / "chan.json"
    depolarizing_channel(3).save(chan_path)
    out = tmp_path / "petz.json"
    assert main(["petz", str(state), str(chan_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "local_A"
    assert payload["I_after"] == 0.0
    assert math.copysign(1.0, payload["I_after"]) == 1.0
    assert payload["I_before"] > 0.0


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


@pytest.mark.parametrize("out_dims", [[1, 2], [2, 1]])
def test_petz_channel_splitting_party_a_exit_code(tmp_path, capsys, out_dims):
    # A valid channel on party A whose output is several parties: the
    # recovery cannot map it back as party A, an input mismatch (exit 3).
    state = _write_bell(tmp_path)
    chan_path = tmp_path / "split.json"
    chan_path.write_text(json.dumps({
        "d_in": 2, "d_out": 2, "out_dims": out_dims,
        "kraus": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}))
    out = tmp_path / "petz.json"
    assert main(["petz", state, str(chan_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"out_dims are {out_dims}" in err and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("per_class", ["-1", "0"])
def test_make_corpus_non_positive_per_class_exit_code(tmp_path, capsys,
                                                      per_class):
    corpus_dir = tmp_path / "corpus"
    with pytest.raises(SystemExit) as exc:
        main(["make-corpus", "--per-class", per_class, "--out", str(corpus_dir)])
    assert exc.value.code == 2
    assert not corpus_dir.exists()


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


def test_missing_state_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    _fails(["measures", str(missing)], capsys, 2, missing)


def test_malformed_state_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"dims\": [2]}")
    _fails(["classify", str(bad)], capsys, 2, bad)


@pytest.mark.parametrize("record", ["[1, 2]", "7", "\"rho\"", "null"])
def test_non_object_state_exit_code(tmp_path, capsys, record):
    bad = tmp_path / "bad.json"
    bad.write_text(record)
    assert "cannot read state file" in _fails(["classify", str(bad)], capsys,
                                              2, bad)


@pytest.mark.parametrize("record", ["[1, 2]", "7", '{"d_in": 2, "d_out": 2}'])
def test_non_object_or_incomplete_channel_exit_code(tmp_path, capsys, record):
    state = _write_bell(tmp_path)
    chan_path = tmp_path / "chan.json"
    chan_path.write_text(record)
    assert "cannot read channel file" in _fails(
        ["petz", state, str(chan_path)], capsys, 2, chan_path)


def test_invalid_state_matrix_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # trace two: violates the state invariant
    bad.write_text(json.dumps({
        "dims": [2],
        "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    }))
    assert "invalid state file" in _fails(["classify", str(bad)], capsys,
                                          3, bad)


def test_suite_empty_labels_exit_code(tmp_path, capsys):
    (tmp_path / "labels.json").write_text("[]\n")
    rc = main(["suite", str(tmp_path), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "lists no states" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_suite_undecodable_labels_exit_code(tmp_path, capsys):
    (tmp_path / "labels.json").write_bytes(b'[{"state_id": "b\xe9ll"}]')
    rc = main(["suite", str(tmp_path), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err
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


def test_suite_state_id_naming_no_file_exit_code(tmp_path, capsys):
    # A state_id with a NUL byte names no file: open() raises ValueError,
    # not OSError, and the row is unreadable all the same.
    rc = main(_corpus_with(tmp_path, [{"state_id": "a\0b", "label": "ent"}]))
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot read state file" in err and "Traceback" not in err
    assert not (tmp_path / "s.csv").exists()


def test_suite_row_state_error_exit_code(tmp_path, capsys):
    ghz = np.zeros(8)
    ghz[[0, 7]] = 2 ** -0.5
    argv = _corpus_with(tmp_path, [{"state_id": "ghz", "label": "ent"}],
                        [("ghz", pure_state(ghz, (2, 2, 2)))])
    assert main(argv) == 3
    assert "ghz" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_suite_optimizer_failure_exit_code(tmp_path, capsys, monkeypatch):
    import qcorr.cli as cli_mod

    def failing(rho, cfg):
        raise FloatingPointError("overflow in the search objective")

    monkeypatch.setattr(cli_mod, "broadcast_search", failing)
    argv = _corpus_with(tmp_path, [{"state_id": "bell", "label": "ent"}],
                        [("bell", bell_phi_plus())])
    assert main(argv) == 4
    assert "optimizer failure" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_outcomes_below_a_dimension_exit_code(tmp_path, capsys, monkeypatch,
                                              dims):
    # Fewer general-POVM outcomes than a party's dimension is an option
    # out of range for the input: exit 2 before any search runs.
    import qcorr.correlations as corr_mod

    def no_search(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(corr_mod, "maximize", no_search)
    rho = random_density(dims, 2, np.random.default_rng(3))
    path = tmp_path / "rho.json"
    rho.save(path)
    outcomes = str(min(dims) if dims[0] != dims[1] else 1)
    assert main(["measures", str(path), "--outcomes", outcomes, *FAST]) == 2
    err = capsys.readouterr().err
    assert "outcome count" in err and "optimizer failure" not in err
    argv = _corpus_with(tmp_path, [{"state_id": "rho", "label": "sep"}])
    assert main([*argv, "--outcomes", outcomes]) == 2
    assert "rho: outcome count" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_projective_only_accepts_few_outcomes(tmp_path):
    state = _write_bell(tmp_path)
    out = tmp_path / "report.json"
    assert main(["measures", state, "--outcomes", "1", "--projective-only",
                 "--out", str(out), *FAST]) == 0
    assert json.loads(out.read_text())["report"]["I_cc_lower"] == \
        pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("matrix", [
    [[0.25]] * 4,
    [["0.5", "0"], [0, 0], [0, 0], [0.5, 0]],
    [0.5, 0, 0, 0.5],
])
def test_malformed_state_entries_exit_code(tmp_path, capsys, matrix):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": [2], "matrix": matrix}))
    assert "cannot read state file" in _fails(["measures", str(bad), *FAST],
                                              capsys, 2, bad)


def test_non_finite_state_exit_code(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"dims": [2], "matrix": [[NaN, 0], [0, 0], [0, 0], [0.5, 0]]}')
    assert "non-finite" in _fails(["measures", str(bad), *FAST], capsys, 3, bad)


def test_malformed_channel_exit_code(tmp_path, capsys):
    state = _write_bell(tmp_path)
    chan_path = tmp_path / "chan.json"
    chan_path.write_text(json.dumps(
        {"d_in": 2, "d_out": 2, "kraus": [[[1.0], [0.0], [0.0], [1.0]]]}))
    _fails(["petz", state, str(chan_path)], capsys, 2, chan_path)


def test_non_finite_channel_exit_code(tmp_path, capsys):
    state = _write_bell(tmp_path)
    chan_path = tmp_path / "chan.json"
    chan_path.write_text(
        '{"d_in": 2, "d_out": 2, "kraus": [[[Infinity, 0], [0, 0], [0, 0], [1, 0]]]}')
    assert "invalid channel file" in _fails(["petz", state, str(chan_path)],
                                            capsys, 3, chan_path)


@pytest.mark.parametrize("flag,value", [
    ("--restarts", "0"), ("--max-evals", "-5"), ("--seed", "-1"),
    ("--tol", "0"), ("--tol", "nan"), ("--ancilla", "-1"), ("--outcomes", "x"),
])
def test_invalid_option_value_exit_code(tmp_path, flag, value):
    state = _write_bell(tmp_path)
    subcommand = "measures" if flag == "--outcomes" else "broadcast"
    with pytest.raises(SystemExit) as exc:
        main([subcommand, state, flag, value])
    assert exc.value.code == 2


def _unwritable_out(tmp_path, where):
    """An --out path that cannot be written: under a missing directory, a
    directory itself, or (for make-corpus) an existing file or a path
    under one."""
    afile = tmp_path / "afile"
    afile.write_text("taken\n")
    return str({"missing_dir": tmp_path / "nonexistent" / "x.json",
                "directory": tmp_path,
                "existing_file": afile,
                "under_a_file": afile / "sub"}[where])


def _argv_for(subcommand, tmp_path):
    state = _write_bell(tmp_path)
    if subcommand == "petz":
        chan_path = tmp_path / "chan.json"
        depolarizing_channel(4).save(chan_path)
        return ["petz", state, str(chan_path)]
    if subcommand == "suite":
        return _corpus_with(tmp_path, [{"state_id": "bell", "label": "ent"}],
                            [("bell", bell_phi_plus())])[:2] + FAST
    if subcommand == "make-corpus":
        return ["make-corpus", "--per-class", "1"]
    if subcommand == "classify":
        return ["classify", state]
    return [subcommand, state, *FAST]


@pytest.mark.parametrize("subcommand,where", [
    (sub, where)
    for sub in ("measures", "classify", "broadcast", "petz", "suite")
    for where in ("missing_dir", "directory")
] + [("make-corpus", "existing_file"), ("make-corpus", "under_a_file")])
def test_unwritable_out_exit_code(tmp_path, capsys, subcommand, where):
    argv = _argv_for(subcommand, tmp_path)
    out = _unwritable_out(tmp_path, where)
    assert main([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {out}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("subcommand,target", [
    ("classify", "side_verdicts"), ("petz", "petz_recovery")])
def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch,
                                     subcommand, target):
    import qcorr.cli as cli_mod

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(cli_mod, target, failing)
    argv = _argv_for(subcommand, tmp_path)
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 4
    err = capsys.readouterr().err
    assert "did not converge" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


FLAGS = {"--seed": "1", "--restarts": "2", "--max-evals": "3", "--tol": "0.1",
         "--units": "nats", "--outcomes": "4", "--projective-only": None,
         "--ancilla": "2", "--per-class": "1", "--out": "x"}
SEARCH = ("--seed", "--restarts", "--max-evals", "--tol", "--units")


OPTION_SETS = {
    "measures": SEARCH + ("--outcomes", "--projective-only", "--out"),
    "broadcast": SEARCH + ("--ancilla", "--out"),
    "suite": SEARCH + ("--outcomes", "--projective-only", "--ancilla", "--out"),
    "classify": ("--seed", "--tol", "--out"),
    "petz": ("--seed", "--units", "--out"),
    "make-corpus": ("--per-class", "--seed", "--out"),
}


@pytest.mark.parametrize("subcommand", list(OPTION_SETS))
def test_subcommand_option_set(subcommand, capsys):
    # Each subcommand takes exactly the options it reads; any other is a
    # usage error (exit 2) at parsing, before anything runs.
    from qcorr.cli import build_parser

    positional = {"petz": ["s.json", "c.json"], "suite": ["corpus"],
                  "make-corpus": []}.get(subcommand, ["s.json"])
    for flag, value in FLAGS.items():
        argv = [subcommand, *positional, flag, *([value] if value else [])]
        if flag in OPTION_SETS[subcommand]:
            build_parser().parse_args(argv)
            continue
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2, flag
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_suite_and_petz_nats_units(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert main(["make-corpus", "--per-class", "1", "--seed", "2",
                 "--out", str(corpus_dir)]) == 0
    tables = {}
    for units in ("bits", "nats"):
        out = tmp_path / f"suite-{units}.csv"
        assert main(["suite", str(corpus_dir), "--units", units,
                     "--out", str(out), *FAST]) == 0
        tables[units] = [line.split(",") for line in
                         out.read_text().strip().splitlines()]
    header = tables["bits"][0]
    converted = {"I", "I_cq_lower", "I_cc_lower", "delta_cc_upper",
                 "mi_deficit"}
    for bits_row, nats_row in zip(tables["bits"][1:], tables["nats"][1:]):
        for name, b, n in zip(header, bits_row, nats_row):
            if name in converted:
                assert float(n) == pytest.approx(float(b) * np.log(2.0),
                                                 abs=1e-12), name
            else:  # lb_residual is a trace distance
                assert n == b, name

    state = _write_bell(tmp_path)
    chan_path = tmp_path / "chan.json"
    unitary_channel(haar_unitary(2, np.random.default_rng(0))).save(chan_path)
    out = tmp_path / "petz.json"
    assert main(["petz", state, str(chan_path), "--units", "nats",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["units"] == "nats"
    for key in ("I_before", "I_after"):
        assert payload[key] == pytest.approx(2.0 * np.log(2.0), abs=1e-9)
