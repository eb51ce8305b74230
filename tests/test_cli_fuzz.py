"""Fuzz every `qcorr` subcommand with arbitrary JSON inputs and option
values at tiny budgets: each run ends in a documented exit code (0, 2, 3
or 4), never in an uncaught exception or a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from qcorr.channels import depolarizing_channel, unitary_channel
from qcorr.cli import main
from qcorr.optimize import haar_unitary, random_density

EXIT_CODES = {0, 2, 3, 4}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)



def mostly(valid, invalid):
    """Values of `valid` nine times in ten, else of `invalid`: most runs
    get past parsing and into the computation."""
    return st.sampled_from([valid] * 9 + [invalid]).flatmap(lambda s: s)


# Bipartite layouts mostly; the others exit 3 from every measure.
DIMS = mostly(st.lists(st.integers(1, 3), min_size=2, max_size=2),
              st.lists(st.integers(1, 3), min_size=1, max_size=3))


@st.composite
def state_records(draw):
    """A valid state record, or one with a field or entry broken."""
    dims = draw(DIMS)
    d = int(np.prod(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    record = random_density(dims, int(rng.integers(1, d + 1)), rng).to_json_dict()
    flaw = draw(mostly(st.just("none"), st.sampled_from(
        ["dims", "matrix", "entry", "scale", "drop"])))
    if flaw == "dims":
        record["dims"] = draw(JSON | st.lists(st.integers(-1, 4), max_size=3))
    elif flaw == "matrix":
        record["matrix"] = draw(JSON)
    elif flaw == "entry":
        i = draw(st.integers(0, d * d - 1))
        record["matrix"][i] = draw(JSON | st.lists(st.floats(), min_size=2,
                                                     max_size=2))
    elif flaw == "scale":
        factor = draw(st.floats(-2.0, 2.0))
        record["matrix"] = [[factor * re, factor * im]
                            for re, im in record["matrix"]]
    elif flaw == "drop":
        del record[draw(st.sampled_from(["dims", "matrix"]))]
    return record


@st.composite
def channel_records(draw, dims):
    """A valid channel record on party A or on the whole of a state with
    `dims` (if those are dimensions), or one with a field broken."""
    sizes = [2, 4]
    if isinstance(dims, list) and dims and all(
            isinstance(x, int) and not isinstance(x, bool) and 1 <= x <= 3
            for x in dims):
        sizes = [dims[0], int(np.prod(dims))]
    d = draw(mostly(st.sampled_from(sizes), st.sampled_from([2, 4])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    channel = draw(st.sampled_from([
        lambda: unitary_channel(haar_unitary(d, rng)),
        lambda: depolarizing_channel(d),
    ]))()
    record = channel.to_json_dict()
    flaw = draw(mostly(st.just("none"), st.sampled_from(
        ["d_in", "d_out", "out_dims", "kraus"])))
    if flaw != "none":
        record[flaw] = draw(JSON)
    return record


def _documents(records):
    """JSON text of a record or of any JSON value, or bytes that are not
    JSON at all."""
    return mostly(records.map(json.dumps),
                  JSON.map(json.dumps) | st.binary(max_size=12))


COUNT = mostly(st.integers(1, 2).map(str),
               st.sampled_from(["-1", "0", "x", "1.5", ""]))
OPTIONS = {
    "--seed": mostly(st.integers(0, 40).map(str), st.sampled_from(["-1", "x"])),
    "--tol": mostly(st.sampled_from(["1e-8", "1e-3", "0.5", "1e300"]),
                    st.sampled_from(["0", "-1", "nan", "inf", "x"])),
    "--units": mostly(st.sampled_from(["bits", "nats"]), st.just("x")),
    "--ancilla": COUNT,
}
# The optional flags each subcommand accepts (besides --out).
SEARCH = ("--seed", "--restarts", "--max-evals", "--tol", "--units")
ACCEPTS = {
    "measures": SEARCH + ("--projective-only",),
    "broadcast": SEARCH + ("--ancilla",),
    "suite": SEARCH + ("--projective-only", "--ancilla"),
    "classify": ("--seed", "--tol"),
    "petz": ("--seed", "--units"),
    "make-corpus": ("--per-class", "--seed"),
}


@st.composite
def options(draw, subcommand):
    """Options the subcommand accepts, each possibly absent or invalid, at
    tiny budgets: a search's rounds and a corpus's size are always set."""
    accepts = ACCEPTS[subcommand]
    argv = []
    if "--restarts" in accepts:
        argv += ["--restarts", draw(COUNT), "--max-evals",
                 draw(mostly(st.integers(1, 20).map(str), st.just("0")))]
    for flag, values in OPTIONS.items():
        if flag in accepts and draw(st.booleans()):
            argv += [flag, draw(values)]
    if "--projective-only" in accepts and draw(st.booleans()):
        argv.append("--projective-only")
    if "--per-class" in accepts:
        argv += ["--per-class", draw(COUNT)]
    return argv


def _write(path: Path, document) -> str:
    if isinstance(document, bytes):
        path.write_bytes(document)
    else:
        path.write_text(document)
    return str(path)


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _check(argv):
    code, err = _run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)


FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.sampled_from(["measures", "classify", "broadcast"]),
       _documents(state_records()), st.data())
def test_state_subcommands(subcommand, state, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [subcommand, _write(tmp / "state.json", state),
                *data.draw(options(subcommand)),
                "--out", str(tmp / data.draw(st.sampled_from(
                    ["out.json", "missing/out.json", "."])))]
        _check(argv)


@FUZZ
@given(state_records(), st.data())
def test_petz(record, data):
    state = data.draw(mostly(st.just(json.dumps(record)), _documents(JSON)))
    channel = data.draw(_documents(channel_records(record.get("dims"))))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _check(["petz", _write(tmp / "state.json", state),
                _write(tmp / "channel.json", channel),
                *data.draw(options("petz")), "--out", str(tmp / "out.json")])


@FUZZ
@given(channel_records([]), st.data())
def test_petz_on_empty_dims(channel, data):
    # The state flaw "dims" can draw the empty list, and `test_petz` then
    # builds its channel from it: the strategy must fall back to its
    # default sizes, and `qcorr petz` must reject the state.
    state = json.dumps({"dims": [], "matrix": [[1.0, 0.0]]})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = ["petz", _write(tmp / "state.json", state),
                _write(tmp / "channel.json", json.dumps(channel)),
                *data.draw(options("petz")), "--out", str(tmp / "out.json")]
        code, err = _run(argv)
        assert code in (2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)


LABEL_ENTRIES = st.fixed_dictionaries(
    {"state_id": mostly(st.sampled_from(["s0", "s1"]), JSON), "label": JSON})


@FUZZ
@given(st.lists(state_records(), min_size=1, max_size=2),
       mostly(st.lists(LABEL_ENTRIES, min_size=1, max_size=2),
              JSON | st.lists(LABEL_ENTRIES, max_size=3)),
       st.data())
def test_suite(states, labels, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, record in enumerate(states):
            (tmp / f"s{i}.json").write_text(json.dumps(record))
        (tmp / "labels.json").write_text(json.dumps(labels))
        _check(["suite", str(tmp), *data.draw(options("suite")),
                "--out", str(tmp / data.draw(st.sampled_from(
                    ["out.csv", "missing/out.csv", "."])))])


@FUZZ
@given(st.data())
def test_make_corpus(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "afile").write_text("taken\n")
        _check(["make-corpus", *data.draw(options("make-corpus")),
                "--out", str(tmp / data.draw(st.sampled_from(
                    ["corpus", "new/corpus", "afile", "afile/corpus"])))])
