"""Command-line entry point.

Subcommands: measures, classify, broadcast, petz, suite, make-corpus.
All reports are JSON (suite emits CSV) and embed a run manifest.  Reports
are byte-reproducible for a fixed seed; wall time goes to stderr only.

Exit codes: 0 success, 2 parse error (an unreadable input, an option value
out of range for the input, or an unwritable output), 3 invariant
violation, 4 optimizer or numerical failure.  Commands, loaders and
writers only raise; `main` alone turns an error into its code (`_EXITS`).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Iterator

from . import __version__
from .broadcast import broadcast_search
from .channels import (ChannelError, ChannelParseError, KrausChannel,
                       apply_channel, apply_local, petz_recovery)
from .classify import ppt_label, side_verdicts
from .correlations import correlation_report, mutual_information
from .corpus import make_corpus
from .optimize import ConfigRangeError, OptimizerConfig
from .qstate import (DensityMatrix, StateError, StateParseError, bits_to_nats,
                     partial_trace, trace_distance)

EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_OPTIMIZER = 4


def _manifest(command: str, inputs: list[str], cfg: OptimizerConfig) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "config": cfg.to_dict(),
        "tool_version": __version__,
        "seed": cfg.seed,
    }


class _Failed(Exception):
    """The error in `__cause__`, raised at `step` ("read", "write" or "run")
    on `subject`: the file read or written, or a suite row's prefix."""

    def __init__(self, step: str, subject: str):
        super().__init__(step, subject)
        self.step, self.subject = step, subject


@contextmanager
def _at(step: str, subject) -> Iterator[None]:
    """Tag an error raised in the block with what `main` reports it as."""
    try:
        yield
    except (OSError, ValueError, FloatingPointError) as exc:
        raise _Failed(step, str(subject)) from exc


# How `main` reports an error that `_at` tagged (an untagged one is a "run"
# error with no subject): the first row whose step and exception types match
# gives the exit code and the message head, formatted with the subject.  A
# ChannelError is an invalid input when read (3), and a failure of the
# computation when run (4), as a LinAlgError is.
_EXITS = (
    ("read", (StateParseError, ChannelParseError), EXIT_PARSE, "cannot read {}: "),
    ("read", (StateError, ChannelError), EXIT_INVARIANT, "invalid {}: "),
    ("read", Exception, EXIT_PARSE, "cannot read {}: "),
    ("write", Exception, EXIT_PARSE, "cannot write {}: "),
    ("run", ConfigRangeError, EXIT_PARSE, "{}"),
    ("run", StateError, EXIT_INVARIANT, "{}"),
    ("run", Exception, EXIT_OPTIMIZER, "{}optimizer failure: "),
)


def _write_report(payload: dict, out_path: str | None) -> None:
    """Write the JSON report to `out_path` (stdout if None)."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return
    with _at("write", out_path):
        Path(out_path).write_text(text)


_BITS_FIELDS = {"I", "I_cq_lower", "I_cc_lower", "delta_cc_upper",
                "discord_upper", "mi_deficit", "I_before", "I_after",
                "value", "restart_values", "icq_general_gain",
                "icc_general_gain"}


def _convert_units(payload, units: str, in_bits: bool = False):
    """Recursively convert the values of the bit-valued fields to nats: the
    measures, and the values the searches of `optimizer_meta` reached."""
    if units == "bits":
        return payload
    if isinstance(payload, dict):
        return {k: _convert_units(v, units, k in _BITS_FIELDS)
                for k, v in payload.items()}
    if isinstance(payload, list):
        return [_convert_units(v, units, in_bits) for v in payload]
    if in_bits and isinstance(payload, (int, float)):
        return bits_to_nats(payload)
    return payload


def _load_state(path) -> DensityMatrix:
    with _at("read", f"state file {path}"):
        return DensityMatrix.load(path)


def _load_channel(path) -> KrausChannel:
    with _at("read", f"channel file {path}"):
        return KrausChannel.load(path)


_CONFIG_FIELDS = {f.name for f in fields(OptimizerConfig)}


def _cfg_from_args(args) -> OptimizerConfig:
    """The search settings among the subcommand's options; the settings it
    has no option for keep their defaults."""
    return OptimizerConfig(**{name: value for name, value in vars(args).items()
                              if name in _CONFIG_FIELDS})


def cmd_measures(args) -> None:
    rho = _load_state(args.state)
    cfg = _cfg_from_args(args)
    report = correlation_report(rho, cfg)
    _write_report({
        "manifest": _manifest("measures", [args.state], cfg),
        "units": args.units,
        "report": _convert_units(report.to_dict(), args.units),
    }, args.out)


def cmd_classify(args) -> None:
    rho = _load_state(args.state)
    cc, cq, qc = side_verdicts(rho, args.tol)
    _write_report({
        "manifest": _manifest("classify", [args.state],
                              OptimizerConfig(seed=args.seed)),
        "tol": args.tol,
        "verdict": cc.to_dict(),
        "cq_verdict": cq.to_dict(),
        "qc_verdict": qc.to_dict(),
        "ppt": ppt_label(rho),
    }, args.out)


def cmd_broadcast(args) -> None:
    rho = _load_state(args.state)
    cfg = _cfg_from_args(args)
    cand = broadcast_search(rho, cfg)
    _write_report({
        "manifest": _manifest("broadcast", [args.state], cfg),
        "units": args.units,
        "candidate": _convert_units(cand.to_dict(), args.units),
    }, args.out)


def cmd_petz(args) -> None:
    rho = _load_state(args.state)
    ch = _load_channel(args.channel)
    if ch.d_in == rho.dim:
        # Global channel: reference is the state itself.
        recovery = petz_recovery(ch, rho)
        degraded = apply_channel(ch, rho)
        recovered = apply_channel(recovery, degraded)
        mode = "global"
        mi = {}
    elif rho.layout.n_subsystems == 2 and ch.d_in == rho.dims[0]:
        # Local channel on party A; reference is the marginal product.
        if len(ch.out_dims) != 1:
            # The recovery maps party A's output back as one party.
            raise StateError(
                f"a channel on party A must keep it one party, but its "
                f"out_dims are {list(ch.out_dims)}")
        rho_a = partial_trace(rho, (0,))
        rec_a = petz_recovery(ch, rho_a)
        degraded = apply_local(ch, 0, rho)
        recovered = apply_local(rec_a, 0, degraded)
        mode = "local_A"
        mi = {
            "I_before": mutual_information(rho),
            "I_after": mutual_information(degraded),
        }
    else:
        raise StateError(
            f"channel input {ch.d_in} matches neither the full "
            f"state ({rho.dim}) nor party A ({rho.dims[0]})")
    _write_report({
        "manifest": _manifest("petz", [args.state, args.channel],
                              OptimizerConfig(seed=args.seed)),
        "units": args.units,
        "mode": mode,
        "recovery_trace_distance": trace_distance(recovered, rho),
        **_convert_units(mi, args.units),
    }, args.out)


def cmd_suite(args) -> None:
    cfg = _cfg_from_args(args)
    corpus_dir = Path(args.corpus)
    labels_path = corpus_dir / "labels.json"
    with _at("read", labels_path):
        labels = json.loads(labels_path.read_text())
        if not isinstance(labels, list) or not labels:
            raise ValueError("lists no states")
        for entry in labels:
            if not (isinstance(entry, dict)
                    and isinstance(entry.get("state_id"), str)
                    and "label" in entry):
                raise ValueError(
                    f"entry {entry!r} lacks a string state_id or a label")
    rows = []
    for entry in labels:
        state_id = entry["state_id"]
        rho = _load_state(corpus_dir / f"{state_id}.json")
        with _at("run", f"{state_id}: "):
            report = correlation_report(rho, cfg)
            cand = broadcast_search(rho, cfg)
        rows.append({
            "state_id": state_id,
            "kind_label": entry["label"],
            **_convert_units({
                "I": report.I,
                "I_cq_lower": report.I_cq_lower,
                "I_cc_lower": report.I_cc_lower,
                "delta_cc_upper": report.delta_cc_upper,
                "lb_residual": max(cand.marginal_residuals),
                "mi_deficit": cand.mi_deficit,
            }, args.units),
            "seed": cfg.seed,
        })
    out_path = args.out or "suite.csv"
    with _at("write", out_path), open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out_path}", file=sys.stderr)


def cmd_make_corpus(args) -> None:
    states = make_corpus(n_per_class=args.per_class, seed=args.seed)
    out_dir = Path(args.out or "corpus")
    labels = [{"state_id": entry.state_id, "label": entry.label}
              for entry in states]
    with _at("write", out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        for entry in states:
            entry.rho.save(out_dir / f"{entry.state_id}.json")
        (out_dir / "labels.json").write_text(
            json.dumps(labels, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(states)} states to {out_dir}", file=sys.stderr)


def _checked(kind, ok, what: str):
    """argparse type: `kind(text)` satisfying `ok`; anything else exits 2."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    parse.__name__ = kind.__name__
    return parse


_SEED = _checked(int, lambda v: v >= 0, "a non-negative integer")
_COUNT = _checked(int, lambda v: v >= 1, "a positive integer")
_TOL = _checked(float, lambda v: 0.0 < v < float("inf"), "a positive finite number")


# Every option, by flag; each subcommand registers the ones it reads.
_OPTIONS = {
    "--seed": dict(type=_SEED, default=0),
    "--restarts": dict(type=_COUNT, default=16),
    "--max-evals": dict(type=_COUNT, default=5000,
                        help="cap on the rounds of each search: a search makes "
                             "min(2*param_dim, max_evals) objective calls"),
    "--tol": dict(type=_TOL, default=1e-8),
    "--units": dict(choices=("bits", "nats"), default="bits"),
    "--outcomes": dict(type=_COUNT, default=None, dest="outcome_count",
                       metavar="OUTCOMES", help="outcome count for the general POVM family"),
    "--projective-only": dict(action="store_true"),
    "--ancilla": dict(type=_COUNT, default=None, dest="ancilla_dim",
                      metavar="ANCILLA", help="Stinespring ancilla dimension for broadcast "
                           "search (default: the party's dimension d; below "
                           "d, the search gets no cloning or attachment seeds)"),
    "--per-class": dict(type=_COUNT, default=5),
    "--out": dict(default=None, help="output file path"),
}
_SEARCH = "--seed --restarts --max-evals --tol --units"


def _add_options(parser: argparse.ArgumentParser, flags: str) -> None:
    for flag in flags.split():
        parser.add_argument(flag, **_OPTIONS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Classical vs quantum correlation measures and "
                    "local-broadcasting experiments for small states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="correlation report for a state file")
    p.add_argument("state")
    _add_options(p, f"{_SEARCH} --outcomes --projective-only --out")
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("classify", help="CC/CQ structure verdict")
    p.add_argument("state")
    _add_options(p, "--seed --tol --out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("broadcast", help="local broadcast search")
    p.add_argument("state")
    _add_options(p, f"{_SEARCH} --ancilla --out")
    p.set_defaults(func=cmd_broadcast)

    p = sub.add_parser("petz", help="Petz recovery diagnostics")
    p.add_argument("state")
    p.add_argument("channel")
    _add_options(p, "--seed --units --out")
    p.set_defaults(func=cmd_petz)

    p = sub.add_parser("suite", help="run measures over a labeled corpus")
    p.add_argument("corpus", help="directory from make-corpus")
    _add_options(p, f"{_SEARCH} --outcomes --projective-only --ancilla --out")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("make-corpus", help="write the bundled labeled corpus")
    _add_options(p, "--per-class --seed --out")
    p.set_defaults(func=cmd_make_corpus)

    return parser


def main(argv=None) -> int:
    # argparse exits with 2 on bad usage, matching our parse-error code.
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    code = 0
    try:
        with _at("run", ""):
            args.func(args)
    except _Failed as failed:
        error = failed.__cause__
        code, head = next((code, head) for step, types, code, head in _EXITS
                          if step == failed.step and isinstance(error, types))
        print(f"error: {head.format(failed.subject)}{error}", file=sys.stderr)
    print(f"wall time: {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
