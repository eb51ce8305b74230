"""Command-line entry point.

Subcommands: measures, classify, broadcast, petz, suite, make-corpus.
All reports are JSON (suite emits CSV) and embed a run manifest.  Reports
are byte-reproducible for a fixed seed; wall time goes to stderr only.

Exit codes: 0 success, 2 parse error (an unreadable input, an option value
out of range for the input, or an unwritable output), 3 invariant
violation, 4 optimizer failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .broadcast import broadcast_search
from .channels import (ChannelError, ChannelParseError, KrausChannel,
                       apply_channel, apply_local, petz_recovery)
from .classify import ppt_label, side_verdicts
from .correlations import correlation_report, mutual_information
from .corpus import make_corpus
from .optimize import ConfigRangeError, OptimizerConfig
from .qstate import (
    DensityMatrix,
    StateError,
    StateParseError,
    bits_to_nats,
    partial_trace,
    tensor,
    trace_distance,
)

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


def _cannot_write(path, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc}", file=sys.stderr)
    return EXIT_PARSE


def _write_report(payload: dict, out_path: str | None) -> int:
    """Write the JSON report to `out_path` (stdout if None); the exit code."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return 0
    try:
        Path(out_path).write_text(text)
    except OSError as exc:
        return _cannot_write(out_path, exc)
    return 0


def _convert_units(payload, units: str):
    """Recursively convert *_bits-valued measure fields to nats."""
    if units == "bits":
        return payload
    keys = {"I", "I_cq_lower", "I_cc_lower", "delta_cc_upper",
            "discord_upper", "mi_deficit"}
    if isinstance(payload, dict):
        return {
            k: (bits_to_nats(v) if k in keys and isinstance(v, (int, float))
                else _convert_units(v, units))
            for k, v in payload.items()
        }
    if isinstance(payload, list):
        return [_convert_units(v, units) for v in payload]
    return payload


def _load_state(path: str) -> DensityMatrix:
    try:
        return DensityMatrix.load(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            StateParseError) as exc:
        print(f"error: cannot read state file {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except StateError as exc:
        print(f"error: invalid state in {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVARIANT)


def _load_channel(path: str) -> KrausChannel:
    try:
        return KrausChannel.load(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            ChannelParseError) as exc:
        print(f"error: cannot read channel file {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except ChannelError as exc:
        print(f"error: invalid channel in {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVARIANT)


def _cfg_from_args(args) -> OptimizerConfig:
    return OptimizerConfig(
        seed=args.seed,
        restarts=args.restarts,
        max_evals=args.max_evals,
        tol=args.tol,
        outcome_count=args.outcomes,
        projective_only=args.projective_only,
        ancilla_dim=args.ancilla,
    )


def cmd_measures(args) -> int:
    rho = _load_state(args.state)
    cfg = _cfg_from_args(args)
    try:
        report = correlation_report(rho, cfg)
    except StateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ConfigRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, FloatingPointError) as exc:
        print(f"error: optimizer failure: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    payload = {
        "manifest": _manifest("measures", [args.state], cfg),
        "units": args.units,
        "report": _convert_units(report.to_dict(), args.units),
    }
    return _write_report(payload, args.out)


def cmd_classify(args) -> int:
    rho = _load_state(args.state)
    cfg = OptimizerConfig(seed=args.seed)
    try:
        cc, cq, qc = side_verdicts(rho, args.tol)
        verdicts = {
            "verdict": cc.to_dict(),
            "cq_verdict": cq.to_dict(),
            "qc_verdict": qc.to_dict(),
            "ppt": ppt_label(rho),
        }
    except StateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    payload = {
        "manifest": _manifest("classify", [args.state], cfg),
        "tol": args.tol,
        **verdicts,
    }
    return _write_report(payload, args.out)


def cmd_broadcast(args) -> int:
    rho = _load_state(args.state)
    cfg = _cfg_from_args(args)
    try:
        cand = broadcast_search(rho, cfg)
    except StateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, FloatingPointError) as exc:
        print(f"error: optimizer failure: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    payload = {
        "manifest": _manifest("broadcast", [args.state], cfg),
        "units": args.units,
        "candidate": _convert_units(cand.to_dict(), args.units),
    }
    return _write_report(payload, args.out)


def cmd_petz(args) -> int:
    rho = _load_state(args.state)
    ch = _load_channel(args.channel)
    cfg = OptimizerConfig(seed=args.seed)
    try:
        if ch.d_in == rho.dim:
            # Global channel: reference is the state itself.
            recovery = petz_recovery(ch, rho)
            degraded = apply_channel(ch, rho)
            recovered = apply_channel(recovery, degraded)
            mode = "global"
            mi = {}
        elif rho.layout.n_subsystems == 2 and ch.d_in == rho.dims[0]:
            # Local channel on party A; reference is the marginal product.
            rho_a = partial_trace(rho, (0,))
            rho_b = partial_trace(rho, (1,))
            rec_a = petz_recovery(ch, rho_a)
            degraded = apply_local(ch, 0, rho)
            recovered = apply_local(rec_a, 0, degraded)
            mode = "local_A"
            mi = {
                "I_before": mutual_information(rho),
                "I_after": mutual_information(degraded),
            }
        else:
            print(
                f"error: channel input {ch.d_in} matches neither the full "
                f"state ({rho.dim}) nor party A ({rho.dims[0]})",
                file=sys.stderr)
            return EXIT_INVARIANT
    except (StateError, ChannelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    payload = {
        "manifest": _manifest("petz", [args.state, args.channel], cfg),
        "mode": mode,
        "recovery_trace_distance": trace_distance(recovered, rho),
        **mi,
    }
    return _write_report(payload, args.out)


def cmd_suite(args) -> int:
    cfg = _cfg_from_args(args)
    corpus_dir = Path(args.corpus)
    labels_path = corpus_dir / "labels.json"
    try:
        labels = json.loads(labels_path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {labels_path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if not isinstance(labels, list) or not labels:
        print(f"error: {labels_path} lists no states", file=sys.stderr)
        return EXIT_PARSE
    for entry in labels:
        if not (isinstance(entry, dict) and isinstance(entry.get("state_id"), str)
                and "label" in entry):
            print(f"error: {labels_path}: entry {entry!r} lacks a string "
                  f"state_id or a label", file=sys.stderr)
            return EXIT_PARSE
    rows = []
    for entry in labels:
        state_id = entry["state_id"]
        rho = _load_state(str(corpus_dir / f"{state_id}.json"))
        try:
            report = correlation_report(rho, cfg)
            cand = broadcast_search(rho, cfg)
        except StateError as exc:
            print(f"error: {state_id}: {exc}", file=sys.stderr)
            return EXIT_INVARIANT
        except ConfigRangeError as exc:
            print(f"error: {state_id}: {exc}", file=sys.stderr)
            return EXIT_PARSE
        except (ValueError, FloatingPointError) as exc:
            print(f"error: {state_id}: optimizer failure: {exc}", file=sys.stderr)
            return EXIT_OPTIMIZER
        rows.append({
            "state_id": state_id,
            "kind_label": entry["label"],
            "I": report.I,
            "I_cq_lower": report.I_cq_lower,
            "I_cc_lower": report.I_cc_lower,
            "delta_cc_upper": report.delta_cc_upper,
            "lb_residual": max(cand.marginal_residuals),
            "mi_deficit": cand.mi_deficit,
            "seed": cfg.seed,
        })
    out_path = args.out or "suite.csv"
    try:
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        return _cannot_write(out_path, exc)
    print(f"wrote {len(rows)} rows to {out_path}", file=sys.stderr)
    return 0


def cmd_make_corpus(args) -> int:
    states = make_corpus(n_per_class=args.per_class, seed=args.seed)
    out_dir = Path(args.out or "corpus")
    labels = [{"state_id": entry.state_id, "label": entry.label}
              for entry in states]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for entry in states:
            entry.rho.save(out_dir / f"{entry.state_id}.json")
        (out_dir / "labels.json").write_text(
            json.dumps(labels, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        return _cannot_write(out_dir, exc)
    print(f"wrote {len(states)} states to {out_dir}", file=sys.stderr)
    return 0


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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_SEED, default=0)
    parser.add_argument("--restarts", type=_COUNT, default=16)
    parser.add_argument("--max-evals", type=_COUNT, default=5000,
                        help="cap on the rounds of each search: a search makes "
                             "min(2*param_dim, max_evals) objective calls")
    parser.add_argument("--tol", type=_TOL, default=1e-8)
    parser.add_argument("--units", choices=("bits", "nats"), default="bits")
    parser.add_argument("--outcomes", type=_COUNT, default=None,
                        help="outcome count for the general POVM family")
    parser.add_argument("--projective-only", action="store_true")
    parser.add_argument("--ancilla", type=_COUNT, default=None,
                        help="Stinespring ancilla dimension for broadcast "
                             "search (default: the party's dimension d; below "
                             "d, the search gets no cloning or attachment seeds)")
    parser.add_argument("--out", default=None, help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Classical vs quantum correlation measures and "
                    "local-broadcasting experiments for small states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="correlation report for a state file")
    p.add_argument("state")
    _add_common(p)
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("classify", help="CC/CQ structure verdict")
    p.add_argument("state")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("broadcast", help="local broadcast search")
    p.add_argument("state")
    _add_common(p)
    p.set_defaults(func=cmd_broadcast)

    p = sub.add_parser("petz", help="Petz recovery diagnostics")
    p.add_argument("state")
    p.add_argument("channel")
    _add_common(p)
    p.set_defaults(func=cmd_petz)

    p = sub.add_parser("suite", help="run measures over a labeled corpus")
    p.add_argument("corpus", help="directory from make-corpus")
    _add_common(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("make-corpus", help="write the bundled labeled corpus")
    p.add_argument("--per-class", type=_COUNT, default=5)
    _add_common(p)
    p.set_defaults(func=cmd_make_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse exits with 2 on bad usage, matching our parse-error code.
    args = parser.parse_args(argv)
    start = time.monotonic()
    code = args.func(args)
    print(f"wall time: {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
