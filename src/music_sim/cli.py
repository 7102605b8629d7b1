"""Command-line entry point: validate, run, plan, and sweep scenarios.

Exit codes are a stable contract: 0 on success, 1 when a scenario fails
validation (parse, schema, constraint, or planning errors), 2 when a run
aborts mid-flight (for example every client dropping out). Artifacts land
in --out, then the scenario's own `output.dir`, then $MUSIC_SIM_OUT, then
./out, and all of them embed the config hash and root seed.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from pathlib import Path

from .errors import SessionAborted, SimulationError, UnsweepableParameter
from .placement import choose_placement
from .protocols import CSV_COLUMNS, MetricsTrace
from .radio import SchemeKind
from .scenario import (
    apply_overrides,
    assemble,
    parse_config,
    parse_scenario_text,
    plan_of,
    task_of,
    validate_document,
    validate_path,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ABORT = 2

SWEEP_AXES = ("cut_index", "clients", "scheme", "signalling_delay", "learning_rate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="music-sim",
        description="Deterministic simulator for distributed training over a "
                    "cloud/fog/edge/device network.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_overrides=True):
        p.add_argument("--scenario", required=True, metavar="PATH",
                       help="scenario JSON document")
        if with_overrides:
            p.add_argument("--seed", type=int, default=None,
                           help="override the root seed")
            p.add_argument("--out", default=None, metavar="DIR",
                           help="artifact directory (default: scenario output.dir, "
                                "then $MUSIC_SIM_OUT, then ./out)")
            p.add_argument("--protocol", default=None, metavar="NAME",
                           help="override the protocol (fl, sl-homo, sl-hetero, fedsplit)")
            p.add_argument("--relay", choices=("server", "d2d"), default=None,
                           help="override the split-learning relay mode")

    common(sub.add_parser("validate", help="check a scenario, list violations"),
           with_overrides=False)

    run_p = sub.add_parser("run", help="execute the configured protocol")
    common(run_p)
    run_p.add_argument("--event-log", action="store_true",
                       help="also write the engine event log (JSON lines)")

    common(sub.add_parser("plan", help="print the chosen placement as JSON"))

    sweep_p = sub.add_parser("sweep", help="run once per value of one parameter")
    common(sweep_p)
    sweep_p.add_argument("--axis", required=True,
                         help=f"parameter to sweep: one of {', '.join(SWEEP_AXES)}")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values for the axis")
    return parser


def _resolve_out(arg_out: str | None, cfg_out: str | None) -> Path:
    out = arg_out or cfg_out or os.environ.get("MUSIC_SIM_OUT") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_effective(args) -> dict:
    text = Path(args.scenario).read_text()
    doc = parse_scenario_text(text)
    return apply_overrides(doc, seed=getattr(args, "seed", None),
                           protocol=getattr(args, "protocol", None),
                           relay=getattr(args, "relay", None))


def _summary_line(trace: MetricsTrace) -> str:
    s = trace.summary()
    total = s["total_compute_J"] + s["total_tx_J"] + s["total_rx_J"]
    acc = "n/a" if s["final_accuracy"] is None else f"{s['final_accuracy']:.4f}"
    loss = "n/a" if s["final_loss"] is None else f"{s['final_loss']:.6f}"
    return (f"{s['protocol']}: {s['status']} | total_energy_J={total:.6g} "
            f"wall_latency_s={s['wall_latency_s']:.6g} final_loss={loss} "
            f"final_accuracy={acc}")


def _write_artifacts(trace: MetricsTrace, out_dir: Path, runtime=None,
                     event_log=False) -> None:
    trace.to_csv(out_dir / "trace.csv")
    trace.write_summary(out_dir / "summary.json")
    if event_log and runtime is not None:
        runtime.engine.write_event_log(
            out_dir / "events.jsonl",
            meta={"config_hash": trace.config_hash, "seed": trace.seed})


def cmd_validate(args) -> int:
    report = validate_path(args.scenario)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_run(args) -> int:
    try:
        doc = _load_effective(args)
        report = validate_document(doc)
        if not report.ok:
            for line in report.lines():
                print(line, file=sys.stderr)
            return EXIT_INVALID
        cfg = report.config
        runtime = assemble(cfg)
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    out_dir = _resolve_out(args.out, cfg.out_dir)
    try:
        trace = runtime.execute()
    except SessionAborted as exc:
        trace = getattr(exc, "trace", None)
        if trace is not None:
            _write_artifacts(trace, out_dir, runtime, args.event_log)
            print(_summary_line(trace))
        print(f"aborted: {exc.reason}", file=sys.stderr)
        return EXIT_ABORT
    _write_artifacts(trace, out_dir, runtime, args.event_log)
    print(_summary_line(trace))
    return EXIT_OK


def cmd_plan(args) -> int:
    try:
        doc = _load_effective(args)
        cfg = parse_config(doc)
        task = task_of(cfg)
        plan, estimate = choose_placement(
            task, cfg.topo, cfg.radio_env, cfg.policy,
            cfg.radio_env.scheme(cfg.protocol.scheme))
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    payload = plan.to_doc(cfg.topo, estimate)
    payload["config_hash"] = cfg.hash
    payload["seed"] = cfg.seeds["root"]
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        out_dir = _resolve_out(args.out, cfg.out_dir)
        (out_dir / "plan.json").write_text(text + "\n")
    return EXIT_OK


def _apply_axis(doc: dict, axis: str, raw: str) -> dict:
    doc = copy.deepcopy(doc)
    proto = doc.get("protocol", {})
    if axis == "cut_index":
        if proto.get("kind") not in ("sl_homogeneous", "fedsplit_nested"):
            raise UnsweepableParameter(
                "cut_index applies to sl_homogeneous or fedsplit_nested scenarios")
        proto["cut_index"] = int(raw)
    elif axis == "clients":
        if proto.get("kind") == "sl_heterogeneous":
            raise UnsweepableParameter(
                "client count is fixed by the segment boundaries in sl_heterogeneous")
        n = int(raw)
        clients = proto.get("clients", [])
        if not 1 <= n <= len(clients):
            raise UnsweepableParameter(
                f"client count {n} outside [1, {len(clients)}]")
        proto["clients"] = clients[:n]
    elif axis == "scheme":
        try:
            SchemeKind(raw)
        except ValueError:
            raise UnsweepableParameter(f"unknown access scheme {raw!r}") from None
        proto["scheme"] = raw
    elif axis == "signalling_delay":
        doc.setdefault("radio", {})["signalling_delay"] = float(raw)
    elif axis == "learning_rate":
        doc.setdefault("ml", {})["learning_rate"] = float(raw)
    else:
        raise UnsweepableParameter(
            f"axis {axis!r} is not sweepable; choose from {', '.join(SWEEP_AXES)}")
    return doc


def cmd_sweep(args) -> int:
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    try:
        if not values:
            raise UnsweepableParameter("no sweep values given")
        base_doc = _load_effective(args)
        runs = []
        for raw in values:
            doc = _apply_axis(base_doc, args.axis, raw)
            report = validate_document(doc)
            if not report.ok:
                detail = "; ".join(report.lines())
                raise SimulationError(f"{args.axis}={raw}: {detail}")
            runs.append((raw, report.config))
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    out_dir = _resolve_out(args.out, runs[0][1].out_dir)
    rows = []
    code = EXIT_OK
    for raw, cfg in runs:
        runtime = assemble(cfg)
        try:
            trace = runtime.execute()
        except SessionAborted as exc:
            trace = getattr(exc, "trace", None)
            print(f"{args.axis}={raw}: aborted: {exc.reason}", file=sys.stderr)
            code = EXIT_ABORT
            if trace is None:
                continue
        print(f"{args.axis}={raw}: {_summary_line(trace)}")
        for line in trace.csv_rows():
            rows.append(f"{args.axis},{raw},{line}")

    path = out_dir / f"sweep_{args.axis}.csv"
    with open(path, "w") as fh:
        fh.write("axis,value," + ",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(row + "\n")
    print(f"wrote {path}")
    return code


_COMMANDS = {"validate": cmd_validate, "run": cmd_run,
             "plan": cmd_plan, "sweep": cmd_sweep}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
