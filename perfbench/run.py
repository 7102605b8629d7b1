"""music-sim benchmark: closed-loop workloads timed end to end, plus a traced
run that splits host time by layer.

    python3 perfbench/run.py --workload fl_wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's `src/`, never from an installed copy. One process runs one
workload with a single thread (BLAS and OpenMP pools are pinned to one
thread before NumPy loads). `--workload all` runs each workload in its own
child process, one after another.

Each iteration of the loop sets a scenario up (validate + parse + assemble),
runs one operation, and checks its outputs. A failed check or an exception
counts the operation as failed. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pools are pinned)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("fl_wide", "split_long", "plan_wide")
BUNDLED = ("fl_edge", "sl_homogeneous", "sl_heterogeneous_d2d", "fedsplit_nested")
ARTIFACTS = ("trace.csv", "summary.json", "events.jsonl")

clock = time.perf_counter


# On a shared host the same operation can take twice as long from one minute
# to the next. A fixed kernel that does the simulator's kind of work (an event
# heap, a linear scan over booked intervals, event-log dicts, small matrix
# products) but shares no code with music_sim is timed right before and after
# each operation; it measures how fast the host runs at that moment. End-to-end
# times are reported rescaled to a host on which the kernel takes KERNEL_REF_S,
# a fixed scale close to the kernel's time on the 2-core Xeon VM the benchmark
# was tuned on, so that they compare across minutes of varying load. A change
# to music_sim cannot move the kernel.
KERNEL_REF_S = 0.030
KERNEL_STEPS = 800
MIN_SETUP_BATCH_S = 0.05


class CheckFailed(Exception):
    pass


def speed_kernel() -> float:
    """Host seconds of the fixed calibration work. The collector is paused
    so that the kernel's time does not depend on what the heap holds."""
    gc.disable()
    try:
        return _kernel_work()
    finally:
        gc.enable()


def _kernel_work() -> float:
    t0 = clock()
    w = np.arange(128.0).reshape(8, 16) / 128.0
    x = np.ones((16, 8))
    heap, log, booked = [], [], []
    now = 0.0
    for i in range(KERNEL_STEPS):
        s = float(np.maximum(x @ w - 0.5, 0.0).sum())
        heapq.heappush(heap, (now + s, i, f"ev{i}"))
        now, _, detail = heapq.heappop(heap)
        start = now
        for lo, hi in booked:
            if lo < start + 1.0 and start < hi:
                start = hi
        booked.append((start, start + 1.0))
        log.append({"time": now, "kind": "TX_DONE", "detail": detail,
                    "charges": [[detail, "tx", s]]})
    json.dumps(log)
    return clock() - t0


def _import_package():
    """Import music_sim from this checkout's src/ or exit with code 2."""
    if not (SRC / "music_sim" / "__init__.py").is_file():
        print(f"error: no music_sim sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import music_sim
    if Path(music_sim.__file__).resolve().parent != SRC / "music_sim":
        print(f"error: imported music_sim from {music_sim.__file__}", file=sys.stderr)
        sys.exit(2)


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ---------------------------------------------------------------------- #
#                       operations and their checks                      #
# ---------------------------------------------------------------------- #

class RunWorkload:
    """Set up one scenario, execute it and write the three artifacts, as
    `music-sim run --event-log` does."""

    def __init__(self, doc: dict, out_dir: Path):
        self.doc = doc
        self.out_dir = out_dir

    def setup(self):
        from music_sim import scenario
        report = scenario.validate_document(self.doc)
        if not report.ok:
            raise CheckFailed("; ".join(report.lines()))
        return scenario.assemble(scenario.parse_config(self.doc))

    def op(self, runtime):
        trace = runtime.execute()
        trace.to_csv(self.out_dir / "trace.csv")
        trace.write_summary(self.out_dir / "summary.json")
        runtime.engine.write_event_log(
            self.out_dir / "events.jsonl",
            meta={"config_hash": trace.config_hash, "seed": trace.seed})
        return trace

    def check(self, runtime, trace) -> tuple[dict, dict]:
        proto = runtime.cfg.protocol
        expected = proto.rounds if proto.kind in ("fl", "fedsplit_nested") \
            else proto.iterations
        if trace.status != "completed":
            raise CheckFailed(f"status {trace.status!r}")
        if len(trace.records) != expected:
            raise CheckFailed(f"{len(trace.records)} records, expected {expected}")
        if runtime.engine.recount_from_log() != runtime.engine.energy_ledger:
            raise CheckFailed("event-log recount differs from the energy ledger")
        s = trace.summary()
        totals = {"records": s["iterations"], "sim_latency_s": s["wall_latency_s"],
                  "sim_energy_J": s["total_compute_J"] + s["total_tx_J"] + s["total_rx_J"],
                  "final_loss": s["final_loss"], "bytes_up": s["bytes_up"],
                  "log_records": len(runtime.engine.event_log)}
        digests = {name: sha256_of(self.out_dir / name) for name in ARTIFACTS}
        return digests, totals


class PlanWorkload:
    """Choose a placement for every task of the grid, as `music-sim plan`
    does for one scenario."""

    def __init__(self, docs: list[dict]):
        self.docs = docs

    def setup(self):
        from music_sim import scenario
        cfgs = []
        for doc in self.docs:
            report = scenario.validate_document(doc)
            if not report.ok:
                raise CheckFailed("; ".join(report.lines()))
            cfgs.append(scenario.parse_config(doc))
        return cfgs

    def op(self, cfgs):
        from music_sim import placement, scenario
        return [placement.choose_placement(
                    scenario.task_of(cfg), cfg.topo, cfg.radio_env, cfg.policy,
                    cfg.radio_env.scheme(cfg.protocol.scheme))
                for cfg in cfgs]

    def check(self, cfgs, chosen) -> tuple[dict, dict]:
        if len(chosen) != len(cfgs):
            raise CheckFailed(f"{len(chosen)} plans for {len(cfgs)} tasks")
        docs = [plan.to_doc(cfg.topo, est) for cfg, (plan, est) in zip(cfgs, chosen)]
        text = json.dumps(docs, sort_keys=True)
        totals = {"records": 0,
                  "sim_latency_s": sum(est.wall_latency for _, est in chosen),
                  "sim_energy_J": sum(est.total_energy for _, est in chosen),
                  "final_loss": None, "bytes_up": 0, "log_records": 0}
        return {"plans.json": hashlib.sha256(text.encode()).hexdigest()}, totals


def make_workload(name: str, seed: int, size: str, out_dir: Path):
    import workloads as w
    sizes = w.FULL if size == "full" else w.TINY
    if name == "fl_wide":
        return RunWorkload(w.fl_wide_doc(seed, sizes[name]), out_dir), sizes[name]
    if name == "split_long":
        return RunWorkload(w.split_long_doc(seed, sizes[name]), out_dir), sizes[name]
    return PlanWorkload(w.plan_wide_docs(seed, sizes[name])), sizes[name]


class Loop:
    """Closed loop of set-up, operation and check, with a reference digest
    taken from the first operation."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference: dict | None = None
        self.totals: dict | None = None
        self.matched = 0

    def once(self, tracer=None, segment=0) -> tuple[float, float, float] | None:
        """One checked operation; returns (setup, run, kernel) host seconds,
        or None if it failed. Untraced set-ups repeat until they fill
        MIN_SETUP_BATCH_S and report their mean; the operation uses the last.
        The kernel time is the mean of one calibration before the set-up and
        one after the operation."""
        wl = self.workload
        self.attempted += 1
        gc.collect()
        try:
            k0 = speed_kernel()
            t0 = clock()
            if tracer is None:
                state = wl.setup()
                repeats = 1
                # a set-up of a few milliseconds is timed as a batch, as
                # timeit does, so that one scheduler hiccup cannot dominate it
                while clock() - t0 < MIN_SETUP_BATCH_S:
                    state = wl.setup()
                    repeats += 1
                t1 = clock()
                outputs = wl.op(state)
            else:
                repeats = 1
                state = tracer.run_segment(2 * segment, "bench.setup", wl.setup)
                t1 = clock()
                outputs = tracer.run_segment(2 * segment + 1, "bench.op", wl.op, state)
            t2 = clock()
            kernel = (k0 + speed_kernel()) / 2
            digests, totals = wl.check(state, outputs)
            if self.reference is None:
                self.reference, self.totals = digests, totals
            elif digests != self.reference or totals != self.totals:
                raise CheckFailed("outputs differ from the first operation's")
            self.matched += 1
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        return (t1 - t0) / repeats, t2 - t1, kernel

    def timed(self, seconds: float, tracer=None):
        """Run operations until `seconds` have passed (at least one); returns
        the (setup, run, kernel) samples and the segments of the ones that
        passed their checks."""
        samples, segments = [], []
        end = clock() + seconds
        segment = 0
        while True:
            result = self.once(tracer, segment)
            if result is not None:
                samples.append(result)
                segments.append(segment)
            segment += 1
            if clock() >= end:
                return samples, segments


def bundled_checks(work: Path) -> tuple[int, int, list[str]]:
    """Run each shipped scenario twice through the same gate; the second run
    must reproduce the first one's artifacts byte for byte."""
    lines, failed = [], 0
    for name in BUNDLED:
        doc = json.loads((SRC / "music_sim" / "scenarios" / f"{name}.json").read_text())
        out = work / f"bundled_{name}"
        out.mkdir(parents=True, exist_ok=True)
        loop = Loop(RunWorkload(doc, out))
        loop.once()
        loop.once()
        if loop.failed:
            failed += 1
            lines.append(f"# bundled {name} FAILED")
            continue
        digests = " ".join(f"{k}={v}" for k, v in loop.reference.items())
        lines.append(f"# bundled {name} ok {digests}")
    return len(BUNDLED), failed, lines


# ---------------------------------------------------------------------- #
#                                  tracing                               #
# ---------------------------------------------------------------------- #

def install_tracer(tracer) -> None:
    """Wrap every public entry point the workloads reach, at the attribute
    each caller looks up (a name imported into another module is wrapped
    there too)."""
    import inspect

    from music_sim import costs, data, engine, mlp, placement, protocols, radio, scenario

    def module_functions(module, layer):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value.__module__ == module.__name__ \
                    and not attr.startswith("_"):
                tracer.wrap(module, attr, f"{layer}.{attr}")

    module_functions(mlp, "mlp")
    module_functions(costs, "costs")

    for attr in ("validate_document", "parse_config", "assemble", "task_of"):
        tracer.wrap(scenario, attr, f"scenario.{attr}")
    tracer.wrap(scenario, "build_topology", "topology.build_topology")
    tracer.wrap(scenario, "validate_layer_span", "topology.validate_layer_span")
    tracer.wrap(scenario, "make_blobs", "data.make_blobs")
    tracer.wrap(data.Shard, "batch", "data.batch")

    tracer.wrap(scenario.Runtime, "execute", "protocols.execute")
    tracer.wrap(protocols.MetricsTrace, "to_csv", "protocols.write.csv")
    tracer.wrap(protocols.MetricsTrace, "write_summary", "protocols.write.summary")
    tracer.wrap(engine.Engine, "write_event_log", "protocols.write.event_log")

    tracer.wrap_schedule(engine.Engine)
    tracer.wrap(engine.Engine, "schedule_after", "engine.schedule_after")
    tracer.wrap(engine.Engine, "run", "engine.dispatch")
    tracer.wrap(engine.Engine, "charge", "engine.charge")
    tracer.wrap(engine.Engine, "debit_battery", "engine.debit_battery")
    tracer.wrap(engine.Engine, "mark_dropped", "engine.mark_dropped")
    tracer.wrap(engine.BlockLedger, "reserve", "engine.reserve",
                on_call=lambda a, k, granted: tracer.note(
                    "reserve", (a[1], a[2], a[3], granted)))
    tracer.wrap(engine.RngStreams, "stream", "engine.rng_stream",
                on_call=lambda a, k, r: tracer.note("rng", a[1]))

    tracer.wrap(protocols, "tx_cost", "radio.tx_cost")
    tracer.wrap(protocols, "draw_channel_gain", "radio.draw_channel_gain")
    tracer.wrap(radio, "tx_cost", "radio.tx_cost")  # placement imports it per call
    tracer.wrap(radio.RadioEnv, "oma_uplink_rate", "radio.rate.oma")
    tracer.wrap(radio.RadioEnv, "cluster_rates", "radio.rate.noma")
    tracer.wrap(radio.RadioEnv, "block_for", "radio.block_for")

    tracer.wrap(placement, "choose_placement", "placement.choose_placement")
    tracer.wrap(placement, "enumerate_candidate_plans", "placement.enumerate",
                on_call=lambda a, k, plans: tracer.note("candidates", len(plans)))
    tracer.wrap(placement, "select_ue_pool", "placement.select_ue_pool")
    tracer.wrap(placement, "estimate_cost", "placement.estimate_cost",
                on_call=lambda a, k, est: tracer.note(
                    "feasible", est.wall_latency <= a[0].task.latency_deadline))
    tracer.wrap(placement, "validate_layer_span", "topology.validate_layer_span")


LAYERS = ("bench", "scenario", "topology", "data", "mlp", "engine", "radio", "costs",
          "protocols", "placement")

# per-layer metrics: name -> unit. A `_s` metric of a layer or function is
# self time: its spans' host seconds minus those of the spans they called.
# Set-up metrics (scenario.*, topology.build_s, data.make_blobs_s) come from
# the set-up of each traced operation, the rest from the operation itself.
PER_LAYER_UNITS = {
    "scenario.validate_s": "s", "scenario.parse_s": "s", "scenario.assemble_s": "s",
    "topology.build_s": "s", "topology.self_s": "s",
    "data.make_blobs_s": "s", "data.batch_calls": "count", "data.batch_s": "s",
    "mlp.calls": "count", "mlp.self_s": "s", "mlp.share": "ratio",
    "mlp.forward_us.p50": "us", "mlp.backward_us.p50": "us",
    "engine.events": "count", "engine.schedule_calls": "count",
    "engine.dispatch_self_s": "s", "engine.us_per_event": "us",
    "engine.reserve_calls": "count", "engine.reserve_s": "s",
    "engine.reserve_us.p50": "us", "engine.reserve_us.p99": "us",
    "engine.blocks_used": "count", "engine.reserve_waited_ratio": "ratio",
    "engine.block_wait_sim_s": "s",
    "engine.charge_calls": "count", "engine.charge_s": "s",
    "engine.rng_calls": "count", "engine.rng_streams": "count",
    "engine.log_records": "count", "engine.self_s": "s",
    "radio.rate_calls": "count", "radio.gain_draws": "count", "radio.self_s": "s",
    "costs.calls": "count", "costs.self_s": "s",
    "protocols.callback_self_s": "s", "protocols.write_s": "s",
    "protocols.self_s": "s", "protocols.records": "count",
    "protocols.sim_latency_s": "s", "protocols.sim_energy_J": "J",
    "protocols.final_loss": "nats", "protocols.bytes_up": "B",
    "placement.candidates": "count", "placement.estimate_calls": "count",
    "placement.estimate_us.p50": "us", "placement.feasible_ratio": "ratio",
    "placement.select_pool_s": "s", "placement.self_s": "s",
    "trace.run_s": "s", "trace.untraced_run_s": "s", "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s", "trace.attributed_share": "ratio",
    "trace.spans_per_op": "count",
}
# values that must repeat exactly from one operation to the next
EXACT = {k for k, u in PER_LAYER_UNITS.items() if u in ("count", "B", "J", "nats")} \
    | {"engine.reserve_waited_ratio", "engine.block_wait_sim_s",
       "placement.feasible_ratio", "protocols.sim_latency_s"}
# a traced operation fails its attribution check when more host time than
# this share sits outside every layer's spans
MAX_UNATTRIBUTED = 0.02


def op_values(table, tracer, seg: int, totals: dict) -> dict:
    """Per-layer values of one traced (set-up, operation) pair."""
    setup, op = 2 * seg, 2 * seg + 1
    op_s = sum(table.self_s(op, layer) for layer in LAYERS)
    op_total = float(table.durations([op], ["bench.op"]).sum())
    reserves = tracer.notes(op, "reserve")
    waits = [granted - earliest for _, _, earliest, granted in reserves]
    events = table.count(op, "protocols.callback")
    dispatch = table.self_s(op, "engine.dispatch")
    candidates = sum(tracer.notes(op, "candidates"))
    unattributed = table.self_s(op, "bench.op")
    if abs(op_s - op_total) > 1e-9 * max(1.0, op_total) + 1e-9:
        raise CheckFailed(f"span self times {op_s} do not add up to {op_total}")
    return {
        "scenario.validate_s": table.self_s(setup, "scenario.validate_document"),
        "scenario.parse_s": table.self_s(setup, "scenario.parse_config"),
        "scenario.assemble_s": table.self_s(setup, "scenario.assemble"),
        "topology.build_s": table.self_s(setup, "topology.build_topology"),
        "topology.self_s": table.self_s(op, "topology"),
        "data.make_blobs_s": table.self_s(setup, "data.make_blobs"),
        "data.batch_calls": table.count(op, "data.batch"),
        "data.batch_s": table.self_s(op, "data.batch"),
        "mlp.calls": table.count(op, "mlp", entering=True),
        "mlp.self_s": table.self_s(op, "mlp"),
        "mlp.share": table.self_s(op, "mlp") / op_total,
        "engine.events": events,
        "engine.schedule_calls": table.count(op, "engine.schedule"),
        "engine.dispatch_self_s": dispatch,
        "engine.us_per_event": 1e6 * dispatch / events if events else 0.0,
        "engine.reserve_calls": table.count(op, "engine.reserve"),
        "engine.reserve_s": table.self_s(op, "engine.reserve"),
        "engine.blocks_used": len({(ap, block) for ap, block, _, _ in reserves}),
        "engine.reserve_waited_ratio":
            sum(1 for w in waits if w > 0) / len(waits) if waits else 0.0,
        "engine.block_wait_sim_s": sum(waits),
        "engine.charge_calls": table.count(op, "engine.charge"),
        "engine.charge_s": table.self_s(op, "engine.charge"),
        "engine.rng_calls": table.count(op, "engine.rng_stream"),
        "engine.rng_streams": len(set(tracer.notes(op, "rng"))),
        "engine.log_records": totals["log_records"],
        "engine.self_s": table.self_s(op, "engine"),
        "radio.rate_calls": table.count(op, "radio.rate"),
        "radio.gain_draws": table.count(op, "radio.draw_channel_gain"),
        "radio.self_s": table.self_s(op, "radio"),
        "costs.calls": table.count(op, "costs", entering=True),
        "costs.self_s": table.self_s(op, "costs"),
        "protocols.callback_self_s": table.self_s(op, "protocols.callback"),
        "protocols.write_s": table.self_s(op, "protocols.write"),
        "protocols.self_s": table.self_s(op, "protocols"),
        "protocols.records": totals["records"],
        "protocols.sim_latency_s": totals["sim_latency_s"],
        "protocols.sim_energy_J": totals["sim_energy_J"],
        "protocols.final_loss": totals["final_loss"] or 0.0,
        "protocols.bytes_up": totals["bytes_up"],
        "placement.candidates": candidates,
        "placement.estimate_calls": table.count(op, "placement.estimate_cost"),
        "placement.feasible_ratio":
            sum(tracer.notes(op, "feasible")) / candidates if candidates else 0.0,
        "placement.select_pool_s": table.self_s(op, "placement.select_ue_pool"),
        "placement.self_s": table.self_s(op, "placement"),
        "trace.run_s": op_total,
        "trace.unattributed_s": unattributed,
        "trace.attributed_share": 1.0 - unattributed / op_total,
        "trace.spans_per_op": int(table.calls[op].sum()),
    }


def layer_metrics(table, tracer, segments: list[int], totals: dict,
                  untraced: list, traced: list) -> tuple[dict, int]:
    """Per-layer metrics over the traced operations, and how many of them
    failed the repeat or attribution checks. `untraced` and `traced` hold
    the (setup, run, kernel) samples of the two phases; the tracing overhead
    compares their calibrated run times, since the phases run minutes apart
    on a host whose speed drifts."""
    per_op, failed = [], 0
    for seg in segments:
        try:
            values = op_values(table, tracer, seg, totals)
            if values["trace.attributed_share"] < 1.0 - MAX_UNATTRIBUTED:
                raise CheckFailed(
                    f"{values['trace.unattributed_s']:.6f} s of "
                    f"{values['trace.run_s']:.6f} s outside every layer")
            if per_op and any(values[k] != per_op[0][k] for k in EXACT if k in values):
                raise CheckFailed("a count or simulated value changed between operations")
        except CheckFailed:
            failed += 1
            traceback.print_exc()
            continue
        per_op.append(values)
    metrics = {k: median([v[k] for v in per_op]) for k in per_op[0]} if per_op else {}
    ops = [2 * s + 1 for s in segments]
    us = lambda prefixes, q: 1e6 * percentile(list(table.durations(ops, prefixes)), q)
    metrics["mlp.forward_us.p50"] = us(["mlp.forward", "mlp.split_forward"], 0.5)
    metrics["mlp.backward_us.p50"] = us(
        ["mlp.backward", "mlp.split_backward_server", "mlp.split_backward_client"], 0.5)
    metrics["engine.reserve_us.p50"] = us(["engine.reserve"], 0.5)
    metrics["engine.reserve_us.p99"] = us(["engine.reserve"], 0.99)
    metrics["placement.estimate_us.p50"] = us(["placement.estimate_cost"], 0.5)
    metrics["trace.untraced_run_s"] = median([r for _, r, _ in untraced])
    if untraced and traced:
        calibrated = lambda samples: median([r / k for _, r, k in samples])
        metrics["trace.overhead_ratio"] = calibrated(traced) / calibrated(untraced)
    return metrics, failed


# ---------------------------------------------------------------------- #
#                               entry point                              #
# ---------------------------------------------------------------------- #

def env_line() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"# env python={platform.python_version()} numpy={np.__version__} "
            f"nproc={os.cpu_count()} loadavg=[{load}] blas_threads=1")


def tail_line(name: str, values: list[float]) -> str:
    """Median, plus the highest listed percentile with at least ten samples
    beyond it, if any."""
    n = len(values)
    line = f"{name} {median(values):.6g} s (median of {n}, calibrated)"
    for q in (0.99, 0.9, 0.75):
        if n * (1 - q) >= 10:
            line += f", p{int(q * 100)} {percentile(values, q):.6g} s"
            break
    return line


def run_one(args) -> int:
    _import_package()
    work = WORK / f"{args.workload}-{os.getpid()}"
    out_dir = work / "artifacts"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _measure(args, work: Path, out_dir: Path) -> int:
    print(env_line())
    workload, size = make_workload(args.workload, args.seed, args.size, out_dir)
    print(f"# workload {args.workload} seed={args.seed} size={args.size} {size}")
    b_attempted, b_failed, lines = bundled_checks(work)
    print("\n".join(lines))

    loop = Loop(workload)
    loop.once()  # untimed warm-up; its outputs are the reference
    if args.trace == 0:
        samples, _ = loop.timed(args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kernels = [k for _, _, k in samples]
        setups = [s * KERNEL_REF_S / k for s, _, k in samples]
        runs = [r * KERNEL_REF_S / k for _, r, k in samples]
        metrics = {"setup_s": (median(setups), "s"), "run_s": (median(runs), "s"),
                   "peak_rss_mb": (peak_mb, "MB")}
        print(tail_line("setup_s", setups))
        print(tail_line("run_s", runs))
        print(f"peak_rss_mb {peak_mb:.1f} MB")
        print(f"# uncalibrated setup_s median {median([s for s, _, _ in samples]):.6g} s, "
              f"run_s median {median([r for _, r, _ in samples]):.6g} s; calibration "
              f"kernel median {median(kernels) * 1e3:.3f} ms (min {min(kernels) * 1e3:.3f},"
              f" max {max(kernels) * 1e3:.3f}, reference {KERNEL_REF_S * 1e3:g})"
              if samples else "# no operation passed its checks")
        layer_failed = 0
    else:
        from tracing import SpanTable, Tracer
        untraced = loop.timed(args.seconds / 3)[0]
        tracer = Tracer()
        install_tracer(tracer)
        try:
            traced, segments = loop.timed(args.seconds * 2 / 3, tracer)
        finally:
            tracer.restore()
        save_dir = ROOT / ".perfbench_out"
        save_dir.mkdir(exist_ok=True)
        tracer.save(save_dir / f"spans_{args.workload}.npz")
        table = SpanTable(tracer)
        values, layer_failed = layer_metrics(table, tracer, segments, loop.totals or {},
                                             untraced, traced)
        metrics = {k: (values.get(k, 0.0), u) for k, u in PER_LAYER_UNITS.items()}
        if segments:
            seg = 2 * segments[0] + 1
            shares = {layer: table.self_s(seg, layer) for layer in LAYERS}
            total = table.total_self(seg)
            print("# self time by layer, first traced op: " + " ".join(
                f"{k}={v / total:.3f}" for k, v in shares.items() if v > 0)
                + f" (sum {sum(shares.values()):.6f} s of {total:.6f} s)")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")

    if loop.reference is not None:
        print("# digests " + " ".join(f"{k}={v}" for k, v in loop.reference.items())
              + f" ({loop.matched}/{loop.attempted} ops identical)")
        print("# totals " + " ".join(f"{k}={v!r}" for k, v in loop.totals.items()))
    attempted = loop.attempted + b_attempted
    failed = loop.failed + b_failed + layer_failed
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted}; "
          f"bundled {b_failed} of {b_attempted})")
    print(f"# loadavg after [{' '.join(f'{x:.2f}' for x in os.getloadavg())}]")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one at a time, then a table."""
    import subprocess
    rows, results = [], {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print("\nworkload     " + "  ".join(f"{k:>14}" for k in
                                      next(iter(results.values()))["metrics"])
          + "  fail_ratio")
    for name, res in results.items():
        cells = "  ".join(f"{m['value']:>11.6g} {m['unit']:<2}"
                          for m in res["metrics"].values())
        rows.append(f"{name:<12} {cells}  {res['failed']}/{res['attempted']}")
    print("\n".join(rows))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's sizes")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
