"""Event-driven training protocols: FL, split learning, nested FedSplit.

Each runner drives real numpy training through the event loop: every
transmission and computation is scheduled, charged for energy, and debited
against device batteries. Model updates for one global iteration are staged
and committed together at its end, so a discarded iteration leaves no
partial update behind; an FL round stages one row per participant in its
round arrays and folds the arrived rows, gathered in arrival order.

Loss bookkeeping: the recorded loss of an iteration is the batch loss
*before* that iteration's step (training loss). Accuracy comes from a
held-out evaluation at the loss-owning node, charged as compute there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import costs, mlp
from .data import DataBundle
from .engine import Engine, EventKind
from .errors import (
    AllClientsDropped,
    MissingBackhaulLink,
    MissingD2dLink,
    NestedServerMismatch,
    ScenarioSchemaError,
    SessionAborted,
    SessionStalled,
    ZeroRate,
)
from .radio import AccessScheme, NomaCluster, RadioEnv, draw_channel_gain, tx_cost
from .topology import NetworkTopology

# FL clients trained per stacked numpy pass: large enough to amortise the
# per-call overhead, small enough to keep the stacked activations small
_TRAIN_GROUP = 32


@dataclass
class TrainingConfig:
    lr: float
    batch_size: int
    cycles_per_mac: float = 1.0
    eval_every: int = 1  # global iterations between held-out evals; 0 disables


@dataclass
class FlSession:
    server: str
    clients: list[str]
    local_iterations: int
    global_rounds: int
    model: mlp.MlpModel
    scheme: AccessScheme
    config: TrainingConfig
    data: DataBundle
    dropout_slope: float = 0.0
    round_deadline: float = float("inf")

    def __post_init__(self):
        if not self.clients:
            raise ScenarioSchemaError("an FL session needs at least one client")
        if self.local_iterations < 1 or self.global_rounds < 1:
            raise ScenarioSchemaError("iteration counts must be >= 1")


@dataclass
class SlSession:
    server: str
    clients: list[str]
    variant: str  # "homogeneous" | "heterogeneous"
    iterations: int
    model: mlp.MlpModel
    scheme: AccessScheme
    config: TrainingConfig
    data: DataBundle
    cut_index: int | None = None       # homogeneous: shared client/server cut
    boundaries: tuple[int, ...] = ()   # heterogeneous: one segment end per client
    relay: str = "via_server"          # "via_server" | "d2d"
    dropout_slope: float = 0.0

    def __post_init__(self):
        if not self.clients:
            raise ScenarioSchemaError("an SL session needs at least one client")
        if self.iterations < 1:
            raise ScenarioSchemaError("iteration counts must be >= 1")
        if self.variant not in ("homogeneous", "heterogeneous"):
            raise ScenarioSchemaError(f"unknown SL variant {self.variant!r}")
        if self.relay not in ("via_server", "d2d"):
            raise ScenarioSchemaError(f"unknown relay mode {self.relay!r}")


@dataclass
class IterationRecord:
    index: int
    wall_latency: float
    compute_energy: dict[str, float]
    tx_energy: dict[str, float]
    rx_energy: dict[str, float]
    bytes_up: int
    bytes_down: int
    loss: float
    accuracy: float | None
    dropouts: list[str]

    def total(self, which: str) -> float:
        return sum(getattr(self, which + "_energy").values())


@dataclass
class _Round:
    """A round (or iteration) in flight, with the clock, energy ledger and
    byte counters as they stood when it opened; `_RunnerBase._end` turns it
    into an IterationRecord. Each runner extends it with its own state."""
    index: int
    start: float
    before: dict[str, dict[str, float]]
    bytes_up: int
    bytes_down: int
    dropouts: list[str] = field(default_factory=list)
    loss: float = 0.0


CSV_COLUMNS = ("protocol", "iteration", "wall_latency_s", "total_compute_J",
               "total_tx_J", "total_rx_J", "bytes_up", "bytes_down", "loss",
               "accuracy", "dropouts")


@dataclass
class MetricsTrace:
    protocol: str
    records: list[IterationRecord] = field(default_factory=list)
    config_hash: str = ""
    seed: int = 0
    status: str = "completed"
    final_model: mlp.MlpModel | None = None

    def csv_rows(self) -> list[str]:
        rows = []
        for r in self.records:
            acc = "" if r.accuracy is None else repr(r.accuracy)
            rows.append(",".join([
                self.protocol, str(r.index), repr(r.wall_latency),
                repr(r.total("compute")), repr(r.total("tx")), repr(r.total("rx")),
                str(r.bytes_up), str(r.bytes_down), repr(r.loss), acc,
                ";".join(r.dropouts)]))
        return rows

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            if self.config_hash:
                fh.write(f"# config_hash={self.config_hash} seed={self.seed}\n")
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in self.csv_rows():
                fh.write(row + "\n")

    def summary(self) -> dict:
        last_acc = next((r.accuracy for r in reversed(self.records)
                         if r.accuracy is not None), None)
        return {
            "protocol": self.protocol,
            "status": self.status,
            "iterations": len(self.records),
            "wall_latency_s": sum(r.wall_latency for r in self.records),
            "total_compute_J": sum(r.total("compute") for r in self.records),
            "total_tx_J": sum(r.total("tx") for r in self.records),
            "total_rx_J": sum(r.total("rx") for r in self.records),
            "bytes_up": sum(r.bytes_up for r in self.records),
            "bytes_down": sum(r.bytes_down for r in self.records),
            "final_loss": self.records[-1].loss if self.records else None,
            "final_accuracy": last_acc,
            "config_hash": self.config_hash,
            "seed": self.seed,
        }

    def write_summary(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, sort_keys=True, indent=2)
            fh.write("\n")


# ====================================================================== #

class LegCosts:
    """Latency and energy of every leg kind, priced in one place.

    The runners charge what these methods return, and the placement
    estimator adds the same numbers up in closed form, so a plan's estimate
    and the executed cost of its schedule come from one set of formulas.
    `up`, `down`, `backhaul` and `d2d` price one transfer: (latency, sender
    joules, receiver joules), the uplink also with the blocks it books and
    their shared tag. `hop` is the one rule for who sends and who receives a
    transfer leg, and so who pays which joules.

    `gain(ue_id, context)` is the channel gain of one uplink; by default the
    device's mean gain, which is what the estimator prices.

    Each instance prices a distinct leg once: `compute` keeps its price by
    argument, and `hop` by the leg tuple, since both depend only on it and
    the static topology and radio. An uplink is kept at mean gain, and also
    under a runner's own `gain` when it draws no fading: the device's
    channel is static and, under NOMA, so is every channel of its cluster.
    A runner's `gain` draws a fresh fading sample per context, so a fading
    uplink is priced anew each time. A leg that cannot be priced raises,
    and nothing is kept for it.
    """

    def __init__(self, topo: NetworkTopology, radio_env: RadioEnv,
                 scheme: AccessScheme, cycles_per_mac: float, gain=None):
        self.topo = topo
        self.radio = radio_env
        self.scheme = scheme
        self.cycles_per_mac = cycles_per_mac
        self.gain = gain or (lambda ue_id, context: topo.ues[ue_id].channel_gain)
        self._noma = scheme.kind.noma
        self._keep_up = gain is None
        self._slot: dict[str, int] = {}
        self._cluster_rates: dict[tuple, dict[str, float]] = {}
        self._compute: dict[tuple, tuple] = {}
        self._hops: dict[tuple, tuple] = {}

    def assign_slots(self, ues) -> None:
        """Pin each device to a stable uplink block slot (first come, first
        served), so block choice never depends on event timing."""
        for ue_id in ues:
            self.slot_of(ue_id)

    def slot_of(self, ue_id: str) -> int:
        return self._slot.setdefault(ue_id, len(self._slot))

    def compute(self, node: str, macs: float) -> tuple[float, float]:
        price = self._compute.get((node, macs))
        if price is None:
            spec = self.topo.servers.get(node)
            if spec is None:
                spec = self.topo.ues[node]
            price = self._compute[node, macs] = costs.compute_cost(
                macs, self.cycles_per_mac, spec.compute_rate, spec.energy_per_cycle)
        return price

    def hop(self, leg: tuple, context: str = "") -> tuple:
        """(sender, receiver, latency, tx, rx, blocks, tag) of one transfer
        leg (see `route`): the sender pays `tx` and the receiver `rx`. A
        radio hop's other end is the device's access point, and only an
        uplink books blocks. `context` names an uplink's random streams."""
        price = self._hops.get(leg)
        if price is None:
            kind, a, b = leg[0], leg[1], leg[2]
            if kind == "up":
                blocks, tag, latency, tx, rx = self.up(a, b, context)
                price = (a, self.topo.ues[a].attached_ap, latency, tx, rx, blocks, tag)
                if not (self._keep_up or self._static(a)):
                    return price
            elif kind == "down":
                price = (self.topo.ues[a].attached_ap, a, *self.down(b), (), None)
            elif kind == "backhaul":
                price = (a, b, *self.backhaul(a, b, leg[3]), (), None)
            else:
                price = (a, b, *self.d2d(a, b, leg[3]), (), None)
            self._hops[leg] = price
        return price

    def _static(self, ue_id: str) -> bool:
        """Whether an uplink of `ue_id` draws no fading, so its price never
        changes: its channel is static and, under NOMA, so is every channel
        of its cluster."""
        cluster = self.radio.cluster_of(ue_id) if self._noma else None
        members = cluster.member_ids() if cluster is not None else (ue_id,)
        return all(self.topo.ues[m].channel_variance == 0.0 for m in members)

    def rx(self, bits: int) -> float:
        return self.radio.rx_energy_per_bit * bits

    def up(self, ue_id: str, bits: int, context: str):
        """(blocks, shared_tag, latency, tx, rx) of one uplink UE -> its access
        point. Under a NOMA scheme a cluster member shares the cluster's
        blocks, tagged by the cluster, at its cancellation rate; any other
        device rides its orthogonal block slot alone."""
        ue = self.topo.ues[ue_id]
        cluster = self.radio.cluster_of(ue_id) if self._noma else None
        if cluster is not None:
            blocks, tag = cluster.blocks, "cluster:" + "+".join(cluster.member_ids())
            rate = self._rates(cluster, context)[ue_id]
            power = cluster.power_of(ue_id)
        else:
            block = self.radio.block_for(ue.attached_ap, self.slot_of(ue_id))
            blocks, tag = (block,), None
            rate = self.radio.oma_uplink_rate(block, ue.tx_power, self.gain(ue_id, context))
            power = ue.tx_power
        latency, energy = tx_cost(bits, rate, power, self.scheme)
        return blocks, tag, latency, energy, self.rx(bits)

    def _rates(self, cluster: NomaCluster, context: str) -> dict[str, float]:
        """Per-member NOMA rates; each member's gain is drawn once per cluster
        and payload round, and shared by the members' uplinks in it."""
        key = (cluster.member_ids(), context.split(":")[0])
        rates = self._cluster_rates.get(key)
        if rates is None:
            gains = {m: self.gain(m, key[1]) for m in key[0]}
            rates = self._cluster_rates[key] = self.radio.cluster_rates(cluster, gains)
        return rates

    def down(self, bits: int) -> tuple[float, float, float]:
        """Access point -> device at the fixed downlink rate."""
        latency, energy = costs.pipe_cost(bits, self.radio.downlink_rate,
                                          self.radio.downlink_energy_per_bit)
        return latency, energy, self.rx(bits)

    def backhaul(self, src: str, dst: str, bits: int) -> tuple[float, float, float]:
        link = self.topo.link_between(src, dst)
        if link is None:
            raise MissingBackhaulLink(f"no backhaul link between {src!r} and {dst!r}")
        latency, energy = costs.link_cost(bits, link)
        return latency, energy, self.rx(bits)

    def d2d(self, src: str, dst: str, bits: int) -> tuple[float, float, float]:
        link = self.topo.d2d_link(src, dst)
        if link is None:
            raise MissingD2dLink(f"no D2D link between {src!r} and {dst!r}")
        latency, energy = costs.pipe_cost(bits, link.rate, link.energy_per_bit)
        return latency, energy, self.rx(bits)


# Every transfer and computation is a leg, a plain tuple without an
# iteration index, of one of five kinds: ("compute", node, macs, what),
# ("up", ue, bits, payload, ctx) and ("down", ue, bits, payload) between a
# device and its access point, ("backhaul", src, dst, bits, payload) between
# two servers, and ("d2d", src, dst, bits, payload) between two devices.
# `route` turns one transfer into its hops; the protocols' leg builders below
# string those together with compute legs. The runners walk the tuples with
# `_RunnerBase._legs`, and the placement estimator walks the same tuples in
# closed form.

def route(topo: NetworkTopology, src: str, dst: str, bits: int, payload: str,
          ctx: str = "") -> tuple:
    """The hops that carry `bits` from `src` to `dst`: a device reaches a
    server by its radio uplink, then a backhaul hop unless the server is the
    device's access point; a server reaches a device the reverse way; two
    servers talk over backhaul and two devices over D2D. `ctx` names the
    uplink's random streams."""
    ue = topo.ues.get(src)
    if ue is not None:
        if dst in topo.ues:
            return (("d2d", src, dst, bits, payload),)
        up = ("up", src, bits, payload, ctx)
        if dst == ue.attached_ap:
            return (up,)
        return (up, ("backhaul", ue.attached_ap, dst, bits, payload))
    ue = topo.ues.get(dst)
    if ue is None:
        return (("backhaul", src, dst, bits, payload),)
    down = ("down", dst, bits, payload)
    if src == ue.attached_ap:
        return (down,)
    return (("backhaul", src, ue.attached_ap, bits, payload), down)


class SlHomoLegs:
    """Legs of homogeneous split-learning iterations: the handoff of the
    client part to the iteration's client, then the body (forward, smashed
    activations and labels up, the server's turn, gradient down, backward),
    built once per client. A device server (a FedSplit master) is reached
    over D2D. The cut must leave at least one layer on each side."""

    def __init__(self, topo: NetworkTopology, server: str, widths, cut: int, batch: int):
        if cut is None or not 1 <= cut <= len(widths) - 2:
            raise ScenarioSchemaError(f"cut_index must be in [1, {len(widths) - 2}], got {cut}")
        self.topo = topo
        self.server = server
        self.part_bits = costs.model_bits(widths[:cut + 1])
        self.client_macs = costs.forward_macs(widths, batch, 0, cut)
        self.server_macs = 3 * costs.forward_macs(widths, batch, cut, len(widths) - 1)
        self.grad_bits = costs.activation_bits(batch, widths[cut])
        self.smash_bits = self.grad_bits + costs.label_bits(batch)
        self._bodies: dict[str, tuple] = {}

    def handoff(self, prev: str | None, client: str, reseed: bool = False) -> tuple:
        """Legs that bring the client part from its holder `prev` to
        `client`: directly over a D2D link, else through the server. The
        server seeds it when nobody holds it yet, or when `reseed` (the
        holder dropped; the server keeps its committed copy)."""
        topo, server, bits = self.topo, self.server, self.part_bits
        if prev == client:
            return ()
        if prev is None or reseed:
            return route(topo, server, client, bits, "client_part")
        if topo.d2d_link(prev, client) is not None:
            return route(topo, prev, client, bits, "client_part")
        return (route(topo, prev, server, bits, "client_part", f":{prev}:handoff")
                + route(topo, server, client, bits, "client_part"))

    def body(self, client: str) -> tuple:
        legs = self._bodies.get(client)
        if legs is None:
            topo, server = self.topo, self.server
            legs = self._bodies[client] = (
                ("compute", client, self.client_macs, "fwd"),
                *route(topo, client, server, self.smash_bits, "smashed+labels",
                       f":{client}:up"),
                ("compute", server, self.server_macs, "srv"),
                *route(topo, server, client, self.grad_bits, "smashed_grad"),
                ("compute", client, 2 * self.client_macs, "bwd"))
        return legs


def sl_hetero_legs(topo: NetworkTopology, server: str, clients, widths, boundaries,
                   batch: int, relay: str):
    """Legs of one heterogeneous split-learning iteration, in three parts:
    the labels uplink, which runs beside the forward chain; the forward
    chain; and the server's turn plus the backward chain. Client k owns the
    segment ending at `boundaries[k]`, so the boundaries rise strictly and
    leave the server at least one layer; handoffs between clients ride D2D
    (relay "d2d"), which needs a link between each consecutive pair, or
    bounce through the server."""
    num_layers = len(widths) - 1
    if len(boundaries) != len(clients):
        raise ScenarioSchemaError(f"{len(clients)} clients need {len(clients)} boundaries, "
                                  f"got {list(boundaries)}")
    edges = (0, *boundaries)
    if any(a >= b for a, b in zip(edges, edges[1:])) or edges[-1] >= num_layers:
        raise ScenarioSchemaError(f"boundaries must be strictly increasing in "
                                  f"(0, {num_layers}), got {list(boundaries)}")
    if relay == "d2d":
        for a, b in zip(clients, clients[1:]):
            if topo.d2d_link(a, b) is None:
                raise MissingD2dLink(f"relay 'd2d' needs a link between consecutive "
                                     f"clients {a!r} and {b!r}")

    def handoff(src, dst, bits, payload, ctx):
        if relay == "d2d":
            return route(topo, src, dst, bits, payload)
        return (route(topo, src, server, bits, payload, ctx)
                + route(topo, server, dst, bits, payload))

    fwd = [costs.forward_macs(widths, batch, a, b) for a, b in zip(edges, edges[1:])]
    labels = route(topo, clients[0], server, costs.label_bits(batch), "labels",
                   f":{clients[0]}:labels")
    forward = []
    for k, client in enumerate(clients):
        forward.append(("compute", client, fwd[k], f"fwd{k}"))
        bits = costs.activation_bits(batch, widths[edges[k + 1]])
        if k + 1 < len(clients):
            forward += handoff(client, clients[k + 1], bits, "smashed", f":{client}")
        else:
            # the last client segment feeds the server's segment
            forward += route(topo, client, server, bits, "smashed", f":{client}:up")
    back = [("compute", server,
             3 * costs.forward_macs(widths, batch, edges[-1], len(widths) - 1), "srv"),
            *route(topo, server, clients[-1],
                   costs.activation_bits(batch, widths[edges[-1]]), "smashed_grad")]
    for k in reversed(range(len(clients))):
        back.append(("compute", clients[k], 2 * fwd[k], f"bwd{k}"))
        if k:
            back += handoff(clients[k], clients[k - 1],
                            costs.activation_bits(batch, widths[edges[k]]),
                            "smashed_grad", f":bwd:{clients[k]}")
    return labels, tuple(forward), tuple(back)


class FlLegs:
    """Legs of FL rounds: each client's chain (the model down, local
    training, the delta up) and the server's aggregation. The model's bits,
    the local MACs and the parameter count are sized once."""

    def __init__(self, topo: NetworkTopology, server: str, widths, batch: int,
                 local_iterations: int):
        self.topo = topo
        self.server = server
        self.model_bits = costs.model_bits(widths)
        self.local_macs = local_iterations * costs.training_macs(widths, batch)
        self.params = costs.param_count_of(widths)

    def chain(self, client: str) -> tuple:
        """(download route, local compute leg, upload route) of `client`."""
        topo, server, bits = self.topo, self.server, self.model_bits
        return (route(topo, server, client, bits, "model"),
                ("compute", client, self.local_macs, "local"),
                route(topo, client, server, bits, "delta", f":{client}:ul"))

    def aggregate(self, n: int) -> tuple:
        """The server's compute leg that averages `n` deltas."""
        return ("compute", self.server, costs.aggregation_macs(n, self.params), "aggregate")


def eval_legs(owner: str, widths, test_size: int, every: int, index: int) -> tuple:
    """The held-out evaluation at `owner` after iteration (or round)
    `index`: one compute leg every `every` iterations, else no leg."""
    if every <= 0 or (index + 1) % every != 0:
        return ()
    return (("compute", owner, costs.forward_macs(widths, test_size), "eval"),)


class _Refused(Exception):
    """Thrown into a process when a node refuses its leg (the node dropped)."""


class _Process:
    """Drives a process: a generator that yields legs. A leg is a callable
    `(done, fail)` that starts one leg, or a tuple of processes that run
    side by side. The process resumes inside the event that completes its
    leg, and `_Refused` is thrown into it inside the DROPOUT event of a
    refusal. `done(value)` receives what it returns; `fail()` runs when a
    refusal escapes it (without `fail`, the refusal propagates). `guard()`
    is asked before every resume: once it answers true, the process stops
    there. Legs hold this object's bound methods and nothing it holds points
    back at it, so it is freed once its last leg has run."""

    __slots__ = ("gen", "done", "fail", "guard")

    def __init__(self, gen, done, fail, guard):
        self.gen, self.done, self.fail, self.guard = gen, done, fail, guard

    def resume(self, value=None, error=None) -> None:
        if self.guard is not None and self.guard():
            return
        try:
            leg = self.gen.send(value) if error is None else self.gen.throw(error)
        except StopIteration as stop:
            if self.done is not None:
                self.done(stop.value)
            return
        except _Refused:
            if self.fail is None:
                raise
            self.fail()
            return
        if type(leg) is tuple:
            _join(leg, self.resume, self.refused)
        else:
            leg(self.resume, self.refused)

    def refused(self) -> None:
        self.resume(None, _Refused())


def _join(processes: tuple, done, fail) -> None:
    """Run `processes` side by side: `done()` once all have returned, or
    `fail()` when the first refusal escapes one of them."""
    left = [len(processes)]

    def returned(_):
        left[0] -= 1
        if left[0] == 0:
            done()

    def failed():
        if left[0] > 0:
            left[0] = -1  # the others finish unheard
            fail()

    for process in processes:
        _Process(process, returned, failed, None).resume()


# each hop kind's event-detail prefix, and where its leg tuple names the payload
_HOP_DETAIL = {"up": ("ul:", 3), "down": ("dl:", 3), "backhaul": ("bh:", 4),
               "d2d": ("d2d:", 4)}


class _RunnerBase:
    """Transmission/computation legs shared by all protocol runners, and the
    driver that runs a protocol's legs in order.

    Every leg is scheduled on the engine and calls `done()` (or `fail()`)
    from inside the completion event, after charging energy and debiting
    batteries. Battery sufficiency is checked when a leg starts: a device
    that cannot afford a leg refuses it and drops out at the current clock,
    spending nothing.

    Each protocol writes its legs top-down as processes (see `_Process`)
    that `_drive` runs.

    A runner records one entry per round (or iteration) of `rounds`.
    `_begin(index)` starts round `index` (by default the process
    `_round(index)`, which opens its `_Round` with `_open`); `_end` records
    the round and begins the next.
    """

    def __init__(self, protocol: str, session, topo: NetworkTopology,
                 radio_env: RadioEnv, eng: Engine, rounds: int):
        self.session = session
        self.topo = topo
        self.radio = radio_env
        self.eng = eng
        self.config = session.config
        self.rounds = rounds
        self.model = session.model
        self.trace = MetricsTrace(protocol=protocol)
        self.legs = LegCosts(topo, radio_env, session.scheme, session.config.cycles_per_mac,
                             gain=self._gain)
        self.legs.assign_slots(session.clients)
        self.bytes_up = 0
        self.bytes_down = 0

    def run(self) -> MetricsTrace:
        self._boundary(self.session.server, "session start", partial(self._begin, 0))
        try:
            self.eng.run()
            if len(self.trace.records) < self.rounds:
                raise SessionStalled(
                    f"no event left to run after {len(self.trace.records)} of "
                    f"{self.rounds} records")
        except SessionAborted as exc:
            self.trace.status = f"aborted: {exc.reason}"
            exc.trace = self.trace
            raise
        finally:
            self.trace.final_model = self.model
        return self.trace

    # ---- processes ----

    def _drive(self, process, guard=None) -> None:
        """Run `process` to its end, or until `guard()` answers true."""
        _Process(process, None, None, guard).resume()

    def _boundary(self, node: str, detail: str, done, fail=None) -> None:
        """A zero-delay ROUND_BOUNDARY leg; nothing refuses it."""
        self.eng.schedule_after(0.0, EventKind.ROUND_BOUNDARY, done, node=node,
                                detail=detail)

    def _begin(self, index: int) -> None:
        if index < self.rounds:
            self._drive(self._round(index))

    def _leg(self, leg: tuple, tag: str, index: int):
        """The leg that runs one leg tuple of iteration `index`. Its `what`
        gets `:i{index}` and an uplink's `ctx` the prefix `{tag}{index}`, so
        event details and random-stream names name the iteration."""
        if leg[0] == "compute":
            return partial(self.leg_compute, leg[1], leg[2], f"{leg[3]}:i{index}")
        return partial(self.leg_hop, leg, f"{tag}{index}{leg[4]}" if leg[0] == "up" else "")

    def _legs(self, legs: tuple, tag: str, index: int):
        """Process: run the leg tuples of iteration `index` in order."""
        for leg in legs:
            yield self._leg(leg, tag, index)

    def _transfer(self, legs: tuple, tag: str, index: int):
        """One leg that runs a route's `legs` whole: a process of its own,
        which resumes without the caller's guard, so a guard never stops a
        transfer between its hops. A route of one hop has no hop to guard
        and is the hop itself; a process per transfer would cost `fl_wide`,
        whose every route is one hop, about an eighth of its run time."""
        if len(legs) == 1:
            return self._leg(legs[0], tag, index)
        return (self._legs(legs, tag, index),)

    # ---- failure plumbing ----

    def _refuse(self, node: str, reason: str, fail) -> None:
        """Node cannot run a leg: drop it at the current clock, then `fail`
        (also when it had already dropped, so the refusal is never lost)."""
        if node in self.eng.dropped:
            self.eng.schedule(self.eng.clock, EventKind.DROPOUT, fail, node=node,
                              detail=reason)
        else:
            self.eng.mark_dropped(node, reason, callback=fail)

    def _battery_ok(self, node: str, joules: float, fail) -> bool:
        if node in self.eng.dropped:
            self._refuse(node, "already dropped", fail)
            return False
        if self.eng.can_afford(node, joules):
            return True
        self._refuse(node, "insufficient battery", fail)
        return False

    def _outage(self, ue_id: str, context: str, fail) -> bool:
        """Per-transmission channel outage draw; static channels never fail
        and consume no randomness."""
        ue = self.topo.ues[ue_id]
        slope = self.session.dropout_slope
        if slope <= 0.0 or ue.channel_variance <= 0.0:
            return False
        p = min(1.0, slope * ue.channel_variance)
        draw = self.eng.rng.stream(f"drop:{ue_id}:{context}").uniform()
        if draw >= p:
            return False
        self._refuse(ue_id, "channel outage", fail)
        return True

    # ---- legs ----

    def leg_compute(self, node: str, macs: float, what: str, done, fail=None) -> None:
        latency, energy = self.legs.compute(node, macs)
        if node in self.topo.ues and not self._battery_ok(node, energy, fail or done):
            return
        def finish():
            self.eng.charge(node, "compute", energy)
            done()
        self.eng.schedule_after(latency, EventKind.COMPUTE_DONE, finish,
                                node=node, detail=what)

    def _gain(self, ue_id: str, context: str) -> float:
        """Channel gain of one uplink. The `gain:` stream is built only for a
        varying channel: a static one draws nothing from it."""
        ue = self.topo.ues[ue_id]
        rng = (self.eng.rng.stream(f"gain:{ue_id}:{context}")
               if ue.channel_variance != 0.0 else None)
        return draw_channel_gain(ue, rng)

    def leg_hop(self, leg: tuple, context: str, done, fail) -> None:
        """One transfer leg, priced and billed by `LegCosts.hop`: the sender
        pays its transmit joules and the receiver its receive joules, and a
        device end must afford its share when the hop starts. An uplink may
        be lost to a channel outage and waits for its blocks; every other
        hop starts at once."""
        kind = leg[0]
        if kind == "up" and self._outage(leg[1], context, fail):
            return
        try:
            sender, receiver, latency, tx, rx, blocks, tag = self.legs.hop(leg, context)
        except ZeroRate:  # validation priced the mean gain; this fade carries no bits
            self._refuse(leg[1], "channel outage", fail)
            return
        ues = self.topo.ues
        if sender in ues and not self._battery_ok(sender, tx, fail):
            return
        if receiver in ues and not self._battery_ok(receiver, rx, fail):
            return
        start = self.eng.clock
        if blocks:
            start = self.eng.blocks.book(receiver, blocks, start, latency, sender, tag)
        def finish():
            if tx > 0:
                self.eng.charge(sender, "tx", tx)
            if rx > 0:
                self.eng.charge(receiver, "rx", rx)
            if kind == "up":
                self.bytes_up += leg[2] // 8
            elif kind == "down":
                self.bytes_down += leg[2] // 8
            done()
        prefix, payload = _HOP_DETAIL[kind]
        self.eng.schedule(start + latency, EventKind.TX_DONE, finish, node=leg[1],
                          detail=prefix + leg[payload])

    # ---- metrics plumbing ----

    def _open(self, round_type: type[_Round], index: int, **state) -> _Round:
        """A round of `round_type` whose books start now."""
        before = {node: dict(cats) for node, cats in self.eng.energy_ledger.items()}
        return round_type(index, self.eng.clock, before, self.bytes_up, self.bytes_down,
                          **state)

    def _category_diff(self, before: dict, category: str) -> dict[str, float]:
        out = {}
        for node, cats in self.eng.energy_ledger.items():
            delta = cats.get(category, 0.0) - before.get(node, {}).get(category, 0.0)
            if delta > 0:
                out[node] = delta
        return out

    def _end(self, state: _Round, what: str):
        """Process: evaluate when due, record the round, begin the next."""
        accuracy = yield from self._eval(state.index)
        self.trace.records.append(IterationRecord(
            index=state.index,
            wall_latency=self.eng.clock - state.start,
            compute_energy=self._category_diff(state.before, "compute"),
            tx_energy=self._category_diff(state.before, "tx"),
            rx_energy=self._category_diff(state.before, "rx"),
            bytes_up=self.bytes_up - state.bytes_up,
            bytes_down=self.bytes_down - state.bytes_down,
            loss=state.loss,
            accuracy=accuracy,
            dropouts=state.dropouts,
        ))
        yield partial(self._boundary, self.session.server, f"{what} {state.index} done")
        self._begin(state.index + 1)

    def _eval(self, global_iter: int):
        """Process: held-out evaluation at the loss owner, charged as compute
        there (and run even if refused); the accuracy, or None if not due."""
        data = self.session.data
        legs = eval_legs(self.session.server, self.model.widths, data.test_x.shape[0],
                         self.config.eval_every, global_iter)
        if not legs:
            return None
        _, node, macs, what = legs[0]
        yield lambda done, fail: self.leg_compute(node, macs, what, done)
        return mlp.evaluate(self.model, data.test_x, data.test_labels)[1]


# ====================================================================== #
#                              federated                                 #
# ====================================================================== #

@dataclass
class _FlRound(_Round):
    """The round arrays hold one row per participant, the trainers' first:
    each parameter's delta from the global model, losses and sample count."""
    pending: set[str] = field(default_factory=set)   # participants not back yet
    untrained: list[str] = field(default_factory=list)  # trainers, until the first download
    rows: dict[str, int] = field(default_factory=dict)  # each participant's row
    layers: list[np.ndarray] = field(default_factory=list)  # weight deltas, then bias deltas
    losses: np.ndarray | None = None  # pre-step losses, (rows, local_iterations)
    counts: list[int] = field(default_factory=list)  # sample counts
    arrivals: list[int] = field(default_factory=list)  # rows back, in arrival order
    closed: bool = False


class _FlRunner(_RunnerBase):
    """Federated averaging. In each round every participant runs one chain:
    download the global model, train through `_local_step`, upload the
    delta. The round closes when every participant is back or has dropped,
    or at its deadline. A client with a runner in `nested` (a FedSplit
    master; none under FL) trains through that runner's split learning.

    Stragglers: a chain's guard looks at its round whenever the chain
    resumes, and stops the chain there once the round has closed; its delta
    never counts. A client whose chain is still running when a round begins
    is not started with the others: it joins that round when the chain
    stops, if the round is still open, and the next round otherwise. So no
    client trains two rounds at once, and every local step starts from the
    model of the round it belongs to.
    """

    def __init__(self, session: FlSession, topo, radio_env, eng,
                 protocol_name: str = "fl"):
        super().__init__(protocol_name, session, topo, radio_env, eng,
                         session.global_rounds)
        self._current: _FlRound | None = None
        self.nested: dict[str, _SlHomoRunner] = {}
        self.plan = FlLegs(topo, session.server, self.model.widths,
                           session.config.batch_size, session.local_iterations)
        # each client's chain, the same every round
        self._chains = {c: self.plan.chain(c) for c in session.clients}

    def _chain(self, client: str, state: _FlRound):
        """`client`'s round: download the model, train, upload the delta.
        Each transfer is one leg of the chain, so its guard stops the chain
        between transfers, never between a transfer's hops."""
        down, _, up = self._chains[client]
        yield partial(self._boundary, client, f"round {state.index} start")
        try:
            yield self._transfer(down, "", state.index)
            tag = yield from self._local_step(client, state)
            yield self._transfer(up, tag, state.index)
        except _Refused:
            self._sweep(state)
            return
        state.arrivals.append(state.rows[client])
        state.pending.discard(client)
        self._maybe_close(state)

    def _closed(self, client: str, state: _FlRound) -> bool:
        """Guard of `client`'s chain: once `state` has closed, the chain
        stops and the client rejoins."""
        if state.closed:
            self._rejoin(client)
        return state.closed

    def _local_step(self, client: str, state: _FlRound):
        """Process: train `client` locally into its row of the round arrays.
        Returns the tag that prefixes the upload's random-stream context.

        A master runs its local iterations as homogeneous SL over its
        slaves, from the global model and iteration 0 each round, sharing
        this engine and clock; its records stay out of the FL trace, and it
        never evaluates. The phase is part of the master's FL chain, so the
        chain's guard stops it at its next leg boundary once the FL round
        has closed. A nested abort drops the master from the FL round."""
        inner = self.nested.get(client)
        if inner is None:
            self._train_clients(state)
            _, node, macs, what = self._chains[client][1]
            yield partial(self.leg_compute, node, macs, f"{what}:r{state.index}")
            return "fl"
        inner.model, inner.holder = mlp.clone(self.model), None
        yield partial(self._boundary, client, f"nested r{state.index} start")
        losses = []
        for i in range(inner.rounds):
            slave = inner._client_for(i)
            try:
                losses.append((yield from inner._iteration(slave, i, [])))
            except SessionAborted as exc:
                reason = f"nested split aborted: {exc.reason}"
                yield lambda done, fail: self._refuse(client, reason, fail)
            if i + 1 < inner.rounds:
                yield partial(self._boundary, client, f"iter {i} done")
            else:
                # not waited on: the upload starts in the event that ended
                # the last nested leg
                self._boundary(client, f"iter {i} done", lambda: None)
        self._fill(state, state.rows[client], inner.model.weights, inner.model.biases,
                   losses, self.delta_sample_count(client))
        return "fs"

    def _local_training(self, client: str, rnd: int) -> dict:
        """`client`'s training in round `rnd`, the round now open: its delta
        (views of its row of the round arrays), pre-step losses and count."""
        state = self._current
        self._train_clients(state)
        row, cut = state.rows[client], self.model.num_layers
        views, n = [a[row] for a in state.layers], state.counts[row]
        return {"delta": mlp.ParamDelta(self.model.widths, views[:cut], views[cut:], n),
                "losses": state.losses[row].tolist(), "n": n}

    def _train_clients(self, state: _FlRound) -> None:
        """Local SGD from the global model for every trainer of the round not
        yet trained, _TRAIN_GROUP clients at a time, into their rows."""
        sess = self.session
        trainers, state.untrained = state.untrained, []
        iterations = range(state.index * sess.local_iterations,
                           (state.index + 1) * sess.local_iterations)
        for first in range(0, len(trainers), _TRAIN_GROUP):
            group = trainers[first:first + _TRAIN_GROUP]
            steps = sess.data.stacked_batches(group, iterations, self.config.batch_size)
            weights, biases, losses = mlp.sgd_clients(self.model, steps, self.config.lr)
            self._fill(state, slice(first, first + len(group)), weights, biases, losses,
                       [sess.data.shard_of(c).size for c in group])

    def _fill(self, state: _FlRound, rows, weights, biases, losses, counts) -> None:
        """Write trained parameters into `rows` as deltas from the global model."""
        for out, new, old in zip(state.layers, weights + biases,
                                 self.model.weights + self.model.biases):
            np.subtract(new, old, out=out[rows])
        state.losses[rows] = losses
        state.counts[rows] = counts

    def _begin(self, rnd: int) -> None:
        sess = self.session
        if rnd >= self.rounds:
            return
        participants = [c for c in sess.clients if c not in self.eng.dropped]
        if not participants:
            raise AllClientsDropped(f"round {rnd}: no clients left")
        # whoever the last round still waits for has a chain running
        running = self._current.pending if self._current is not None else set()
        order = sorted(participants, key=self.nested.__contains__)  # trainers first
        n = len(order)
        state = self._current = self._open(
            _FlRound, rnd, pending=set(participants), rows={c: i for i, c in enumerate(order)},
            untrained=[c for c in order if c not in self.nested],
            layers=[np.empty((n,) + a.shape) for a in self.model.weights + self.model.biases],
            losses=np.empty((n, sess.local_iterations)), counts=[0] * n)
        for client in participants:
            if client not in running:
                self._start(client, state)
        if sess.round_deadline != float("inf"):
            self.eng.schedule(state.start + sess.round_deadline,
                              EventKind.ROUND_BOUNDARY,
                              lambda: self._sweep(state, deadline=True),
                              node=sess.server, detail=f"round {rnd} deadline")

    def _start(self, client: str, state: _FlRound) -> None:
        self._drive(self._chain(client, state), guard=partial(self._closed, client, state))

    def _rejoin(self, client: str) -> None:
        """`client`'s chain stopped after its round closed: it joins the
        round now open, or is free for the next `_begin`."""
        state = self._current
        if client not in state.pending:
            return
        if state.closed:
            state.pending.discard(client)
        elif client in self.eng.dropped:
            self._sweep(state)
        else:
            self._start(client, state)

    def _sweep(self, state: _FlRound, deadline=False) -> None:
        """A chain failed, or the round's deadline came: every pending
        participant that has dropped is out, and the round closes if it can.
        Those swept at once are listed by id, not in the set's hash order."""
        for c in sorted(c for c in state.pending if c in self.eng.dropped):
            state.pending.discard(c)
            state.dropouts.append(c)
        self._maybe_close(state, deadline)

    def _maybe_close(self, state: _FlRound, deadline=False) -> None:
        """Close the round once nobody is pending (or at its deadline) and
        aggregate the deltas that arrived."""
        if state.closed or (state.pending and not deadline):
            return
        state.closed = True
        if not state.arrivals:
            raise AllClientsDropped(f"round {state.index}: zero surviving uploads")
        self._drive(self._aggregate(state))

    def _aggregate(self, state: _FlRound):
        rows = np.array(state.arrivals)
        counts = [state.counts[r] for r in state.arrivals]
        means = state.losses[rows].mean(axis=1)
        state.loss = sum(n * mean for n, mean in zip(counts, means.tolist())) / sum(counts)
        _, node, macs, what = self.plan.aggregate(len(rows))
        yield lambda done, fail: self.leg_compute(node, macs, f"{what}:r{state.index}", done)
        self.model = mlp.apply_delta(self.model, mlp.fed_avg_stacked(
            self.model.widths, [a[rows] for a in state.layers], counts))
        yield from self._end(state, "round")


def run_fl(session: FlSession, topo: NetworkTopology, radio_env: RadioEnv,
           eng: Engine) -> MetricsTrace:
    return _FlRunner(session, topo, radio_env, eng).run()


# ====================================================================== #
#                          homogeneous split                             #
# ====================================================================== #

class _SlHomoRunner(_RunnerBase):
    """Sequential split learning: one active client per iteration; the
    client-side parameters hop to the next client between iterations,
    directly over D2D when a link exists, otherwise via the server."""

    def __init__(self, session: SlSession, topo, radio_env, eng):
        super().__init__("sl_homogeneous", session, topo, radio_env, eng, session.iterations)
        self.holder: str | None = None  # who physically has the client part
        self.plan = SlHomoLegs(topo, session.server, self.model.widths, session.cut_index,
                               session.config.batch_size)
        self.segments = mlp.contiguous_cuts(self.model.num_layers, (session.cut_index,))

    def _client_for(self, iteration: int) -> str:
        alive = [c for c in self.session.clients if c not in self.eng.dropped]
        if not alive:
            raise AllClientsDropped(f"iteration {iteration}: no clients left")
        return alive[iteration % len(alive)]

    def _round(self, index: int):
        client = self._client_for(index)
        state = self._open(_Round, index)
        state.loss = yield from self._iteration(client, index, state.dropouts)
        yield from self._end(state, "iter")

    def _iteration(self, client: str, index: int, dropouts: list[str]):
        """Process: iteration `index` on `client`; returns its loss. After a
        refused leg the staged work is discarded and the iteration retried
        once with the next surviving client; a second failure aborts."""
        for retry in (False, True):
            try:
                return (yield from self._attempt(client, index))
            except _Refused:
                if retry:
                    raise SessionAborted("two consecutive client failures")
            nxt = self._next_after(client)
            if nxt is None:
                raise AllClientsDropped(f"iteration {index}: no clients left")
            if client in self.eng.dropped and client not in dropouts:
                dropouts.append(client)
            client = nxt

    def _attempt(self, client: str, index: int):
        """Deliver the client part, then the iteration's body; returns the
        loss."""
        prev = self.holder
        yield from self._legs(self.plan.handoff(prev, client, prev in self.eng.dropped),
                              "slh", index)
        self.holder = client
        yield from self._legs(self.plan.body(client), "slh", index)
        x, labels = self.session.data.shard_of(client).batch(index, self.config.batch_size)
        self.model, loss = mlp.split_step(self.model, self.segments, x, labels,
                                          self.config.lr)
        return loss

    def _next_after(self, client: str) -> str | None:
        order = self.session.clients
        pivot = order.index(client) if client in order else -1
        for step in range(1, len(order) + 1):
            candidate = order[(pivot + step) % len(order)]
            if candidate not in self.eng.dropped:
                return candidate
        return None


def run_sl_homogeneous(session: SlSession, topo: NetworkTopology,
                       radio_env: RadioEnv, eng: Engine) -> MetricsTrace:
    if session.variant != "homogeneous":
        raise ScenarioSchemaError(f"expected homogeneous session, got {session.variant!r}")
    return _SlHomoRunner(session, topo, radio_env, eng).run()


# ====================================================================== #
#                         heterogeneous split                            #
# ====================================================================== #

class _SlHeteroRunner(_RunnerBase):
    """Chained split learning: each client owns one contiguous segment, the
    server owns the final segment and the loss. Handoffs between consecutive
    clients ride D2D links (relay = d2d) or bounce through the server
    (relay = via_server). The entry client owns the training data; labels
    travel to the server, the loss owner, in parallel with the forward chain.
    """

    def __init__(self, session: SlSession, topo, radio_env, eng):
        super().__init__("sl_heterogeneous", session, topo, radio_env, eng,
                         session.iterations)
        self.labels, self.forward, self.back = sl_hetero_legs(
            topo, session.server, session.clients, self.model.widths, session.boundaries,
            session.config.batch_size, session.relay)
        # one segment per client, then the server's
        self.segments = mlp.contiguous_cuts(self.model.num_layers, session.boundaries)

    def _round(self, index: int):
        sess = self.session
        state = self._open(_Round, index)
        try:
            # labels go straight to the loss owner while the forward chain runs
            yield (self._legs(self.labels, "slx", index),
                   self._legs(self.forward, "slx", index))
            yield from self._legs(self.back, "slx", index)
        except _Refused:
            # every client owns exactly one segment, so no spare can take its place
            survivors = [c for c in sess.clients if c not in self.eng.dropped]
            raise SessionAborted(
                f"iteration {index}: {len(survivors)} clients left for "
                f"{len(sess.boundaries)} segments")
        x, labels = sess.data.shard_of(sess.clients[0]).batch(index, self.config.batch_size)
        self.model, state.loss = mlp.split_step(self.model, self.segments, x, labels,
                                                self.config.lr)
        yield from self._end(state, "iter")


def run_sl_heterogeneous(session: SlSession, topo: NetworkTopology,
                         radio_env: RadioEnv, eng: Engine) -> MetricsTrace:
    if session.variant != "heterogeneous":
        raise ScenarioSchemaError(f"expected heterogeneous session, got {session.variant!r}")
    return _SlHeteroRunner(session, topo, radio_env, eng).run()


# ====================================================================== #
#                           nested FedSplit                              #
# ====================================================================== #

class _FedSplitRunner(_FlRunner):
    """FL whose designated clients train as split-learning masters over their
    D2D slaves. The upstream server sees one delta per master; slaves never
    appear in its books, only in the physical energy ledger."""

    def __init__(self, session: FlSession, nested: dict[str, SlSession],
                 topo, radio_env, eng):
        super().__init__(session, topo, radio_env, eng, protocol_name="fedsplit_nested")
        for master, sub in nested.items():
            if sub.server != master:
                raise NestedServerMismatch(
                    f"nested session for {master!r} names server {sub.server!r}")
            group = topo.mastered_group(master)
            if group is None:
                raise NestedServerMismatch(f"{master!r} is not a D2D group master")
            stray = set(sub.clients) - set(group.slaves)
            if stray:
                raise NestedServerMismatch(
                    f"nested clients {sorted(stray)} are not slaves of {master!r}")
            # one runner per run: every nested leg is a compute or a D2D hop
            # (no uplink, block or fading draw), so its kept prices never change
            self.nested[master] = _SlHomoRunner(
                replace(sub, iterations=session.local_iterations), topo, radio_env, eng)

    def delta_sample_count(self, master: str) -> int:
        sub = self.nested[master].session
        return sum(sub.data.shard_of(s).size for s in sub.clients)


def run_fedsplit_nested(fl_session: FlSession, nested: dict[str, SlSession],
                        topo: NetworkTopology, radio_env: RadioEnv,
                        eng: Engine) -> MetricsTrace:
    return _FedSplitRunner(fl_session, nested, topo, radio_env, eng).run()
