"""Event-driven training protocols: FL, split learning, nested FedSplit.

Each runner drives real numpy training through the event loop, walking its
protocol's legs with cursors (`_Cursor`) that price each leg once a run:
every transmission and computation is scheduled, charged for energy and
debited against device batteries. An iteration's model update is committed
at its end, so a discarded iteration leaves no partial update behind; an FL
round stages one row per participant in its round arrays and folds the
arrived rows in arrival order.

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
_INF = float("inf")


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


@dataclass(slots=True)
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
    byte counters as they stood when it opened; `_RunnerBase._record` turns
    it into an IterationRecord. FL extends it with its round's state."""
    index: int
    start: float
    before: dict[str, dict[str, float]]
    bytes_up: int
    bytes_down: int
    dropouts: list[str] = field(default_factory=list)


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

    Nothing is kept but a NOMA cluster's rates, drawn once per cluster and
    payload round (see `_rates`); the runners keep each leg's price in its
    record (`_Leg`). A leg that cannot be priced raises.
    """

    def __init__(self, topo: NetworkTopology, radio_env: RadioEnv,
                 scheme: AccessScheme, cycles_per_mac: float, gain=None):
        self.topo = topo
        self.radio = radio_env
        self.scheme = scheme
        self.cycles_per_mac = cycles_per_mac
        self.gain = gain or (lambda ue_id, context: topo.ues[ue_id].channel_gain)
        self._noma = scheme.kind.noma
        self._slot: dict[str, int] = {}
        self._cluster_rates: dict[tuple, dict[str, float]] = {}

    def assign_slots(self, ues) -> None:
        """Pin each device to a stable uplink block slot (first come, first
        served), so block choice never depends on event timing."""
        for ue_id in ues:
            self.slot_of(ue_id)

    def slot_of(self, ue_id: str) -> int:
        return self._slot.setdefault(ue_id, len(self._slot))

    def compute(self, node: str, macs: float) -> tuple[float, float]:
        spec = self.topo.servers.get(node) or self.topo.ues[node]
        return costs.compute_cost(macs, self.cycles_per_mac, spec.compute_rate,
                                  spec.energy_per_cycle)

    def hop(self, leg: tuple, context: str = "") -> tuple:
        """(sender, receiver, latency, tx, rx, blocks, tag) of one transfer
        leg (see `route`): the sender pays `tx` and the receiver `rx`. A
        radio hop's other end is the device's access point, and only an
        uplink books blocks. `context` names an uplink's random streams."""
        kind, a, b = leg[0], leg[1], leg[2]
        if kind == "up":
            blocks, tag, latency, tx, rx = self.up(a, b, context)
            return (a, self.topo.ues[a].attached_ap, latency, tx, rx, blocks, tag)
        if kind == "down":
            return (self.topo.ues[a].attached_ap, a, *self.down(b), (), None)
        if kind == "backhaul":
            return (a, b, *self.backhaul(a, b, leg[3]), (), None)
        return (a, b, *self.d2d(a, b, leg[3]), (), None)

    def static(self, ue_id: str) -> bool:
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
# string those together with compute legs. The runners keep them in lists,
# which their cursors (`_Cursor`) walk and price in place, and the placement
# estimator walks the same tuples in closed form.

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
        topo, server = self.topo, self.server
        return (("compute", client, self.client_macs, "fwd"),
                *route(topo, client, server, self.smash_bits, "smashed+labels",
                       f":{client}:up"),
                ("compute", server, self.server_macs, "srv"),
                *route(topo, server, client, self.grad_bits, "smashed_grad"),
                ("compute", client, 2 * self.client_macs, "bwd"))


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


# each hop kind's event-detail prefix, and where its leg tuple names the payload
_HOP_DETAIL = {"up": ("ul:", 3), "down": ("dl:", 3), "backhaul": ("bh:", 4), "d2d": ("d2d:", 4)}


@dataclass(slots=True)
class _Leg:
    """A leg priced for the cursors: the event that ends it `latency` after
    it starts (a compute leg's detail still gets the cursor's `what`). Its
    `payer` (the compute node, or the sender) pays `joules` and its `payee`
    (a hop's receiver) `rx`; a device's battery must cover its share as the
    leg starts. `paid` holds the (node, category, joules) entries the leg
    pays as it ends, the same tuples every time it runs: a compute leg's
    charge, even at zero; a hop's `tx`, then its `rx`, each only above
    zero. An uplink books `blocks` under `tag`; `up` and `down` are
    the bytes a hop adds to the runner's counts."""
    kind: EventKind
    node: str
    detail: str
    latency: float
    paid: tuple
    payer: str
    joules: float
    payer_ue: bool
    payee: str | None = None
    rx: float = 0.0
    payee_ue: bool = False
    blocks: tuple = ()
    tag: str | None = None
    up: int = 0
    down: int = 0


class _Cursor:
    """Walks a runner's lists of legs, one leg at a time. A runner keeps each
    list for its whole run, and a leg tuple is priced into its record
    (`_Leg`), which takes its place, as a cursor first starts it; a fading
    uplink keeps its place and is priced at every start.

    `walk(legs, what, ctx)` starts a list: compute legs' event details get
    the suffix `what` and uplinks' random-stream contexts the prefix `ctx`,
    so both name the iteration or round. The bound `step` is the callback of
    every leg: inside the event that completes a leg it pays for the leg
    (charges, battery debits, byte counts), stops there if `guard()` answers
    true, and starts the next leg, or calls `ended()` when none is left. A
    device that cannot afford its share of a leg as it starts (or whose
    uplink is lost to an outage) refuses it: it drops out at the current
    clock, nothing is charged, and `refused()` runs in the DROPOUT event.
    By default `ended()` calls `then()`, and `refused()` calls `fail()` or,
    without `fail`, skips the leg. `runner` owns the prices, batteries,
    outage draws and byte counters the legs use."""

    __slots__ = ("runner", "then", "fail", "guard", "legs", "at", "what", "ctx", "paying")

    def __init__(self, runner, then=None, fail=None, guard=None):
        self.runner, self.then, self.fail, self.guard = runner, then, fail, guard
        self.legs, self.at, self.paying = (), 0, None

    def walk(self, legs, what: str = "", ctx: str = "") -> None:
        self.legs, self.at, self.what, self.ctx = legs, 0, what, ctx
        self.step()

    def step(self) -> None:
        leg = self.paying
        if leg is not None:  # the leg this event completes
            self.paying = None
            runner = self.runner
            pay = runner.eng.pay
            for entry in leg.paid:
                pay(entry)
            runner.bytes_up += leg.up
            runner.bytes_down += leg.down
        guard = self.guard
        if guard is not None and guard():
            return
        legs, at = self.legs, self.at
        if at < len(legs):
            self.at = at + 1
            leg = legs[at]
            if leg.__class__ is tuple:
                self._price(legs, at)
            else:
                self._start(leg)
        else:
            self.ended()

    def ended(self) -> None:
        self.then()

    def refused(self) -> None:
        (self.fail or self.step)()

    def _price(self, legs: list, at: int) -> None:
        """Price leg tuple `legs[at]` into its record, put in its place unless
        it is a fading uplink, and start it. An uplink may be lost to a
        channel outage, drawn before it is priced, which refuses it."""
        runner, leg = self.runner, legs[at]
        prices, ues, kind, node = runner.legs, runner.topo.ues, leg[0], leg[1]
        if kind == "compute":
            latency, joules = prices.compute(node, leg[2])
            legs[at] = record = _Leg(EventKind.COMPUTE_DONE, node, leg[3], latency,
                                     ((node, "compute", joules),), node, joules, node in ues)
            self._start(record)
            return
        context = ""
        if kind == "up":
            context = self.ctx + leg[4]
            if self._outage(node, context):
                return
        try:
            sender, receiver, latency, tx, rx, blocks, tag = prices.hop(leg, context)
        except ZeroRate:  # validation priced the mean gain; this fade carries no bits
            self._refuse(node, "channel outage")
            return
        prefix, payload = _HOP_DETAIL[kind]
        paid = ((sender, "tx", tx),) if tx > 0 else ()
        if rx > 0:
            paid += ((receiver, "rx", rx),)
        record = _Leg(EventKind.TX_DONE, node, prefix + leg[payload], latency, paid, sender,
                      tx, sender in ues, receiver, rx, receiver in ues, blocks, tag,
                      leg[2] // 8 if kind == "up" else 0, leg[2] // 8 if kind == "down" else 0)
        if kind != "up" or prices.static(node):
            legs[at] = record
        self._start(record)

    def _start(self, leg: _Leg) -> None:
        """Schedule one priced leg, or refuse it; an uplink waits for its
        blocks, every other leg starts at once."""
        if (leg.payer_ue and not self._payable(leg.payer, leg.joules)
                or leg.payee_ue and not self._payable(leg.payee, leg.rx)):
            return
        eng = self.runner.eng
        start = eng.clock
        if leg.blocks:
            start = eng.blocks.book(leg.payee, leg.blocks, start, leg.latency, leg.payer,
                                    leg.tag)
        self.paying = leg
        eng.schedule(start + leg.latency, leg.kind, self.step, leg.node,
                     leg.detail + self.what if leg.payee is None else leg.detail)

    def _refuse(self, node: str, reason: str) -> None:
        """`node` cannot run the leg: it drops at the current clock, then
        `refused()` runs (also when it had already dropped, so the refusal is
        never lost)."""
        eng = self.runner.eng
        if node in eng.dropped:
            eng.schedule(eng.clock, EventKind.DROPOUT, self.refused, node=node, detail=reason)
        else:
            eng.mark_dropped(node, reason, callback=self.refused)

    def _payable(self, node: str, joules: float) -> bool:
        """Whether device `node` can pay `joules` now; if not, it refuses the leg."""
        eng = self.runner.eng
        if node not in eng.dropped and eng.batteries.get(node, _INF) >= joules:
            return True
        self._refuse(node, "already dropped" if node in eng.dropped else "insufficient battery")
        return False

    def _outage(self, ue_id: str, context: str) -> bool:
        """Per-transmission channel outage draw, which refuses the leg; static
        channels never fail and consume no randomness."""
        runner = self.runner
        variance, slope = runner.topo.ues[ue_id].channel_variance, runner.session.dropout_slope
        if slope <= 0.0 or variance <= 0.0:
            return False
        draw = runner.eng.rng.stream(f"drop:{ue_id}:{context}").uniform()
        if draw >= min(1.0, slope * variance):
            return False
        self._refuse(ue_id, "channel outage")
        return True


class _RunnerBase:
    """What all protocol runners share. A runner keeps its legs (the
    evaluation leg too) in lists for the run, which its cursors walk and
    price in place (see `_Cursor`). It records one entry per round (or
    iteration) of `rounds`: `_begin(index)` starts round `index`, opening
    its `_Round` with `_open`, and `_end` records it and begins the next."""

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
        self._eval: list = []  # the evaluation leg, once one is due

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

    def _boundary(self, node: str, detail: str, done) -> None:
        """A zero-delay ROUND_BOUNDARY event; nothing refuses it."""
        self.eng.schedule_after(0.0, EventKind.ROUND_BOUNDARY, done, node=node,
                                detail=detail)

    def leg_compute(self, node: str, macs: float, what: str, done, fail=None) -> None:
        """One compute leg at `node`: `done()` once it has run; if `node`
        refuses it, `fail()`, or without `fail`, `done()` all the same."""
        _Cursor(self, done, fail).walk([("compute", node, macs, what)])

    def _gain(self, ue_id: str, context: str) -> float:
        """Channel gain of one uplink. The `gain:` stream is built only for a
        varying channel: a static one draws nothing from it."""
        ue = self.topo.ues[ue_id]
        rng = (self.eng.rng.stream(f"gain:{ue_id}:{context}")
               if ue.channel_variance != 0.0 else None)
        return draw_channel_gain(ue, rng)

    # ---- metrics plumbing ----

    def _open(self, round_type: type[_Round], index: int, **state) -> _Round:
        """A round of `round_type` whose books start now."""
        before = {node: dict(cats) for node, cats in self.eng.energy_ledger.items()}
        return round_type(index, self.eng.clock, before, self.bytes_up, self.bytes_down,
                          **state)

    def _spent(self, before: dict) -> dict[str, dict[str, float]]:
        """Each category's spend per node since the books `before`, in one walk."""
        spent = {"compute": {}, "tx": {}, "rx": {}}
        for node, cats in self.eng.energy_ledger.items():
            was = before.get(node, {})
            for category, out in spent.items():
                delta = cats.get(category, 0.0) - was.get(category, 0.0)
                if delta > 0:
                    out[node] = delta
        return spent

    def _end(self, state: _Round, what: str, loss: float) -> None:
        """Evaluate when due (as compute at the loss owner, run even if
        refused), then record the round with its `loss` and begin the next."""
        legs = eval_legs(self.session.server, self.model.widths,
                         self.session.data.test_x.shape[0], self.config.eval_every, state.index)
        if legs:
            legs = self._eval = self._eval or list(legs)
        _Cursor(self, partial(self._record, state, what, loss, bool(legs))).walk(legs)

    def _record(self, state: _Round, what: str, loss: float, evaluated: bool) -> None:
        """Record the round, with its held-out accuracy if evaluated; begin the next."""
        data = self.session.data
        accuracy = mlp.evaluate(self.model, data.test_x, data.test_labels)[1] if evaluated \
            else None
        spent = self._spent(state.before)
        self.trace.records.append(IterationRecord(
            index=state.index, wall_latency=self.eng.clock - state.start,
            compute_energy=spent["compute"], tx_energy=spent["tx"], rx_energy=spent["rx"],
            bytes_up=self.bytes_up - state.bytes_up,
            bytes_down=self.bytes_down - state.bytes_down,
            loss=loss, accuracy=accuracy, dropouts=state.dropouts))
        self._boundary(self.session.server, f"{what} {state.index} done",
                       partial(self._begin, state.index + 1))


# ====================================================================== #
#                              federated                                 #
# ====================================================================== #

@dataclass
class _FlRound(_Round):
    """The round arrays hold one row per participant, the trainers' first:
    each parameter's delta from the global model, losses and sample count."""
    pending: set[str] = field(default_factory=set)   # participants not back yet
    rows: dict[str, int] = field(default_factory=dict)  # each participant's row
    layers: list[np.ndarray] = field(default_factory=list)  # weight deltas, then bias deltas
    losses: np.ndarray | None = None  # pre-step losses, (rows, local_iterations)
    counts: list[int] = field(default_factory=list)  # sample counts
    arrivals: list[int] = field(default_factory=list)  # rows back, in arrival order
    closed: bool = False
    opening: str = ""  # the detail of each chain's round-start boundary


class _FlRunner(_RunnerBase):
    """Federated averaging. In each round every participant runs one chain
    (see `_FlChain`): download the global model, train locally, upload the
    delta. The round closes when every participant is back or has dropped,
    or at its deadline. A client with a runner in `nested` (a FedSplit
    master; none under FL) trains through that runner's split learning.

    Stragglers: once its round has closed, a chain stops at its next step
    and its delta never counts. A client whose chain is still running when
    a round begins joins that round when the chain stops, if the round is
    still open, and the next round otherwise. So no client trains two rounds
    at once, and every local step starts from the model of its round.
    """

    def __init__(self, session: FlSession, topo, radio_env, eng,
                 protocol_name: str = "fl"):
        super().__init__(protocol_name, session, topo, radio_env, eng,
                         session.global_rounds)
        self._current: _FlRound | None = None
        self.nested: dict[str, _SlHomoRunner] = {}
        self.plan = FlLegs(topo, session.server, self.model.widths,
                           session.config.batch_size, session.local_iterations)
        # each client's chain, the same every round: download, local training, upload
        self._chains = {c: (list(down), [local], list(up)) for c, (down, local, up)
                        in zip(session.clients, map(self.plan.chain, session.clients))}

    def _local_training(self, client: str, rnd: int) -> dict:
        """`client`'s row of the round now open (`rnd`), trained when the
        round opened: its delta (views of the row), pre-step losses and count."""
        state = self._current
        row, cut = state.rows[client], self.model.num_layers
        views, n = [a[row] for a in state.layers], state.counts[row]
        return {"delta": mlp.ParamDelta(self.model.widths, views[:cut], views[cut:], n),
                "losses": state.losses[row].tolist(), "n": n}

    def _train_clients(self, state: _FlRound, trainers: list[str]) -> None:
        """Local SGD from the global model for the round's `trainers`, which
        hold its first rows, _TRAIN_GROUP clients at a time, into their rows.
        A local step reads only the round's model and the client's own shard,
        so the round trains them all as it opens."""
        sess = self.session
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
            layers=[np.empty((n,) + a.shape) for a in self.model.weights + self.model.biases],
            losses=np.empty((n, sess.local_iterations)), counts=[0] * n,
            opening=f"round {rnd} start")
        self._train_clients(state, [c for c in order if c not in self.nested])
        for client in participants:
            if client not in running:
                _FlChain(self, client, state)
        if sess.round_deadline != float("inf"):
            self.eng.schedule(state.start + sess.round_deadline,
                              EventKind.ROUND_BOUNDARY,
                              lambda: self._sweep(state, deadline=True),
                              node=sess.server, detail=f"round {rnd} deadline")

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
            _FlChain(self, client, state)

    def _sweep(self, state: _FlRound, deadline=False) -> None:
        """A chain failed, or the round's deadline came: every pending
        participant that has dropped is out, and the round closes if it can.
        Those swept at once are listed by id, not in the set's hash order."""
        for c in sorted(c for c in state.pending if c in self.eng.dropped):
            state.pending.discard(c)
            state.dropouts.append(c)
        self._maybe_close(state, deadline)

    def _maybe_close(self, state: _FlRound, deadline=False) -> None:
        """Close the round once nobody is pending (or at its deadline), and
        aggregate the deltas that arrived."""
        if state.closed or (state.pending and not deadline):
            return
        state.closed = True
        if not state.arrivals:
            raise AllClientsDropped(f"round {state.index}: zero surviving uploads")
        _, node, macs, what = self.plan.aggregate(len(state.arrivals))
        self.leg_compute(node, macs, f"{what}:r{state.index}", partial(self._aggregate, state))

    def _aggregate(self, state: _FlRound) -> None:
        """Fold the arrived rows, in arrival order, into the global model."""
        rows = np.array(state.arrivals)
        counts = [state.counts[r] for r in state.arrivals]
        means = state.losses[rows].mean(axis=1)
        loss = sum(n * mean for n, mean in zip(counts, means.tolist())) / sum(counts)
        self.model = mlp.apply_delta(self.model, mlp.fed_avg_stacked(
            self.model.widths, [a[rows] for a in state.layers], counts))
        self._end(state, "round", loss)


class _FlChain(_Cursor):
    """`client`'s part of FL round `round`, one step after another: the
    round-start boundary, the download route, local training, the upload
    route, the arrival; `phase` is the next. `closed` is the guard, read as
    each step starts and at each refusal, never between a route's hops.

    A master trains by its nested runner's iterations, from the global model
    and iteration 0 each round, on this engine and clock; their records stay
    out of the FL trace, and they never evaluate. `closed` guards each one at
    every nested leg. A nested abort drops the master from the FL round."""

    __slots__ = ("client", "round", "phase", "losses")

    def __init__(self, runner: _FlRunner, client: str, state: _FlRound):
        super().__init__(runner)
        self.client, self.round, self.phase = client, state, _FlChain._download
        runner._boundary(client, state.opening, self.step)

    def closed(self) -> bool:
        """Once the round has closed, the chain stops and the client rejoins."""
        if self.round.closed:
            self.runner._rejoin(self.client)
        return self.round.closed

    def ended(self) -> None:
        if not self.closed():
            self.phase(self)

    def refused(self) -> None:
        if not self.closed():
            self.runner._sweep(self.round)

    def _download(self) -> None:
        self.phase = _FlChain._train
        self.walk(self.runner._chains[self.client][0])

    def _train(self) -> None:
        runner, state, client = self.runner, self.round, self.client
        inner = runner.nested.get(client)
        if inner is None:
            self.phase = _FlChain._upload
            self.walk(runner._chains[client][1], f":r{state.index}")
            return
        inner.model, inner.holder = mlp.clone(runner.model), None
        self.losses, self.phase = [], _FlChain._iterate
        runner._boundary(client, f"nested r{state.index} start", self.step)

    def _iterate(self) -> None:
        inner = self.runner.nested[self.client]
        index = len(self.losses)
        _SlIteration(inner, index, [], self._iterated, self._aborted, self.closed)

    def _iterated(self, loss: float) -> None:
        runner, state, client, losses = self.runner, self.round, self.client, self.losses
        losses.append(loss)
        inner = runner.nested[client]
        done = f"iter {len(losses) - 1} done"
        if len(losses) < inner.rounds:
            runner._boundary(client, done, self.step)
            return
        # not waited on: the upload starts in the event that ended the last nested leg
        runner._boundary(client, done, lambda: None)
        runner._fill(state, state.rows[client], inner.model.weights, inner.model.biases,
                     losses, runner.delta_sample_count(client))
        self._upload()

    def _aborted(self, exc: SessionAborted) -> None:
        self._refuse(self.client, f"nested split aborted: {exc.reason}")

    def _upload(self) -> None:
        self.phase = _FlChain._arrive
        tag = "fs" if self.client in self.runner.nested else "fl"
        self.walk(self.runner._chains[self.client][2], "", f"{tag}{self.round.index}")

    def _arrive(self) -> None:
        state = self.round
        state.arrivals.append(state.rows[self.client])
        state.pending.discard(self.client)
        self.runner._maybe_close(state)


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
        self._kept: dict = {}  # each client's body, and each handoff

    def kept(self, build, *args) -> list:
        """The legs `build(*args)`, kept by builder and arguments for the run."""
        key = (build.__name__, *args)
        if key not in self._kept:
            self._kept[key] = list(build(*args))
        return self._kept[key]

    def _begin(self, index: int) -> None:
        if index < self.rounds:
            state = self._open(_Round, index)
            _SlIteration(self, index, state.dropouts, partial(self._end, state, "iter"))

    def _next_after(self, client: str) -> str | None:
        order = self.session.clients
        pivot = order.index(client) if client in order else -1
        for step in range(1, len(order) + 1):
            candidate = order[(pivot + step) % len(order)]
            if candidate not in self.eng.dropped:
                return candidate
        return None


class _SlIteration(_Cursor):
    """Homogeneous split-learning iteration `index`, in two steps: the
    handoff of the client part to its client, then the body; `then(loss)`
    gets the loss of its split step. It picks its own client: the surviving
    client at `index` modulo their count. After a refused leg (once the
    guard, if set, lets it through) the staged work is discarded and the
    iteration retried once with the next surviving client. A second
    refusal, or no client left to run it, aborts it: `fail(exc)` gets the
    abort, or without `fail` it is raised."""

    __slots__ = ("client", "index", "dropouts", "retried", "handed")

    def __init__(self, runner, index, dropouts, then, fail=None, guard=None):
        super().__init__(runner, then, fail, guard)
        self.index, self.dropouts, self.retried = index, dropouts, False
        alive = [c for c in runner.session.clients if c not in runner.eng.dropped]
        self._attempt(alive[index % len(alive)] if alive else None)

    def _attempt(self, client: str | None) -> None:
        runner, index = self.runner, self.index
        if client is None:
            self._abort(AllClientsDropped(f"iteration {index}: no clients left"))
            return
        prev, self.client, self.handed = runner.holder, client, False
        self.walk(runner.kept(runner.plan.handoff, prev, client, prev in runner.eng.dropped),
                  f":i{index}", f"slh{index}")

    def _abort(self, exc: SessionAborted) -> None:
        if self.fail is None:
            raise exc
        self.fail(exc)

    def ended(self) -> None:
        runner = self.runner
        if not self.handed:
            self.handed = True
            runner.holder = self.client
            self.walk(runner.kept(runner.plan.body, self.client), self.what, self.ctx)
            return
        config = runner.config
        x, labels = runner.session.data.shard_of(self.client).batch(self.index, config.batch_size)
        runner.model, loss = mlp.split_step(runner.model, runner.segments, x, labels, config.lr)
        self.then(loss)

    def refused(self) -> None:
        if self.guard is not None and self.guard():
            return
        if self.retried:
            self._abort(SessionAborted("two consecutive client failures"))
            return
        runner, client = self.runner, self.client
        if client in runner.eng.dropped and client not in self.dropouts:
            self.dropouts.append(client)
        self.retried = True
        self._attempt(runner._next_after(client))


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
        self.labels, self.forward, self.back = map(list, sl_hetero_legs(
            topo, session.server, session.clients, self.model.widths, session.boundaries,
            session.config.batch_size, session.relay))
        # one segment per client, then the server's
        self.segments = mlp.contiguous_cuts(self.model.num_layers, session.boundaries)
        # the iteration in flight, and how many of its labels and forward cursors run
        self._state: _Round | None = None
        self._left = 0

    def _begin(self, index: int) -> None:
        if index < self.rounds:
            self._state, self._left = self._open(_Round, index), 2
            # labels go straight to the loss owner while the forward chain runs
            for legs in (self.labels, self.forward):
                _Cursor(self, self._joined, self._lost).walk(legs, f":i{index}", f"slx{index}")

    def _joined(self) -> None:
        self._left -= 1
        if not self._left:
            index = self._state.index
            _Cursor(self, self._trained, self._lost).walk(self.back, f":i{index}", f"slx{index}")

    def _lost(self) -> None:
        # every client owns exactly one segment, so no spare can take its place
        sess = self.session
        survivors = sum(c not in self.eng.dropped for c in sess.clients)
        raise SessionAborted(f"iteration {self._state.index}: {survivors} clients left for "
                             f"{len(sess.boundaries)} segments")

    def _trained(self) -> None:
        sess, state = self.session, self._state
        x, labels = sess.data.shard_of(sess.clients[0]).batch(state.index, self.config.batch_size)
        self.model, loss = mlp.split_step(self.model, self.segments, x, labels, self.config.lr)
        self._end(state, "iter", loss)


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
            # one runner per run, which keeps its priced legs for every round:
            # each is a compute or a D2D hop (no uplink, block or fading draw)
            self.nested[master] = _SlHomoRunner(
                replace(sub, iterations=session.local_iterations), topo, radio_env, eng)

    def delta_sample_count(self, master: str) -> int:
        sub = self.nested[master].session
        return sum(sub.data.shard_of(s).size for s in sub.clients)


def run_fedsplit_nested(fl_session: FlSession, nested: dict[str, SlSession],
                        topo: NetworkTopology, radio_env: RadioEnv,
                        eng: Engine) -> MetricsTrace:
    return _FedSplitRunner(fl_session, nested, topo, radio_env, eng).run()
