"""Event-driven training protocols: FL, split learning, nested FedSplit.

Each runner drives real numpy training through the event loop: every
transmission and computation is scheduled, charged for energy, and debited
against device batteries. Model updates for one global iteration are staged
and committed together at the iteration's end, so a discarded iteration
leaves no partial update behind.

Loss bookkeeping: the recorded loss of an iteration is the batch loss
*before* that iteration's step (training loss). Accuracy comes from a
held-out evaluation at the loss-owning node, charged as compute there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import costs, mlp
from .data import DataBundle
from .engine import Engine, EventKind
from .errors import (
    AllClientsDropped,
    MissingD2dLink,
    NestedServerMismatch,
    ScenarioSchemaError,
    SessionAborted,
    SessionStalled,
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
        num_layers = self.model.num_layers
        if self.variant == "homogeneous":
            if self.cut_index is None or not 1 <= self.cut_index <= num_layers - 1:
                raise ScenarioSchemaError(
                    f"cut_index must be in [1, {num_layers - 1}], got {self.cut_index!r}")
        elif self.variant == "heterogeneous":
            if len(self.boundaries) != len(self.clients):
                raise ScenarioSchemaError(
                    f"{len(self.clients)} clients need {len(self.clients)} segment "
                    f"boundaries, got {self.boundaries!r}")
            edges = (0, *self.boundaries)
            if any(a >= b for a, b in zip(edges, edges[1:])) \
                    or self.boundaries[-1] >= num_layers:
                raise ScenarioSchemaError(
                    f"boundaries must be strictly increasing in (0, {num_layers}), "
                    f"got {self.boundaries!r}")
        else:
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
    Transmission legs return (latency, sender joules, receiver joules); the
    orthogonal uplink also names the block it rides on.
    """

    def __init__(self, topo: NetworkTopology, radio_env: RadioEnv,
                 scheme: AccessScheme, cycles_per_mac: float):
        self.topo = topo
        self.radio = radio_env
        self.scheme = scheme
        self.cycles_per_mac = cycles_per_mac
        self._slot: dict[str, int] = {}

    def assign_slots(self, ues) -> None:
        """Pin each device to a stable uplink block slot (first come, first
        served), so block choice never depends on event timing."""
        for ue_id in ues:
            self.slot_of(ue_id)

    def slot_of(self, ue_id: str) -> int:
        return self._slot.setdefault(ue_id, len(self._slot))

    def compute(self, node: str, macs: float) -> tuple[float, float]:
        spec = self.topo.servers.get(node)
        if spec is None:
            spec = self.topo.ues[node]
        return costs.compute_cost(macs, self.cycles_per_mac, spec.compute_rate,
                                  spec.energy_per_cycle)

    def rx(self, bits: int) -> float:
        return self.radio.rx_energy_per_bit * bits

    def oma_up(self, ue_id: str, bits: int, gain: float):
        """(block, latency, tx, rx) of one orthogonal uplink at channel `gain`."""
        ue = self.topo.ues[ue_id]
        block = self.radio.block_for(ue.attached_ap, self.slot_of(ue_id))
        rate = self.radio.oma_uplink_rate(block, ue.tx_power, gain)
        latency, energy = tx_cost(bits, rate, ue.tx_power, self.scheme)
        return block, latency, energy, self.rx(bits)

    def noma_up(self, cluster: NomaCluster, ue_id: str, bits: int,
                rates: dict[str, float]) -> tuple[float, float, float]:
        latency, energy = tx_cost(bits, rates[ue_id], cluster.power_of(ue_id), self.scheme)
        return latency, energy, self.rx(bits)

    def down(self, bits: int) -> tuple[float, float, float]:
        """Access point -> device at the fixed downlink rate."""
        latency, energy = costs.pipe_cost(bits, self.radio.downlink_rate,
                                          self.radio.downlink_energy_per_bit)
        return latency, energy, self.rx(bits)

    def backhaul(self, src: str, dst: str, bits: int) -> tuple[float, float, float]:
        latency, energy = costs.link_cost(bits, self.topo.link_between(src, dst))
        return latency, energy, self.rx(bits)

    def d2d(self, src: str, dst: str, bits: int) -> tuple[float, float, float]:
        link = self.topo.d2d_link(src, dst)
        if link is None:
            raise MissingD2dLink(f"no D2D link between {src!r} and {dst!r}")
        latency, energy = costs.pipe_cost(bits, link.rate, link.energy_per_bit)
        return latency, energy, self.rx(bits)


class _RunnerBase:
    """Transmission/computation legs shared by all protocol runners.

    Every leg is scheduled on the engine and calls `done()` (or `fail()`)
    from inside the completion event, after charging energy and debiting
    batteries. Battery sufficiency is checked when a leg starts: a device
    that cannot afford a leg refuses it and drops out at the current clock,
    spending nothing.

    A runner records one entry per round (or iteration) of `rounds`; each
    protocol supplies `_begin(index)`, which opens that round's `_Round`
    with `_open` and starts it. `_end` records the round and begins the next.
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
        self.legs = LegCosts(topo, radio_env, session.scheme, session.config.cycles_per_mac)
        self.legs.assign_slots(session.clients)
        self.bytes_up = 0
        self.bytes_down = 0
        self._cluster_rate_cache: dict[tuple, dict[str, float]] = {}

    def run(self) -> MetricsTrace:
        self.eng.schedule(self.eng.clock, EventKind.ROUND_BOUNDARY, lambda: self._begin(0),
                          node=self.session.server, detail="session start")
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

    def _ap_of(self, ue_id: str) -> str:
        return self.topo.ues[ue_id].attached_ap

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
            self.eng.debit_battery(node, energy)
            done()
        self.eng.schedule_after(latency, EventKind.COMPUTE_DONE, finish,
                                node=node, detail=what)

    def _cluster_rates(self, cluster: NomaCluster, context: str) -> dict[str, float]:
        """Per-member NOMA rates; each member's gain is drawn once per cluster
        and payload round, and shared by the members' uplinks in it."""
        key = (cluster.member_ids(), context.split(":")[0])
        rates = self._cluster_rate_cache.get(key)
        if rates is None:
            gains = {m: self._gain(m, key[1]) for m in key[0]}
            rates = self._cluster_rate_cache[key] = self.radio.cluster_rates(cluster, gains)
        return rates

    def _gain(self, ue_id: str, context: str) -> float:
        """Channel gain of one uplink. The `gain:` stream is built only for a
        varying channel: a static one draws nothing from it."""
        ue = self.topo.ues[ue_id]
        rng = (self.eng.rng.stream(f"gain:{ue_id}:{context}")
               if ue.channel_variance != 0.0 else None)
        return draw_channel_gain(ue, rng)

    def leg_radio_up(self, ue_id: str, bits: int, payload: str, context: str,
                     done, fail) -> None:
        """One uplink transmission UE -> its access point."""
        if self._outage(ue_id, context, fail):
            return
        cluster = self.radio.cluster_of(ue_id)
        if cluster is not None and self.session.scheme.kind.noma:
            latency, tx, rx = self.legs.noma_up(cluster, ue_id, bits,
                                                self._cluster_rates(cluster, context))
            blocks, tag = cluster.blocks, "cluster:" + "+".join(cluster.member_ids())
        else:
            block, latency, tx, rx = self.legs.oma_up(ue_id, bits,
                                                      self._gain(ue_id, context))
            blocks, tag = (block,), None
        if not self._battery_ok(ue_id, tx, fail):
            return
        ap = self._ap_of(ue_id)
        start = self.eng.clock
        for block in blocks:
            start = max(start, self.eng.blocks.reserve(
                ap, block.index, self.eng.clock, latency, owner=ue_id, shared_tag=tag))
        def finish():
            self.eng.charge(ue_id, "tx", tx)
            self.eng.debit_battery(ue_id, tx)
            if rx > 0:
                self.eng.charge(ap, "rx", rx)
            self.bytes_up += bits // 8
            done()
        self.eng.schedule(start + latency, EventKind.TX_DONE, finish,
                          node=ue_id, detail=f"ul:{payload}")

    def leg_radio_down(self, ue_id: str, bits: int, payload: str, done, fail) -> None:
        """One downlink transmission: access point -> UE at the fixed rate."""
        ap = self._ap_of(ue_id)
        latency, tx, rx = self.legs.down(bits)
        if not self._battery_ok(ue_id, rx, fail):
            return
        def finish():
            if tx > 0:
                self.eng.charge(ap, "tx", tx)
            if rx > 0:
                self.eng.charge(ue_id, "rx", rx)
                self.eng.debit_battery(ue_id, rx)
            self.bytes_down += bits // 8
            done()
        self.eng.schedule_after(latency, EventKind.TX_DONE, finish,
                                node=ue_id, detail=f"dl:{payload}")

    def leg_backhaul(self, src: str, dst: str, bits: int, payload: str, done) -> None:
        """Server-to-server hop over a configured wired pipe."""
        latency, tx, rx = self.legs.backhaul(src, dst, bits)
        def finish():
            if tx > 0:
                self.eng.charge(src, "tx", tx)
            if rx > 0:
                self.eng.charge(dst, "rx", rx)
            done()
        self.eng.schedule_after(latency, EventKind.TX_DONE, finish,
                                node=src, detail=f"bh:{payload}")

    def leg_d2d(self, src: str, dst: str, bits: int, payload: str, done, fail) -> None:
        """Direct device-to-device hop; no access delay, no radio scheduler."""
        latency, tx, rx = self.legs.d2d(src, dst, bits)
        if not self._battery_ok(src, tx, fail):
            return
        if not self._battery_ok(dst, rx, fail):
            return
        def finish():
            if tx > 0:
                self.eng.charge(src, "tx", tx)
            self.eng.debit_battery(src, tx)
            if rx > 0:
                self.eng.charge(dst, "rx", rx)
                self.eng.debit_battery(dst, rx)
            done()
        self.eng.schedule_after(latency, EventKind.TX_DONE, finish,
                                node=src, detail=f"d2d:{payload}")

    def uplink_path(self, ue_id: str, server: str, bits: int, payload: str,
                    context: str, done, fail) -> None:
        """UE -> server: radio uplink plus a backhaul hop when the server is
        not the UE's own access point."""
        ap = self._ap_of(ue_id)
        arrived = done if server == ap else (
            lambda: self.leg_backhaul(ap, server, bits, payload, done))
        self.leg_radio_up(ue_id, bits, payload, context, arrived, fail)

    def downlink_path(self, server: str, ue_id: str, bits: int, payload: str,
                      done, fail) -> None:
        ap = self._ap_of(ue_id)
        if server == ap:
            self.leg_radio_down(ue_id, bits, payload, done, fail)
        else:
            self.leg_backhaul(server, ap, bits, payload,
                              lambda: self.leg_radio_down(ue_id, bits, payload, done, fail))

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

    def _end(self, state: _Round, accuracy: float | None, what: str) -> None:
        """Record the round, then begin the next one."""
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
        nxt = state.index + 1
        self.eng.schedule_after(0.0, EventKind.ROUND_BOUNDARY, lambda: self._begin(nxt),
                                node=self.session.server, detail=f"{what} {state.index} done")

    def maybe_eval(self, owner: str, model: mlp.MlpModel, data: DataBundle,
                   global_iter: int, done) -> None:
        """Held-out evaluation at the loss owner, charged as compute there."""
        every = self.config.eval_every
        if every <= 0 or (global_iter + 1) % every != 0:
            done(None)
            return
        macs = costs.forward_macs(model.widths, data.test_x.shape[0])
        def run_eval():
            _, acc = mlp.evaluate(model, data.test_x, data.test_labels)
            done(acc)
        self.leg_compute(owner, macs, "eval", run_eval)


# ====================================================================== #
#                              federated                                 #
# ====================================================================== #

@dataclass
class _FlRound(_Round):
    pending: set[str] = field(default_factory=set)   # participants not back yet
    trainers: list[str] = field(default_factory=list)
    staged: dict[str, dict] | None = None  # local training, done at the first download
    arrivals: list[tuple[str, dict]] = field(default_factory=list)
    closed: bool = False


class _FlRunner(_RunnerBase):
    """Federated averaging. In each round every participant runs one chain:
    download the global model, train through `_local_step`, upload the
    delta. The round closes when every participant is back or has dropped,
    or at its deadline.

    Stragglers: a chain looks at its round after the download, after the
    local step and after the upload, and stops there once the round has
    closed; its delta never counts. A client whose chain is still running
    when a round begins is not started with the others: it joins that round
    when the chain stops, if the round is still open, and the next round
    otherwise. So no client trains two rounds at once, and every local step
    starts from the model of the round it belongs to.
    """

    def __init__(self, session: FlSession, topo, radio_env, eng,
                 protocol_name: str = "fl"):
        super().__init__(protocol_name, session, topo, radio_env, eng,
                         session.global_rounds)
        self._round: _FlRound | None = None

    def _client_round(self, client: str, state: _FlRound) -> None:
        """One client's chain: download the model, train, upload the delta."""
        sess = self.session
        bits = self.model.payload_bits
        step = lambda then: self._step(client, state, then)

        def arrived(staged):
            state.arrivals.append((client, staged))
            state.pending.discard(client)
            self._maybe_close(state)

        def upload(staged, tag):
            self.uplink_path(client, sess.server, bits, "delta",
                             f"{tag}{state.index}:{client}:ul",
                             step(lambda: arrived(staged)), fail)

        fail = step(lambda: self._sweep(state))
        self.downlink_path(
            sess.server, client, bits, "model",
            step(lambda: self._local_step(client, state, step(upload), fail)), fail)

    def _step(self, client: str, state: _FlRound, then):
        """`then`, unless `state` closed while the last leg of `client`'s
        chain ran: then the chain stops and the client rejoins."""
        def go(*args):
            if state.closed:
                self._rejoin(client)
            else:
                then(*args)
        return go

    def _local_step(self, client: str, state: _FlRound, done, fail) -> None:
        """Train `client` locally, then `done(staged, tag)`: `staged` holds
        the delta, its pre-step losses and its sample count, and `tag`
        prefixes the upload's random-stream context."""
        staged = self._local_training(client, state.index)
        self.leg_compute(client, staged["macs"], f"local:r{state.index}",
                         lambda: done(staged, "fl"), fail)

    def _local_training(self, client: str, rnd: int) -> dict:
        """The actual numpy training `client` performs in round `rnd`, the
        round now open, from the global model it just downloaded. The
        round's first download trains all of the round's trainers at once."""
        state = self._round
        if state.staged is None:
            state.staged = self._train_clients(state.trainers, rnd)
        return state.staged.pop(client)

    def _train_clients(self, clients: list[str], rnd: int) -> dict[str, dict]:
        """Local SGD from the current global model for each client, stacked
        _TRAIN_GROUP clients at a time."""
        sess = self.session
        model = self.model
        macs = sess.local_iterations * costs.training_macs(
            model.widths, self.config.batch_size)
        out = {}
        for first in range(0, len(clients), _TRAIN_GROUP):
            group = clients[first:first + _TRAIN_GROUP]
            shards = [sess.data.shard_of(c) for c in group]
            steps = []
            for it in range(sess.local_iterations):
                batches = [shard.batch(rnd * sess.local_iterations + it,
                                       self.config.batch_size) for shard in shards]
                steps.append((np.stack([x for x, _ in batches]),
                              np.stack([labels for _, labels in batches])))
            weights, biases, losses = mlp.sgd_clients(model, steps, self.config.lr)
            dw = [w - w0 for w, w0 in zip(weights, model.weights)]
            db = [b - b0 for b, b0 in zip(biases, model.biases)]
            for k, (client, shard) in enumerate(zip(group, shards)):
                delta = mlp.ParamDelta(widths=model.widths, weights=[d[k] for d in dw],
                                       biases=[d[k] for d in db], sample_count=shard.size)
                out[client] = {"delta": delta, "losses": losses[k].tolist(),
                               "macs": macs, "n": shard.size}
        return out

    def _local_trainers(self, participants: list[str]) -> list[str]:
        """The participants whose round runs `_local_training`."""
        return participants

    def _begin(self, rnd: int) -> None:
        sess = self.session
        if rnd >= self.rounds:
            return
        participants = [c for c in sess.clients if c not in self.eng.dropped]
        if not participants:
            raise AllClientsDropped(f"round {rnd}: no clients left")
        # whoever the last round still waits for has a chain running
        running = self._round.pending if self._round is not None else set()
        state = self._round = self._open(_FlRound, rnd, pending=set(participants),
                                         trainers=self._local_trainers(participants))
        for client in participants:
            if client not in running:
                self._start(client, state)
        if sess.round_deadline != float("inf"):
            self.eng.schedule(state.start + sess.round_deadline,
                              EventKind.ROUND_BOUNDARY,
                              lambda: self._maybe_close(state, deadline=True),
                              node=sess.server, detail=f"round {rnd} deadline")

    def _start(self, client: str, state: _FlRound) -> None:
        self.eng.schedule(self.eng.clock, EventKind.ROUND_BOUNDARY,
                          lambda: self._client_round(client, state),
                          node=client, detail=f"round {state.index} start")

    def _rejoin(self, client: str) -> None:
        """`client`'s chain stopped after its round closed: it joins the
        round now open, or is free for the next `_begin`."""
        state = self._round
        if client not in state.pending:
            return
        if state.closed:
            state.pending.discard(client)
        elif client in self.eng.dropped:
            self._sweep(state)
        else:
            self._start(client, state)

    def _sweep(self, state: _FlRound) -> None:
        """A chain failed: every pending participant that has dropped is out."""
        for c in list(state.pending):
            if c in self.eng.dropped:
                state.pending.discard(c)
                state.dropouts.append(c)
        self._maybe_close(state)

    def _maybe_close(self, state: _FlRound, deadline=False) -> None:
        """Close the round once nobody is pending (or at its deadline) and
        aggregate the deltas that arrived."""
        if state.closed or (state.pending and not deadline):
            return
        state.closed = True
        if not state.arrivals:
            raise AllClientsDropped(f"round {state.index}: zero surviving uploads")
        sess = self.session
        deltas = [staged["delta"] for _, staged in state.arrivals]
        total_n = sum(staged["n"] for _, staged in state.arrivals)
        state.loss = sum(staged["n"] * float(np.mean(staged["losses"]))
                         for _, staged in state.arrivals) / total_n

        def after_agg():
            self.model = mlp.apply_delta(self.model, mlp.fed_avg(deltas))
            self.maybe_eval(sess.server, self.model, sess.data, state.index,
                            lambda acc: self._end(state, acc, "round"))

        self.leg_compute(sess.server,
                         costs.aggregation_macs(len(deltas), self.model.param_count),
                         f"aggregate:r{state.index}", after_agg)


def run_fl(session: FlSession, topo: NetworkTopology, radio_env: RadioEnv,
           eng: Engine) -> MetricsTrace:
    return _FlRunner(session, topo, radio_env, eng).run()


# ====================================================================== #
#                          homogeneous split                             #
# ====================================================================== #

@dataclass
class _SlHomoRound(_Round):
    client: str = ""
    labels: np.ndarray | None = None
    client_cache: object = None
    smashed: np.ndarray | None = None
    server_grads: mlp.ParamDelta | None = None


class _SlHomoRunner(_RunnerBase):
    """Sequential split learning: one active client per iteration; the
    client-side parameters hop to the next client between iterations,
    directly over D2D when a link exists, otherwise via the server."""

    def __init__(self, session: SlSession, topo, radio_env, eng,
                 protocol_name: str = "sl_homogeneous"):
        super().__init__(protocol_name, session, topo, radio_env, eng, session.iterations)
        self.cut = session.cut_index
        self.holder: str | None = None  # who physically has the client part
        self.consecutive_failures = 0
        self.client_part_bits = costs.model_bits(self.model.widths[:self.cut + 1])

    # transport between a client and the SL server: radio uplink/downlink
    def _up(self, ue, bits, payload, ctx, done, fail):
        self.uplink_path(ue, self.session.server, bits, payload, ctx, done, fail)

    def _down(self, ue, bits, payload, done, fail):
        self.downlink_path(self.session.server, ue, bits, payload, done, fail)

    def _client_for(self, iteration: int) -> str:
        alive = [c for c in self.session.clients if c not in self.eng.dropped]
        if not alive:
            raise AllClientsDropped(f"iteration {iteration}: no clients left")
        return alive[iteration % len(alive)]

    def _begin(self, iteration: int) -> None:
        if iteration >= self.rounds:
            return
        active = self._client_for(iteration)
        state = self._open(_SlHomoRound, iteration, client=active)
        fail = lambda: self._iteration_failed(state)
        self._deliver_client_part(active, state, fail)

    def _deliver_client_part(self, client: str, state, fail) -> None:
        bits = self.client_part_bits
        ctx = f"slh{state.index}"
        done = lambda: self._client_forward(client, state, fail)
        if self.holder is None or self.holder == client:
            # first iteration seeds the part from the server; repeats keep it
            if self.holder is None:
                self._down(client, bits, "client_part", done, fail)
            else:
                done()
            return
        prev = self.holder
        if prev in self.eng.dropped:
            # committed state is recovered from the server's copy
            self._down(client, bits, "client_part", done, fail)
        elif self.topo.d2d_link(prev, client) is not None:
            self.leg_d2d(prev, client, bits, "client_part", done, fail)
        else:
            self._up(prev, bits, "client_part", f"{ctx}:{prev}:handoff",
                     lambda: self._down(client, bits, "client_part", done, fail),
                     fail)

    def _client_forward(self, client: str, state, fail) -> None:
        self.holder = client
        sess = self.session
        shard = sess.data.shard_of(client)
        x, state.labels = shard.batch(state.index, self.config.batch_size)
        macs = costs.forward_macs(self.model.widths, x.shape[0], 0, self.cut)

        def after_compute():
            smashed, client_cache = mlp.split_forward(
                self.model, mlp.CutSpec(0, self.cut), x)
            state.client_cache = client_cache
            state.smashed = smashed
            bits = costs.activation_bits(x.shape[0], self.model.widths[self.cut]) \
                + costs.label_bits(x.shape[0])
            self._up(client, bits, "smashed+labels", f"slh{state.index}:{client}:up",
                     lambda: self._server_turn(client, state, fail), fail)

        self.leg_compute(client, macs, f"fwd:i{state.index}", after_compute, fail)

    def _server_turn(self, client: str, state, fail) -> None:
        sess = self.session
        widths = self.model.widths
        batch = state.labels.shape[0]
        macs = 3 * costs.forward_macs(widths, batch, self.cut, self.model.num_layers)

        def after_compute():
            _, server_cache = mlp.split_forward(
                self.model, mlp.CutSpec(self.cut, self.model.num_layers),
                state.smashed)
            state.loss = mlp.batch_loss(self.model, server_cache, state.labels)
            server_grads, smash_grad = mlp.split_backward_server(
                self.model, server_cache, state.labels)
            state.server_grads = server_grads
            bits = costs.activation_bits(batch, widths[self.cut])
            self._down(client, bits, "smashed_grad",
                       lambda: self._client_backward(client, state, smash_grad, fail),
                       fail)

        # the SL server can itself be a battery device (a master UE)
        self.leg_compute(sess.server, macs, f"srv:i{state.index}", after_compute, fail)

    def _client_backward(self, client: str, state, smash_grad, fail) -> None:
        macs = 2 * costs.forward_macs(self.model.widths, state.labels.shape[0], 0, self.cut)

        def after_compute():
            client_grads, _ = mlp.split_backward_client(
                self.model, state.client_cache, smash_grad)
            combined = mlp.add_deltas(state.server_grads, client_grads)
            self.model = mlp.sgd_step(self.model, combined, self.config.lr)
            self.consecutive_failures = 0
            self.maybe_eval(self.session.server, self.model, self.session.data,
                            state.index, lambda acc: self._end(state, acc, "iter"))

        self.leg_compute(client, macs, f"bwd:i{state.index}", after_compute, fail)

    def _next_after(self, client: str) -> str | None:
        order = self.session.clients
        pivot = order.index(client) if client in order else -1
        for step in range(1, len(order) + 1):
            candidate = order[(pivot + step) % len(order)]
            if candidate not in self.eng.dropped:
                return candidate
        return None

    def _iteration_failed(self, state) -> None:
        """The iteration lost a participant mid-flight: discard all staged
        work and retry once with the next surviving client in sequence; a
        second consecutive failure aborts the session."""
        self.consecutive_failures += 1
        if self.consecutive_failures >= 2:
            raise SessionAborted("two consecutive client failures")
        retry_client = self._next_after(state.client)
        if retry_client is None:
            raise AllClientsDropped(f"iteration {state.index}: no clients left")
        drops = list(state.dropouts)
        if state.client in self.eng.dropped and state.client not in drops:
            drops.append(state.client)
        retry_state = replace(state, client=retry_client, dropouts=drops)
        fail = lambda: self._iteration_failed(retry_state)
        self._deliver_client_part(retry_client, retry_state, fail)


def run_sl_homogeneous(session: SlSession, topo: NetworkTopology,
                       radio_env: RadioEnv, eng: Engine) -> MetricsTrace:
    if session.variant != "homogeneous":
        raise ScenarioSchemaError(f"expected homogeneous session, got {session.variant!r}")
    return _SlHomoRunner(session, topo, radio_env, eng).run()


# ====================================================================== #
#                         heterogeneous split                            #
# ====================================================================== #

@dataclass
class _SlHeteroRound(_Round):
    labels: np.ndarray | None = None
    staged: list[mlp.ParamDelta] = field(default_factory=list)  # combined at commit
    caches: dict[int, object] = field(default_factory=dict)     # segment -> ForwardCache
    labels_done: bool = False
    chain_out: np.ndarray | None = None  # smashed activations at the server's door


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
        if session.relay == "d2d":
            for a, b in zip(session.clients, session.clients[1:]):
                if topo.d2d_link(a, b) is None:
                    raise MissingD2dLink(f"relay=d2d needs a D2D link {a!r} <-> {b!r}")
        # one segment per client, then the server's
        self.segments = mlp.contiguous_cuts(self.model.num_layers, session.boundaries)

    def _handoff(self, src: str, dst: str, bits: int, payload: str, ctx: str,
                 done, fail) -> None:
        if self.session.relay == "d2d":
            self.leg_d2d(src, dst, bits, payload, done, fail)
        else:
            self.uplink_path(src, self.session.server, bits, payload, f"{ctx}:{src}",
                             lambda: self.downlink_path(self.session.server, dst, bits,
                                                        payload, done, fail),
                             fail)

    def _begin(self, iteration: int) -> None:
        sess = self.session
        if iteration >= self.rounds:
            return
        entry = sess.clients[0]
        x, labels = sess.data.shard_of(entry).batch(iteration, self.config.batch_size)
        state = self._open(_SlHeteroRound, iteration, labels=labels)
        fail = lambda: self._iteration_failed(state)

        # labels go straight to the loss owner while the chain runs
        def labels_arrived():
            state.labels_done = True
            self._maybe_server_turn(state, fail)
        self.uplink_path(entry, sess.server, costs.label_bits(x.shape[0]), "labels",
                         f"slx{iteration}:{entry}:labels", labels_arrived, fail)

        self._forward_segment(0, x, state, fail)

    def _forward_segment(self, k: int, activations, state, fail) -> None:
        client = self.session.clients[k]
        seg = self.segments[k]
        batch = activations.shape[0]
        macs = costs.forward_macs(self.model.widths, batch, seg.start, seg.end)

        def after_compute():
            out, cache = mlp.split_forward(self.model, seg, activations)
            state.caches[k] = cache
            bits = costs.activation_bits(batch, self.model.widths[seg.end])
            ctx = f"slx{state.index}"
            if k + 1 < len(self.session.clients):
                nxt = self.session.clients[k + 1]
                self._handoff(client, nxt, bits, "smashed", ctx,
                              lambda: self._forward_segment(k + 1, out, state, fail),
                              fail)
            else:
                # last client segment feeds the server's segment
                self.uplink_path(client, self.session.server, bits, "smashed",
                                 f"{ctx}:{client}:up",
                                 lambda: self._chain_arrived(out, state, fail), fail)

        self.leg_compute(client, macs, f"fwd{k}:i{state.index}", after_compute, fail)

    def _chain_arrived(self, out, state, fail) -> None:
        state.chain_out = out
        self._maybe_server_turn(state, fail)

    def _maybe_server_turn(self, state, fail) -> None:
        if not state.labels_done or state.chain_out is None:
            return
        sess = self.session
        seg = self.segments[-1]
        batch = state.labels.shape[0]
        macs = 3 * costs.forward_macs(self.model.widths, batch, seg.start, seg.end)

        def after_compute():
            _, server_cache = mlp.split_forward(self.model, seg, state.chain_out)
            state.loss = mlp.batch_loss(self.model, server_cache, state.labels)
            server_grads, smash_grad = mlp.split_backward_server(
                self.model, server_cache, state.labels)
            state.staged.append(server_grads)
            last = sess.clients[-1]
            bits = costs.activation_bits(batch, self.model.widths[seg.start])
            self.downlink_path(sess.server, last, bits, "smashed_grad",
                               lambda: self._backward_segment(len(sess.clients) - 1,
                                                             smash_grad, state, fail),
                               fail)

        self.leg_compute(sess.server, macs, f"srv:i{state.index}", after_compute, fail)

    def _backward_segment(self, k: int, upstream, state, fail) -> None:
        client = self.session.clients[k]
        seg = self.segments[k]
        batch = state.labels.shape[0]
        macs = 2 * costs.forward_macs(self.model.widths, batch, seg.start, seg.end)

        def after_compute():
            grads, downstream = mlp.split_backward_client(
                self.model, state.caches[k], upstream)
            state.staged.append(grads)
            if k == 0:
                self._commit(state)
                return
            bits = costs.activation_bits(batch, self.model.widths[seg.start])
            prev = self.session.clients[k - 1]
            self._handoff(client, prev, bits, "smashed_grad", f"slx{state.index}:bwd",
                          lambda: self._backward_segment(k - 1, downstream, state, fail),
                          fail)

        self.leg_compute(client, macs, f"bwd{k}:i{state.index}", after_compute, fail)

    def _commit(self, state) -> None:
        combined = state.staged[0]
        for extra in state.staged[1:]:
            combined = mlp.add_deltas(combined, extra)
        self.model = mlp.sgd_step(self.model, combined, self.config.lr)
        self.maybe_eval(self.session.server, self.model, self.session.data,
                        state.index, lambda acc: self._end(state, acc, "iter"))

    def _iteration_failed(self, state) -> None:
        """A segment owner died. Every client owns exactly one segment, so no
        spare can take its place: the session aborts."""
        survivors = [c for c in self.session.clients if c not in self.eng.dropped]
        raise SessionAborted(
            f"iteration {state.index}: {len(survivors)} clients left for "
            f"{len(self.session.boundaries)} segments")


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
        self.nested = nested
        for master, sub in nested.items():
            if sub.server != master:
                raise NestedServerMismatch(
                    f"nested session for {master!r} names server {sub.server!r}")
            group = topo.group_containing(master)
            if group is None or group.master != master:
                raise NestedServerMismatch(f"{master!r} is not a D2D group master")
            stray = set(sub.clients) - set(group.slaves)
            if stray:
                raise NestedServerMismatch(
                    f"nested clients {sorted(stray)} are not slaves of {master!r}")

    def _local_trainers(self, participants: list[str]) -> list[str]:
        return [c for c in participants if c not in self.nested]

    def delta_sample_count(self, master: str) -> int:
        sub = self.nested[master]
        return sum(sub.data.shard_of(s).size for s in sub.clients)

    def _local_step(self, client: str, state: _FlRound, done, fail) -> None:
        """A master's local step runs its local iterations as homogeneous SL
        over its slaves, sharing this engine and clock. Accuracy is evaluated
        at the FL level, so the nested run never evaluates on its own. Like
        any chain step, the nested run stops at its next leg boundary once
        the FL round has closed."""
        if client not in self.nested:
            super()._local_step(client, state, done, fail)
            return
        template = self.nested[client]
        sub = replace(template, clients=list(template.clients), variant="homogeneous",
                      iterations=self.session.local_iterations,
                      model=mlp.clone(self.model),
                      config=replace(template.config, eval_every=0),
                      boundaries=(), relay="via_server")

        def trained(local_model, losses):
            n = self.delta_sample_count(client)
            done({"delta": mlp.model_delta(local_model, self.model, sample_count=n),
                  "losses": losses, "n": n}, "fs")

        inner = _NestedSlRunner(sub, self.topo, self.radio, self.eng, trained, fail,
                                lambda then: self._step(client, state, then))
        self.eng.schedule(self.eng.clock, EventKind.ROUND_BOUNDARY, lambda: inner._begin(0),
                          node=client, detail=f"nested r{state.index} start")


class _NestedSlRunner(_SlHomoRunner):
    """A FedSplit master's local iterations: homogeneous SL over its slaves,
    every hop a D2D hop to or from the master. It keeps its records to
    itself (the master's work reports through the FL trace) and hands the
    trained model and its losses to `done` after the last iteration; an
    abort takes the master itself out of the FL session through `fail`.

    Every leg ends, and every iteration begins, through `step`, the master's
    FL chain check: once the master's FL round has closed, the run stops
    there and the master rejoins FL, so at most the leg in flight when the
    round closed still completes."""

    def __init__(self, session: SlSession, topo, radio_env, eng, done, fail, step):
        super().__init__(session, topo, radio_env, eng, protocol_name="fedsplit_nested")
        self.done = done
        self.fail = fail
        self.step = step

    def leg_compute(self, node, macs, what, done, fail=None):
        super().leg_compute(node, macs, what, self.step(done), fail and self.step(fail))

    def leg_d2d(self, src, dst, bits, payload, done, fail):
        super().leg_d2d(src, dst, bits, payload, self.step(done), self.step(fail))

    def _begin(self, iteration: int) -> None:
        if iteration < self.rounds:
            self.step(super()._begin)(iteration)

    def _up(self, ue, bits, payload, ctx, done, fail):
        self.leg_d2d(ue, self.session.server, bits, payload, done, fail)

    def _down(self, ue, bits, payload, done, fail):
        self.leg_d2d(self.session.server, ue, bits, payload, done, fail)

    def _end(self, state, accuracy, what) -> None:
        super()._end(state, accuracy, what)
        if state.index + 1 == self.rounds:
            self.done(self.model, [r.loss for r in self.trace.records])

    def _iteration_failed(self, state) -> None:
        try:
            super()._iteration_failed(state)
        except SessionAborted as exc:
            self._refuse(self.session.server, f"nested split aborted: {exc.reason}",
                         self.fail)


def run_fedsplit_nested(fl_session: FlSession, nested: dict[str, SlSession],
                        topo: NetworkTopology, radio_env: RadioEnv,
                        eng: Engine) -> MetricsTrace:
    return _FedSplitRunner(fl_session, nested, topo, radio_env, eng).run()
