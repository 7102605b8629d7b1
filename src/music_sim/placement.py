"""Client-pool selection and task-placement decisions.

Placement answers two questions before anything runs: which devices are fit
to participate (threshold filters plus a deterministic ranking), and where
a training task should execute (single server, one tier further down across
children, or a device-layer protocol at an access point). Candidates are
compared by a closed-form cost estimate that walks each protocol's leg
sequence and prices every leg through the runners' own leg-cost model
(`protocols.LegCosts`), under no-dropout, mean-gain assumptions; the
cheapest feasible plan wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import costs
from .engine import BlockLedger
from .errors import EmptyPool, NoFeasiblePlan, ScenarioSchemaError
from .protocols import LegCosts
from .radio import AccessScheme, RadioEnv
from .topology import NetworkTopology, Tier, UeProfile, validate_layer_span

ROLES = ("server", "client", "relay", "master", "slave")

SL_PROTOCOLS = ("sl_homogeneous", "sl_heterogeneous")
UE_PROTOCOLS = ("fl", "sl_homogeneous", "sl_heterogeneous", "fedsplit_nested")


@dataclass(frozen=True)
class SelectionPolicy:
    min_battery: float = 0.0
    min_compute_rate: float = 0.0
    min_channel_gain: float = 0.0
    max_channel_variance: float = math.inf  # split-learning filter
    require_immobile: bool = False          # split-learning filter
    pool_size: int = 16

    def __post_init__(self):
        if min(self.min_battery, self.min_compute_rate, self.min_channel_gain) < 0:
            raise ScenarioSchemaError("selection thresholds must be >= 0")
        if self.max_channel_variance < 0:
            raise ScenarioSchemaError("max_channel_variance must be >= 0")
        if self.pool_size < 1:
            raise ScenarioSchemaError("pool_size must be >= 1")


@dataclass(frozen=True)
class TrainingTask:
    protocol: str  # "centralized" | "fl" | "sl_homogeneous" | "sl_heterogeneous" | "fedsplit_nested"
    widths: tuple[int, ...]
    rounds: int
    local_iterations: int
    batch_size: int
    latency_deadline: float = math.inf
    cycles_per_mac: float = 1.0
    eval_every: int = 0
    test_size: int = 0
    cut_index: int | None = None
    boundaries: tuple[int, ...] = ()

    @property
    def total_iterations(self) -> int:
        return self.rounds * self.local_iterations


@dataclass
class TrainingPlan:
    task: TrainingTask
    roles: dict[str, str]  # node id -> role
    ma_scheme: AccessScheme
    relay: str = "via_server"

    def __post_init__(self):
        bad = {r for r in self.roles.values()} - set(ROLES)
        if bad:
            raise ScenarioSchemaError(f"unknown roles {sorted(bad)}")

    def server(self) -> str:
        for node, role in self.roles.items():
            if role == "server":
                return node
        raise ScenarioSchemaError("plan has no server role")

    def nodes_with(self, role: str) -> list[str]:
        return [n for n, r in self.roles.items() if r == role]

    def tiers_touched(self, topo: NetworkTopology) -> frozenset[Tier]:
        tiers = [topo.tier_of(n) for n in self.roles]
        return frozenset(Tier(t) for t in range(min(tiers), max(tiers) + 1))

    def node_count(self) -> int:
        return len(self.roles)

    def to_doc(self, topo: NetworkTopology, estimate: "CostEstimate | None" = None) -> dict:
        doc = {
            "protocol": self.task.protocol,
            "roles": dict(sorted(self.roles.items())),
            "scheme": self.ma_scheme.kind.value,
            "relay": self.relay,
            "tiers_touched": sorted(t.label for t in self.tiers_touched(topo)),
        }
        if estimate is not None:
            doc["estimate"] = {
                "total_energy_J": estimate.total_energy,
                "wall_latency_s": estimate.wall_latency,
            }
        return doc


@dataclass
class CostEstimate:
    total_energy: float
    wall_latency: float
    breakdown: dict[str, dict[str, float]] = field(default_factory=dict)


# ---------------------------------------------------------------- #
#                         pool selection                           #
# ---------------------------------------------------------------- #

def select_ue_pool(candidates: list[UeProfile], policy: SelectionPolicy,
                   for_sl: bool) -> list[str]:
    """Filter devices by fitness thresholds and rank the survivors.

    The split-learning filters (channel steadiness or immobility) apply only
    when `for_sl` is set. Ranking: faster compute first, then bigger battery,
    then node id — fully deterministic.
    """
    survivors = []
    for ue in candidates:
        if ue.battery < policy.min_battery:
            continue
        if ue.compute_rate < policy.min_compute_rate:
            continue
        if ue.channel_gain < policy.min_channel_gain:
            continue
        if for_sl:
            steady = ue.channel_variance <= policy.max_channel_variance or not ue.mobile
            if not steady:
                continue
            if policy.require_immobile and ue.mobile:
                continue
        survivors.append(ue)
    if not survivors:
        raise EmptyPool("no device passed the selection thresholds")
    survivors.sort(key=lambda u: (-u.compute_rate, -u.battery, u.id))
    return [u.id for u in survivors[:policy.pool_size]]


# ---------------------------------------------------------------- #
#                         cost estimation                          #
# ---------------------------------------------------------------- #

class _Estimator:
    """Closed-form walk along the runners' leg sequences.

    Every leg is priced by the runners' own `LegCosts`; the estimator only
    carries ready times along the schedule and sums energy per node and
    phase. Uplinks book their blocks on a `BlockLedger`, as the runners do,
    so callers must request them in the order the engine would: by ready
    time, ties in client order. `clients` is the session's client order,
    which fixes each device's block slot.
    """

    def __init__(self, plan: TrainingPlan, topo: NetworkTopology, radio: RadioEnv,
                 clients: list[str]):
        self.task = plan.task
        self.topo = topo
        self.legs = LegCosts(topo, radio, plan.ma_scheme, plan.task.cycles_per_mac)
        self.legs.assign_slots(clients)
        self.blocks = BlockLedger()
        self.energy: dict[str, dict[str, float]] = {}

    def add(self, node: str, phase: str, joules: float) -> None:
        if joules > 0:
            bucket = self.energy.setdefault(node, {})
            bucket[phase] = bucket.get(phase, 0.0) + joules

    def compute(self, node: str, macs: float) -> float:
        latency, energy = self.legs.compute(node, macs)
        self.add(node, "compute", energy)
        return latency

    def radio_up(self, ue_id: str, bits: int, ready: float) -> float:
        """Uplink at mean gain; returns the completion time, after any wait
        for its blocks. Every uplink shares one context, so each NOMA
        cluster's rates are computed once per estimate."""
        blocks, tag, latency, tx, rx = self.legs.up(ue_id, bits, "")
        ap = self.topo.ues[ue_id].attached_ap
        start = self.blocks.book(ap, blocks, ready, latency, ue_id, tag)
        self.add(ue_id, "tx", tx)
        self.add(ap, "rx", rx)
        return start + latency

    def radio_down(self, ue_id: str, bits: int, ready: float) -> float:
        latency, tx, rx = self.legs.down(bits)
        self.add(self.topo.ues[ue_id].attached_ap, "tx", tx)
        self.add(ue_id, "rx", rx)
        return ready + latency

    def backhaul(self, src: str, dst: str, bits: int, ready: float) -> float:
        latency, tx, rx = self.legs.backhaul(src, dst, bits)
        self.add(src, "tx", tx)
        self.add(dst, "rx", rx)
        return ready + latency

    def d2d(self, src: str, dst: str, bits: int, ready: float) -> float:
        latency, tx, rx = self.legs.d2d(src, dst, bits)
        self.add(src, "tx", tx)
        self.add(dst, "rx", rx)
        return ready + latency

    def up_path(self, ue_id: str, server: str, bits: int, ready: float) -> float:
        ap = self.topo.ues[ue_id].attached_ap
        t = self.radio_up(ue_id, bits, ready)
        if server != ap:
            t = self.backhaul(ap, server, bits, t)
        return t

    def down_path(self, server: str, ue_id: str, bits: int, ready: float) -> float:
        ap = self.topo.ues[ue_id].attached_ap
        t = ready
        if server != ap:
            t = self.backhaul(server, ap, bits, t)
        return self.radio_down(ue_id, bits, t)

    def eval_latency(self, owner: str, global_iter: int) -> float:
        if self.task.eval_every <= 0 or (global_iter + 1) % self.task.eval_every != 0:
            return 0.0
        return self.compute(owner, costs.forward_macs(self.task.widths, self.task.test_size))

    def finish(self, wall_latency: float) -> CostEstimate:
        total = sum(sum(b.values()) for b in self.energy.values())
        return CostEstimate(total_energy=total, wall_latency=wall_latency,
                            breakdown=self.energy)


def _estimate_centralized(plan, topo, radio, clients: list[str]) -> CostEstimate:
    est = _Estimator(plan, topo, radio, clients)
    task = plan.task
    server = plan.server()
    t = 0.0
    per_iter = costs.training_macs(task.widths, task.batch_size)
    for i in range(task.total_iterations):
        t += est.compute(server, per_iter)
        t += est.eval_latency(server, i)
    return est.finish(t)


def _fl_rounds(est: _Estimator, server: str, clients: list[str], local) -> CostEstimate:
    """FL rounds: each client downloads the model, trains through
    `local(client, ready) -> done`, and uploads its delta; the round closes
    at the slowest upload plus aggregation. Uploads are made in the order
    the engine dispatches them: by ready time, ties in client order."""
    task = est.task
    model_bits = costs.model_bits(task.widths)
    agg_macs = costs.aggregation_macs(len(clients), costs.param_count_of(task.widths))
    t = 0.0
    for rnd in range(task.rounds):
        ready = [local(c, est.down_path(server, c, model_bits, t) if c in est.topo.ues
                       else est.backhaul(server, c, model_bits, t))
                 for c in clients]
        slowest = t
        for i in sorted(range(len(clients)), key=ready.__getitem__):
            c = clients[i]
            up = est.up_path if c in est.topo.ues else est.backhaul
            slowest = max(slowest, up(c, server, model_bits, ready[i]))
        t = slowest + est.compute(server, agg_macs)
        t += est.eval_latency(server, rnd)
    return est.finish(t)


def _estimate_fl(plan, topo, radio, clients: list[str]) -> CostEstimate:
    est = _Estimator(plan, topo, radio, clients)
    task = plan.task
    local_macs = task.local_iterations * costs.training_macs(task.widths, task.batch_size)
    return _fl_rounds(est, plan.server(), clients,
                      lambda c, ready: ready + est.compute(c, local_macs))


def _sl_homo_iterations(est: _Estimator, server: str, clients: list[str],
                        iterations: int, t: float, up, down, evaluate: bool) -> float:
    """Homogeneous SL iterations from ready time `t`; `up(ue, server, bits,
    ready)` and `down(server, ue, bits, ready)` carry traffic between a
    client and the server. Returns the time the last iteration ends."""
    task = est.task
    widths = task.widths
    cut = task.cut_index
    batch = task.batch_size
    part_bits = costs.model_bits(widths[:cut + 1])
    client_fwd = costs.forward_macs(widths, batch, 0, cut)
    server_macs = 3 * costs.forward_macs(widths, batch, cut, len(widths) - 1)
    smash_bits = costs.activation_bits(batch, widths[cut]) + costs.label_bits(batch)
    grad_bits = costs.activation_bits(batch, widths[cut])
    holder = None
    for i in range(iterations):
        active = clients[i % len(clients)]
        if holder is None:
            t = down(server, active, part_bits, t)
        elif holder != active:
            if est.topo.d2d_link(holder, active) is not None:
                t = est.d2d(holder, active, part_bits, t)
            else:
                t = up(holder, server, part_bits, t)
                t = down(server, active, part_bits, t)
        holder = active
        t += est.compute(active, client_fwd)
        t = up(active, server, smash_bits, t)
        t += est.compute(server, server_macs)
        t = down(server, active, grad_bits, t)
        t += est.compute(active, 2 * client_fwd)
        if evaluate:
            t += est.eval_latency(server, i)
    return t


def _estimate_sl_homogeneous(plan, topo, radio, clients: list[str]) -> CostEstimate:
    est = _Estimator(plan, topo, radio, clients)
    t = _sl_homo_iterations(est, plan.server(), clients, plan.task.total_iterations, 0.0,
                            est.up_path, est.down_path, evaluate=True)
    return est.finish(t)


def _estimate_sl_heterogeneous(plan, topo, radio, clients: list[str]) -> CostEstimate:
    est = _Estimator(plan, topo, radio, clients)
    task = plan.task
    server = plan.server()
    widths = task.widths
    num_layers = len(widths) - 1
    edges = (0, *task.boundaries)
    segments = list(zip(edges, edges[1:]))
    batch = task.batch_size
    label_bits = costs.label_bits(batch)
    use_d2d = plan.relay == "d2d"
    t = 0.0
    for i in range(task.total_iterations):
        labels_done = est.up_path(clients[0], server, label_bits, t)
        chain = t
        for k, (a, b) in enumerate(segments):
            chain += est.compute(clients[k], costs.forward_macs(widths, batch, a, b))
            bits = costs.activation_bits(batch, widths[b])
            if k + 1 < len(clients):
                if use_d2d:
                    chain = est.d2d(clients[k], clients[k + 1], bits, chain)
                else:
                    chain = est.up_path(clients[k], server, bits, chain)
                    chain = est.down_path(server, clients[k + 1], bits, chain)
            else:
                chain = est.up_path(clients[k], server, bits, chain)
        t = max(labels_done, chain)
        t += est.compute(server, 3 * costs.forward_macs(widths, batch,
                                                        task.boundaries[-1], num_layers))
        grad_bits = costs.activation_bits(batch, widths[task.boundaries[-1]])
        t = est.down_path(server, clients[-1], grad_bits, t)
        for k in range(len(segments) - 1, -1, -1):
            a, b = segments[k]
            t += est.compute(clients[k], 2 * costs.forward_macs(widths, batch, a, b))
            if k > 0:
                bits = costs.activation_bits(batch, widths[a])
                if use_d2d:
                    t = est.d2d(clients[k], clients[k - 1], bits, t)
                else:
                    t = est.up_path(clients[k], server, bits, t)
                    t = est.down_path(server, clients[k - 1], bits, t)
        t += est.eval_latency(server, i)
    return est.finish(t)


def _estimate_fedsplit(plan, topo, radio, clients: list[str]) -> CostEstimate:
    """FL over masters and plain clients; a master's local training is the
    homogeneous SL sequence over its slaves, every hop a D2D hop."""
    est = _Estimator(plan, topo, radio, clients)
    task = plan.task
    local_macs = task.local_iterations * costs.training_macs(task.widths, task.batch_size)

    def local(c, ready):
        if plan.roles[c] != "master":
            return ready + est.compute(c, local_macs)
        slaves = [s for s in topo.group_containing(c).slaves if s in plan.roles]
        return _sl_homo_iterations(est, c, slaves, task.local_iterations, ready,
                                   est.d2d, est.d2d, evaluate=False)

    return _fl_rounds(est, plan.server(), clients, local)


_ESTIMATORS = {
    "centralized": _estimate_centralized,
    "fl": _estimate_fl,
    "sl_homogeneous": _estimate_sl_homogeneous,
    "sl_heterogeneous": _estimate_sl_heterogeneous,
    "fedsplit_nested": _estimate_fedsplit,
}


def estimate_cost(plan: TrainingPlan, topo: NetworkTopology, radio: RadioEnv,
                  client_order: list[str] | None = None) -> CostEstimate:
    """A-priori (no dropouts, mean gains) cost of executing a plan.

    `client_order` is the session's client sequence (FedSplit: its FL
    participants, masters included); by default masters, then clients, each
    in sorted-id order.
    """
    kind = plan.task.protocol
    try:
        fn = _ESTIMATORS[kind]
    except KeyError:
        raise ScenarioSchemaError(f"no estimator for protocol {kind!r}") from None
    if client_order is None:
        client_order = sorted(plan.nodes_with("master")) + sorted(plan.nodes_with("client"))
    return fn(plan, topo, radio, client_order)


# ---------------------------------------------------------------- #
#                        plan enumeration                          #
# ---------------------------------------------------------------- #

def enumerate_candidate_plans(task: TrainingTask, topo: NetworkTopology,
                              radio: RadioEnv, policy: SelectionPolicy,
                              scheme: AccessScheme) -> list[TrainingPlan]:
    """The finite candidate space placement decides over.

    (a) every single server training alone;
    (b) every server with server children running FL one tier down;
    (c) the task's own protocol at each edge server over a selected UE pool.
    """
    plans: list[TrainingPlan] = []

    for server_id in sorted(topo.servers):
        solo = TrainingPlan(
            task=replace(task, protocol="centralized"),
            roles={server_id: "server"}, ma_scheme=scheme)
        plans.append(solo)

    for server_id in sorted(topo.servers):
        children = sorted(c for c in topo.children_of(server_id) if c in topo.servers)
        if not children:
            continue
        if any(topo.link_between(server_id, c) is None for c in children):
            continue
        roles = {server_id: "server"}
        roles.update({c: "client" for c in children})
        plans.append(TrainingPlan(task=replace(task, protocol="fl"),
                                  roles=roles, ma_scheme=scheme))

    if task.protocol in UE_PROTOCOLS:
        for ap_id in sorted(topo.servers):
            if topo.servers[ap_id].tier != Tier.EDGE:
                continue
            candidates = [topo.ues[u] for u in sorted(topo.ues_of_ap(ap_id))]
            if not candidates:
                continue
            try:
                pool = select_ue_pool(candidates, policy,
                                      for_sl=task.protocol in SL_PROTOCOLS)
            except EmptyPool:
                continue
            plan = _device_layer_plan(task, topo, ap_id, pool, scheme)
            if plan is not None:
                plans.append(plan)
    return plans


def _device_layer_plan(task: TrainingTask, topo: NetworkTopology, ap_id: str,
                       pool: list[str], scheme: AccessScheme) -> TrainingPlan | None:
    roles = {ap_id: "server"}
    if task.protocol == "sl_heterogeneous":
        if len(pool) < len(task.boundaries):
            return None
        for c in pool[:len(task.boundaries)]:
            roles[c] = "client"
    elif task.protocol == "fedsplit_nested":
        any_master = False
        for c in pool:
            group = topo.group_containing(c)
            if group is not None and group.master == c:
                roles[c] = "master"
                any_master = True
                for s in group.slaves:
                    roles[s] = "slave"
            elif c not in roles:
                roles[c] = "client"
        if not any_master:
            return None
    else:
        for c in pool:
            roles[c] = "client"
    return TrainingPlan(task=task, roles=roles, ma_scheme=scheme,
                        relay="d2d" if task.protocol == "sl_heterogeneous" else "via_server")


def _plan_sort_key(plan: TrainingPlan, est: CostEstimate):
    return (est.total_energy, est.wall_latency, plan.node_count(),
            plan.task.protocol, plan.server(),
            tuple(sorted(plan.roles.items())))


def choose_placement(task: TrainingTask, topo: NetworkTopology, radio: RadioEnv,
                     policy: SelectionPolicy,
                     scheme: AccessScheme) -> tuple[TrainingPlan, CostEstimate]:
    """Pick the cheapest feasible plan from the candidate space.

    Feasible means: layer span <= 3, device clients only under an edge/fog
    server running FL/SL/FedSplit, and estimated wall latency within the
    task's deadline. Ties break toward lower latency, then fewer nodes, then
    a stable textual key, so enumeration order never matters.
    """
    best = None
    for plan in enumerate_candidate_plans(task, topo, radio, policy, scheme):
        if validate_layer_span(plan, topo) is not None:
            continue
        if not _edge_restriction_ok(plan, topo):
            continue
        try:
            est = estimate_cost(plan, topo, radio)
        except ScenarioSchemaError:
            continue
        if est.wall_latency > task.latency_deadline:
            continue
        key = _plan_sort_key(plan, est)
        if best is None or key < best[0]:
            best = (key, plan, est)
    if best is None:
        raise NoFeasiblePlan("every candidate violates the deadline or constraints")
    return best[1], best[2]


def _edge_restriction_ok(plan: TrainingPlan, topo: NetworkTopology) -> bool:
    """Device clients may only be served by an edge or fog node running a
    federated/split protocol."""
    device_clients = [n for n, r in plan.roles.items()
                      if r in ("client", "master", "slave") and n in topo.ues]
    if not device_clients:
        return True
    server_tier = topo.tier_of(plan.server())
    return (server_tier in (Tier.EDGE, Tier.FOG)
            and plan.task.protocol in UE_PROTOCOLS)
