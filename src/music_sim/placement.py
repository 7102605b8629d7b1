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
from .protocols import FlLegs, LegCosts, SlHomoLegs, eval_legs, sl_hetero_legs
from .radio import AccessScheme, RadioEnv
from .topology import NetworkTopology, Tier, UeProfile, validate_layer_span

ROLES = ("server", "client", "relay", "master", "slave")

SL_PROTOCOLS = ("sl_homogeneous", "sl_heterogeneous")
# the protocols a scenario can name; each trains on devices, unlike "centralized"
PROTOCOL_KINDS = ("fl", "sl_homogeneous", "sl_heterogeneous", "fedsplit_nested")


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

    Its `LegCosts` prices at mean gain, so every leg the walk repeats (each
    round's uplinks included) is priced once per estimate and looked up
    after that; only the block bookings and the sums are redone per leg.
    """

    def __init__(self, plan: TrainingPlan, topo: NetworkTopology, radio: RadioEnv,
                 clients: list[str]):
        self.task = plan.task
        self.legs = LegCosts(topo, radio, plan.ma_scheme, plan.task.cycles_per_mac)
        self.legs.assign_slots(clients)
        self.blocks = BlockLedger()
        self.energy: dict[str, dict[str, float]] = {}

    def add(self, node: str, phase: str, joules: float) -> None:
        if joules > 0:
            bucket = self.energy.get(node)
            if bucket is None:
                bucket = self.energy[node] = {}
            bucket[phase] = bucket.get(phase, 0.0) + joules

    def compute(self, node: str, macs: float) -> float:
        latency, energy = self.legs.compute(node, macs)
        self.add(node, "compute", energy)
        return latency

    def walk(self, legs: tuple, t: float) -> float:
        """Carry ready time `t` through leg tuples (see `protocols.route`);
        returns the time the last one ends. A hop is billed as
        `LegCosts.hop` says, and an uplink waits for its blocks; every
        uplink shares one context, so NOMA rates are computed once per
        estimate."""
        for leg in legs:
            if leg[0] == "compute":
                t += self.compute(leg[1], leg[2])
                continue
            sender, receiver, latency, tx, rx, blocks, tag = self.legs.hop(leg)
            self.add(sender, "tx", tx)
            self.add(receiver, "rx", rx)
            if blocks:
                t = self.blocks.book(receiver, blocks, t, latency, sender, tag)
            t += latency
        return t

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
        t = est.walk(eval_legs(server, task.widths, task.test_size, task.eval_every, i), t)
    return est.finish(t)


def _estimate_federated(plan, topo, radio, clients: list[str]) -> CostEstimate:
    """FL rounds, FedSplit's included: each client downloads the model,
    trains, and uploads its delta; the round closes at the slowest upload
    plus aggregation. A FedSplit master trains by the homogeneous SL
    sequence over its slaves, every hop a D2D hop; plain FL has no masters.
    Uploads are made in the order the engine dispatches them: by ready
    time, ties in client order."""
    est = _Estimator(plan, topo, radio, clients)
    task = plan.task
    server = plan.server()
    fl = FlLegs(topo, server, task.widths, task.batch_size, task.local_iterations)
    chains = [fl.chain(c) for c in clients]
    aggregate = (fl.aggregate(len(clients)),)
    # each master's nested legs and slaves, built once per estimate
    nested = {c: (SlHomoLegs(topo, c, task.widths, task.cut_index, task.batch_size),
                  [s for s in topo.mastered_group(c).slaves if s in plan.roles])
              for c in clients if plan.roles[c] == "master"}
    # what each client walks before its upload: the download, then the
    # local step, which a master runs as nested SL instead
    before = [down if c in nested else (*down, local)
              for c, (down, local, _) in zip(clients, chains)]
    t = 0.0
    for rnd in range(task.rounds):
        ready = []
        for c, legs in zip(clients, before):
            got = est.walk(legs, t)
            if c in nested:
                sl, slaves = nested[c]
                got = _sl_homo_iterations(est, sl, slaves, task.local_iterations, got,
                                          evaluate=False)
            ready.append(got)
        slowest = t
        for i in sorted(range(len(clients)), key=ready.__getitem__):
            slowest = max(slowest, est.walk(chains[i][2], ready[i]))
        t = est.walk(aggregate + eval_legs(server, task.widths, task.test_size,
                                           task.eval_every, rnd), slowest)
    return est.finish(t)


def _sl_homo_iterations(est: _Estimator, legs: SlHomoLegs, clients: list[str],
                        iterations: int, t: float, evaluate: bool) -> float:
    """Homogeneous SL iterations over `legs` from ready time `t`; returns
    the time the last iteration ends."""
    task, server = est.task, legs.server
    holder = None
    for i in range(iterations):
        active = clients[i % len(clients)]
        t = est.walk(legs.handoff(holder, active), t)
        t = est.walk(legs.body(active), t)
        holder = active
        if evaluate:
            evals = eval_legs(server, task.widths, task.test_size, task.eval_every, i)
            t = est.walk(evals, t)
    return t


def _estimate_sl_homogeneous(plan, topo, radio, clients: list[str]) -> CostEstimate:
    est = _Estimator(plan, topo, radio, clients)
    task = plan.task
    legs = SlHomoLegs(topo, plan.server(), task.widths, task.cut_index, task.batch_size)
    t = _sl_homo_iterations(est, legs, clients, task.total_iterations, 0.0, evaluate=True)
    return est.finish(t)


def _estimate_sl_heterogeneous(plan, topo, radio, clients: list[str]) -> CostEstimate:
    est = _Estimator(plan, topo, radio, clients)
    task = plan.task
    server = plan.server()
    labels, forward, back = sl_hetero_legs(topo, server, clients, task.widths,
                                           task.boundaries, task.batch_size, plan.relay)
    t = 0.0
    for i in range(task.total_iterations):
        labels_done = est.walk(labels, t)
        chain_done = est.walk(forward, t)
        t = est.walk(back, max(labels_done, chain_done))
        t = est.walk(eval_legs(server, task.widths, task.test_size, task.eval_every, i), t)
    return est.finish(t)


_ESTIMATORS = {
    "centralized": _estimate_centralized,
    "fl": _estimate_federated,
    "sl_homogeneous": _estimate_sl_homogeneous,
    "sl_heterogeneous": _estimate_sl_heterogeneous,
    "fedsplit_nested": _estimate_federated,
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

    if task.protocol in PROTOCOL_KINDS:
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
        roles.update(fedsplit_roles(topo, pool))
        if "master" not in roles.values():
            return None
    else:
        for c in pool:
            roles[c] = "client"
    return TrainingPlan(task=task, roles=roles, ma_scheme=scheme,
                        relay="d2d" if task.protocol == "sl_heterogeneous" else "via_server")


def fedsplit_roles(topo: NetworkTopology, clients) -> dict[str, str]:
    """FedSplit roles of `clients`: a client that masters a D2D group is a
    master, and each slave of its group is a slave, also one listed among
    the clients, before or after its master; every other client is a
    client."""
    roles = {}
    for c in clients:
        group = topo.mastered_group(c)
        if group is not None:
            roles[c] = "master"
            for s in group.slaves:
                roles[s] = "slave"
        elif c not in roles:
            roles[c] = "client"
    return roles


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
            and plan.task.protocol in PROTOCOL_KINDS)
