"""Client-pool selection and task-placement decisions.

Placement answers two questions before anything runs: which devices are fit
to participate (threshold filters plus a deterministic ranking), and where
a training task should execute (single server, one tier further down across
children, or a device-layer protocol at an access point). Candidates are
compared by a closed-form cost estimate that runs each protocol's leg
sequence period by period, each leg priced once per estimate by the
runners' own leg-cost model (`protocols.LegCosts`), under no-dropout,
mean-gain assumptions; the cheapest feasible plan wins.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from operator import attrgetter

from . import costs
from .engine import BlockLedger
from .errors import EmptyPool, NoFeasiblePlan, ScenarioSchemaError, ZeroRate
from .protocols import FlLegs, LegCosts, SlHomoLegs, eval_legs, sl_hetero_legs
from .radio import AccessScheme, RadioEnv
from .topology import NetworkTopology, Tier, UeProfile, validate_layer_span

ROLES = ("server", "client", "relay", "master", "slave")

# the protocols a scenario can name, each with the `protocol` fields it
# requires: its period counts, then `cut_index` if it has a cut. Each trains
# on devices, unlike "centralized".
PROTOCOL_FIELDS = {
    "fl": ("rounds", "local_iterations"),
    "sl_homogeneous": ("iterations", "cut_index"),
    "sl_heterogeneous": ("iterations",),
    "fedsplit_nested": ("rounds", "local_iterations", "cut_index"),
}
PROTOCOL_KINDS = tuple(PROTOCOL_FIELDS)
SL_PROTOCOLS = tuple(k for k, fields in PROTOCOL_FIELDS.items() if "iterations" in fields)


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

class _Program:
    """Leg tuples (see `protocols.route`), priced on their first run, so in
    walk order and only if the walk reaches them. Pricing gives `charges`,
    the positive (node's energy bucket, phase, joules) in charge order, none
    of which depends on time, and `steps`, one (latency, booking) per leg:
    `booking` is (receiver, blocks, sender, tag) for an uplink, else None."""

    __slots__ = ("legs", "charges", "steps")

    def __init__(self, legs: tuple):
        self.legs, self.steps = legs, None


class _Estimator:
    """Closed-form run of the runners' leg sequences, each leg priced once
    per estimate by the runners' own `LegCosts` (see `_Program`), so a later
    period only books blocks and adds. Ready times are carried along the
    schedule, and energy is summed per node and phase. Uplinks book their
    blocks on a `BlockLedger`, as the runners do, so callers must request
    them in the order the engine would: by ready time, ties in client order.
    `clients` is the session's client order, which fixes each device's
    block slot."""

    def __init__(self, plan: TrainingPlan, topo: NetworkTopology, radio: RadioEnv,
                 clients: list[str]):
        self.legs = LegCosts(topo, radio, plan.ma_scheme, plan.task.cycles_per_mac)
        self.legs.assign_slots(clients)
        self.blocks = BlockLedger()
        self.energy: dict[str, dict[str, float]] = {}

    def _price(self, program: _Program) -> None:
        """A hop is billed as `LegCosts.hop` says, every uplink in one context
        (NOMA rates are computed once per estimate). The program runs next,
        so each node's bucket is made in first-charge order."""
        energy, charges, steps = self.energy, [], []
        for leg in program.legs:
            if leg[0] == "compute":
                latency, joules = self.legs.compute(leg[1], leg[2])
                paid, booking = ((leg[1], "compute", joules),), None
            else:
                sender, receiver, latency, tx, rx, blocks, tag = self.legs.hop(leg)
                paid = ((sender, "tx", tx), (receiver, "rx", rx))
                booking = (receiver, blocks, sender, tag) if blocks else None
            for node, phase, joules in paid:
                if joules > 0:
                    charges.append((energy.setdefault(node, {}), phase, joules))
            steps.append((latency, booking))
        program.charges, program.steps = charges, steps

    def run(self, program: _Program, t: float) -> float:
        """Carry ready time `t` through `program`; returns the time its last
        leg ends. An uplink waits for its blocks."""
        if program.steps is None:
            self._price(program)
        for bucket, phase, joules in program.charges:
            bucket[phase] = bucket.get(phase, 0.0) + joules
        for latency, booking in program.steps:
            if booking is not None:
                receiver, blocks, sender, tag = booking
                t = self.blocks.book(receiver, blocks, t, latency, sender, tag)
            t += latency
        return t


def _centralized_periods(est, plan, topo, clients):
    """One training iteration at the server, on data assumed to be there."""
    task, server = plan.task, plan.server()
    macs = costs.training_macs(task.widths, task.batch_size)
    train = _Program((("compute", server, macs, "train"),))
    return task.total_iterations, lambda i, t: est.run(train, t)


def _federated_periods(est, plan, topo, clients):
    """One FL round, FedSplit's included: each client downloads the model,
    trains, and uploads its delta; the round closes at the slowest upload
    plus aggregation. A FedSplit master trains by nested homogeneous SL
    periods over its slaves, every hop a D2D hop; plain FL has no masters.
    Uploads are made in the order the engine dispatches them: by ready
    time, ties in client order."""
    task = plan.task
    fl = FlLegs(topo, plan.server(), task.widths, task.batch_size, task.local_iterations)
    chains = [fl.chain(c) for c in clients]
    aggregate = _Program((fl.aggregate(len(clients)),))
    # each master's nested period over its slaves, built once per estimate
    nested = {c: _sl_homo_period(est, topo, c, task,
                                 [s for s in topo.mastered_group(c).slaves if s in plan.roles])
              for c in clients if plan.roles[c] == "master"}
    # what each client runs before its upload: the download, then the
    # local step, which a master runs as nested SL instead
    before = [_Program(down if c in nested else (*down, local))
              for c, (down, local, _) in zip(clients, chains)]
    uploads = [_Program(up) for _, _, up in chains]

    def period(rnd, t):
        ready = []
        for c, program in zip(clients, before):
            got = est.run(program, t)
            if c in nested:
                sl = nested[c]
                for i in range(task.local_iterations):
                    got = sl(i, got)
            ready.append(got)
        slowest = t
        for i in sorted(range(len(clients)), key=ready.__getitem__):
            slowest = max(slowest, est.run(uploads[i], ready[i]))
        return est.run(aggregate, slowest)
    return task.rounds, period


def _sl_homo_period(est, topo, server: str, task: TrainingTask, clients: list[str]):
    """Homogeneous SL iteration i at `server`: client i's handoff from the
    one before it (from the server at i = 0), then the body; one program
    for i = 0, then one per i % n, each built when first reached."""
    legs = SlHomoLegs(topo, server, task.widths, task.cut_index, task.batch_size)
    n = len(clients)
    programs: dict[int, _Program] = {}

    def period(i, t):
        k = i % n if i else n
        program = programs.get(k)
        if program is None:
            active = clients[k % n]
            program = programs[k] = _Program(
                legs.handoff(clients[k - 1] if i else None, active) + legs.body(active))
        return est.run(program, t)
    return period


def _sl_homogeneous_periods(est, plan, topo, clients):
    period = _sl_homo_period(est, topo, plan.server(), plan.task, clients)
    return plan.task.total_iterations, period


def _sl_heterogeneous_periods(est, plan, topo, clients):
    """Labels, then the forward chain beside them, then the backward chain."""
    task = plan.task
    labels, forward, back = map(_Program, sl_hetero_legs(
        topo, plan.server(), clients, task.widths, task.boundaries, task.batch_size, plan.relay))

    def period(i, t):
        labels_done = est.run(labels, t)
        return est.run(back, max(labels_done, est.run(forward, t)))
    return task.total_iterations, period


# each protocol's periods: (est, plan, topo, clients) -> (period count,
# period), where period(i, t) runs period i from ready time t to its end
_PERIODS = {
    "centralized": _centralized_periods,
    "fl": _federated_periods,
    "sl_homogeneous": _sl_homogeneous_periods,
    "sl_heterogeneous": _sl_heterogeneous_periods,
    "fedsplit_nested": _federated_periods,
}


def estimate_cost(plan: TrainingPlan, topo: NetworkTopology, radio: RadioEnv,
                  client_order: list[str] | None = None) -> CostEstimate:
    """A-priori (no dropouts, mean gains) cost of executing a plan: its
    protocol's periods run one after another, each followed by the
    server's held-out evaluation when one is due.

    `client_order` is the session's client sequence (FedSplit: its FL
    participants, masters included); by default masters, then clients, each
    in sorted-id order.
    """
    task = plan.task
    try:
        periods = _PERIODS[task.protocol]
    except KeyError:
        raise ScenarioSchemaError(f"no estimator for protocol {task.protocol!r}") from None
    if client_order is None:
        client_order = sorted(plan.nodes_with("master")) + sorted(plan.nodes_with("client"))
    est = _Estimator(plan, topo, radio, client_order)
    count, period = periods(est, plan, topo, client_order)
    server, t, every = plan.server(), 0.0, task.eval_every
    # the server's evaluation leg, as `eval_legs` gives it when one is due
    evaluation = _Program(eval_legs(server, task.widths, task.test_size, every, every - 1))
    for i in range(count):
        t = period(i, t)
        if every > 0 and (i + 1) % every == 0:
            t = est.run(evaluation, t)
    total = costs.fold_sum(costs.fold_sum(b.values()) for b in est.energy.values())
    return CostEstimate(total_energy=total, wall_latency=t, breakdown=est.energy)


# ---------------------------------------------------------------- #
#                        plan enumeration                          #
# ---------------------------------------------------------------- #

def _candidate_source(task: TrainingTask, topo: NetworkTopology, scheme: AccessScheme):
    """The candidate space placement decides over, in enumeration order:

    (a) every single server training alone;
    (b) every server with server children running FL one tier down;
    (c) the task's own protocol at each edge server over a selected UE pool.

    (a) and (b) come as built plans. A (c) candidate comes as its edge
    server's id, since selecting its pool is the costly part of enumeration:
    `_device_layer_plan` builds it, or finds that none can be built.
    """
    # tasks are frozen, so every plan of one kind shares its task
    solo_task, fl_task = replace(task, protocol="centralized"), replace(task, protocol="fl")

    servers = sorted(topo.servers)
    for server_id in servers:
        yield TrainingPlan(task=solo_task, roles={server_id: "server"}, ma_scheme=scheme)

    for server_id in servers:
        children = sorted(c for c in topo.children_of(server_id) if c in topo.servers)
        if not children:
            continue
        if any(topo.link_between(server_id, c) is None for c in children):
            continue
        roles = {server_id: "server"}
        roles.update({c: "client" for c in children})
        yield TrainingPlan(task=fl_task, roles=roles, ma_scheme=scheme)

    if task.protocol in PROTOCOL_KINDS:
        yield from (s for s in servers if topo.servers[s].tier == Tier.EDGE)


def enumerate_candidate_plans(task: TrainingTask, topo: NetworkTopology,
                              radio: RadioEnv, policy: SelectionPolicy,
                              scheme: AccessScheme) -> list[TrainingPlan]:
    """Every candidate plan, built, in enumeration order (see
    `_candidate_source`)."""
    plans = []
    for candidate in _candidate_source(task, topo, scheme):
        if isinstance(candidate, str):
            candidate = _device_layer_plan(task, topo, candidate, policy, scheme)
        if candidate is not None:
            plans.append(candidate)
    return plans


def _device_layer_plan(task: TrainingTask, topo: NetworkTopology, ap_id: str,
                       policy: SelectionPolicy, scheme: AccessScheme) -> TrainingPlan | None:
    """The task's own protocol at edge server `ap_id` over the pool selected
    from its devices, or None if no pool passes or the pool cannot run it."""
    try:
        pool = select_ue_pool([topo.ues[u] for u in topo.ues_of_ap(ap_id)], policy,
                              for_sl=task.protocol in SL_PROTOCOLS)
    except EmptyPool:
        return None
    if task.protocol == "sl_heterogeneous":
        if len(pool) < len(task.boundaries):
            return None
        pool = pool[:len(task.boundaries)]
    roles = session_roles(topo, task.protocol, ap_id, pool)
    if task.protocol == "fedsplit_nested" and "master" not in roles.values():
        return None
    return TrainingPlan(task=task, roles=roles, ma_scheme=scheme,
                        relay="d2d" if task.protocol == "sl_heterogeneous" else "via_server")


def session_roles(topo: NetworkTopology, kind: str, server: str, clients) -> dict[str, str]:
    """Roles of a `kind` session, `server` first. Under FedSplit a client
    that masters a D2D group is a master and each slave of its group is a
    slave, wherever it is listed among the clients; any other is a client."""
    roles = {}
    for c in clients:
        group = topo.mastered_group(c) if kind == "fedsplit_nested" else None
        if group is not None:
            roles[c] = "master"
            roles.update(dict.fromkeys(group.slaves, "slave"))
        elif c not in roles:
            roles[c] = "client"
    return {server: "server", **roles}


def _plan_sort_key(plan: TrainingPlan, est: CostEstimate):
    return (est.total_energy, est.wall_latency, plan.node_count(),
            plan.task.protocol, plan.server(),
            tuple(sorted(plan.roles.items())))


# what a floor that cannot be computed raises; such a floor is 0
_FLOOR_ERRORS = (ScenarioSchemaError, LookupError, TypeError)


def _floor_rule(task: TrainingTask, trainers: int, cheapest: float,
                server_price: float) -> float:
    """The training compute that an estimate of a `task` plan must charge:
    FL and FedSplit charge each of their `trainers` (clients and masters) a
    full training step per local iteration (a master's nested SL splits it
    with its slaves); SL trains the layers below its last cut off the server
    and the rest at the server. Off-server MACs are priced at `cheapest`,
    server MACs at `server_price`; 0 for "centralized". Every factor enters
    by a product or a sum of non-negatives, so fewer trainers or a cheaper
    price never gives a larger result, in floats too."""
    kind = task.protocol
    per_iteration = 0.0  # "centralized"
    if kind in SL_PROTOCOLS:
        cut = task.cut_index if "cut_index" in PROTOCOL_FIELDS[kind] else task.boundaries[-1]
        off, on = (costs.forward_macs(task.widths, task.batch_size, a, b)
                   for a, b in ((0, cut), (cut, len(task.widths) - 1)))
        per_iteration = 3 * (off * cheapest + on * server_price)
    elif kind in PROTOCOL_FIELDS:
        per_iteration = trainers * costs.training_macs(task.widths, task.batch_size) * cheapest
    return task.total_iterations * task.cycles_per_mac * per_iteration


def _energy_floor(plan: TrainingPlan, topo: NetworkTopology) -> float:
    """A lower bound on the plan's estimated energy, in O(nodes): the
    `_floor_rule` of its trainers, at its cheapest off-server node's price
    and its server's. Every other charge of the estimate is >= 0. 0 for a
    plan it cannot size."""
    if plan.task.protocol not in PROTOCOL_FIELDS:
        return 0.0  # "centralized", whose `_floor_rule` is 0 at any prices
    try:
        server = plan.server()
        price = {n: (topo.servers.get(n) or topo.ues[n]).energy_per_cycle for n in plan.roles}
        cheapest = min((p for n, p in price.items() if n != server), default=0.0)
        trainers = len(plan.nodes_with("client")) + len(plan.nodes_with("master"))
        return _floor_rule(plan.task, trainers, cheapest, price[server])
    except _FLOOR_ERRORS:
        return 0.0


def _pool_floor(task: TrainingTask, topo: NetworkTopology, ap_id: str,
                cheapest: float) -> float:
    """A lower bound on the `_energy_floor` of the device-layer plan at edge
    server `ap_id`, before its pool is selected: the `_floor_rule` of one
    trainer at `cheapest`, no dearer than any device of the topology. Such a
    plan has at least one trainer, and its off-server nodes are devices."""
    try:
        return _floor_rule(task, 1, cheapest, topo.servers[ap_id].energy_per_cycle)
    except _FLOOR_ERRORS:
        return 0.0


def choose_placement(task: TrainingTask, topo: NetworkTopology, radio: RadioEnv,
                     policy: SelectionPolicy,
                     scheme: AccessScheme) -> tuple[TrainingPlan, CostEstimate]:
    """Pick the cheapest feasible plan from the candidate space.

    Enumeration already puts device clients only under an edge server of
    their own, running FL/SL/FedSplit. Feasible means: layer span <= 3, an
    estimate that raises no named error (nor `ZeroRate`, a leg that cannot
    be priced), and estimated wall latency within the task's deadline. Ties
    break toward lower latency, then fewer nodes, then a stable textual key,
    so enumeration order never matters.

    Candidates are visited in ascending order of a lower bound on their
    energy, ties in enumeration order: a plan's `_energy_floor`, and for a
    device-layer candidate whose pool is not yet selected its `_pool_floor`.
    Such a candidate is built only when it is visited, and then comes back
    at its plan's floor. Once a plan is feasible, a bound above the best
    energy by a 1e-9 relative margin (for float reordering) cannot win, and
    nor can any later one, so the walk stops there. Plans are estimated in
    the order a sort by floor gives, up to the same stop, so the choice is
    the exhaustive argmin's.
    """
    cheapest = min(map(attrgetter("energy_per_cycle"), topo.ues.values()), default=0.0)
    heap = [(_pool_floor(task, topo, c, cheapest) if isinstance(c, str) else _energy_floor(c, topo),
             i, c) for i, c in enumerate(_candidate_source(task, topo, scheme))]
    heapq.heapify(heap)
    best = None
    while heap:
        floor, i, plan = heapq.heappop(heap)
        if best is not None and floor > best[0][0] * (1 + 1e-9):
            break  # the bounds ascend, so no later candidate can win either
        if isinstance(plan, str):
            plan = _device_layer_plan(task, topo, plan, policy, scheme)
            if plan is not None:
                heapq.heappush(heap, (_energy_floor(plan, topo), i, plan))
            continue
        if validate_layer_span(plan, topo) is not None:
            continue
        try:
            est = estimate_cost(plan, topo, radio)
        except (ScenarioSchemaError, ZeroRate):
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
