"""Scenario documents: strict parsing, validation reports, run assembly.

A scenario is one JSON document with sections `nodes`, `links`, `d2d_groups`,
`radio`, `ml`, `protocol`, `seeds` and the optional `placement` and `output`.
Parsing is strict — an unknown key anywhere is an error, so typos surface
instead of silently meaning nothing. Every run artifact embeds the sha256
hash of the effective (post-override) document plus the root seed; the hash
is computed the first time it is read, not while validating.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from . import costs, mlp
from .data import DataBundle, make_blobs
from .engine import Engine
from .errors import ScenarioParseError, ScenarioSchemaError, SimulationError, UnknownNodeReference
from .placement import (PROTOCOL_FIELDS, PROTOCOL_KINDS, SelectionPolicy, TrainingPlan,
                        TrainingTask, _edge_restriction_ok, session_roles)
from .protocols import (
    FlSession,
    LegCosts,
    MetricsTrace,
    SlHomoLegs,
    SlSession,
    TrainingConfig,
    route,
    run_fedsplit_nested,
    run_fl,
    run_sl_heterogeneous,
    run_sl_homogeneous,
    sl_hetero_legs,
)
from .radio import CELL_FIELDS, RADIO_FIELDS, RadioEnv, SchemeKind
from .topology import (
    D2D_FIELDS,
    LINK_FIELDS,
    REQUIRED,
    SERVER_FIELDS,
    UE_FIELDS,
    NetworkTopology,
    Tier,
    array,
    boolean,
    build_topology,
    identifier,
    identifiers,
    integral,
    read_fields,
    real,
    validate_layer_span,
)

# accepted spellings for --protocol overrides: each kind's own, and these
PROTOCOL_ALIASES = {
    **{kind: kind for kind in PROTOCOL_KINDS},
    "sl-homo": "sl_homogeneous",
    "sl-homogeneous": "sl_homogeneous",
    "sl-hetero": "sl_heterogeneous",
    "sl-heterogeneous": "sl_heterogeneous",
    "fedsplit": "fedsplit_nested",
    "fedsplit-nested": "fedsplit_nested",
}

RELAY_ALIASES = {"server": "via_server", "via_server": "via_server", "d2d": "d2d"}


# ---------------------------------------------------------------- #
#                     parsing and strict schema                    #
# ---------------------------------------------------------------- #

def parse_scenario_text(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise ScenarioSchemaError("scenario document must be a JSON object")
    return doc


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def _keys(table=(), required=(), optional=()) -> tuple[frozenset[str], ...]:
    """An object's required keys, its optional keys, and every key it may carry;
    a field `table` row's key is required where its default is `REQUIRED`."""
    required = {*required, *(key for key, _, _, default in table if default is REQUIRED)}
    optional = {*optional, *(key for key, _, _, default in table if default is not REQUIRED)}
    return frozenset(required), frozenset(optional), frozenset(required | optional)


def _strict(mapping, keys: tuple[frozenset[str], ...], where: str) -> None:
    required, optional, full = keys
    if not isinstance(mapping, dict):
        raise ScenarioSchemaError(f"{where} must be an object")
    # an object that carries every key it may is valid in one comparison
    if mapping.keys() == full:
        return
    present = set(mapping)
    missing = required - present
    if missing:
        raise ScenarioSchemaError(f"{where}: missing keys {sorted(missing)}")
    unknown = present - required - optional
    if unknown:
        raise ScenarioSchemaError(f"{where}: unknown keys {sorted(unknown)}")


def _strict_entries(entries, keys: tuple[frozenset[str], ...], where: str) -> None:
    """`_strict` on each object of the array `where`; an entry's place in the
    array is formatted only for an entry that takes the slow path."""
    full = keys[-1]
    for i, entry in enumerate(array(entries, where)):
        if not (isinstance(entry, dict) and entry.keys() == full):
            _strict(entry, keys, f"{where}[{i}]")


# Readers, `(value, where[, floor])` like `real`, of table fields that are no plain number.

def _counts(value, where: str, floor: int | None = None) -> tuple[int, ...]:
    return tuple(integral(count, f"{where}[{i}]", floor)
                 for i, count in enumerate(array(value, where)))


def _choice(names: dict[str, str], refusal: str):
    """A reader of a name among the keys of `names`, read as what it maps to;
    any other value is refused with `refusal`, formatted with where and value."""
    def read(value, where: str) -> str:
        if type(value) is not str or value not in names:
            raise ScenarioSchemaError(refusal.format(where=where, value=value))
        return names[value]
    return read


def _deadline(value, where: str, floor: float) -> float:
    """A deadline field: null or infinite means no deadline."""
    return math.inf if value is None or value == math.inf else real(value, where, floor)


# The field tables of `MlSettings`, `ProtocolSettings` and the placement section, each
# in read order, for `topology.read_fields`; `check_schema` takes their keys from them.
_ML_SETTINGS = (("widths", _counts, 1, REQUIRED),
                ("loss", _choice({"mse": "mse", "ce": "ce"},
                                 "{where} must be 'mse' or 'ce', got {value!r}"), None, REQUIRED),
                ("learning_rate", real, None, REQUIRED), ("batch_size", integral, 1, REQUIRED),
                ("cycles_per_mac", real, 0, 1.0), ("eval_every", integral, 0, 0),
                ("test_size", integral, 0, 0), ("noise", real, None, 0.6),
                ("class_sep", real, None, 2.5))
_PROTOCOL_SETTINGS = (
    ("kind", _choice(dict(zip(PROTOCOL_KINDS, PROTOCOL_KINDS)),
                     f"{{where}} must be one of {PROTOCOL_KINDS}, got {{value!r}}"),
     None, REQUIRED),
    ("scheme", _choice({kind.value: kind.value for kind in SchemeKind},
                       "unknown access scheme {value!r}"), None, REQUIRED),
    ("relay", _choice(RELAY_ALIASES, "{where} must be 'server' or 'd2d', got {value!r}"),
     None, "via_server"),
    ("server", identifier, None, REQUIRED), ("clients", identifiers, None, REQUIRED),
    ("rounds", integral, 1, 1), ("local_iterations", integral, 1, 1),
    ("iterations", integral, 1, 1), ("cut_index", integral, None, None),
    ("boundaries", _counts, None, ()), ("dropout_slope", real, 0, 0.0),
    ("round_deadline", _deadline, 0, math.inf))
# a `SelectionPolicy`'s fields, then the plan's latency deadline
_PLACEMENT_SETTINGS = (
    ("min_battery", real, None, 0.0), ("min_compute_rate", real, None, 0.0),
    ("min_channel_gain", real, None, 0.0), ("max_channel_variance", real, None, math.inf),
    ("require_immobile", boolean, None, False), ("pool_size", integral, 1, 16),
    ("latency_deadline", _deadline, 0, math.inf))

_SCENARIO_KEYS = _keys(required={"nodes", "radio", "ml", "protocol", "seeds"},
                       optional={"links", "d2d_groups", "placement", "output"})
_NODES_KEYS = _keys(optional={"cloud", "fog", "edge", "ue"})
_SERVER_ENTRY = _keys(SERVER_FIELDS, required={"id"})
_UE_ENTRY = _keys(UE_FIELDS, required={"id"})
_LINK_ENTRY = _keys(LINK_FIELDS, required={"src", "dst"})
_D2D_ENTRY = _keys(D2D_FIELDS, required={"master", "slaves"})
_RADIO_KEYS = _keys(RADIO_FIELDS, optional={"cells", "noma_clusters"})
_CELL_KEYS = _keys(CELL_FIELDS)
_NOMA_ENTRY = _keys(required={"members", "powers", "blocks"})
_ML_KEYS = _keys(_ML_SETTINGS)
_PROTOCOL_KEYS = _keys(_PROTOCOL_SETTINGS)
_SEEDS_KEYS = _keys(required={"root"}, optional={"data", "model"})
_PLACEMENT_KEYS = _keys(_PLACEMENT_SETTINGS)
_OUTPUT_KEYS = _keys(optional={"dir"})


def check_schema(doc: dict) -> None:
    """Reject unknown keys and missing sections anywhere in the document."""
    _strict(doc, _SCENARIO_KEYS, "scenario")
    _strict(doc["nodes"], _NODES_KEYS, "nodes")
    for tier_key in ("cloud", "fog", "edge"):
        _strict_entries(doc["nodes"].get(tier_key, []), _SERVER_ENTRY, f"nodes.{tier_key}")
    _strict_entries(doc["nodes"].get("ue", []), _UE_ENTRY, "nodes.ue")
    _strict_entries(doc.get("links", []), _LINK_ENTRY, "links")
    _strict_entries(doc.get("d2d_groups", []), _D2D_ENTRY, "d2d_groups")
    _strict(doc["radio"], _RADIO_KEYS, "radio")
    cells = doc["radio"].get("cells", {})
    if not isinstance(cells, dict):
        raise ScenarioSchemaError("radio.cells must map access-point ids to objects")
    for ap_id, cell in cells.items():
        _strict(cell, _CELL_KEYS, f"radio.cells[{ap_id!r}]")
    _strict_entries(doc["radio"].get("noma_clusters", []), _NOMA_ENTRY, "radio.noma_clusters")
    _strict(doc["ml"], _ML_KEYS, "ml")
    _strict(doc["protocol"], _PROTOCOL_KEYS, "protocol")
    _strict(doc["seeds"], _SEEDS_KEYS, "seeds")
    if "placement" in doc:
        _strict(doc["placement"], _PLACEMENT_KEYS, "placement")
    if "output" in doc:
        _strict(doc["output"], _OUTPUT_KEYS, "output")


# ---------------------------------------------------------------- #
#                        parsed configuration                      #
# ---------------------------------------------------------------- #

@dataclass
class MlSettings:
    widths: tuple[int, ...]
    loss: str
    learning_rate: float
    batch_size: int
    cycles_per_mac: float
    eval_every: int
    test_size: int
    noise: float
    class_sep: float


@dataclass
class ProtocolSettings:
    kind: str
    server: str
    clients: tuple[str, ...]
    scheme: str
    rounds: int
    local_iterations: int
    iterations: int
    cut_index: int | None
    boundaries: tuple[int, ...]
    relay: str
    dropout_slope: float
    round_deadline: float


@dataclass
class ScenarioConfig:
    doc: dict
    topo: NetworkTopology
    radio_env: RadioEnv
    ml: MlSettings
    protocol: ProtocolSettings
    seeds: dict[str, int]
    policy: SelectionPolicy
    latency_deadline: float
    out_dir: str | None

    @functools.cached_property
    def hash(self) -> str:
        """`config_hash(doc)`, computed the first time a run or a plan reads
        it, so validation alone never hashes. `doc` must not change after
        parsing (nothing changes it), or the hash would describe an older
        document."""
        return config_hash(self.doc)


def _parse_ml(section: dict) -> MlSettings:
    settings = MlSettings(**read_fields(section, _ML_SETTINGS, "ml."))
    if len(settings.widths) < 2:
        raise ScenarioSchemaError(f"ml.widths needs >= 2 entries, got {settings.widths}")
    if settings.learning_rate <= 0:
        raise ScenarioSchemaError("ml.learning_rate must be > 0")
    if settings.eval_every > 0 and settings.test_size < 1:
        raise ScenarioSchemaError("ml.eval_every > 0 needs ml.test_size >= 1")
    if settings.widths[-1] < 2:
        raise ScenarioSchemaError("output width must be >= 2 (one unit per class)")
    return settings


def _parse_protocol(section: dict) -> ProtocolSettings:
    settings = ProtocolSettings(**read_fields(section, _PROTOCOL_SETTINGS, "protocol."))
    if not settings.clients:
        raise ScenarioSchemaError("protocol.clients must not be empty")
    # a present count was typed above, so None means absent, or a null cut_index
    for key in PROTOCOL_FIELDS[settings.kind]:
        if section.get(key) is None:
            raise ScenarioSchemaError(f"protocol.kind {settings.kind!r} requires {key!r}")
    return settings


def parse_config(doc: dict) -> ScenarioConfig:
    """Document -> validated configuration (topology built, sections typed)."""
    check_schema(doc)
    topo = build_topology(doc)
    radio_env = RadioEnv.from_doc(doc["radio"], topo)
    ml_settings = _parse_ml(doc["ml"])
    proto = _parse_protocol(doc["protocol"])
    root = doc["seeds"]["root"]
    seeds = {key: integral(doc["seeds"].get(key, root), f"seeds.{key}", 0)
             for key in ("root", "data", "model")}
    placement = doc.get("placement", {})
    # the policy refuses a threshold before the deadline is read
    policy = SelectionPolicy(**read_fields(placement, _PLACEMENT_SETTINGS[:-1], "placement."))
    deadline, = read_fields(placement, _PLACEMENT_SETTINGS[-1:], "placement.").values()
    out_dir = doc.get("output", {}).get("dir")
    if out_dir is not None and type(out_dir) is not str:
        raise ScenarioSchemaError(f"output.dir must be a directory path, got {out_dir!r}")
    cfg = ScenarioConfig(
        doc=doc, topo=topo, radio_env=radio_env, ml=ml_settings, protocol=proto,
        seeds=seeds, policy=policy, latency_deadline=deadline, out_dir=out_dir,
    )
    _check_cross_references(cfg)
    _check_work(proto)
    return cfg


def _check_cross_references(cfg: ScenarioConfig) -> None:
    topo, proto = cfg.topo, cfg.protocol
    if not topo.has_node(proto.server):
        raise UnknownNodeReference(f"protocol.server {proto.server!r} does not exist")
    for c in proto.clients:
        if not topo.has_node(c):
            raise UnknownNodeReference(f"protocol client {c!r} does not exist")
    if len(set(proto.clients)) != len(proto.clients):
        raise ScenarioSchemaError("protocol.clients contains duplicates")
    # every protocol trains on device radios and data shards, which servers lack
    non_ue = [c for c in proto.clients if c not in topo.ues]
    if non_ue:
        raise ScenarioSchemaError(f"{proto.kind}: clients must be devices, got {non_ue}")
    # a client or slave role would overwrite the server's, leaving the plan without one
    role = session_roles(topo, proto.kind, proto.server, proto.clients)[proto.server]
    if role != "server":
        raise ScenarioSchemaError(f"protocol.server {proto.server!r} is also a {role}")
    # the split-learning shape rules live in the leg builders the runs use
    if proto.cut_index is not None:
        SlHomoLegs(topo, proto.server, cfg.ml.widths, proto.cut_index, cfg.ml.batch_size)
    if proto.kind == "sl_heterogeneous":
        sl_hetero_legs(topo, proto.server, proto.clients, cfg.ml.widths, proto.boundaries,
                       cfg.ml.batch_size, proto.relay)
    fedsplit = proto.kind == "fedsplit_nested"
    if fedsplit and not any(topo.mastered_group(c) for c in proto.clients):
        raise ScenarioSchemaError(
            "fedsplit_nested needs at least one client mastering a d2d group")
    # a FedSplit master trains on its slaves' data; every other client on its own
    for c in proto.clients:
        group = topo.mastered_group(c) if fedsplit else None
        for owner in group.slaves if group else (c,):
            if topo.ues[owner].dataset_size < 1:
                raise ScenarioSchemaError(f"client {owner!r} has no local data")


# The most client-periods (rounds x local iterations, or split learning's
# iterations, x clients) a document may ask for; fixed, so hosts agree.
WORK_CEILING = 10**7


def _check_work(proto: ProtocolSettings) -> None:
    factors = {f"protocol.{k}": getattr(proto, k)
               for k in PROTOCOL_FIELDS[proto.kind] if k != "cut_index"}
    factors["protocol.clients"] = len(proto.clients)
    work = math.prod(factors.values())
    if work > WORK_CEILING:
        heaviest = max(factors, key=factors.get)
        raise ScenarioSchemaError(
            f"{heaviest} = {factors[heaviest]} makes {work} client-periods, "
            f"over the ceiling of {WORK_CEILING}")


def load_scenario(path) -> ScenarioConfig:
    return parse_config(parse_scenario_text(Path(path).read_text()))


# ---------------------------------------------------------------- #
#                       validation reporting                       #
# ---------------------------------------------------------------- #

@dataclass
class ValidationReport:
    errors: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[tuple[str, str]] = field(default_factory=list)
    config: ScenarioConfig | None = None  # None when the document did not parse

    @property
    def ok(self) -> bool:
        return not self.errors

    def lines(self) -> list[str]:
        out = [f"error [{name}]: {msg}" for name, msg in self.errors]
        out += [f"warning [{name}]: {msg}" for name, msg in self.warnings]
        return out or ["ok"]


def plan_of(cfg: ScenarioConfig) -> TrainingPlan:
    """Role assignment implied by the scenario's protocol section."""
    proto = cfg.protocol
    return TrainingPlan(task=task_of(cfg),
                        roles=session_roles(cfg.topo, proto.kind, proto.server, proto.clients),
                        ma_scheme=cfg.radio_env.scheme(proto.scheme),
                        relay=proto.relay)


def task_of(cfg: ScenarioConfig) -> TrainingTask:
    proto, ml_settings = cfg.protocol, cfg.ml
    if "rounds" in PROTOCOL_FIELDS[proto.kind]:
        rounds, local = proto.rounds, proto.local_iterations
    else:
        rounds, local = 1, proto.iterations
    return TrainingTask(
        protocol=proto.kind, widths=ml_settings.widths, rounds=rounds,
        local_iterations=local, batch_size=ml_settings.batch_size,
        latency_deadline=cfg.latency_deadline,
        cycles_per_mac=ml_settings.cycles_per_mac,
        eval_every=ml_settings.eval_every, test_size=ml_settings.test_size,
        cut_index=proto.cut_index, boundaries=proto.boundaries,
    )


def validate_document(doc_or_text) -> ValidationReport:
    """Full schema + topology + plan validation with named constraints. The
    report carries the configuration it parsed, so callers parse once."""
    report = ValidationReport()
    try:
        doc = (parse_scenario_text(doc_or_text) if isinstance(doc_or_text, str)
               else doc_or_text)
        cfg = parse_config(doc)
        plan = plan_of(cfg)
    except SimulationError as exc:
        report.errors.append((exc.constraint, str(exc)))
        return report

    report.config = cfg
    violation = validate_layer_span(plan, cfg.topo)
    if violation is not None:
        report.errors.append(("layer-span", str(violation)))
    if not _edge_restriction_ok(plan, cfg.topo):
        report.errors.append(
            ("edge-restriction",
             f"device clients may only run FL/SL/FedSplit under an edge or fog "
             f"server; server {plan.server()!r} is at tier "
             f"{cfg.topo.tier_of(plan.server()).label}"))
    # a server already refused for its tier is not also priced hop by hop
    if not report.errors:
        report.errors += _uplink_errors(cfg, plan)
    server_tier = cfg.topo.tier_of(cfg.protocol.server)
    if server_tier is Tier.FOG and any(c in cfg.topo.ues for c in cfg.protocol.clients):
        report.warnings.append(
            ("fog-direct-serve",
             f"fog server {cfg.protocol.server!r} serves devices directly, "
             "bypassing the edge layer"))
    for w in cfg.topo.warnings:
        report.warnings.append(("compute-monotonic", w))
    return report


def _uplink_errors(cfg: ScenarioConfig, plan: TrainingPlan) -> list[tuple[str, str]]:
    """Price each client's route to the server at mean gain, as the runs do:
    the radio uplink, then any backhaul hop, or a D2D hop to a device. The
    first leg that cannot be priced is a named error."""
    server = cfg.protocol.server
    legs = LegCosts(cfg.topo, cfg.radio_env, plan.ma_scheme, cfg.ml.cycles_per_mac)
    legs.assign_slots(cfg.protocol.clients)
    bits = costs.model_bits(cfg.ml.widths)
    try:
        for c in cfg.protocol.clients:
            for leg in route(cfg.topo, c, server, bits, "delta"):
                legs.hop(leg)
    except SimulationError as exc:
        return [(exc.constraint, f"client {c!r} cannot reach server {server!r}: {exc}")]
    return []


def validate_path(path) -> ValidationReport:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        report = ValidationReport()
        report.errors.append(("io", str(exc)))
        return report
    return validate_document(text)


# ---------------------------------------------------------------- #
#                          run assembly                            #
# ---------------------------------------------------------------- #

def apply_overrides(doc: dict, seed: int | None = None, protocol: str | None = None,
                    relay: str | None = None) -> dict:
    """New document with command-line overrides folded in (hash-visible)."""
    doc = copy.deepcopy(doc)
    if not all(isinstance(doc.get(s, {}), dict) for s in ("seeds", "protocol")):
        return doc  # `validate` reports the section that is not an object
    if seed is not None:
        doc.setdefault("seeds", {})["root"] = int(seed)
    if protocol is not None:
        kind = PROTOCOL_ALIASES.get(protocol)
        if kind is None:
            raise ScenarioSchemaError(
                f"unknown protocol {protocol!r}; use one of "
                f"{sorted(set(PROTOCOL_ALIASES))}")
        doc.setdefault("protocol", {})["kind"] = kind
    if relay is not None:
        doc.setdefault("protocol", {})["relay"] = relay
    return doc


def build_data(cfg: ScenarioConfig) -> DataBundle:
    """Synthetic classification blobs: one shard per device that owns data."""
    shard_sizes = {u.id: u.dataset_size for u in cfg.topo.ues.values()
                   if u.dataset_size > 0}
    return make_blobs(
        input_dim=cfg.ml.widths[0], n_classes=cfg.ml.widths[-1],
        shard_sizes=shard_sizes, test_size=cfg.ml.test_size,
        seed=cfg.seeds["data"], noise=cfg.ml.noise, class_sep=cfg.ml.class_sep,
    )


@dataclass
class Runtime:
    """Everything needed to execute one configured scenario. `run` is the
    protocol's `run_*` entry bound to its sessions, called with the
    topology, the radio environment and the engine."""

    cfg: ScenarioConfig
    engine: Engine
    data: DataBundle
    model: mlp.MlpModel
    run: Callable[[NetworkTopology, RadioEnv, Engine], MetricsTrace]

    def execute(self) -> MetricsTrace:
        """Run the configured protocol; the trace carries hash and seed even
        when the session aborts mid-way."""
        cfg = self.cfg
        trace = None
        try:
            trace = self.run(cfg.topo, cfg.radio_env, self.engine)
        except SimulationError as exc:
            trace = getattr(exc, "trace", None)
            raise
        finally:
            if trace is not None:
                trace.config_hash = cfg.hash
                trace.seed = cfg.seeds["root"]
        return trace


def assemble(cfg: ScenarioConfig) -> Runtime:
    eng = Engine(seed=cfg.seeds["root"])
    for ue in cfg.topo.ues.values():
        eng.batteries[ue.id] = ue.battery
    data = build_data(cfg)
    model = mlp.init_model(cfg.ml.widths, cfg.ml.loss, seed=cfg.seeds["model"])
    proto = cfg.protocol
    # what every session of the run shares
    shared = dict(
        model=model, scheme=cfg.radio_env.scheme(proto.scheme), data=data,
        config=TrainingConfig(lr=cfg.ml.learning_rate, batch_size=cfg.ml.batch_size,
                              cycles_per_mac=cfg.ml.cycles_per_mac,
                              eval_every=cfg.ml.eval_every),
        dropout_slope=proto.dropout_slope,
    )
    if "rounds" in PROTOCOL_FIELDS[proto.kind]:
        fl = FlSession(server=proto.server, clients=list(proto.clients),
                       local_iterations=proto.local_iterations, global_rounds=proto.rounds,
                       round_deadline=proto.round_deadline, **shared)
        if proto.kind == "fl":
            run = functools.partial(run_fl, fl)
        else:
            # a master's nested split learning never evaluates, whatever eval_every says
            nested = {c: SlSession(server=c, clients=list(group.slaves), variant="homogeneous",
                                   iterations=proto.local_iterations,
                                   cut_index=proto.cut_index, **shared)
                      for c in proto.clients if (group := cfg.topo.mastered_group(c))}
            run = functools.partial(run_fedsplit_nested, fl, nested)
    else:
        variant = proto.kind.removeprefix("sl_")
        sl = SlSession(server=proto.server, clients=list(proto.clients), variant=variant,
                       iterations=proto.iterations, cut_index=proto.cut_index,
                       boundaries=proto.boundaries, relay=proto.relay, **shared)
        run = functools.partial(run_sl_homogeneous if variant == "homogeneous"
                                    else run_sl_heterogeneous, sl)
    return Runtime(cfg=cfg, engine=eng, data=data, model=model, run=run)
