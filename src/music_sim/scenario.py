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
from dataclasses import dataclass, field
from pathlib import Path

from . import mlp
from .data import DataBundle, make_blobs
from .engine import Engine
from .errors import (
    CrossApD2dGroup,
    CycleInHierarchy,
    D2dDepthExceeded,
    ScenarioParseError,
    ScenarioSchemaError,
    SimulationError,
    UnknownNodeReference,
)
from .placement import SelectionPolicy, TrainingPlan, TrainingTask, _edge_restriction_ok
from .protocols import (
    FlSession,
    MetricsTrace,
    SlSession,
    TrainingConfig,
    run_fedsplit_nested,
    run_fl,
    run_sl_heterogeneous,
    run_sl_homogeneous,
)
from .radio import RadioEnv, SchemeKind
from .topology import NetworkTopology, Tier, build_topology, validate_layer_span

PROTOCOL_KINDS = ("fl", "sl_homogeneous", "sl_heterogeneous", "fedsplit_nested")

# accepted spellings for --protocol overrides
PROTOCOL_ALIASES = {
    "fl": "fl",
    "sl-homo": "sl_homogeneous",
    "sl-homogeneous": "sl_homogeneous",
    "sl_homogeneous": "sl_homogeneous",
    "sl-hetero": "sl_heterogeneous",
    "sl-heterogeneous": "sl_heterogeneous",
    "sl_heterogeneous": "sl_heterogeneous",
    "fedsplit": "fedsplit_nested",
    "fedsplit-nested": "fedsplit_nested",
    "fedsplit_nested": "fedsplit_nested",
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


def _strict(mapping, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(mapping, dict):
        raise ScenarioSchemaError(f"{where} must be an object")
    keys = set(mapping)
    missing = required - keys
    if missing:
        raise ScenarioSchemaError(f"{where}: missing keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ScenarioSchemaError(f"{where}: unknown keys {sorted(unknown)}")


_SERVER_ENTRY = ({"id", "compute_rate", "energy_per_cycle"}, {"parent"})
_UE_ENTRY = ({"id", "battery", "compute_rate", "energy_per_cycle", "tx_power",
              "channel_gain", "attached_ap", "dataset_size"},
             {"channel_variance", "mobile"})
_LINK_ENTRY = ({"src", "dst", "rate"}, {"latency", "energy_per_bit"})
_D2D_ENTRY = ({"master", "slaves", "link_rate"}, {"link_energy_per_bit"})
_PROTOCOL_KEYS = ({"kind", "server", "clients", "scheme"},
                  {"rounds", "local_iterations", "iterations", "cut_index",
                   "boundaries", "relay", "dropout_slope", "round_deadline"})


def check_schema(doc: dict) -> None:
    """Reject unknown keys and missing sections anywhere in the document."""
    _strict(doc, {"nodes", "radio", "ml", "protocol", "seeds"},
            {"links", "d2d_groups", "placement", "output"}, "scenario")
    _strict(doc["nodes"], set(), {"cloud", "fog", "edge", "ue"}, "nodes")
    for tier_key in ("cloud", "fog", "edge"):
        for i, entry in enumerate(doc["nodes"].get(tier_key, [])):
            _strict(entry, *_SERVER_ENTRY, f"nodes.{tier_key}[{i}]")
    for i, entry in enumerate(doc["nodes"].get("ue", [])):
        _strict(entry, *_UE_ENTRY, f"nodes.ue[{i}]")
    for i, entry in enumerate(doc.get("links", [])):
        _strict(entry, *_LINK_ENTRY, f"links[{i}]")
    for i, entry in enumerate(doc.get("d2d_groups", [])):
        _strict(entry, *_D2D_ENTRY, f"d2d_groups[{i}]")
    _strict(doc["radio"], {"noise_density", "downlink_rate"},
            {"signalling_delay", "rx_energy_per_bit", "downlink_energy_per_bit",
             "cells", "noma_clusters"}, "radio")
    cells = doc["radio"].get("cells", {})
    if not isinstance(cells, dict):
        raise ScenarioSchemaError("radio.cells must map access-point ids to objects")
    for ap_id, cell in cells.items():
        _strict(cell, {"num_blocks", "block_bandwidth"}, set(), f"radio.cells[{ap_id!r}]")
    for i, entry in enumerate(doc["radio"].get("noma_clusters", [])):
        _strict(entry, {"members", "powers", "blocks"}, set(), f"radio.noma_clusters[{i}]")
    _strict(doc["ml"], {"widths", "loss", "learning_rate", "batch_size"},
            {"cycles_per_mac", "eval_every", "test_size", "noise", "class_sep"}, "ml")
    _strict(doc["protocol"], *_PROTOCOL_KEYS, "protocol")
    _strict(doc["seeds"], {"root"}, {"data", "model"}, "seeds")
    if "placement" in doc:
        _strict(doc["placement"], set(),
                {"min_battery", "min_compute_rate", "min_channel_gain",
                 "max_channel_variance", "require_immobile", "pool_size",
                 "latency_deadline"}, "placement")
    if "output" in doc:
        _strict(doc["output"], set(), {"dir"}, "output")


# ---------------------------------------------------------------- #
#                        parsed configuration                      #
# ---------------------------------------------------------------- #

@dataclass
class MlSettings:
    widths: tuple[int, ...]
    loss: str
    learning_rate: float
    batch_size: int
    cycles_per_mac: float = 1.0
    eval_every: int = 0
    test_size: int = 0
    noise: float = 0.6
    class_sep: float = 2.5


@dataclass
class ProtocolSettings:
    kind: str
    server: str
    clients: tuple[str, ...]
    scheme: str
    rounds: int = 1
    local_iterations: int = 1
    iterations: int = 1
    cut_index: int | None = None
    boundaries: tuple[int, ...] = ()
    relay: str = "via_server"
    dropout_slope: float = 0.0
    round_deadline: float = math.inf


@dataclass
class ScenarioConfig:
    doc: dict
    topo: NetworkTopology
    radio_env: RadioEnv
    ml: MlSettings
    protocol: ProtocolSettings
    seeds: dict[str, int]
    policy: SelectionPolicy = field(default_factory=SelectionPolicy)
    latency_deadline: float = math.inf
    out_dir: str | None = None

    @functools.cached_property
    def hash(self) -> str:
        """`config_hash(doc)`, computed the first time a run or a plan reads
        it, so validation alone never hashes. `doc` must not change after
        parsing (nothing changes it), or the hash would describe an older
        document."""
        return config_hash(self.doc)


def _parse_ml(section: dict) -> MlSettings:
    widths = tuple(int(w) for w in section["widths"])
    loss = section["loss"]
    if loss not in ("mse", "ce"):
        raise ScenarioSchemaError(f"ml.loss must be 'mse' or 'ce', got {loss!r}")
    settings = MlSettings(
        widths=widths, loss=loss,
        learning_rate=float(section["learning_rate"]),
        batch_size=int(section["batch_size"]),
        cycles_per_mac=float(section.get("cycles_per_mac", 1.0)),
        eval_every=int(section.get("eval_every", 0)),
        test_size=int(section.get("test_size", 0)),
        noise=float(section.get("noise", 0.6)),
        class_sep=float(section.get("class_sep", 2.5)),
    )
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ScenarioSchemaError(f"ml.widths needs >= 2 positive entries, got {widths}")
    if settings.learning_rate <= 0:
        raise ScenarioSchemaError("ml.learning_rate must be > 0")
    if settings.batch_size < 1:
        raise ScenarioSchemaError("ml.batch_size must be >= 1")
    if settings.eval_every > 0 and settings.test_size < 1:
        raise ScenarioSchemaError("ml.eval_every > 0 needs ml.test_size >= 1")
    if widths[-1] < 2:
        raise ScenarioSchemaError("output width must be >= 2 (one unit per class)")
    return settings


def _parse_protocol(section: dict) -> ProtocolSettings:
    kind = section["kind"]
    if kind not in PROTOCOL_KINDS:
        raise ScenarioSchemaError(
            f"protocol.kind must be one of {PROTOCOL_KINDS}, got {kind!r}")
    try:
        SchemeKind(section["scheme"])
    except ValueError:
        raise ScenarioSchemaError(
            f"unknown access scheme {section['scheme']!r}") from None
    relay = section.get("relay", "server")
    if relay not in RELAY_ALIASES:
        raise ScenarioSchemaError(f"protocol.relay must be 'server' or 'd2d', got {relay!r}")
    deadline = section.get("round_deadline")
    settings = ProtocolSettings(
        kind=kind,
        server=section["server"],
        clients=tuple(section["clients"]),
        scheme=section["scheme"],
        rounds=int(section.get("rounds", 1)),
        local_iterations=int(section.get("local_iterations", 1)),
        iterations=int(section.get("iterations", 1)),
        cut_index=(None if section.get("cut_index") is None
                   else int(section["cut_index"])),
        boundaries=tuple(int(b) for b in section.get("boundaries", [])),
        relay=RELAY_ALIASES[relay],
        dropout_slope=float(section.get("dropout_slope", 0.0)),
        round_deadline=math.inf if deadline is None else float(deadline),
    )
    if not settings.clients:
        raise ScenarioSchemaError("protocol.clients must not be empty")
    if kind in ("fl", "fedsplit_nested"):
        for key in ("rounds", "local_iterations"):
            if key not in section:
                raise ScenarioSchemaError(f"protocol.kind {kind!r} requires {key!r}")
    if kind in ("sl_homogeneous", "sl_heterogeneous") and "iterations" not in section:
        raise ScenarioSchemaError(f"protocol.kind {kind!r} requires 'iterations'")
    if kind in ("sl_homogeneous", "fedsplit_nested") and settings.cut_index is None:
        raise ScenarioSchemaError(f"protocol.kind {kind!r} requires 'cut_index'")
    if kind == "sl_heterogeneous" and not settings.boundaries:
        raise ScenarioSchemaError("protocol.kind 'sl_heterogeneous' requires 'boundaries'")
    return settings


def _parse_placement(section: dict) -> tuple[SelectionPolicy, float]:
    deadline = section.get("latency_deadline")
    policy = SelectionPolicy(
        min_battery=float(section.get("min_battery", 0.0)),
        min_compute_rate=float(section.get("min_compute_rate", 0.0)),
        min_channel_gain=float(section.get("min_channel_gain", 0.0)),
        max_channel_variance=float(section.get("max_channel_variance", math.inf)),
        require_immobile=bool(section.get("require_immobile", False)),
        pool_size=int(section.get("pool_size", 16)),
    )
    return policy, (math.inf if deadline is None else float(deadline))


def parse_config(doc: dict) -> ScenarioConfig:
    """Document -> validated configuration (topology built, sections typed)."""
    check_schema(doc)
    topo = build_topology(doc)
    radio_env = RadioEnv.from_doc(doc["radio"], topo)
    ml_settings = _parse_ml(doc["ml"])
    proto = _parse_protocol(doc["protocol"])
    seeds_doc = doc["seeds"]
    root = int(seeds_doc["root"])
    seeds = {"root": root, "data": int(seeds_doc.get("data", root)),
             "model": int(seeds_doc.get("model", root))}
    policy, deadline = (_parse_placement(doc["placement"])
                        if "placement" in doc else (SelectionPolicy(), math.inf))
    cfg = ScenarioConfig(
        doc=doc, topo=topo, radio_env=radio_env, ml=ml_settings, protocol=proto,
        seeds=seeds, policy=policy, latency_deadline=deadline,
        out_dir=doc.get("output", {}).get("dir"),
    )
    _check_cross_references(cfg)
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
    if proto.kind != "fl":
        non_ue = [c for c in proto.clients if c not in topo.ues]
        if non_ue:
            raise ScenarioSchemaError(
                f"{proto.kind}: clients must be devices, got {non_ue}")
    num_layers = len(cfg.ml.widths) - 1
    if proto.cut_index is not None and not 1 <= proto.cut_index <= num_layers - 1:
        raise ScenarioSchemaError(
            f"cut_index must be in [1, {num_layers - 1}], got {proto.cut_index}")
    if proto.kind == "sl_heterogeneous":
        if len(proto.boundaries) != len(proto.clients):
            raise ScenarioSchemaError(
                f"{len(proto.clients)} clients need {len(proto.clients)} boundaries, "
                f"got {list(proto.boundaries)}")
    if proto.kind == "fedsplit_nested":
        if not any(_master_group(topo, c) for c in proto.clients):
            raise ScenarioSchemaError(
                "fedsplit_nested needs at least one client mastering a d2d group")
    for c in proto.clients:
        if c in topo.ues and cfg.topo.ues[c].dataset_size < 1 \
                and not _master_group(topo, c):
            raise ScenarioSchemaError(f"client {c!r} has no local data")


def _master_group(topo: NetworkTopology, ue_id: str):
    group = topo.group_containing(ue_id)
    if group is not None and group.master == ue_id:
        return group
    return None


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


_ERROR_NAMES = (
    (ScenarioParseError, "parse"),
    (D2dDepthExceeded, "D2D-depth"),
    (CrossApD2dGroup, "D2D-cross-cell"),
    (CycleInHierarchy, "hierarchy"),
    (UnknownNodeReference, "reference"),
)


def _constraint_name(exc: SimulationError) -> str:
    for klass, name in _ERROR_NAMES:
        if isinstance(exc, klass):
            return name
    return "schema"


def plan_of(cfg: ScenarioConfig) -> TrainingPlan:
    """Role assignment implied by the scenario's protocol section."""
    proto = cfg.protocol
    roles = {proto.server: "server"}
    for c in proto.clients:
        group = _master_group(cfg.topo, c) if proto.kind == "fedsplit_nested" else None
        if group is not None:
            roles[c] = "master"
            for s in group.slaves:
                roles[s] = "slave"
        else:
            roles[c] = "client"
    task = task_of(cfg)
    return TrainingPlan(task=task, roles=roles,
                        ma_scheme=cfg.radio_env.scheme(proto.scheme),
                        relay=proto.relay)


def task_of(cfg: ScenarioConfig) -> TrainingTask:
    proto, ml_settings = cfg.protocol, cfg.ml
    if proto.kind in ("fl", "fedsplit_nested"):
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
    except SimulationError as exc:
        report.errors.append((_constraint_name(exc), str(exc)))
        return report

    report.config = cfg
    plan = plan_of(cfg)
    violation = validate_layer_span(plan, cfg.topo)
    if violation is not None:
        tiers = ", ".join(t.label for t in sorted(violation.tiers))
        report.errors.append(
            ("layer-span", f"plan touches {len(violation.tiers)} layers ({tiers}); "
                           "at most 3 allowed"))
    if not _edge_restriction_ok(plan, cfg.topo):
        report.errors.append(
            ("edge-restriction",
             f"device clients may only run FL/SL/FedSplit under an edge or fog "
             f"server; server {plan.server()!r} is at tier "
             f"{cfg.topo.tier_of(plan.server()).label}"))
    if cfg.protocol.relay == "d2d" and cfg.protocol.kind == "sl_heterogeneous":
        clients = list(cfg.protocol.clients)
        for a, b in zip(clients, clients[1:]):
            if cfg.topo.d2d_link(a, b) is None:
                report.errors.append(
                    ("D2D-link", f"relay 'd2d' needs a link between consecutive "
                                 f"clients {a!r} and {b!r}"))
    server_tier = cfg.topo.tier_of(cfg.protocol.server)
    if server_tier is Tier.FOG and any(c in cfg.topo.ues for c in cfg.protocol.clients):
        report.warnings.append(
            ("fog-direct-serve",
             f"fog server {cfg.protocol.server!r} serves devices directly, "
             "bypassing the edge layer"))
    for w in cfg.topo.warnings:
        report.warnings.append(("compute-monotonic", w))
    return report


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
        if relay not in RELAY_ALIASES:
            raise ScenarioSchemaError(f"relay must be 'server' or 'd2d', got {relay!r}")
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
    """Everything needed to execute one configured scenario."""

    cfg: ScenarioConfig
    engine: Engine
    data: DataBundle
    model: mlp.MlpModel
    fl_session: FlSession | None = None
    sl_session: SlSession | None = None
    nested: dict[str, SlSession] = field(default_factory=dict)

    def execute(self) -> MetricsTrace:
        """Run the configured protocol; the trace carries hash and seed even
        when the session aborts mid-way."""
        cfg = self.cfg
        try:
            if cfg.protocol.kind == "fl":
                trace = run_fl(self.fl_session, cfg.topo, cfg.radio_env, self.engine)
            elif cfg.protocol.kind == "sl_homogeneous":
                trace = run_sl_homogeneous(self.sl_session, cfg.topo, cfg.radio_env,
                                           self.engine)
            elif cfg.protocol.kind == "sl_heterogeneous":
                trace = run_sl_heterogeneous(self.sl_session, cfg.topo, cfg.radio_env,
                                             self.engine)
            else:
                trace = run_fedsplit_nested(self.fl_session, self.nested, cfg.topo,
                                            cfg.radio_env, self.engine)
        except SimulationError as exc:
            partial = getattr(exc, "trace", None)
            if partial is not None:
                partial.config_hash = cfg.hash
                partial.seed = cfg.seeds["root"]
            raise
        trace.config_hash = cfg.hash
        trace.seed = cfg.seeds["root"]
        return trace


def assemble(cfg: ScenarioConfig) -> Runtime:
    eng = Engine(seed=cfg.seeds["root"])
    for ue in cfg.topo.ues.values():
        eng.batteries[ue.id] = ue.battery
    data = build_data(cfg)
    model = mlp.init_model(cfg.ml.widths, cfg.ml.loss, seed=cfg.seeds["model"])
    config = TrainingConfig(lr=cfg.ml.learning_rate, batch_size=cfg.ml.batch_size,
                            cycles_per_mac=cfg.ml.cycles_per_mac,
                            eval_every=cfg.ml.eval_every)
    proto = cfg.protocol
    scheme = cfg.radio_env.scheme(proto.scheme)
    runtime = Runtime(cfg=cfg, engine=eng, data=data, model=model)

    if proto.kind in ("fl", "fedsplit_nested"):
        runtime.fl_session = FlSession(
            server=proto.server, clients=list(proto.clients),
            local_iterations=proto.local_iterations, global_rounds=proto.rounds,
            model=model, scheme=scheme, config=config, data=data,
            dropout_slope=proto.dropout_slope, round_deadline=proto.round_deadline,
        )
    if proto.kind == "fedsplit_nested":
        for c in proto.clients:
            group = _master_group(cfg.topo, c)
            if group is None:
                continue
            runtime.nested[c] = SlSession(
                server=c, clients=list(group.slaves), variant="homogeneous",
                iterations=proto.local_iterations, model=model, scheme=scheme,
                config=TrainingConfig(lr=cfg.ml.learning_rate,
                                      batch_size=cfg.ml.batch_size,
                                      cycles_per_mac=cfg.ml.cycles_per_mac,
                                      eval_every=0),
                data=data, cut_index=proto.cut_index,
                dropout_slope=proto.dropout_slope,
            )
    elif proto.kind == "sl_homogeneous":
        runtime.sl_session = SlSession(
            server=proto.server, clients=list(proto.clients), variant="homogeneous",
            iterations=proto.iterations, model=model, scheme=scheme, config=config,
            data=data, cut_index=proto.cut_index, dropout_slope=proto.dropout_slope,
        )
    elif proto.kind == "sl_heterogeneous":
        runtime.sl_session = SlSession(
            server=proto.server, clients=list(proto.clients), variant="heterogeneous",
            iterations=proto.iterations, model=model, scheme=scheme, config=config,
            data=data, boundaries=proto.boundaries, relay=proto.relay,
            dropout_slope=proto.dropout_slope,
        )
    return runtime
