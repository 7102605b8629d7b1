"""Four-layer network model: node inventories, parent links, backhaul pipes, device groups.

The layer order is fixed (cloud above fog above edge above device) and every
parent link must go exactly one tier up. Device-to-device groups are stars
around a master: slaves sit one hop below and never master a group themselves.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import IntEnum
from itertools import repeat
from math import isfinite
from typing import NamedTuple

from .errors import (
    CrossApD2dGroup,
    CycleInHierarchy,
    D2dDepthExceeded,
    ScenarioSchemaError,
    UnknownNodeReference,
)


class Tier(IntEnum):
    """Network layer; larger value = higher layer, more compute."""

    DEVICE = 0
    EDGE = 1
    FOG = 2
    CLOUD = 3

    @property
    def label(self) -> str:
        return self.name.lower()


# Node, group and link records are named tuples: immutable, and cheaper to
# build than a frozen dataclass, whose `__init__` sets each field through
# `object.__setattr__`. A wide topology builds hundreds per parse.

class ServerNode(NamedTuple):
    """Compute node at the cloud, fog, or edge layer."""

    id: str
    tier: Tier
    compute_rate: float  # cycles/second
    energy_per_cycle: float  # joules/cycle
    parent: str | None = None


class UeProfile(NamedTuple):
    """End device: battery-limited compute plus an uplink radio profile."""

    id: str
    battery: float  # joules at run start
    compute_rate: float  # cycles/second
    energy_per_cycle: float  # joules/cycle
    tx_power: float  # watts
    channel_gain: float  # linear mean
    channel_variance: float  # log-gain variance; 0 = static channel
    mobile: bool
    attached_ap: str
    dataset_size: int

    @property
    def tier(self) -> Tier:
        return Tier.DEVICE


class D2dGroup(NamedTuple):
    """Single-hop star of devices around a master."""

    master: str
    slaves: tuple[str, ...]
    link_rate: float  # bits/second
    link_energy_per_bit: float  # joules/bit

    def members(self) -> tuple[str, ...]:
        return (self.master,) + self.slaves


class LinkSpec(NamedTuple):
    """Fixed-rate, fixed-latency backhaul pipe between two servers."""

    src: str
    dst: str
    rate: float  # bits/second
    latency: float  # seconds
    energy_per_bit: float  # joules/bit


@dataclass(frozen=True)
class SpanViolation:
    """Result of a failed layer-span check; carries the offending tier set."""

    tiers: frozenset[Tier]

    def __str__(self) -> str:
        names = ", ".join(t.label for t in sorted(self.tiers, reverse=True))
        return f"plan touches {len(self.tiers)} layers ({names}); at most 3 allowed"


class NetworkTopology:
    """Immutable view of the built network; safe to share across runs."""

    def __init__(self, servers, ues, d2d_groups, links, warnings):
        self.servers: dict[str, ServerNode] = servers
        self.ues: dict[str, UeProfile] = ues
        self.d2d_groups: tuple[D2dGroup, ...] = tuple(d2d_groups)
        self.links: dict[tuple[str, str], LinkSpec] = links
        self.warnings: tuple[str, ...] = tuple(warnings)
        self._children: dict[str, tuple[str, ...]] = {}
        kids: dict[str, list[str]] = {}
        for node in servers.values():
            if node.parent is not None:
                kids.setdefault(node.parent, []).append(node.id)
        for ue in ues.values():
            kids.setdefault(ue.attached_ap, []).append(ue.id)
        self._children = {k: tuple(v) for k, v in kids.items()}
        self._group_of: dict[str, D2dGroup] = {}
        for group in self.d2d_groups:
            for member in group.members():
                self._group_of[member] = group
        self._mastered = {group.master: group for group in self.d2d_groups}
        self._d2d_links: dict[tuple[str, str], LinkSpec] | None = None  # see `d2d_link`

    # -- lookups -------------------------------------------------------

    def has_node(self, node_id: str) -> bool:
        return node_id in self.servers or node_id in self.ues

    def tier_of(self, node_id: str) -> Tier:
        if node_id in self.servers:
            return self.servers[node_id].tier
        if node_id in self.ues:
            return Tier.DEVICE
        raise UnknownNodeReference(f"unknown node id {node_id!r}")

    def children_of(self, node_id: str) -> tuple[str, ...]:
        return self._children.get(node_id, ())

    def ues_of_ap(self, ap_id: str) -> tuple[str, ...]:
        return tuple(u for u in self.children_of(ap_id) if u in self.ues)

    def group_containing(self, ue_id: str) -> D2dGroup | None:
        return self._group_of.get(ue_id)

    def mastered_group(self, ue_id: str) -> D2dGroup | None:
        """The D2D group `ue_id` masters, if any: the one rule for which
        FedSplit client trains as a split-learning master."""
        return self._mastered.get(ue_id)

    def d2d_link(self, a: str, b: str) -> LinkSpec | None:
        """Direct single-hop link between a and b, if their group has one.

        Direct hops exist only between a master and one of its slaves;
        slave-to-slave traffic has to bounce through the master. Every hop
        is built, in both directions, the first time any is asked for.
        """
        if self._d2d_links is None:
            self._d2d_links = {(u, v): LinkSpec(u, v, g.link_rate, 0.0, g.link_energy_per_bit)
                               for g in self.d2d_groups for slave in g.slaves
                               for u, v in ((g.master, slave), (slave, g.master))}
        return self._d2d_links.get((a, b))

    def link_between(self, src: str, dst: str) -> LinkSpec | None:
        return self.links.get((src, dst))

    @property
    def node_count(self) -> int:
        return len(self.servers) + len(self.ues)


# ---------------- construction ---------------- #

_TIER_KEYS = (("cloud", Tier.CLOUD), ("fog", Tier.FOG), ("edge", Tier.EDGE))


def integral(value, where: str, minimum: int | None = None) -> int:
    """A count read from a scenario document, at least `minimum` if given and
    at most `sys.maxsize`, so it fits an index or an array size. A number
    with a fractional part is an error, never truncated."""
    count = int(value) if isinstance(value, float) and value.is_integer() else value
    if not isinstance(count, int) or isinstance(count, bool):
        raise ScenarioSchemaError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and count < minimum:
        raise ScenarioSchemaError(f"{where} must be >= {minimum}, got {count}")
    if count > sys.maxsize:
        raise ScenarioSchemaError(f"{where} must be <= {sys.maxsize}, got {value!r}")
    return count


_FLOAT_MAX = sys.float_info.max


def real(value, where: str, minimum: float | None = None) -> float:
    """A finite number read from a scenario document, at least `minimum` if
    given. A string, a bool, null, NaN, an infinity or an integer too large
    for a float is an error, never cast."""
    if ((type(value) is float and isfinite(value))
            or (type(value) is int and -_FLOAT_MAX <= value <= _FLOAT_MAX)):
        if minimum is None or value >= minimum:
            return float(value)
        raise ScenarioSchemaError(f"{where} must be >= {minimum}, got {value}")
    raise ScenarioSchemaError(f"{where} must be a number, got {value!r}")


def boolean(value, where: str) -> bool:
    """A JSON true or false read from a scenario document, never cast."""
    if type(value) is not bool:
        raise ScenarioSchemaError(f"{where} must be true or false, got {value!r}")
    return value


def identifier(value, where: str) -> str:
    """One node id read from a scenario document: a JSON string, never an
    array, an object or a number."""
    if type(value) is not str:
        raise ScenarioSchemaError(f"{where} must be a node id, got {value!r}")
    return value


def identifiers(value, where: str) -> tuple[str, ...]:
    """Node ids read from a scenario document: a JSON array of strings,
    never an object's keys or a string's characters."""
    if type(value) is not list or not all(type(v) is str for v in value):
        raise ScenarioSchemaError(f"{where} must be an array of node ids, got {value!r}")
    return tuple(value)


def array(value, where: str) -> list:
    """A JSON array read from a scenario document, never a number, null,
    an object's keys or a string's characters."""
    if type(value) is not list:
        raise ScenarioSchemaError(f"{where} must be an array, got {value!r}")
    return value


# Marks a field table row whose key the document must carry.
REQUIRED = object()


def read_fields(entry: dict, table, prefix: str) -> dict:
    """The fields of one document object, keyed by name. A `table` row is
    `(key, reader, floor, default)`. A value that is the row's default, as
    an absent key's value is (or a null where the default is None), is taken
    as it is; a `REQUIRED` key has none. Any other value is read, in table
    order, as `reader(value, prefix + key[, floor])`, the floor passed only
    if not None, so the first defect in that order is the one raised."""
    fields = {}
    for key, read, floor, default in table:
        value = entry[key] if default is REQUIRED else entry.get(key, default)
        if value is default:
            fields[key] = value
        elif floor is None:
            fields[key] = read(value, prefix + key)
        else:
            fields[key] = read(value, prefix + key, floor)
    return fields


# The field tables of a server entry after its `id`, and of the numbers of a
# link and a D2D group, each in its record's field order, so a record is built
# from the values by position; `check_schema` takes their keys from them.
SERVER_FIELDS = (("compute_rate", real, None, REQUIRED), ("energy_per_cycle", real, 0, REQUIRED),
                 ("parent", identifier, None, None))
LINK_FIELDS = (("rate", real, None, REQUIRED), ("latency", real, 0, 0.0),
               ("energy_per_bit", real, 0, 0.0))
D2D_FIELDS = (("link_rate", real, None, REQUIRED), ("link_energy_per_bit", real, 0, 0.0))
# The field table of a device after its `id`; devices are read a column at a time.
UE_FIELDS = (("battery", real, 0, REQUIRED), ("compute_rate", real, None, REQUIRED),
             ("energy_per_cycle", real, 0, REQUIRED), ("tx_power", real, 0, REQUIRED),
             ("channel_gain", real, None, REQUIRED), ("channel_variance", real, 0, 0.0),
             ("mobile", boolean, None, False), ("attached_ap", identifier, None, REQUIRED),
             ("dataset_size", integral, 0, REQUIRED))
_KEPT = {real: float, integral: int, boolean: bool, identifier: str}  # returned as they are
_UNREADABLE = (KeyError, TypeError, AttributeError)  # a missing key, an entry that is no object


def _column(entries, key: str, default, read, as_is) -> tuple[list, Exception | None]:
    """Field `key` of every entry (`default` for an absent optional key), as it is if
    `as_is` accepts it, else each value `read` up to the first defect, and its error."""
    try:
        values = ([entry[key] for entry in entries] if default is REQUIRED
                  else [entry.get(key, default) for entry in entries])
        if as_is(values):
            return values, None
    except _UNREADABLE:  # read below, up to the entry that cannot be read
        pass
    values = []
    try:
        for entry in entries:
            values.append(read(entry[key] if default is REQUIRED else entry.get(key, default)))
    except (*_UNREADABLE, ScenarioSchemaError) as exc:
        return values, exc
    return values, None


def _as_read(values: list, read, floor) -> bool:
    """Whether `read` returns each of `values` as it is, by C-level passes: all of
    the type it keeps, finite floats or counts up to `sys.maxsize`, none below `floor`."""
    kept = _KEPT[read]
    return (set(map(type, values)) == {kept}
            and (kept is not float or all(map(isfinite, values)))
            and (kept is not int or max(values) <= sys.maxsize)
            and (floor is None or min(values) >= floor))


def build_topology(doc: dict) -> NetworkTopology:
    """Build and validate a topology from a parsed scenario document.

    Raises UnknownNodeReference / CycleInHierarchy / D2dDepthExceeded /
    CrossApD2dGroup on structural violations. Soft issues (a lower-tier node
    outcomputing an upper-tier one) are collected as warnings only.
    """
    nodes_doc = doc.get("nodes", {})
    servers: dict[str, ServerNode] = {}
    seen: set[str] = set()

    def claim(node_id):
        if not isinstance(node_id, str) or not node_id:
            raise ScenarioSchemaError(f"node id must be a non-empty string, got {node_id!r}")
        if node_id in seen:
            raise ScenarioSchemaError(f"duplicate node id {node_id!r}")
        seen.add(node_id)
        return node_id

    # a node's fields are read under their bare names, and an error is
    # prefixed with the node id, so no message is built for a valid field
    for key, tier in _TIER_KEYS:
        for entry in nodes_doc.get(key, []):
            node_id = claim(entry["id"])
            try:
                servers[node_id] = ServerNode(node_id, tier,
                                              *read_fields(entry, SERVER_FIELDS, "").values())
            except ScenarioSchemaError as exc:
                raise ScenarioSchemaError(f"{node_id}: {exc}") from None
    # devices are read a column per field, `id` then UE_FIELDS, and raise what a
    # device-by-device read raises: the first defective device's first defect
    entries = nodes_doc.get("ue", [])
    ids, first = _column(entries, "id", REQUIRED, claim, lambda col: set(map(type, col)) == {str}
                         and len(set(col).difference(seen, [""])) == len(col))
    devices, at = {"id": ids}, len(ids)
    for key, read, floor, default in UE_FIELDS:
        devices[key], defect = _column(
            entries, key, default,
            lambda value: read(value, key) if floor is None else read(value, key, floor),
            lambda col: _as_read(col, read, floor))
        if defect is not None and len(devices[key]) < at:
            at = len(devices[key])
            first = (ScenarioSchemaError(f"{ids[at]}: {defect}")
                     if isinstance(defect, ScenarioSchemaError) else defect)
    if first is not None:
        raise first
    # each profile is built from its row by position, as `UeProfile._make` does
    ues = dict(zip(ids, map(tuple.__new__, repeat(UeProfile),
                            zip(*map(devices.get, UeProfile._fields)))))

    _check_numeric_ranges(servers, devices)
    _check_hierarchy(servers, devices)
    links = _build_links(doc.get("links", []), servers)
    groups = _build_d2d_groups(doc.get("d2d_groups", []), ues)
    warnings = _compute_warnings(servers, devices)
    return NetworkTopology(servers, ues, groups, links, warnings)


def _check_numeric_ranges(servers, devices):
    for node in servers.values():
        if node.compute_rate <= 0:
            raise ScenarioSchemaError(f"{node.id}: compute_rate must be > 0")
    for key in ("compute_rate", "channel_gain"):
        if min(devices[key], default=1) <= 0:
            at = next(i for i, value in enumerate(devices[key]) if value <= 0)
            raise ScenarioSchemaError(f"{devices['id'][at]}: {key} must be > 0")


def _check_hierarchy(servers, devices):
    for node in servers.values():
        if node.tier is Tier.CLOUD:
            if node.parent is not None:
                raise CycleInHierarchy(f"cloud node {node.id!r} must not declare a parent")
            continue
        if node.parent is None:
            raise CycleInHierarchy(f"{node.tier.label} node {node.id!r} has no parent")
        parent = servers.get(node.parent)
        if parent is None:
            raise UnknownNodeReference(f"{node.id}: parent {node.parent!r} does not exist")
        if parent.tier != node.tier + 1:
            raise CycleInHierarchy(
                f"{node.id}: parent {node.parent!r} is at tier {parent.tier.label}, "
                f"expected {Tier(node.tier + 1).label}"
            )
    edges = {node.id for node in servers.values() if node.tier is Tier.EDGE}
    if edges.issuperset(devices["attached_ap"]):
        return
    for ue_id, ap_id in zip(devices["id"], devices["attached_ap"]):
        ap = servers.get(ap_id)
        if ap is None:
            raise UnknownNodeReference(f"{ue_id}: attached_ap {ap_id!r} does not exist")
        if ap.tier is not Tier.EDGE:
            raise CycleInHierarchy(
                f"{ue_id}: attached_ap {ap_id!r} is a {ap.tier.label} node, not edge")


def _build_links(link_entries, servers):
    links: dict[tuple[str, str], LinkSpec] = {}
    for i, entry in enumerate(link_entries):
        src = identifier(entry["src"], f"links[{i}].src")
        dst = identifier(entry["dst"], f"links[{i}].dst")
        for end in (src, dst):
            if end not in servers:
                raise UnknownNodeReference(f"link endpoint {end!r} is not a server node")
        spec = LinkSpec(src, dst, *read_fields(entry, LINK_FIELDS, f"link {src}-{dst}: ").values())
        if spec.rate <= 0:
            raise ScenarioSchemaError(f"link {src}-{dst}: rate must be > 0")
        # pipes are symmetric; register both directions
        links[(src, dst)] = spec
        links[(dst, src)] = LinkSpec(dst, src, spec.rate, spec.latency, spec.energy_per_bit)
    return links


def _build_d2d_groups(group_entries, ues):
    groups: list[D2dGroup] = []
    masters: set[str] = set()
    slaves: set[str] = set()
    for i, entry in enumerate(group_entries):
        master = identifier(entry["master"], f"d2d_groups[{i}].master")
        group_slaves = identifiers(entry["slaves"], f"d2d_groups[{i}].slaves")
        for member in (master,) + group_slaves:
            if member not in ues:
                raise UnknownNodeReference(f"d2d group member {member!r} is not a device node")
        if not group_slaves:
            raise ScenarioSchemaError(f"d2d group of {master!r} has no slaves")
        if master in group_slaves:
            raise ScenarioSchemaError(f"d2d group master {master!r} listed among its own slaves")
        where = f"d2d group of {master!r}: "
        group = D2dGroup(master, group_slaves, *read_fields(entry, D2D_FIELDS, where).values())
        if group.link_rate <= 0:
            raise ScenarioSchemaError(f"{where}link_rate must be > 0")
        groups.append(group)
        masters.add(master)
        for s in group_slaves:
            if s in slaves:
                raise ScenarioSchemaError(f"device {s!r} is a slave in more than one d2d group")
            slaves.add(s)
    deep = masters & slaves
    if deep:
        worst = sorted(deep)[0]
        raise D2dDepthExceeded(
            f"device {worst!r} is both a slave and a master; groups must stay single-hop"
        )
    for group in groups:
        aps = {ues[m].attached_ap for m in group.members()}
        if len(aps) > 1:
            raise CrossApD2dGroup(
                f"d2d group of {group.master!r} spans access points {sorted(aps)}"
            )
    return groups


def _compute_warnings(servers, devices):
    warnings = []
    by_tier: dict[Tier, list[float]] = {Tier.DEVICE: devices["compute_rate"]}
    for node in servers.values():
        by_tier.setdefault(node.tier, []).append(node.compute_rate)
    for tier in (Tier.CLOUD, Tier.FOG, Tier.EDGE):
        upper = by_tier.get(tier)
        lower = by_tier.get(Tier(tier - 1))
        if upper and lower and min(upper) < max(lower):
            warnings.append(
                f"compute-monotonic: some {tier.label} node is slower than a "
                f"{Tier(tier - 1).label} node ({min(upper):g} < {max(lower):g} cycles/s)"
            )
    return warnings


# ---------------- layer-span rule ---------------- #

def validate_layer_span(plan, topo: NetworkTopology) -> SpanViolation | None:
    """Check that a plan touches at most three of the four layers.

    A plan touches every tier between its lowest and highest role node,
    because traffic between them climbs the hierarchy through each tier in
    between (a cloud server training device clients works the whole stack).
    Returns None when the plan is fine, otherwise a SpanViolation with the
    touched tier set. Used as a filter, so violations are values, not
    exceptions.
    """
    touched = plan.tiers_touched(topo)
    if len(touched) <= 3:
        return None
    return SpanViolation(tiers=touched)
