"""Access-network model: rates, access delays, transmission costs.

Covers orthogonal access (one device per resource block), non-orthogonal
uplink clusters decoded by successive cancellation, grant-based vs grant-free
access delays, and the fixed-rate downlink pipe. Device-to-device hops bypass
all of this and are costed straight from their group parameters.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

from .costs import fold_sum
from .errors import (
    MissingGain,
    MissingRadioCell,
    NegativePower,
    NonPositiveBandwidth,
    ScenarioSchemaError,
    UnknownNodeReference,
    ZeroRate,
)
from .topology import (REQUIRED, NetworkTopology, UeProfile, array, identifiers, integral,
                       read_fields, real)

logger = logging.getLogger(__name__)


class SchemeKind(str, Enum):
    OMA_GRANT_BASED = "oma_grant_based"
    OMA_GRANT_FREE = "oma_grant_free"
    NOMA_GRANT_BASED = "noma_grant_based"
    NOMA_GRANT_FREE = "noma_grant_free"

    @property
    def grant_free(self) -> bool:
        return self in (SchemeKind.OMA_GRANT_FREE, SchemeKind.NOMA_GRANT_FREE)

    @property
    def noma(self) -> bool:
        return self in (SchemeKind.NOMA_GRANT_BASED, SchemeKind.NOMA_GRANT_FREE)


@dataclass(frozen=True)
class AccessScheme:
    """Uplink access kind plus the signalling delay it pays per transmission."""

    kind: SchemeKind
    signalling_delay: float = 0.0

    def __post_init__(self):
        if self.signalling_delay < 0:
            raise ScenarioSchemaError("signalling_delay must be >= 0")
        if self.kind.grant_free and self.signalling_delay != 0.0:
            raise ScenarioSchemaError("grant-free schemes have zero signalling delay")


@dataclass(frozen=True)
class ResourceBlock:
    index: int
    bandwidth: float  # hertz

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise NonPositiveBandwidth(f"block {self.index}: bandwidth must be > 0")


class CellBlocks(Sequence):
    """The resource blocks of one parsed cell, all of one bandwidth. A block
    is built the first time it is read and then kept, so a cell costs what
    its blocks in use cost, however many it declares."""

    __slots__ = ("_count", "_bandwidth", "_built")

    def __init__(self, num_blocks: int, block_bandwidth: float):
        self._count = num_blocks
        self._bandwidth = block_bandwidth
        # block 0 is built now, so a bad bandwidth is refused while parsing
        self._built = {0: ResourceBlock(0, block_bandwidth)}

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> ResourceBlock:
        block = self._built.get(index)
        if block is None:
            if not 0 <= index < self._count:
                raise IndexError(f"block {index} not in a cell of {self._count}")
            block = self._built[index] = ResourceBlock(index, self._bandwidth)
        return block


@dataclass(frozen=True)
class NomaCluster:
    """Devices sharing one block set, separated at the receiver by power."""

    members: tuple[tuple[str, float], ...]  # (node id, tx power), ordered
    blocks: tuple[ResourceBlock, ...]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ScenarioSchemaError("a noma cluster needs at least 2 members")
        if not self.blocks:
            raise ScenarioSchemaError("a noma cluster needs at least one resource block")
        powers = [p for _, p in self.members]
        if any(p <= 0 for p in powers):
            raise NegativePower("cluster member powers must be > 0")
        if len(set(powers)) != len(powers):
            raise ScenarioSchemaError("cluster member powers must be pairwise distinct")
        ids = [m for m, _ in self.members]
        if len(set(ids)) != len(ids):
            raise ScenarioSchemaError("cluster members must be distinct")

    @property
    def total_bandwidth(self) -> float:
        return fold_sum(b.bandwidth for b in self.blocks)

    def member_ids(self) -> tuple[str, ...]:
        return tuple(m for m, _ in self.members)

    def power_of(self, node_id: str) -> float:
        for member, power in self.members:
            if member == node_id:
                return power
        raise UnknownNodeReference(f"{node_id!r} is not a member of this cluster")


# ---------------- rate and cost primitives ---------------- #

def shannon_rate(bandwidth: float, rx_power: float, noise_density: float,
                 interference: float = 0.0) -> float:
    """Achievable rate in bits/second for a single link.

    rate = bandwidth * log2(1 + rx_power / (noise_density * bandwidth + interference))
    """
    if bandwidth <= 0:
        raise NonPositiveBandwidth(f"bandwidth must be > 0, got {bandwidth!r}")
    if noise_density * bandwidth <= 0:  # also when the product underflows
        raise NonPositiveBandwidth(f"noise power over {bandwidth!r} Hz must be > 0, "
                                   f"got noise_density {noise_density!r}")
    if rx_power < 0 or interference < 0:
        raise NegativePower("rx_power and interference must be >= 0")
    sinr = rx_power / (noise_density * bandwidth + interference)
    return bandwidth * math.log2(1.0 + sinr)


def noma_uplink_rates(cluster: NomaCluster, gains: dict[str, float],
                      noise_density: float) -> dict[str, float]:
    """Per-member uplink rates under successive interference cancellation.

    Members are decoded in descending received power (tx power times gain);
    the member decoded at position k only sees interference from members
    decoded after it. Exact received-power ties are broken by node id and
    logged as a note. The rates telescope so that their sum equals
    B*log2(1 + sum(p*g)/(N0*B)).
    """
    for member in cluster.member_ids():
        if member not in gains:
            raise MissingGain(f"no channel gain for cluster member {member!r}")
    bandwidth = cluster.total_bandwidth
    received = [(member, power * gains[member]) for member, power in cluster.members]
    by_power = sorted(received, key=lambda item: (-item[1], item[0]))
    powers_only = [p for _, p in received]
    if len(set(powers_only)) != len(powers_only):
        logger.info("tie in received power inside cluster %s; broke by node id",
                    cluster.member_ids())
    rates: dict[str, float] = {}
    for k, (member, rx) in enumerate(by_power):
        interference = fold_sum(p for _, p in by_power[k + 1:])
        rates[member] = shannon_rate(bandwidth, rx, noise_density, interference)
    # report in cluster member order
    return {member: rates[member] for member in cluster.member_ids()}


def access_delay(scheme: AccessScheme) -> float:
    """Latency overhead of getting on the channel; zero for grant-free kinds,
    which `AccessScheme` holds to a zero signalling delay."""
    return scheme.signalling_delay


def tx_cost(bits: int, rate: float, tx_power: float,
            scheme: AccessScheme) -> tuple[float, float]:
    """(latency, energy) of one uplink transmission.

    Latency includes the scheme's access delay; energy only covers payload
    airtime (signalling handshakes are latency-only). An empty payload costs
    nothing.
    """
    if bits < 0:
        raise ValueError("bits must be >= 0")
    if bits == 0:
        return 0.0, 0.0
    if rate <= 0:
        raise ZeroRate(f"transmission rate must be > 0, got {rate!r}")
    airtime = bits / rate
    return access_delay(scheme) + airtime, tx_power * airtime


def draw_channel_gain(ue: UeProfile, rng=None) -> float:
    """Channel gain for one transmission.

    Static channels (variance 0) always return the mean. Otherwise the gain
    is log-normal around the mean (mean-preserving) with the profile's
    log-gain variance, drawn from the given generator.
    """
    if ue.channel_variance == 0.0:
        return ue.channel_gain
    if rng is None:
        raise ValueError(f"{ue.id}: varying channel needs an rng stream")
    sigma = math.sqrt(ue.channel_variance)
    z = rng.standard_normal()
    return ue.channel_gain * math.exp(sigma * z - 0.5 * ue.channel_variance)


# ---------------- scenario-level radio environment ---------------- #

# The field tables of the `radio` numbers and of one cell, as `read_fields`
# reads them; `check_schema` takes their keys from them.
RADIO_FIELDS = (("noise_density", real, None, REQUIRED), ("downlink_rate", real, None, REQUIRED),
                ("signalling_delay", real, None, 0.0), ("rx_energy_per_bit", real, 0, 0.0),
                ("downlink_energy_per_bit", real, 0, 0.0))
CELL_FIELDS = (("num_blocks", integral, 1, REQUIRED), ("block_bandwidth", real, None, REQUIRED))

@functools.cache  # schemes are frozen, so one per (kind, delay) serves every caller
def _scheme(kind: SchemeKind | str, signalling_delay: float) -> AccessScheme:
    kind = SchemeKind(kind)
    return AccessScheme(kind=kind, signalling_delay=0.0 if kind.grant_free else signalling_delay)


@dataclass
class RadioEnv:
    """Radio parameters of one scenario: noise, per-cell blocks, clusters."""

    noise_density: float  # watts/hertz
    cells: dict[str, Sequence[ResourceBlock]]
    downlink_rate: float  # bits/second, server-to-device pipe
    signalling_delay: float = 0.0  # paid by grant-based schemes
    rx_energy_per_bit: float = 0.0  # joules/bit at any receiver
    downlink_energy_per_bit: float = 0.0  # joules/bit at the sending server
    clusters: tuple[NomaCluster, ...] = ()
    _cluster_of: dict[str, NomaCluster] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.noise_density <= 0:
            raise ScenarioSchemaError("radio.noise_density must be > 0")
        if self.downlink_rate <= 0:
            raise ScenarioSchemaError("radio.downlink_rate must be > 0")
        for cluster in self.clusters:
            for member in cluster.member_ids():
                if member in self._cluster_of:
                    raise ScenarioSchemaError(
                        f"device {member!r} appears in more than one noma cluster")
                self._cluster_of[member] = cluster

    @classmethod
    def from_doc(cls, doc: dict, topo: NetworkTopology) -> "RadioEnv":
        cells: dict[str, CellBlocks] = {}
        for ap_id, cell in doc.get("cells", {}).items():
            if ap_id not in topo.servers:
                raise UnknownNodeReference(f"radio cell {ap_id!r} is not a server node")
            cells[ap_id] = CellBlocks(**read_fields(cell, CELL_FIELDS, f"cell {ap_id!r}: "))
        clusters = []
        for i, entry in enumerate(doc.get("noma_clusters", [])):
            members = identifiers(entry["members"], f"radio.noma_clusters[{i}].members")
            powers = tuple(real(p, f"noma cluster {members}: power")
                           for p in array(entry["powers"], f"radio.noma_clusters[{i}].powers"))
            if len(members) != len(powers):
                raise ScenarioSchemaError("noma cluster: members and powers differ in length")
            aps = set()
            for member in members:
                if member not in topo.ues:
                    raise UnknownNodeReference(
                        f"noma cluster member {member!r} is not a device node")
                aps.add(topo.ues[member].attached_ap)
            if len(aps) != 1:
                raise ScenarioSchemaError(
                    f"noma cluster {members} spans access points {sorted(aps)}")
            ap = aps.pop()
            cell_blocks = cells.get(ap)
            if cell_blocks is None:
                raise ScenarioSchemaError(f"noma cluster {members}: cell {ap!r} has no blocks")
            blocks = []
            for index in array(entry["blocks"], f"radio.noma_clusters[{i}].blocks"):
                index = integral(index, f"noma cluster {members}: block", 0)
                if index >= len(cell_blocks):
                    raise ScenarioSchemaError(
                        f"noma cluster {members}: block {index} not in cell {ap!r}")
                if cell_blocks[index] in blocks:
                    raise ScenarioSchemaError(
                        f"radio.noma_clusters[{i}].blocks lists block {index} twice")
                blocks.append(cell_blocks[index])
            clusters.append(NomaCluster(members=tuple(zip(members, powers)),
                                        blocks=tuple(blocks)))
        return cls(cells=cells, clusters=tuple(clusters),
                   **read_fields(doc, RADIO_FIELDS, "radio."))

    def scheme(self, kind: SchemeKind | str) -> AccessScheme:
        return _scheme(kind, self.signalling_delay)

    def blocks_of(self, ap_id: str) -> Sequence[ResourceBlock]:
        blocks = self.cells.get(ap_id)
        if blocks is None:
            raise MissingRadioCell(f"no radio.cells entry for {ap_id!r}")
        return blocks

    def block_for(self, ap_id: str, slot: int) -> ResourceBlock:
        """Round-robin block assignment for orthogonal uplinks."""
        blocks = self.blocks_of(ap_id)
        return blocks[slot % len(blocks)]

    def cluster_of(self, node_id: str) -> NomaCluster | None:
        return self._cluster_of.get(node_id)

    def oma_uplink_rate(self, block: ResourceBlock, tx_power: float, gain: float) -> float:
        return shannon_rate(block.bandwidth, tx_power * gain, self.noise_density)

    def cluster_rates(self, cluster: NomaCluster, gains: dict[str, float]) -> dict[str, float]:
        return noma_uplink_rates(cluster, gains, self.noise_density)
