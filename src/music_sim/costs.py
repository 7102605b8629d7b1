"""Closed-form cost primitives shared by execution and planning.

Both the event-driven protocol runners and the placement estimator price
work through these functions, so a plan's predicted cost and the simulated
cost of the same schedule come from one set of formulas rather than two
drifting copies.

Conventions: multiply-accumulate counts follow layer fan-in times fan-out;
a backward pass costs twice the forward pass; one training iteration is
forward plus backward (three forward-equivalents). Values on the wire are
32 bits each. Parameter updates are not charged as compute.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .errors import ZeroRate
from .topology import LinkSpec

BITS_PER_VALUE = 32


def fold_sum(values):
    """`values` added left to right from 0, as `sum` adds floats before
    Python 3.12, which compensates their rounding, so totals keep their bits."""
    return reduce(add, values, 0)


# ---------------- work sizes ---------------- #

def param_count_of(widths) -> int:
    return sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))


def forward_macs_per_sample(widths, start: int = 0, end: int | None = None) -> int:
    """Multiply-accumulates of one forward pass over layers [start, end)."""
    if end is None:
        end = len(widths) - 1
    return sum(widths[l] * widths[l + 1] for l in range(start, end))


def forward_macs(widths, batch: int, start: int = 0, end: int | None = None) -> int:
    return batch * forward_macs_per_sample(widths, start, end)


def training_macs(widths, batch: int) -> int:
    """Forward plus backward (twice forward) over one minibatch."""
    return 3 * forward_macs(widths, batch)


def aggregation_macs(n_updates: int, param_count: int) -> int:
    """Weighted-averaging work at an aggregator."""
    return n_updates * param_count


# ---------------- payload sizes ---------------- #

def model_bits(widths) -> int:
    return BITS_PER_VALUE * param_count_of(widths)


def activation_bits(batch: int, width: int) -> int:
    """A batch of activations (or activation gradients) at one cut."""
    return BITS_PER_VALUE * batch * width


def label_bits(batch: int) -> int:
    return BITS_PER_VALUE * batch


# ---------------- cost formulas ---------------- #

def compute_cost(macs: float, cycles_per_mac: float, compute_rate: float,
                 energy_per_cycle: float) -> tuple[float, float]:
    """(latency, energy) of running `macs` multiply-accumulates on one node."""
    if compute_rate <= 0:
        raise ZeroRate(f"compute_rate must be > 0, got {compute_rate!r}")
    cycles = macs * cycles_per_mac
    return cycles / compute_rate, cycles * energy_per_cycle


def pipe_cost(bits: float, rate: float, energy_per_bit: float) -> tuple[float, float]:
    """(latency, energy) over a fixed-rate pipe charged per bit: device-to-device
    hops, the downlink, and wired backhaul all price this way."""
    if bits < 0:
        raise ValueError("bits must be >= 0")
    if bits == 0:
        return 0.0, 0.0
    if rate <= 0:
        raise ZeroRate(f"link rate must be > 0, got {rate!r}")
    return bits / rate, bits * energy_per_bit


def link_cost(bits: float, link: LinkSpec) -> tuple[float, float]:
    """(latency, energy) over a backhaul pipe: fixed latency plus serialization."""
    latency, energy = pipe_cost(bits, link.rate, link.energy_per_bit)
    if bits == 0:
        return 0.0, 0.0
    return link.latency + latency, energy
