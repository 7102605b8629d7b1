"""Seeded scenario generators and the three benchmark workloads.

Every workload is a closed loop: one client sends one operation, waits for
it, checks its outputs, then sends the next. The program under test only
ever sees the scenario documents generated here; each passes
`validate_document` before it is used. The seed perturbs node parameters
(compute rates, powers, gains, shard sizes) and the scenario's root seed,
but never the sizes below, so every seed does the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WIDTHS = [8, 16, 12, 8, 4]
BATCH = 16


@dataclass(frozen=True)
class FlWideSize:
    clients: int = 200
    blocks: int = 4
    rounds: int = 10
    local_iterations: int = 2


@dataclass(frozen=True)
class SplitLongSize:
    iterations: int = 1000


@dataclass(frozen=True)
class PlanWideSize:
    fogs: int = 4
    aps_per_fog: int = 4
    ues_per_ap: int = 32
    round_counts: tuple[int, ...] = (1, 4, 16)


FULL = {"fl_wide": FlWideSize(), "split_long": SplitLongSize(),
        "plan_wide": PlanWideSize()}
# small enough for the smoke test to finish in about a second per workload
TINY = {"fl_wide": FlWideSize(clients=12, rounds=2),
        "split_long": SplitLongSize(iterations=20),
        "plan_wide": PlanWideSize(fogs=2, aps_per_fog=2, ues_per_ap=6,
                                  round_counts=(1, 2))}

DEVICE_PROTOCOLS = ("fl", "sl_homogeneous", "sl_heterogeneous", "fedsplit_nested")
GRANT_MODES = ("noma_grant_based", "noma_grant_free")


def _seeds(rng: random.Random) -> dict:
    return {"root": rng.randrange(1, 2**31), "data": rng.randrange(1, 2**31),
            "model": rng.randrange(1, 2**31)}


def _ml(eval_every: int) -> dict:
    return {"widths": list(WIDTHS), "loss": "ce", "learning_rate": 0.05,
            "batch_size": BATCH, "cycles_per_mac": 1.0, "eval_every": eval_every,
            "test_size": 128}


def _radio(cells: dict, clusters: list) -> dict:
    return {"noise_density": 4e-21, "downlink_rate": 2e7, "signalling_delay": 0.01,
            "rx_energy_per_bit": 5e-11, "downlink_energy_per_bit": 1e-10,
            "cells": cells, "noma_clusters": clusters}


def _ue(rng: random.Random, ue_id: str, ap: str,
        compute: tuple[float, float] = (2e7, 4e7)) -> dict:
    # batteries far beyond what any run spends; static channels draw no outages
    return {"id": ue_id, "battery": 1e6,
            "compute_rate": rng.uniform(*compute), "energy_per_cycle": 2e-9,
            "tx_power": rng.uniform(0.1, 0.25),
            "channel_gain": rng.uniform(2e-7, 4e-7), "channel_variance": 0.0,
            "mobile": False, "attached_ap": ap,
            "dataset_size": rng.randrange(48, 65)}


def _cluster(members: list[dict], blocks: list[int]) -> dict:
    # cluster powers are the members' own (continuous, so distinct) tx powers
    return {"members": [m["id"] for m in members],
            "powers": [m["tx_power"] for m in members], "blocks": blocks}


def _one_cell(rng: random.Random, n_ue: int, blocks: int) -> tuple[dict, list[dict]]:
    ues = [_ue(rng, f"ue{i}", "ap0") for i in range(n_ue)]
    nodes = {
        "cloud": [{"id": "cloud0", "compute_rate": 5e9, "energy_per_cycle": 8e-10}],
        "fog": [{"id": "fog0", "compute_rate": 2e9, "energy_per_cycle": 6e-10,
                 "parent": "cloud0"}],
        "edge": [{"id": "ap0", "compute_rate": 5e8, "energy_per_cycle": 4e-10,
                  "parent": "fog0"}],
        "ue": ues,
    }
    links = [
        {"src": "cloud0", "dst": "fog0", "rate": 1e9, "latency": 0.002,
         "energy_per_bit": 2e-10},
        {"src": "fog0", "dst": "ap0", "rate": 5e8, "latency": 0.001,
         "energy_per_bit": 3e-10},
    ]
    cells = {"ap0": {"num_blocks": blocks, "block_bandwidth": 180000.0}}
    return {"nodes": nodes, "links": links, "cells": cells}, ues


def fl_wide_doc(seed: int, size: FlWideSize) -> dict:
    """FL with many device clients sharing one cell's few resource blocks."""
    rng = random.Random(f"fl_wide:{seed}")
    base, ues = _one_cell(rng, size.clients, size.blocks)
    cluster = _cluster(ues[:2], [size.blocks - 2, size.blocks - 1])
    return {
        "nodes": base["nodes"], "links": base["links"], "d2d_groups": [],
        "radio": _radio(base["cells"], [cluster]),
        "ml": _ml(eval_every=1),
        "seeds": _seeds(rng),
        "protocol": {"kind": "fl", "server": "ap0",
                     "clients": [u["id"] for u in ues],
                     "scheme": "noma_grant_based", "rounds": size.rounds,
                     "local_iterations": size.local_iterations},
    }


def split_long_doc(seed: int, size: SplitLongSize) -> dict:
    """Heterogeneous split learning over a slave-master-slave D2D chain."""
    rng = random.Random(f"split_long:{seed}")
    base, _ = _one_cell(rng, 3, 4)
    return {
        "nodes": base["nodes"], "links": base["links"],
        "d2d_groups": [{"master": "ue0", "slaves": ["ue1", "ue2"],
                        "link_rate": rng.uniform(6e6, 1e7),
                        "link_energy_per_bit": 3e-10}],
        "radio": _radio(base["cells"], []),
        "ml": _ml(eval_every=100),
        "seeds": _seeds(rng),
        "protocol": {"kind": "sl_heterogeneous", "server": "ap0",
                     "clients": ["ue1", "ue0", "ue2"], "boundaries": [1, 2, 3],
                     "relay": "d2d", "scheme": "oma_grant_based",
                     "iterations": size.iterations},
    }


_PLAN_BANDS = [(3.2e7, 3.4e7)] * 3 + [(2.9e7, 3.1e7)] * 2 + [(2.6e7, 2.8e7)] * 3 \
    + [(1.2e7, 2.5e7)]


def _plan_topology(rng: random.Random, size: PlanWideSize) -> dict:
    nodes = {"cloud": [{"id": "cloud0", "compute_rate": 5e9,
                        "energy_per_cycle": 8e-10}],
             "fog": [], "edge": [], "ue": []}
    links, groups, cells, clusters = [], [], {}, []
    for f in range(size.fogs):
        fog = f"fog{f}"
        nodes["fog"].append({"id": fog, "compute_rate": rng.uniform(1.5e9, 2.5e9),
                             "energy_per_cycle": 6e-10, "parent": "cloud0"})
        links.append({"src": "cloud0", "dst": fog, "rate": 1e9, "latency": 0.002,
                      "energy_per_bit": 2e-10})
        for a in range(size.aps_per_fog):
            ap = f"ap{f * size.aps_per_fog + a}"
            nodes["edge"].append({"id": ap, "compute_rate": rng.uniform(4e8, 6e8),
                                  "energy_per_cycle": 4e-10, "parent": fog})
            links.append({"src": fog, "dst": ap, "rate": 5e8, "latency": 0.001,
                          "energy_per_bit": 3e-10})
            cells[ap] = {"num_blocks": 8, "block_bandwidth": 180000.0}
            # Compute-rate bands fix which devices the selector pools at every
            # seed: the d2d group ue0-ue2 first, then the NOMA pair ue3-ue4,
            # then ue5-ue7; pool_size 8 keeps exactly these eight.
            ues = [_ue(rng, f"{ap}ue{i}", ap, compute=_PLAN_BANDS[min(i, 8)])
                   for i in range(size.ues_per_ap)]
            nodes["ue"].extend(ues)
            # the master sorts between its slaves, so the estimator's id-ordered
            # d2d chain for sl_heterogeneous has a link at every hop
            groups.append({"master": ues[1]["id"],
                           "slaves": [ues[0]["id"], ues[2]["id"]],
                           "link_rate": rng.uniform(6e6, 1e7),
                           "link_energy_per_bit": 3e-10})
            clusters.append(_cluster(ues[3:5], [6, 7]))
    return {"nodes": nodes, "links": links, "d2d_groups": groups,
            "radio": _radio(cells, clusters)}


def plan_wide_docs(seed: int, size: PlanWideSize) -> list[dict]:
    """One document per task in the grid: device protocol x grant mode x
    round count, all over the same generated four-tier topology."""
    rng = random.Random(f"plan_wide:{seed}")
    topo = _plan_topology(rng, size)
    seeds = _seeds(rng)
    slave_a, master, slave_b = "ap0ue0", "ap0ue1", "ap0ue2"
    docs = []
    for kind in DEVICE_PROTOCOLS:
        for scheme in GRANT_MODES:
            for count in size.round_counts:
                proto = {"kind": kind, "server": "ap0", "scheme": scheme}
                if kind == "fl":
                    proto.update(clients=["ap0ue3", "ap0ue4", "ap0ue5"], rounds=count,
                                 local_iterations=2)
                elif kind == "sl_homogeneous":
                    proto.update(clients=["ap0ue3", "ap0ue4", "ap0ue5"],
                                 iterations=count, cut_index=2)
                elif kind == "sl_heterogeneous":
                    proto.update(clients=[slave_a, master, slave_b],
                                 boundaries=[1, 2, 3], relay="d2d", iterations=count)
                else:
                    proto.update(clients=[master, "ap0ue3"], rounds=count,
                                 local_iterations=2, cut_index=2)
                docs.append({**topo, "ml": _ml(eval_every=0), "seeds": dict(seeds),
                             "placement": {"min_battery": 5.0,
                                           "min_compute_rate": 1e7,
                                           "min_channel_gain": 1e-7,
                                           "max_channel_variance": 0.5,
                                           "pool_size": 8},
                             "protocol": proto})
    return docs
