"""Topology construction, hierarchy validation, and the layer-span rule."""

import pytest

from conftest import star_doc, star_topology
from music_sim.errors import (
    CrossApD2dGroup,
    CycleInHierarchy,
    D2dDepthExceeded,
    ScenarioSchemaError,
    UnknownNodeReference,
)
from music_sim.placement import TrainingPlan, TrainingTask
from music_sim.radio import AccessScheme, SchemeKind
from music_sim.topology import Tier, build_topology, validate_layer_span


def test_tier_ordering():
    assert Tier.DEVICE < Tier.EDGE < Tier.FOG < Tier.CLOUD
    assert Tier(Tier.EDGE + 1) is Tier.FOG


def test_build_star(topo3):
    assert topo3.node_count == 6
    assert topo3.tier_of("cloud0") is Tier.CLOUD
    assert topo3.tier_of("ue1") is Tier.DEVICE
    assert set(topo3.ues_of_ap("ap0")) == {"ue0", "ue1", "ue2"}
    assert topo3.children_of("fog0") == ("ap0",)


def test_links_are_symmetric(topo3):
    fwd = topo3.link_between("fog0", "ap0")
    rev = topo3.link_between("ap0", "fog0")
    assert fwd is not None and rev is not None
    assert fwd.rate == rev.rate and fwd.latency == rev.latency
    assert topo3.link_between("ap0", "cloud0") is None


def test_duplicate_node_id_rejected():
    doc = star_doc(2)
    doc["nodes"]["ue"].append(dict(doc["nodes"]["ue"][0]))
    with pytest.raises(ScenarioSchemaError, match="duplicate"):
        build_topology(doc)


def test_missing_parent_rejected():
    doc = star_doc(1)
    doc["nodes"]["edge"][0]["parent"] = "nowhere"
    with pytest.raises(UnknownNodeReference):
        build_topology(doc)


def test_wrong_tier_parent_rejected():
    # a fog node whose parent is an edge node inverts the hierarchy
    doc = star_doc(1)
    doc["nodes"]["fog"][0]["parent"] = "ap0"
    with pytest.raises(CycleInHierarchy):
        build_topology(doc)


def test_cloud_with_parent_rejected():
    doc = star_doc(1)
    doc["nodes"]["cloud"][0]["parent"] = "fog0"
    with pytest.raises(CycleInHierarchy):
        build_topology(doc)


def test_ue_attached_to_non_edge_rejected():
    doc = star_doc(1)
    doc["nodes"]["ue"][0]["attached_ap"] = "fog0"
    with pytest.raises(CycleInHierarchy):
        build_topology(doc)


def test_negative_battery_rejected():
    doc = star_doc(1)
    doc["nodes"]["ue"][0]["battery"] = -1.0
    with pytest.raises(ScenarioSchemaError):
        build_topology(doc)


def test_d2d_link_master_slave_only():
    topo = star_topology(3, d2d=True)
    assert topo.d2d_link("ue0", "ue1") is not None
    assert topo.d2d_link("ue2", "ue0") is not None
    # slave to slave has to bounce through the master
    assert topo.d2d_link("ue1", "ue2") is None
    assert topo.d2d_link("ue0", "ue0") is None


def test_d2d_link_carries_group_parameters():
    topo = star_topology(2, d2d=True)
    link = topo.d2d_link("ue0", "ue1")
    assert link.rate == 8e6
    assert link.energy_per_bit == 3e-10
    assert link.latency == 0.0


def test_d2d_two_hop_rejected():
    # ue1 is a slave of ue0 and a master of ue2: one hop too deep
    doc = star_doc(3)
    doc["d2d_groups"] = [
        {"master": "ue0", "slaves": ["ue1"], "link_rate": 1e6},
        {"master": "ue1", "slaves": ["ue2"], "link_rate": 1e6},
    ]
    with pytest.raises(D2dDepthExceeded):
        build_topology(doc)


def test_d2d_cross_cell_rejected():
    doc = star_doc(2, second_cell=True)
    doc["nodes"]["ue"][1]["attached_ap"] = "ap1"
    doc["d2d_groups"] = [{"master": "ue0", "slaves": ["ue1"], "link_rate": 1e6}]
    with pytest.raises(CrossApD2dGroup):
        build_topology(doc)


def test_d2d_slave_in_two_groups_rejected():
    doc = star_doc(3)
    doc["d2d_groups"] = [
        {"master": "ue0", "slaves": ["ue2"], "link_rate": 1e6},
        {"master": "ue1", "slaves": ["ue2"], "link_rate": 1e6},
    ]
    with pytest.raises(ScenarioSchemaError):
        build_topology(doc)


def test_slower_upper_tier_is_warning_not_error():
    doc = star_doc(1)
    doc["nodes"]["edge"][0]["compute_rate"] = 1e6  # slower than the device
    topo = build_topology(doc)
    assert any("compute-monotonic" in w for w in topo.warnings)


def _plan(topo, roles):
    task = TrainingTask(protocol="fl", widths=(4, 3), rounds=1, local_iterations=1,
                        batch_size=4)
    scheme = AccessScheme(SchemeKind.OMA_GRANT_BASED, 0.01)
    return TrainingPlan(task=task, roles=roles, ma_scheme=scheme)


def test_layer_span_three_layers_ok(topo3):
    plan = _plan(topo3, {"fog0": "server", "ap0": "relay", "ue0": "client"})
    assert validate_layer_span(plan, topo3) is None


def test_layer_span_four_layers_violates(topo3):
    plan = _plan(topo3, {"cloud0": "server", "ue0": "client"})
    violation = validate_layer_span(plan, topo3)
    assert violation is not None
    # traffic between cloud and device climbs through fog and edge too
    assert violation.tiers == frozenset(
        {Tier.DEVICE, Tier.EDGE, Tier.FOG, Tier.CLOUD})


def test_layer_span_counts_intermediate_tiers(topo3):
    # fog + device spans three layers because edge sits in between
    plan = _plan(topo3, {"fog0": "server", "ue0": "client"})
    assert validate_layer_span(plan, topo3) is None
    plan = _plan(topo3, {"cloud0": "server", "ap0": "client"})
    assert validate_layer_span(plan, topo3) is None


def test_layer_span_single_node(topo3):
    plan = _plan(topo3, {"fog0": "server"})
    assert validate_layer_span(plan, topo3) is None


def test_node_group_and_link_records_are_immutable():
    topo = star_topology(3, d2d=True)
    records = [(topo.ues["ue0"], "battery"), (topo.servers["ap0"], "compute_rate"),
               (topo.d2d_groups[0], "link_rate"), (topo.links[("fog0", "ap0")], "rate")]
    for record, field in records:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        with pytest.raises(AttributeError):
            record.note = "x"
        assert getattr(record, field) == before
    assert topo.ues["ue0"].tier is Tier.DEVICE
    assert topo.d2d_groups[0].members() == ("ue0", "ue1", "ue2")


@pytest.mark.parametrize("node_id, message", [
    ("ue0", "duplicate node id 'ue0'"),
    ("ap0", "duplicate node id 'ap0'"),
    ("", "node id must be a non-empty string, got ''"),
    (7, "node id must be a non-empty string, got 7"),
    (["ue9"], "node id must be a non-empty string, got ['ue9']"),
])
def test_a_device_id_is_claimed_like_a_server_id(node_id, message):
    doc = star_doc(2)
    doc["nodes"]["ue"][1]["id"] = node_id
    with pytest.raises(ScenarioSchemaError) as caught:
        build_topology(doc)
    assert str(caught.value) == message
