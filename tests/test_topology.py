"""Topology construction, hierarchy validation, and the layer-span rule."""

import math

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
from music_sim.topology import (
    Tier,
    UeProfile,
    boolean,
    build_topology,
    identifier,
    integral,
    real,
    validate_layer_span,
)


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


def test_a_wide_device_list_reads_as_each_reader_reads_it():
    """Ints for reals, integral floats for counts and absent optional fields,
    scattered over 40 devices, give the profiles that reading each value
    with its own reader gives, with the same value types."""
    doc = star_doc(40, second_cell=True)
    entries = doc["nodes"]["ue"]
    for i, entry in enumerate(entries):
        if i % 3 == 0:
            entry["battery"] = 5
        if i % 4 == 1:
            entry["dataset_size"] = 64.0
        if i % 5 == 2:
            del entry["channel_variance"]
        if i % 7 == 3:
            entry["mobile"] = True
        if i % 6 == 4:
            entry["compute_rate"] = 30_000_000
        if i % 2:
            entry["attached_ap"] = "ap1"
    expected = {e["id"]: UeProfile(
        e["id"], real(e["battery"], "battery", 0), real(e["compute_rate"], "compute_rate"),
        real(e["energy_per_cycle"], "energy_per_cycle", 0), real(e["tx_power"], "tx_power", 0),
        real(e["channel_gain"], "channel_gain"),
        real(e.get("channel_variance", 0.0), "channel_variance", 0),
        boolean(e.get("mobile", False), "mobile"), identifier(e["attached_ap"], "attached_ap"),
        integral(e["dataset_size"], "dataset_size", 0)) for e in entries}
    ues = build_topology(doc).ues
    assert list(ues.items()) == list(expected.items())
    assert [tuple(map(type, ue)) for ue in ues.values()] == \
        [tuple(map(type, ue)) for ue in expected.values()]
    assert {type(ue.battery) for ue in ues.values()} == {float}
    assert {type(ue.dataset_size) for ue in ues.values()} == {int}


_ABSENT = object()  # the key is deleted from the entry


@pytest.mark.parametrize("defects, error, message", [
    ({3: {"battery": "x"}, 7: {"tx_power": -1}},
     ScenarioSchemaError, "ue3: battery must be a number, got 'x'"),
    ({1: {"dataset_size": -1}, 5: {"battery": "x"}},
     ScenarioSchemaError, "ue1: dataset_size must be >= 0, got -1"),
    ({2: {"dataset_size": 1.5, "tx_power": None}},
     ScenarioSchemaError, "ue2: tx_power must be a number, got None"),
    ({2: {"energy_per_cycle": -1.0}, 4: {"id": "ue0"}},
     ScenarioSchemaError, "ue2: energy_per_cycle must be >= 0, got -1.0"),
    ({2: {"id": "ue1", "battery": "x"}}, ScenarioSchemaError, "duplicate node id 'ue1'"),
    ({1: {"battery": True}, 6: {"mobile": "yes"}},
     ScenarioSchemaError, "ue1: battery must be a number, got True"),
    ({1: {"compute_rate": math.nan}, 2: {"battery": -1}},
     ScenarioSchemaError, "ue1: compute_rate must be a number, got nan"),
    ({3: {"channel_gain": math.inf}, 4: {"channel_gain": -math.inf}},
     ScenarioSchemaError, "ue3: channel_gain must be a number, got inf"),
    ({1: {"tx_power": 10**400}, 2: {"tx_power": "x"}},
     ScenarioSchemaError, "ue1: tx_power must be a number, got 1" + "0" * 400),
    ({1: {"battery": _ABSENT}, 3: {"attached_ap": _ABSENT}}, KeyError, "'battery'"),
    ({2: {"dataset_size": _ABSENT}, 5: {"mobile": 1}}, KeyError, "'dataset_size'"),
    ({2: {"channel_variance": -0.5}, 5: {"id": _ABSENT}},
     ScenarioSchemaError, "ue2: channel_variance must be >= 0, got -0.5"),
    ({1: {"compute_rate": 0}, 5: {"battery": "x"}},
     ScenarioSchemaError, "ue5: battery must be a number, got 'x'"),
    ({1: {"channel_gain": 0.0}, 5: {"compute_rate": -2.0}},
     ScenarioSchemaError, "ue5: compute_rate must be > 0"),
    ({2: {"attached_ap": "fog0"}, 4: {"attached_ap": "nowhere"}},
     CycleInHierarchy, "ue2: attached_ap 'fog0' is a fog node, not edge"),
], ids=["two-bad-devices", "later-field-of-an-earlier-device", "two-bad-fields-in-one-device",
        "bad-field-before-a-duplicate-id", "duplicate-id-before-its-own-bad-field",
        "bool-in-a-real-field", "nan-in-a-real-field", "infinity-in-a-real-field",
        "huge-int-in-a-real-field", "missing-required-key", "missing-key-before-a-bad-field",
        "bad-field-before-a-missing-key", "ranges-after-every-read",
        "compute-rate-before-channel-gain", "non-edge-ap-before-an-unknown-one"])
def test_the_first_defective_device_reports_its_first_defect(defects, error, message):
    """With two defects, the error is the first device's (in document
    order), at its first defect: the id, then the fields in profile order;
    range and hierarchy checks run only after every device has been read."""
    doc = star_doc(8)
    for i, fields in defects.items():
        for key, value in fields.items():
            if value is _ABSENT:
                del doc["nodes"]["ue"][i][key]
            else:
                doc["nodes"]["ue"][i][key] = value
    with pytest.raises(Exception) as caught:
        build_topology(doc)
    assert type(caught.value) is error
    assert str(caught.value) == message
