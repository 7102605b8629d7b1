"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for all simulator errors. `constraint` is the name
    `validate` files the error under; a type that breaks a named scenario
    rule overrides it."""

    constraint = "schema"


# ---------------- scenario / topology ---------------- #

class ScenarioParseError(SimulationError):
    """Scenario document is not valid JSON; carries line/column when known."""

    constraint = "parse"

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ScenarioSchemaError(SimulationError):
    """Scenario parsed but violates the documented schema (unknown/missing keys, bad types)."""


class UnknownNodeReference(SimulationError):
    """A node id referenced somewhere does not exist in the node inventory."""

    constraint = "reference"


class CycleInHierarchy(SimulationError):
    """Parent links do not form a strict one-tier-up hierarchy."""

    constraint = "hierarchy"


class D2dDepthExceeded(SimulationError):
    """A device group slave acts as a master elsewhere (multi-hop chain)."""

    constraint = "D2D-depth"


class CrossApD2dGroup(SimulationError):
    """Members of a device group attach to different access points."""

    constraint = "D2D-cross-cell"


# ---------------- radio ---------------- #

class NonPositiveBandwidth(SimulationError):
    pass


class NegativePower(SimulationError):
    pass


class MissingGain(SimulationError):
    """A cluster member has no channel gain entry."""


class ZeroRate(SimulationError):
    constraint = "uplink-rate"


# ---------------- model math ---------------- #

class EmptyWidths(SimulationError):
    """A model needs at least an input and an output width."""


class ShapeMismatch(SimulationError):
    pass


class StaleCache(SimulationError):
    """A backward pass was given a cache from a different model or segment."""


class EmptyInput(SimulationError):
    pass


class LengthMismatch(SimulationError):
    pass


# ---------------- engine ---------------- #

class TimestampInPast(SimulationError):
    """An event was scheduled before the current virtual clock."""


# ---------------- protocol execution ---------------- #

class SessionAborted(SimulationError):
    """A training session could not continue; carries the partial trace."""

    def __init__(self, reason, trace=None):
        self.reason = reason
        self.trace = trace
        super().__init__(reason)


class AllClientsDropped(SessionAborted):
    """Every client of a round dropped out; nothing left to aggregate."""


class SessionStalled(SessionAborted):
    """The event queue ran dry before the session recorded all its rounds."""


class MissingD2dLink(ScenarioSchemaError):
    """Direct relaying requested between devices that share no single-hop link."""

    constraint = "D2D-link"


class MissingBackhaulLink(ScenarioSchemaError):
    """A hop between two server nodes that no configured link joins."""

    constraint = "backhaul"


class MissingRadioCell(ScenarioSchemaError):
    """An uplink through an access point that has no resource blocks."""

    constraint = "radio-cell"


class NestedServerMismatch(SimulationError):
    """A nested sub-session is not anchored on the aggregating client itself."""


# ---------------- placement ---------------- #

class EmptyPool(SimulationError):
    """No candidate device survived the selection thresholds."""


class NoFeasiblePlan(SimulationError):
    """Every candidate plan violates the deadline or a structural constraint."""


# ---------------- cli ---------------- #

class UnsweepableParameter(SimulationError):
    """The requested sweep axis is not a known sweepable scalar or has no values."""
