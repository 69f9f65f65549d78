"""Alert unit: clamped running sum of classifier outputs, two-threshold
fatigue levels, and the alarm/escalation state machine.

The accumulator integrates +1/-1 classifier outputs and never drops below
zero. Crossing the lower threshold triggers a fixed-duration alarm cycle;
crossing the upper threshold escalates to vehicle-side actions. Time is an
integer tick count: tick n is stamped n * sample_period, and each duration
is turned into whole ticks by AlertConfig.ticks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Union


class FatigueLevel(enum.IntEnum):
    NONE = 0
    LOW = 1
    HIGH = 2

    @property
    def label(self) -> str:
        return {0: "None", 1: "Low", 2: "High"}[int(self)]


class EventKind(str, enum.Enum):
    ALARM_ON = "AlarmOn"
    ALARM_OFF = "AlarmOff"
    REDUCE_SPEED = "ReduceSpeed"
    STOP_VEHICLE = "StopVehicle"
    WATER_SPRAY = "WaterSpray"


@dataclass(frozen=True)
class ActuatorEvent:
    kind: EventKind
    t: float


@dataclass(frozen=True)
class FatigueAccumulator:
    """Running sum r of classifier outputs, clamped at zero."""

    r: int = 0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("accumulator requires r >= 0")


@dataclass(frozen=True)
class AlertConfig:
    """Thresholds and timing for the alert unit.

    t_low/t_high split the running sum into None/Low/High bands. A Low
    reading keeps the alarm ringing for alarm_duration seconds before the
    level is re-checked; a High reading escalates immediately and issues a
    vehicle stop after high_persist seconds in the High band.
    """

    t_low: int = 5
    t_high: int = 15
    alarm_duration: float = 10.0
    high_persist: float = 5.0
    water_spray: bool = False
    sample_period: float = 1.0
    realarm_on_recheck: bool = False

    def __post_init__(self):
        if not (1 <= self.t_low < self.t_high):
            raise ValueError("need 1 <= t_low < t_high")
        if not (self.alarm_duration > 0 and self.high_persist >= 0
                and 0 < self.sample_period * 2**53 < math.inf
                and math.isfinite(max(self.alarm_duration, self.high_persist)
                                  / self.sample_period)):
            raise ValueError("need alarm_duration > 0 and high_persist >= 0 "
                             "finite in ticks, and 2**53 ticks finite")

    def ticks(self, duration: float) -> int:
        """A duration in whole ticks: duration / sample_period rounded up,
        or to the nearest whole number when within float rounding of it."""
        q = duration / self.sample_period
        return round(q) if math.isclose(q, round(q)) else math.ceil(q)


@dataclass(frozen=True)
class Idle:
    def render(self, period: float) -> str:
        return "Idle"


@dataclass(frozen=True)
class LowAlarm:
    remaining: int  # ticks the alarm still rings before the re-check

    def render(self, period: float) -> str:
        return f"LowAlarm({_fmt(self.remaining * period)})"


@dataclass(frozen=True)
class HighAlert:
    held: int  # ticks in the High band since entry
    stop_issued: bool

    def render(self, period: float) -> str:
        return (f"HighAlert({_fmt(self.held * period)},"
                f"{int(self.stop_issued)})")


AlertState = Union[Idle, LowAlarm, HighAlert]

IDLE = Idle()


def _fmt(x: float) -> str:
    """A time or duration: an integer, or at most 15 significant digits."""
    return str(int(x)) if float(x) == int(x) else f"{float(x):.15g}"


def step(acc: FatigueAccumulator, label: int | None) -> FatigueAccumulator:
    """Advance the running sum by one classifier output: r' = max(0, r + s).
    A tick without an output (None) keeps the sum."""
    if label is None:
        return acc
    if label not in (1, -1):
        raise ValueError(f"label must be +1 or -1, got {label}")
    return FatigueAccumulator(max(0, acc.r + label))


def level(acc: FatigueAccumulator, config: AlertConfig) -> FatigueLevel:
    """Classify the running sum: High at r >= t_high, Low at r >= t_low."""
    if acc.r >= config.t_high:
        return FatigueLevel.HIGH
    if acc.r >= config.t_low:
        return FatigueLevel.LOW
    return FatigueLevel.NONE


def alert_step(state: AlertState, lvl: FatigueLevel, config: AlertConfig,
               now: float = 0.0) -> tuple[AlertState, list[ActuatorEvent]]:
    """Advance the alarm state machine by one tick.

    now is the tick's timestamp, stamped onto emitted events. High
    pre-empts everything; leaving HighAlert silences the alarm and re-enters
    through the Idle rules on the same tick.
    """
    events: list[ActuatorEvent] = []

    def emit(kind: EventKind) -> None:
        events.append(ActuatorEvent(kind, now))

    if lvl == FatigueLevel.HIGH:
        if isinstance(state, HighAlert):
            held, stop = state.held + 1, state.stop_issued
        else:
            if isinstance(state, Idle):
                emit(EventKind.ALARM_ON)
            emit(EventKind.REDUCE_SPEED)
            if config.water_spray:
                emit(EventKind.WATER_SPRAY)
            held, stop = 0, False
        if not stop and held >= config.ticks(config.high_persist):
            emit(EventKind.STOP_VEHICLE)
            stop = True
        return HighAlert(held, stop), events

    if isinstance(state, HighAlert):
        emit(EventKind.ALARM_OFF)
        state = IDLE

    if isinstance(state, Idle):
        if lvl == FatigueLevel.LOW:
            emit(EventKind.ALARM_ON)
            return LowAlarm(config.ticks(config.alarm_duration)), events
        return IDLE, events

    # LowAlarm: the alarm rings for the full duration, then re-check.
    if state.remaining > 1:
        return LowAlarm(state.remaining - 1), events
    if lvl == FatigueLevel.LOW:
        if config.realarm_on_recheck:
            emit(EventKind.ALARM_ON)
        return LowAlarm(config.ticks(config.alarm_duration)), events
    emit(EventKind.ALARM_OFF)
    return IDLE, events


@dataclass(frozen=True)
class TraceTick:
    """One tick: time, sum, level, state, folded label and its events."""

    t: float
    r: int
    level: FatigueLevel
    state: AlertState
    label: int | None
    events: tuple[ActuatorEvent, ...]


@dataclass
class Trace:
    """A run of the alert unit: its config and one TraceTick per tick."""

    config: AlertConfig
    ticks: list[TraceTick]

    @property
    def labels(self) -> list[int | None]:
        return [tick.label for tick in self.ticks]

    @property
    def events(self) -> list[ActuatorEvent]:
        return [ev for tick in self.ticks for ev in tick.events]

    def render(self) -> str:
        """The one text form, for diff-based golden tests: the config line,
        then per tick TICK, LABEL (+1, -1 or skip) and its EVENT lines."""
        c = self.config
        lines = ["# t_low=%d t_high=%d alarm_duration=%s high_persist=%s "
                 "water_spray=%d sample_period=%s" % (
                     c.t_low, c.t_high, _fmt(c.alarm_duration),
                     _fmt(c.high_persist), int(c.water_spray),
                     _fmt(c.sample_period))]
        for tick in self.ticks:
            t = _fmt(tick.t)
            label = "skip" if tick.label is None else f"{tick.label:+d}"
            lines.append(f"TICK {t} {tick.r} {tick.level.label} "
                         f"{tick.state.render(c.sample_period)}")
            lines.append(f"LABEL {t} {label}")
            lines.extend(f"EVENT {t} {ev.kind.value}" for ev in tick.events)
        return "\n".join(lines) + "\n"


def simulate(labels: Iterable[int | None], config: AlertConfig) -> Trace:
    """Fold step -> level -> alert_step over classifier outputs from rest.

    Outputs are drawn one at a time, so the alert step of one returns
    before the next is drawn (a stream's frame i is handled before frame
    i + 1 is read), and each gives one TraceTick. None is a tick without
    an output, such as a frame with no face: time advances and the running
    sum stays. An empty input gives an empty trace.
    """
    acc = FatigueAccumulator()
    state: AlertState = IDLE
    trace = Trace(config, [])
    for tick, label in enumerate(labels, start=1):
        t = tick * config.sample_period
        acc = step(acc, label)
        lvl = level(acc, config)
        state, evs = alert_step(state, lvl, config, now=t)
        trace.ticks.append(TraceTick(t, acc.r, lvl, state, label, tuple(evs)))
    return trace
