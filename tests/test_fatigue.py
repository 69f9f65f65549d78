import itertools

import pytest
from hypothesis import given, strategies as st

from fatiguedet.fatigue import (
    IDLE,
    AlertConfig,
    EventKind,
    FatigueAccumulator,
    FatigueLevel,
    HighAlert,
    LowAlarm,
    alert_step,
    level,
    simulate,
    step,
)

CFG = AlertConfig()  # t_low=5, t_high=15, alarm 10s, persist 5s, 1s period

labels_seq = st.lists(st.sampled_from([1, -1]), min_size=1, max_size=40)
PERIODS = [0.1, 0.2, 0.25, 0.3, 0.5, 1 / 30, 1.0]


def ticks_of(trace, kind):
    """Tick numbers (from 1) of a kind's events: an event is on the tick
    that carries its time."""
    tick_at = {tick.t: n for n, tick in enumerate(trace.ticks, 1)}
    return [tick_at[ev.t] for ev in trace.events if ev.kind == kind]


def check_event_discipline(trace):
    """Alarm on/off alternation plus one-shot escalation per High episode."""
    alarm_on = False
    for ev in trace.events:
        if ev.kind == EventKind.ALARM_ON:
            assert not alarm_on, "AlarmOn while alarm already on"
            alarm_on = True
        elif ev.kind == EventKind.ALARM_OFF:
            assert alarm_on, "AlarmOff without preceding AlarmOn"
            alarm_on = False
    # split ticks into maximal HighAlert episodes
    episodes = []
    current = None
    for tick in trace.ticks:
        if isinstance(tick.state, HighAlert):
            if current is None:
                current = [tick.t, tick.t]
            current[1] = tick.t
        elif current is not None:
            episodes.append(tuple(current))
            current = None
    if current is not None:
        episodes.append(tuple(current))
    for t0, t1 in episodes:
        inside = [ev for ev in trace.events if t0 <= ev.t <= t1]
        reduces = [ev for ev in inside if ev.kind == EventKind.REDUCE_SPEED]
        stops = [ev for ev in inside if ev.kind == EventKind.STOP_VEHICLE]
        sprays = [ev for ev in inside if ev.kind == EventKind.WATER_SPRAY]
        assert len(reduces) == 1
        assert len(stops) <= 1
        assert len(sprays) <= 1
        if stops:
            assert stops[0].t > reduces[0].t, "stop must follow reduce"


class TestStep:
    def test_clamp_at_zero(self):
        assert step(FatigueAccumulator(0), -1).r == 0

    def test_increment(self):
        assert step(FatigueAccumulator(3), 1).r == 4

    @given(labels_seq)
    def test_never_negative(self, labels):
        acc = FatigueAccumulator()
        for s in labels:
            acc = step(acc, s)
            assert acc.r >= 0

    def test_exhaustive_recurrence_len14(self):
        # all 2^14 sequences against a direct evaluation of the recurrence
        for bits in range(1 << 14):
            seq = [1 if bits & (1 << i) else -1 for i in range(14)]
            acc = FatigueAccumulator()
            r = 0
            for s in seq:
                acc = step(acc, s)
                r = max(0, r + s)
                assert acc.r == r


class TestLevel:
    @pytest.mark.parametrize("r,expected", [
        (0, FatigueLevel.NONE),
        (CFG.t_low - 1, FatigueLevel.NONE),
        (CFG.t_low, FatigueLevel.LOW),
        (CFG.t_high - 1, FatigueLevel.LOW),
        (CFG.t_high, FatigueLevel.HIGH),
        (CFG.t_high + 10, FatigueLevel.HIGH),
    ])
    def test_bands(self, r, expected):
        assert level(FatigueAccumulator(r), CFG) == expected

    @given(st.integers(0, 60))
    def test_partition(self, r):
        lvl = level(FatigueAccumulator(r), CFG)
        matches = [r >= CFG.t_high,
                   CFG.t_low <= r < CFG.t_high,
                   r < CFG.t_low]
        assert matches.count(True) == 1
        assert [FatigueLevel.HIGH, FatigueLevel.LOW,
                FatigueLevel.NONE][matches.index(True)] == lvl


class TestAlertStep:
    def test_idle_quiescent(self):
        state, events = alert_step(IDLE, FatigueLevel.NONE, CFG, now=1.0)
        assert state == IDLE and events == []

    def test_low_alarm_cycle(self):
        # AlarmOn on entry; the alarm holds for the full 10 s of None-level
        # ticks and AlarmOff fires exactly at expiry
        state, events = alert_step(IDLE, FatigueLevel.LOW, CFG, now=1.0)
        assert state == LowAlarm(10)
        assert [e.kind for e in events] == [EventKind.ALARM_ON]
        for k in range(2, 11):
            state, events = alert_step(state, FatigueLevel.NONE, CFG,
                                       now=float(k))
            assert events == []
            assert isinstance(state, LowAlarm)
        state, events = alert_step(state, FatigueLevel.NONE, CFG,
                                   now=11.0)
        assert state == IDLE
        assert [e.kind for e in events] == [EventKind.ALARM_OFF]

    def test_low_restarts_without_new_alarm(self):
        state = LowAlarm(1)
        state, events = alert_step(state, FatigueLevel.LOW, CFG, now=5.0)
        assert state == LowAlarm(10)
        assert events == []

    def test_realarm_flag(self):
        cfg = AlertConfig(realarm_on_recheck=True)
        state, events = alert_step(LowAlarm(1), FatigueLevel.LOW, cfg,
                                   now=5.0)
        assert [e.kind for e in events] == [EventKind.ALARM_ON]

    def test_high_escalation_walk(self):
        # hand-walk: entry emits alarm+reduce, stop fires once the ticks
        # in the High band reach high_persist (5 ticks after entry)
        state, events = alert_step(IDLE, FatigueLevel.HIGH, CFG, now=1.0)
        assert [e.kind for e in events] == [EventKind.ALARM_ON,
                                            EventKind.REDUCE_SPEED]
        assert state == HighAlert(0, False)
        for k in range(2, 6):
            state, events = alert_step(state, FatigueLevel.HIGH, CFG,
                                       now=float(k))
            assert events == []
        # held reaches 5 on the 5th tick after entry
        assert state == HighAlert(4, False)
        state, events = alert_step(state, FatigueLevel.HIGH, CFG, now=6.0)
        assert [e.kind for e in events] == [EventKind.STOP_VEHICLE]
        assert state == HighAlert(5, True)
        # never repeats
        state, events = alert_step(state, FatigueLevel.HIGH, CFG, now=7.0)
        assert events == []

    def test_water_spray_once(self):
        cfg = AlertConfig(water_spray=True)
        state, events = alert_step(IDLE, FatigueLevel.HIGH, cfg, now=1.0)
        assert [e.kind for e in events] == [
            EventKind.ALARM_ON, EventKind.REDUCE_SPEED, EventKind.WATER_SPRAY]
        state, events = alert_step(state, FatigueLevel.HIGH, cfg, now=2.0)
        assert events == []

    def test_high_exit_reenters_same_tick(self):
        state = HighAlert(2, False)
        state, events = alert_step(state, FatigueLevel.LOW, CFG, now=9.0)
        assert [e.kind for e in events] == [EventKind.ALARM_OFF,
                                            EventKind.ALARM_ON]
        assert state == LowAlarm(10)
        state, events = alert_step(HighAlert(2, True), FatigueLevel.NONE,
                                   CFG, now=9.0)
        assert [e.kind for e in events] == [EventKind.ALARM_OFF]
        assert state == IDLE

    def test_low_alarm_interrupted_by_high(self):
        state, events = alert_step(LowAlarm(7), FatigueLevel.HIGH, CFG,
                                   now=4.0)
        # alarm already ringing: only the escalation events fire
        assert [e.kind for e in events] == [EventKind.REDUCE_SPEED]
        assert state == HighAlert(0, False)


class TestSimulate:
    def test_all_alert_is_quiet(self):
        trace = simulate([-1] * 30, CFG)
        assert all(t.r == 0 for t in trace.ticks)
        assert all(t.state == IDLE for t in trace.ticks)
        assert trace.events == []

    def test_alarm_fires_when_sum_reaches_threshold(self):
        trace = simulate([1] * 7, CFG)
        ons = [e for e in trace.events if e.kind == EventKind.ALARM_ON]
        assert len(ons) == 1 and ons[0].t == 5.0

    def test_trace_length_matches_input(self):
        assert len(simulate([1, -1, 1], CFG).ticks) == 3

    def test_empty_input_gives_empty_trace(self):
        trace = simulate([], CFG)
        assert (trace.ticks, trace.events, trace.labels) == ([], [], [])
        assert trace.render() == simulate([1], CFG).render().splitlines(
            keepends=True)[0]

    def test_none_tick_advances_time_only(self):
        # a generator, as infer_stream passes; a None tick keeps r
        trace = simulate((s for s in [1, None, 1, None, -1]), CFG)
        assert [(t.t, t.r) for t in trace.ticks] == [
            (1.0, 1), (2.0, 1), (3.0, 2), (4.0, 2), (5.0, 1)]
        assert trace.labels == [1, None, 1, None, -1]

    @given(st.lists(st.sampled_from([1, -1, None]), max_size=40))
    def test_each_tick_holds_its_label_and_events(self, labels):
        # the trace is its ticks: labels, events and the LABEL lines are
        # read from them, and a tick's events are what alert_step emitted
        cfg = AlertConfig(t_low=2, t_high=4, alarm_duration=3.0,
                          high_persist=2.0, water_spray=True,
                          sample_period=0.3)
        trace = simulate(labels, cfg)
        assert trace.labels == [tick.label for tick in trace.ticks] == labels
        assert trace.events == [ev for tick in trace.ticks
                                for ev in tick.events]
        acc, state = FatigueAccumulator(), IDLE
        for tick, label in zip(trace.ticks, labels, strict=True):
            acc = step(acc, label)
            state, evs = alert_step(state, level(acc, cfg), cfg, now=tick.t)
            assert tick.events == tuple(evs)
            assert all(ev.t == tick.t for ev in tick.events)
        lines = trace.render().splitlines()
        kinds = [line.split()[0] for line in lines[1:]]
        assert kinds.count("LABEL") == len(trace.ticks)
        assert all(b == "LABEL" for a, b in zip(kinds, kinds[1:])
                   if a == "TICK")

    def test_escalation_timing(self):
        # constant fatigue: alarm at t=5, reduce at t=15, stop at t=20
        trace = simulate([1] * 25, CFG)
        kinds = {e.kind: e.t for e in trace.events}
        assert kinds[EventKind.ALARM_ON] == 5.0
        assert kinds[EventKind.REDUCE_SPEED] == 15.0
        assert kinds[EventKind.STOP_VEHICLE] == 20.0

    @given(labels_seq)
    def test_determinism(self, labels):
        assert simulate(labels, CFG).render() == simulate(labels, CFG).render()

    @given(labels_seq)
    def test_event_discipline(self, labels):
        check_event_discipline(simulate(labels, CFG))

    def test_pointwise_dominance_exhaustive(self):
        # A >= B elementwise implies r_A(t) >= r_B(t); all pairs of length 7
        seqs = list(itertools.product([1, -1], repeat=7))
        trajs = {}
        for s in seqs:
            trajs[s] = [t.r for t in simulate(list(s), CFG).ticks]
        for a in seqs:
            for b in seqs:
                if all(x >= y for x, y in zip(a, b)):
                    assert all(x >= y for x, y in zip(trajs[a], trajs[b]))

    @given(labels_seq)
    def test_flip_to_fatigued_never_decreases(self, labels):
        base = [t.r for t in simulate(labels, CFG).ticks]
        for i, s in enumerate(labels):
            if s == -1:
                flipped = list(labels)
                flipped[i] = 1
                upper = [t.r for t in simulate(flipped, CFG).ticks]
                assert all(u >= b for u, b in zip(upper, base))
                break

    def test_render_golden(self):
        cfg = AlertConfig(t_low=2, t_high=4, alarm_duration=3.0,
                          high_persist=2.0)
        got = simulate([1, 1, -1, 1, 1, -1, -1, -1], cfg).render()
        expected = (
            "# t_low=2 t_high=4 alarm_duration=3 high_persist=2 "
            "water_spray=0 sample_period=1\n"
            "TICK 1 1 None Idle\n"
            "LABEL 1 +1\n"
            "TICK 2 2 Low LowAlarm(3)\n"
            "LABEL 2 +1\n"
            "EVENT 2 AlarmOn\n"
            "TICK 3 1 None LowAlarm(2)\n"
            "LABEL 3 -1\n"
            "TICK 4 2 Low LowAlarm(1)\n"
            "LABEL 4 +1\n"
            "TICK 5 3 Low LowAlarm(3)\n"
            "LABEL 5 +1\n"
            "TICK 6 2 Low LowAlarm(2)\n"
            "LABEL 6 -1\n"
            "TICK 7 1 None LowAlarm(1)\n"
            "LABEL 7 -1\n"
            "TICK 8 0 None Idle\n"
            "LABEL 8 -1\n"
            "EVENT 8 AlarmOff\n"
        )
        assert got == expected


class TestTickClock:
    def test_alarm_rings_ten_ticks_at_period_tenth(self):
        cfg = AlertConfig(t_low=3, t_high=10, alarm_duration=1.0,
                          sample_period=0.1)
        trace = simulate([1] * 3 + [-1] * 20, cfg)
        assert ticks_of(trace, EventKind.ALARM_ON) == [3]
        assert ticks_of(trace, EventKind.ALARM_OFF) == [13]

    @given(st.sampled_from(PERIODS), st.integers(1, 40), st.integers(0, 40))
    def test_durations_are_exact_in_ticks(self, period, k, m):
        # alarm_duration = k periods rings k ticks; high_persist = m
        # periods stops the vehicle m ticks after the speed reduction
        cfg = AlertConfig(t_low=1, t_high=2, alarm_duration=k * period,
                          high_persist=m * period, sample_period=period)
        low = simulate([1] + [-1] * (k + 3), cfg)
        assert ticks_of(low, EventKind.ALARM_ON) == [1]
        assert ticks_of(low, EventKind.ALARM_OFF) == [1 + k]
        high = simulate([1] * (m + 4), cfg)
        assert ticks_of(high, EventKind.REDUCE_SPEED) == [2]
        assert ticks_of(high, EventKind.STOP_VEHICLE) == [2 + m]

    def test_ticks_round_up_unless_whole_within_rounding(self):
        cfg = AlertConfig(sample_period=0.1)
        assert (0.3 / 0.1, 0.7 / 0.1) != (3, 7)
        assert [cfg.ticks(d) for d in (0.0, 0.3, 0.7, 1.0, 0.15, 0.21)] == \
            [0, 3, 7, 10, 2, 3]

    def test_tick_times_are_tick_times_period(self):
        # a running sum of 0.1 reads 0.7999999999999999 at tick 8
        trace = simulate([None] * 10, AlertConfig(sample_period=0.1))
        assert [t.t for t in trace.ticks] == [n * 0.1 for n in range(1, 11)]

    def test_render_prints_times_without_float_noise(self):
        # 3 * 0.3 is 0.8999999999999999: printed with 15 significant digits
        cfg = AlertConfig(t_low=3, t_high=10, alarm_duration=0.9,
                          sample_period=0.3)
        lines = simulate([1] * 4, cfg).render().splitlines()
        assert lines[5:8] == ["TICK 0.9 3 Low LowAlarm(0.9)",
                              "LABEL 0.9 +1", "EVENT 0.9 AlarmOn"]
        assert lines[8] == "TICK 1.2 4 Low LowAlarm(0.6)"


class TestConfigValidation:
    def test_durations_finite_in_ticks(self):
        # 10 s / 5e-324 s overflows to inf ticks
        with pytest.raises(ValueError):
            AlertConfig(sample_period=5e-324)
        with pytest.raises(ValueError):
            AlertConfig(high_persist=1e308, sample_period=1e-10)

    def test_threshold_order(self):
        with pytest.raises(ValueError):
            AlertConfig(t_low=5, t_high=5)

    def test_accumulator_invariants(self):
        with pytest.raises(ValueError):
            FatigueAccumulator(-1)
