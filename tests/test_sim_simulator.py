"""Tests for the discrete-event simulation core."""

import pytest

from repro.sim import Simulation


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulation()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulation()
        fired = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run_until(1.0)
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulation()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [5.0]
        assert sim.now == 10.0  # clock rests at the requested horizon

    def test_negative_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(2.0, lambda: None)

    def test_run_backwards_rejected(self):
        sim = Simulation()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.run_until(1.0)

    def test_events_scheduled_during_events(self):
        sim = Simulation()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        sim.run_until(3.0)
        assert fired == ["outer", "inner"]

    def test_zero_delay_event_runs_after_current(self):
        sim = Simulation()
        fired = []

        def outer():
            sim.call_soon(lambda: fired.append("soon"))
            fired.append("outer")

        sim.schedule(1.0, outer)
        sim.run_until(1.0)
        assert fired == ["outer", "soon"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulation()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run_until(2.0)
        assert fired == []
        assert handle.cancelled

    def test_cancel_after_fire_is_noop(self):
        sim = Simulation()
        handle = sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        handle.cancel()  # should not raise


class TestRunModes:
    def test_run_for_tiles(self):
        sim = Simulation()
        stamps = []
        for i in range(1, 6):
            sim.schedule(float(i), lambda i=i: stamps.append(i))
        sim.run_for(2.0)
        assert stamps == [1, 2]
        sim.run_for(2.0)
        assert stamps == [1, 2, 3, 4]

    def test_run_until_idle_drains(self):
        sim = Simulation()
        count = [0]

        def chain(depth):
            count[0] += 1
            if depth > 0:
                sim.schedule(1.0, lambda: chain(depth - 1))

        sim.schedule(0.0, lambda: chain(5))
        processed = sim.run_until_idle()
        assert count[0] == 6
        assert processed == 6

    def test_max_events_bound(self):
        sim = Simulation()
        for i in range(10):
            sim.schedule(1.0, lambda: None)
        processed = sim.run_until(1.0, max_events=3)
        assert processed == 3
        assert sim.pending_events == 7

        # A capped run leaves the clock at the last event run, so the
        # next event never moves it backwards.
        sim = Simulation()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: fired.append((t, sim.now)))
        assert sim.run_until(10.0, max_events=1) == 1
        assert sim.now == 1.0 and sim.pending_events == 2
        assert sim.step() and sim.now == 2.0
        assert sim.run_until(10.0) == 1
        assert sim.now == 10.0
        assert fired == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_step_returns_false_when_empty(self):
        assert Simulation().step() is False

    def test_events_processed_counter(self):
        sim = Simulation()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run_until(10.0)
        assert sim.events_processed == 4


class TestRngStreams:
    def test_streams_are_deterministic(self):
        a = Simulation(seed=7).rng("x").random()
        b = Simulation(seed=7).rng("x").random()
        assert a == b

    def test_streams_are_independent(self):
        sim = Simulation(seed=7)
        first = sim.rng("a").random()
        sim2 = Simulation(seed=7)
        sim2.rng("b").random()  # draw from an unrelated stream first
        second = sim2.rng("a").random()
        assert first == second

    def test_different_seeds_differ(self):
        assert Simulation(seed=1).rng("x").random() != Simulation(seed=2).rng("x").random()

    def test_same_stream_is_cached(self):
        sim = Simulation()
        assert sim.rng("s") is sim.rng("s")


class TestDeterminism:
    def test_full_simulation_reproducibility(self):
        def run() -> list:
            sim = Simulation(seed=99)
            trace = []

            def tick(n):
                trace.append((round(sim.now, 6), n))
                if n < 20:
                    sim.schedule(sim.rng("t").uniform(0.1, 1.0), lambda: tick(n + 1))

            sim.schedule(0.0, lambda: tick(0))
            sim.run_until(60.0)
            return trace

        assert run() == run()
