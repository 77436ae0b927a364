"""The discrete-event engine: ordering, cancellation, timers, RNG, and
the GC pause around a run."""

import contextlib
import gc
import weakref

import pytest

from conftest import make_multipath, mptcp_transfer, random_payload
from repro.sim import Simulator, Timer
from repro.sim.rng import SeededRNG


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.schedule(3.0, order.append, "latest")
        sim.run()
        assert order == ["early", "late", "latest"]

    def test_simultaneous_events_run_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_run_until_resumable(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run(until=10.0)
        assert fired == ["a", "b"]

    def test_nested_scheduling(self):
        sim = Simulator()
        hits = []

        def outer():
            hits.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner():
            hits.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert hits == [("outer", 1.0), ("inner", 2.0)]

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "no")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_call_soon_runs_after_pending_same_time(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: (order.append("first"), sim.call_soon(order.append, "soon")))
        sim.schedule(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second", "soon"]

    def test_step_runs_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.run(max_events=1) == 1
        assert fired == [1]
        assert sim.run(max_events=1) == 1
        assert sim.run(max_events=1) == 0

    def test_pending_counts_live_events(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1

    def test_max_events_bound(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    @pytest.mark.parametrize(
        "bound, rejected",
        [({"until": 2.0}, True), ({"max_events": 0}, False)],
        ids=["until-in-the-past", "zero-event-budget"],
    )
    def test_run_bound_never_rewinds_or_overruns(self, bound, rejected):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, 5)
        sim.schedule(8.0, fired.append, 8)
        sim.run(until=6.0)
        if rejected:
            with pytest.raises(ValueError):
                sim.run(**bound)
        else:
            assert sim.run(**bound) == 0
        assert sim.now == 6.0
        assert fired == [5]
        with pytest.raises(ValueError):
            sim.schedule_at(3.0, fired.append, 3)
        assert sim.run(until=6.0) == 0  # until == now stays legal
        sim.run()
        assert fired == [5, 8]

    def test_events_run_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_run == 4


def _boom():
    raise RuntimeError("callback failed")


class TestGCPause:
    """run() pauses the cyclic collector, restores the state it found and
    never forces a collection."""

    # How each run ends: until break, event budget, drained queue, and a
    # callback that raises.
    ENDINGS = {
        "until": dict(until=2.0),
        "max_events": dict(max_events=1),
        "drained": dict(),
        "raises": dict(),
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("ending", list(ENDINGS))
    def test_run_restores_gc_state_without_full_collection(self, gc_watch, ending, enabled):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.schedule(3.0, lambda: seen.append(gc.isenabled()))
        raises = ending == "raises"
        if raises:
            sim.schedule(2.0, _boom)
        gc_watch.arm(enabled)
        with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
            sim.run(**self.ENDINGS[ending])
        assert gc.isenabled() is enabled
        assert seen and not any(seen)  # paused while events ran
        assert 2 not in gc_watch.started

    def test_finished_network_is_reclaimed_by_the_collector(self):
        # No collection is forced after a run, so a finished Network's
        # cycles are left to the normal collector; a global reference
        # that pins it would be a leak.
        payload = random_payload(40_000, seed=5)
        net, client, server = make_multipath(seed=3)
        result = mptcp_transfer(net, client, server, payload, duration=10.0)
        assert bytes(result.received) == payload
        net_ref, sim_ref = weakref.ref(net), weakref.ref(net.sim)
        del net, client, server, result
        gc.collect()
        assert net_ref() is None
        assert sim_ref() is None


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]

    def test_stop_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(True))
        timer.start(2.0)
        timer.stop()
        sim.run()
        assert fired == []

    def test_restart_replaces_expiry(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run(until=1.0)
        timer.restart(2.0)
        sim.run()
        assert fired == [3.0]

    def test_double_start_raises(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        with pytest.raises(RuntimeError):
            timer.start(1.0)

    def test_running_and_expiry_introspection(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.running
        timer.start(3.0)
        assert timer.running
        assert timer.expires_at == 3.0
        sim.run()
        assert not timer.running

    def test_timer_can_restart_itself_from_callback(self):
        sim = Simulator()
        count = []

        def tick():
            count.append(sim.now)
            if len(count) < 3:
                timer.restart(1.0)

        timer = Timer(sim, tick)
        timer.start(1.0)
        sim.run()
        assert count == [1.0, 2.0, 3.0]


class TestSeededRNG:
    def test_same_seed_same_stream(self):
        a = SeededRNG(7, "x")
        b = SeededRNG(7, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_different_streams(self):
        a = SeededRNG(7, "x")
        b = SeededRNG(7, "y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_is_deterministic(self):
        a = SeededRNG(7, "root").fork("child")
        b = SeededRNG(7, "root").fork("child")
        assert a.getrandbits(64) == b.getrandbits(64)

    def test_fork_independent_of_parent_consumption(self):
        parent1 = SeededRNG(7, "root")
        parent1.random()  # consume some
        child1 = parent1.fork("child")
        child2 = SeededRNG(7, "root").fork("child")
        assert child1.getrandbits(32) == child2.getrandbits(32)

    def test_chance_extremes(self):
        rng = SeededRNG(1, "c")
        assert rng.chance(1.0) is True
        assert rng.chance(0.0) is False

    def test_chance_rate_roughly_correct(self):
        rng = SeededRNG(1, "rate")
        hits = sum(rng.chance(0.3) for _ in range(10_000))
        assert 2700 < hits < 3300
