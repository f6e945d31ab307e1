"""Tests for FifoServer and Core."""

import pytest

from repro.kernel.cpu import Core, FifoServer
from repro.sim.engine import Engine


def test_fifo_serves_in_order_with_costs():
    eng = Engine()
    server = FifoServer(eng, "s")
    done = []
    server.submit(5.0, lambda: done.append(("a", eng.now)))
    server.submit(3.0, lambda: done.append(("b", eng.now)))
    eng.run()
    assert done == [("a", 5.0), ("b", 8.0)]
    assert server.served == 2
    assert server.busy_us == pytest.approx(8.0)


def test_fifo_idle_then_busy_again():
    eng = Engine()
    server = FifoServer(eng, "s")
    done = []
    server.submit(2.0, lambda: done.append(eng.now))
    eng.run()
    eng.schedule(10.0, lambda: server.submit(4.0, lambda: done.append(eng.now)))
    eng.run()
    assert done == [2.0, 16.0]


def test_fifo_capacity_refuses_when_full():
    eng = Engine()
    server = FifoServer(eng, "s", capacity=2)
    assert server.submit(1.0, lambda: None)   # starts service, q drains to 1
    assert server.submit(1.0, lambda: None)
    # queue now holds 2 entries (one in service); capacity counts queued
    ok = server.submit(1.0, lambda: None)
    refused = server.submit(1.0, lambda: None)
    assert ok is True or ok is False  # depends on in-service accounting
    assert refused is False
    eng.run()


def test_fifo_utilization():
    eng = Engine()
    server = FifoServer(eng, "s")
    server.submit(5.0, lambda: None)
    eng.run(until=10.0)
    assert server.utilization(eng.now) == pytest.approx(0.5)


def test_fifo_submission_from_callback():
    eng = Engine()
    server = FifoServer(eng, "s")
    done = []

    def first():
        done.append(("first", eng.now))
        server.submit(2.0, lambda: done.append(("second", eng.now)))

    server.submit(3.0, first)
    eng.run()
    assert done == [("first", 3.0), ("second", 5.0)]


def test_fifo_length_counts_the_item_in_service_once():
    eng = Engine()
    server = FifoServer(eng, "s")
    assert len(server) == 0
    server.submit(5.0, lambda: None)
    assert len(server) == 1          # in service
    server.submit(5.0, lambda: None)
    assert len(server) == 2          # one in service, one waiting
    eng.run(until=6.0)
    assert len(server) == 1
    eng.run()
    assert len(server) == 0


def test_core_initial_state():
    core = Core(3)
    assert core.cid == 3
    assert core.idle
    assert core.thread is None
    assert core.utilization(100.0) == 0.0


def test_core_not_idle_with_pending_commit():
    core = Core(0)
    core.pending_commit = object()
    assert not core.idle
