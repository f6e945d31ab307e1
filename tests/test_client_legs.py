"""The open-loop generator's client legs cost no engine event of their own.

``OpenLoopGenerator`` sends a request at its NIC arrival (one event for
the send and the wire) and books a receipt at delivery when nothing can
observe the receipt's clock.  These tests hold it against a reference
model in which each leg is an event of its own — a send event that posts
the NIC arrival one wire later, and a receipt event one wire after
delivery — and against the generator's own receipt-event path (an
``on_latency`` callback forces it): every simulated output is the same,
the final clock included, and the engine's event count differs by
exactly the legs folded.
"""

from math import inf
from types import SimpleNamespace

import pytest

from repro import Hook
from repro.experiments import figure_oversub
from repro.experiments.runner import RocksDbTestbed
from repro.net.packet import Packet
from repro.policies.builtin import SCAN_AVOID
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import GET_ONLY, GET_SCAN_995_005
from repro.workload.requests import Request

DURATION_US = 20_000.0
WARMUP_US = 4_000.0
WIRE_US = 5.0   # set_a()'s one-way wire


class Recording(OpenLoopGenerator):
    """The generator under test, keeping every request it is handed back."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.delivered = []

    def deliver_response(self, request):
        self.delivered.append(request)
        super().deliver_response(request)


class TwoEventModel(Recording):
    """The reference model: one engine event per client leg.

    A send event at the send time builds the request and posts its NIC
    arrival one wire later; a receipt event one wire after delivery books
    it.  ``stop()`` is a flag every later send event tests."""

    def start(self):
        self._stopped = False
        self.engine.post(self._gap_us(), self._arrival)
        return self

    def stop(self):
        self._stopped = True

    def _arrival(self):
        engine = self.engine
        now = engine.now
        if self._stopped or now >= self.duration_us:
            return
        rng = self.rng
        self._next_rid += 1
        rtype, service_us = self.mix.sample(self.service_rng)
        key = rng.getrandbits(self._key_bits)
        while key >= self.key_space:
            key = rng.getrandbits(self._key_bits)
        request = Request(
            self._next_rid, rtype, service_us,
            user_id=self.user_id, key=key,
            key_hash=(key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF,
            tenant=self.tenant,
        )
        request.sent_at = now
        index = rng.getrandbits(self._flow_bits)
        while index >= self._num_flows:
            index = rng.getrandbits(self._flow_bits)
        packet = Packet(self.flows[index], None, now, request)
        self.sent.add(now, rtype)
        machine = self.machine
        engine.post(machine.costs.wire_us, machine.nic.receive, packet)
        engine.post(self._gap_us(), self._arrival)

    def deliver_response(self, request):
        self.delivered.append(request)
        self.engine.post(
            self.machine.costs.wire_us, self._client_receive, request)


def observe(request, latency_us):
    """An ``on_latency`` that reads nothing but makes receipts events."""


def stage(model=Recording, rate_rps=150_000, seed=3, on_latency=None):
    """The dark path's staging: SCAN Avoid at SOCKET_SELECT over six
    RocksDB threads, 20 ms of load.  Returns ``(machine, gen)``, started
    and not run."""
    testbed = RocksDbTestbed(
        policy=(SCAN_AVOID, Hook.SOCKET_SELECT, {"NUM_THREADS": 6}),
        mark_scans=True, num_threads=6, seed=seed,
    )
    gen = model(testbed.machine, testbed.port, rate_rps, GET_SCAN_995_005,
                duration_us=DURATION_US, warmup_us=WARMUP_US)
    gen.on_latency = on_latency
    testbed.server.response_sink = gen.deliver_response
    return testbed.machine, gen.start()


def outputs(machine, *gens):
    """Every simulated output a generator books, and the final clock."""
    return {
        "now": machine.engine.now,
        "gens": [{
            "samples": list(gen.latency._samples),
            "by_tag": {t: list(v) for t, v in gen.latency._by_tag.items()},
            "sent": gen.sent.total(),
            "drop_fraction": gen.drop_fraction(),
            "sent_at": [r.sent_at for r in gen.delivered],
            "completed_at": [r.completed_at for r in gen.delivered],
        } for gen in gens],
    }


def booked_inline(gen):
    """Receipts an ``on_latency``-free generator books with no event:
    those inside its send window."""
    return sum(1 for r in gen.delivered if r.completed_at < gen.duration_us)


def sends(gen):
    return gen._next_rid


def send_times(gen):
    """Send times of every delivered request, in send order."""
    return sorted(r.sent_at for r in gen.delivered)


# ----------------------------------------------------------------------
def test_inline_receipts_equal_receipt_events():
    inline = stage()
    events = stage(on_latency=observe)
    for machine, _gen in (inline, events):
        machine.run()
    assert outputs(*inline) == outputs(*events)
    gen = inline[1]
    assert len(gen.delivered) > 2000
    # the run's last receipts fall past the send window and stay events
    assert 0 < booked_inline(gen) < len(gen.delivered)
    assert (events[0].engine.events_dispatched
            - inline[0].engine.events_dispatched) == booked_inline(gen)


def test_folded_legs_equal_one_event_per_leg():
    folded = stage()
    model = stage(TwoEventModel)
    for machine, _gen in (folded, model):
        machine.run()
    assert outputs(*folded) == outputs(*model)
    machine, gen = folded
    # one event saved per send and one per inline receipt; the model's
    # last, empty send event is matched by an empty event at its time,
    # or by nothing when the last NIC arrival already lies past it
    saved = (model[0].engine.events_dispatched
             - machine.engine.events_dispatched)
    assert saved - sends(gen) - booked_inline(gen) in (0, 1)
    # four events a request: the send at its NIC arrival, IRQ delivery,
    # softirq service and the thread's run event
    assert machine.engine.events_dispatched / sends(gen) == pytest.approx(
        4.0, abs=0.01)


def test_sliced_run_equals_whole_run():
    whole = stage()
    whole[0].run()
    delivered = whole[1].delivered
    # slice inside (send, NIC arrival) windows, where the send has
    # happened and its event has not fired, and inside receipt windows
    cuts = sorted(
        [delivered[i].sent_at + WIRE_US / 2 for i in (7, 700, 1400)]
        + [delivered[i].completed_at - WIRE_US / 2 for i in (300, 1800)]
    )
    assert 0 < cuts[0] and cuts[-1] < DURATION_US
    sliced = stage()
    for cut in cuts:
        sliced[0].run(until=cut)
        assert sliced[0].engine.now == cut
    sliced[0].run()
    assert outputs(*sliced) == outputs(*whole)
    assert (sliced[0].engine.events_dispatched
            == whole[0].engine.events_dispatched)


def test_second_start_raises():
    machine, gen = stage()
    with pytest.raises(RuntimeError, match="already started"):
        gen.start()
    machine.run()
    # one arrival chain: the configured load, not twice it
    assert sends(gen) == pytest.approx(150_000 * DURATION_US / 1e6, rel=0.05)


def test_two_generators_fold_their_legs_independently(monkeypatch):
    """figure_oversub's staging: a ghOSt and a CFS tenant, each with its
    own generator and envelope, and the elastic controller moving cores
    at its ticks.  Each chain covers its own inline receipts."""

    def run_oversub(model, on_latency=None):
        monkeypatch.setattr(figure_oversub, "OpenLoopGenerator", model)
        machine, *gens, _controller = figure_oversub.stage_variant(
            "elastic", 25_000, 10.0, DURATION_US, 2_000.0, seed=5)
        monkeypatch.undo()
        for gen in gens:
            gen.on_latency = on_latency
        machine.run()
        arbiter = machine.arbiter
        arbiter.settle()
        result = outputs(machine, *gens)
        result.update(moves=arbiter.moves, occupancy=[
            arbiter.occupancy_us(t) for t in ("search", "batch")])
        return result, machine.engine.events_dispatched, gens

    folded, folded_events, gens = run_oversub(Recording)
    forced, forced_events, _ = run_oversub(Recording, observe)
    model, model_events, _ = run_oversub(TwoEventModel)
    assert folded == model
    assert forced == model
    inline = sum(booked_inline(gen) for gen in gens)
    assert inline > 0 and forced_events - folded_events == inline
    assert (model_events - folded_events - inline
            - sum(sends(gen) for gen in gens)) in (0, 1, 2)


# ----------------------------------------------------------------------
# The ends of the send chain
# ----------------------------------------------------------------------
def test_the_chain_ends_at_the_first_send_time_past_the_window():
    """At 2 K rps the first send time at or after ``duration_us`` lies
    past every receipt: the run's final clock is that time, held by an
    empty event, as the model's last, empty send event holds it."""
    folded = stage(rate_rps=2_000)
    model = stage(TwoEventModel, rate_rps=2_000)
    for machine, _gen in (folded, model):
        machine.run()
    machine, gen = folded
    last_receipt = max(r.completed_at for r in gen.delivered)
    assert machine.engine.now == gen._send_at > last_receipt
    assert gen._send_at >= DURATION_US
    assert outputs(*folded) == outputs(*model)


def test_stop_spares_a_send_already_on_the_wire():
    """``stop()`` between a send and its NIC arrival: that send went out
    before the stop and still arrives; the next send time is past the
    stop and is never sent."""
    whole = stage()
    whole[0].run()
    sent = send_times(whole[1])
    # a send whose successor comes after its NIC arrival
    pick = next(i for i in range(500, len(sent) - 1)
                if sent[i + 1] > sent[i] + WIRE_US)
    on_the_wire = sent[pick]
    stop_at = on_the_wire + WIRE_US / 2
    runs = []
    for model in (Recording, TwoEventModel):
        machine, gen = stage(model)
        machine.run(until=stop_at)
        gen.stop()
        machine.run()
        runs.append((machine, gen))
    (machine, gen), model = runs
    assert outputs(machine, gen) == outputs(*model)
    assert max(r.sent_at for r in gen.delivered) == on_the_wire
    assert sends(gen) == pick + 1


class FakeNic:
    """A zero-cost server: each request is answered at its NIC arrival,
    and every arrival after ``drop_after`` is lost."""

    def __init__(self, engine):
        self.engine = engine
        self.gen = None
        self.drop_after = inf

    def receive(self, packet):
        if self.engine.now <= self.drop_after:
            self.gen.deliver_response(packet.request)


def fake_run(model, stop_at=None, rate_rps=1_000_000):
    """200 us of load against a :class:`FakeNic`; with ``stop_at``, stop
    there and lose every later arrival."""
    engine = Engine()
    machine = SimpleNamespace(engine=engine, streams=RngStreams(11),
                              costs=SimpleNamespace(wire_us=WIRE_US),
                              nic=FakeNic(engine))
    gen = model(machine, 80, rate_rps, GET_ONLY, duration_us=200.0)
    machine.nic.gen = gen
    gen.start()
    if stop_at is not None:
        engine.run(until=stop_at)
        machine.nic.drop_after = stop_at
        gen.stop()
    engine.run()
    return machine, gen


def test_stop_keeps_the_final_clock():
    """A receipt booked inline before ``stop()`` but due after it is the
    run's last instant: nothing else is left (later arrivals are lost and
    the next send time is past the stop), so only the empty event
    ``stop()`` leaves at that receipt's time ends the run there, as the
    model's receipt event does."""
    _machine, whole = fake_run(Recording)
    sent = [r.sent_at for r in whole.delivered]
    for k in range(20, len(sent) - 1):
        # stop just after send k's response, before its receipt, with no
        # send arriving in between
        arrival = sent[k] + WIRE_US
        later = [s + WIRE_US for s in sent if s + WIRE_US > arrival]
        stop_at = arrival + (min(later) - arrival) / 2
        machine, gen = fake_run(Recording, stop_at)
        receipt = arrival + WIRE_US
        if gen._send_at < receipt and sent[k + 1] < stop_at:
            break
    else:
        pytest.fail("no stop time leaves a booked receipt last")
    model = fake_run(TwoEventModel, stop_at)
    assert machine.engine.now == receipt == model[0].engine.now
    assert outputs(machine, gen) == outputs(*model)


def test_stop_anywhere_books_what_receipt_events_book():
    """Stopped at twenty instants (some exactly at a send time, some with
    the pending send past the stop), the generator books what its
    receipt-event path books and what the model books, final clock
    included."""
    whole = stage()
    whole[0].run()
    sent = send_times(whole[1])
    pending_past_stop = 0
    for i in range(50, 2050, 100):
        stop_at = sent[i] + (i % 7) * 0.9
        runs = []
        for model, on_latency in ((Recording, None), (Recording, observe),
                                  (TwoEventModel, None)):
            machine, gen = stage(model, on_latency=on_latency)
            machine.run(until=stop_at)
            if model is Recording and on_latency is None:
                pending_past_stop += gen._send_at > stop_at
            gen.stop()
            machine.run()
            runs.append(outputs(machine, gen))
        folded, forced, model = runs
        assert folded == forced == model
    assert pending_past_stop > 0


def test_stop_drops_a_pending_send_at_its_nic_arrival():
    """The one place the model and the generator part: a send pending
    past the stop time is dropped by the model at its send time and by
    the generator at its NIC arrival, ``wire_us`` later.  When that event
    is the run's last, the final clock reads it; every booked output is
    still the model's."""
    _machine, whole = fake_run(Recording, rate_rps=200_000)
    sent = send_times(whole)
    # a gap longer than the wire: stop after send k has arrived and been
    # answered, before send k + 1
    k = next(k for k in range(5, len(sent) - 1)
             if sent[k + 1] - sent[k] > 2 * WIRE_US)
    stop_at = sent[k] + 1.5 * WIRE_US
    machine, gen = fake_run(Recording, stop_at, rate_rps=200_000)
    model = fake_run(TwoEventModel, stop_at, rate_rps=200_000)
    assert gen._send_at == sent[k + 1]
    assert machine.engine.now == sent[k + 1] + WIRE_US
    assert model[0].engine.now == sent[k + 1]
    assert outputs(machine, gen)["gens"] == outputs(*model)["gens"]
