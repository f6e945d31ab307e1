"""Tests for request mixes and the open-loop generator."""

import random

import pytest

from repro import Machine, set_a
from repro.apps.rocksdb import RocksDbServer
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import (
    GET_ONLY,
    GET_PARETO,
    GET_SCAN_50_50,
    GET_SCAN_995_005,
    BoundedPareto,
    RequestMix,
)
from repro.workload.requests import GET, SCAN, Request, type_name
from repro.workload.weather import DiurnalSine, FlashCrowd


def test_mix_weights_normalized():
    mix = RequestMix("m", [(GET, 3, (1, 1)), (SCAN, 1, (2, 2))])
    weights = dict((r, w) for r, w, _ in mix.components)
    assert weights[GET] == pytest.approx(0.75)
    assert weights[SCAN] == pytest.approx(0.25)


def test_mix_sample_distribution():
    rng = random.Random(1)
    draws = [GET_SCAN_50_50.sample(rng)[0] for _ in range(4000)]
    frac_scan = draws.count(SCAN) / len(draws)
    assert 0.45 < frac_scan < 0.55


def test_mix_service_ranges():
    rng = random.Random(2)
    for _ in range(500):
        rtype, service = GET_SCAN_995_005.sample(rng)
        if rtype == GET:
            assert 10.0 <= service <= 12.0
        else:
            assert 650.0 <= service <= 750.0


def test_mix_mean_service():
    assert GET_ONLY.mean_service_us() == pytest.approx(11.0)


def test_mix_validation():
    with pytest.raises(ValueError):
        RequestMix("empty", [])
    with pytest.raises(ValueError):
        RequestMix("zero", [(GET, 0, (1, 1))])


def test_request_latency_property():
    req = Request(1, GET, 10.0)
    assert req.latency_us is None
    req.sent_at = 5.0
    req.completed_at = 25.0
    assert req.latency_us == 20.0
    assert type_name(GET) == "GET"
    assert type_name(99) == "type-99"


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------
def make_gen(rate=100_000, duration=50_000, **kwargs):
    machine = Machine(set_a(), seed=9)
    app = machine.register_app("app", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 6)
    gen = OpenLoopGenerator(machine, 8080, rate, GET_ONLY,
                            duration_us=duration, **kwargs)
    server.response_sink = gen.deliver_response
    return machine, gen


def test_generator_rate_is_approximately_right():
    machine, gen = make_gen(rate=100_000, duration=100_000)
    gen.start()
    machine.run()
    sent = gen.sent_in_window()
    assert 8_000 < sent < 12_000  # 100K RPS x 0.1 s = 10K +/- noise


def test_generator_open_loop_conservation():
    machine, gen = make_gen()
    gen.start()
    machine.run()
    assert gen.completed_in_window() <= gen.sent_in_window()
    assert gen.drop_fraction() == pytest.approx(
        1.0 - gen.completed_in_window() / gen.sent_in_window()
    )


def test_generator_latency_includes_both_wire_trips():
    machine, gen = make_gen(rate=1_000, duration=20_000)
    gen.start()
    machine.run()
    min_latency = min(gen.latency._samples)
    # 2 x wire (5) + NIC + stack + service(>=10)
    assert min_latency > 2 * machine.costs.wire_us + 10.0


def test_generator_flows_limited_pool():
    machine, gen = make_gen(num_flows=5)
    assert len(gen.flows) == 5
    assert all(f.dst_port == 8080 for f in gen.flows)


def test_generator_user_id_stamped():
    machine, gen = make_gen(rate=2_000, duration=10_000, user_id=7)
    seen = []
    original = gen.deliver_response

    def spy(request):
        seen.append(request.user_id)
        original(request)

    # rebind sink through the server
    machine.syrupd.apps["app"]  # app exists
    gen.start()
    machine.run()
    # stamped on the wire: check sent counter exists and latencies recorded
    assert gen.latency.count > 0


def test_generator_determinism_same_seed():
    a = make_gen(rate=30_000, duration=30_000)
    b = make_gen(rate=30_000, duration=30_000)
    for machine, gen in (a, b):
        gen.start()
        machine.run()
    assert a[1].latency.count == b[1].latency.count
    assert a[1].latency.p99() == b[1].latency.p99()


def test_generator_stop():
    machine, gen = make_gen(rate=100_000, duration=1_000_000)
    gen.start()
    machine.engine.schedule(10_000, gen.stop)
    machine.run()
    # stopped early: far fewer than the full duration's worth
    assert gen.sent_in_window() < 5_000


def test_generator_rejects_bad_rate():
    machine = Machine(set_a())
    machine.register_app("app", ports=[8080])
    with pytest.raises(ValueError):
        OpenLoopGenerator(machine, 8080, 0, GET_ONLY, duration_us=1000)


# ----------------------------------------------------------------------
# Traffic weather (repro.workload.weather)
# ----------------------------------------------------------------------
def test_flash_crowd_trapezoid_shape():
    burst = FlashCrowd(start_us=100.0, ramp_us=50.0, hold_us=200.0,
                       peak=10.0)
    assert burst.rate_factor(0.0) == 1.0
    assert burst.rate_factor(99.9) == 1.0
    assert burst.rate_factor(125.0) == pytest.approx(5.5)  # mid-ramp
    assert burst.rate_factor(150.0) == 10.0
    assert burst.rate_factor(349.9) == 10.0
    assert burst.rate_factor(375.0) == pytest.approx(5.5)  # mid-decay
    assert burst.rate_factor(400.0) == 1.0
    assert burst.rate_factor(1e9) == 1.0
    assert burst.end_us() == pytest.approx(400.0)


def test_flash_crowd_asymmetric_decay_and_validation():
    burst = FlashCrowd(0.0, ramp_us=10.0, hold_us=0.0, peak=3.0,
                       decay_us=90.0)
    assert burst.end_us() == pytest.approx(100.0)
    assert burst.rate_factor(55.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        FlashCrowd(0.0, 10.0, 10.0, peak=0.0)
    with pytest.raises(ValueError):
        FlashCrowd(0.0, -1.0, 10.0, peak=2.0)


def test_diurnal_sine_bounds_and_phase():
    day = DiurnalSine(period_us=1000.0, depth=0.4)
    values = [day.rate_factor(t) for t in range(0, 1000, 25)]
    assert max(values) == pytest.approx(1.4, abs=1e-3)
    assert min(values) == pytest.approx(0.6, abs=1e-3)
    assert day.rate_factor(0.0) == pytest.approx(1.0)
    shifted = DiurnalSine(period_us=1000.0, depth=0.4, phase_us=250.0)
    assert shifted.rate_factor(0.0) == pytest.approx(1.4)
    # depth > 1 clips at zero instead of going negative
    deep = DiurnalSine(period_us=1000.0, depth=2.0)
    assert deep.rate_factor(750.0) == 0.0
    with pytest.raises(ValueError):
        DiurnalSine(period_us=0.0, depth=0.5)


def test_envelope_composition_is_pointwise_product():
    burst = FlashCrowd(0.0, 10.0, 10.0, peak=4.0)
    day = DiurnalSine(period_us=100.0, depth=0.5)
    both = burst * day
    for t in (0.0, 5.0, 15.0, 80.0):
        assert both.rate_factor(t) == pytest.approx(
            burst.rate_factor(t) * day.rate_factor(t)
        )


def test_unit_envelope_is_bit_identical_to_none():
    """A peak-1.0 envelope divides every gap by exactly 1.0, so the run
    must match an envelope-free run sample for sample."""
    flat = FlashCrowd(start_us=0.0, ramp_us=1.0, hold_us=1e9, peak=1.0)
    runs = []
    for envelope in (None, flat):
        machine, gen = make_gen(rate=60_000, duration=40_000,
                                envelope=envelope)
        gen.start()
        machine.run()
        runs.append((tuple(gen.latency._samples), gen.sent_in_window(),
                     machine.now))
    assert runs[0] == runs[1]


def test_envelope_modulates_offered_rate():
    burst = FlashCrowd(start_us=0.0, ramp_us=1_000.0, hold_us=98_000.0,
                       peak=3.0)
    machine, gen = make_gen(rate=50_000, duration=100_000,
                            envelope=burst)
    gen.start()
    machine.run()
    # ~3x 50K RPS over ~0.1s = ~15K requests
    assert 12_000 < gen.sent_in_window() < 18_000


# ----------------------------------------------------------------------
# Bounded Pareto (figure_oversub's heavy-tailed batch service times)
# ----------------------------------------------------------------------
def test_bounded_pareto_stays_in_bounds():
    dist = BoundedPareto(2.0, 6.0, 100.0)
    rng = random.Random(7)
    draws = [dist.sample(rng) for _ in range(5000)]
    assert min(draws) >= 6.0
    assert max(draws) <= 100.0
    # heavy tail: the max should get near the truncation bound
    assert max(draws) > 60.0


def test_bounded_pareto_mean_matches_samples():
    dist = BoundedPareto(2.0, 6.0, 100.0)
    rng = random.Random(11)
    empirical = sum(dist.sample(rng) for _ in range(20000)) / 20000
    assert empirical == pytest.approx(dist.mean(), rel=0.05)
    # alpha == 1 takes the logarithmic branch of the closed form
    log_dist = BoundedPareto(1.0, 1.0, 10.0)
    rng = random.Random(12)
    empirical = sum(log_dist.sample(rng) for _ in range(20000)) / 20000
    assert empirical == pytest.approx(log_dist.mean(), rel=0.05)


def test_bounded_pareto_validation():
    with pytest.raises(ValueError):
        BoundedPareto(0.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        BoundedPareto(2.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        BoundedPareto(2.0, -1.0, 10.0)


def test_pareto_mix_draws_same_rng_count_as_uniform():
    """Swapping a uniform component for BoundedPareto must not change
    the number of RNG draws per sample (determinism of shared
    streams)."""
    r_uniform, r_pareto = random.Random(42), random.Random(42)
    for _ in range(200):
        GET_ONLY.sample(r_uniform)
        GET_PARETO.sample(r_pareto)
    assert r_uniform.random() == r_pareto.random()


def test_pareto_mix_is_deterministic():
    a = [GET_PARETO.sample(random.Random(3)) for _ in range(5)]
    b = [GET_PARETO.sample(random.Random(3)) for _ in range(5)]
    assert a == b
    assert GET_PARETO.mean_service_us() == pytest.approx(
        BoundedPareto(2.0, 6.0, 100.0).mean()
    )


# ----------------------------------------------------------------------
# The inlined draws: exactly what ``random`` would have drawn
# ----------------------------------------------------------------------
def reference_sample(mix, rng):
    """``RequestMix.sample`` as it was written before the draws were
    inlined, kept verbatim as the reference."""
    roll = rng.random()
    acc = 0.0
    rtype, _w, dist = mix.components[-1]
    for candidate, weight, cdist in mix.components:
        acc += weight
        if roll < acc:
            rtype, dist = candidate, cdist
            break
    if hasattr(dist, "sample"):
        return rtype, dist.sample(rng)
    low, high = dist
    return rtype, rng.uniform(low, high)


#: Weights whose normalised sum is not exactly 1.0 (0.7, 0.7, 0.1 after
#: division add up to 0.9999999999999999), so a roll can fall past every
#: threshold and must land on the last component.
ODD_MIX = RequestMix("odd", [(GET, 0.7, (10.0, 12.0)),
                             (SCAN, 0.7, [650, 750]),
                             (GET, 0.1, BoundedPareto(1.5, 6.0, 90.0))])


@pytest.mark.parametrize("mix", [GET_ONLY, GET_PARETO, GET_SCAN_995_005,
                                 GET_SCAN_50_50, ODD_MIX],
                         ids=lambda m: m.name)
def test_mix_sample_equals_the_reference_body(mix):
    ours, theirs = random.Random(11), random.Random(11)
    for _ in range(20_000):
        assert mix.sample(ours) == reference_sample(mix, theirs)
    assert ours.getstate() == theirs.getstate()


def test_odd_mix_weights_do_not_sum_to_one():
    assert sum(w for _, w, _ in ODD_MIX.components) < 1.0
    # a roll above the last threshold still picks the last component
    class Roll:
        def __init__(self, values):
            self.values = list(values)

        def random(self):
            return self.values.pop(0)

    top = 1.0 - 2 ** -53
    assert ODD_MIX.sample(Roll([top, 0.5])) == \
        reference_sample(ODD_MIX, Roll([top, 0.5]))


def twin_requests(seed, rate_rps, mix, duration_us, key_space, flows,
                  envelope=None, stream="client"):
    """What the generator must send, drawn through ``randrange``,
    ``expovariate`` and ``uniform`` on twin streams."""
    from repro.sim.rng import RngStreams

    streams = RngStreams(seed)
    arrivals = streams.get(f"{stream}/arrivals")
    service = streams.get(f"{stream}/service")
    mean_gap = 1e6 / rate_rps

    def gap(now):
        g = arrivals.expovariate(1.0) * mean_gap
        if envelope is not None:
            g /= max(envelope.rate_factor(now), 1e-9)
        return g

    sent, now, rid = [], 0.0, 0
    now = now + gap(now)
    while now < duration_us:
        rid += 1
        rtype, service_us = reference_sample(mix, service)
        key = arrivals.randrange(key_space)
        flow = flows[arrivals.randrange(len(flows))]
        sent.append((rid, rtype, service_us, key,
                     (key * 0x9E3779B97F4A7C15) & ((1 << 64) - 1), now, flow))
        now = now + gap(now)
    return sent


@pytest.mark.parametrize("mix, envelope", [
    (GET_SCAN_995_005, None),
    (GET_SCAN_995_005, FlashCrowd(start_us=4_000.0, ramp_us=1_000.0,
                                  hold_us=2_000.0, peak=3.0)),
    (GET_PARETO, None),
], ids=["plain", "flash_crowd", "pareto"])
def test_generator_sends_what_random_would_draw(mix, envelope):
    machine = Machine(set_a(), seed=5)
    gen = OpenLoopGenerator(machine, 8080, 90_000, mix, duration_us=12_000,
                            key_space=777, num_flows=37, user_id=3,
                            tenant="t", envelope=envelope)
    packets = []
    machine.nic.receive = packets.append
    gen.start()
    machine.run()
    expected = twin_requests(5, 90_000, mix, 12_000, 777, gen.flows,
                             envelope=envelope)
    assert len(expected) > 500
    got = [(p.request.rid, p.request.rtype, p.request.service_us,
            p.request.key, p.request.key_hash, p.request.sent_at, p.flow)
           for p in packets]
    assert got == expected
    for packet in packets:
        request = packet.request
        assert (request.user_id, request.tenant) == (3, "t")
        assert packet.sent_at == request.sent_at
        assert packet.payload is None


@pytest.mark.parametrize("bad", [{"key_space": 0}, {"num_flows": 0}])
def test_generator_rejects_an_empty_key_space_or_flow_pool(bad):
    # randrange(0) used to raise at the first arrival; the inlined
    # rejection loop would never end, so construction refuses it
    machine = Machine(set_a())
    with pytest.raises(ValueError):
        OpenLoopGenerator(machine, 8080, 1_000, GET_ONLY, duration_us=1000,
                          **bad)
