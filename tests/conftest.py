"""Shared test helpers: random policy-program and packet generators,
the settable clock every telemetry tier can be built over, the check
that a probe drained, and the ``deep`` hypothesis profile.

Used by the hypothesis property suites (toolchain equivalence, optimizer
equivalence).  Programs are random ASTs in the safe subset, so these also
fuzz the compiler and verifier.
"""

import random

from hypothesis import HealthCheck, settings

from repro.net.packet import FiveTuple, Packet
from repro.obs.probe import Flight

#: A longer search for local runs, never loaded by default:
#: ``python -m pytest tests/test_control_plane_model.py
#: --hypothesis-profile=deep`` (~30 s).  Tests that fix their own
#: ``max_examples`` keep it; the control-plane model switches to this.
settings.register_profile(
    "deep", max_examples=600, stateful_step_count=50, deadline=None,
    suppress_health_check=list(HealthCheck))


class Clock:
    """A settable sim clock for tiers built without an engine."""

    def __init__(self, now=0.0):
        self.now = now


def record_flights(monkeypatch):
    """The list every flight record opened from now on is appended to."""
    flights = []
    open_flight = Flight.__init__

    def recording(flight, request, acct):
        open_flight(flight, request, acct)
        flights.append(flight)

    monkeypatch.setattr(Flight, "__init__", recording)
    return flights


def assert_drained(probe, flights):
    """Nothing left in flight: no open stamp on any request's record,
    nobody mirrored in any queue, no pending thread-side state."""
    assert flights
    for flight in flights:
        assert (flight.nic, flight.softirq, flight.socket,
                flight.qdisc) == (None, None, None, None)
    assert not any(probe._cores.values()) and not any(probe._sockq.values())
    assert probe._wakes == {} and probe._service == {}
    assert probe._placements == {}


GEN_FLOW = FiveTuple(0x0A000002, 40001, 0x0A000001, 8080, 17)

_LOCALS = ["a", "b", "c"]
_GLOBALS = ["g0", "g1"]
_CMPS = ["==", "!=", "<", "<=", ">", ">="]
_BINOPS = ["+", "-", "*", "//", "%", "&", "|", "^"]


def _expr(rng, depth, names):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if names and rng.random() < 0.5:
            return rng.choice(names)
        return str(rng.randrange(0, 2**20))
    if roll < 0.75:
        op = rng.choice(_BINOPS)
        return (
            f"({_expr(rng, depth - 1, names)} {op} "
            f"{_expr(rng, depth - 1, names)})"
        )
    if roll < 0.85:
        op = rng.choice(_CMPS)
        return (
            f"(1 if {_expr(rng, depth - 1, names)} {op} "
            f"{_expr(rng, depth - 1, names)} else 0)"
        )
    if roll < 0.93:
        return f"(pkt_len(pkt) % {rng.randrange(1, 64)})"
    return f"map_lookup(m, {_expr(rng, depth - 1, names)})"


def _stmts(rng, depth, indent, names):
    lines = []
    pad = "    " * indent
    for _ in range(rng.randrange(1, 4)):
        roll = rng.random()
        if roll < 0.4:
            name = rng.choice(_LOCALS)
            lines.append(f"{pad}{name} = {_expr(rng, depth, names)}")
            if name not in names:
                names = names + [name]
        elif roll < 0.55 and depth > 0:
            lines.append(f"{pad}if {_expr(rng, depth - 1, names)}:")
            body, _names2 = _stmts(rng, depth - 1, indent + 1, names)
            lines.extend(body)
            if rng.random() < 0.5:
                lines.append(f"{pad}else:")
                body, _ = _stmts(rng, depth - 1, indent + 1, names)
                lines.extend(body)
        elif roll < 0.7 and depth > 0:
            n = rng.randrange(1, 5)
            lines.append(f"{pad}for i in range({n}):")
            body, _ = _stmts(rng, depth - 1, indent + 1, names + ["i"])
            lines.extend(body)
        elif roll < 0.8:
            lines.append(
                f"{pad}map_update(m, {_expr(rng, 0, names)}, "
                f"{_expr(rng, 0, names)})"
            )
        elif roll < 0.9:
            gname = rng.choice(_GLOBALS)
            lines.append(f"{pad}{gname} = {_expr(rng, depth, names)}")
        else:
            lines.append(f"{pad}return {_expr(rng, depth, names)}")
    return lines, names


def random_policy_source(seed, constants=(), unchecked_load=False):
    """A random policy in the safe subset; by default it always compiles
    and verifies.

    ``constants`` names compile-time constants its expressions may read
    (it then compiles only when the caller supplies each one it used);
    ``unchecked_load`` makes the final return read the packet without a
    ``pkt_len`` guard, which the verifier rejects wherever it is reachable.
    """
    rng = random.Random(seed)
    lines = ['m = syr_map("m", 64)']
    for gname in _GLOBALS:
        lines.append(f"{gname} = {rng.randrange(100)}")
    lines.append("")
    lines.append("def schedule(pkt):")
    lines.append(f"    global {', '.join(_GLOBALS)}")
    body, names = _stmts(rng, 2, 1, list(_GLOBALS) + list(constants))
    lines.extend(body)
    result = _expr(rng, 1, names)
    if unchecked_load:
        result = f"load_u8(pkt, 7) + {result}"
    lines.append(f"    return {result}")
    return "\n".join(lines) + "\n"


def random_packet(seed):
    """A packet with random payload bytes and random (possibly tiny) size."""
    rng = random.Random(seed)
    payload = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 64)))
    return Packet(GEN_FLOW, payload)
