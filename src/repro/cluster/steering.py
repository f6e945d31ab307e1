"""ToR steering policies for both rack tiers (RackSched at rack scale).

Both the aggregate fleet (:mod:`repro.cluster.fleet`) and the micro rack
of full machines (:mod:`repro.cluster.cluster`) steer every request at
one :class:`~repro.cluster.fleet.TorSwitch` through one of these
policies.  They follow the same matching shape as every other Syrup hook
— ``pick`` returns a machine index, ``None`` for "fall through to the
default", or ``DROP`` — and they read the switch's load state
(``switch.load_view``, ``switch.delay_view``).  On the fleet that state
is a *replica* the :class:`repro.cluster.sync.MapSyncBus` refreshes on a
cadence, so each policy operates under the bounded staleness a real
in-network scheduler lives with; the micro rack keeps ``load_view``
exact and nothing else, so ``sed``, ``locality`` and map-reading
programs are fleet-only.

Two deployment forms exist, mirroring the paper's portability claim:

- native Python policy objects below (the fast path for 100s of
  machines), and
- verified Syrup programs (``STEER_POWER_OF_TWO``, ``STEER_TAIL_P2C``,
  ``STEER_LOCALITY``) compiled through the standard :mod:`repro.ebpf`
  pipeline and run at the switch, reading the replicated
  ``machine_load_array`` (and, for the tail-aware program, the
  sketch-fed ``machine_p99_array``) Maps that the sync bus keeps fresh —
  user-defined scheduling deployed *into the network*, not just onto a
  host.

``STEERING_FACTORIES`` maps policy names to constructors so experiments
and the CLI can sweep them by name.
"""

from repro.constants import DROP, PASS
from repro.core.promote import CanarySplit, DecisionDiff, steer_label
from repro.net.rss import rss_hash

__all__ = [
    "STEERING_FACTORIES",
    "STEER_LOCALITY",
    "STEER_POWER_OF_TWO",
    "STEER_TAIL_P2C",
    "FlowHashSteering",
    "JsqSteering",
    "LocalitySteering",
    "PowerOfKSteering",
    "RandomSteering",
    "RssSteering",
    "ShadowSteering",
    "ShortestExpectedDelaySteering",
    "SwitchProgramSteering",
]

_GOLDEN = 2654435761  # Knuth multiplicative hash constant


class RandomSteering:
    """Uniform random spray — the no-information baseline."""

    name = "random"

    def __init__(self, rng):
        self.rng = rng

    def pick(self, request, switch):
        alive = switch.alive_machines()
        if not alive:
            return DROP
        return alive[self.rng.randrange(len(alive))]


class FlowHashSteering:
    """Stateless per-user hash (flow affinity, the L4-LB default).

    Keeps each user on one machine like a consistent-hash front end;
    with skewed users this reproduces the classic hash imbalance.
    """

    name = "flow_hash"

    def __init__(self, salt=0x70F):
        self.salt = salt

    def pick(self, request, switch):
        alive = switch.alive_machines()
        if not alive:
            return DROP
        h = ((request.user_id ^ self.salt) * _GOLDEN) & 0xFFFFFFFF
        return alive[h % len(alive)]


class RssSteering:
    """The micro rack's default: the packet's 5-tuple RSS hash.

    Flow affinity like :class:`FlowHashSteering`, keyed on what a real
    packet carries (``packet.flow``) instead of a sampled user id.
    """

    name = "rss"

    def __init__(self, salt=0x70F):
        self.salt = salt

    def pick(self, packet, switch):
        alive = switch.alive_machines()
        if not alive:
            return DROP
        return alive[rss_hash(packet.flow, self.salt) % len(alive)]


class JsqSteering:
    """Join-the-shortest-queue over the *replicated* load view.

    The omniscient-looking policy — but it reads the sync-bus replica,
    not ground truth, so under stale views it herds: every request
    between refreshes piles onto the same "shortest" machine.
    """

    name = "jsq"

    def pick(self, request, switch):
        best = None
        best_load = None
        for index in switch.alive_machines():
            load = switch.load_view[index]
            if best_load is None or load < best_load:
                best, best_load = index, load
        return DROP if best is None else best


class PowerOfKSteering:
    """Sample ``k`` random machines, join the least loaded (RackSched).

    The textbook stale-robust policy: random sampling breaks the herd
    that pure JSQ forms on stale views.
    """

    name = "power_of_k"

    def __init__(self, rng, k=2):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.rng = rng
        self.k = k

    def pick(self, request, switch):
        alive = switch.alive_machines()
        if not alive:
            return DROP
        best = None
        best_load = None
        for _ in range(self.k):
            index = alive[self.rng.randrange(len(alive))]
            load = switch.load_view[index]
            if best_load is None or load < best_load \
                    or (load == best_load and index < best):
                best, best_load = index, load
        return best


class ShortestExpectedDelaySteering:
    """RackSched's refinement: queue depth scaled by service speed.

    ``delay_view[i]`` is the replicated expected delay — outstanding
    work divided by the machine's worker count — so a 2x-provisioned
    machine absorbs twice the queue before looking equally bad.
    """

    name = "sed"

    def pick(self, request, switch):
        best = None
        best_delay = None
        for index in switch.alive_machines():
            delay = switch.delay_view[index]
            if best_delay is None or delay < best_delay:
                best, best_delay = index, delay
        return DROP if best is None else best


class LocalitySteering:
    """Keep a user on its home machine unless the home is overloaded.

    Home = ``user_id % num_machines`` (where the user's cached state
    lives); spill via power-of-k when the home's replicated load exceeds
    ``spill_threshold`` — locality until it costs tail latency.
    """

    name = "locality"

    def __init__(self, rng, spill_threshold=8, k=2):
        self.rng = rng
        self.spill_threshold = spill_threshold
        self._spill = PowerOfKSteering(rng, k=k)

    def pick(self, request, switch):
        home = request.user_id % switch.num_machines
        if switch.is_alive(home) \
                and switch.load_view[home] <= self.spill_threshold:
            return home
        return self._spill.pick(request, switch)


class SwitchProgramSteering:
    """A verified Syrup program deployed at the ToR switch.

    ``loaded`` is a :class:`repro.ebpf.program.LoadedProgram` (on the
    fleet its maps include the replicated ``machine_load_array``); the
    program reads the request as the packet it is — a fleet request is
    its own lazy :class:`repro.net.packet.PacketView`, a micro-rack
    request a real :class:`repro.net.packet.Packet` — and returns a
    machine index, ``PASS`` or ``DROP``: identical semantics to the same
    source running at a host hook.
    """

    def __init__(self, loaded, name="program"):
        self.loaded = loaded
        self.name = name

    def pick(self, request, switch):
        value = self.loaded.run(request)
        if value == PASS:
            return None
        if value == DROP:
            return DROP
        index = value % switch.num_machines
        if index in switch._down:
            return None          # failover: fall through to the default
        return index


class ShadowSteering:
    """Shadow/canary wrapper around the live ToR steering policy.

    Installed *in place of* the active policy (the wrapper forwards to
    it), so the candidate sees every steering decision the rack makes.
    In the ``shadow`` stage the candidate's pick is recorded into a
    :class:`~repro.core.promote.DecisionDiff` and discarded; in the
    ``canary`` stage the deterministic flow-hash cohort (stamped once
    on the request by :class:`~repro.core.promote.CanarySplit`, so
    per-port ToR rules never double-hash a flow) is steered by the
    candidate for real.  Give the candidate its own RNG stream — a
    candidate drawing from the active policy's stream would perturb the
    control decisions it is being judged against.
    """

    def __init__(self, active, candidate, canary_pct=10, salt=0x5EED,
                 name="candidate"):
        self.active = active
        self.candidate = candidate
        self.canary_pct = canary_pct
        self.split = CanarySplit(salt)
        self.diff = DecisionDiff()
        self.stage = "shadow"
        self.canary_enforced = 0
        self.canary_faults = 0
        self.candidate_name = name
        self.name = f"shadow:{getattr(active, 'name', 'policy')}"

    def pick(self, request, switch):
        bucket = self.split.bucket(request)
        if self.stage == "canary" and bucket < self.canary_pct:
            self.canary_enforced += 1
            try:
                return self.candidate.pick(request, switch)
            except Exception:  # noqa: BLE001 - candidate contained
                self.canary_faults += 1
                return self.active.pick(request, switch)
        value = self.active.pick(request, switch)
        if self.stage in ("shadow", "canary"):
            try:
                shadow_value = self.candidate.pick(request, switch)
            except Exception:  # noqa: BLE001 - candidate contained
                self.diff.shadow_faults += 1
                return value
            self.diff.record(value, shadow_value, steer_label(value),
                             steer_label(shadow_value), 0.0)
        return value

    def promote(self):
        """Enforce the candidate everywhere (the caller re-installs)."""
        self.stage = "active"
        return self.candidate

    def reject(self):
        """Stop shadowing (the caller re-installs ``active``)."""
        self.stage = "rejected"
        return self.active

    def snapshot(self):
        return {
            "name": self.candidate_name,
            "stage": self.stage,
            "canary_pct": self.canary_pct,
            "canary_enforced": self.canary_enforced,
            "canary_faults": self.canary_faults,
            "diff": self.diff.snapshot(),
        }


#: Power-of-two-choices as a verified Syrup program: probe two random
#: machines in the replicated load Map, take the less loaded.  Deploy
#: with ``constants={"NUM_MACHINES": n}`` via
#: :meth:`repro.cluster.fleet.Fleet.deploy_steering_program`.
STEER_POWER_OF_TWO = '''
machine_load_array = syr_map("machine_load_array", NUM_MACHINES)

def schedule(pkt):
    a = get_random() % NUM_MACHINES
    b = get_random() % NUM_MACHINES
    load_a = map_lookup(machine_load_array, a)
    load_b = map_lookup(machine_load_array, b)
    if load_b < load_a:
        return b
    return a
'''

#: Tail-aware power-of-two-choices: probe two machines and compare a
#: combined cost of instantaneous backlog (the load replica, weighted at
#: ``TAIL_LOAD_WEIGHT_US`` per queued request) plus the machine's
#: recent p99 latency in microseconds (``machine_p99_array``, published
#: from per-machine DDSketches over the sync bus when the fleet runs
#: with ``latency_signals=True``).  Load alone is instantaneous but
#: memoryless; p99 alone is sticky but slow — the sum steers away from
#: machines whose *tail* is bad even when their queue happens to look
#: short right now.  With an all-zero p99 replica this is exactly
#: ``STEER_POWER_OF_TWO``.
STEER_TAIL_P2C = '''
machine_load_array = syr_map("machine_load_array", NUM_MACHINES)
machine_p99_array = syr_map("machine_p99_array", NUM_MACHINES)

def schedule(pkt):
    a = get_random() % NUM_MACHINES
    b = get_random() % NUM_MACHINES
    cost_a = map_lookup(machine_load_array, a) * TAIL_LOAD_WEIGHT_US
    cost_a = cost_a + map_lookup(machine_p99_array, a)
    cost_b = map_lookup(machine_load_array, b) * TAIL_LOAD_WEIGHT_US
    cost_b = cost_b + map_lookup(machine_p99_array, b)
    if cost_b < cost_a:
        return b
    return a
'''

#: Locality with spill as a verified Syrup program: home machine by
#: user id unless its replicated load exceeds SPILL_THRESHOLD, then one
#: random alternative.  (User id is u64 at packet offset 16.)
STEER_LOCALITY = '''
machine_load_array = syr_map("machine_load_array", NUM_MACHINES)

def schedule(pkt):
    if pkt_len(pkt) < 24:
        return PASS
    user_id = load_u64(pkt, 16)
    home = user_id % NUM_MACHINES
    load = map_lookup(machine_load_array, home)
    if load <= SPILL_THRESHOLD:
        return home
    return get_random() % NUM_MACHINES
'''


def _make_random(fleet):
    return RandomSteering(fleet.steering_rng())


def _make_flow_hash(fleet):
    return FlowHashSteering()


def _make_jsq(fleet):
    return JsqSteering()


def _make_power_of_two(fleet):
    return PowerOfKSteering(fleet.steering_rng(), k=2)


def _make_sed(fleet):
    return ShortestExpectedDelaySteering()


def _make_locality(fleet):
    return LocalitySteering(fleet.steering_rng())


def _make_program_p2c(fleet):
    return fleet.deploy_steering_program(
        STEER_POWER_OF_TWO, name="program_p2c"
    )


def _make_program_tail(fleet):
    return fleet.deploy_steering_program(
        STEER_TAIL_P2C, name="program_tail"
    )


#: name -> callable(fleet) -> policy instance, for sweeping by name.
STEERING_FACTORIES = {
    "random": _make_random,
    "flow_hash": _make_flow_hash,
    "jsq": _make_jsq,
    "power_of_two": _make_power_of_two,
    "sed": _make_sed,
    "locality": _make_locality,
    "program_p2c": _make_program_p2c,
    "program_tail": _make_program_tail,
}
