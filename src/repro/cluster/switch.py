"""A programmable top-of-rack switch scheduling requests to servers.

Inputs: request packets.  Executors: rack servers.  Policies follow the
familiar matching shape — return a server index, or PASS for the default
(per-flow hash, which keeps a flow on one server like an L4 load balancer).
Per-destination-port rules isolate tenants exactly as §6.1 sketches for P4
("match/action rules that use the IP address/port number pair ... to steer
it to the correct handling function").

The switch tracks per-server outstanding requests by watching responses
pass back through it — the information RackSched piggybacks for its
least-loaded policy.
"""

from repro.constants import DROP, PASS
from repro.net.rss import rss_hash

__all__ = [
    "HashFlowPolicy",
    "LeastOutstandingPolicy",
    "ProgramPolicy",
    "ProgrammableSwitch",
    "RoundRobinPolicy",
]


class HashFlowPolicy:
    """L4-load-balancer default: per-flow hash (flow affinity)."""

    def __init__(self, salt=0x70F):
        self.salt = salt

    def pick(self, packet, switch):
        return rss_hash(packet.flow, self.salt) % switch.num_servers


class RoundRobinPolicy:
    """Spread requests evenly regardless of flow."""

    def __init__(self):
        self._next = 0

    def pick(self, packet, switch):
        index = self._next % switch.num_servers
        self._next += 1
        return index


class LeastOutstandingPolicy:
    """RackSched-style: sample ``d`` servers, pick the least loaded."""

    def __init__(self, rng, d=2):
        self.rng = rng
        self.d = d

    def pick(self, packet, switch):
        n = switch.num_servers
        candidates = {self.rng.randrange(n) for _ in range(self.d)}
        return min(candidates, key=lambda i: switch.outstanding[i])


class ProgramPolicy:
    """Adapter running a verified Syrup program at the switch.

    The paper argues (§6.2) the same policy code should deploy at P4
    devices and eBPF hooks alike; here a compiled+verified program picks
    the server index directly (executors are 0..num_servers-1).
    """

    def __init__(self, loaded_program):
        self.loaded = loaded_program

    def pick(self, packet, switch):
        value = self.loaded.run(packet)
        if value == PASS:
            return None
        if value == DROP:
            return DROP
        return value % switch.num_servers


class ProgrammableSwitch:
    def __init__(self, engine, machines, forward_us=1.0, wire_us=5.0):
        self.engine = engine
        self.machines = list(machines)
        self.forward_us = forward_us
        self.wire_us = wire_us
        self._port_rules = {}
        self._default = HashFlowPolicy()
        self.outstanding = [0] * len(self.machines)
        self.forwarded = [0] * len(self.machines)
        self.dropped = 0
        self._server_of_request = {}

    @property
    def num_servers(self):
        return len(self.machines)

    # ------------------------------------------------------------------
    def install(self, port, policy, owner=None):
        """Insert a per-port match/action rule (tenant isolation, §6.1)."""
        existing = self._port_rules.get(port)
        if existing is not None and owner is not None \
                and existing[1] is not None and existing[1] != owner:
            raise PermissionError(
                f"port {port} rule already owned by {existing[1]!r}"
            )
        self._port_rules[port] = (policy, owner)

    # ------------------------------------------------------------------
    def receive(self, packet):
        """A request arrives at the rack; schedule it to a server."""
        rule = self._port_rules.get(packet.dst_port)
        policy = rule[0] if rule is not None else self._default
        index = policy.pick(packet, self)
        if index == DROP:
            self.dropped += 1
            return
        if index is None:
            index = self._default.pick(packet, self)
        index %= self.num_servers
        self.outstanding[index] += 1
        self.forwarded[index] += 1
        machine = self.machines[index]
        self._server_of_request[id(packet.request)] = index
        self.engine.post(
            self.forward_us + self.wire_us, machine.nic.receive, packet
        )

    def response_passed(self, request):
        """A server's response transits the switch on its way back."""
        index = self._server_of_request.pop(id(request), None)
        if index is not None:
            self.outstanding[index] -= 1

    def __repr__(self):
        return (
            f"<ProgrammableSwitch servers={self.num_servers} "
            f"outstanding={self.outstanding}>"
        )
