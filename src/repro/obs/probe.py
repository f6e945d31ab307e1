"""The instrumentation seam: one ``probe`` object per machine.

Datapath components (NIC, netstack, sockets, thread schedulers, core
arbiter, hook sites, the fleet) report what happens to a packet, thread
or fleet request by calling one seam method on the probe they were
constructed with — ``self.probe.drop(packet, reason)``.  When no tier
listens there is no probe: ``Observability.probe`` is ``None``, and
every call site outside ``repro/obs/`` sits under ``if probe is not
None:``, so a dark datapath makes no seam call and evaluates no seam
argument (``tests/test_probe.py`` checks the guard).  Telemetry
*tiers* (:class:`repro.obs.spans.SpanTracer`,
:class:`repro.obs.accounting.TenantAccountant`) subscribe by defining a
method of the same name; a tier ignores arguments it does not need.

Each seam is resolved **once, at construction**: the shared :func:`noop`
when no live tier defines it, the tier's own bound method when one
does, a two-call closure (tiers in the order given) when several do.
The datapath therefore runs no subscriber loop and tests no ``enabled``
flag.  To add a seam, name it in :data:`SEAMS` and define it on a tier;
to add a tier, pass it to :class:`Probe` in ``Observability.__init__``.
"""

__all__ = ["Probe", "SEAMS", "noop"]

#: Every seam, with its one signature.
SEAMS = (
    # packet path (repro.net.nic, repro.kernel.netstack / sockets)
    "nic_arrival",         # (packet)
    "nic_delivered",       # (packet, queue)
    "softirq_begin",       # (packet, core, depth)
    "softirq_end",         # (packet)
    "socket_enqueued",     # (packet, socket, depth)
    "socket_dequeued",     # (packet, socket)
    "qdisc_enqueued",      # (packet, layer, rank, backend)
    "qdisc_dequeued",      # (packet)
    "drop",                # (packet, reason)
    # hook dispatch (repro.core.hooks)
    "decision",            # (packet, hook, outcome, value, fd, seq)
    "policy_exec",         # (packet, cost_us)
    # thread scheduling (repro.kernel.threads / cfs, repro.ghost)
    "thread_runnable",     # (thread)
    "placement_begin",     # (thread, core_id)
    "placement_abort",     # (thread)
    "service_begin",       # (thread, token)
    "service_end",         # (thread, token)
    # elastic cores (repro.kernel.arbiter)
    "book_core_occupancy",  # (tenant, us)
    # fleet tier (repro.cluster.fleet): one seam per request event ...
    "switch_steer",        # (request, machine, policy, resteer)
    "machine_enqueued",    # (request, machine, depth)
    "fleet_service_begin",  # (request, machine)
    "fleet_service_end",   # (request, machine)
    "fleet_complete",      # (request)
    # ... and one per rare path: dead machine, held response, failover
    "xnet_end",            # (request)
    "xnet_begin",          # (request, machine)
    "machine_requeued",    # (request)
    "fleet_drop",          # (request, reason)
)


def noop(*_args):
    """The one shared disabled seam (one live tier, the other silent)."""


def _chain(first, second):
    def seam(*args):
        first(*args)
        second(*args)
    return seam


class Probe:
    """Seam methods resolved once against ``tiers`` (called in order)."""

    __slots__ = SEAMS

    def __init__(self, *tiers):
        for name in SEAMS:
            seam = noop
            for tier in tiers:
                method = getattr(tier, name, None)
                if method is not None:
                    seam = method if seam is noop else _chain(seam, method)
            setattr(self, name, seam)

