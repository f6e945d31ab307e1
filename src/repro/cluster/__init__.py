"""Rack-scale extension (paper §6.1), in two tiers of fidelity.

"Scheduling occurs across the data center stack, from cluster managers and
software load balancers to programmable switches.  We can extend Syrup to
support such backends as they are fully compatible with Syrup's matching
view of scheduling; similar to end-host components, they schedule inputs
(jobs/requests/packets) to executors (servers)."

This package implements that extension with one switch and one policy
vocabulary — a :class:`~repro.cluster.fleet.TorSwitch` running the
RackSched-style :mod:`repro.cluster.steering` policies, verified
programs included — in front of two member models, at the two scales the
argument needs (docs/cluster.md):

- **Micro tier** (:mod:`repro.cluster.cluster`): a handful of *full*
  :class:`~repro.machine.Machine` instances — every NIC queue, softirq
  core and socket simulated — with an exact load view at the switch.
  Right for rack-policy microbenchmarks and for showing a verified
  program deploying at the switch unchanged (§6.2's P4-to-eBPF
  unification).
- **Fleet tier** (:mod:`repro.cluster.fleet`, :mod:`repro.cluster.sync`):
  aggregate machines (queue + service slots) whose load reaches the
  switch as a *replica* with explicit staleness
  (:class:`~repro.cluster.sync.MapSyncBus`), failing over on
  ``machine_kill``/``link_down`` faults.  Right for 100s of machines
  under millions of users (``figure_fleet``).
"""

from repro.cluster.cluster import Cluster, ClusterGenerator
from repro.cluster.fleet import (
    FLEET_MIX,
    Fleet,
    FleetFaultInjector,
    FleetGenerator,
    FleetMachine,
    FleetRequest,
    TorSwitch,
)
from repro.cluster.steering import (
    STEERING_FACTORIES,
    STEER_LOCALITY,
    STEER_POWER_OF_TWO,
    STEER_TAIL_P2C,
    FlowHashSteering,
    JsqSteering,
    LocalitySteering,
    PowerOfKSteering,
    RandomSteering,
    RssSteering,
    ShadowSteering,
    ShortestExpectedDelaySteering,
    SwitchProgramSteering,
)
from repro.cluster.sync import MapSyncBus, SyncChannel

__all__ = [
    "FLEET_MIX",
    "STEERING_FACTORIES",
    "STEER_LOCALITY",
    "STEER_POWER_OF_TWO",
    "STEER_TAIL_P2C",
    "Cluster",
    "ClusterGenerator",
    "Fleet",
    "FleetFaultInjector",
    "FleetGenerator",
    "FleetMachine",
    "FleetRequest",
    "FlowHashSteering",
    "JsqSteering",
    "LocalitySteering",
    "MapSyncBus",
    "PowerOfKSteering",
    "RandomSteering",
    "RssSteering",
    "ShadowSteering",
    "ShortestExpectedDelaySteering",
    "SwitchProgramSteering",
    "SyncChannel",
    "TorSwitch",
]
