"""A RocksDB-like UDP server (paper §5.1.2).

Real point (GET) and range (SCAN) queries against the in-memory
:class:`~repro.apps.kvstore.KVStore`; simulated CPU time comes from the
request's calibrated service time (GET 10-12 us, SCAN ~700 us).

Two optional "userspace components" publish scheduling state into Syrup
Maps, enabling the paper's cross-layer policies:

- ``mark_scans`` — the SCAN Avoid userspace half (Fig. 5b): set
  ``scan_map[thread_index]`` while that thread serves a SCAN.
- ``mark_types`` — for the ghOSt GET-priority thread policy (§5.3): keep
  ``type_map[thread_index]`` at the request type the thread is processing
  (or about to process).
- ``mark_sizes`` — the userspace half of the SRPT queueing discipline
  (:data:`repro.qdisc.policies.SRPT_BY_SIZE`): publish the observed
  service time per request type into ``svc_time_map[rtype]``, so rank
  functions can order queues shortest-job-first from a measured,
  cross-layer signal.
"""

from repro.apps.kvstore import KVStore
from repro.apps.server import UdpServer
from repro.workload.requests import GET, SCAN

__all__ = ["RocksDbServer", "SCAN_MAP", "SVC_TIME_MAP", "TYPE_MAP"]

SCAN_MAP = "scan_map"
TYPE_MAP = "type_map"
SVC_TIME_MAP = "svc_time_map"

_SCAN_RANGE = 16  # real keys touched per SCAN


class RocksDbServer(UdpServer):
    def __init__(
        self,
        machine,
        app,
        port,
        num_threads,
        mark_scans=False,
        mark_types=False,
        mark_sizes=False,
        preload_keys=10000,
    ):
        super().__init__(machine, app, port, num_threads)
        self.store = KVStore().preload(preload_keys)
        self.key_space = preload_keys
        self.scan_map = (
            app.create_map(SCAN_MAP, size=max(64, num_threads), kind="array")
            if mark_scans
            else None
        )
        self.type_map = (
            app.create_map(TYPE_MAP, size=max(64, num_threads), kind="array")
            if mark_types
            else None
        )
        self.svc_time_map = (
            app.create_map(SVC_TIME_MAP, size=16, kind="hash")
            if mark_sizes
            else None
        )
        #: Optional service-time sketch (repro.obs.sketch.DDSketch or a
        #: registry Sketch): when set by the owner, every enqueued
        #: request's calibrated service time is folded in — the signal
        #: the SRPT auto-threshold controller tunes from.  None (the
        #: default) costs one attribute test and changes nothing.
        self.svc_sketch = None

    # ------------------------------------------------------------------
    def on_enqueue(self, thread_index, packet):
        if self.type_map is not None:
            thread = self.threads[thread_index]
            if thread.token is None:
                # idle thread: its next request is the one that just landed
                self.type_map.update(thread_index, packet.request.rtype)
        if self.svc_time_map is not None:
            request = packet.request
            # Latest observed service time per type; read by SRPT rank
            # functions.  The very first request of a type is ranked
            # before this lands (PASS -> FIFO) — conservative start.
            self.svc_time_map.update(request.rtype, int(request.service_us))
        if self.svc_sketch is not None:
            self.svc_sketch.add(packet.request.service_us)

    # on_request_complete inlines UdpServer's body (stats, response)
    # rather than calling it through super(): one frame per request.
    def on_request_start(self, thread_index, request):
        key = request.key % self.key_space
        if request.rtype == SCAN:
            self.store.scan(key, _SCAN_RANGE)
        else:
            self.store.get(key)
        if self.scan_map is not None and request.rtype == SCAN:
            self.scan_map.update(thread_index, 1)
        if self.type_map is not None:
            self.type_map.update(thread_index, request.rtype)

    def on_request_complete(self, thread_index, request):
        if self.scan_map is not None and request.rtype == SCAN:
            self.scan_map.update(thread_index, 0)
        if self.type_map is not None and not len(self.sockets[thread_index]):
            self.type_map.update(thread_index, 0)
        self.stats.completed.add(self.engine.now, request.rtype)
        if self.response_sink is not None:
            self.response_sink(request)
