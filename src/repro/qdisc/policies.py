"""Rank-function sources for programmable queueing disciplines.

Each is a policy file in the same safe subset as the matching-function
policies (:mod:`repro.policies.builtin`) except the entry point is named
``rank``, which :func:`repro.ebpf.compiler.compile_rank` takes as the
entry point of the identical compile/verify/JIT pipeline.  Deploy with::

    app.deploy_qdisc(SRPT_BY_SIZE, layer="socket", backend="pifo")

Rank semantics (PIFO): **smaller rank dequeues first**; equal ranks stay
FIFO by arrival.  ``PASS`` means "no opinion" (rank 0 — FIFO among
passed elements) and ``DROP`` sheds the element at enqueue time.

Packet layout (see :mod:`repro.net.packet`): 8-byte UDP header, then
u64 request type at offset 8, u64 user id at 16, u64 key hash at 24.
"""

__all__ = [
    "EDF_BY_DEADLINE",
    "FIFO_RANK",
    "RANK_BY_FLAG",
    "SRPT_BY_SIZE",
    "SRPT_MISRANK_GETS",
    "SRPT_TIERED",
]

#: The identity discipline: every element PASSes, so the queue stays
#: strictly FIFO.  Deploying this must be bit-identical to deploying no
#: qdisc at all (tests/test_qdisc_integration.py locks that pairing).
FIFO_RANK = '''
def rank(pkt):
    return PASS
'''

#: Shortest-Remaining-Processing-Time by *measured* size: the userspace
#: half (RocksDbServer(mark_sizes=True)) publishes the observed service
#: time per request type into svc_time_map — a cross-layer Map signal, the
#: paper's §4 story extended from placement to ordering.  Unknown types
#: PASS (rank 0), so the discipline is conservative until the app has
#: measured each type once.
SRPT_BY_SIZE = '''
svc_map = syr_map("svc_time_map", 16)

def rank(pkt):
    if pkt_len(pkt) < 16:
        return PASS
    rtype = load_u64(pkt, 8)
    if map_has(svc_map, rtype):
        return map_lookup(svc_map, rtype)
    return PASS
'''

#: Two-class priority from an app-written flag map (the SCAN-marking
#: pattern of Figure 5b reused for ordering): flagged request types sink
#: to a low-priority rank, everything else is served first.
RANK_BY_FLAG = '''
flag_map = syr_map("scan_map", 64)

def rank(pkt):
    if pkt_len(pkt) < 16:
        return PASS
    rtype = load_u64(pkt, 8)
    if map_lookup(flag_map, rtype) > 0:
        return 1000
    return 0
'''

#: SRPT collapsed to two tiers: requests measured at or under SHORT_US
#: keep their measured rank, everything longer shares one background
#: rank.  Same ordering as SRPT_BY_SIZE for the short class (GETs) and
#: coarser among the long class — a well-behaved *candidate* for the
#: shadow/canary promotion pipeline (figure_canary's "good" policy):
#: high decision agreement, indistinguishable cohort tail.
SRPT_TIERED = '''
svc_map = syr_map("svc_time_map", 16)

def rank(pkt):
    if pkt_len(pkt) < 16:
        return PASS
    rtype = load_u64(pkt, 8)
    if map_has(svc_map, rtype):
        svc = map_lookup(svc_map, rtype)
        if svc <= SHORT_US:
            return svc
        return 1000
    return PASS
'''

#: A subtly-broken SRPT variant: it mis-ranks a slice of GETs (every
#: 16th key) to the worst possible priority, behind every SCAN.  The
#: bug is rare enough (~6% of GETs) to sail through the shadow
#: agreement gate, but on the canary cohort those GETs inherit the full
#: SCAN queueing delay and the cohort p99 blows up — figure_canary's
#: "broken" candidate, auto-rejected at the canary stage before it can
#: touch more than the cohort.
SRPT_MISRANK_GETS = '''
svc_map = syr_map("svc_time_map", 16)

def rank(pkt):
    if pkt_len(pkt) < 32:
        return PASS
    rtype = load_u64(pkt, 8)
    key_hash = load_u64(pkt, 24)
    if rtype == 1:
        if key_hash % 16 == 0:
            return 100000
    if map_has(svc_map, rtype):
        svc = map_lookup(svc_map, rtype)
        if svc <= SHORT_US:
            return svc
        return 1000
    return PASS
'''

#: Earliest-Deadline-First: the app publishes a per-user deadline class
#: (smaller = tighter) into deadline_map; users without an entry are
#: best-effort and rank behind every deadline class.
EDF_BY_DEADLINE = '''
deadline_map = syr_map("deadline_map", 16)

def rank(pkt):
    if pkt_len(pkt) < 24:
        return PASS
    user = load_u64(pkt, 16)
    if map_has(deadline_map, user):
        return map_lookup(deadline_map, user)
    return 100000
'''
