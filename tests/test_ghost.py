"""Tests for the ghOSt substrate: messages, enclaves, agent, scheduler."""

from collections import deque

import pytest

from repro.config import CostModel
from repro.ghost.agent import GhostAgent, SchedStatus
from repro.ghost.enclave import Enclave, EnclaveViolation
from repro.ghost.messages import Message, MessageKind
from repro.ghost.sched import GhostScheduler
from repro.kernel.cpu import Core
from repro.kernel.threads import BLOCKED, KThread, RUNNABLE
from repro.sim.engine import Engine


class ListSource:
    def __init__(self, engine, items=()):
        self.engine = engine
        self.items = deque(items)
        self.completed = []

    def pull(self):
        return self.items.popleft() if self.items else None

    def complete(self, token):
        self.completed.append((token, self.engine.now))


class FifoPolicy:
    def schedule(self, status):
        return [
            (t, c.cid)
            for t, c in zip(status.runnable, status.idle_cores())
        ]


def make_ghost(n_cores=2, policy=None, app="app"):
    eng = Engine()
    cores = [Core(i) for i in range(n_cores)]
    costs = CostModel(ctx_switch_us=1.0, ghost_msg_us=0.5,
                      ghost_commit_us=1.0, ghost_ipi_us=2.0)
    sched = GhostScheduler(eng, cores, costs)
    enclave = Enclave(app)
    agent = GhostAgent(eng, sched, enclave, policy or FifoPolicy(), costs)
    return eng, cores, sched, enclave, agent


def add_thread(eng, sched, enclave, items, tid, app="app"):
    thread = KThread(tid=tid, app=app)
    thread.source = ListSource(eng, items)
    enclave.register(thread)
    sched.attach(thread)
    return thread


# ----------------------------------------------------------------------
# Messages / enclave
# ----------------------------------------------------------------------
def test_message_kinds_validated():
    thread = KThread(tid=1)
    with pytest.raises(ValueError):
        Message("bogus", thread)
    assert Message(MessageKind.THREAD_WAKEUP, thread).kind == "thread_wakeup"


def test_enclave_rejects_foreign_threads():
    enclave = Enclave("a")
    foreign = KThread(tid=1, app="b")
    with pytest.raises(EnclaveViolation):
        enclave.register(foreign)
    with pytest.raises(EnclaveViolation):
        enclave.check(foreign)


def test_enclave_membership():
    enclave = Enclave("a")
    mine = KThread(tid=1, app="a")
    enclave.register(mine)
    assert mine in enclave
    assert len(enclave) == 1
    enclave.remove(mine)
    assert mine not in enclave


# ----------------------------------------------------------------------
# Agent + scheduler end-to-end
# ----------------------------------------------------------------------
def test_agent_schedules_woken_thread():
    eng, cores, sched, enclave, agent = make_ghost()
    thread = add_thread(eng, sched, enclave, [(10.0, "a")], tid=1)
    thread.wake()
    eng.run()
    assert thread.source.completed and thread.source.completed[0][0] == "a"
    assert agent.commits == 1
    # dispatch latency: 2 msgs (created + wakeup) + commit + ipi + ctx + work
    done_at = thread.source.completed[0][1]
    assert done_at == pytest.approx(2 * 0.5 + 1.0 + 2.0 + 1.0 + 10.0)


def test_agent_ignores_foreign_app_messages():
    eng, cores, sched, enclave, agent = make_ghost()
    foreign = KThread(tid=99, app="other")
    foreign.source = ListSource(eng, [(5.0, "f")])
    sched.attach(foreign)  # attached to ghost but NOT in the enclave
    foreign.wake()
    eng.run()
    assert agent.commits == 0
    assert foreign.source.completed == []  # invisible => never scheduled


def test_agent_fills_multiple_cores():
    eng, cores, sched, enclave, agent = make_ghost(n_cores=3)
    threads = [
        add_thread(eng, sched, enclave, [(10.0, f"t{i}")], tid=i)
        for i in range(3)
    ]
    for t in threads:
        t.wake()
    eng.run()
    assert all(t.source.completed for t in threads)
    assert agent.commits == 3


def test_more_threads_than_cores_queue_up():
    eng, cores, sched, enclave, agent = make_ghost(n_cores=1)
    t0 = add_thread(eng, sched, enclave, [(10.0, "a")], tid=0)
    t1 = add_thread(eng, sched, enclave, [(10.0, "b")], tid=1)
    t0.wake()
    t1.wake()
    eng.run()
    assert t0.source.completed and t1.source.completed
    finish = sorted([t0.source.completed[0][1], t1.source.completed[0][1]])
    assert finish[1] > finish[0] + 9.0  # serialized on the single core


def test_thread_keeps_core_between_requests():
    eng, cores, sched, enclave, agent = make_ghost(n_cores=1)
    thread = add_thread(eng, sched, enclave, [(5.0, "a"), (5.0, "b")], tid=0)
    thread.wake()
    eng.run()
    assert agent.commits == 1  # one placement covers both items
    assert [t for t, _ in thread.source.completed] == ["a", "b"]


class PreemptPolicy:
    """Always place the highest-tid runnable, preempting if needed."""

    def schedule(self, status):
        if not status.runnable:
            return []
        thread = max(status.runnable, key=lambda t: t.tid)
        idle = status.idle_cores()
        if idle:
            return [(thread, idle[0].cid)]
        victims = [c for c in status.cores if c.thread and not c.pending]
        if victims:
            return [(thread, victims[0].cid)]
        return []


def test_agent_preemption_generates_message_and_requeues():
    eng, cores, sched, enclave, agent = make_ghost(
        n_cores=1, policy=PreemptPolicy()
    )
    low = add_thread(eng, sched, enclave, [(100.0, "low")], tid=1)
    high = add_thread(eng, sched, enclave, [(10.0, "high")], tid=2)
    low.wake()
    eng.run(until=20.0)
    assert low.state.__eq__("running") or cores[0].thread is low
    high.wake()
    eng.run()
    assert agent.preemptions >= 1
    # both eventually complete; high finishes first
    assert high.source.completed[0][1] < low.source.completed[0][1]


def test_failed_commit_counted_not_fatal():
    eng, cores, sched, enclave, agent = make_ghost()
    thread = add_thread(eng, sched, enclave, [(5.0, "a")], tid=1)
    # commit a thread that was never woken (not runnable) -> abort
    assert sched.commit(thread, cores[0]) is False


def test_status_snapshot_shapes():
    status = SchedStatus(5.0, [], [])
    assert status.idle_cores() == []
    assert "runnable=0" in repr(status)


# ----------------------------------------------------------------------
# Malformed placements are the deploying app's problem only
# ----------------------------------------------------------------------
class MisplacingPolicy:
    """Returns ``bad(thread)`` for the lowest-tid runnable thread and a
    well-behaved placement for the next one, in the same pass."""

    def __init__(self, bad):
        self.bad = bad

    def schedule(self, status):
        runnable = sorted(status.runnable, key=lambda t: t.tid)
        idle = status.idle_cores()
        if len(runnable) < 2 or not idle:
            return []
        return [self.bad(runnable[0]), (runnable[1], idle[0].cid)]


@pytest.mark.parametrize("bad, error", [
    (lambda thread: (thread, 7), IndexError),      # past the last core
    (lambda thread: (thread, -1), IndexError),     # would wrap to the last
    (lambda thread: thread, TypeError),            # not a (thread, core) pair
], ids=["out_of_range", "negative", "bare_thread"])
def test_malformed_placement_is_contained(bad, error):
    eng, cores, sched, enclave, agent = make_ghost(
        n_cores=2, policy=MisplacingPolicy(bad))
    victim = add_thread(eng, sched, enclave, [(5.0, "victim")], tid=1)
    good = add_thread(eng, sched, enclave, [(5.0, "good")], tid=2)
    victim.wake()
    good.wake()
    eng.run()  # the parent raised out of here (or ran `victim` on core 1)
    assert agent.policy_errors >= 1
    assert isinstance(agent.last_error, error)
    # the well-behaved placement of the same pass still went through
    assert [token for token, _ in good.source.completed] == ["good"]
    assert agent.commits == 1
    # the misplaced thread ran nowhere: no wrap-around to the last core
    assert victim.source.completed == [] and victim.state == RUNNABLE
    assert all(core.thread is None for core in cores)


def test_non_int_core_index_is_contained():
    eng, cores, sched, enclave, agent = make_ghost(
        n_cores=2, policy=MisplacingPolicy(lambda thread: (thread, "0")))
    add_thread(eng, sched, enclave, [(5.0, "victim")], tid=1).wake()
    good = add_thread(eng, sched, enclave, [(5.0, "good")], tid=2)
    good.wake()
    eng.run()
    assert agent.policy_errors >= 1 and good.source.completed


# ----------------------------------------------------------------------
# The agent's view is refreshed in place and tracks kernel state
# ----------------------------------------------------------------------
class RecordingPolicy(FifoPolicy):
    """FIFO placement that records what every pass was shown."""

    def __init__(self):
        self.passes = []

    def schedule(self, status):
        # copy out: a status is valid only inside this call
        self.passes.append((
            [t.tid for t in status.runnable],
            [(c.cid, c.thread.tid if c.thread else None, c.pending)
             for c in status.cores],
            [c.cid for c in status.idle_cores()],
        ))
        return super().schedule(status)


def kernel_view(sched):
    return [(i, c.thread.tid if c.thread else None,
             c.pending_commit is not None)
            for i, c in enumerate(sched.cores)]


def check_every_snapshot(agent, sched):
    """Wrap ``agent._snapshot``: each pass's views must equal the kernel's
    state at that instant.  Returns the list of ``status.cores`` seen."""
    snapshot = agent._snapshot
    seen = []

    def checked():
        status = snapshot()
        seen.append(status.cores)
        assert [(c.cid, c.thread.tid if c.thread else None, c.pending)
                for c in status.cores] == kernel_view(sched)
        for view in status.cores:
            assert view.idle == (view in status.idle_cores())
        return status

    agent._snapshot = checked
    return seen


def test_status_cores_track_kernel_state_pass_after_pass():
    policy = RecordingPolicy()
    eng, cores, sched, enclave, agent = make_ghost(n_cores=2, policy=policy)
    seen = check_every_snapshot(agent, sched)
    threads = [add_thread(eng, sched, enclave, [(10.0, f"t{i}")], tid=i)
               for i in range(3)]
    for t in threads:
        t.wake()
    eng.run()
    assert all(t.source.completed for t in threads)
    assert len(policy.passes) >= 3
    # one persistent view list, the same CoreView objects every pass
    assert all(cores_seen is seen[0] for cores_seen in seen)
    # FIFO filled idle cores in order on the first pass that saw all three
    first = next(p for p in policy.passes if p[0] == [0, 1, 2])
    assert first[2] == [0, 1]
    # later passes saw a core running a thread, a core with a commit in
    # flight (neither is idle), and at the end both idle again
    assert any(row[1] is not None for p in policy.passes for row in p[1])
    assert any(row[2] for p in policy.passes for row in p[1])
    assert all(len(p[2]) == sum(1 for row in p[1]
                                if row[1] is None and not row[2])
               for p in policy.passes)
    assert policy.passes[-1][2] == [0, 1]


def test_status_cores_resize_across_add_and_remove_core_with_commit_in_flight():
    policy = RecordingPolicy()
    eng, cores, sched, enclave, agent = make_ghost(n_cores=2, policy=policy)
    check_every_snapshot(agent, sched)
    long_a = add_thread(eng, sched, enclave, [(50.0, "a")], tid=0)
    long_b = add_thread(eng, sched, enclave, [(50.0, "b")], tid=1)
    late = add_thread(eng, sched, enclave, [(5.0, "late")], tid=2)
    long_a.wake()
    long_b.wake()
    # stop between the decision and the IPI: both commits are in flight
    eng.run(until=2 * 0.5 + 4 * 0.5 + 0.1)
    assert all(c.pending_commit is not None for c in cores)
    extra = Core(2)
    sched.add_core(extra)           # grant while commits are pending
    late.wake()
    eng.run(until=20.0)
    assert [len(p[1]) for p in policy.passes][-1] == 3
    assert late.source.completed    # placed on the granted core
    sched.remove_core(cores[0])     # revoke a busy core
    eng.run()
    assert len(policy.passes[-1][1]) == 2
    # cids are positions in the surviving core list, not kernel core ids
    assert [row[0] for row in policy.passes[-1][1]] == [0, 1]
    assert long_a.source.completed and long_b.source.completed
    assert agent.revocation_aborts == 0 and agent.preemptions == 1


def test_status_cores_shrink_when_a_core_is_revoked_under_a_commit():
    policy = RecordingPolicy()
    eng, cores, sched, enclave, agent = make_ghost(n_cores=2, policy=policy)
    check_every_snapshot(agent, sched)
    thread = add_thread(eng, sched, enclave, [(5.0, "a")], tid=0)
    thread.wake()
    eng.run(until=2 * 0.5 + 0.1)    # decided, IPI to core 0 not landed
    assert cores[0].pending_commit is thread
    sched.remove_core(cores[0])     # the revocation barrier aborts it
    assert agent.revocation_aborts == 1 and cores[0].pending_commit is None
    eng.run()
    # re-decided over the one surviving core, shown as cid 0
    assert policy.passes[-1][1] == [(0, None, False)]
    assert [token for token, _ in thread.source.completed] == ["a"]
    assert agent.commits == 1 and agent.failed_commits == 0


def test_a_policy_scrambling_status_cores_is_healed_by_the_next_pass():
    class Scrambling(RecordingPolicy):
        def schedule(self, status):
            placements = super().schedule(status)
            status.cores.reverse()          # untrusted code owns nothing:
            status.cores[0].cid = 99        # the next refresh rewrites both
            return placements

    policy = Scrambling()
    eng, cores, sched, enclave, agent = make_ghost(n_cores=3, policy=policy)
    check_every_snapshot(agent, sched)      # cid == position, every pass
    threads = [add_thread(eng, sched, enclave, [(10.0, f"t{i}")], tid=i)
               for i in range(4)]
    for t in threads:
        t.wake()
    eng.run()
    assert len(policy.passes) >= 3 and agent.policy_errors == 0
    assert all(t.source.completed for t in threads)


def test_fifo_thread_policy_fills_idle_cores_in_order():
    from repro.policies.thread_policies import FifoThreadPolicy

    eng, cores, sched, enclave, agent = make_ghost(
        n_cores=3, policy=FifoThreadPolicy())
    threads = [add_thread(eng, sched, enclave, [(10.0, f"t{i}")], tid=i)
               for i in range(3)]
    for t in threads:
        t.wake()
    eng.run(until=2.0 + 6 * 0.5 + 3 * 1.0 + 2.0 + 1.0 + 0.5)
    assert [c.thread.tid for c in cores] == [0, 1, 2]
    eng.run()
    assert agent.commits == 3
