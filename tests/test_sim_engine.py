"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine, SimulationError


def test_runs_events_in_time_order():
    eng = Engine()
    seen = []
    eng.schedule(10.0, seen.append, "b")
    eng.schedule(5.0, seen.append, "a")
    eng.schedule(20.0, seen.append, "c")
    eng.run()
    assert seen == ["a", "b", "c"]
    assert eng.now == 20.0


def test_fifo_among_simultaneous_events():
    eng = Engine()
    seen = []
    for i in range(10):
        eng.schedule(1.0, seen.append, i)
    eng.run()
    assert seen == list(range(10))


def test_cancel_skips_event():
    eng = Engine()
    seen = []
    ev = eng.schedule(1.0, seen.append, "x")
    eng.schedule(2.0, seen.append, "y")
    ev.cancel()
    eng.run()
    assert seen == ["y"]


def test_cancel_is_idempotent():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    eng.run()
    assert eng.events_dispatched == 0


def test_run_until_stops_clock_exactly():
    eng = Engine()
    seen = []
    eng.schedule(5.0, seen.append, 1)
    eng.schedule(15.0, seen.append, 2)
    eng.run(until=10.0)
    assert seen == [1]
    assert eng.now == 10.0
    eng.run()
    assert seen == [1, 2]


def test_run_until_advances_clock_when_idle():
    eng = Engine()
    eng.run(until=100.0)
    assert eng.now == 100.0


def test_events_scheduled_during_dispatch_run():
    eng = Engine()
    seen = []

    def first():
        seen.append("first")
        eng.schedule(1.0, seen.append, "second")

    eng.schedule(1.0, first)
    eng.run()
    assert seen == ["first", "second"]
    assert eng.now == 2.0


def test_call_soon_runs_at_current_time():
    eng = Engine()
    times = []

    def outer():
        eng.call_soon(lambda: times.append(eng.now))

    eng.schedule(7.0, outer)
    eng.run()
    assert times == [7.0]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-1.0, lambda: None)


def test_scheduling_in_past_rejected():
    eng = Engine()
    eng.schedule(10.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.at(5.0, lambda: None)


def test_max_events_limit():
    eng = Engine()
    for i in range(10):
        eng.schedule(float(i + 1), lambda: None)
    eng.run(max_events=3)
    assert eng.events_dispatched == 3
    assert eng.pending() == 7


def test_run_loop_edge_semantics():
    # max_events=0 still dispatches one event, as it always has
    eng = Engine()
    seen = []
    for i in range(3):
        eng.post(float(i + 1), seen.append, i)
    eng.run(max_events=0)
    assert (seen, eng.events_dispatched, eng.now) == ([0], 1, 1.0)
    # a NaN bound never stops the loop and leaves the clock at the last
    # event
    eng.run(until=float("nan"))
    assert (seen, eng.events_dispatched, eng.now) == ([0, 1, 2], 3, 3.0)
    # a cancelled head past the bound is discarded; the live entry past
    # it stays queued in its place
    eng = Engine()
    eng.schedule(20.0, seen.append, "never").cancel()
    eng.post(30.0, seen.append, "later")
    eng.run(until=10.0)
    assert (eng.now, eng.queued(), eng.events_dispatched) == (10.0, 1, 0)
    eng.post(30.0, seen.append, "after")
    eng.run()
    assert seen[-2:] == ["later", "after"]


def test_a_raising_callback_is_counted_and_popped():
    eng = Engine()

    def boom():
        raise ValueError("boom")

    eng.post(1.0, lambda: None)
    eng.post(2.0, boom)
    eng.post(3.0, lambda: None)
    with pytest.raises(ValueError):
        eng.run()
    assert (eng.events_dispatched, eng.now, eng.queued()) == (2, 2.0, 1)
    eng.run()                       # not left marked as running
    assert eng.events_dispatched == 3


def test_withdraw_takes_back_posted_callbacks_by_first_argument():
    eng = Engine()
    seen, other = [], []
    a, b, c = ["a"], ["b"], ["c"]
    for item in (a, b, c):
        eng.post(1.0, seen.append, item)
    eng.post(1.0, other.append, b)           # another callback: kept
    eng.schedule(1.0, seen.append, b)        # cancellable: kept
    eng.withdraw(seen.append, [b, ["c"]])    # by identity, not equality
    eng.withdraw(seen.append, [])
    eng.run()
    assert (seen, other) == ([a, c, b], [b])
    assert eng.events_dispatched == 4


def test_step_returns_false_when_idle():
    eng = Engine()
    assert eng.step() is False
    eng.schedule(1.0, lambda: None)
    assert eng.step() is True
    assert eng.step() is False


def test_engine_not_reentrant():
    eng = Engine()
    errors = []

    def nested():
        try:
            eng.run()
        except SimulationError as exc:
            errors.append(exc)

    eng.schedule(1.0, nested)
    eng.run()
    assert len(errors) == 1


def test_pending_excludes_cancelled():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    ev.cancel()
    assert eng.pending() == 1


# ----------------------------------------------------------------------
# Handle-less entries
# ----------------------------------------------------------------------
def test_post_returns_nothing_and_fires():
    eng = Engine()
    seen = []
    assert eng.post(2.0, seen.append, "late") is None
    assert eng.post_at(1.0, seen.append, "early") is None
    eng.run()
    assert seen == ["early", "late"]
    assert eng.events_dispatched == 2


def test_fifo_across_posted_and_cancellable_entries():
    eng = Engine()
    seen = []
    eng.post(1.0, seen.append, 0)
    eng.schedule(1.0, seen.append, 1)
    eng.post_at(1.0, seen.append, 2)
    eng.at(1.0, seen.append, 3)
    eng.post(1.0, seen.append, 4)
    eng.run()
    assert seen == [0, 1, 2, 3, 4]


def test_queued_counts_cancelled_entries_pending_does_not():
    eng = Engine()
    assert eng.queued() == 0
    ev = eng.schedule(1.0, lambda: None)
    eng.post(2.0, lambda: None)
    ev.cancel()
    assert eng.queued() == 2
    assert eng.pending() == 1
    eng.run()
    assert eng.queued() == 0


@pytest.mark.parametrize("entry", ["schedule", "post"])
def test_nan_delay_rejected(entry):
    """A NaN key compares false against everything, so one queued NaN
    entry lets later events dispatch out of time order.  At the parent
    commit 5.0, NaN, 1.0, 3.0, 0.5 ran the 1.0 event before the 0.5 one."""
    eng = Engine()
    seen = []
    getattr(eng, entry)(5.0, seen.append, 5.0)
    with pytest.raises(SimulationError):
        getattr(eng, entry)(float("nan"), seen.append, "nan")
    for delay in (1.0, 3.0, 0.5):
        getattr(eng, entry)(delay, seen.append, delay)
    eng.run()
    assert seen == [0.5, 1.0, 3.0, 5.0]


@pytest.mark.parametrize("entry", ["at", "post_at"])
def test_nan_time_rejected(entry):
    eng = Engine()
    with pytest.raises(SimulationError):
        getattr(eng, entry)(float("nan"), lambda: None)
    assert eng.queued() == 0


@pytest.mark.parametrize("entry", ["post", "post_at"])
def test_posting_in_the_past_rejected(entry):
    eng = Engine()
    eng.post(10.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        getattr(eng, entry)(-1.0, lambda: None)


# ----------------------------------------------------------------------
# Order property: the engine against a model that sorts by (time, seq)
# ----------------------------------------------------------------------
HANDLE_KINDS = ("schedule", "at", "call_soon")
POST_KINDS = ("post", "post_at")
# Few distinct delays, zero included, so same-instant ties are the norm.
DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.5)


@st.composite
def programs(draw):
    """A program is a list of actions; action ``i`` is issued at top level
    (``parent`` None) or from inside action ``parent``'s callback.  A
    ``cancel`` action targets an earlier action's handle."""
    size = draw(st.integers(1, 40))
    actions = []
    for i in range(size):
        kind = draw(st.sampled_from(HANDLE_KINDS + POST_KINDS + ("cancel",)))
        parent = draw(st.one_of(st.none(), st.integers(0, i - 1))) if i \
            else None
        if parent is not None and actions[parent]["kind"] == "cancel":
            parent = None  # cancels are not callbacks
        actions.append({
            "kind": kind,
            "delay": draw(st.sampled_from(DELAYS)),
            "parent": parent,
            "target": draw(st.integers(0, i - 1)) if i else 0,
        })
    slices = sorted(draw(st.lists(
        st.floats(0.0, 12.0, allow_nan=False), max_size=6)))
    return actions, slices


def children_of(actions, parent):
    return [i for i, a in enumerate(actions) if a["parent"] == parent]


def run_engine(actions, slices):
    """Drive the real engine; returns (dispatch order, per-run
    (events_dispatched, pending)) and checks cancelled handles."""
    eng = Engine()
    order, handles, fired, never = [], {}, set(), set()

    def issue(i):
        action = actions[i]
        kind, delay = action["kind"], action["delay"]
        if kind == "cancel":
            handle = handles.get(action["target"])
            if handle is not None:
                handle.cancel()
                assert handle.cancelled
                if action["target"] not in fired:
                    never.add(action["target"])
        elif kind == "schedule":
            handles[i] = eng.schedule(delay, fire, i)
        elif kind == "at":
            handles[i] = eng.at(eng.now + delay, fire, i)
        elif kind == "call_soon":
            handles[i] = eng.call_soon(fire, i)
        elif kind == "post":
            assert eng.post(delay, fire, i) is None
        else:
            assert eng.post_at(eng.now + delay, fire, i) is None

    def fire(i):
        order.append(i)
        fired.add(i)
        for child in children_of(actions, i):
            issue(child)

    for i in children_of(actions, None):
        issue(i)
    checkpoints = []
    for until in slices:
        eng.run(until=until)
        assert eng.now == until
        checkpoints.append((eng.events_dispatched, eng.pending()))
    eng.run()
    checkpoints.append((eng.events_dispatched, eng.pending()))
    assert not never & fired, "a cancelled handle fired"
    assert eng.queued() == 0
    return order, checkpoints


def run_model(actions, slices):
    """The reference: a list re-sorted by (time, seq) before every pop."""
    queue, order, cancelled, issued = [], [], set(), set()
    state = {"now": 0.0, "seq": 0}

    def issue(i):
        action = actions[i]
        if action["kind"] == "cancel":
            if action["target"] in issued and \
                    actions[action["target"]]["kind"] in HANDLE_KINDS:
                cancelled.add(action["target"])
            return
        delay = 0.0 if action["kind"] == "call_soon" else action["delay"]
        state["seq"] += 1
        issued.add(i)
        queue.append((state["now"] + delay, state["seq"], i))

    def run(until):
        while queue:
            queue.sort()
            time, _seq, i = queue[0]
            if i in cancelled:
                queue.pop(0)
                continue
            if until is not None and time > until:
                break
            queue.pop(0)
            state["now"] = time
            order.append(i)
            for child in children_of(actions, i):
                issue(child)
        live = sum(1 for _t, _s, i in queue if i not in cancelled)
        return len(order), live

    for i in children_of(actions, None):
        issue(i)
    checkpoints = [run(until) for until in slices]
    checkpoints.append(run(None))
    return order, checkpoints


@settings(max_examples=300, deadline=None)
@given(programs())
def test_dispatch_order_matches_the_sorting_model(program):
    actions, slices = program
    want_order, want_sliced = run_model(actions, slices)
    got_order, got_sliced = run_engine(actions, slices)
    assert got_order == want_order
    assert got_sliced == want_sliced
    # One run() and run(until=...) slices dispatch the same sequence.
    whole_order, whole = run_engine(actions, [])
    assert whole_order == want_order
    assert whole == want_sliced[-1:]
