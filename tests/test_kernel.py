"""Scheduler semantics: instants, broadcast, collection, determinism."""

import pytest
from hypothesis import example, given, settings, strategies as st

from syncell.kernel import (
    Await,
    AwaitCollect,
    COOPERATE,
    Collect,
    DivergenceError,
    Event,
    KernelError,
    PhaseError,
    Scheduler,
)

from reference_scheduler import ReferenceScheduler


def drive(sched, instants):
    return [sched.run_instant() for _ in range(instants)]


def test_an_event_is_made_at_rest():
    s = Scheduler()
    a, b = Event(), Event()
    for e in (a, b):
        assert e.values == () and e.waiters == ()

    seen = []

    def producer():
        s.generate(a, 1)
        seen.append((list(a.values), bool(b.values), b.values))  # the shared () stays empty
        yield COOPERATE

    s.spawn(producer())
    s.run_instant()
    assert seen == [([1], False, ())]


def test_event_outlives_instants_with_cleared_buffers():
    s = Scheduler()
    e = Event()
    seen = []

    def producer():
        for _ in range(5):
            yield COOPERATE
        s.generate(e, "x")
        yield COOPERATE

    def checker():
        for _ in range(9):
            seen.append((s.clock, bool(e.values), list(e.values)))
            yield COOPERATE

    s.spawn(producer())
    s.spawn(checker())
    drive(s, 9)
    # generated at instant 5 only; buffers empty at every instant start
    assert (5, True, ["x"]) in seen or (5, True, []) in seen
    for clock, present, values in seen:
        if clock != 5:
            assert present is False and values == []


def test_generate_appends_in_order_and_resets_next_instant():
    s = Scheduler()
    e = Event()
    observed = {}

    def producer():
        s.generate(e, 3)
        s.generate(e, 5)
        observed["during"] = (bool(e.values), list(e.values))
        yield COOPERATE
        observed["after"] = (bool(e.values), list(e.values))

    s.spawn(producer())
    drive(s, 2)
    assert observed["during"] == (True, [3, 5])
    assert observed["after"] == (False, [])


def test_await_resumes_in_generation_instant():
    s = Scheduler()
    e = Event()
    resumed = []

    def waiter():
        yield Await(e)
        resumed.append(s.clock)

    def producer():
        for _ in range(4):
            yield COOPERATE
        s.generate(e, 1)

    s.spawn(waiter())
    s.spawn(producer())
    drive(s, 6)
    assert resumed == [4]


def test_await_already_present_does_not_suspend():
    s = Scheduler()
    e = Event()
    log = []

    def producer():
        s.generate(e, "v")
        yield COOPERATE

    def late_waiter():
        yield Await(e)  # producer has smaller id, so e is present already
        log.append(("woke", s.clock))
        yield COOPERATE

    s.spawn(producer())
    s.spawn(late_waiter())
    drive(s, 1)
    assert log == [("woke", 0)]


def test_await_never_generated_suspends_forever():
    s = Scheduler()
    e = Event()

    def waiter():
        yield Await(e)
        raise AssertionError("must never resume")

    s.spawn(waiter())
    reports = drive(s, 5)
    assert all(r.alive == 1 for r in reports)


def test_collect_returns_exactly_the_opening_instants_values():
    s = Scheduler()
    e = Event()
    got = []

    def collector():
        got.append((yield Collect(e)))

    def producer():
        s.generate(e, "a1")
        s.generate(e, "a2")
        s.generate(e, "a3")
        yield COOPERATE
        s.generate(e, "late")

    s.spawn(collector())
    s.spawn(producer())
    drive(s, 3)
    assert got == [("a1", "a2", "a3")]


def test_await_collect_on_present_event_collects_the_whole_instant():
    s = Scheduler()
    e = Event()
    got = []

    def early():
        s.generate(e, "a")
        yield COOPERATE
        s.generate(e, "next")

    def collector():  # e is already present when it yields
        got.append(((yield AwaitCollect(e)), s.clock))

    def late():
        s.generate(e, "b")
        yield COOPERATE

    for gen in (early(), collector(), late()):
        s.spawn(gen)
    drive(s, 3)
    assert got == [(("a", "b"), 1)]


def test_await_and_await_collect_share_one_event():
    s = Scheduler()
    e = Event()
    log = []

    def collector():
        values = yield AwaitCollect(e)
        log.append(("collect", s.clock, values))

    def awaiter():
        yield Await(e)
        log.append(("await", s.clock))
        s.generate(e, 3)  # after the wake, still collected

    def producer():
        yield COOPERATE
        s.generate(e, 1)
        s.generate(e, 2)
        yield COOPERATE

    for gen in (collector(), awaiter(), producer()):
        s.spawn(gen)
    drive(s, 4)
    assert log == [("await", 1), ("collect", 2, (1, 2, 3))]
    assert e.waiters == ()


def test_woken_behavior_runs_after_every_admitted_behavior():
    s = Scheduler()
    e = Event()
    order = []

    def sleeper():  # bid 0: parked since instant 0
        yield Await(e)
        order.append("sleeper")

    def waker():  # bid 1
        yield COOPERATE
        s.generate(e)
        order.append("waker")

    def resumed():  # bid 2: resumes at instant 1's start
        yield COOPERATE
        order.append("resumed")

    def spawned():  # bid 3: spawned between instants 0 and 1
        order.append("spawned")
        yield COOPERATE

    for gen in (sleeper(), waker(), resumed()):
        s.spawn(gen)
    s.run_instant()
    s.spawn(spawned())
    s.run_instant()
    assert order == ["waker", "resumed", "spawned", "sleeper"]


def test_a_behavior_parks_the_same_kernel_record_at_every_suspension():
    s = Scheduler()
    e, f = Event(), Event()
    log, parked = [], []

    def behavior():  # bid 0
        yield COOPERATE  # instant 0
        log.append((yield Collect(f)))  # instant 1, resumes in 2
        log.append((yield AwaitCollect(e)))  # parks in 2, generated in 3, resumes in 4
        yield Await(e)  # parks in 4, resumes in 5
        log.append(s.clock)

    def driver():  # bid 1: runs after the behavior in every instant
        yield COOPERATE
        s.generate(f, "x")  # instant 1
        yield COOPERATE
        parked.append(e.waiters)  # instant 2: the AwaitCollect parked
        yield COOPERATE
        s.generate(e, 1)  # instant 3
        yield COOPERATE
        parked.append(e.waiters)  # instant 4: the Await parked
        yield COOPERATE
        s.generate(e, 2)  # instant 5

    s.spawn(behavior())
    s.spawn(driver())
    drive(s, 6)
    assert log == [("x",), (1,), 5]
    first, second = parked
    assert first and not isinstance(first, list)  # a lone waiter is held without a list
    assert second is first
    assert e.waiters == ()


def test_a_lone_waiter_becomes_a_list_when_others_park_and_all_wake_in_id_order():
    s = Scheduler()
    e = Event()
    low, mid, high = s.reserve(3)
    log, shapes = [], []

    def awaiter(bid, delay):
        for _ in range(delay):
            yield COOPERATE
        yield Await(e)
        log.append(("await", bid, s.clock))

    def collector(bid, delay):
        for _ in range(delay):
            yield COOPERATE
        values = yield AwaitCollect(e)
        log.append(("collect", bid, s.clock, values))

    def producer():  # bid 3: runs last in every instant
        shapes.append(e.waiters)  # instant 0: the first waiter parked alone
        yield COOPERATE
        shapes.append(list(e.waiters))  # instant 1: two lower ids parked after it
        yield COOPERATE
        s.generate(e, "v")  # instant 2
        shapes.append(e.waiters)

    s.spawn(awaiter(high, 0), high)
    s.spawn(awaiter(low, 1), low)
    s.spawn(collector(mid, 1), mid)
    s.spawn(producer())
    drive(s, 4)
    lone, grown, woken = shapes
    assert lone and not isinstance(lone, list)
    assert grown[0] is lone and len(grown) == 3
    assert woken == ()
    # the two awaiters wake in spawn-id order, not park order, in the
    # instant of the generate; the collector resumes in the next
    assert log == [("await", low, 2), ("await", high, 2), ("collect", mid, 3, ("v",))]
    assert e.waiters == ()


def test_collect_absent_event_yields_empty_list():
    s = Scheduler()
    e = Event()
    got = []

    def collector():
        got.append((yield Collect(e)))
        got.append(s.clock)

    s.spawn(collector())
    drive(s, 2)
    assert got == [(), 1]


def test_one_collect_command_yielded_by_two_behaviors_in_several_instants():
    # a command is a description: the cell cycle yields one Collect per
    # measurement context from every member cell, cycle after cycle
    s = Scheduler()
    e = Event()
    shared = Collect(e)
    got = {"a": [], "b": []}

    def collector(name):
        for _ in range(3):
            got[name].append((yield shared))

    def producer():
        s.generate(e, 1)
        s.generate(e, 2)
        yield COOPERATE
        yield COOPERATE  # e stays absent in instant 1
        s.generate(e, 3)

    for gen in (collector("a"), collector("b"), producer()):
        s.spawn(gen)
    drive(s, 4)
    assert got["a"] == got["b"] == [(1, 2), (), (3,)]
    for mine, theirs in zip(got["a"], got["b"]):
        assert mine is theirs  # one tuple per event and instant, shared


def test_cooperate_advances_one_instant_each():
    s = Scheduler()
    marks = []

    def b():
        marks.append(s.clock)
        yield COOPERATE
        marks.append(s.clock)
        yield COOPERATE
        yield COOPERATE
        marks.append(s.clock)

    s.spawn(b())
    drive(s, 4)
    assert marks == [0, 1, 3]


def test_cooperate_never_blocks_the_rest_of_the_instant():
    s = Scheduler()
    log = []

    def eager():
        while True:
            yield COOPERATE

    def other():
        log.append(s.clock)
        yield COOPERATE
        log.append(s.clock)

    s.spawn(eager())
    s.spawn(other())
    drive(s, 2)
    assert log == [0, 1]


def test_spawns_in_an_instant_start_in_it_in_spawn_order():
    s = Scheduler()
    log = []

    def child(name):
        log.append((name, s.clock))
        yield COOPERATE

    def parent():
        s.spawn(child("a"))
        s.spawn(child("b"))
        yield COOPERATE

    s.spawn(parent())
    drive(s, 2)
    assert log == [("a", 0), ("b", 0)]


def test_children_and_grandchildren_spawned_in_an_instant_start_in_it():
    s = Scheduler()
    log = []

    def grandchild():
        log.append(("grandchild", s.clock))
        yield COOPERATE

    def child():
        log.append(("child", s.clock))
        s.spawn(grandchild())
        yield COOPERATE

    def parent():
        s.spawn(child())
        yield COOPERATE

    s.spawn(parent())
    drive(s, 3)
    assert log == [("child", 0), ("grandchild", 0)]


# -- reserved spawn ids -------------------------------------------------------------


def test_plain_and_reserved_spawns_in_an_instant_are_queued_like_wake_ups():
    s = Scheduler()
    ids = s.reserve(2)
    e = Event()
    log = []

    def child(name):
        log.append((name, s.clock))
        yield COOPERATE

    def waiter():
        yield Await(e)
        log.append(("woken", s.clock))

    def parent():
        s.spawn(child("reserved"), ids[1])
        s.spawn(child("plain"))
        s.generate(e)
        log.append(("parent", s.clock))
        yield COOPERATE

    s.spawn(waiter())
    s.spawn(parent())
    report = s.run_instant()
    # each start is queued like a wake-up: after the spawner's step, before the
    # awaiter its generate woke later; the reserved id changes nothing of that
    assert log == [("parent", 0), ("reserved", 0), ("plain", 0), ("woken", 0)]
    assert report.steps == 5 and report.alive == 3


def test_reserved_behaviors_resume_in_id_order_not_start_order():
    s = Scheduler()
    ids = s.reserve(3)
    log = []

    def member(i):
        while True:
            log.append((s.clock, i))
            yield COOPERATE

    def starter():
        for i in (2, 0, 1):
            s.spawn(member(i), ids[i])
        yield COOPERATE

    s.spawn(starter())
    drive(s, 3)
    assert log == [(0, 2), (0, 0), (0, 1)] + [(t, i) for t in (1, 2) for i in range(3)]


@given(st.lists(st.integers(0, 4), max_size=20))
def test_reserved_ids_never_collide_with_spawned_ids(plan):
    s = Scheduler()

    def idle():
        yield COOPERATE

    spawned, reserved = [], []
    for n in plan:  # 0 spawns a behavior, n > 0 reserves n ids
        if n:
            reserved.extend(s.reserve(n))
        else:
            spawned.append(s.spawn(idle()))
    reserved = [s.spawn(idle(), bid) for bid in reserved]
    spawned.append(s.spawn(idle()))
    ids = spawned + reserved
    assert len(set(ids)) == len(ids) == plan.count(0) + 1 + sum(plan)


def test_reserved_spawn_between_instants_starts_next_instant_in_id_order():
    s = Scheduler()
    ids = s.reserve(1)
    log = []

    def behavior(name):
        log.append((name, s.clock))
        yield COOPERATE

    s.spawn(behavior("plain"))
    s.spawn(behavior("reserved"), ids[0])
    assert log == [] and s.alive == 2 and not s.is_quiet()
    s.run_instant()
    # among the resumptions due at the start, sorted by id, so before the
    # plain spawn (a higher id) although started after it
    assert log == [("reserved", 0), ("plain", 0)]


def test_spawn_rejects_an_id_reserve_never_gave_out_or_a_live_behavior_holds():
    def b():
        yield COOPERATE

    s = Scheduler()
    for bid in (0, 0, 5):  # nothing reserved yet
        with pytest.raises(KernelError):
            s.spawn(b(), bid)
    assert s.alive == 0 and s.is_quiet()
    s.reserve(6)
    assert s.spawn(b(), 0) == 0
    with pytest.raises(KernelError):
        s.spawn(b(), 0)  # held by the live behavior
    assert s.spawn(b(), 5) == 5
    plain = s.spawn(b())
    for bid in (plain, 6, -1):  # a plain spawn's id, one past the last, negative
        with pytest.raises(KernelError):
            s.spawn(b(), bid)
    assert s.alive == 3
    assert s.run_instant().steps == 3


def test_a_reserved_id_is_free_again_once_its_behavior_finishes():
    s = Scheduler()
    [bid] = s.reserve(1)
    log = []

    def once(name):
        log.append((name, s.clock))
        yield COOPERATE

    def restarter():  # a higher id: in instant 1 it runs after "first" finishes
        yield COOPERATE
        s.spawn(once("second"), bid)

    s.spawn(once("first"), bid)
    s.spawn(restarter())
    s.run_instant()
    with pytest.raises(KernelError):
        s.spawn(once("early"), bid)  # still held
    drive(s, 2)
    assert log == [("first", 0), ("second", 1)]


def test_empty_scheduler_instant_report():
    s = Scheduler()
    report = s.run_instant()
    assert report.instant == 0 and report.alive == 0 and report.generated == 0
    assert s.clock == 1


def test_instant_report_counts_every_generated_value():
    s = Scheduler()
    a, b, c, d = (Event() for _ in range(4))
    got = []

    def collector():  # reads a at the end of the instant it is generated in
        got.append((yield Collect(a)))
        got.append((yield AwaitCollect(c)))

    def relay():  # generates d in the instant it is woken by c
        yield Await(c)
        s.generate(d, "d")

    def emitter():
        s.generate(a, 1)
        s.generate(a, 2)  # a second value on the same event
        s.generate(b, "b")  # nobody waits on b
        yield COOPERATE
        s.generate(c, "c")

    for behavior in (collector(), relay(), emitter()):
        s.spawn(behavior)
    assert [r.generated for r in drive(s, 3)] == [3, 2, 0]
    assert got == [(1, 2), ("c",)]


def test_cooperate_loop_runs_one_step_per_instant_forever():
    s = Scheduler()
    ticks = []

    def b():
        while True:
            ticks.append(s.clock)
            yield COOPERATE

    s.spawn(b())
    reports = drive(s, 10)
    assert ticks == list(range(10))
    assert all(r.alive == 1 for r in reports)


def test_same_instant_self_wake_loop_hits_divergence_budget():
    s = Scheduler(microstep_budget=1000)
    e = Event()

    def spinner():
        while True:
            s.generate(e, 0)
            yield Await(e)  # present, resumes immediately, never suspends

    s.spawn(spinner())
    with pytest.raises(DivergenceError):
        s.run_instant()


def test_generate_outside_active_phase_is_rejected():
    s = Scheduler()
    e = Event()
    with pytest.raises(PhaseError):
        s.generate(e, 1)
    woke = []

    def collector():
        woke.append((yield AwaitCollect(e)))

    s.spawn(collector())
    s.run_instant()  # the collector parks on e
    with pytest.raises(PhaseError):
        s.generate(e, 2)
    drive(s, 2)
    assert e.values == () and woke == []


def test_yielding_garbage_is_a_kernel_error():
    s = Scheduler()

    def bad():
        yield 42

    s.spawn(bad())
    with pytest.raises(KernelError):
        s.run_instant()


def test_terminated_behavior_never_runs_again():
    s = Scheduler()
    runs = []

    def once():
        runs.append(s.clock)
        if False:
            yield

    s.spawn(once())
    assert s.alive == 1
    reports = drive(s, 3)
    assert runs == [0]
    assert [r.alive for r in reports] == [0, 0, 0]
    assert s.is_quiet()


# -- randomized semantics -------------------------------------------------------


def _interp(sched, events, script, trace, label, split=False, pool=None, held=None):
    """Run a list of ops, recording every resumption with its instant.

    ``split`` runs each await_collect op as an Await then a Collect. ``pool``
    lists the reserved spawn ids that no behavior holds: a reserved spawn takes
    one out, and the behavior spawned under ``held`` puts it back as it ends."""
    for k, op in enumerate(script):
        tag = op[0]
        if tag == "gen":
            sched.generate(events[op[1]], op[2])
            trace.append((label, "gen", op[1], op[2], sched.clock))
        elif tag == "await":
            yield Await(events[op[1]])
            trace.append((label, "await", op[1], sched.clock))
        elif tag == "collect":
            values = yield Collect(events[op[1]])
            trace.append((label, "collect", op[1], values, sched.clock))
        elif tag == "await_collect":
            if split:
                yield Await(events[op[1]])
                values = yield Collect(events[op[1]])
            else:
                values = yield AwaitCollect(events[op[1]])
            trace.append((label, "await_collect", op[1], values, sched.clock))
        elif tag == "reserve":
            pool.extend(sched.reserve(op[1]))
            trace.append((label, "reserve", op[1], sched.clock))
        elif tag == "alive":
            trace.append((label, "alive", sched.alive, sched.clock))
        elif tag in ("spawn", "spawn_reserved", "spawn_id"):
            child = f"{label}.{k}"
            if tag == "spawn":
                bid = None
            elif tag == "spawn_reserved":  # the op[2]-th free reserved id
                if not pool:
                    pool.extend(sched.reserve(1))
                bid = pool[op[2] % len(pool)]
            else:  # any id: one no reserve gave out, or one a live behavior holds
                bid = op[2]
            gen = _interp(sched, events, op[1], trace, child, split, pool, bid)
            try:
                got = sched.spawn(gen, bid)
            except KernelError:
                trace.append((label, "rejected", bid, sched.clock))
                continue
            if bid is not None:
                pool.remove(bid)
            trace.append((label, tag, child, got, sched.clock))
        else:
            yield COOPERATE
            trace.append((label, "coop", sched.clock))
    if held is not None:
        pool.append(held)
    trace.append((label, "end", sched.clock))


_ops = st.one_of(
    st.tuples(st.just("gen"), st.integers(0, 2), st.integers(0, 9)),
    st.tuples(st.just("await"), st.integers(0, 2)),
    st.tuples(st.just("collect"), st.integers(0, 2)),
    st.tuples(st.just("await_collect"), st.integers(0, 2)),
    st.tuples(st.just("coop")),
    st.tuples(st.just("reserve"), st.integers(1, 3)),
    st.tuples(st.just("alive")),
)


def _spawn_ops(scripts):
    return st.one_of(
        st.tuples(st.just("spawn"), scripts),
        st.tuples(st.just("spawn_reserved"), scripts, st.integers(0, 3)),
        st.tuples(st.just("spawn_id"), scripts, st.integers(-1, 9)),
    )


# scripts spawn scripts, nested a few levels deep
_scripts = st.recursive(
    st.lists(_ops, max_size=8),
    lambda scripts: st.lists(st.one_of(_ops, _spawn_ops(scripts)), max_size=8),
    max_leaves=12,
)
_programs = st.lists(_scripts, min_size=1, max_size=5)


def _run_program(program, instants=30, split=False):
    sched = Scheduler(microstep_budget=10_000)
    events = [Event() for _ in range(3)]
    trace, pool = [], []
    for i, script in enumerate(program):
        sched.spawn(_interp(sched, events, script, trace, i, split, pool))
    for _ in range(instants):
        sched.run_instant()
        if sched.is_quiet():
            break
    return trace


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_programs)
def test_property_identical_programs_give_identical_traces(program):
    assert _run_program(program) == _run_program(program)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_programs)
def test_property_await_collect_is_await_then_collect(program):
    assert _run_program(program) == _run_program(program, split=True)


# -- the kernel against the reference scheduler ------------------------------------

# a gap, what the driver does between two instants, holds only ops that never
# suspend: plain, reserved and any-id spawns, reserve and alive
_gap_ops = st.one_of(
    st.tuples(st.just("reserve"), st.integers(1, 3)),
    st.tuples(st.just("alive")),
    _spawn_ops(_scripts),
)
_gaps = st.lists(st.lists(_gap_ops, max_size=4), min_size=1, max_size=4)
_budgets = st.one_of(st.integers(1, 60), st.just(10_000))


def _collected_once(trace):
    """Assert that every collector of one event in one instant got one shared
    tuple: the collects of a trace, grouped by event and resuming instant."""
    shared = {}
    for entry in trace:
        if isinstance(entry, tuple) and entry[1] in ("collect", "await_collect"):
            _, _, event, values, clock = entry
            assert type(values) is tuple
            assert values is shared.setdefault((event, clock), values)


def _run_gaps(sched, gaps, instants=30):
    """Trace a run: every op, each instant's report, ``is_quiet`` and
    ``alive`` before each instant, and where the micro-step budget ran out.
    Each collected value is traced as received, so the trace compares types
    too, and ``_collected_once`` checks it."""
    events = [Event() for _ in range(3)]
    trace, pool = [], []
    for clock in range(instants):
        if clock < len(gaps):
            assert list(_interp(sched, events, gaps[clock], trace, f"g{clock}", pool=pool)) == []
        quiet = sched.is_quiet()
        trace.append(("before", clock, quiet, sched.alive))
        if quiet and clock >= len(gaps):
            break
        try:
            report = sched.run_instant()
        except DivergenceError as err:
            trace.append(("diverged", err.instant, err.budget))
            break
        trace.append(report)
    _collected_once(trace)
    return trace


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_gaps, _budgets)
# ids 0 and 1 reserved before the plain spawn 2, whose child 1 parks on event 2
# after it: one generate must still wake them in id order
@example(
    [[("reserve", 2), ("spawn", [("spawn_reserved", [("await", 2)], 0), ("await", 2)]),
      ("spawn_reserved", [("collect", 0), ("gen", 2, 0)], 0)]],
    10_000,
)
def test_property_scheduler_agrees_with_the_reference_scheduler(gaps, budget):
    assert _run_gaps(Scheduler(budget), gaps) == _run_gaps(ReferenceScheduler(budget), gaps)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(0, 6))
def test_property_broadcast_wakes_every_awaiter_in_the_generation_instant(
    n_waiters, delay
):
    sched = Scheduler()
    e = Event()
    resumed = []

    def waiter(i):
        yield Await(e)
        resumed.append((i, sched.clock))

    def producer():
        for _ in range(delay):
            yield COOPERATE
        sched.generate(e, ())

    for i in range(n_waiters):
        sched.spawn(waiter(i))
    sched.spawn(producer())
    for _ in range(delay + 2):
        sched.run_instant()
    assert sorted(resumed) == [(i, delay) for i in range(n_waiters)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9)), max_size=12),
    st.integers(0, 3),
)
def test_property_collect_is_exactly_the_opening_instant_multiset(plan, open_at):
    """plan: (instant, value) generations; a collector opens at open_at."""
    sched = Scheduler()
    e = Event()
    got = []

    def producer():
        by_instant = {}
        for t, v in plan:
            by_instant.setdefault(t, []).append(v)
        for t in range(5):
            for v in by_instant.get(t, []):
                sched.generate(e, v)
            yield COOPERATE

    def collector():
        for _ in range(open_at):
            yield COOPERATE
        got.append((yield Collect(e)))

    sched.spawn(producer())
    sched.spawn(collector())
    for _ in range(7):
        sched.run_instant()
    expected = sorted(v for t, v in plan if t == open_at)
    assert sorted(got[0]) == expected


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), max_size=10))
def test_property_buffers_are_reset_at_every_instant_boundary(gens):
    sched = Scheduler()
    events = [Event() for _ in range(3)]

    def producer():
        by_instant = {}
        for ev, t in gens:
            by_instant.setdefault(t, []).append(ev)
        for t in range(6):
            for ev in by_instant.get(t, []):
                sched.generate(events[ev], t)
            yield COOPERATE

    sched.spawn(producer())
    for _ in range(7):
        sched.run_instant()
        for e in events:
            assert e.values == ()


def test_instant_start_admits_resumptions_and_between_instant_spawns_in_id_order():
    s = Scheduler()
    e = Event()
    order = []

    def collector():  # bid 0: resumes from Collect
        yield Collect(e)
        order.append("collector")

    def cooperator():  # bid 1: resumes from COOPERATE
        yield COOPERATE
        order.append("cooperator")

    def spawner():  # bid 2: spawns bid 3, which starts in instant 0
        s.spawn(child())
        yield Await(Event())

    def child():
        order.append("child")
        yield Await(Event())

    def late():  # bid 4: spawned between instants
        order.append("late")
        yield Await(Event())

    for gen in (collector(), cooperator(), spawner()):
        s.spawn(gen)
    s.run_instant()
    s.spawn(late())
    s.run_instant()
    assert order == ["child", "collector", "cooperator", "late"]
