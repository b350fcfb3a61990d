"""Cell rule semantics and the wavefront against the independent recurrence."""

import sys

import pytest

from syncell import COOPERATE, DOWN, UP, World
from syncell.kernel import Await, AwaitCollect, Collect, Event
from syncell.scenario import fire
from syncell.measure import REDUCE_WINDOW
from syncell.world import awake_neighbourhood, cell_behavior


def open_world(width=31, height=31, seed=0):
    return World(width, height, seed=seed)


def fire_once(w, x, y, state=0, direction=UP):
    def igniter():
        fire(w, w.grid.cell(x, y), state, direction, Event())
        yield COOPERATE

    w.sched.spawn(igniter())


def run_to(w, clock):
    while w.sched.clock < clock:
        w.sched.run_instant()


def test_a_grid_forces_its_border_ring_and_checks_its_wall_mask():
    w = World(5, 4, walls=bytes(5 * 4))  # no wall given, not even the ring
    assert w.grid.walls == b"\1" * 5 + b"\1\0\0\0\1" * 2 + b"\1" * 5
    assert [w.grid.cell(x, 1) is None for x in range(5)] == [True, False, False, False, True]
    for bad in (bytes(5 * 4 - 1), b"\2" * (5 * 4)):
        with pytest.raises(ValueError, match="wall mask"):
            World(5, 4, walls=bad)
    for width, height in ((2, 9), (9, 2)):  # no interior inside the ring
        with pytest.raises(ValueError, match="border ring"):
            World(width, height)


# -- triggering ----------------------------------------------------------------


def prepared_cell(w, x, y, direction=UP, state=0):
    c = w.grid.cell(x, y)
    c.ctx = w.new_context(direction)
    w.visible[c] = state
    return c


def in_active_phase(w, fn):
    """Run fn inside an instant so generate is legal."""
    def runner():
        fn()
        yield COOPERATE

    w.sched.spawn(runner())
    w.sched.run_instant()


def triggered_coords(w):
    return [
        (x, y)
        for y in range(w.grid.height)
        for x in range(w.grid.width)
        if (c := w.grid.cell(x, y)) is not None and c.values
    ]


def test_awake_neighbourhood_skips_bricks_and_carries_state():
    w = World(9, 9, walls=bytes(i == 3 * 9 + 4 for i in range(9 * 9)))  # a wall at (4, 3)
    c = prepared_cell(w, 4, 4, UP, state=3)
    seen = {}

    def act():
        awake_neighbourhood(w, c)  # brick straight ahead: nothing generated there
        seen["hit"] = triggered_coords(w)
        seen["values"] = [list(w.grid.cell(x, 3).values) for x in (3, 5)]

    in_active_phase(w, act)
    assert seen["hit"] == [(3, 3), (5, 3)]
    assert seen["values"] == [[(3, c.ctx)]] * 2


def test_one_transmit_hands_one_plain_tuple_to_all_three_neighbours():
    w = World(9, 9)
    c = prepared_cell(w, 4, 4, DOWN, state=2)
    seen = {}

    def act():
        awake_neighbourhood(w, c)
        seen["values"] = [list(w.grid.cell(x, 5).values) for x in (3, 4, 5)]

    in_active_phase(w, act)
    (first,), (second,), (third,) = seen["values"]
    assert type(first) is tuple and first == (2, c.ctx)
    assert second is first and third is first


def test_fire_hands_a_plain_tuple_to_its_cell():
    w = World(9, 9, base=3)
    c = w.grid.cell(4, 4)
    seen = {}

    def act():
        seen["ctx"] = fire(w, c, 5, UP, Event())
        seen["values"] = list(c.values)

    in_active_phase(w, act)
    assert seen["values"] == [(5 % 3, seen["ctx"])]
    assert type(seen["values"][0]) is tuple


def test_two_emitters_stack_activations_on_one_trigger():
    w = World(9, 9)
    a = prepared_cell(w, 3, 4, UP, state=1)
    b = prepared_cell(w, 5, 4, UP, state=2)
    target = w.grid.cell(4, 3)
    seen = {}

    def act():
        awake_neighbourhood(w, a)
        awake_neighbourhood(w, b)
        seen["values"] = list(target.values)

    in_active_phase(w, act)
    assert seen["values"] == [(1, a.ctx), (2, b.ctx)]


def test_awake_neighbourhood_offsets_up_and_down():
    w = World(21, 21)
    hit = {}

    def act_up():
        awake_neighbourhood(w, prepared_cell(w, 10, 10, UP, state=2))
        hit["up"] = triggered_coords(w)

    def act_down():
        awake_neighbourhood(w, prepared_cell(w, 10, 10, DOWN, state=2))
        hit["down"] = triggered_coords(w)

    in_active_phase(w, act_up)
    in_active_phase(w, act_down)
    assert hit["up"] == [(9, 9), (10, 9), (11, 9)]
    assert hit["down"] == [(9, 11), (10, 11), (11, 11)]


def test_awake_neighbourhood_near_wall_reaches_only_open_cells():
    # wall over part of the row above: (9, 9) and (10, 9)
    w = World(21, 21, walls=bytes(i in (9 * 21 + 9, 9 * 21 + 10) for i in range(21 * 21)))
    hit = {}

    def act():
        awake_neighbourhood(w, prepared_cell(w, 10, 10, UP, state=2))
        hit["up"] = triggered_coords(w)

    in_active_phase(w, act)
    assert hit["up"] == [(11, 9)]


def test_brick_caller_cannot_transmit():
    w = World(9, 9)
    c = w.grid.cell(4, 4)  # never triggered, so it has no context to travel in
    with pytest.raises(AttributeError):
        awake_neighbourhood(w, c)


# -- combine / reset -------------------------------------------------------------


def settle(w, x, y, activations):
    """Run one lone cell's cycle through its combine step: the activations
    are all generated on its trigger in instant 0."""
    c = w.grid.cell(x, y)
    w.sched.spawn(cell_behavior(w, c))

    def trigger():
        for a in activations:
            w.sched.generate(c, a)
        yield COOPERATE

    w.sched.spawn(trigger())
    run_to(w, 2)
    return c


def settled_state(states, base=6):
    w = World(5, 5, base=base)
    ctx = w.new_context(UP)
    return w.visible[settle(w, 2, 2, [(s, ctx) for s in states])]


def test_combine_adds_states_modulo_base():
    # the cell settles on (1 + the activations' states) mod base
    assert settled_state([5]) == 0
    assert settled_state([4]) == 5
    assert settled_state([3, 4]) == 2
    assert settled_state([2, 2], base=3) == 2


def test_combine_adds_states_and_rebinds_context():
    w = World(9, 9)
    ctx1, ctx2, ctx3 = (w.new_context(UP) for _ in range(3))
    c = settle(w, 4, 4, [(2, ctx1), (3, ctx2), (4, ctx3)])
    assert w.visible[c] == (2 + 3 + 4 + 1) % 6
    assert c.ctx.direction == UP
    assert c.ctx is ctx3  # last writer owns the cell
    assert w.ctx_collisions == 1


def test_single_activation_onto_fresh_cell_copies_state():
    w = World(9, 9)
    c = settle(w, 4, 4, [(4, w.new_context(DOWN))])
    assert w.visible[c] == 4 + 1 and c.ctx.direction == DOWN


def test_a_visible_cell_yields_its_contexts_one_collect():
    w = World(9, 9)
    ctx = w.new_context(UP)
    gen = cell_behavior(w, w.grid.cell(4, 4))
    next(gen)  # parked on its trigger
    assert gen.send([(0, ctx)]) is ctx.collect_measure
    assert ctx.collect_measure.event is ctx.measure


def test_cell_behavior_frame_holds_at_most_seven_locals():
    # every started cell keeps one suspended cell_behavior frame, so each
    # further local costs 8 B per started cell
    assert cell_behavior.__code__.co_nlocals <= 7


def lone_cycle(w, c, feeder, feeder_first=False):
    """Start ``c``'s behavior and ``feeder`` (by default after it, so it runs
    after the cell in every instant), then run instants; after each, note the
    cell's state and context while it is visible, else ``(None, None)``."""
    gens = [cell_behavior(w, c), feeder()]
    for gen in gens[::-1] if feeder_first else gens:
        w.sched.spawn(gen)
    seen = []
    for _ in range(REDUCE_WINDOW + 3):
        w.sched.run_instant()
        seen.append((w.visible.get(c), c.ctx if c in w.visible else None))
    return seen


@pytest.mark.parametrize("measured", [False, True], ids=["transmit", "reduce"])
def test_a_cycle_ends_with_the_cell_out_of_visible(measured):
    w = World(9, 9)
    c = w.grid.cell(4, 4)
    ctx = w.new_context(UP)

    def feeder():
        w.sched.generate(c, (2, ctx))  # instant 0: the trigger
        yield COOPERATE
        if measured:  # instant 1: the cell becomes visible and is measured
            w.sched.generate(ctx.measure, ())

    seen = lone_cycle(w, c, feeder)
    # combined in instant 1; the cycle ends in instant 2 when it transmits,
    # in the instant it launches its particle when it reduces
    end = 1 + REDUCE_WINDOW if measured else 2
    assert seen == [(None, None)] + [(3, ctx)] * (end - 1) + [(None, None)] * (len(seen) - end)
    assert len(w.particles) == measured
    # parked on its trigger again, as its one kernel record and no list
    assert not isinstance(c.waiters, list) and c.waiters.value is c


@pytest.mark.parametrize("feeder_first", [True, False], ids=["before", "after"])
def test_a_cell_triggered_in_the_instant_it_resets_collects_it_in_the_next(feeder_first):
    w = World(9, 9)
    c = w.grid.cell(4, 4)
    ctx, again = w.new_context(UP), w.new_context(DOWN)

    def feeder():
        w.sched.generate(c, (2, ctx))  # instant 0: the trigger
        yield COOPERATE
        yield COOPERATE
        w.sched.generate(c, (1, again))  # instant 2: the cell transmits and resets

    seen = lone_cycle(w, c, feeder, feeder_first)
    assert seen[:5] == [(None, None), (3, ctx), (None, None), (2, again), (None, None)]


def test_an_event_at_rest_holds_no_list():
    """Values and waiters are the shared () at rest: in a fresh event, in a
    cell never triggered, and in an event again once the instant that
    generated, collected and awaited on it is over."""
    w = open_world(15, 15)
    e = Event()
    assert (e.values, e.waiters) == ((), ())
    fire_once(w, 7, 12)
    got = []

    def awaiter():
        yield Await(e)
        got.append(("await", w.sched.clock))

    def collector(command):
        got.append((command.__name__, (yield command(e))))

    def producer():
        yield COOPERATE
        w.sched.generate(e, "v")

    for gen in (awaiter(), collector(AwaitCollect), producer()):
        w.sched.spawn(gen)
    run_to(w, 1)
    assert len(e.waiters) == 2  # the awaiter and the collector, parked
    w.sched.spawn(collector(Collect))
    run_to(w, 3)
    assert got == [("await", 1), ("AwaitCollect", ("v",)), ("Collect", ("v",))]
    assert (e.values, e.waiters) == ((), ())
    # the fired cell parks as its one kernel record, no list; one never
    # reached holds nothing
    fired = w.grid.cell(7, 12)
    assert not isinstance(fired.waiters, list) and fired.waiters.value is fired
    assert (w.grid.cell(2, 2).values, w.grid.cell(2, 2).waiters) == ((), ())


def test_an_open_cell_is_72_bytes():
    # the GC header, the object header, and five slots: Event's values and
    # waiters, then x, y and ctx (the direction is on ctx, the state in
    # World.visible)
    assert sys.getsizeof(World(5, 5).grid.cell(2, 2)) == 72


def test_linear_is_injective_row_major():
    w = World(10, 6)
    assert w.grid.linear(0, 0) == 0
    assert w.grid.linear(3, 2) == 23
    ids = {w.grid.linear(x, y) for y in range(6) for x in range(10)}
    assert len(ids) == 60


# -- the cell cycle, hand-traced --------------------------------------------------


def test_dead_cell_triggered_cycle_timing():
    """Triggered at t: state settles at t+1, retransmits at t+2, then resets."""
    w = open_world(15, 15)
    target = w.grid.cell(7, 12)
    above = w.grid.cell(7, 11)
    fire_once(w, 7, 12, state=3)
    triggered = {}

    def trigger_spy():  # runs after the igniter in every instant
        while True:
            triggered[w.sched.clock] = bool(target.values)
            yield COOPERATE

    w.sched.spawn(trigger_spy())
    run_to(w, 1)  # instant 0 done: cell triggered, nothing settled yet
    assert triggered == {0: True}
    assert target not in w.visible

    run_to(w, 2)  # instant 1 done: combined 3, incremented
    assert triggered == {0: True, 1: False}
    assert target.ctx is not None and w.visible[target] == 4

    got = {}

    def spy():
        got["above"] = (w.sched.clock, bool(above.values))
        yield COOPERATE

    w.sched.spawn(spy())
    run_to(w, 3)  # instant 2: retransmission reaches the row above
    assert got["above"] == (2, True)
    assert target not in w.visible  # reset closed the cycle


def test_lone_fired_cell_transmit_cycle_takes_two_micro_steps():
    """No step in the trigger instant, one to combine, one to transmit."""
    w = World(9, 9)
    c = w.grid.cell(4, 6)
    cell_steps = []

    def counted(gen):  # the fired cell's behavior, noting the instant of each step
        value = None
        while True:
            cell_steps.append(w.sched.clock)
            value = yield gen.send(value)

    # started before the trigger, as a cell that ran a cycle before is; its
    # context, left from that cycle, keeps fire from starting it again
    c.ctx = w.new_context(UP)
    w.sched.spawn(counted(cell_behavior(w, c)), w.grid.linear(c.x, c.y))
    heard = []

    def trigger_spy():  # wakes once, when the cell ahead is triggered
        yield Await(w.grid.cell(4, 5))
        heard.append(w.sched.clock)

    w.sched.spawn(trigger_spy())
    w.sched.run_instant()  # the cell and the spy park on their triggers

    def igniter():  # one step, in which it fires the cell
        fire(w, c, 3, UP, Event())
        if False:
            yield

    w.sched.spawn(igniter())
    steps = [w.sched.run_instant().steps for _ in range(4)]
    assert [cell_steps.count(t) for t in range(1, 5)] == [0, 1, 1, 0]
    # igniter; combine; transmit, reset, park, the spy's step and the three
    # cells ahead starting; their combine steps
    assert steps == [1, 1, 5, 3]
    assert heard == [3] and c not in w.visible


@pytest.mark.parametrize("base, state", [(6, 5), (6, 0), (3, 2), (2, 1)])
def test_one_cycle_settles_the_fired_state_plus_one_modulo_base(base, state):
    w = World(15, 15, base=base)
    fire_once(w, 7, 12, state=state)
    run_to(w, 2)
    assert w.snapshot() == [(7, 12, (state + 1) % base)]


def test_measured_cell_does_not_retransmit():
    w = open_world(15, 15)
    target = w.grid.cell(7, 12)
    above = w.grid.cell(7, 11)
    fire_once(w, 7, 12, state=0)

    def measurer():
        yield COOPERATE  # instant 1: cell has combined, ctx is bound
        w.sched.generate(target.ctx.measure, ())

    w.sched.spawn(measurer())
    run_to(w, 12)
    # no transmission ever reached the row above
    assert above.ctx is None and above not in w.visible
    assert target not in w.visible
    assert len(w.particles) == 1


# -- wavefront vs the independent row recurrence -----------------------------------


def oracle_rows(fired_state, generations, base=6):
    """Row recurrence: next[x] = (sum of living neighbours below + 1) mod base."""
    row = {0: (fired_state + 1) % base}
    rows = [dict(row)]
    for _ in range(generations):
        nxt = {}
        for x in range(min(row) - 1, max(row) + 2):
            contrib = [row[x + d] for d in (-1, 0, 1) if x + d in row]
            if contrib:
                nxt[x] = (sum(contrib) + 1) % base
        row = nxt
        rows.append(dict(row))
    return rows


def test_oracle_pinned_generations():
    rows = oracle_rows(0, 2)
    assert rows[0] == {0: 1}
    assert rows[1] == {-1: 2, 0: 2, 1: 2}
    assert rows[2] == {-2: 3, -1: 5, 0: 1, 1: 5, 2: 3}


@pytest.mark.parametrize("fired_state", [0, 4])
def test_wavefront_matches_oracle_for_12_generations(fired_state):
    w = open_world(31, 31)
    src_x, src_y = 15, 28
    fire_once(w, src_x, src_y, state=fired_state)
    rows = oracle_rows(fired_state, 12)
    for g in range(13):
        run_to(w, 2 * g + 2)
        snapshot = {(x - src_x): s for (x, y, s) in w.snapshot()}
        assert snapshot == rows[g], f"generation {g}"


def test_wavefront_is_a_contiguous_segment_of_2g_plus_1_cells():
    w = open_world(41, 41)
    fire_once(w, 20, 38, state=0)
    for g in range(15):
        run_to(w, 2 * g + 2)
        cells = w.snapshot()
        xs = sorted(x for x, y, s in cells)
        assert len(cells) == 2 * g + 1
        assert xs == list(range(xs[0], xs[0] + len(xs)))
        assert {y for x, y, s in cells} == {38 - g}


def test_pre_measurement_evolution_ignores_the_seed():
    def trajectory(seed):
        w = open_world(25, 25, seed=seed)
        fire_once(w, 12, 22, state=2)
        frames = []
        for _ in range(20):
            w.sched.run_instant()
            frames.append(w.snapshot())
        return frames

    assert trajectory(1) == trajectory(999)
