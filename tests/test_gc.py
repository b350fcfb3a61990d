"""The cyclic collector is paused during ``build_world`` and ``World.run``:
neither makes cyclic garbage, the caller's collector state comes back, and a
world is still freed. A started cell parked on its trigger keeps nothing of
its last cycle."""

import gc
import sys
import types
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from syncell import (
    COOPERATE,
    ScenarioError,
    World,
    build_world,
    load_scenario,
    parse_scenario,
    scenario,
)
from syncell.kernel import Await, DivergenceError, Event, Scheduler
from syncell.scenario import WallSpec
from syncell.world import MeasurementContext, cell_behavior

from test_measure import _measured_worlds

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture
def collector_state():
    """Put the collector back as it was, whatever the test left."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize(
    "name, instants",
    [("single.scn", None), ("entangled.scn", None), ("young200.scn", 400)],
)
def test_a_run_makes_no_cyclic_garbage(name, instants):
    spec = load_scenario(SCENARIOS / name)
    gc.collect()
    world = build_world(spec)
    assert gc.collect() == 0
    executed = world.run(instants or spec.run_length)
    assert executed == (instants or spec.run_length)
    assert gc.collect() == 0


# a full collection costs tens of ms in a test process, hence few examples
@settings(max_examples=10, deadline=None)
@given(_measured_worlds())
def test_a_generated_world_run_makes_no_cyclic_garbage(spec):
    world = build_world(spec)
    gc.collect()
    world.run(4 * spec.height)
    assert gc.collect() == 0


def ticker():
    while True:
        yield COOPERATE


def diverging_world():
    w = World(5, 5)
    w.sched.microstep_budget = 50
    e = Event()

    def spinner():
        while True:
            w.sched.generate(e, 0)
            yield Await(e)  # present, resumes at once, never suspends

    w.sched.spawn(spinner())
    return w


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_collector_state(enabled, collector_state):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    w = World(5, 5)
    w.sched.spawn(ticker())
    seen = []
    w.run(3, on_instant=lambda world, report: seen.append(gc.isenabled()))
    assert seen == [False, False, False]
    assert gc.isenabled() is enabled

    with pytest.raises(DivergenceError):
        diverging_world().run(3)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_build_restores_the_callers_collector_state(enabled, collector_state, monkeypatch):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    seen = []
    reserve = Scheduler.reserve

    def reserve_and_look(sched, n):  # World.__init__ reserves the cells' spawn ids
        seen.append(gc.isenabled())
        return reserve(sched, n)

    monkeypatch.setattr(Scheduler, "reserve", reserve_and_look)
    spec = load_scenario(SCENARIOS / "single.scn")
    build_world(spec)
    assert seen == [False]
    assert gc.isenabled() is enabled

    # rejected after the grid exists
    [s] = spec.sources
    on_wall = replace(spec, walls=[WallSpec(x0=s.x, y0=s.y, x1=s.x, y1=s.y)])
    with pytest.raises(ScenarioError, match="sits on a wall"):
        build_world(on_wall)
    assert seen == [False, False]
    assert gc.isenabled() is enabled


def test_a_world_dropped_after_run_scenario_is_freed(monkeypatch):
    # a world is full of reference cycles (generators -> world -> scheduler),
    # so only the collector frees it; run_scenario must not keep it alive
    refs = []

    def build(spec):
        world = build_world(spec)
        refs.append(weakref.ref(world))
        return world

    monkeypatch.setattr(scenario, "build_world", build)
    spec = load_scenario(SCENARIOS / "single.scn")
    scenario.run_scenario(replace(spec, seed=3), instants=60)
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None


# -- a parked cell --------------------------------------------------------------

FREE_SPACE = """
[grid]
width=101
height=101

[source]
x=50
y=99
state=0
direction=up
period=40
shots=3
"""


def started_cells(world):
    return [
        c
        for y in range(world.grid.height)
        for x in range(world.grid.width)
        if (c := world.grid.cell(x, y)) is not None and c.ctx is not None
    ]


def cell_frame_locals(world):
    """The cell -> frame locals of every ``cell_behavior`` of ``world``."""
    frames = {}
    for obj in gc.get_objects():
        if isinstance(obj, types.GeneratorType) and obj.gi_code is cell_behavior.__code__:
            f_locals = obj.gi_frame.f_locals
            if f_locals["world"] is world:
                assert f_locals["c"] not in frames
                frames[f_locals["c"]] = dict(f_locals)
    return frames


@pytest.mark.parametrize(
    "text, instants, collapses",
    [
        (FREE_SPACE, 120, False),
        ((SCENARIOS / "single.scn").read_text(), 220, True),
        ((SCENARIOS / "entangled.scn").read_text(), 400, True),
    ],
    ids=["wavefront", "measured", "entangled"],
)
def test_a_parked_cell_keeps_nothing_of_its_last_cycle(text, instants, collapses):
    spec = parse_scenario(text)
    world = build_world(spec)
    world.run(instants)
    assert bool(world.stats.reductions) is collapses
    frames = cell_frame_locals(world)
    started = started_cells(world)
    assert frames.keys() == set(started)
    parked = [c for c in started if c not in world.visible]
    assert len(parked) > 100
    for c in parked:
        held = [
            name
            for name, value in frames[c].items()
            if isinstance(value, (list, tuple, MeasurementContext))
        ]
        assert held == [], f"parked cell ({c.x},{c.y}) holds {held}"


def test_a_started_cell_adds_three_tracked_objects_and_a_frame_before_3_11():
    # its generator, the AwaitCollect it parks on and its one kernel record,
    # parked on its own trigger with no list around it (a cell never
    # triggered holds nothing); before 3.11 the generator's frame is one more
    per_cell = 3 if sys.version_info >= (3, 11) else 4
    world = build_world(parse_scenario(FREE_SPACE))
    gc.collect()
    before = len(gc.get_objects())
    world.run(120)
    gc.collect()
    added = len(gc.get_objects()) - before
    started = len(started_cells(world))
    assert started > 3000
    assert added < per_cell * started + 100
