"""Choice, detectors, and the collapse protocol."""

import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from syncell import AwaitCollect, COOPERATE, DOWN, Event, UP, World, load_scenario, measure
from syncell.measure import REDUCE_WINDOW, choose
from syncell.scenario import (
    DetectorSpec,
    ScenarioSpec,
    SlitSpec,
    SourceSpec,
    WallSpec,
    build_world,
    run_world,
)

from instant_log import InstantLog, assert_collapses

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def cells_of(grid):
    """Every cell of the grid in row-major order; a wall has none."""
    sites = (grid.cell(x, y) for y in range(grid.height) for x in range(grid.width))
    return [c for c in sites if c is not None]


def measured_contacts(w, detector=0):
    """How many superpositions ``detector`` measured (one record each)."""
    return sum(rec.detector == detector for rec in w.stats.detections)


def test_choose_singleton_and_membership():
    rng = random.Random(0)
    assert choose([7], rng) == 7
    for _ in range(20):
        assert choose(["a", "b", "c"], rng) in ("a", "b", "c")


def test_choose_rejects_empty():
    with pytest.raises(ValueError):
        choose([], random.Random(0))


def test_choose_is_close_to_uniform():
    # tolerance 0.01 at 1e5 draws: ~5 sigma for p=1/4, deterministic per seed
    rng = random.Random(123)
    ids = [10, 20, 30, 40]
    n = 100_000
    counts = {i: 0 for i in ids}
    for _ in range(n):
        counts[choose(ids, rng)] += 1
    for i in ids:
        assert abs(counts[i] / n - 0.25) < 0.01


def reduce_elected(states):
    """Run ``reduce`` for one member per given basic state, each the only
    member of its own context, so it elects itself, all under one measure
    event and dispatched in the given order. Returns the launched particles'
    states and the values broadcast on the event, by instant; ``reduce``
    starts in instant 0, the one after the measurement it reacts to."""
    w = World(9, 9)
    event = Event()
    broadcasts = {}

    def listener():
        while True:
            values = yield AwaitCollect(event)
            broadcasts[w.sched.clock - 1] = values

    for i, state in enumerate(states):
        c = w.grid.cell(2 + 2 * i, 4)
        c.ctx = w.new_context(UP, event)
        w.visible[c] = state
        w.sched.spawn(measure.reduce(w, c))
    w.sched.spawn(listener())
    w.run(REDUCE_WINDOW + 1)
    return [p.state for p in w.particles], broadcasts


@pytest.mark.parametrize("states", [(5, 1), (1, 5), (2, 2)])
def test_twin_contexts_take_the_first_elected_members_state(states):
    particles, broadcasts = reduce_elected(states)
    first = states[0]
    assert particles == [first, first]
    assert broadcasts == {REDUCE_WINDOW - 1: (first,)}  # one broadcast, by the first


def test_a_lone_context_broadcasts_its_own_state():
    particles, broadcasts = reduce_elected((4,))
    assert particles == [4]
    assert broadcasts == {REDUCE_WINDOW - 1: (4,)}


def single_shot_world(**kwargs):
    spec = ScenarioSpec(
        width=31,
        height=31,
        sources=[SourceSpec(x=15, y=27, state=0, shots=1, period=10)],
        detectors=kwargs.pop("detectors", [DetectorSpec(x0=1, y0=17, x1=29, y1=17)]),
        seed=kwargs.pop("seed", 3),
        **kwargs,
    )
    w = build_world(spec)
    return w


def test_detection_fires_once_and_resolves():
    w = single_shot_world()
    w.run(80)
    assert measured_contacts(w) == 1
    [rec] = w.stats.detections
    # source at y=27 fires (15,26); zone row 17 is generation 9
    assert rec.instant == 2 * 9 + 1
    assert rec.size == 2 * 9 + 1
    [red] = w.stats.reductions
    assert red.ctx_serial == rec.ctx_serial


def test_collapse_window_and_silence_after_measurement():
    w = single_shot_world()
    log = InstantLog()
    w.run(80, on_instant=log)
    [rec] = w.stats.detections
    [red] = w.stats.reductions
    assert red.ctx_serial == rec.ctx_serial
    assert red.instant == rec.instant + REDUCE_WINDOW
    assert_collapses(log, [(rec.ctx_serial, rec.instant)])


def test_exactly_one_particle_per_measured_superposition():
    w = single_shot_world()
    w.run(80)
    assert len(w.particles) == 1
    [rec] = w.stats.detections
    [red] = w.stats.reductions
    [p] = w.particles
    assert red.ctx_serial == rec.ctx_serial and p.state == red.state


def test_the_roll_call_broadcasts_the_elected_id():
    w = single_shot_world()
    heard = []

    def listener():
        while not w.stats.detections:
            yield COOPERATE
        ctx = next(iter(w.visible)).ctx
        heard.append(sorted(w.grid.linear(c.x, c.y) for c in w.visible if c.ctx is ctx))
        while True:
            values = yield AwaitCollect(ctx.signal)
            heard.append((w.sched.clock - 1, values))

    w.sched.spawn(listener())
    w.run(80)
    [rec] = w.stats.detections
    [red] = w.stats.reductions
    members = heard.pop(0)
    assert len(members) == rec.size
    # the ids in row-major (spawn-id) order, then the elector's draw alone
    assert heard == [(rec.instant + 3, tuple(members)), (rec.instant + 4, (red.cell_id,))]


def collapse_peak_per_member(generations):
    """The ``tracemalloc`` peak per member over the collapse of one free-space
    wavefront, measured ``generations`` rows from its source, so
    ``2 * generations + 1`` cells wide: from the instant after the
    measurement to the last member's reset, roll-call instants included."""
    g = generations
    w = build_world(ScenarioSpec(
        width=2 * g + 11,
        height=g + 6,
        sources=[SourceSpec(x=g + 5, y=g + 4, state=0, shots=1, period=10)],
        detectors=[DetectorSpec(x0=1, y0=3, x1=2 * g + 9, y1=3)],
        seed=3,
    ))
    while not w.stats.detections:
        w.run(1)
    [rec] = w.stats.detections
    assert rec.size == 2 * g + 1
    tracemalloc.start()
    try:
        w.run(REDUCE_WINDOW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w.stats.reductions) == 1
    return peak / rec.size


def test_a_collapse_costs_memory_linear_in_its_members():
    # every member collects the roll-call's N ids: one shared tuple keeps the
    # peak at a few hundred bytes per member (a generator, its resume entries),
    # where a copy per member would add 8 * N bytes per member, about 2.2x
    # the 101-member figure at 301 members
    assert collapse_peak_per_member(150) < 1.3 * collapse_peak_per_member(50)


def test_report_matches_each_measured_detection_to_its_reduction():
    # two overlapping detectors of one kind measure the one superposition
    overlapping = [DetectorSpec(1, 17, 29, 17), DetectorSpec(5, 17, 25, 17)]
    w = single_shot_world(detectors=overlapping)
    report = run_world(w, 80)
    [red] = w.stats.reductions
    assert [rec.ctx_serial for rec in w.stats.detections] == [red.ctx_serial] * 2
    outcome = [int(s == red.state) for s in range(w.base)]
    assert report.detector_counts == [outcome, outcome]
    assert (report.detections_total, report.unresolved) == (2, 0)

    # stopped inside the collapse window: each measured detection is unresolved
    w = single_shot_world(detectors=overlapping)
    report = run_world(w, 2 * 9 + 1 + REDUCE_WINDOW)
    assert len(w.stats.detections) == 2 and w.stats.reductions == []
    assert report.detector_counts == [[0] * w.base] * 2
    assert (report.detections_total, report.unresolved) == (0, 2)


def test_detector_ignores_opposite_direction():
    spec = ScenarioSpec(
        width=31,
        height=41,
        sources=[SourceSpec(x=15, y=20, state=0, direction=UP, entangled=True, shots=1, period=10)],
        detectors=[DetectorSpec(x0=1, y0=30, x1=29, y1=30, kind=UP)],
        seed=3,
    )
    w = build_world(spec)
    w.run(60)
    # the DOWN beam crosses the zone, but the detector accepts UP only
    assert measured_contacts(w) == 0
    assert w.particles == []


def test_detector_dedups_by_context_not_by_cell():
    # two cells of the same superposition inside the zone: one measurement
    w = single_shot_world()
    w.run(80)
    assert measured_contacts(w) == 1
    # a second, disjoint shot gets its own fresh measurement
    w2 = ScenarioSpec(
        width=31,
        height=31,
        sources=[SourceSpec(x=15, y=27, state=0, shots=2, period=40)],
        detectors=[DetectorSpec(x0=1, y0=17, x1=29, y1=17)],
        seed=3,
    )
    world = build_world(w2)
    world.run(130)
    assert measured_contacts(world) == 2


def test_single_scn_measures_one_shot_every_period():
    # single.scn's five shots, 40 instants apart, each reach the detector 39
    # instants after they fire
    spec = load_scenario(SCENARIOS / "single.scn")
    w = build_world(spec)
    w.run(230)
    assert [rec.instant for rec in w.stats.detections] == [39, 79, 119, 159, 199]


def test_a_silent_source_leaves_the_waiting_detector_nothing():
    # the detector waits on contacts, so a source that never fires lets the
    # world go quiet after its first instant
    spec = load_scenario(SCENARIOS / "single.scn")
    silent = replace(spec, sources=[replace(spec.sources[0], shots=0)])
    w = build_world(silent)
    assert w.run(10_000) == 1
    assert w.sched.is_quiet() and w.sched.clock == 1
    assert w.stats.detections == [] and w.stats.reductions == []


def test_empty_zone_never_detects():
    spec = ScenarioSpec(
        width=31,
        height=31,
        detectors=[DetectorSpec(x0=1, y0=17, x1=29, y1=17)],
        seed=3,
    )
    w = build_world(spec)
    w.run(30)
    assert measured_contacts(w) == 0


@pytest.mark.parametrize("name,contexts_per_collapse", [("single.scn", 1), ("entangled.scn", 2)])
def test_collapse_runs_in_the_cell_cycle_with_one_draw_per_context(
    name, contexts_per_collapse, monkeypatch
):
    spec = load_scenario(SCENARIOS / name)
    w = build_world(spec)
    spawned = Counter()
    spawn = w.sched.spawn

    def counting_spawn(gen, bid=None):
        spawned[gen.__name__] += 1
        return spawn(gen, bid)

    draws = []

    def counting_choose(ids, rng):
        draws.append(ids)
        return choose(ids, rng)

    w.sched.spawn = counting_spawn
    monkeypatch.setattr(measure, "choose", counting_choose)
    run_world(w, spec.run_length)
    collapses = measured_contacts(w)
    assert collapses > 0
    assert len(w.stats.reductions) == contexts_per_collapse * collapses
    # the collapse spawns nothing: apart from the cells started by their first
    # trigger, the particle stepper is the run's only spawn
    started = spawned.pop("cell_behavior")
    assert spawned == Counter({"particle_stepper": 1})
    assert started == sum(c.ctx is not None for c in cells_of(w.grid))
    assert len(draws) == contexts_per_collapse * collapses


# -- collapse invariants on generated worlds ----------------------------------------

_KINDS = st.sampled_from([UP, DOWN])
_VELOCITY = st.one_of(st.none(), st.floats(-1.0, 1.0))


@st.composite
def _measured_worlds(draw):
    """Valid worlds of up to 40x40: walls with slits, 1-3 sources (some
    entangled, ``period >= 8``) and 1-2 detectors."""
    width, height = draw(st.integers(8, 40)), draw(st.integers(8, 40))
    xs = st.integers(1, width - 2)

    def span(axis):
        return sorted((draw(axis), draw(axis)))

    wall_rows = draw(st.lists(st.integers(3, height - 4), max_size=2, unique=True))
    walls, slits = [], []
    for i, y in enumerate(wall_rows):
        x0, x1 = span(xs)
        walls.append(WallSpec(x0, y, x1, y))
        for _ in range(draw(st.integers(0, 2))):
            s0, s1 = span(st.integers(x0, x1))
            slits.append(SlitSpec(i, s0, s1, open=draw(st.booleans())))
    near_walls = {y + dy for y in wall_rows for dy in (-1, 0, 1)}
    source_rows = [y for y in range(2, height - 2) if y not in near_walls]
    assume(source_rows)
    base = draw(st.integers(2, 6))
    sources = [
        SourceSpec(
            draw(xs),
            draw(st.sampled_from(source_rows)),
            state=draw(st.integers(0, base - 1)),
            direction=draw(_KINDS),
            entangled=draw(st.booleans()),
            period=draw(st.integers(8, 16)),
            shots=draw(st.integers(1, 3)),
            vx=draw(_VELOCITY),
            vy=draw(_VELOCITY),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    detector_rows = [y for y in range(1, height - 1) if y not in wall_rows]
    detectors = []
    for _ in range(draw(st.integers(1, 2))):
        (x0, x1), y0 = span(xs), draw(st.sampled_from(detector_rows))
        y1 = min(y0 + draw(st.integers(0, 2)), height - 2)
        detectors.append(DetectorSpec(x0, y0, x1, y1, kind=draw(_KINDS)))
    return ScenarioSpec(
        width, height, base, walls, slits, sources, detectors,
        seed=draw(st.integers(0, 2**16)),
    )


def _horizon(spec):
    """Instants by which every collapse of a generated world has ended: the
    last shot crosses the grid in ``2 * height`` instants, then collapses."""
    last_shot = max((s.shots - 1) * s.period for s in spec.sources)
    return last_shot + 2 * spec.height + REDUCE_WINDOW + 2


@settings(max_examples=60, deadline=None)
@given(_measured_worlds())
def test_generated_collapses_end_in_their_window_and_particles_avoid_walls(spec):
    w = build_world(spec)
    grid = w.grid
    log = InstantLog()

    def check_instant(world, report):
        log(world, report)
        for p in world.particles:
            x, y = math.floor(p.fx), math.floor(p.fy)
            assert 0 <= x < grid.width and 0 <= y < grid.height, p
            assert grid.cell(x, y) is not None, p

    w.run(_horizon(spec), on_instant=check_instant)
    ended = [
        (rec.ctx_serial, rec.instant)
        for rec in w.stats.detections
        if rec.instant + REDUCE_WINDOW < w.sched.clock
    ]
    assert_collapses(log, ended)


def polling_detections(world):
    """Spawn the reference detector and return the records it fills.

    It polls as the detectors once did: every instant, after every cell has
    resumed, it scans each zone row by row in detector index order and
    records ``(instant, detector, ctx serial, census)`` for each
    superposition of the accepted direction that detector has not seen. It
    measures nothing, so it only watches the world's own detectors.
    """
    records = []

    def poll():
        seen = [set() for _ in world.detectors]
        while True:
            for index, d in enumerate(world.detectors):
                for y in range(d.y0, d.y1 + 1):
                    for x in range(d.x0, d.x1 + 1):
                        c = world.grid.cell(x, y)
                        ctx = c.ctx if c in world.visible else None
                        if ctx is None or ctx.direction != d.kind or ctx.serial in seen[index]:
                            continue
                        seen[index].add(ctx.serial)
                        census = world.superposition_census(ctx)
                        records.append((world.sched.clock, index, ctx.serial, census))
            yield COOPERATE

    world.sched.spawn(poll())
    return records


# Two superpositions cross two detectors in the same instant, so both orders
# within an instant (detectors, then superpositions row by row) are exercised.
TWO_BY_TWO = ScenarioSpec(
    width=31,
    height=31,
    sources=[SourceSpec(x=8, y=25, period=40), SourceSpec(x=22, y=25, period=40)],
    detectors=[DetectorSpec(1, 15, 29, 15), DetectorSpec(5, 15, 25, 15)],
)


@settings(max_examples=40, deadline=None)
@given(_measured_worlds())
@example(TWO_BY_TWO)
def test_contact_driven_detectors_record_what_zone_polling_records(spec):
    w = build_world(spec)
    polled = polling_detections(w)
    w.run(_horizon(spec))
    recorded = [
        (rec.instant, rec.detector, rec.ctx_serial, rec.state_counts)
        for rec in w.stats.detections
    ]
    assert recorded == polled


def test_one_detector_behavior_serves_every_detector():
    spec = ScenarioSpec(
        width=20,
        height=20,
        walls=[WallSpec(1, 9, 18, 9)],
        slits=[SlitSpec(wall=0, x0=7, x1=8)],
        sources=[SourceSpec(x=10, y=16)],
        detectors=[DetectorSpec(2, 5, 17, 5), DetectorSpec(1, 3, 18, 12, kind=DOWN)],
    )
    w = build_world(spec)
    # no cell is triggered yet, so the emitter and the detectors' one behavior
    assert w.sched.alive == len(spec.sources) + 1
    # the union of the two overlapping zones: every non-wall cell of rows 3..12
    assert w.zone_cells == {
        c for c in cells_of(w.grid) if 3 <= c.y <= 12
    }
