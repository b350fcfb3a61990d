"""Inertia, bouncing, containment, and the particle stepper."""

from math import floor, nextafter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from syncell import COOPERATE, DOWN, UP, Await, Event, World
from syncell import particles
from syncell.particles import RealParticle, step_particles
from syncell.scenario import (
    ScenarioSpec,
    SourceSpec,
    DetectorSpec,
    build_world,
    load_scenario,
    run_world,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def stepper_for(w):
    """step_particles over one particle, with the world's wall mask."""
    walls = w.grid.walls
    return lambda p: step_particles([p], walls, w.grid.width, w.grid.height)


def test_inertia_moves_by_velocity():
    step = stepper_for(World(20, 20))
    p = RealParticle(5.0, 5.0, 0.0, -1.0, 0)
    step(p)
    assert (p.fx, p.fy) == (5.0, 4.0)
    q = RealParticle(5.0, 5.0, 0.0, 0.0, 0)
    step(q)
    assert (q.fx, q.fy) == (5.0, 5.0)


def test_inertia_is_linear_over_steps():
    step = stepper_for(World(20, 20))
    p = RealParticle(10.5, 15.5, 0.0, -1.0, 0)
    for _ in range(10):
        step(p)
    assert p.fy == 5.5


def test_speed_components_above_one_are_rejected():
    with pytest.raises(ValueError):
        RealParticle(5.0, 5.0, 0.0, -1.5, 0)


@pytest.mark.parametrize("vx,vy", [(float("nan"), 0.0), (0.0, float("nan"))])
def test_nan_speed_components_are_rejected(vx, vy):
    with pytest.raises(ValueError, match="bounded by 1 cell/instant"):
        RealParticle(1.5, 1.5, vx, vy, 0)


def test_bounce_flips_the_offending_component():
    step = stepper_for(World(9, 9))
    p = RealParticle(4.5, 1.5, 0.0, -1.0, 0)
    step(p)  # would enter the top border row
    assert p.vy == 1.0 and p.fy == 1.5


def test_corner_hit_flips_both_components():
    step = stepper_for(World(9, 9))
    p = RealParticle(1.5, 1.5, -1.0, -1.0, 0)
    step(p)
    assert (p.vx, p.vy) == (1.0, 1.0)
    assert (p.fx, p.fy) == (1.5, 1.5)


def test_interior_wall_reflects_too():
    w = World(15, 15, walls=bytes(i % 15 == 7 for i in range(15 * 15)))  # column 7
    p = RealParticle(6.5, 7.5, 1.0, 0.0, 0)
    stepper_for(w)(p)
    assert p.vx == -1.0 and p.fx == 6.5


# Steps that leave the 9x9 grid. A landing in (-1, 0) is the one place where
# int() (column or row 0, the border ring) and math.floor (-1, off-grid)
# disagree; both are wall.
OFF_GRID_STEPS = {
    "left, in (-1, 0)": (0.5, 4.5, -0.7, 0.0),
    "left, near -1": (0.05, 4.5, -1.0, 0.0),
    "right, past width": (8.5, 4.5, 0.7, 0.0),
    "top, in (-1, 0)": (4.5, 0.5, 0.0, -0.7),
    "top, near -1": (4.5, 0.05, 0.0, -1.0),
    "bottom, past height": (4.5, 8.5, 0.0, 0.7),
}


@pytest.mark.parametrize("start", OFF_GRID_STEPS.values(), ids=OFF_GRID_STEPS)
def test_off_grid_is_wall_on_all_four_sides(start):
    fx, fy, vx, vy = start
    p = RealParticle(fx, fy, vx, vy, 0)
    stepper_for(World(9, 9))(p)
    assert (p.fx, p.fy, p.vx, p.vy) == (fx, fy, -vx, -vy)


def test_long_run_containment_with_conserved_speed():
    w = World(23, 17)
    step = stepper_for(w)
    p = RealParticle(5.5, 8.5, 1.0, -1.0, 2)
    for _ in range(10_000):
        step(p)
        assert 1.0 <= p.fx < 22.0 and 1.0 <= p.fy < 16.0
        assert w.grid.cell(int(p.fx), int(p.fy)) is not None
        assert (abs(p.vx), abs(p.vy)) == (1.0, 1.0)


_UNIT = st.floats(0.0, 1.0, exclude_max=True)
_SPEED = st.floats(-1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_stepping_a_list_equals_stepping_each_particle_alone(data):
    width, height = data.draw(st.integers(3, 16)), data.draw(st.integers(3, 16))
    bricks = st.tuples(st.integers(1, width - 2), st.integers(1, height - 2))
    mask = bytearray(width * height)
    for x, y in data.draw(st.lists(bricks, max_size=width * height // 4)):
        mask[y * width + x] = 1
    w = World(width, height, walls=mask)
    open_cells = [
        (x, y) for y in range(height) for x in range(width) if w.grid.cell(x, y) is not None
    ]
    assume(open_cells)
    starts = [
        (x + data.draw(_UNIT), y + data.draw(_UNIT), data.draw(_SPEED), data.draw(_SPEED), s)
        for s, (x, y) in enumerate(data.draw(st.lists(st.sampled_from(open_cells), max_size=12)))
    ]
    steps = data.draw(st.integers(1, 40))
    walls = w.grid.walls

    together = [RealParticle(*start) for start in starts]
    for _ in range(steps):
        step_particles(together, walls, width, height)
    alone = [RealParticle(*start) for start in starts]
    for p in alone:
        for _ in range(steps):
            step_particles([p], walls, width, height)

    def state(p):
        return (p.fx, p.fy, p.vx, p.vy, p.state)

    assert [state(p) for p in together] == [state(p) for p in alone]


def reference_step(p, walls, width, height):
    """One step as ``step_particles``' docstring states it, written apart from
    it: both coordinates are computed and stored on every step. x moves first,
    checked at the pre-step y, then y, at the new x; a non-zero component
    that would land on a wall or off the grid flips and keeps its coordinate.
    The cell checked holds the rounded position: ``fy`` just below a power of
    two plus a ``vy`` of 1.0 rounds up to the integer two rows on."""

    def wall(fx, fy):
        x, y = floor(fx), floor(fy)
        return not (0 <= x < width and 0 <= y < height) or walls[y * width + x]

    fx, fy = p.fx + p.vx, p.fy + p.vy
    if p.vx and wall(fx, p.fy):
        p.vx, fx = -p.vx, p.fx
    if p.vy and wall(fx, fy):
        p.vy, fy = -p.vy, p.fy
    p.fx, p.fy = fx, fy


_COMPONENT = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), _SPEED)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_step_particles_equals_the_reference_step(data):
    width, height = data.draw(st.integers(3, 16)), data.draw(st.integers(3, 16))
    bricks = st.tuples(st.integers(1, width - 2), st.integers(1, height - 2))
    mask = bytearray(width * height)
    for x, y in data.draw(st.lists(bricks, max_size=width * height // 4)):
        mask[y * width + x] = 1
    walls = World(width, height, walls=mask).grid.walls
    # any cell, the border ring of walls and the bricks too
    cells = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    starts = [
        (x + data.draw(_UNIT), y + data.draw(_UNIT), data.draw(_COMPONENT), data.draw(_COMPONENT))
        for x, y in data.draw(st.lists(cells, min_size=1, max_size=8))
    ]
    steps = data.draw(st.integers(1, 40))

    stepped = [RealParticle(*start, 0) for start in starts]
    reference = [RealParticle(*start, 0) for start in starts]
    for _ in range(steps):
        step_particles(stepped, walls, width, height)
        for p in reference:
            reference_step(p, walls, width, height)

    def state(p):
        return (p.fx, p.fy, p.vx, p.vy)

    assert [state(p) for p in stepped] == [state(p) for p in reference]


_NON_DYADIC = st.floats(-1.0, 1.0).filter(lambda v: v * 2**20 % 1)  # no multiple of 2**-20
_VERTICAL = st.one_of(st.sampled_from([1.0, -1.0, 0.3, -0.7]), _NON_DYADIC)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_the_world_stepper_equals_the_reference_step(data):
    width, height = data.draw(st.integers(3, 12)), data.draw(st.integers(5, 14))
    bricks = st.tuples(st.integers(1, width - 2), st.integers(1, height - 2))
    mask = bytearray(width * height)
    for x, y in data.draw(st.lists(bricks, max_size=width * height // 4)):
        mask[y * width + x] = 1
    # a one-cell run: (px, py) open between walls above and below
    px, py = data.draw(st.integers(1, width - 2)), data.draw(st.integers(2, height - 3))
    mask[(py - 1) * width + px] = mask[(py + 1) * width + px] = 1
    mask[py * width + px] = 0
    w = World(width, height, walls=mask)
    walls = w.grid.walls
    cells = [(x, y) for y in range(height) for x in range(width)]
    open_cells = [(x, y) for x, y in cells if not walls[y * width + x]]
    wall_cells = [(x, y) for x, y in cells if walls[y * width + x]]

    def at(x, y):
        return x + data.draw(_UNIT), y + data.draw(_UNIT)

    def somewhere(cells):
        return at(*data.draw(st.sampled_from(cells)))

    starts = [
        (*somewhere(open_cells), 0.0, data.draw(st.sampled_from([1.0, -1.0]))),
        (*somewhere(open_cells), 0.0, data.draw(_NON_DYADIC)),
        (*at(px, py), 0.0, data.draw(_VERTICAL)),  # in the one-cell run
        (*somewhere(open_cells), data.draw(_SPEED.filter(bool)), data.draw(_SPEED)),
        (*somewhere(open_cells), 0.0, 0.0),  # still
        (*somewhere(wall_cells), 0.0, data.draw(_VERTICAL)),  # in a wall or the border
    ]
    for _ in range(data.draw(st.integers(0, 4))):
        starts.append((*somewhere(cells), data.draw(_COMPONENT), data.draw(_COMPONENT)))
    steps = data.draw(st.integers(1, 30))
    # each particle is born before an instant (False) or inside it (True)
    births = [(data.draw(st.integers(0, steps - 1)), data.draw(st.booleans())) for _ in starts]

    stepped = [RealParticle(*start, 0) for start in starts]
    reference = [RealParticle(*start, 0) for start in starts]

    def born_inside():
        while True:
            for p, (instant, inside) in zip(stepped, births):
                if inside and instant == w.sched.clock:
                    w.add_particle(p)
            yield COOPERATE

    w.sched.spawn(born_inside())

    def state(p):
        return (p.fx, p.fy, p.vx, p.vy)

    for instant in range(steps):
        for p, birth in zip(stepped, births):
            if birth == (instant, False):
                w.add_particle(p)
        w.sched.run_instant()
        for p, (born, inside) in zip(reference, births):
            if born + inside <= instant:  # moves from the instant after its birth
                reference_step(p, walls, width, height)
        assert [state(p) for p in stepped] == [state(p) for p in reference]


def test_the_stepper_scans_a_column_once_per_vertical_particle(monkeypatch):
    column_run = particles.column_run
    scans = []

    def counted(*args):
        scans.append(args)
        return column_run(*args)

    monkeypatch.setattr(particles, "column_run", counted)
    w = World(20, 20)
    walls = w.grid.walls
    starts = [
        (3.5, 3.5, 0.0, 1.0, 0),
        (5.5, 3.5, 1.0, 1.0, 0),  # diagonal
        (7.5, 3.5, 0.0, 0.0, 0),  # still
        (11.5, nextafter(4.0, 0.0), 0.0, 1.0, 0),  # 1.0 off the half-row lattice
        (9.5, 12.5, 0.0, -0.5, 0),  # born after 10 instants
    ]
    for start in starts[:4]:
        w.add_particle(RealParticle(*start))
    w.run(10)
    w.add_particle(RealParticle(*starts[4]))
    w.run(30)
    assert scans == [(walls, 20, 3, 3), (walls, 20, 9, 12)]
    reference = [RealParticle(*start) for start in starts]
    for i, p in enumerate(reference):
        for _ in range(30 if i == 4 else 40):
            reference_step(p, walls, 20, 20)
    assert [(p.fx, p.fy) for p in w.particles] == [(p.fx, p.fy) for p in reference]


def test_a_vertical_particle_rounded_past_a_wall_row_moves_as_the_general_step():
    # 4 - 2**-51 + 1.0 rounds to 5.0: the general step lands two rows on,
    # past the one-row wall at row 4, and the stepper follows it there
    mask = bytearray(9 * 12)
    mask[4 * 9 + 4] = 1
    w = World(9, 12, walls=mask)
    start = (4.5, nextafter(4.0, 0.0), 0.0, 1.0, 0)
    p, q = RealParticle(*start), RealParticle(*start)
    w.add_particle(p)
    for _ in range(20):
        w.sched.run_instant()
        reference_step(q, w.grid.walls, 9, 12)
        assert (p.fy, p.vy) == (q.fy, q.vy)
        assert p.fy >= 5.0  # bouncing in rows 5..10 from the first step on


@pytest.mark.parametrize("name, instants", [("young200.scn", 2000), ("entangled.scn", 5200)])
def test_a_launched_particle_never_takes_the_general_step(name, instants, monkeypatch):
    # neither scenario overrides vx, and a collapse launches its particle at
    # a cell centre, so the stepper keeps each on its column's open run
    offered = []

    def general(ps, *mask):
        offered.extend(ps)
        step_particles(ps, *mask)

    monkeypatch.setattr(particles, "step_particles", general)
    world = build_world(load_scenario(SCENARIOS / name))
    assert run_world(world, instants).instants == instants
    assert world.particles and offered == []


def test_trajectory_is_deterministic():
    def track():
        step = stepper_for(World(13, 13))
        p = RealParticle(3.5, 3.5, 1.0, -1.0, 0)
        out = []
        for _ in range(50):
            step(p)
            out.append((p.fx, p.fy, p.vx, p.vy))
        return out

    assert track() == track()


def test_spawn_direction_sets_the_initial_velocity():
    def measured_particles(direction, detector_row):
        spec = ScenarioSpec(
            width=31,
            height=31,
            sources=[SourceSpec(x=15, y=15, state=0, direction=direction, shots=1)],
            detectors=[DetectorSpec(x0=1, y0=detector_row, x1=29, y1=detector_row, kind=direction)],
            seed=5,
        )
        w = build_world(spec)
        # stop right after the particle is born to read its initial velocity
        while not w.particles:
            w.sched.run_instant()
        return w.particles[0]

    up = measured_particles(UP, 8)
    assert (up.vx, up.vy) == (0.0, -1.0)
    down = measured_particles(DOWN, 22)
    assert (down.vx, down.vy) == (0.0, 1.0)


def test_bounce_restores_the_exact_pre_step_position():
    # (7.95 + 0.1) - 0.1 != 7.95: backing the velocity out would drift
    assert (7.95 + 0.1) - 0.1 != 7.95
    step = stepper_for(World(9, 9))
    p = RealParticle(7.95, 4.5, 0.1, 0.0, 0)
    step(p)  # 8.05 is in the right border column
    assert (p.fx, p.vx) == (7.95, -0.1)


def test_newborn_moves_one_velocity_step_the_instant_after_birth():
    spec = ScenarioSpec(
        width=31,
        height=31,
        sources=[SourceSpec(x=15, y=27, state=0, shots=1)],
        detectors=[DetectorSpec(x0=1, y0=17, x1=29, y1=17)],
        seed=3,
    )
    w = build_world(spec)
    while not w.particles:
        w.sched.run_instant()
    [red] = w.stats.reductions
    [p] = w.particles
    cx, cy = red.cell_id % 31 + 0.5, red.cell_id // 31 + 0.5
    assert red.instant == w.sched.clock - 1
    assert (p.fx, p.fy) == (cx, cy)  # not moved in its birth instant
    w.sched.run_instant()
    assert (p.fx, p.fy) == (cx + p.vx, cy + p.vy)


def test_stepper_moves_each_particle_from_the_instant_after_its_birth():
    w = World(40, 40)
    sched = w.sched
    p1, p2, p3 = (RealParticle(x + 0.5, 5.5, 0.0, 1.0, 0) for x in (5, 10, 15))

    def born_late():  # spawned after the stepper
        while sched.clock < 3:
            yield COOPERATE
        w.add_particle(p3)

    def born_early():  # spawned before the stepper
        w.add_particle(p1)
        sched.spawn(born_late())
        while sched.clock < 3:
            yield COOPERATE
        w.add_particle(p2)

    sched.spawn(born_early())
    for _ in range(6):
        sched.run_instant()
    # after instant 5: p1 moved in instants 1..5, p2 and p3 in 4..5
    assert [p.fy for p in (p1, p2, p3)] == [10.5, 7.5, 7.5]


def test_every_behavior_reads_a_particle_after_the_instants_step():
    # the stepper heads every instant, so a behavior spawned before it, and
    # woken by the birth, reads the birth position in the birth instant and
    # then one step more in each instant after it
    w = World(20, 20)
    born = Event()
    seen = []

    def watcher():
        yield Await(born)
        for _ in range(4):
            seen.append(w.particles[0].fy)
            yield COOPERATE

    def birth():
        w.add_particle(RealParticle(4.5, 5.5, 0.0, 1.0, 0))
        w.sched.generate(born)
        yield COOPERATE

    w.sched.spawn(watcher())
    w.sched.spawn(birth())
    w.run(4)
    assert seen == [5.5, 6.5, 7.5, 8.5]


def test_particle_added_between_instants_moves_in_the_next_instant():
    w = World(40, 40)
    sched = w.sched
    sched.run_instant()
    sched.run_instant()
    p1 = RealParticle(5.5, 5.5, 0.0, 1.0, 0)
    w.add_particle(p1)  # between instants: the stepper's first instant is 2
    sched.run_instant()
    assert p1.fy == 6.5
    p2 = RealParticle(10.5, 5.5, 0.0, 1.0, 0)
    w.add_particle(p2)  # the stepper is already running
    sched.run_instant()
    assert (p1.fy, p2.fy) == (7.5, 6.5)


def test_particle_free_world_goes_quiet():
    spec = ScenarioSpec(
        width=31, height=31, sources=[SourceSpec(x=15, y=27, state=0, shots=2, period=10)]
    )
    w = build_world(spec)
    executed = w.run(500)
    assert executed < 500 and w.sched.is_quiet() and w.particles == []
