"""The cellular world: grid, cells, and the transmit/collect cell cycle.

A virtual particle is the set of visible cells of one emission: the keys of
``World.visible`` whose ``ctx`` is that emission's context. An open site is one
object, a ``Cell``, also its trigger event; it runs one ``cell_behavior`` from
its first trigger on. The cycle of a triggered cell spans instants: no step
runs in the instant it is triggered; one instant later it resumes with every
activation of that instant, combines them into its basic state and becomes
visible, and one instant after that either retransmits (one ``(basic_state,
ctx)`` tuple, generated on the three cells ahead in ``ctx.direction``) or, if
its measurement event fired, runs the reduction (``measure.reduce``) as the
last phase of the same cycle. Every cycle ends with the cell dropped from
``World.visible``, so a wavefront row advances every two instants.
"""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from typing import Optional

from .kernel import AwaitCollect, Collect, Event, Scheduler
from .measure import reduce
from .particles import particle_stepper
from .stats import RunStats


# a direction of travel is its row step (y grows downwards)
UP = -1
DOWN = 1


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector; restore the caller's setting on exit,
    also when the body raises. Building and running a world make no cyclic
    garbage, so a pass there would only re-walk its cells, events and
    generators."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


class MeasurementContext:
    """Everything that binds one superposition to one measurement.

    ``direction``, UP or DOWN, is fixed when it is fired: the one record of
    the way its wavefront travels. ``measure`` is the broadcast event a
    detector fires; ``signal`` is the roll-call event on which member cells
    report their identities during reduction and then learn the elected one.
    ``measure`` may be shared with a twin context (entanglement), and then
    also carries the pair's outcome state (``measure.reduce``); ``signal``
    never is shared. ``collect_measure`` is the one ``Collect(measure)``
    that every member cell yields. ``spawn_velocity`` is the ``(vx, vy)`` of
    the particle its collapse launches; None gives ``(0.0, float(direction))``.
    The member cells are the keys of ``World.visible`` whose ``ctx`` is this
    context; it records nothing they do.
    """

    __slots__ = ("direction", "measure", "collect_measure", "signal", "serial", "spawn_velocity")

    def __init__(
        self,
        direction: int,
        measure: Event,
        signal: Event,
        serial: int,
        spawn_velocity: Optional[tuple] = None,
    ):
        self.direction = direction
        self.measure = measure
        self.collect_measure = Collect(measure)
        self.signal = signal
        self.serial = serial
        self.spawn_velocity = (0.0, float(direction)) if spawn_velocity is None else spawn_velocity


class Cell(Event):
    """One open grid site, which is also its trigger event; a wall has none.

    Its basic state is its value in ``World.visible``, so it has one only
    while visible (between its combine step and its reset). The combine step
    takes ``ctx`` from the last activation, a plain ``(basic_state, ctx)``
    tuple; while the cell is not visible, ``ctx`` is a leftover of its last
    cycle, and None until an activation first reaches the cell. The cell runs
    a behavior iff its ``ctx`` is not None.

    As an event it holds no list at rest: a cell never triggered holds
    nothing, and a parked cell only its behavior's kernel record.
    """

    __slots__ = ("x", "y", "ctx")

    def __init__(self, x: int, y: int):
        # Event's fields at rest (an Event.__init__ call per open site slows the build)
        self.values = self.waiters = ()
        self.x = x
        self.y = y
        self.ctx: Optional[MeasurementContext] = None

    def __repr__(self):
        return f"Cell({self.x},{self.y})"


class Grid:
    """The wall mask and one ``Cell`` per other site, both fixed at construction.

    ``walls`` holds one byte per site in row-major order, 1 for a wall; the
    border ring is wall whatever the given mask says there. Every other site
    gets one object, a ``Cell`` that is also its trigger event, made in
    row-major order; ``cell`` is None at a wall."""

    def __init__(self, width: int, height: int, walls: Optional[bytes] = None):
        if width < 3 or height < 3:
            raise ValueError("grid needs at least a border ring plus interior")
        mask = bytearray(width * height) if walls is None else bytearray(walls)
        if len(mask) != width * height or mask.translate(None, b"\0\1"):
            raise ValueError(f"a wall mask is {width}x{height} bytes, each 0 or 1")
        mask[:width] = mask[-width:] = b"\1" * width
        mask[::width] = mask[width - 1 :: width] = b"\1" * height
        self.width = width
        self.height = height
        self.walls = bytes(mask)
        self._cells = [
            None if wall else Cell(i % width, i // width) for i, wall in enumerate(self.walls)
        ]

    def cell(self, x: int, y: int) -> Optional[Cell]:
        return self._cells[y * self.width + x]

    def linear(self, x: int, y: int) -> int:
        """Injective cell identity used on the reduction roll-call."""
        return y * self.width + x


class World:
    """Grid, scheduler, RNG and run-wide registries for one simulation;
    ``walls`` is the grid's wall mask (see ``Grid``)."""

    def __init__(
        self,
        width: int,
        height: int,
        seed: int = 0,
        base: int = 6,
        walls: Optional[bytes] = None,
    ):
        self.sched = Scheduler()
        self.sched.reserve(width * height)  # a cell's spawn id is its Grid.linear
        self.grid = Grid(width, height, walls)
        self.rng = random.Random(seed)
        self.seed = seed
        self.base = base
        # visible cell -> its basic state, from the combine step to the reset
        self.visible: dict[Cell, int] = {}
        self.particles: list = []
        self.sources: list = []
        self.detectors: list = []
        self.zone_cells: set[Cell] = set()  # each generates on contact when visible
        self.contact = Event()
        self.stats = RunStats()
        self.ctx_collisions = 0
        self.scenario_digest = "-"
        self._ctx_serial = 0

    def new_context(
        self,
        direction: int,
        measure: Optional[Event] = None,
        spawn_velocity: Optional[tuple] = None,
    ) -> MeasurementContext:
        """Fresh context fired in ``direction``; pass ``measure`` to share it with a twin."""
        ctx = MeasurementContext(
            direction,
            measure if measure is not None else Event(),
            Event(),
            self._ctx_serial,
            spawn_velocity,
        )
        self._ctx_serial += 1
        return ctx

    def add_particle(self, p) -> None:
        """Register a particle, once; from the next instant on only the stepper
        moves it (see ``particle_stepper``). The first birth spawns the stepper
        under spawn id 0, no cell's (site (0, 0) is wall), so it heads every
        start list; particle-free worlds go quiet."""
        if not self.particles:
            self.sched.spawn(particle_stepper(self, self.sched.active), 0)
        self.particles.append(p)

    # -- observation helpers ------------------------------------------------

    def snapshot(self):
        """Sorted (x, y, state) triples of every visible cell."""
        return sorted((c.x, c.y, s) for c, s in self.visible.items())

    def superposition_census(self, ctx: MeasurementContext) -> tuple[int, ...]:
        counts = [0] * self.base
        for c, s in self.visible.items():
            if c.ctx is ctx:
                counts[s] += 1
        return tuple(counts)

    def run(self, instants: int, on_instant=None) -> int:
        """Run up to ``instants`` instants; stops early once nothing can run.

        A live particle is stepped every instant, so a world with one never
        stops early. Returns the number of instants actually executed.

        The cyclic garbage collector is paused for the run
        (``collector_paused``). Cycles made by ``on_instant`` are freed after
        the run.
        """
        executed = 0
        with collector_paused():
            for _ in range(instants):
                report = self.sched.run_instant()
                executed += 1
                if on_instant is not None:
                    on_instant(self, report)
                if self.sched.is_quiet():
                    break
        return executed


# -- triggering ---------------------------------------------------------------


def awake_neighbourhood(world: World, c: Cell) -> None:
    """Trigger the three forward neighbours (row above for UP, below for DOWN,
    in ``c.ctx.direction``) left to right, skipping walls. Indexing needs no
    range check: a cell is never on the border ring of walls (``Grid``)."""
    sched, grid = world.sched, world.grid
    ctx = c.ctx
    cells = grid._cells
    i = (c.y + ctx.direction) * grid.width + c.x
    a = (world.visible[c], ctx)
    for t in (cells[i - 1], cells[i], cells[i + 1]):
        if t is not None:
            if t.ctx is None:
                start_cell(world, t, ctx)
            sched.generate(t, a)


def start_cell(world: World, c: Cell, ctx: MeasurementContext) -> None:
    """Start never-triggered ``c`` (``ctx`` None) under its reserved id, its
    ``Grid.linear``, as its first activation, of context ``ctx``, is
    generated: it steps later this instant, and combines before reading it."""
    c.ctx = ctx
    world.sched.spawn(cell_behavior(world, c), world.grid.linear(c.x, c.y))


def cell_behavior(world: World, c: Cell):
    """The non-terminating cycle of one cell (see the module docstring).

    Every started cell keeps this frame, parked on its trigger between
    cycles, so keep nothing of a cycle across the park (no list, tuple or
    context stays bound) and add no local: each costs 8 B per started cell."""
    collect_trigger = AwaitCollect(c)
    while True:
        # resumes the instant after the trigger, with every activation of it
        activations = yield collect_trigger
        # combine: the states add up, plus one; the last activation, left in
        # a, sets the context, and any other context in them is a collision
        state = 1
        for a in activations:
            state += a[0]
        c.ctx = ctx = a[1]
        for a in activations:
            if a[1] is not ctx:
                world.ctx_collisions += 1
                break
        del activations, a  # freed now, not when next triggered
        world.visible[c] = state % world.base
        if c in world.zone_cells:
            world.sched.generate(world.contact, c)
        if (yield ctx.collect_measure):
            yield from reduce(world, c)
        else:
            awake_neighbourhood(world, c)
        del world.visible[c], ctx  # reset: no longer visible, so no state

