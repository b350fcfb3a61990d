"""Real particles: the animated entities born from a collapse.

One ``particle_stepper`` behavior moves every particle of a world, once per
instant from the instant after its birth, at the head of the instant. A
particle's step works one velocity component at a time, x then y: it moves by
the component (inertia) or, where that would land in a wall cell, flips it
(bouncing). Positions are continuous, in cell units, and particles spawn at
the centre of their birth cell so a component never lands exactly on a cell
boundary.

The stepper gives each particle one of two step paths for life, the general
``step_particles`` or a column-run comparison; ``particle_stepper`` states
which particle takes which and why both give the same bytes.
"""

from __future__ import annotations

from math import floor

from .kernel import COOPERATE


class RealParticle:
    __slots__ = ("fx", "fy", "vx", "vy", "state")

    def __init__(self, fx: float, fy: float, vx: float, vy: float, state: int):
        if not (-1.0 <= vx <= 1.0 and -1.0 <= vy <= 1.0):
            raise ValueError("particle speed components are bounded by 1 cell/instant")
        self.fx = fx
        self.fy = fy
        self.vx = vx
        self.vy = vy
        self.state = state

    def __repr__(self):
        return (
            f"RealParticle(({self.fx:.2f},{self.fy:.2f}) "
            f"v=({self.vx},{self.vy}) state={self.state})"
        )


def step_particles(particles, walls: bytes, width: int, height: int) -> None:
    """Move each particle by its velocity, one component at a time.

    x moves first, checked at the pre-step y, then y, at the new x. A
    component that would land on a wall (``walls``, the grid's wall mask
    ``Grid.walls``, or off-grid) is flipped and its coordinate kept, so a
    legal position stays legal and speed is conserved; a corner hit flips
    both. The cell checked is the one holding the rounded position: with a
    ``vy`` of 1.0 and ``fy`` the float just below a power of two, ``fy + vy``
    rounds up to the integer two rows on, so a one-row wall between is
    passed when that row is open. A zero component is neither moved nor
    stored. A step reads only its particle and the mask, so order does not
    matter. Cells come from ``math.floor``, faster than ``int``; they differ
    only on (-1, 0), off-grid for ``floor`` and the wall border ring for
    ``int``, both wall.
    """
    for p in particles:
        vx, vy = p.vx, p.vy
        if vx:
            fx = p.fx + vx
            x, y = floor(fx), floor(p.fy)
            if not (0 <= x < width and 0 <= y < height) or walls[y * width + x]:
                p.vx = -vx
            else:
                p.fx = fx
        if vy:
            fy = p.fy + vy
            x, y = floor(p.fx), floor(fy)
            if not (0 <= x < width and 0 <= y < height) or walls[y * width + x]:
                p.vy = -vy
            else:
                p.fy = fy


def column_run(walls: bytes, width: int, x: int, y: int) -> tuple[int, int]:
    """Rows ``[lo, hi)`` of the open run of column ``x`` that holds the open
    cell ``(x, y)`` of the wall mask ``walls`` (``Grid.walls``): rows ``lo - 1``
    and ``hi`` are wall, as the border ring bounds every column."""
    column = walls[x::width]
    return column.rfind(1, 0, y) + 1, column.find(1, y)


def particle_stepper(world, spawned_in_an_instant: bool):
    """Step all of ``world.particles`` at the head of every instant, before any
    birth in it; spawned inside an instant, first wait for the next.

    Each particle is sorted once, at its first step, onto one step path for
    life (only the stepper writes a registered particle's position or
    velocity). A vertical one (``vx`` zero, ``vy`` not) in an open cell, with
    ``abs(vy) != 1.0`` or ``fy`` on the half-row lattice (``2 * fy`` an
    integer), is kept as ``(p, lo, hi)``, its column's open run from
    ``column_run``, and moves to ``fy = p.fy + vy`` if ``lo <= fy < hi``,
    else flips ``vy``. Every other particle goes through ``step_particles``.
    The two agree exactly: such an ``fy`` lands within one row of the
    particle's own, where ``[lo, hi)`` holds exactly the open rows (beyond
    both ends is wall), and an int compares exactly with a float; a zero
    ``vx`` flips only to ``-0.0``, still zero. As ``|vy| <= 1``, rounding
    can carry ``fy`` two rows on only when ``vy`` is 1.0 and ``fy`` is the
    float just below a power of two (see ``step_particles``), never on the
    lattice; a step of 1.0 either way, or a flip, keeps ``fy`` on it, and
    every particle a collapse launches is born on it, at a cell centre.
    """
    grid = world.grid
    walls, width, height = grid.walls, grid.width, grid.height
    particles = world.particles
    runs: list = []  # (p, lo, hi): a vertical p moves only in rows [lo, hi)
    others: list = []  # every other particle, for step_particles
    seen = 0  # particles[:seen] are sorted into runs or others
    if spawned_in_an_instant:
        yield COOPERATE
    while True:
        if seen < len(particles):
            for p in particles[seen:]:
                if not p.vx and p.vy and (abs(p.vy) != 1.0 or (2 * p.fy).is_integer()):
                    x, y = floor(p.fx), floor(p.fy)
                    if 0 <= x < width and 0 <= y < height and not walls[y * width + x]:
                        runs.append((p, *column_run(walls, width, x, y)))
                        continue
                others.append(p)
            seen = len(particles)
        step_particles(others, walls, width, height)
        for p, lo, hi in runs:
            vy = p.vy
            fy = p.fy + vy
            if lo <= fy < hi:
                p.fy = fy
            else:
                p.vy = -vy
        yield COOPERATE
