"""Real particles: the animated entities born from a collapse.

One ``particle_stepper`` behavior moves every particle of a world, once per
instant, starting the instant after the particle's birth. Its per-particle
step fuses inertia (move by the velocity) and bouncing (reflect whichever
velocity component would carry the particle into a wall cell). Positions are
continuous, in cell units, and particles spawn at the centre of their birth
cell so a component never lands exactly on a cell boundary.
"""

from __future__ import annotations

from bisect import bisect_right
from math import floor

from .kernel import COOPERATE
from .world import BRICK


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


def step_particle(p: RealParticle, cells: list, width: int, height: int) -> None:
    """Move by the velocity, then reflect off the wall cells run into.

    ``cells`` is the grid's row-major cell list; off-grid counts as wall.
    Each offending component is flipped and restored to its pre-step value,
    so a legal position stays legal and speed magnitude is conserved. A
    corner hit flips both components. Cells come from ``math.floor``, faster
    than ``int``; they differ only on (-1, 0), off-grid for ``floor`` and the
    BRICK border ring for ``int``, both wall, so every reflection is the same.
    """
    x0, y0, vx, vy = p.fx, p.fy, p.vx, p.vy
    fx, fy = x0 + vx, y0 + vy
    if vx:
        x, y = floor(fx), floor(y0)
        if not (0 <= x < width and 0 <= y < height) or cells[y * width + x].kind is BRICK:
            p.vx = -vx
            fx = x0
    if vy:
        x, y = floor(fx), floor(fy)
        if not (0 <= x < width and 0 <= y < height) or cells[y * width + x].kind is BRICK:
            p.vy = -vy
            fy = y0
    p.fx, p.fy = fx, fy


def particle_stepper(world):
    """Step, once per instant, the particles whose start instant has come:
    a prefix of ``world.particles``, as ``world.particle_starts`` never falls."""
    grid = world.grid
    cells, width, height = list(grid.cells()), grid.width, grid.height
    sched, particles, starts = world.sched, world.particles, world.particle_starts
    while True:
        for p in particles[: bisect_right(starts, sched.clock)]:
            step_particle(p, cells, width, height)
        yield COOPERATE
