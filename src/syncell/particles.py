"""Real particles: the animated entities born from a collapse.

One ``particle_stepper`` behavior moves every particle of a world, once per
instant from the instant after its birth, in one ``step_particles`` call at
the head of the instant. A particle's step works one velocity component at a
time, x then y: it moves by the component (inertia) or, where that would land
in a wall cell, flips it (bouncing). Positions are continuous, in cell units,
and particles spawn at the centre of their birth cell so a component never
lands exactly on a cell boundary.
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
    both. A zero component is neither moved nor stored. A step reads only
    its particle and the mask, so order does not matter. Cells come from
    ``math.floor``, faster than ``int``; they differ only on (-1, 0),
    off-grid for ``floor`` and the wall border ring for ``int``, both wall.
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


def particle_stepper(world, spawned_in_an_instant: bool):
    """Step all of ``world.particles`` at the head of every instant, before any
    birth in it; spawned inside an instant, first wait for the next."""
    grid = world.grid
    walls, width, height = grid.walls, grid.width, grid.height
    particles = world.particles
    if spawned_in_an_instant:
        yield COOPERATE
    while True:
        step_particles(particles, walls, width, height)
        yield COOPERATE
