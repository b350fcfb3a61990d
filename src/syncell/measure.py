"""Measurement: detectors, the uniform choice, and the reduction protocol.

A detector broadcasts the measurement event of the first superposition it
sees; every member cell reacts by running ``reduce`` inside its own cycle.
The members roll-call their identities on the context's signal event, and
the first to report broadcasts a uniform draw of them there. The elected
cell becomes a real particle and broadcasts its state on the measurement
event, which an entangled twin shares. The five instants from measurement
to the last member reset make "the collapse is instantaneous" checkable.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import TYPE_CHECKING

from .kernel import COOPERATE, Await, Collect
from .particles import RealParticle
from .stats import DetectionRecord, ReductionRecord

if TYPE_CHECKING:
    from .world import Cell, World

# instants from the measurement broadcast to the member cells' reset
REDUCE_WINDOW = 5


def choose(ids: Sequence, rng: random.Random):
    """Uniform draw from a non-empty sequence (``randrange`` raises ValueError on
    an empty one); the run's only use of randomness."""
    return ids[rng.randrange(len(ids))]


def detector_behavior(world: World):
    """Every detector of the world, woken in each instant with a contact.

    In index order, each detector walks the instant's ``world.contact`` values
    (spawn-id, so row-major, order) and fires the measurement of each
    superposition of its accepted direction in its rectangle (a contact is a
    non-wall cell), at most once per superposition.
    """
    zones = [
        (range(d.x0, d.x1 + 1), range(d.y0, d.y1 + 1), d.kind, set()) for d in world.detectors
    ]
    sched = world.sched
    wake = Await(world.contact)
    while True:
        yield wake
        for index, (xs, ys, kind, seen) in enumerate(zones):
            for c in world.contact.values:
                ctx = c.ctx
                if ctx.serial in seen or ctx.direction != kind or c.x not in xs or c.y not in ys:
                    continue
                seen.add(ctx.serial)
                counts = world.superposition_census(ctx)
                world.stats.detections.append(
                    DetectionRecord(sched.clock, index, ctx.serial, counts)
                )
                sched.generate(ctx.measure, ())
        yield COOPERATE  # an Await now would find this instant's contacts again


def reduce(world: World, c: Cell):
    """One member cell's part of the collapse, run inside the cell's cycle.

    Measured at t, every member reports its identity on the roll-call
    ``ctx.signal`` at t+3 and collects the reports; at t+4 the first to
    report (in spawn-id order, so the first to run) broadcasts a uniform draw
    of them on it, which every member collects. At T = t+5 the elected member
    takes the outcome its twin broadcast on the measurement event, else
    broadcasts its own basic state, launches the real particle and appends
    its ``ReductionRecord``. Nothing else reads the event at T: the pair's
    cells collect it only at t's parity, and elected members resume from the
    start list, before any detector.
    """
    sched = world.sched
    ctx = c.ctx
    me = world.grid.linear(c.x, c.y)
    yield COOPERATE
    yield COOPERATE
    sched.generate(ctx.signal, me)
    ids = yield Collect(ctx.signal)
    if ids[0] == me:
        sched.generate(ctx.signal, choose(ids, world.rng))
    [chosen] = yield Collect(ctx.signal)
    if chosen == me:
        if ctx.measure.values:  # the twin's elected member ran first
            state = ctx.measure.values[0]
        else:
            state = world.visible[c]
            sched.generate(ctx.measure, state)
        vx, vy = ctx.spawn_velocity
        p = RealParticle(c.x + 0.5, c.y + 0.5, vx, vy, state)
        world.add_particle(p)
        world.stats.reductions.append(ReductionRecord(sched.clock, ctx.serial, me, state))
