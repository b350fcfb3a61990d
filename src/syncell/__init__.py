"""Synchronous-reactive cellular world with broadcast measurement.

Virtual particles evolve deterministically as wavefronts of a cellular
automaton whose cells are cooperating behaviors over global instants;
a measurement broadcast collapses a wavefront to one uniformly chosen
cell, which becomes a bouncing real particle. Entangled emission pairs
share the measurement event, which also carries the outcome, so measuring
one collapses both, to the same state, in the same instant.
"""

from .kernel import (
    Await,
    AwaitCollect,
    COOPERATE,
    Collect,
    DivergenceError,
    Event,
    InstantReport,
    KernelError,
    PhaseError,
    Scheduler,
)
from .world import (
    Cell,
    DOWN,
    Grid,
    MeasurementContext,
    UP,
    World,
)
from .measure import REDUCE_WINDOW, choose
from .particles import RealParticle
from .scenario import (
    ScenarioError,
    ScenarioSpec,
    build_world,
    fire,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from .render import FrameBuffer
from .stats import RunReport

__all__ = [
    "Await",
    "AwaitCollect",
    "COOPERATE",
    "Cell",
    "Collect",
    "DOWN",
    "DivergenceError",
    "Event",
    "FrameBuffer",
    "Grid",
    "InstantReport",
    "KernelError",
    "MeasurementContext",
    "PhaseError",
    "REDUCE_WINDOW",
    "RealParticle",
    "RunReport",
    "ScenarioError",
    "ScenarioSpec",
    "Scheduler",
    "UP",
    "World",
    "build_world",
    "choose",
    "fire",
    "load_scenario",
    "parse_scenario",
    "run_scenario",
]

__version__ = "0.1.0"
