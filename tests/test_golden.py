"""Golden outputs of the shipped scenarios, pinned byte for byte.

The output pins are the SHA-256 of the text report, the counts CSV and the
final ``(fx, fy, vx, vy, state)`` of every real particle, in birth order; the
frame pins, of every frame file a CLI run writes. The per-instant pins chain a
SHA-256 over the state after every instant, so they also catch a change that
the final outputs happen to hide. A change to the engine that claims to leave
behavior untouched must leave every pin as it is.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import syncell.world
from syncell import (
    UP,
    Event,
    MeasurementContext,
    Scheduler,
    build_world,
    load_scenario,
    parse_scenario,
)
from syncell.cli import EXIT_OK, main
from syncell.scenario import ScenarioSpec, SourceSpec, run_world
from syncell.world import start_cell

from reference_scheduler import ReferenceScheduler
from test_measure import _horizon, _measured_worlds, cells_of

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

GOLDEN = {
    ("single.scn", 7): "1b71312a1b30dbc93a09797e93744c8b99cfd57563696bdcaf572763ac8064ad",
    ("single.scn", 8): "371073950ee3e5da2de81349e68604d05d57f5ef21f4fe24300d81ef5cce201e",
    ("entangled.scn", 11): "6b9ec91bd596daa5f396cee4af77d6aac01650808c02278d5148dc58924f6501",
    ("entangled.scn", 12): "dfe2951f078fb7dc534ec13f1e661c2339a995457cda5fcbc53a19d5aadc9554",
}


def particle_lines(world) -> str:
    return "".join(f"{p.fx!r},{p.fy!r},{p.vx!r},{p.vy!r},{p.state}\n" for p in world.particles)


def run_digest(name: str, seed: int) -> str:
    spec = load_scenario(SCENARIOS / name)
    world = build_world(replace(spec, seed=seed))
    report = run_world(world, spec.run_length)
    blob = "\n".join([report.text(), report.stats_csv(), particle_lines(world)])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_shipped_scenario_output_is_pinned(name, seed):
    assert run_digest(name, seed) == GOLDEN[(name, seed)]


# Every particle's (fx, fy, vx, vy, state) after 2,000 young200 instants. By
# then the oldest of the 243 particles has gone up to the border and back down
# to the slit wall about five times; the per-instant pins stop at 400 instants.
YOUNG200_PARTICLES_2000 = "845cc33b40e1ae4549ddb3968be7d79439e2f4194a2540401f6f0decf8f8e3f9"


def test_young200_particles_after_2000_instants_are_pinned():
    world = build_world(load_scenario(SCENARIOS / "young200.scn"))
    assert run_world(world, 2000).instants == 2000
    assert len(world.particles) == 243
    digest = hashlib.sha256(particle_lines(world).encode()).hexdigest()
    assert digest == YOUNG200_PARTICLES_2000


# Every particle's (fx, fy, vx, vy, state) at the end of the full 8,200-instant
# young200 run, when all 1,000 particles are live.
YOUNG200_PARTICLES_FULL = "e2940b2fe8d94110e9c011057d6143f7aab42bc2287d0ff8ac68b799822cacec"


def test_young200_particles_after_the_full_run_are_pinned():
    spec = load_scenario(SCENARIOS / "young200.scn")
    world = build_world(spec)
    assert run_world(world, spec.run_length).instants == spec.run_length == 8200
    assert len(world.particles) == 1000
    digest = hashlib.sha256(particle_lines(world).encode()).hexdigest()
    assert digest == YOUNG200_PARTICLES_FULL


# -- frames ---------------------------------------------------------------------

# single.scn written as frames by the CLI: the flags, the files written, and
# the SHA-256 over every frame_* file in name order, each as its name, a NUL
# byte and its bytes
FRAMES_GOLDEN = {
    "ppm": ([], 220, "33b55bf8e0f349667bbab5ae06ae52b5ea8d234063666e87f4946d4033c1874c"),
    "ppm-ascii-remanence": (
        ["--ascii", "--remanence"],
        440,
        "f964fe8d6101737ca626a983fbd82021445b027233ea939a9f24e58c50ef87da",
    ),
}


@pytest.mark.parametrize("case", sorted(FRAMES_GOLDEN))
def test_shipped_scenario_frames_are_pinned(case, tmp_path):
    flags, count, golden = FRAMES_GOLDEN[case]
    scenario = str(SCENARIOS / "single.scn")
    assert main(["run", "--scenario", scenario, "--frames", str(tmp_path), *flags]) == EXIT_OK
    assert len(list(tmp_path.iterdir())) == count
    digest = hashlib.sha256()
    for frame in sorted(tmp_path.glob("frame_*")):
        digest.update(frame.name.encode() + b"\0" + frame.read_bytes())
    assert digest.hexdigest() == golden


# -- per-instant state digests --------------------------------------------------

# Two sources with different periods and states: one plain source with a
# non-dyadic velocity override, one entangled source without overrides; an
# up detector above both and a down detector below the entangled pair.
MIXED = """\
[grid]
width=41
height=61

[source]
x=12
y=44
state=1
direction=up
period=30
shots=6
vx=0.3
vy=-0.7

[source]
x=28
y=30
state=2
direction=up
entangled=true
period=45
shots=4

[detector]
x0=1
y0=10
x1=39
y1=10
kind=up

[detector]
x0=1
y0=50
x1=39
y1=50
kind=down

[run]
instants=400
seed=5
"""


def trace_links(spec, instants: int, prepare=None, reports=None) -> list[str]:
    """Run ``spec`` through ``World.run`` and chain a SHA-256 over every instant.

    Each link hashes the previous link with the instant's canonical state:
    sorted visible ``(x, y, state, ctx serial)``, every particle's
    ``(fx, fy, vx, vy, state)`` in birth order, the detections new in the
    instant ``(instant, detector, ctx serial, size, counts, chosen)`` and the
    reductions new in it ``(instant, ctx serial, cell id, state)``; a
    detection's ``chosen`` is the state of the reduction with its ctx serial
    so far, else None (its collapse has not ended). The last link also covers
    every detection's final chosen state. Event ids are left
    out: they number allocations, not behavior. ``prepare``, if given, is
    called on the built world before its first instant; ``reports``, if
    given, gets every instant's ``InstantReport``. Returns one link per
    instant executed, then the last link, in hex.
    """
    world = build_world(spec)
    if prepare is not None:
        prepare(world)
    links = []
    stats = world.stats
    seen = {"link": b"", "detections": 0, "reductions": 0}

    def chosen(d):
        return next((r.state for r in stats.reductions if r.ctx_serial == d.ctx_serial), None)

    def traced(world, report):
        if reports is not None:
            reports.append(report)
        visible = sorted((c.x, c.y, s, c.ctx.serial) for c, s in world.visible.items())
        particles = [(p.fx, p.fy, p.vx, p.vy, p.state) for p in world.particles]
        detections = [
            (d.instant, d.detector, d.ctx_serial, d.size, d.state_counts, chosen(d))
            for d in stats.detections[seen["detections"] :]
        ]
        reductions = [
            (r.instant, r.ctx_serial, r.cell_id, r.state)
            for r in stats.reductions[seen["reductions"] :]
        ]
        seen["detections"] = len(stats.detections)
        seen["reductions"] = len(stats.reductions)
        blob = repr((report.instant, visible, particles, detections, reductions))
        seen["link"] = hashlib.sha256(seen["link"] + blob.encode()).digest()
        links.append(seen["link"].hex())

    world.run(instants, on_instant=traced)
    final = repr([chosen(d) for d in stats.detections])
    return links + [hashlib.sha256(seen["link"] + final.encode()).hexdigest()]


def trace_digest(spec, instants: int) -> tuple[int, str]:
    """The instants executed and the last link of ``trace_links``."""
    links = trace_links(spec, instants)
    return len(links) - 1, links[-1]


def _mixed(detectors: bool):
    spec = parse_scenario(MIXED)
    return spec if detectors else replace(spec, detectors=[])


TRACE_CASES = {
    "single": (lambda: load_scenario(SCENARIOS / "single.scn"), 220),
    "entangled": (lambda: load_scenario(SCENARIOS / "entangled.scn"), 1000),
    "young200": (lambda: load_scenario(SCENARIOS / "young200.scn"), 400),
    "mixed": (lambda: _mixed(True), 400),
    "mixed-quiet": (lambda: _mixed(False), 1000),
    # the emitter outlives its last wavefront: the run goes quiet on its schedule
    "lone-quiet": (
        lambda: ScenarioSpec(
            width=15, height=15, sources=[SourceSpec(x=7, y=12, period=50, shots=2)]
        ),
        1000,
    ),
}

TRACE_GOLDEN = {
    "entangled": (1000, "52b6366e1357d871d5edb035f387396e0834f007905bb2c7603bebdaa4bcbc85"),
    "mixed": (400, "9f077a46b23340f2bfeec3bdfe977d8d0cde6827aa481ff73dd4a9e574ea12d0"),
    "lone-quiet": (101, "a114b6cf88776e74f4d2fc707ee36e7a640d5f8a2cc900744c318b9249cc42a3"),
    "mixed-quiet": (237, "5b6c3f5f550bc81349673af16d6b19ada634455f172ba46e344db9ad4d420cdc"),
    "single": (220, "38da3f45d9b67d3dc1aa43341ddc0eb3fb8367baabf842ef8038481dc1798b91"),
    "young200": (400, "03ee030b612c40f90c77bb8766918d66571f671955a54fc74c452cf92fcbaa4a"),
}


# a test that sets syncell.world.Scheduler to one of these builds every World on it
SCHEDULERS = {"kernel": Scheduler, "reference": ReferenceScheduler}


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_per_instant_evolution_is_pinned(case, scheduler, monkeypatch):
    monkeypatch.setattr(syncell.world, "Scheduler", SCHEDULERS[scheduler])
    make, instants = TRACE_CASES[case]
    assert trace_digest(make(), instants) == TRACE_GOLDEN[case]


def reported_trace(spec, scheduler) -> tuple[list[str], list]:
    """``trace_links`` of ``spec`` up to its ``_horizon``, run on ``scheduler``,
    and the ``InstantReport`` of every instant."""
    reports = []

    def check_scheduler(world):
        assert type(world.sched) is scheduler

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(syncell.world, "Scheduler", scheduler)
        links = trace_links(spec, _horizon(spec), check_scheduler, reports)
    return links, reports


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_measured_worlds())
def test_generated_worlds_evolve_alike_on_the_kernel_and_the_reference_scheduler(spec):
    assert reported_trace(spec, Scheduler) == reported_trace(spec, ReferenceScheduler)


@settings(max_examples=40, deadline=None)
@given(_measured_worlds(), st.integers(0, 2**16))
def test_generated_evolution_is_seed_independent_up_to_the_first_reduction(spec, seed):
    instants = _horizon(spec)
    worlds = []
    links = trace_links(spec, instants, worlds.append)
    assert trace_links(spec, instants) == links
    # the first draw publishes its outcome in the first reduction instant; the
    # links are chained, so equal prefixes mean equal instants up to it
    first = min((red.instant for red in worlds[0].stats.reductions), default=len(links) - 1)
    assert trace_links(replace(spec, seed=seed), instants)[:first] == links[:first]


# -- cells started by their first trigger against cells started at build ---------


def start_every_cell(world):
    """Start every non-wall cell before instant 0 (``start_cell``, which sets
    ``ctx`` so that no trigger starts it again): each cell then takes its
    first step in instant 0, as when ``build_world`` started them all. The
    context is built directly, so it takes no serial from the world's, and
    each cell's combine step overwrites it before anything reads it."""
    placeholder = MeasurementContext(UP, Event(), Event(), -1)
    for c in cells_of(world.grid):
        if c.ctx is None:
            start_cell(world, c, placeholder)


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_cells_started_by_their_first_trigger_evolve_as_cells_started_at_build(case):
    make, instants = TRACE_CASES[case]
    assert trace_links(make(), instants) == trace_links(make(), instants, start_every_cell)


@settings(max_examples=40, deadline=None)
@given(_measured_worlds())
def test_generated_worlds_evolve_alike_with_cells_started_at_build(spec):
    instants = _horizon(spec)
    assert trace_links(spec, instants) == trace_links(spec, instants, start_every_cell)
