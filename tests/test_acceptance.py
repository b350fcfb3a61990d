"""Acceptance suite: the nine exit criteria, each timed at its stated budget.

Every test prints one PASS line on success (visible with -v -s or in the
captured output); a failing criterion fails its test. Criteria 4 and 5 share
one 1000-shot reference run through a module-scoped fixture. Criteria 5 and 6
check each collapse from what every instant shows (``InstantLog``).
"""

import os
import random
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

from syncell import COOPERATE, FrameBuffer, UP, World
from syncell.cli import main
from syncell.kernel import Await, Collect, Event, Scheduler
from syncell.measure import REDUCE_WINDOW
from syncell.particles import RealParticle, step_particles
from syncell.scenario import (
    SourceSpec,
    build_world,
    fire,
    load_scenario,
)
from syncell.stats import RunReport

from instant_log import InstantLog, assert_collapses
from test_world import oracle_rows

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def report_pass(number: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): PASS{suffix}")


# -- criterion 1: kernel semantics over randomized behavior programs -------------


def _random_program(rng, n_behaviors=4, n_events=3, max_ops=8):
    ops = []
    for _ in range(n_behaviors):
        script = []
        for _ in range(rng.randrange(max_ops + 1)):
            kind = rng.randrange(4)
            if kind == 0:
                script.append(("gen", rng.randrange(n_events), rng.randrange(10)))
            elif kind == 1:
                script.append(("await", rng.randrange(n_events)))
            elif kind == 2:
                script.append(("collect", rng.randrange(n_events)))
            else:
                script.append(("coop",))
        ops.append(script)
    return ops


def _interp(sched, events, script, trace, label):
    for op in script:
        if op[0] == "gen":
            sched.generate(events[op[1]], op[2])
            trace.append((label, "gen", op[1], op[2], sched.clock))
        elif op[0] == "await":
            yield Await(events[op[1]])
            trace.append((label, "await", op[1], sched.clock))
        elif op[0] == "collect":
            values = yield Collect(events[op[1]])
            trace.append((label, "collect", op[1], tuple(values), sched.clock))
        else:
            yield COOPERATE
            trace.append((label, "coop", sched.clock))


def _trace_program(program):
    sched = Scheduler(microstep_budget=10_000)
    events = [Event() for _ in range(3)]
    trace = []
    for i, script in enumerate(program):
        sched.spawn(_interp(sched, events, script, trace, i))
    for _ in range(25):
        sched.run_instant()
        for e in events:
            assert e.values == (), "buffer reset violated"
        if sched.is_quiet():
            break
    return trace


def test_criterion_1_kernel_semantics():
    t0 = time.monotonic()
    rng = random.Random(20260808)

    # determinism over randomized programs
    for _ in range(100):
        program = _random_program(rng)
        assert _trace_program(program) == _trace_program(program)

    # broadcast: every awaiter resumes in the generation instant
    for trial in range(30):
        sched = Scheduler()
        e = Event()
        n, delay = rng.randrange(1, 8), rng.randrange(6)
        resumed = []

        def waiter(i, sched=sched, e=e, resumed=resumed):
            yield Await(e)
            resumed.append((i, sched.clock))

        def producer(sched=sched, e=e, delay=delay):
            for _ in range(delay):
                yield COOPERATE
            sched.generate(e, ())

        for i in range(n):
            sched.spawn(waiter(i))
        sched.spawn(producer())
        for _ in range(delay + 2):
            sched.run_instant()
        assert sorted(resumed) == [(i, delay) for i in range(n)]

    # collection exactness: a collector sees exactly its opening instant
    for trial in range(30):
        sched = Scheduler()
        e = Event()
        plan = [(rng.randrange(4), rng.randrange(10)) for _ in range(rng.randrange(10))]
        open_at = rng.randrange(4)
        got = []

        def producer(sched=sched, e=e, plan=plan):
            for t in range(5):
                for pt, v in plan:
                    if pt == t:
                        sched.generate(e, v)
                yield COOPERATE

        def collector(sched=sched, e=e, got=got, open_at=open_at):
            for _ in range(open_at):
                yield COOPERATE
            got.append((yield Collect(e)))

        sched.spawn(producer())
        sched.spawn(collector())
        for _ in range(7):
            sched.run_instant()
        assert sorted(got[0]) == sorted(v for t, v in plan if t == open_at)

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"kernel suite took {elapsed:.2f}s"
    report_pass(1, "kernel semantics", f"{elapsed:.2f}s")


# -- criterion 2: CA oracle equivalence over 50 generations ----------------------


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    rows = oracle_rows(0, 50)
    assert rows[2] == {-2: 3, -1: 5, 0: 1, 1: 5, 2: 3}  # pinned fixture

    w = World(111, 56, seed=0)
    src_x, src_y = 55, 52

    def igniter():
        fire(w, w.grid.cell(src_x, src_y), 0, UP, Event())
        yield COOPERATE

    w.sched.spawn(igniter())
    for g in range(51):
        while w.sched.clock < 2 * g + 2:
            w.sched.run_instant()
        got = {x - src_x: s for (x, y, s) in w.snapshot()}
        assert got == rows[g], f"generation {g} diverges from the recurrence"

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"oracle run took {elapsed:.2f}s"
    report_pass(2, "CA oracle equivalence", f"50 generations, {elapsed:.2f}s")


# -- criterion 3: evolution is deterministic and seed-independent ----------------


def test_criterion_3_seed_independent_evolution():
    t0 = time.monotonic()
    spec = load_scenario(SCENARIOS / "young200.scn")
    one_shot = replace(spec, sources=[replace(spec.sources[0], shots=1)])

    def frames_and_outcome(seed):
        w = build_world(replace(one_shot, seed=seed))
        fb = FrameBuffer(w.grid.width, w.grid.height)
        frames = []
        for _ in range(66):
            w.sched.run_instant()
            frames.append(fb.paint(w).to_ascii())
        [red] = w.stats.reductions
        return frames, w.stats.detections[0].instant, red.state, red.cell_id

    frames1, t_measure1, state1, cell1 = frames_and_outcome(1)
    frames2, t_measure2, state2, cell2 = frames_and_outcome(2)

    assert t_measure1 == t_measure2 == 57
    # everything up to the outcome write is seed-independent, bit for bit
    pre = t_measure1 + REDUCE_WINDOW - 1
    assert frames1[:pre] == frames2[:pre]
    # the measurement outcome is where seeds may differ, and these do
    assert (state1, cell1) != (state2, cell2)

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report_pass(3, "seed-independent evolution", f"{elapsed:.2f}s")


# -- criteria 4 and 5: frequency law and collapse, one reference run -------------


@pytest.fixture(scope="module")
def young_reference_run():
    spec = load_scenario(SCENARIOS / "young200.scn")
    t0 = time.monotonic()
    world = build_world(spec)
    log = InstantLog()
    # run_world without frames, watched by the log
    report = RunReport.from_world(world, world.run(spec.run_length, on_instant=log))
    elapsed = time.monotonic() - t0
    return spec, world, report, elapsed, log


# computed once from the deterministic evolution of scenarios/young200.scn
# (superposition of 49 cells at the detector strip); frozen as a regression
# fixture
EXPECTED_CENSUS = (12, 4, 12, 4, 4, 13)


def test_criterion_4_frequency_law(young_reference_run):
    _, world, report, elapsed, _ = young_reference_run
    records = world.stats.detections
    assert len(records) == 1000
    drifted = [rec for rec in records if rec.state_counts != EXPECTED_CENSUS]
    assert not drifted, f"{len(drifted)} measured superpositions drifted, first {drifted[0]}"
    # each collapse draws its state with the measured census's fractions, so
    # the expected frequency of a state is their mean over the detections
    expected = [sum(rec.state_counts[s] / rec.size for rec in records) / 1000 for s in range(6)]

    assert report.detections_total == 1000
    counts = report.detector_counts[0]
    deviations = {s: abs(counts[s] / 1000 - expected[s]) for s in range(6)}
    assert max(deviations.values()) <= 0.05, deviations
    assert elapsed < 30.0, f"reference run took {elapsed:.1f}s"
    report_pass(
        4,
        "frequency law",
        f"N=1000, max deviation {max(deviations.values()):.3f}, {elapsed:.1f}s",
    )


def test_criterion_5_collapse_instantaneity(young_reference_run):
    spec, world, report, elapsed, log = young_reference_run
    assert report.unresolved == 0
    assert len(world.stats.detections) == 1000
    # silent from the broadcast on, gone and reduced once (one particle)
    # REDUCE_WINDOW instants later
    assert_collapses(log, [(rec.ctx_serial, rec.instant) for rec in world.stats.detections])
    report_pass(5, "collapse instantaneity", f"window {REDUCE_WINDOW} instants, 1000 collapses")


# -- criterion 6: entangled pairs ------------------------------------------------


def test_criterion_6_entanglement():
    t0 = time.monotonic()
    spec = load_scenario(SCENARIOS / "entangled.scn")
    world = build_world(spec)
    log = InstantLog()
    measure_of = {}  # context serial -> its measurement event, read while visible

    def watch(world, report):
        log(world, report)
        for c in world.visible:
            assert measure_of.setdefault(c.ctx.serial, c.ctx.measure) is c.ctx.measure

    world.run(spec.run_length, on_instant=watch)

    pairs = defaultdict(list)  # by the measurement event object itself
    for red in world.stats.reductions:
        pairs[measure_of[red.ctx_serial]].append(red)
    assert len(pairs) == 100
    detected_at = {rec.ctx_serial: rec.instant for rec in world.stats.detections}
    measured = []
    for group in pairs.values():
        assert len(group) == 2, "each measurement must collapse both beams"
        assert group[0].instant == group[1].instant
        assert group[0].state == group[1].state
        # one twin met the detector; the broadcast measured both at that instant
        [t] = {detected_at[red.ctx_serial] for red in group if red.ctx_serial in detected_at}
        measured += [(red.ctx_serial, t) for red in group]
    # both twins fall silent and go, the one no detector saw too
    assert_collapses(log, measured)

    # the particles themselves carry the shared state, pairwise
    assert len(world.particles) == 200
    by_reduction = list(zip(world.stats.reductions, world.particles))
    assert all(p.state == red.state for red, p in by_reduction)

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report_pass(6, "entanglement", f"100/100 pairs equal and simultaneous, {elapsed:.2f}s")


# -- criterion 7: Young's properties ----------------------------------------------


def _gen_snapshot(world, g):
    while world.sched.clock < 2 * g + 2:
        world.sched.run_instant()
    return sorted(world.snapshot())


def test_criterion_7_youngs_properties():
    t0 = time.monotonic()
    spec = load_scenario(SCENARIOS / "young200.scn")
    base = replace(
        spec, detectors=[], sources=[replace(spec.sources[0], shots=1)]
    )
    g_slit = 12  # fired row 188, wall row 176
    last_gen = 28  # down to the detector strip's row

    def slit_variant(open_indices):
        slits = [replace(s, open=(i in open_indices)) for i, s in enumerate(base.slits)]
        w = build_world(replace(base, slits=slits))
        return w

    w_left = slit_variant({0})
    left = {g: _gen_snapshot(w_left, g) for g in range(g_slit, last_gen + 1)}

    # (a) above the wall, the one-slit pattern is the free-space pattern of a
    # source relocated to the slit, fired so as to reproduce the slit state
    [(slit_x, slit_y, slit_state)] = left[g_slit]
    twin = replace(
        base,
        walls=[],
        slits=[],
        sources=[SourceSpec(x=slit_x, y=slit_y + 1, state=(slit_state - 1) % 6, shots=1)],
    )
    w_twin = build_world(twin)
    for k in range(0, last_gen - g_slit + 1):
        assert _gen_snapshot(w_twin, k) == left[g_slit + k], f"offset {k}"

    # (b) where the two cones overlap, the two-slit pattern differs from both
    # one-slit patterns; before they meet, it is exactly their union
    w_right = slit_variant({1})
    right = {g: _gen_snapshot(w_right, g) for g in range(g_slit, last_gen + 1)}
    w_both = slit_variant({0, 1})
    both = {g: _gen_snapshot(w_both, g) for g in range(g_slit, last_gen + 1)}

    overlap_gen = 20  # slits 16 columns apart: cones meet after 8 generations
    for g in range(g_slit + 1, overlap_gen):
        merged = {(x, y): s for x, y, s in left[g]}
        merged.update({(x, y): s for x, y, s in right[g]})
        assert both[g] == sorted((x, y, s) for (x, y), s in merged.items())

    diff_left = set()
    diff_right = set()
    for g in range(overlap_gen, last_gen + 1):
        b = {(x, y): s for x, y, s in both[g]}
        l = {(x, y): s for x, y, s in left[g]}
        r = {(x, y): s for x, y, s in right[g]}
        diff_left |= {(g, k) for k in b.keys() & l.keys() if b[k] != l[k]}
        diff_right |= {(g, k) for k in b.keys() & r.keys() if b[k] != r[k]}
    assert diff_left and diff_right, "the overlap must rewrite both patterns"

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report_pass(
        7,
        "Young's properties",
        f"translate exact, {len(diff_left)}/{len(diff_right)} interference diffs, {elapsed:.2f}s",
    )


# -- criterion 8: particle containment --------------------------------------------


def test_criterion_8_particle_containment():
    t0 = time.monotonic()
    w = World(23, 17)
    walls = w.grid.walls
    p = RealParticle(5.5, 8.5, 1.0, -1.0, 3)
    for _ in range(10_000):
        step_particles([p], walls, w.grid.width, w.grid.height)
        assert w.grid.cell(int(p.fx), int(p.fy)) is not None
        assert 1.0 <= p.fx < 22.0 and 1.0 <= p.fy < 16.0
        assert (abs(p.vx), abs(p.vy)) == (1.0, 1.0), "speed magnitude must be conserved"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report_pass(8, "particle containment", f"10^4 instants, {elapsed:.2f}s")


# -- criterion 9: end-to-end reproducibility ---------------------------------------


def test_criterion_9_byte_identical_reruns(tmp_path):
    scenario = str(SCENARIOS / "single.scn")
    blobs = []
    for name in ("first", "second"):
        stats = tmp_path / f"{name}.csv"
        rep = tmp_path / f"{name}.txt"
        frames = tmp_path / f"frames_{name}"
        code = main(
            [
                "run",
                "--scenario",
                scenario,
                "--stats",
                str(stats),
                "--report",
                str(rep),
                "--frames",
                str(frames),
                "--ascii",
                "--remanence",
            ]
        )
        assert code == 0
        names = sorted(os.listdir(frames))
        assert names, "frames were written"
        payload = [stats.read_bytes(), rep.read_bytes()]
        payload += [(frames / f).read_bytes() for f in names]
        blobs.append((names, payload))
    assert blobs[0] == blobs[1]
    report_pass(9, "end-to-end reproducibility", f"{len(blobs[0][0])} frame files compared")
