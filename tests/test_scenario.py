"""Scenario parsing, world construction, and emission contracts."""

import gc
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from syncell import COOPERATE, DOWN, UP, World
from syncell import scenario
from syncell.kernel import Event
from syncell.scenario import (
    DetectorSpec,
    MAX_CELLS,
    ScenarioError,
    ScenarioSpec,
    SlitSpec,
    SourceSpec,
    WallSpec,
    build_world,
    emitter,
    fire,
    load_scenario,
    parse_scenario,
    run_world,
)

from test_measure import cells_of

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


GOOD = """\
# a comment
[grid]
width = 30
height = 40

[wall]
x0=1
y0=20
x1=28
y1=20

[slit]
wall=0
x0=10
x1=10
open=true

[slit]
wall=0
x0=18
x1=18
open=false

[source]
x=15
y=35
state=2
direction=up
period=4
shots=10

[detector]
x0=5
y0=10
x1=25
y1=12
kind=up

[run]
instants=500
seed=99
"""


def test_parse_happy_path():
    spec = parse_scenario(GOOD)
    assert (spec.width, spec.height, spec.base) == (30, 40, 6)
    assert spec.walls == [WallSpec(1, 20, 28, 20, line=6)]
    assert spec.slits[0].open is True and spec.slits[1].open is False
    assert spec.sources[0].state == 2 and spec.sources[0].shots == 10
    assert spec.detectors[0].kind is UP
    assert spec.run_length == 500 and spec.seed == 99
    assert len(spec.digest) == 64


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[grid]\nwidth=10\n", "height"),
        ("[grid]\nwidth=ten\nheight=10\n", "line 2"),
        ("[grid]\nwidth=10\nheight=10\n[oops]\n", "line 4"),
        ("[grid]\nwidth=10\nheight=10\nstray\n", "line 4"),
        ("width=10\n", "outside any section"),
        ("[grid]\nwidth=10\nheight=10\n[source]\nx=5\n", "incomplete [source]"),
        ("[grid]\nwidth=10\nheight=10\n[source]\nx=5\ny=5\ndirection=left\n", "up or down"),
        ("[grid]\nwidth=10\nheight=10\n[slit]\nwall=0\nx0=2\nx1=2\nopen=maybe\n", "true/false"),
        ("[grid]\nwidth=10\ndepth=3\n", "line 3: unknown [grid] key 'depth'"),
        ("[grid]\nwidth=10\nheight=10\n[run]\nsteps=3\n", "line 5: unknown [run] key 'steps'"),
        ("[grid]\nwidth=10\nheight=10\n[wall]\nx=3\n", "line 5: unknown [wall] key 'x'"),
        ("[grid]\nwidth=10\nheight=10\n[slit]\nx=3\n", "line 5: unknown [slit] key 'x'"),
        ("[grid]\nwidth=10\nheight=10\n[source]\nkind=up\n", "line 5: unknown [source] key 'kind'"),
        ("[grid]\nwidth=10\nheight=10\n[detector]\nstate=1\n", "line 5: unknown [detector] key 'state'"),
        ("[grid]\nwidth=10\nheight=10\n[source]\nvx=fast\n", "line 5: vx expects a number, got 'fast'"),
        ("[grid]\nwidth=10\nheight=10\n[grid\n", "line 4: malformed section header '[grid'"),
        ("[grid]\nwidth=10\nheight=10\n[wall]\nx0=1\ny0=1\nx1=2\n", "line 4: incomplete [wall] section"),
        ("[grid]\nwidth=10\nheight=10\n[slit]\nwall=0\nx1=2\n", "line 4: incomplete [slit] section"),
        ("[grid]\nwidth=10\nheight=10\n[detector]\nx0=1\n[run]\n", "line 4: incomplete [detector] section"),
        ("[grid]\nwidth=10\nheight=10\n[run]\ninstants=-5\n", "line 5: instants expects an integer >= 0, got '-5'"),
        # only \n, \r\n and a lone \r end a line: a form feed does not
        ("[grid]\nwidth=10\nheight=10 # \x0c\n[run]\ninstants=x\n", "line 5: instants expects"),
        ("[grid]\r\nwidth=10\rheight=10\r\n[run]\rinstants=x\n", "line 5: instants expects"),
        # a key is given once: in its section, and across merged [grid] / [run] sections
        ("[grid]\nwidth=9\nwidth=11\nheight=9\n", "line 3: repeated [grid] key 'width'"),
        ("[grid]\nwidth=9\nheight=9\n[source]\nx=4\nx=5\ny=4\n", "line 6: repeated [source] key 'x'"),
        ("[grid]\nwidth=9\n[run]\nseed=1\n[grid]\nwidth=9\nheight=9\n", "line 6: repeated [grid] key 'width'"),
        ("[grid]\nwidth=9\nheight=9\n[run]\nseed=1\n[run]\nseed=1\n", "line 7: repeated [run] key 'seed'"),
    ],
)
def test_parse_errors_carry_line_information(text, fragment):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert fragment in str(err.value)


def test_the_readme_example_parses_and_builds():
    # README.md's "Scenario files" block is the format's one full example
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1]
    example = section.split("```\n", 2)[1]
    spec = parse_scenario(example)
    assert (spec.width, spec.height) == (200, 200)
    assert (len(spec.walls), len(spec.slits), len(spec.detectors)) == (1, 1, 1)
    world = build_world(spec)
    assert world.detectors == spec.detectors


def test_a_next_line_or_line_separator_does_not_end_a_line():
    # str.splitlines would break "# a\x85b" into a comment and a stray "b"
    spec = parse_scenario("# a\x85b\n[grid]\nwidth=9 # \u2028x\nheight=9\n")
    assert (spec.width, spec.height) == (9, 9)


_HEADERS = ["[grid]", "[wall]", "[slit]", "[source]", "[detector]", "[run]", "[oops]", "[grid", "[]"]
_KEYS = [
    "width", "height", "base", "x0", "y0", "x1", "y1", "wall", "open", "x", "y", "state",
    "direction", "entangled", "period", "shots", "vx", "vy", "kind", "instants", "seed", "bogus",
]
_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["up", "down", "left", "true", "no", "maybe", "0.5", "nan", "", "ten"]),
)
_LINES = st.one_of(
    st.sampled_from(_HEADERS),
    st.builds("{}={}".format, st.sampled_from(_KEYS), _VALUES),
    st.text(max_size=10),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINES, max_size=30).map("\n".join))
def test_malformed_text_raises_only_scenario_errors(text):
    try:
        spec = parse_scenario(text)
    except ScenarioError:
        return
    assert isinstance(spec, ScenarioSpec)


def test_empty_world_has_dead_interior_and_brick_border():
    spec = ScenarioSpec(width=20, height=20)
    w = build_world(spec)
    interior = cells_of(w.grid)
    assert w.grid.walls.count(1) == 20 * 20 - 18 * 18
    assert len(interior) == 18 * 18
    assert w.visible == {}
    assert all(not c.values for c in interior)
    # a cell's behavior starts at its first trigger: none has one yet
    assert all(c.ctx is None for c in interior)
    assert w.sched.alive == 0


def test_walls_are_brick_and_get_no_behavior():
    spec = ScenarioSpec(width=20, height=20, walls=[WallSpec(3, 5, 16, 6)])
    w = build_world(spec)
    assert w.sched.alive == 0  # walls and never-triggered cells have no behavior
    assert all(w.grid.cell(x, y) is None for y in (5, 6) for x in range(3, 17))
    assert sum(c.ctx is None for c in cells_of(w.grid)) == 18 * 18 - 14 * 2


def test_open_slit_carves_through_its_wall():
    spec = ScenarioSpec(
        width=20,
        height=20,
        walls=[WallSpec(1, 9, 18, 9)],
        slits=[SlitSpec(wall=0, x0=7, x1=8, open=True)],
    )
    w = build_world(spec)
    assert w.grid.cell(7, 9) is not None
    assert w.grid.cell(8, 9) is not None
    assert w.grid.cell(6, 9) is None
    # the carved cells are open and, like every cell, not started before a trigger
    assert w.grid.cell(7, 9).ctx is None and isinstance(w.grid.cell(7, 9), Event)
    assert sum(c.ctx is None for c in cells_of(w.grid)) == 18 * 18 - (18 - 2)
    assert w.sched.alive == 0


def test_behavior_bookkeeping_with_source_and_detector():
    spec = ScenarioSpec(
        width=20,
        height=20,
        sources=[SourceSpec(x=10, y=16)],
        detectors=[DetectorSpec(x0=2, y0=5, x1=17, y1=5)],
    )
    w = build_world(spec)
    assert w.sched.alive == 2  # the emitter and the detector behavior
    w.run(1)  # the first shot starts the one fired cell
    assert w.sched.alive == 3 and w.grid.cell(10, 15).ctx.direction == UP


def test_young200_builds_in_4_5_mb_and_starts_only_the_cells_it_triggers():
    spec = load_scenario(SCENARIOS / "young200.scn")
    # one suspended behavior per non-wall cell took 26.4 MB of this, an event
    # id per cell 1.5 MB more, and two empty lists per cell 4.3 MB more
    assert build_peak_bytes(spec) <= 4_500_000
    w = build_world(spec)
    w.run(300)
    # 641 cells triggered by then, of 39,008, plus the emitter, the detector
    # behavior and the particle stepper
    assert w.sched.alive == 644
    assert w.sched.alive - 3 == sum(c.ctx is not None for c in cells_of(w.grid))


def test_young200_builds_one_object_per_open_site():
    """An open site is one ``Cell``, its own trigger event, which holds no
    value or waiter list at rest: one GC-tracked object. The rest of the
    world is a few dozen."""
    spec = load_scenario(SCENARIOS / "young200.scn")
    gc.collect()
    before = len(gc.get_objects())
    w = build_world(spec)
    added = len(gc.get_objects()) - before
    assert added <= len(cells_of(w.grid)) + 100


@pytest.mark.parametrize(
    "spec,fragment",
    [
        (ScenarioSpec(width=10, height=10, sources=[SourceSpec(x=0, y=5)]), "outside the interior"),
        (
            ScenarioSpec(
                width=10,
                height=10,
                walls=[WallSpec(1, 5, 8, 5)],
                sources=[SourceSpec(x=5, y=5)],
            ),
            "sits on a wall",
        ),
        (
            ScenarioSpec(
                width=10,
                height=10,
                walls=[WallSpec(1, 4, 8, 4)],
                sources=[SourceSpec(x=5, y=5, direction=UP)],
            ),
            "fired cell",
        ),
        (ScenarioSpec(width=10, height=10, sources=[SourceSpec(x=5, y=5, state=9)]), "state"),
        (
            ScenarioSpec(width=10, height=10, slits=[SlitSpec(wall=3, x0=2, x1=2)]),
            "wall index",
        ),
        (
            ScenarioSpec(
                width=10,
                height=10,
                walls=[WallSpec(2, 5, 7, 5)],
                slits=[SlitSpec(wall=0, x0=1, x1=8)],
            ),
            "not inside wall",
        ),
        (
            ScenarioSpec(width=10, height=10, detectors=[DetectorSpec(x0=5, y0=5, x1=2, y1=5)]),
            "empty zone",
        ),
        (
            ScenarioSpec(
                width=10,
                height=10,
                walls=[WallSpec(2, 5, 7, 5)],
                detectors=[DetectorSpec(x0=2, y0=5, x1=7, y1=5)],
            ),
            "only wall cells",
        ),
        (ScenarioSpec(width=10, height=10, base=9), "base"),
        (
            ScenarioSpec(width=10, height=10, sources=[SourceSpec(x=5, y=5, vx=2.0, line=7)]),
            "source #0 (line 7): vx=2.0 is outside -1.0..1.0",
        ),
        (
            ScenarioSpec(width=10, height=10, sources=[SourceSpec(x=5, y=5, vy=float("nan"))]),
            "vy=nan is outside",
        ),
        (ScenarioSpec(width=100_000, height=100_000), "more than 1,000,000 cells"),
        (ScenarioSpec(width=MAX_CELLS // 999, height=1000), "more than 1,000,000 cells"),
        (ScenarioSpec(width=2, height=10), "smaller than 3x3"),
        (  # a direction is a row step, so a spec built in code can hold any int
            ScenarioSpec(width=10, height=10, sources=[SourceSpec(x=5, y=5, direction=2, line=4)]),
            "source #0 (line 4): direction 2 is not UP (-1) or DOWN (1)",
        ),
        (
            ScenarioSpec(width=10, height=10, detectors=[DetectorSpec(2, 2, 7, 7, kind=0, line=9)]),
            "detector #0 (line 9): kind 0 is not UP (-1) or DOWN (1)",
        ),
    ],
)
def test_build_rejects_malformed_specs_with_location(spec, fragment):
    with pytest.raises(ScenarioError) as err:
        build_world(spec)
    assert fragment in str(err.value)


def test_a_grid_of_max_cells_passes_the_size_check(monkeypatch):
    class Reached(Exception):
        pass

    def world(width, height, **kw):
        raise Reached(width * height)

    monkeypatch.setattr(scenario, "World", world)  # stop before allocating
    with pytest.raises(Reached):
        build_world(ScenarioSpec(width=1000, height=MAX_CELLS // 1000))


def build_peak_bytes(spec) -> int:
    """The peak of memory traced while ``build_world`` builds ``spec``."""
    tracemalloc.start()
    try:
        build_world(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_detector_memory_is_bounded_by_the_grid_not_by_detectors():
    def spec(detectors):
        full = DetectorSpec(1, 1, 198, 198)
        return ScenarioSpec(width=200, height=200, detectors=[full] * detectors)

    one, forty = build_peak_bytes(spec(1)), build_peak_bytes(spec(40))
    assert forty - one <= 1_000_000, (one, forty)


FULL_INTERIOR = {  # sections covering the 198x198 interior of a 200x200 grid
    "wall": "[wall]\nx0=1\ny0=1\nx1=198\ny1=198\n",
    "slit": "[slit]\nwall=0\nx0=1\nx1=198\n",
    "detector": "[detector]\nx0=1\ny0=1\nx1=198\ny1=198\n",
}


def full_grid_file(kind: str, count: int) -> str:
    """A 200x200 scenario of ``count`` full-interior sections of one kind;
    slits cut through one full-interior wall."""
    head = "[grid]\nwidth=200\nheight=200\n" + FULL_INTERIOR["wall"] * (kind == "slit")
    return head + FULL_INTERIOR[kind] * count


def section_line(text: str, kind: str, index: int) -> int:
    """The line of the header of the index-th section of a kind."""
    headers = [n for n, line in enumerate(text.splitlines(), 1) if line == f"[{kind}]"]
    return headers[index]


def test_many_full_grid_detectors_are_rejected_in_bounded_time():
    # 103 full interiors (39,204 cells each) cross 4 x MAX_CELLS; the 1,897
    # sections after the crossing are never visited
    text = full_grid_file("detector", 2_000)
    spec = parse_scenario(text)
    start = time.perf_counter()
    with pytest.raises(ScenarioError) as err:
        build_world(spec)
    elapsed = time.perf_counter() - start
    line = section_line(text, "detector", 102)
    assert f"detector #102 (line {line}): " in str(err.value)
    assert "more than 4,000,000 cells" in str(err.value)
    assert elapsed < 5, elapsed  # about 0.8 s on a 2-vCPU host


def test_a_rejected_build_peaks_no_higher_than_a_one_section_build(monkeypatch):
    # a cap of 10 interiors keeps the traced run short; the path is the same
    monkeypatch.setattr(scenario, "MAX_COVER", 10 * 198 * 198)
    spec = parse_scenario(full_grid_file("detector", 2_000))
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError, match=r"detector #10 "):
            build_world(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = build_peak_bytes(parse_scenario(full_grid_file("detector", 1)))
    assert peak - one <= 1_000_000, (one, peak)


def test_open_slits_count_towards_the_cover_and_closed_ones_do_not(monkeypatch):
    # with room for 4 full interiors: the wall, then open slits 0..2
    monkeypatch.setattr(scenario, "MAX_COVER", 4 * 198 * 198)
    text = full_grid_file("slit", 3) + "[slit]\nwall=0\nx0=1\nx1=198\nopen=false\n"
    build_world(parse_scenario(text))  # exactly at the limit
    text = full_grid_file("slit", 4)
    with pytest.raises(ScenarioError, match=rf"slit #3 \(line {section_line(text, 'slit', 3)}\)"):
        build_world(parse_scenario(text))


def test_open_slits_build_at_a_walls_cost():
    # 101 full-interior slits carve the one full-interior wall open again, so
    # both grids make the same 39,204 cells; carving should add little to that
    slits = parse_scenario(full_grid_file("slit", 101))
    open_grid = parse_scenario(full_grid_file("wall", 0))
    best = {"slits": float("inf"), "open": float("inf")}
    for _ in range(2):
        for name, spec in (("slits", slits), ("open", open_grid)):
            start = time.perf_counter()
            build_world(spec)
            best[name] = min(best[name], time.perf_counter() - start)
    assert best["slits"] <= 2 * best["open"], best


def test_overlapping_open_slits_carve_each_cell_once():
    def walls_after_build(slits):
        spec = ScenarioSpec(width=12, height=12, walls=[WallSpec(1, 5, 10, 6)], slits=slits)
        return build_world(spec).grid.walls

    overlapping = [SlitSpec(0, 2, 6), SlitSpec(0, 4, 8), SlitSpec(0, 3, 7)]
    assert walls_after_build(overlapping) == walls_after_build([SlitSpec(0, 2, 8)])


def first_slit_cell_off_the_interior(spec):
    """The cell a slit check that walks every cell row by row names first."""
    s = spec.slits[0]
    w = spec.walls[s.wall]
    for y in range(w.y0, w.y1 + 1):
        for x in range(s.x0, s.x1 + 1):
            if not (1 <= x <= spec.width - 2 and 1 <= y <= spec.height - 2):
                return x, y
    return None


@st.composite
def _slits_near_the_border(draw):
    """One wall anywhere on a small grid, border ring included, and one open
    slit inside its columns."""
    width, height = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    x0, x1 = sorted(draw(st.integers(0, width - 1)) for _ in range(2))
    y0, y1 = sorted(draw(st.integers(0, height - 1)) for _ in range(2))
    s0, s1 = sorted(draw(st.integers(x0, x1)) for _ in range(2))
    walls, slits = [WallSpec(x0, y0, x1, y1)], [SlitSpec(0, s0, s1)]
    return ScenarioSpec(width, height, walls=walls, slits=slits)


@settings(max_examples=200, deadline=None)
@given(_slits_near_the_border())
@example(ScenarioSpec(9, 9, walls=[WallSpec(1, 3, 8, 8)], slits=[SlitSpec(0, 2, 8)]))
@example(ScenarioSpec(9, 9, walls=[WallSpec(1, 3, 7, 8)], slits=[SlitSpec(0, 2, 7)]))
def test_a_slit_off_the_interior_names_its_first_cell_in_row_order(spec):
    cell = first_slit_cell_off_the_interior(spec)
    if cell is None:
        assert_walls_are_the_mask_and_cells_are_interior(build_world(spec))
        return
    with pytest.raises(ScenarioError, match=rf"slit #0 \(line 0\): \({cell[0]},{cell[1]}\) is"):
        build_world(spec)


_VELOCITY = st.one_of(st.none(), st.none(), st.floats(-1.2, 1.2), st.just(float("nan")))


@st.composite
def _specs(draw):
    """Small specs, mostly inside their grid, now and then out of range."""
    width, height = draw(st.integers(3, 14)), draw(st.integers(3, 14))
    xs, ys = st.integers(0, width - 1), st.integers(0, height - 1)
    inner_xs, inner_ys = st.integers(1, width - 2), st.integers(1, height - 2)
    kinds = st.sampled_from([UP, DOWN])

    def span(axis):
        return sorted((draw(axis), draw(axis)))

    walls, slits = [], []
    for y in draw(st.lists(inner_ys, max_size=1)):
        x0, x1 = span(inner_xs)
        walls.append(WallSpec(x0, y, x1, y))
        slits.append(SlitSpec(0, *span(st.integers(x0, x1)), open=draw(st.booleans())))
    sources = [
        SourceSpec(
            draw(inner_xs),
            draw(inner_ys),
            state=draw(st.integers(0, 2)),
            direction=draw(kinds),
            entangled=draw(st.booleans()),
            period=draw(st.integers(0, 6)),
            shots=draw(st.integers(-1, 3)),
            vx=draw(_VELOCITY),
            vy=draw(_VELOCITY),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    detectors = []
    for _ in range(draw(st.integers(0, 2))):
        (x0, x1), (y0, y1) = span(xs), span(ys)
        detectors.append(DetectorSpec(x0, y0, x1, y1, kind=draw(kinds)))
    return ScenarioSpec(
        width, height, draw(st.integers(2, 7)), walls, slits, sources, detectors
    )


def assert_walls_are_the_mask_and_cells_are_interior(world):
    """What lets a transmit index its three forward neighbours unchecked and
    the particle stepper read walls from the mask alone."""
    grid = world.grid
    width, height, walls = grid.width, grid.height, grid.walls
    assert len(walls) == width * height and set(walls) <= {0, 1}
    for y in range(height):
        for x in range(width):
            wall = walls[y * width + x]
            if x in (0, width - 1) or y in (0, height - 1):
                assert wall == 1, (x, y)
            c = grid.cell(x, y)
            assert (c is None) == (wall == 1), (x, y)
            if c is not None:
                assert (c.x, c.y) == (x, y) and isinstance(c, Event), c
                assert 1 <= x <= width - 2 and 1 <= y <= height - 2, c


@pytest.mark.parametrize("name", ["single.scn", "entangled.scn", "young200.scn"])
def test_shipped_worlds_keep_the_direct_index_premise(name):
    world = build_world(parse_scenario((SCENARIOS / name).read_text()))
    assert_walls_are_the_mask_and_cells_are_interior(world)


@settings(max_examples=200, deadline=None)
@given(_specs())
def test_any_spec_builds_and_runs_or_raises_a_scenario_error(spec):
    try:
        world = build_world(spec)
    except ScenarioError:
        return
    assert_walls_are_the_mask_and_cells_are_interior(world)
    run_world(world, 40)


@pytest.mark.parametrize(
    "data,fragment",
    [
        (b"\xff[grid]\n", "line 1: byte 0xff"),
        ("# café\r\n[grid]\r\nwidth=9".encode() + b"\xe9\n", "line 3: byte 0xe9"),  # Latin-1
        (b"[grid]\n\nwidth=9\nheight=9\n# \xc3", "line 5: byte 0xc3"),  # cut short
        (b"[grid]\rwidth=9\r\nheight=9\x0c\r# \xe9\n", "line 4: byte 0xe9"),  # \r, no \f
        (b"\xef\xbb\xbf[grid]\nwidth=9\xff\n", "line 2: byte 0xff"),  # after a byte-order mark
        (b"\xef\xbb[grid]\n", "line 1: byte 0xef"),  # a mark cut short
    ],
)
def test_load_scenario_names_the_line_of_the_first_byte_that_is_not_utf8(tmp_path, data, fragment):
    path = tmp_path / "bad.scn"
    path.write_bytes(data)
    with pytest.raises(ScenarioError, match=f"^{fragment} is not UTF-8$"):
        load_scenario(path)


def test_a_leading_byte_order_mark_is_left_out_of_the_text_and_its_digest(tmp_path):
    text = (SCENARIOS / "single.scn").read_text()
    path = tmp_path / "bom.scn"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert scenario.read_scenario(path) == text
    assert load_scenario(path) == parse_scenario(text)


@pytest.mark.parametrize(
    "data,fragment",
    [
        (b"\xef\xbb\xbf\xef\xbb\xbf[grid]\n", "line 1: expected key=value"),  # a second mark
        (b"[grid]\n\xef\xbb\xbfwidth=9\n", "line 2: unknown \\[grid\\] key"),
    ],
)
def test_a_byte_order_mark_past_the_start_is_an_error(tmp_path, data, fragment):
    path = tmp_path / "bom.scn"
    path.write_bytes(data)
    with pytest.raises(ScenarioError, match=f"^{fragment}"):
        load_scenario(path)


# -- firing contracts -------------------------------------------------------------


def manual_world(width=21, height=21, seed=1):
    return World(width, height, seed=seed)


def test_standard_fire_builds_an_entirely_fresh_context():
    w = manual_world()
    seen = []

    def igniter():
        for _ in range(2):
            ctx = fire(w, w.grid.cell(10, 18), 0, UP, Event())
            seen.append(ctx)
            yield COOPERATE

    w.sched.spawn(igniter())
    w.sched.run_instant()
    w.sched.run_instant()
    a, b = seen
    assert a.measure is not b.measure
    assert a.signal is not b.signal  # each context elects on its own roll-call
    assert a.serial != b.serial


def test_entangled_fires_share_exactly_measure():
    w = manual_world()
    w.sched.spawn(emitter(w, SourceSpec(x=10, y=10, direction=UP, entangled=True)))
    w.sched.run_instant()
    w.sched.run_instant()
    up_cell = w.grid.cell(10, 9)
    down_cell = w.grid.cell(10, 11)
    w.sched.run_instant()  # both cells have combined now
    a, b = up_cell.ctx, down_cell.ctx
    assert a is not b
    assert a.measure is b.measure
    assert a.signal is not b.signal  # each context elects on its own roll-call
    assert a.serial != b.serial
    assert a.direction == UP and b.direction == DOWN


def test_fire_into_a_wall_is_a_scenario_error():
    spec = ScenarioSpec(width=12, height=12, walls=[WallSpec(1, 5, 10, 5)])
    w = build_world(spec)
    for x, y in ((0, 7), (4, 5)):  # the border ring, then the wall
        with pytest.raises(ScenarioError, match="cannot fire into a wall"):
            fire(w, w.grid.cell(x, y), 0, UP, Event())
    assert w.sched.alive == 0 and not w.visible


def record_fires(monkeypatch) -> list:
    """Make every emitter log the instant of each ``fire`` it calls."""
    fires = []

    def recording_fire(world, *args):
        fires.append(world.sched.clock)
        return fire(world, *args)

    monkeypatch.setattr(scenario, "fire", recording_fire)
    return fires


def test_emitter_fires_its_first_shot_in_instant_0(monkeypatch):
    fires = record_fires(monkeypatch)
    spec = ScenarioSpec(width=15, height=15, sources=[SourceSpec(x=7, y=12, period=4)])
    w = build_world(spec)
    fired_cell = w.grid.cell(7, 11)
    assert fired_cell not in w.visible and fired_cell.ctx is None
    triggered = {}

    def trigger_spy():  # runs after the emitter in instant 0
        triggered[w.sched.clock] = bool(fired_cell.values)
        yield COOPERATE

    w.sched.spawn(trigger_spy())
    w.sched.run_instant()
    assert triggered == {0: True}
    assert fires == [0]
    w.sched.run_instant()
    # visible after instant 1, so it woke and collected in instant 0
    assert fired_cell.ctx is not None and fired_cell in w.visible


def test_emitter_counts_and_spacing(monkeypatch):
    fires = record_fires(monkeypatch)
    spec = ScenarioSpec(
        width=15, height=15, sources=[SourceSpec(x=7, y=12, period=5, shots=3)]
    )
    w = build_world(spec)
    for _ in range(20):
        w.sched.run_instant()
    assert fires == [0, 5, 10]


def test_entangled_back_beam_with_only_vx_keeps_its_own_direction():
    text = (SCENARIOS / "entangled.scn").read_text()
    plain = parse_scenario(text)
    vx_only = parse_scenario(text.replace("entangled=true", "entangled=true\nvx=0.0"))
    assert vx_only.sources[0].vx == 0.0 and vx_only.sources[0].vy is None
    particles = []
    for spec in (plain, vx_only):
        w = build_world(spec)
        run_world(w, 300)
        particles.append([(p.fx, p.fy, p.vx, p.vy, p.state) for p in w.particles])
    assert {p[3] for p in particles[0]} == {-1.0, 1.0}  # both beams collapsed
    assert particles[1] == particles[0]


def test_entangled_back_beam_mirrors_a_given_vy(monkeypatch):
    velocities = []

    def recording_fire(world, cell, state, direction, measure, velocity):
        velocities.append((direction, velocity))
        return fire(world, cell, state, direction, measure, velocity)

    monkeypatch.setattr(scenario, "fire", recording_fire)
    w = manual_world()
    w.sched.spawn(emitter(w, SourceSpec(x=10, y=10, entangled=True, vx=0.25, vy=-0.5)))
    w.sched.run_instant()
    assert velocities == [(UP, (0.25, -0.5)), (DOWN, (0.25, 0.5))]


def test_zero_shots_leave_the_world_silent():
    spec = ScenarioSpec(
        width=15, height=15, sources=[SourceSpec(x=7, y=12, shots=0, period=3)]
    )
    w = build_world(spec)
    executed = w.run(50)
    assert executed < 50  # quiesced early
    assert w.snapshot() == [] and w.particles == []


def test_successive_shots_are_independent_superpositions():
    spec = ScenarioSpec(
        width=25,
        height=25,
        sources=[SourceSpec(x=12, y=21, shots=2, period=5)],
    )
    w = build_world(spec)
    contexts = set()

    def watcher():
        while True:
            for c in w.visible:
                contexts.add(c.ctx.serial)
            yield COOPERATE

    w.sched.spawn(watcher())
    w.run(14)
    assert len(contexts) == 2


def test_every_shot_reaches_the_detector_in_the_same_superposition():
    spec = ScenarioSpec(
        width=41,
        height=41,
        walls=[WallSpec(1, 25, 39, 25)],
        slits=[SlitSpec(wall=0, x0=17, x1=17), SlitSpec(wall=0, x0=24, x1=24)],
        sources=[SourceSpec(x=20, y=35, shots=3, period=30)],
        detectors=[DetectorSpec(x0=1, y0=12, x1=39, y1=12)],
        seed=8,
    )
    w = build_world(spec)
    w.run(150)
    censuses = {rec.state_counts for rec in w.stats.detections}
    assert len(w.stats.detections) == 3
    assert censuses == {(7, 7, 2, 3, 4, 11)}
