"""Scenario definition: the text format, its specs, the world they build,
and the drivers that run it.

A scenario is a small line-based text file of ``[section]`` headers and
``key=value`` lines, written out in full in README.md's "Scenario files"
section.

Sections may repeat and appear in any order; keys are one per line, each at
most once per section; repeated [grid] and [run] sections merge, and a key
may not repeat across them. ``build_world`` spawns one ``emitter`` per
source and one behavior for all detectors, which fire their first shots in
the first instant run; a cell's behavior starts at its first trigger.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace
from typing import Optional

from .kernel import COOPERATE, Event
from .measure import detector_behavior
from .render import FrameBuffer
from .stats import RunReport, digest_text
from .world import (
    Cell,
    DOWN,
    MeasurementContext,
    UP,
    World,
    collector_paused,
    start_cell,
)

MAX_CELLS = 1_000_000  # the largest grid build_world allocates
MAX_COVER = 4 * MAX_CELLS  # cells build_world visits over all walls, open slits and detectors


class ScenarioError(Exception):
    """A scenario file or spec that cannot be built, with a location hint."""


@dataclass
class WallSpec:
    x0: int
    y0: int
    x1: int
    y1: int
    line: int = 0


@dataclass
class SlitSpec:
    wall: int
    x0: int
    x1: int
    open: bool = True
    line: int = 0


@dataclass
class SourceSpec:
    x: int
    y: int
    state: int = 0
    direction: int = UP
    entangled: bool = False
    period: int = 1
    shots: int = 1
    vx: Optional[float] = None
    vy: Optional[float] = None
    line: int = 0


@dataclass
class DetectorSpec:
    x0: int
    y0: int
    x1: int
    y1: int
    kind: int = UP
    line: int = 0


@dataclass
class ScenarioSpec:
    width: int
    height: int
    base: int = 6
    walls: list[WallSpec] = field(default_factory=list)
    slits: list[SlitSpec] = field(default_factory=list)
    sources: list[SourceSpec] = field(default_factory=list)
    detectors: list[DetectorSpec] = field(default_factory=list)
    run_length: int = 0
    seed: int = 0
    digest: str = "-"


# -- parsing ------------------------------------------------------------------

_INT = (int, "an integer")


def _count(value: str) -> int:
    n = int(value)
    if n < 0:
        raise ValueError(value)
    return n


_COUNT = (_count, "an integer >= 0")
_FLOAT = (float, "a number")
_BOOL = (
    {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}.__getitem__,
    "true/false",
)
_KIND = ({"up": UP, "down": DOWN}.__getitem__, "up or down")

# section -> key -> (converter, what the value must be)
_KEYS = {
    "grid": {"width": _INT, "height": _INT, "base": _INT},
    "wall": dict.fromkeys(("x0", "y0", "x1", "y1"), _INT),
    "slit": {"wall": _INT, "x0": _INT, "x1": _INT, "open": _BOOL},
    "source": {
        **dict.fromkeys(("x", "y", "state", "period", "shots"), _INT),
        "direction": _KIND,
        "entangled": _BOOL,
        "vx": _FLOAT,
        "vy": _FLOAT,
    },
    "detector": {**dict.fromkeys(("x0", "y0", "x1", "y1"), _INT), "kind": _KIND},
    "run": {"instants": _COUNT, "seed": _INT},
}
# the repeatable sections, one spec per section
_RECORDS = {"wall": WallSpec, "slit": SlitSpec, "source": SourceSpec, "detector": DetectorSpec}
# a line ends only at \n, \r\n or a lone \r (str.splitlines also breaks at \f, \x85, ...)
_LINE_END = re.compile(r"\r\n|\r|\n")


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse scenario text; raises ScenarioError with line numbers."""
    merged: dict[str, dict] = {"grid": {}, "run": {}}
    records: dict[str, list] = {kind: [] for kind in _RECORDS}
    grid_line = 0
    section = None
    fields: dict = {}
    record_line = 0

    def close_record():
        if section in _RECORDS:
            try:
                records[section].append(_RECORDS[section](line=record_line, **fields))
            except TypeError as exc:
                raise ScenarioError(
                    f"line {record_line}: incomplete [{section}] section ({exc})"
                )

    for lineno, raw in enumerate(_LINE_END.split(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(f"line {lineno}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in _KEYS:
                raise ScenarioError(f"line {lineno}: unknown section [{name}]")
            close_record()
            section = name
            if name in _RECORDS:
                fields, record_line = {}, lineno
            else:
                fields = merged[name]
                if name == "grid":
                    grid_line = lineno
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key=value, got {line!r}")
        if section is None:
            raise ScenarioError(f"line {lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS[section]:
            raise ScenarioError(f"line {lineno}: unknown [{section}] key {key!r}")
        if key in fields:
            raise ScenarioError(f"line {lineno}: repeated [{section}] key {key!r}")
        convert, expects = _KEYS[section][key]
        try:
            fields[key] = convert(value)
        except (ValueError, KeyError):
            raise ScenarioError(f"line {lineno}: {key} expects {expects}, got {value!r}")

    close_record()
    grid, run = merged["grid"], merged["run"]
    if "width" not in grid or "height" not in grid:
        raise ScenarioError(
            f"line {grid_line or 1}: a [grid] section with width and height is required"
        )
    return ScenarioSpec(
        **grid,
        walls=records["wall"],
        slits=records["slit"],
        sources=records["source"],
        detectors=records["detector"],
        run_length=run.get("instants", 0),
        seed=run.get("seed", 0),
        digest=digest_text(text),
    )


def read_scenario(path) -> str:
    """A scenario file's text after a leading UTF-8 byte-order mark, which the
    spec's digest leaves out; a byte that is not UTF-8 is a ScenarioError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        data = exc.object  # the bytes after the mark, which exc.start counts in
        line = len(_LINE_END.split(data[: exc.start].decode("utf-8")))
        raise ScenarioError(f"line {line}: byte 0x{data[exc.start]:02x} is not UTF-8") from None


def load_scenario(path) -> ScenarioSpec:
    return parse_scenario(read_scenario(path))


# -- emission -----------------------------------------------------------------


def fire(
    world: World,
    cell: Optional[Cell],
    state: int,
    direction: int,
    measure: Event,
    spawn_velocity: Optional[tuple] = None,
) -> MeasurementContext:
    """Inject one emission into a cell, under a fresh signal and election.

    The measurement event is the caller's: fresh per shot from a standard
    source, shared by both beams of an entangled one, where it also carries
    the pair's outcome. ``spawn_velocity`` is the velocity of the particle
    this emission may end in (``MeasurementContext``; None is axis-aligned).
    A wall has no cell: firing into one (``cell`` None) raises ScenarioError.
    """
    if cell is None:
        raise ScenarioError("cannot fire into a wall")
    ctx = world.new_context(direction, measure, spawn_velocity)
    if cell.ctx is None:
        start_cell(world, cell, ctx)
    world.sched.generate(cell, (state % world.base, ctx))
    return ctx


def _beam_directions(spec: SourceSpec) -> tuple[int, ...]:
    if spec.entangled:
        return (spec.direction, -spec.direction)
    return (spec.direction,)


def emitter(world: World, spec: SourceSpec):
    """Fire the source's beams ``shots`` times, ``period`` instants apart.

    The beams of one shot share a fresh measurement event, so they collapse
    together, to one outcome. Each beam's particle velocity is set once: a
    missing ``vx`` is 0 and a missing ``vy`` is the source's direction; the
    back beam mirrors ``vy``, so without overrides each beam's particle
    moves along its own direction. The emitter ends ``period`` instants
    after its last shot.
    """
    vx = 0.0 if spec.vx is None else spec.vx
    vy = float(spec.direction) if spec.vy is None else spec.vy
    beams = []
    for direction in _beam_directions(spec):
        cell = world.grid.cell(spec.x, spec.y + direction)
        beams.append((cell, direction, (vx, vy if direction == spec.direction else -vy)))
    for _ in range(spec.shots):
        measure = Event()
        for cell, direction, velocity in beams:
            fire(world, cell, spec.state, direction, measure, velocity)
        for _ in range(spec.period):
            yield COOPERATE


# -- building -----------------------------------------------------------------


def _check_inside(spec: ScenarioSpec, x: int, y: int, what: str, line: int) -> None:
    if not (1 <= x <= spec.width - 2 and 1 <= y <= spec.height - 2):
        raise ScenarioError(
            f"{what} (line {line}): ({x},{y}) is outside the interior "
            f"1..{spec.width - 2} x 1..{spec.height - 2}"
        )


def _rectangle(spec: ScenarioSpec, what: str, r, empty: str) -> int:
    """Check that a wall or detector rectangle is on the grid and not empty;
    return its number of cells."""
    for x, y in ((r.x0, r.y0), (r.x1, r.y1)):
        if not (0 <= x < spec.width and 0 <= y < spec.height):
            raise ScenarioError(f"{what} (line {r.line}): corner ({x},{y}) is off the grid")
    if r.x1 < r.x0 or r.y1 < r.y0:
        raise ScenarioError(f"{what} (line {r.line}): {empty}")
    return (r.x1 - r.x0 + 1) * (r.y1 - r.y0 + 1)


def _check_direction(what: str, line: int, key: str, value) -> None:
    if type(value) is not int or value not in (UP, DOWN):
        raise ScenarioError(f"{what} (line {line}): {key} {value!r} is not UP (-1) or DOWN (1)")


def _open_cells(grid, d: DetectorSpec):
    """The cells of a detector's rectangle, row by row; walls have none."""
    rows, columns = range(d.y0, d.y1 + 1), range(d.x0, d.x1 + 1)
    return (c for y in rows for x in columns if (c := grid.cell(x, y)) is not None)


@collector_paused()
def build_world(spec: ScenarioSpec) -> World:
    """Construct the world: the wall mask of walls and open slits, one emitter
    per source, one behavior for all detectors (cells start at their first
    trigger). The first shots fire in instant 0. The cyclic collector is
    paused while it builds."""
    if not (2 <= spec.base <= 6):
        raise ScenarioError(f"base must be within 2..6, got {spec.base}")
    if spec.width < 3 or spec.height < 3:
        raise ScenarioError(f"grid {spec.width}x{spec.height} is smaller than 3x3")
    if spec.width * spec.height > MAX_CELLS:
        raise ScenarioError(
            f"grid {spec.width}x{spec.height} has more than {MAX_CELLS:,} cells"
        )
    width = spec.width
    walls = bytearray(width * spec.height)
    covered = 0

    def cover(what: str, line: int, cells: int) -> None:
        nonlocal covered
        covered += cells
        if covered > MAX_COVER:
            raise ScenarioError(
                f"{what} (line {line}): walls, open slits and detectors cover "
                f"more than {MAX_COVER:,} cells in all"
            )

    for i, w in enumerate(spec.walls):
        cover(f"wall #{i}", w.line, _rectangle(spec, f"wall #{i}", w, "empty rectangle"))
        brick = b"\1" * (w.x1 - w.x0 + 1)
        for y in range(w.y0, w.y1 + 1):
            walls[y * width + w.x0 : y * width + w.x1 + 1] = brick

    opened: dict[int, bytearray] = {}  # wall index -> 1 per column a slit opens
    for i, s in enumerate(spec.slits):
        if not (0 <= s.wall < len(spec.walls)):
            raise ScenarioError(
                f"slit #{i} (line {s.line}): wall index {s.wall} does not exist"
            )
        w = spec.walls[s.wall]
        if s.x0 > s.x1 or s.x0 < w.x0 or s.x1 > w.x1:
            raise ScenarioError(
                f"slit #{i} (line {s.line}): interval {s.x0}..{s.x1} is not "
                f"inside wall #{s.wall} ({w.x0}..{w.x1})"
            )
        if not s.open:
            continue
        cover(f"slit #{i}", s.line, (s.x1 - s.x0 + 1) * (w.y1 - w.y0 + 1))
        for x, y in ((s.x0, w.y0), (s.x1, w.y0), (s.x0, w.y1)):  # first off-interior cell
            _check_inside(spec, x, y, f"slit #{i}", s.line)
        columns = opened.setdefault(s.wall, bytearray(w.x1 - w.x0 + 1))
        columns[s.x0 - w.x0 : s.x1 - w.x0 + 1] = b"\1" * (s.x1 - s.x0 + 1)
    for k, columns in opened.items():  # each maximal open run once per row
        w = spec.walls[k]
        for run in re.finditer(rb"\x01+", columns):
            x0, x1 = w.x0 + run.start(), w.x0 + run.end()
            for y in range(w.y0, w.y1 + 1):
                walls[y * width + x0 : y * width + x1] = bytes(x1 - x0)

    world = World(width, spec.height, seed=spec.seed, base=spec.base, walls=walls)
    world.scenario_digest = spec.digest
    grid = world.grid

    for i, s in enumerate(spec.sources):
        _check_inside(spec, s.x, s.y, f"source #{i}", s.line)
        if grid.cell(s.x, s.y) is None:
            raise ScenarioError(
                f"source #{i} (line {s.line}): ({s.x},{s.y}) sits on a wall"
            )
        if not (0 <= s.state < spec.base):
            raise ScenarioError(
                f"source #{i} (line {s.line}): state {s.state} is outside 0..{spec.base - 1}"
            )
        if s.period < 1:
            raise ScenarioError(f"source #{i} (line {s.line}): period must be >= 1")
        if s.shots < 0:
            raise ScenarioError(f"source #{i} (line {s.line}): shots must be >= 0")
        _check_direction(f"source #{i}", s.line, "direction", s.direction)
        for name, v in (("vx", s.vx), ("vy", s.vy)):
            if v is not None and not (-1.0 <= v <= 1.0):
                raise ScenarioError(
                    f"source #{i} (line {s.line}): {name}={v} is outside -1.0..1.0"
                )
        for direction in _beam_directions(s):
            y = s.y + direction
            if grid.cell(s.x, y) is None:
                raise ScenarioError(
                    f"source #{i} (line {s.line}): fired cell ({s.x},{y}) is a wall"
                )
        world.sources.append(s)
        world.sched.spawn(emitter(world, s))

    for i, d in enumerate(spec.detectors):
        cover(f"detector #{i}", d.line, _rectangle(spec, f"detector #{i}", d, "empty zone"))
        _check_direction(f"detector #{i}", d.line, "kind", d.kind)
        if not any(_open_cells(grid, d)):
            raise ScenarioError(
                f"detector #{i} (line {d.line}): zone covers only wall cells"
            )
        world.detectors.append(d)
        world.zone_cells.update(_open_cells(grid, d))
    if world.detectors:
        world.sched.spawn(detector_behavior(world))

    return world


# -- running ------------------------------------------------------------------


def run_world(
    world: World,
    instants: int,
    frames_dir: str | None = None,
    remanence: bool = False,
    ascii_frames: bool = False,
) -> RunReport:
    """Drive a built world for up to ``instants`` instants and report."""
    writer = None
    if frames_dir is not None:
        os.makedirs(frames_dir, exist_ok=True)
        fb = FrameBuffer(world.grid.width, world.grid.height, remanence=remanence)

        def writer(w: World, report):
            fb.paint(w)
            stem = os.path.join(frames_dir, f"frame_{report.instant:06d}")
            with open(stem + ".ppm", "wb") as fh:
                fh.write(fb.to_ppm_bytes())
            if ascii_frames:
                with open(stem + ".txt", "w", encoding="ascii") as fh:
                    fh.write(fb.to_ascii())

    executed = world.run(instants, on_instant=writer)
    return RunReport.from_world(world, executed)


def run_scenario(
    spec: ScenarioSpec,
    instants: int | None = None,
    seed: int | None = None,
    frames_dir: str | None = None,
    remanence: bool = False,
    ascii_frames: bool = False,
) -> RunReport:
    """Build and run a scenario; ``instants`` and ``seed`` override the
    spec's [run] values."""
    if seed is not None:
        spec = replace(spec, seed=seed)
    world = build_world(spec)
    budget = instants if instants is not None else spec.run_length
    return run_world(world, budget, frames_dir, remanence, ascii_frames)
