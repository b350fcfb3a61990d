"""Runtime instrumentation of the syncell modules, installed from outside src/.

Two levels, both undone when their ``with`` block ends:

``Probe`` is on in every run. It wraps ``World.run`` to time each instant
through the ``on_instant`` hook and to sum the work counters that are free
to read there (generates from ``InstantReport``, visible cells, live
particles), wraps ``Scheduler.spawn`` to count spawns per behavior, and
times the collector through ``gc.callbacks``. Its cost is one call per
instant and one per spawn, plus the calibration chunks when asked for.

``Tracer`` is on in traced runs only. It records spans around the kernel
entry points, around every resumption of every spawned behavior, and around
the render, scenario, stats and cli entry points. Spans are named
``<module>.<function>``; the module is the layer. The collector's pauses are
``runtime.gc`` spans, so they come out of whatever span they interrupt.
Per-call spans are far too many to keep (about 8M in one ``young200`` run),
so every span is folded as it closes into per-(name, parent) totals of count,
total time and self time; the low-rate spans (instants, frames, parse, build,
report) are also kept whole, as (name, start, end, parent), and written out
at the end of the run.

Wrappers are installed on the attribute a caller looks the name up on: the
class for methods, and for functions both the ``syncell`` package (where the
benchmark looks them up) and ``syncell.cli`` (where ``run_scenario`` and
``run_world`` look them up). Behaviors are wrapped where they enter the
kernel, in ``Scheduler.spawn``, so every behavior is covered whatever module
spawns it and whatever it is called.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from dataclasses import dataclass

now_ns = time.perf_counter_ns

ROOT = "bench.repeat"
MAX_DEPTH = 64

CALIBRATE_EVERY_NS = 100_000_000
CALIBRATION_N = 32_000


def _calibration_behavior():
    v = 0
    while True:
        v = yield v + 1


def calibration_chunk() -> int:
    """Wall ns of a fixed piece of pure-Python work, about 3.5 ms on an idle host.

    Generator sends, integer arithmetic and dict stores, as in the engine's
    hot paths. It is long enough to average over the host's sub-millisecond
    contention the way an instant does.
    """
    t0 = now_ns()
    gen = _calibration_behavior()
    send = gen.send
    send(None)
    store = {}
    acc = 0
    for i in range(CALIBRATION_N):
        acc += send(i)
        store[i & 255] = acc
    return now_ns() - t0


class Patches:
    """Replaces attributes and puts the originals back on close."""

    def __init__(self):
        self._saved: list = []
        self.missing: list[str] = []

    def wrap(self, owner, name: str, make) -> None:
        raw = vars(owner).get(name)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, name, raw))
        setattr(owner, name, new)

    def close(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


class Probe:
    """Per-instant wall times and exact work counters of one repeat.

    With ``calibrate``, a calibration chunk runs between two instants every
    ``CALIBRATE_EVERY_NS`` of the run, outside the instants' timings; its
    times measure how fast the host ran while the instants ran.
    """

    def __init__(self, syncell, calibrate: bool = False):
        self.syncell = syncell
        self.calibrate = calibrate
        self.calibration_ns: list[int] = []
        self.instant_ns: list[int] = []
        self.run_ns = 0
        self.worlds: list = []
        self.counters: Counter = Counter()
        self.spawned: Counter = Counter()
        self.gc_ns = 0
        self.gc_gen2 = 0
        self._gc_start = 0
        self._patches = Patches()

    def __enter__(self) -> "Probe":
        self._patches.wrap(self.syncell.world.World, "run", self._wrap_run)
        self._patches.wrap(self.syncell.kernel.Scheduler, "spawn", self._wrap_spawn)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        self._patches.close()

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = now_ns()
            return
        self.gc_ns += now_ns() - self._gc_start
        if info["generation"] == 2:
            self.gc_gen2 += 1

    def _wrap_spawn(self, orig):
        spawned = self.spawned

        def spawn(sched, gen, *args, **kwargs):
            spawned[getattr(gen, "__name__", "?")] += 1
            return orig(sched, gen, *args, **kwargs)

        return spawn

    def _wrap_run(self, orig):
        probe = self

        def run(world, instants, on_instant=None, **kwargs):
            durations = probe.instant_ns
            generated = visible = particles = 0
            start = last_calibration = now_ns()

            def hook(w, report):
                nonlocal generated, visible, particles, start, last_calibration
                if on_instant is not None:
                    on_instant(w, report)
                end = now_ns()
                durations.append(end - start)
                generated += report.generated
                visible += len(w.visible)
                particles += len(w.particles)
                if probe.calibrate and end - last_calibration >= CALIBRATE_EVERY_NS:
                    probe.calibration_ns.append(calibration_chunk())
                    last_calibration = now_ns()
                start = now_ns()

            first = len(durations)
            try:
                executed = orig(world, instants, on_instant=hook, **kwargs)
            finally:
                probe.run_ns += sum(durations[first:])
                probe.worlds.append(world)
                c = probe.counters
                c["instants"] += len(durations) - first
                c["generates"] += generated
                c["visible_cell_instants"] += visible
                c["particle_instants"] += particles
            return executed

        return run

    def work_counters(self) -> dict:
        """Exact counts of the work done; they carry no timing noise."""
        c = dict(self.counters)
        c["spawns"] = sum(self.spawned.values())
        c["electors"] = self.spawned["choose_in_superposition"]
        c["contacts"] = sum(len(w.stats.detections) for w in self.worlds)
        c["collapses"] = sum(len(w.stats.reductions) for w in self.worlds)
        return c


class Tracer:
    """Spans at the layer boundaries, folded into totals as they close."""

    KEPT = (
        "kernel.run_instant",
        "world.run",
        "cli.run_scenario",
        "cli.run_world",
        "cli.frame_writer",
        "scenario.parse_scenario",
        "scenario.build_world",
        "scenario.start_sources",
        "render.paint",
        "render.to_ppm_bytes",
        "render.to_ascii",
        "stats.from_world",
        "stats.text",
        "stats.stats_csv",
    )

    def __init__(self, syncell):
        self.syncell = syncell
        # name -> parent name -> [count, total ns, self ns]
        self.agg: dict[str, dict[str, list[int]]] = {}
        # whole spans of the low-rate names: (name, start ns, end ns, parent)
        self.spans: list[tuple] = []
        self.behaviors: set[str] = set()
        self.root_ns = 0
        self._patches = Patches()
        self._build()

    # The span stack lives in preallocated arrays shared by closures, so that
    # opening and closing a span allocates no frame object of its own.
    def _build(self) -> None:
        agg = self.agg
        spans = self.spans
        behaviors = self.behaviors
        starts = [0] * MAX_DEPTH
        childs = [0] * MAX_DEPTH
        names = [ROOT] * MAX_DEPTH
        depth = 0

        def slot(name: str) -> dict:
            return agg.setdefault(name, {})

        def call_span(name: str, fn, keep: bool):
            by_parent = slot(name)

            def wrapper(*args, **kwargs):
                nonlocal depth
                d = depth + 1
                depth = d
                names[d] = name
                childs[d] = 0
                start = starts[d] = now_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = now_ns()
                    dur = end - start
                    self_ns = dur - childs[d]
                    depth = d - 1
                    childs[d - 1] += dur
                    parent = names[d - 1]
                    s = by_parent.get(parent)
                    if s is None:
                        s = by_parent[parent] = [0, 0, 0]
                    s[0] += 1
                    s[1] += dur
                    s[2] += self_ns
                    if keep:
                        spans.append((name, start, end, parent))

            return wrapper

        def behavior_span(name: str, gen):
            nonlocal depth
            by_parent = slot(name)
            send = gen.send
            value = None
            while True:
                d = depth + 1
                depth = d
                names[d] = name
                childs[d] = 0
                start = starts[d] = now_ns()
                try:
                    cmd = send(value)
                except StopIteration:
                    return
                finally:
                    dur = now_ns() - start
                    self_ns = dur - childs[d]
                    depth = d - 1
                    childs[d - 1] += dur
                    parent = names[d - 1]
                    s = by_parent.get(parent)
                    if s is None:
                        s = by_parent[parent] = [0, 0, 0]
                    s[0] += 1
                    s[1] += dur
                    s[2] += self_ns
                value = yield cmd

        def on_gc(phase, info):
            nonlocal depth
            if phase == "start":
                d = depth + 1
                depth = d
                names[d] = "runtime.gc"
                childs[d] = 0
                starts[d] = now_ns()
                return
            d = depth
            dur = now_ns() - starts[d]
            depth = d - 1
            childs[d - 1] += dur
            s = slot("runtime.gc").setdefault(names[d - 1], [0, 0, 0])
            s[0] += 1
            s[1] += dur
            s[2] += dur - childs[d]

        def traced_behavior(gen):
            code = getattr(gen, "gi_code", None)
            module = code.co_filename.rsplit("/", 1)[-1].removesuffix(".py") if code else "?"
            name = f"{module}.{getattr(gen, '__name__', '?')}"
            behaviors.add(name)
            proxy = behavior_span(name, gen)
            proxy.__name__ = gen.__name__
            return proxy

        def open_root():
            nonlocal depth
            depth = 0
            childs[0] = 0
            starts[0] = now_ns()

        def close_root():
            total = now_ns() - starts[0]
            self.root_ns = total
            slot(ROOT)[""] = [1, total, total - childs[0]]

        self._call_span = call_span
        self._traced_behavior = traced_behavior
        self._on_gc = on_gc
        self.open_root = open_root
        self.close_root = close_root

    def __enter__(self) -> "Tracer":
        sc = self.syncell
        keep = set(self.KEPT)

        def span(name):
            return lambda fn: self._call_span(name, fn, name in keep)

        wrap = self._patches.wrap
        Scheduler = sc.kernel.Scheduler
        wrap(Scheduler, "run_instant", span("kernel.run_instant"))
        wrap(Scheduler, "generate", span("kernel.generate"))
        wrap(Scheduler, "spawn", self._wrap_spawn)
        wrap(sc.world.World, "run", self._wrap_run)
        for method in ("paint", "to_ppm_bytes", "to_ascii"):
            wrap(sc.render.FrameBuffer, method, span(f"render.{method}"))
        for method in ("from_world", "text", "stats_csv"):
            wrap(sc.stats.RunReport, method, span(f"stats.{method}"))
        for owner in (sc, sc.cli):
            for layer, fn in (
                ("scenario", "parse_scenario"),
                ("scenario", "build_world"),
                ("scenario", "start_sources"),
                ("cli", "run_scenario"),
                ("cli", "run_world"),
            ):
                if fn in vars(owner):
                    wrap(owner, fn, span(f"{layer}.{fn}"))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        self._patches.close()

    @property
    def missing(self) -> list[str]:
        return self._patches.missing

    def _wrap_spawn(self, orig):
        span = self._call_span("kernel.spawn", orig, False)
        traced = self._traced_behavior

        def spawn(sched, gen, *args, **kwargs):
            return span(sched, traced(gen), *args, **kwargs)

        return spawn

    def _wrap_run(self, orig):
        span = self._call_span("world.run", orig, True)
        call_span = self._call_span

        def run(world, instants, on_instant=None, **kwargs):
            if on_instant is not None:
                on_instant = call_span("cli.frame_writer", on_instant, True)
            return span(world, instants, on_instant=on_instant, **kwargs)

        return run

    def totals(self) -> "SpanTotals":
        return SpanTotals(self.agg, sorted(self.behaviors), self.root_ns, list(self.missing))

    def dump(self) -> dict:
        """Everything recorded: the folded totals and the whole low-rate spans."""
        return {**self.totals().to_json(), "spans": [list(s) for s in self.spans]}


@dataclass
class SpanTotals:
    """The folded spans of one traced repeat, and what they add up to."""

    agg: dict  # name -> parent name -> [count, total ns, self ns]
    behaviors: list  # names of the behavior-resumption spans
    root_ns: int  # wall time of the repeat
    missing: list  # entry points that were not found, so not traced

    def to_json(self) -> dict:
        return {"agg": self.agg, "behaviors": self.behaviors,
                "root_ns": self.root_ns, "missing": self.missing}

    @classmethod
    def from_json(cls, d: dict) -> "SpanTotals":
        return cls(d["agg"], d["behaviors"], d["root_ns"], d["missing"])

    def count(self, name: str) -> int:
        return sum(s[0] for s in self.agg.get(name, {}).values())

    def total_ns(self, name: str) -> int:
        return sum(s[1] for s in self.agg.get(name, {}).values())

    def self_ns(self, name: str) -> int:
        return sum(s[2] for s in self.agg.get(name, {}).values())

    def layer_self_ns(self, layer: str) -> int:
        return sum(self.self_ns(n) for n in self.agg if n.split(".", 1)[0] == layer)

    def steps(self) -> int:
        """Behavior resumptions, which are the kernel's micro-steps."""
        return sum(self.count(n) for n in self.behaviors)
