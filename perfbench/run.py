"""Benchmark of the syncell engine: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py [--workload young200|wavefront|frames|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` and the scenario
read from ``scenarios/`` of the checkout that holds this file. Nothing is
installed and nothing under ``src/`` is edited: the instrumentation in
``instrument.py`` wraps the program's entry points at run time.

``--trace 0`` (the default) sets the world up ``SETUP_SAMPLES`` times, then
runs whole repeats of the workload for ``--seconds`` seconds (at least
``MIN_REPEATS``) and reports the end-to-end metrics, scaled to a reference
host speed measured by calibration chunks run alongside. ``--trace 1`` runs one
untraced and one traced repeat and reports the per-layer metrics, the
tracing overhead, and the share of the traced wall time no span accounts
for; the spans are written to ``.perfbench-out/``. Each set-up and each
repeat runs in a fresh child process. Every repeat's output is checked, and
its exact work counters must equal those of every other repeat, traced or
not. ``--workload all`` runs the workloads one after the other.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (repeats) and ``metrics``. The line before it,
``detail: {...}``, records the machine, the work counters, the tail
percentile and its sample count. The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from instrument import ROOT as ROOT_SPAN, Probe, SpanTotals, Tracer, calibration_chunk
from workloads import FILE_SEED, WORKLOADS, Workload, check, execute, scenario_text

REPO = Path(__file__).resolve().parents[1]
SCENARIO = REPO / "scenarios" / "young200.scn"
OUT_DIR = REPO / ".perfbench-out"

SETUP_SAMPLES = 7
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 150
# Timings are scaled to the host speed at which a calibration chunk takes
# this long: about its time on an idle host of the machine the benchmark
# was defined on (Intel Xeon, 2 vCPUs, CPython 3.11).
REFERENCE_CALIBRATION_NS = 3_500_000
SETUP_CALIBRATION_CHUNKS = 5
# candidates for the tail percentile, highest first
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)


def load_program():
    """Import ``syncell`` from this checkout's ``src/``, and nowhere else."""
    src = REPO / "src"
    sys.path.insert(0, str(src))
    try:
        import syncell
        import syncell.cli  # noqa: F401  (run_world lives there)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import syncell from {src}: {exc}")
    if not Path(syncell.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: syncell was imported from {syncell.__file__}, not {src}")
    return syncell


def read_scenario() -> str:
    try:
        return SCENARIO.read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"perfbench: cannot read the scenario: {exc}")


# -- one repeat ---------------------------------------------------------------


@dataclass
class Repeat:
    """One whole run of a workload, as its child process recorded it."""

    traced: bool
    failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    instant_ns: list = field(default_factory=list)
    run_ns: int = 0
    gc_ns: int = 0
    gc_gen2: int = 0
    frames: int = 0
    frame_bytes: int = 0
    cells: int = 0
    peak_rss_mb: float = 0.0
    calibration_ns: list = field(default_factory=list)
    totals: SpanTotals | None = None

    @property
    def instants_per_s(self) -> float:
        return self.counters.get("instants", 0) / (self.run_ns / 1e9) if self.run_ns else 0.0

    @property
    def slowdown(self) -> float:
        return slowdown(self.calibration_ns)

    def to_json(self) -> dict:
        d = asdict(self)
        d["totals"] = self.totals.to_json() if self.totals else None
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Repeat":
        totals = d.pop("totals")
        return cls(**d, totals=SpanTotals.from_json(totals) if totals else None)


def run_repeat(sc, wl: Workload, text: str, seed: int, traced: bool) -> Repeat:
    """One whole run of the workload in this process, with its output checked."""
    rep = Repeat(traced)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR)
    try:
        with Probe(sc, calibrate=not traced) as probe, \
                (Tracer(sc) if traced else nullcontext()) as tracer:
            if tracer is not None:
                tracer.open_root()
            report = execute(sc, wl, text, seed, work_dir)
            if tracer is not None:
                tracer.close_root()
        world = probe.worlds[-1]
        out = check(wl, report, world, seed, work_dir)
        rep.failures = out.failures
        rep.frames, rep.frame_bytes = out.frames, out.frame_bytes
        rep.cells = world.grid.width * world.grid.height
        rep.counters = probe.work_counters()
        rep.instant_ns = probe.instant_ns
        rep.run_ns = probe.run_ns
        rep.gc_ns, rep.gc_gen2 = probe.gc_ns, probe.gc_gen2
        rep.calibration_ns = probe.calibration_ns
        if tracer is not None:
            rep.totals = tracer.totals()
            path = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
            path.write_text(json.dumps(tracer.dump()))
    except Exception:
        rep.failures.append(traceback.format_exc())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    rep.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return rep


def setup_seconds(sc, wl: Workload, text: str, seed: int) -> dict:
    """Wall time of parse_scenario plus build_world, between calibrations."""
    source = scenario_text(wl, text)
    calibration = [calibration_chunk() for _ in range(SETUP_CALIBRATION_CHUNKS)]
    t0 = time.perf_counter()
    spec = sc.parse_scenario(source)
    sc.build_world(replace(spec, seed=FILE_SEED + seed))
    elapsed = time.perf_counter() - t0
    calibration += [calibration_chunk() for _ in range(SETUP_CALIBRATION_CHUNKS)]
    return {"setup_s": elapsed, "calibration_ns": calibration}


def slowdown(calibration_ns: list) -> float:
    """How many times slower than the reference speed the host ran."""
    if not calibration_ns:
        return 1.0
    return statistics.fmean(calibration_ns) / REFERENCE_CALIBRATION_NS


def child_main() -> int:
    """Run the job read from stdin in this fresh process; print its record."""
    job = json.loads(sys.stdin.read())
    sc = load_program()
    text = read_scenario()
    wl = Workload(**job["workload"])
    if job["kind"] == "setup":
        record = setup_seconds(sc, wl, text, job["seed"])
    else:
        record = run_repeat(sc, wl, text, job["seed"], job["traced"]).to_json()
    print(json.dumps(record))
    return 0


class ChildFailed(Exception):
    pass


def in_child(kind: str, wl: Workload, seed: int, traced: bool = False) -> dict:
    """Run one job in a fresh interpreter and return the record it printed.

    Every repeat starts from a fresh process, as ``syncell run`` does: in one
    long-lived process a second world builds into a heap the first one
    fragmented, and runs measurably slower.
    """
    job = {"kind": kind, "workload": asdict(wl), "seed": seed, "traced": traced}
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--child"], input=json.dumps(job),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{kind} of {wl.name} took longer than {CHILD_TIMEOUT_S} s")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"{kind} of {wl.name} exited {proc.returncode} without a record:\n"
                          + proc.stderr[-3000:])


def repeat_in_child(wl: Workload, seed: int, traced: bool) -> Repeat:
    try:
        return Repeat.from_json(in_child("repeat", wl, seed, traced))
    except ChildFailed as exc:
        return Repeat(traced, failures=[str(exc)])


def counter_mismatches(repeats: list[Repeat]) -> list[str]:
    """Every repeat must do exactly the work the first one did."""
    done = [r for r in repeats if r.counters]
    problems = []
    for i, r in enumerate(done[1:], start=1):
        if r.counters != done[0].counters:
            diff = {k: (done[0].counters.get(k), r.counters.get(k))
                    for k in sorted(set(r.counters) | set(done[0].counters))
                    if r.counters.get(k) != done[0].counters.get(k)}
            problems.append(f"work counters of repeat {i} differ from repeat 0: {diff}")
            r.failures.append(problems[-1])
    return problems


# -- metrics ------------------------------------------------------------------


def nearest_rank(sorted_values: list, pct: float):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least 10 of n samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50.0


def end_to_end(setup: list[dict], repeats: list[Repeat]) -> tuple[dict, dict]:
    """The end-to-end metrics, every timing scaled to the reference host speed.

    The host is shared, and its speed changes by up to half for minutes at a
    time. Calibration chunks run between the instants of each repeat (and
    around each set-up), and each timing is divided by the slowdown they
    measured over the same stretch of time. The raw figures are in the detail.
    """
    ok = [r for r in repeats if not r.failures] or repeats
    instants = sum(len(r.instant_ns) for r in ok)
    scaled_ns = sum(r.run_ns / r.slowdown for r in ok)
    scaled = sorted(ns / r.slowdown for r in ok for ns in r.instant_ns) or [0]
    pct = tail_percentile(min(len(r.instant_ns) for r in ok))
    setup_scaled = [d["setup_s"] / slowdown(d["calibration_ns"]) for d in setup] or [0.0]
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "instants_per_s": (instants / (scaled_ns / 1e9) if scaled_ns else 0.0, "1/s"),
        "instant_ms.p50": (nearest_rank(scaled, 50) / 1e6, "ms"),
        "instant_ms.tail": (nearest_rank(scaled, pct) / 1e6, "ms"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in ok), "MB"),
    }
    raw = sorted(ns for r in ok for ns in r.instant_ns) or [0]
    detail = {
        "tail_percentile": pct,
        "instant_samples": len(scaled),
        "slowdown_per_repeat": [r.slowdown for r in repeats],
        "calibrations_per_repeat": [len(r.calibration_ns) for r in repeats],
        "raw_instants_per_s": [r.instants_per_s for r in repeats],
        "raw_instant_ms.p50": nearest_rank(raw, 50) / 1e6,
        "raw_instant_ms.tail": nearest_rank(raw, pct) / 1e6,
        "raw_setup_s": [d["setup_s"] for d in setup],
        "setup_slowdown": [slowdown(d["calibration_ns"]) for d in setup],
        "gc_ms_per_repeat": [r.gc_ns / 1e6 for r in repeats],
    }
    return metrics, detail


def per_layer(untraced: Repeat, traced: Repeat) -> dict:
    t = traced.totals
    c = traced.counters
    instants = c["instants"]
    frames = traced.frames
    steps = t.steps()

    def per(x, n, scale=1.0):
        return x / n / scale if n else 0.0

    measure_self = t.layer_self_ns("measure")
    detector_self = t.self_ns("measure.detector_behavior")
    ips_u, ips_t = untraced.instants_per_s, traced.instants_per_s
    return {
        "kernel.steps": (steps, "count"),
        "kernel.generates": (c["generates"], "count"),
        "kernel.spawns": (c["spawns"], "count"),
        "kernel.self_ns_per_step": (per(t.layer_self_ns("kernel"), steps), "ns"),
        "kernel.ns_per_generate": (per(t.total_ns("kernel.generate"), c["generates"]), "ns"),
        "world.visible_cell_instants": (c["visible_cell_instants"], "count"),
        "world.cell_steps": (t.count("world.cell_behavior"), "count"),
        "world.self_ns_per_cell_instant": (
            per(t.self_ns("world.cell_behavior"), c["visible_cell_instants"]), "ns"),
        "measure.contacts": (c["contacts"], "count"),
        "measure.collapses": (c["collapses"], "count"),
        "measure.electors": (c["electors"], "count"),
        "measure.elector_useful_ratio": (per(c["collapses"], c["electors"]), "ratio"),
        "measure.self_us_per_collapse": (
            per(measure_self - detector_self, c["collapses"], 1e3), "us"),
        "measure.detector_us_per_instant": (per(detector_self, instants, 1e3), "us"),
        "particles.particle_instants": (c["particle_instants"], "count"),
        "particles.self_ns_per_particle_instant": (
            per(t.layer_self_ns("particles"), c["particle_instants"]), "ns"),
        "scenario.parse_ms": (t.total_ns("scenario.parse_scenario") / 1e6, "ms"),
        "scenario.build_ms": (t.total_ns("scenario.build_world") / 1e6, "ms"),
        "scenario.cells": (traced.cells, "count"),
        "render.paint_ms_per_frame": (per(t.total_ns("render.paint"), frames, 1e6), "ms"),
        "render.ppm_ms_per_frame": (per(t.total_ns("render.to_ppm_bytes"), frames, 1e6), "ms"),
        "render.ascii_ms_per_frame": (per(t.total_ns("render.to_ascii"), frames, 1e6), "ms"),
        "render.bytes_per_frame": (per(traced.frame_bytes, frames), "B"),
        "cli.self_ms_per_frame": (per(t.self_ns("cli.frame_writer"), frames, 1e6), "ms"),
        "stats.report_ms": (
            sum(t.total_ns(n) for n in ("stats.from_world", "stats.text", "stats.stats_csv")) / 1e6,
            "ms"),
        # from the untraced repeat: span bookkeeping allocates, which moves the collector
        "runtime.gc_ms_per_instant": (per(untraced.gc_ns, instants, 1e6), "ms"),
        "runtime.gc_gen2_collections": (untraced.gc_gen2, "count"),
        "trace.overhead_ips": (ips_u - ips_t, "1/s"),
        "trace.overhead_pct": (per(100 * (ips_u - ips_t), ips_u), "%"),
        "trace.unattributed_pct": (per(100 * t.self_ns(ROOT_SPAN), t.root_ns), "%"),
    }


def trace_checks(untraced: Repeat, traced: Repeat) -> list[str]:
    """The traced repeat did exactly the untraced one's work, as its spans saw it."""
    problems = counter_mismatches([untraced, traced])
    t, c = traced.totals, traced.counters
    if t is not None and c:
        for span, counter in (("kernel.generate", "generates"), ("kernel.spawn", "spawns")):
            if t.count(span) != c[counter]:
                problems.append(f"{span} spans {t.count(span)} != {counter} {c[counter]}")
        if t.missing:
            problems.append(f"entry points not found: {t.missing}")
    return problems


# -- sessions -----------------------------------------------------------------


@dataclass
class Result:
    repeats: list
    metrics: dict
    detail: dict
    problems: list

    @property
    def failed(self) -> int:
        return sum(1 for r in self.repeats if r.failures)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def timed_session(wl: Workload, seed: int, seconds: float,
                  setup_samples: int = SETUP_SAMPLES) -> Result:
    """Set-up samples, then repeats for ``seconds``; the end-to-end metrics."""
    problems: list[str] = []
    setup = []
    for _ in range(setup_samples):
        try:
            setup.append(in_child("setup", wl, seed))
        except ChildFailed as exc:
            problems.append(str(exc))
    repeats: list[Repeat] = []
    start = time.perf_counter()
    while True:
        repeats.append(repeat_in_child(wl, seed, traced=False))
        elapsed = time.perf_counter() - start
        if len(repeats) >= MIN_REPEATS and elapsed * (1 + 1 / len(repeats)) > seconds:
            break
    problems += counter_mismatches(repeats)
    metrics, detail = end_to_end(setup, repeats)
    return Result(repeats, metrics, detail, problems)


def traced_session(wl: Workload, seed: int) -> Result:
    """One untraced and one traced repeat; the per-layer metrics."""
    untraced = repeat_in_child(wl, seed, traced=False)
    traced = repeat_in_child(wl, seed, traced=True)
    repeats = [untraced, traced]
    problems = trace_checks(untraced, traced)
    metrics = per_layer(untraced, traced) if traced.totals and traced.counters else {}
    detail = {"instants_per_s_untraced": untraced.instants_per_s,
              "instants_per_s_traced": traced.instants_per_s,
              "trace_file": str((OUT_DIR / f"trace-{wl.name}-seed{seed}.json").relative_to(REPO))}
    return Result(repeats, metrics, detail, problems)


# -- machine record -------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": cpu_model(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "commit": git_commit(),
    }


# -- entry point ------------------------------------------------------------------


def emit(result: Result, workload: str, trace: int, record: dict) -> None:
    for name, (value, unit) in result.metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    attempted = len(result.repeats)
    print(f"{workload} failed_frac = {result.failed / attempted:.6g} "
          f"({result.failed} of {attempted} repeats)")
    for r in result.repeats:
        for f in r.failures:
            print(f"FAILED: {f}", file=sys.stderr)
    for p in result.problems:
        print(f"FAILED: {p}", file=sys.stderr)
    record.update(result.detail)
    record.update({
        "workload": workload,
        "trace": trace,
        "failed_frac": result.failed / attempted,
        "work_counters": [r.counters for r in result.repeats],
        "repeat_peak_rss_mb": [r.peak_rss_mb for r in result.repeats],
        "loadavg_end": os.getloadavg(),
    })
    print("detail: " + json.dumps(record))
    print(json.dumps({
        "correct": result.correct,
        "attempted": attempted,
        "failed": result.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result.metrics.items()},
    }))


def run_all(args) -> int:
    """Every workload, one after the other, each as its own benchmark run."""
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: workload {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        correct = correct and last["correct"] and proc.returncode == 0
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main()
    if args.workload == "all":
        return run_all(args)
    # Fail before any result is printed when the program is not there.
    load_program()
    read_scenario()
    record = machine(args.seed)
    wl = WORKLOADS[args.workload]
    if args.trace:
        result = traced_session(wl, args.seed)
    else:
        result = timed_session(wl, args.seed, args.seconds)
    emit(result, wl.name, args.trace, record)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
