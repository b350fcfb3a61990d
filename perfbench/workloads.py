"""The three workloads, one repeat of each, and the checks on their output.

All three are generated from the shipped ``scenarios/young200.scn``. The
benchmark seed ``s`` becomes the scenario seed ``FILE_SEED + s``, so seed 0
is the file's own seed, the one the byte-exact digests are pinned at.
Everything else a check compares does not depend on the seed.

The expected digests were taken from the program as it stands when the
benchmark was defined; an optimisation must leave them unchanged.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace

FILE_SEED = 20260808  # [run] seed= of scenarios/young200.scn

# Report lines are `key=value`; these are the keys the report prints today.
# Lines with other keys are dropped before hashing, so a report that gains
# lines still passes as long as every line it printed before is unchanged.
REPORT_KEYS = (
    "scenario_digest", "seed", "instants", "base", "detections_total",
    "unresolved", "ctx_collisions", "detector", "counts", "total",
    "superposition_sizes",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def census_digest(world) -> str:
    """Every contact as (instant, detector, size, state counts), in order."""
    lines = [
        f"{d.instant},{d.detector},{d.size},{':'.join(map(str, d.state_counts))}"
        for d in world.stats.detections
    ]
    return sha256("\n".join(lines).encode())


def report_digest(text: str) -> str:
    kept = [
        line for line in text.splitlines()
        if line.strip().split("=", 1)[0] in REPORT_KEYS
    ]
    return sha256("\n".join(kept).encode())


def snapshot_digest(world) -> str:
    return sha256("\n".join(f"{x},{y},{s}" for x, y, s in world.snapshot()).encode())


def frames_digest(frames_dir: str, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        with open(os.path.join(frames_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def without_detectors(text: str) -> str:
    """The scenario text with every [detector] section removed."""
    out = []
    skipping = False
    for line in text.splitlines():
        head = line.split("#", 1)[0].strip()
        if head.startswith("["):
            skipping = head == "[detector]"
        if not skipping:
            out.append(line)
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Workload:
    """One workload: how many instants, and what its output must be.

    ``instants`` None means the scenario file's own budget. ``expect`` holds
    the seed-independent expectations; ``expect_at_file_seed`` the byte-exact
    digests checked only when the scenario seed is ``FILE_SEED``.
    """

    name: str
    why: str
    instants: int | None
    expect: dict = field(default_factory=dict)
    expect_at_file_seed: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What the checks found, and the frame files they counted."""

    frames: int = 0
    frame_bytes: int = 0
    failures: list = field(default_factory=list)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "young200",
            "the shipped double-slit run, 8,200 instants and 1,000 collapses via "
            "run_scenario: the only workload where measure and particles do most of the work",
            None,
            expect={
                "detections_total": 1000,
                "unresolved": 0,
                "ctx_collisions": 0,
                "census": "ae32659430bf013dd58053ba060c4289b9055f62ce4973ee9c7b6769ec4ecd86",
            },
            expect_at_file_seed={
                "report": "fd6cc600853a3b2efbd94c04e598534bb7c777939e9a3fadbd54584c2e5fc4ca",
                "csv": "a79bae1463a2e76911ae328b0968d09c3d458ee6051c5ffb0a0adf506826726c",
            },
        ),
        Workload(
            "wavefront",
            "young200 without its detector for 400 instants: dense kernel and cell cycle "
            "(~6.7k visible cells), no measure or particles work, GC-heavy",
            400,
            expect={
                "ctx_collisions": 0,
                "snapshot": "6b4047fac26d295d85abae66ba4118baa3dbdb5e86e2c196f196f5c2b0f5c144",
            },
        ),
        Workload(
            "frames",
            "the first 300 young200 instants via run_world writing PPM+ASCII frames with "
            "remanence: the only workload where render and the cli frame writer work",
            300,
            expect={
                "census": "3524eff740fff0daf27e1b53afcab699bde9dec225b0cf9d654c69d6d20b84fc",
            },
            expect_at_file_seed={
                "frames": "a152ba62169dbfda6ad7cb8ad095e1c8212ea5ed698aee8b7bf5cf4926f9b79d",
            },
        ),
    )
}


def execute(sc, wl: Workload, text: str, seed: int, work_dir: str):
    """Run one repeat of a workload through the public API; return its report.

    ``sc`` is the ``syncell`` package; names are looked up on it at call time
    so that instrumentation installed on the package is seen. Frames, if the
    workload writes any, go to ``work_dir/frames``.
    """
    scenario_seed = FILE_SEED + seed
    if wl.name == "young200":
        spec = sc.parse_scenario(text)
        report = sc.run_scenario(spec, instants=wl.instants, seed=scenario_seed)
    else:
        frames = wl.name == "frames"
        spec = sc.parse_scenario(scenario_text(wl, text))
        world = sc.build_world(replace(spec, seed=scenario_seed))
        report = sc.cli.run_world(
            world, wl.instants, frames_dir=os.path.join(work_dir, "frames") if frames else None,
            remanence=frames, ascii_frames=frames,
        )
    # rendered as `syncell run` renders them, so the report is part of the repeat
    report.text()
    report.stats_csv()
    return report


def scenario_text(wl: Workload, text: str) -> str:
    return without_detectors(text) if wl.name == "wavefront" else text


def check(wl: Workload, report, world, seed: int, work_dir: str) -> Outcome:
    """Check one repeat's output; the outcome lists every way it is wrong."""
    out = Outcome()
    frames_dir = os.path.join(work_dir, "frames")
    names = sorted(os.listdir(frames_dir)) if os.path.isdir(frames_dir) else []
    if wl.name == "frames":
        wanted = sorted(f"frame_{i:06d}.{ext}" for i in range(wl.instants) for ext in ("ppm", "txt"))
        if names != wanted:
            out.failures.append(
                f"{len(names)} frame files, expected a .ppm and a .txt per instant ({len(wanted)})")
        out.frames = len(names) // 2
        out.frame_bytes = sum(os.path.getsize(os.path.join(frames_dir, n)) for n in names)
    measured = {
        "detections_total": lambda: report.detections_total,
        "unresolved": lambda: report.unresolved,
        "ctx_collisions": lambda: report.ctx_collisions,
        "census": lambda: census_digest(world),
        "report": lambda: report_digest(report.text()),
        "csv": lambda: sha256(report.stats_csv().encode()),
        "snapshot": lambda: snapshot_digest(world),
        "frames": lambda: frames_digest(frames_dir, names),
    }
    expect = dict(wl.expect)
    if seed == 0:
        expect.update(wl.expect_at_file_seed)
    for key, want in expect.items():
        got = measured[key]()
        if got != want:
            out.failures.append(f"{key} is {got}, expected {want}")
    return out
