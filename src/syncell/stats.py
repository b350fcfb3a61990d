"""Detection bookkeeping, run reports, and frequency tables."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


@dataclass
class DetectionRecord:
    """One detector contact with a superposition, which the contact measures.

    ``state_counts`` is the per-basic-state census of every cell of the
    contacted superposition at the contact instant (the whole superposition,
    not only the zone slice). Its outcome is the state of the reduction with
    its ``ctx_serial``, which an unresolved measurement lacks. The record
    keeps the context's serial, never the context.
    """

    instant: int
    detector: int
    ctx_serial: int
    state_counts: tuple[int, ...]

    @property
    def size(self) -> int:
        """How many cells the contacted superposition had."""
        return sum(self.state_counts)


@dataclass
class ReductionRecord:
    instant: int
    ctx_serial: int
    cell_id: int
    state: int


@dataclass
class RunStats:
    """The run's records, in the order they happen: ``detector_behavior``
    appends every contact, ``reduce`` every context's collapse outcome."""

    detections: list[DetectionRecord] = field(default_factory=list)
    reductions: list[ReductionRecord] = field(default_factory=list)


@dataclass
class RunReport:
    """Summary of one executed run; all fields render deterministically."""

    seed: int
    instants: int
    base: int
    scenario_digest: str
    detector_counts: list[list[int]]  # per detector, per basic state
    detector_sizes: list[list[int]]  # superposition sizes per detection
    detections_total: int
    unresolved: int
    ctx_collisions: int

    @classmethod
    def from_world(cls, world, instants: int) -> "RunReport":
        base = world.base
        n_det = len(world.detectors)
        counts = [[0] * base for _ in range(n_det)]
        sizes: list[list[int]] = [[] for _ in range(n_det)]
        outcomes = {r.ctx_serial: r.state for r in world.stats.reductions}
        detections = world.stats.detections
        for det in detections:
            sizes[det.detector].append(det.size)
            if det.ctx_serial in outcomes:
                counts[det.detector][outcomes[det.ctx_serial]] += 1
        total = sum(map(sum, counts))
        return cls(
            seed=world.seed,
            instants=instants,
            base=base,
            scenario_digest=world.scenario_digest,
            detector_counts=counts,
            detector_sizes=sizes,
            detections_total=total,
            unresolved=len(detections) - total,
            ctx_collisions=world.ctx_collisions,
        )

    def stats_csv(self) -> str:
        cols = ",".join(f"state{s}" for s in range(self.base))
        lines = [f"detector,{cols},total"]
        for i, row in enumerate(self.detector_counts):
            lines.append(f"{i}," + ",".join(str(n) for n in row) + f",{sum(row)}")
        return "\n".join(lines) + "\n"

    def text(self) -> str:
        lines = [
            f"scenario_digest={self.scenario_digest}",
            f"seed={self.seed}",
            f"instants={self.instants}",
            f"base={self.base}",
            f"detections_total={self.detections_total}",
            f"unresolved={self.unresolved}",
            f"ctx_collisions={self.ctx_collisions}",
        ]
        for i, row in enumerate(self.detector_counts):
            lines.append(f"detector={i}")
            lines.append("  counts=" + ",".join(str(n) for n in row))
            lines.append(f"  total={sum(row)}")
            sizes = self.detector_sizes[i]
            if sizes:
                mean = sum(sizes) / len(sizes)
                lines.append(
                    f"  superposition_sizes=min:{min(sizes)},max:{max(sizes)},"
                    f"mean:{mean:.3f}"
                )
            else:
                lines.append("  superposition_sizes=none")
        return "\n".join(lines) + "\n"


@dataclass
class FrequencyRow:
    label: str
    fractions: list[float]
    total: int

    @classmethod
    def from_counts(cls, label: str, count_rows, base: int) -> "FrequencyRow":
        """Per-state fractions of the counts summed over ``count_rows``; no
        counts at all give a row of zeros."""
        totals = [0] * base
        for row in count_rows:
            for s, n in enumerate(row):
                totals[s] += n
        grand = sum(totals)
        return cls(label, [n / grand for n in totals] if grand else [0.0] * base, grand)

    @property
    def empty(self) -> bool:
        return self.total == 0


def frequency_csv(rows: list[FrequencyRow]) -> str:
    base = len(rows[0].fractions) if rows else 0
    cols = ",".join(f"state{s}" for s in range(base))
    lines = [f"variant,{cols},total"]
    for row in rows:
        label = row.label + (" (no detections)" if row.empty else "")
        lines.append(
            label + "," + ",".join(f"{f:.6f}" for f in row.fractions) + f",{row.total}"
        )
    return "\n".join(lines) + "\n"


def frequency_text(rows: list[FrequencyRow]) -> str:
    lines = []
    for row in rows:
        cells = " ".join(f"{f:.3f}" for f in row.fractions)
        note = "  (no detections)" if row.empty else ""
        lines.append(f"{row.label:>10}  {cells}{note}")
    return "\n".join(lines) + "\n"


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
