"""Golden outputs of the shipped scenarios, pinned byte for byte.

Each pin is the SHA-256 of the text report, the counts CSV and the final
``(fx, fy, vx, vy, state)`` of every real particle, in birth order. A change
to the engine that claims to leave behavior untouched must leave every pin
as it is.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from syncell import build_world, load_scenario
from syncell.cli import run_world

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

GOLDEN = {
    ("single.scn", 7): "1b71312a1b30dbc93a09797e93744c8b99cfd57563696bdcaf572763ac8064ad",
    ("single.scn", 8): "371073950ee3e5da2de81349e68604d05d57f5ef21f4fe24300d81ef5cce201e",
    ("entangled.scn", 11): "6b9ec91bd596daa5f396cee4af77d6aac01650808c02278d5148dc58924f6501",
    ("entangled.scn", 12): "dfe2951f078fb7dc534ec13f1e661c2339a995457cda5fcbc53a19d5aadc9554",
}


def run_digest(name: str, seed: int) -> str:
    spec = load_scenario(SCENARIOS / name)
    world = build_world(replace(spec, seed=seed))
    report = run_world(world, spec.run_length)
    particles = "".join(
        f"{p.fx!r},{p.fy!r},{p.vx!r},{p.vy!r},{p.state}\n" for p in world.particles
    )
    blob = "\n".join([report.text(), report.stats_csv(), particles])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_shipped_scenario_output_is_pinned(name, seed):
    assert run_digest(name, seed) == GOLDEN[(name, seed)]
