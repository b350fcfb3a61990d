"""Smoke test of ``tools/interleave.py``, the interleaved A/B instant timer."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src" / "syncell")


@pytest.fixture
def tool():
    """The tool, loaded from its file; the perfbench path it adds and the
    modules it loads from there and from the two trees go after the test."""
    path, modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("interleave", ROOT / "tools" / "interleave.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    yield tool
    sys.path[:] = path
    for name in set(sys.modules) - modules:
        if name == "workloads" or name.startswith("syncell_interleave_"):
            del sys.modules[name]


def test_an_a_a_run_times_two_separate_copies_that_do_the_same_work(tool):
    a_ns, b_ns, mismatched = tool.interleave(SRC, SRC, "wavefront", instants=30)
    assert len(a_ns) == len(b_ns) == 30 and mismatched == 0
    assert min(a_ns) > 0 and min(b_ns) > 0
    a, b = sys.modules["syncell_interleave_a"], sys.modules["syncell_interleave_b"]
    assert a.kernel.Event is not b.kernel.Event  # each tree under its own name


def test_the_entangled_workload_is_the_shipped_file_at_its_own_seed_and_length(tool):
    world, instants = tool.build(tool.load_tree(SRC, "syncell_interleave_a"), "entangled")
    assert (world.seed, instants, world.grid.width, world.grid.height) == (11, 5200, 61, 81)
    # the first two shots' twin contexts, each pair on one measurement event,
    # collapse inside these instants, and both sides do the same work
    a_ns, b_ns, mismatched = tool.interleave(SRC, SRC, "entangled", instants=120)
    assert len(a_ns) == len(b_ns) == 120 and mismatched == 0


def test_main_prints_the_summed_and_the_median_ratio(tool, monkeypatch, capsys):
    times = ([100, 300], [110, 300], 1)
    monkeypatch.setattr(tool, "interleave", lambda a, b, workload: times)
    assert tool.main([SRC, SRC, "--workload", "wavefront"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "wavefront: 2 instants, A 0.000 s, B 0.000 s",
        "B/A summed 1.0250 (+2.50%), per-instant median 1.0500 (+5.00%)",
        "warning: 1 instants did different work on the two sides",
    ]
