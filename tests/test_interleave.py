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


def test_each_load_order_runs_in_a_fresh_child_process(tool, monkeypatch):
    # the child imports the tool by its module name, from the parent's sys.path
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setitem(sys.modules, "interleave", tool)
    for b_first in (False, True):
        a_ns, b_ns, mismatched = tool.run_order(SRC, SRC, "wavefront", b_first, instants=5)
        assert len(a_ns) == len(b_ns) == 5 and mismatched == 0
    assert not any(name.startswith("syncell_interleave_") for name in sys.modules)


def test_main_prints_the_summed_and_the_median_ratio(tool, monkeypatch, capsys):
    # one block per load order, A first, then B
    orders = []

    def run_order(a, b, workload, b_first):
        orders.append(b_first)
        return ([100, 300], [90, 300], 0) if b_first else ([100, 300], [110, 300], 1)

    monkeypatch.setattr(tool, "run_order", run_order)
    assert tool.main([SRC, SRC, "--workload", "wavefront"]) == 0
    assert orders == [False, True]
    assert capsys.readouterr().out.splitlines() == [
        "wavefront, A loaded first: 2 instants, A 0.000 s, B 0.000 s",
        "B/A summed 1.0250 (+2.50%), per-instant median 1.0500 (+5.00%)",
        "warning: 1 instants did different work on the two sides",
        "wavefront, B loaded first: 2 instants, A 0.000 s, B 0.000 s",
        "B/A summed 0.9750 (-2.50%), per-instant median 0.9500 (-5.00%)",
    ]
