"""Interleaved A/B timer: what one source tree's instants cost against another's.

    python3 tools/interleave.py A/src/syncell B/src/syncell --workload young200|wavefront|entangled

Each tree is loaded under its own package name, so both live in one process.
The workload's world is built once in each: perfbench's ``young200`` or
``wavefront`` at the scenario file's seed, or ``entangled``, the shipped
``scenarios/entangled.scn`` at its own seed for its 5,200 instants, the only
shipped world whose two contexts share a measurement event. The two worlds'
instants run one after the other with the cyclic collector paused, swapping
which side goes first on every instant. A drift in the host's speed then hits
both sides alike, which resolves differences of about 1% that separate
benchmark runs cannot.

Which tree is loaded and built first still biases the ratio by about 0.5% to
1%: on a shared 2-vCPU Xeon, A/A per-instant medians read 0.995 to 1.011
under CPython 3.11 (1.015 once under 3.10). So the tool runs both load
orders, A first and then B first, each in a fresh ``spawn`` child process,
one after the other. For each order it prints B's summed time over A's and
the median of the per-instant ratios; above 1 means B is slower. It also
counts the instants whose work counters (alive, generated, micro-steps)
differ between the sides. The summed ratio, which a few slow instants
dominate, read 1.03 to 1.05 in the same A/A runs, so the medians resolve
smaller differences.

Each ratio follows one perfbench metric: the summed ratio follows
``instants_per_s`` (instants over total time), and the per-instant median
follows ``instant_ms.p50``. The two part when a change speeds the long
instants more than the typical one: on ``wavefront``, a kernel change that
stopped allocating at every suspension read a summed ratio of about 0.77
and a median of about 0.82 to 0.84. Judge a claim by the ratio that follows
the claimed metric.

Only ``run_instant`` is timed: the set-up and the ``frames`` workload's
rendering and frame writing are not covered.

This is a development aid, not part of perfbench; it imports perfbench's
workload table and reads the scenario files of this checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_context

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "perfbench"))

from workloads import FILE_SEED, WORKLOADS, scenario_text  # noqa: E402

TIMED = ("young200", "wavefront", "entangled")


def load_tree(package_dir: str, name: str):
    """Import the package in ``package_dir`` (a ``src/syncell``) as ``name``."""
    init = os.path.join(package_dir, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"interleave: {package_dir} holds no __init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[package_dir]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def scenario_file(name: str) -> str:
    with open(os.path.join(REPO, "scenarios", f"{name}.scn"), encoding="utf-8") as fh:
        return fh.read()


def build(package, workload: str):
    """The workload's world in ``package``, and the instants it runs."""
    if workload == "entangled":  # the shipped file as it is, at its own seed
        spec = package.parse_scenario(scenario_file("entangled"))
        return package.build_world(spec), spec.run_length
    wl = WORKLOADS[workload]
    spec = package.parse_scenario(scenario_text(wl, scenario_file("young200")))
    world = package.build_world(replace(spec, seed=FILE_SEED))
    return world, spec.run_length if wl.instants is None else wl.instants


def interleave(tree_a: str, tree_b: str, workload: str, instants: int | None = None):
    """Run ``workload`` in both trees, instant by instant, alternating the order,
    for ``instants`` or the workload's own count: A's and B's per-instant times
    in ns, and the count of instants whose work counters differ between them."""
    world_a, budget = build(load_tree(tree_a, "syncell_interleave_a"), workload)
    world_b, _ = build(load_tree(tree_b, "syncell_interleave_b"), workload)
    if instants is not None:
        budget = instants
    sides = [(world_a.sched.run_instant, []), (world_b.sched.run_instant, [])]
    mismatched = 0
    clock = time.perf_counter_ns
    collecting = gc.isenabled()
    gc.disable()
    try:
        for i in range(budget):
            order = sides if i % 2 == 0 else sides[::-1]
            reports = []
            for run_instant, times in order:
                t0 = clock()
                report = run_instant()
                times.append(clock() - t0)
                reports.append((report.alive, report.generated, report.steps))
            mismatched += reports[0] != reports[1]
    finally:
        if collecting:
            gc.enable()
    return sides[0][1], sides[1][1], mismatched


def run_order(tree_a: str, tree_b: str, workload: str, b_first: bool, instants: int | None = None):
    """``interleave`` in one load order, B's tree loaded and built first if
    ``b_first``, in a fresh ``spawn`` child process: no order inherits the
    other's modules or heap. A's and B's times and the mismatch count."""
    first, second = (tree_b, tree_a) if b_first else (tree_a, tree_b)
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        first_ns, second_ns, mismatched = pool.submit(
            interleave, first, second, workload, instants
        ).result()
    return (second_ns, first_ns, mismatched) if b_first else (first_ns, second_ns, mismatched)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="interleave", description=__doc__.split("\n")[0])
    parser.add_argument("tree_a", help="the baseline package directory, a src/syncell")
    parser.add_argument("tree_b", help="the package directory timed against it")
    parser.add_argument("--workload", choices=TIMED, required=True)
    args = parser.parse_args(argv)
    for b_first in (False, True):
        a_ns, b_ns, mismatched = run_order(args.tree_a, args.tree_b, args.workload, b_first)
        summed = sum(b_ns) / sum(a_ns)
        median = statistics.median(b / a for a, b in zip(a_ns, b_ns))
        print(f"{args.workload}, {'B' if b_first else 'A'} loaded first: {len(a_ns)} instants, "
              f"A {sum(a_ns) / 1e9:.3f} s, B {sum(b_ns) / 1e9:.3f} s")
        print(f"B/A summed {summed:.4f} ({summed - 1:+.2%}), "
              f"per-instant median {median:.4f} ({median - 1:+.2%})")
        if mismatched:
            print(f"warning: {mismatched} instants did different work on the two sides")
    return 0


if __name__ == "__main__":
    sys.exit(main())
