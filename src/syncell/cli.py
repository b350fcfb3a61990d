"""Command-line front end: argument parsing, ``main`` and ``compare``. The
drivers it calls live in ``syncell.scenario``; ``import syncell`` skips this."""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, as_completed, wait
from dataclasses import replace

from .kernel import DivergenceError
from .scenario import (
    ScenarioError,
    ScenarioSpec,
    load_scenario,
    parse_scenario,
    read_scenario,
    run_scenario,
    run_world,  # noqa: F401  (perfbench looks it up on this module)
)
from .stats import FrequencyRow, frequency_csv, frequency_text


# -- compare ------------------------------------------------------------------


def _slit_variant(spec: ScenarioSpec, closed_indices: set[int]) -> ScenarioSpec:
    slits = [
        replace(s, open=False) if i in closed_indices else s
        for i, s in enumerate(spec.slits)
    ]
    return replace(spec, slits=slits)


def _variant_counts(args) -> list[list[int]]:
    text, closed, seed, instants = args
    spec = _slit_variant(parse_scenario(text), closed)
    return run_scenario(spec, instants=instants, seed=seed).detector_counts


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes for ``tasks`` tasks: at most ``jobs``, ``tasks`` and
    the CPU count. A pool starts all of its workers up front."""
    return min(jobs, tasks, os.cpu_count() or 1)


def _completed_counts(tasks, workers: int):
    """Yield ``(tag, _variant_counts(args))`` for each ``(tag, args)`` task as
    it finishes. With a pool, at most two tasks per worker are in flight, so
    memory does not grow with the number of tasks."""
    if workers <= 1:
        for tag, args in tasks:
            yield tag, _variant_counts(args)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = {}
        for tag, args in tasks:
            if len(pending) == 2 * workers:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield pending.pop(future), future.result()
            pending[pool.submit(_variant_counts, args)] = tag
        for future in as_completed(pending):
            yield pending[future], future.result()


def compare_slits(
    text: str,
    close_index: int | None = None,
    seed: int = 0,
    instants: int | None = None,
    runs: int = 1,
    jobs: int = 1,
):
    """Run the scenario with all slits open and with one slit closed.

    Returns frequency rows labelled by the number of open slits. ``runs``
    independent repetitions per variant (seeds seed, seed+1, ...) are merged
    by summing counts; with jobs > 1 the repetitions execute on worker
    processes.
    """
    spec = parse_scenario(text)
    open_slits = [i for i, s in enumerate(spec.slits) if s.open]
    if not open_slits:
        raise ScenarioError("compare needs at least one open slit")
    if close_index is None:
        close_index = open_slits[-1]
    elif close_index not in open_slits:
        raise ScenarioError(f"slit {close_index} is not an open slit of this scenario")

    variants = [
        (f"{len(open_slits) - 1} slit" + ("s" if len(open_slits) - 1 != 1 else ""),
         {close_index}),
        (f"{len(open_slits)} slits", set()),
    ]
    tasks = (
        (vi, (text, closed, seed + r, instants))
        for vi, (_, closed) in enumerate(variants)
        for r in range(runs)
    )
    sums = [[0] * spec.base for _ in variants]
    for vi, counts in _completed_counts(tasks, worker_count(jobs, 2 * runs)):
        sums[vi] = [sum(column) for column in zip(sums[vi], *counts)]

    return [
        FrequencyRow.from_counts(label, [sums[vi]], spec.base)
        for vi, (label, _) in enumerate(variants)
    ]


# -- entry point ----------------------------------------------------------------

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_DIVERGENCE = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="syncell",
        description="Synchronous cellular world with broadcast measurement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", required=True, help="scenario file")
    p_run.add_argument("--instants", type=int, default=None, help="override [run] instants")
    p_run.add_argument("--seed", type=int, default=None, help="override [run] seed")
    p_run.add_argument("--frames", default=None, metavar="DIR", help="write a frame per instant")
    p_run.add_argument("--remanence", action="store_true", help="accumulate traces in frames")
    p_run.add_argument("--ascii", action="store_true", help="also write ASCII frames")
    p_run.add_argument("--stats", default=None, metavar="FILE", help="write the counts CSV")
    p_run.add_argument("--report", default=None, metavar="FILE", help="write the text report (default: stdout)")

    p_cmp = sub.add_parser("compare", help="compare all-slits-open against one slit closed")
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--instants", type=int, default=None)
    p_cmp.add_argument("--close", type=int, default=None, help="index of the slit to close")
    p_cmp.add_argument("--runs", type=int, default=1, help="independent repetitions per variant")
    p_cmp.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_cmp.add_argument("--out", default=None, metavar="FILE", help="write the CSV table")

    args = parser.parse_args(argv)
    # usage errors name the subcommand's usage; all are checked before any instant runs
    usage = p_run if args.command == "run" else p_cmp
    if args.instants is not None and args.instants < 0:
        usage.error(f"--instants must be at least 0, got {args.instants}")
    if args.command == "compare" and args.runs < 1:
        usage.error(f"--runs must be at least 1, got {args.runs}")
    if args.command == "compare" and args.jobs < 1:
        usage.error(f"--jobs must be at least 1, got {args.jobs}")
    if args.command == "run" and args.frames is None and (args.ascii or args.remanence):
        usage.error("--ascii and --remanence only shape frames: they need --frames DIR")
    frames = getattr(args, "frames", None)
    if frames == "":
        usage.error("--frames needs a directory, got an empty path")
    existing = frames  # its nearest existing ancestor must be a directory
    while existing and not os.path.lexists(existing):  # a dangling link exists
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        under = "" if existing == frames else f"{existing} is "
        usage.error(f"--frames {frames}: {under}an existing file, not a directory")
    for option in ("stats", "report", "out"):
        path = getattr(args, option, None)
        if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            usage.error(f"--{option} {path}: not a file path in an existing directory")
    try:
        if args.command == "run":
            spec = load_scenario(args.scenario)
            report = run_scenario(
                spec,
                instants=args.instants,
                seed=args.seed,
                frames_dir=args.frames,
                remanence=args.remanence,
                ascii_frames=args.ascii,
            )
            if args.stats:
                with open(args.stats, "w", encoding="ascii") as fh:
                    fh.write(report.stats_csv())
            text = report.text()
            if args.report:
                with open(args.report, "w", encoding="ascii") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        else:
            rows = compare_slits(
                read_scenario(args.scenario),
                close_index=args.close,
                seed=args.seed,
                instants=args.instants,
                runs=args.runs,
                jobs=args.jobs,
            )
            csv = frequency_csv(rows)
            if args.out:
                with open(args.out, "w", encoding="ascii") as fh:
                    fh.write(csv)
            sys.stdout.write(frequency_text(rows))
    except (ScenarioError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
