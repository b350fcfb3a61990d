"""Command-line surface: run, compare, exit codes, file outputs."""

import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import syncell.cli as cli
from syncell.cli import (
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_SCENARIO,
    compare_slits,
    main,
    worker_count,
)
from syncell.stats import frequency_csv, frequency_text

ROOT = Path(__file__).resolve().parents[1]

SMALL = """\
[grid]
width=31
height=31

[source]
x=15
y=27
state=0
period=30
shots=2

[detector]
x0=1
y0=17
x1=29
y1=17
kind=up

[run]
instants=90
seed=13
"""

TWO_SLIT = """\
[grid]
width=41
height=41

[wall]
x0=1
y0=25
x1=39
y1=25

[slit]
wall=0
x0=17
x1=17
open=true

[slit]
wall=0
x0=24
x1=24
open=true

[source]
x=20
y=35
state=0
period=8
shots=40

[detector]
x0=1
y0=12
x1=39
y1=12
kind=up

[run]
instants=420
seed=5
"""


@pytest.fixture
def small_file(tmp_path):
    path = tmp_path / "small.scn"
    path.write_text(SMALL)
    return str(path)


def test_run_writes_stats_and_report(small_file, tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    code = main(["run", "--scenario", small_file, "--stats", str(stats)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "detections_total=2" in out
    assert stats.read_text().startswith("detector,state0")


def test_run_twice_same_seed_is_byte_identical(small_file, tmp_path):
    outputs = []
    for name in ("a", "b"):
        stats = tmp_path / f"{name}.csv"
        report = tmp_path / f"{name}.txt"
        frames = tmp_path / f"frames_{name}"
        code = main(
            [
                "run",
                "--scenario",
                small_file,
                "--stats",
                str(stats),
                "--report",
                str(report),
                "--frames",
                str(frames),
                "--ascii",
            ]
        )
        assert code == EXIT_OK
        frame_files = sorted(os.listdir(frames))
        blob = stats.read_bytes() + report.read_bytes()
        for f in frame_files:
            blob += (frames / f).read_bytes()
        outputs.append((frame_files, blob))
    assert outputs[0] == outputs[1]


def test_seed_override_changes_outcomes_not_arrivals(small_file, tmp_path):
    reports = []
    for seed in ("1", "2"):
        report = tmp_path / f"r{seed}.txt"
        main(["run", "--scenario", small_file, "--seed", seed, "--report", str(report)])
        reports.append(report.read_text())
    # same arrivals and sizes, independent outcomes
    for text in reports:
        assert "superposition_sizes=min:19,max:19,mean:19.000" in text
        assert "detections_total=2" in text


def test_zero_instants_gives_an_empty_report(small_file, capsys):
    code = main(["run", "--scenario", small_file, "--instants", "0"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "instants=0" in out and "detections_total=0" in out


def test_missing_file_and_parse_error_exit_2(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.scn")]) == EXIT_SCENARIO
    bad = tmp_path / "bad.scn"
    bad.write_text("[grid]\nwidth=oops\nheight=5\n")
    assert main(["run", "--scenario", str(bad)]) == EXIT_SCENARIO
    err = capsys.readouterr().err
    assert "scenario error" in err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_an_undecodable_file_exits_2_naming_its_line(tmp_path, command):
    scn = tmp_path / "latin1.scn"
    scn.write_bytes(b"[grid]\nwidth=9\xff\nheight=9\n")
    done = python("-m", "syncell.cli", command, "--scenario", str(scn))
    assert done.returncode == EXIT_SCENARIO
    assert done.stderr == "scenario error: line 2: byte 0xff is not UTF-8\n"


def test_many_full_grid_walls_exit_2_in_bounded_time(tmp_path, capsys):
    # 103 full 198x198 interiors cross 4 x MAX_CELLS cells: the build stops
    # at wall #102 instead of visiting all 2,000
    path = tmp_path / "walls.scn"
    path.write_text(
        "[grid]\nwidth=200\nheight=200\n" + "[wall]\nx0=1\ny0=1\nx1=198\ny1=198\n" * 2_000
    )
    start = time.perf_counter()
    assert main(["run", "--scenario", str(path)]) == EXIT_SCENARIO
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert "wall #102 (line 514): walls, open slits and detectors cover more than" in err
    assert elapsed < 5, elapsed  # about 0.8 s on a 2-vCPU host


def test_divergent_behavior_exits_3(tmp_path, capsys, monkeypatch):
    # rig a world whose first instant spins forever
    import syncell.scenario as scenario_mod
    from syncell.kernel import Await, Event

    real_build = scenario_mod.build_world

    def sabotaged(spec):
        world = real_build(spec)
        world.sched.microstep_budget = 500
        e = Event()

        def spinner():
            while True:
                world.sched.generate(e, 0)
                yield Await(e)

        world.sched.spawn(spinner())
        return world

    monkeypatch.setattr(scenario_mod, "build_world", sabotaged)
    scn = tmp_path / "s.scn"
    scn.write_text(SMALL)
    assert main(["run", "--scenario", str(scn)]) == EXIT_DIVERGENCE
    assert "divergence" in capsys.readouterr().err


def test_compare_emits_both_variants(tmp_path, capsys):
    scn = tmp_path / "two.scn"
    scn.write_text(TWO_SLIT)
    out = tmp_path / "table.csv"
    code = main(["compare", "--scenario", str(scn), "--out", str(out)])
    assert code == EXIT_OK
    table = out.read_text().splitlines()
    assert table[0] == "variant,state0,state1,state2,state3,state4,state5,total"
    assert table[1].startswith("1 slit,")
    assert table[2].startswith("2 slits,")
    assert table[1].endswith(",40") and table[2].endswith(",40")
    shown = capsys.readouterr().out
    assert "1 slit" in shown and "2 slits" in shown


def test_compare_merges_runs_and_matches_parallel_execution():
    seq = compare_slits(TWO_SLIT, seed=3, runs=2, jobs=1)
    par = compare_slits(TWO_SLIT, seed=3, runs=2, jobs=2)
    assert [(r.label, r.fractions, r.total) for r in seq] == [
        (r.label, r.fractions, r.total) for r in par
    ]
    assert all(r.total == 80 for r in seq)
    # more repetitions than a two-worker pool keeps in flight
    assert compare_slits(TWO_SLIT, seed=3, runs=5, jobs=2) == compare_slits(
        TWO_SLIT, seed=3, runs=5, jobs=1
    )


def test_compare_output_is_pinned():
    rows = compare_slits(TWO_SLIT, seed=3, runs=2) + compare_slits(TWO_SLIT, instants=5)
    blob = frequency_csv(rows) + frequency_text(rows)
    assert rows[2].empty and rows[3].empty
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "c5706fdcc0aafd5466560683362e1d47c80c8a5ce18e93f1b88cde898118a710"
    )


def test_compare_runs_are_summed_as_they_finish_in_bounded_memory(monkeypatch):
    def counts(args):  # two detectors; the closed-slit variant sees less
        text, closed, seed, instants = args
        return [[1, 0, 0, 0, 0, 0], [0, 0, 2 if closed else 3, 0, 0, 0]]

    monkeypatch.setattr(cli, "_variant_counts", counts)
    runs = 20_000  # 40,000 tasks; tracemalloc makes each one slow
    tracemalloc.start()
    try:
        rows = compare_slits(TWO_SLIT, runs=runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.label, r.total) for r in rows] == [("1 slit", 3 * runs), ("2 slits", 4 * runs)]
    assert rows[0].fractions == [1 / 3, 0.0, 2 / 3, 0.0, 0.0, 0.0]
    assert rows[1].fractions == [1 / 4, 0.0, 3 / 4, 0.0, 0.0, 0.0]
    assert peak < 256 * 1024


def test_worker_count_never_exceeds_tasks_or_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert worker_count(1, 10) == 1
    assert worker_count(64, 10) == 4
    assert worker_count(64, 3) == 3
    assert worker_count(2, 10) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(64, 10) == 1


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["run", "--instants", "-1"], "--instants must be at least 0, got -1"),
        (["compare", "--instants", "-5"], "--instants must be at least 0, got -5"),
        (["compare", "--runs", "0"], "--runs must be at least 1, got 0"),
        (["compare", "--runs", "two"], "--runs: invalid int value: 'two'"),
        (["compare", "--jobs", "0"], "--jobs must be at least 1, got 0"),
        (["compare", "--jobs", "-3"], "--jobs must be at least 1, got -3"),
    ],
)
def test_out_of_range_counts_exit_2(small_file, capsys, argv, fragment):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--scenario", small_file] + argv[1:])
    assert exc.value.code == EXIT_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith(f"usage: syncell {argv[0]} ")  # the subcommand's usage
    assert fragment in err


@pytest.mark.parametrize("flags", [["--ascii"], ["--remanence"], ["--ascii", "--remanence"]])
def test_frame_flags_without_frames_exit_2(small_file, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", small_file] + flags)
    assert exc.value.code == EXIT_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith("usage: syncell run ")
    assert "need --frames DIR" in err


@pytest.mark.parametrize(
    "frames, fragment",
    [
        ("file", "--frames {frames}: an existing file, not a directory"),
        ("file/sub", "--frames {frames}: {file} is an existing file, not a directory"),
        ("file/sub/deeper/", "--frames {frames}: {file} is an existing file, not a directory"),
        ("file/", "--frames {frames}: {file} is an existing file, not a directory"),
        ("", "--frames needs a directory, got an empty path"),
        ("link", "--frames {frames}: an existing file, not a directory"),
        ("link/sub", "--frames {frames}: {link} is an existing file, not a directory"),
    ],
)
def test_frames_on_or_under_a_file_or_empty_exits_2_before_reading_the_scenario(
    tmp_path, capsys, monkeypatch, frames, fragment
):
    def no_read(path):
        raise AssertionError("the scenario was read")

    monkeypatch.setattr(cli, "load_scenario", no_read)
    file = tmp_path / "file"
    file.write_text("")
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "missing")  # dangling
    if frames:
        frames = f"{tmp_path}/{frames}"  # keeps a trailing /
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", str(tmp_path / "any.scn"), "--frames", frames])
    assert exc.value.code == EXIT_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith("usage: syncell run ")
    assert fragment.format(frames=frames, file=file, link=link) in err


@pytest.mark.parametrize(
    "command, option, where",
    [
        ("run", "--report", "missing/r.txt"),
        ("run", "--stats", "missing/s.csv"),
        ("run", "--report", "."),
        ("compare", "--out", "missing/o.csv"),
    ],
)
def test_a_bad_output_path_exits_2_before_any_instant(
    tmp_path, capsys, monkeypatch, command, option, where
):
    import syncell.world as world_mod

    def no_run(*args, **kwargs):
        raise AssertionError("an instant ran")

    monkeypatch.setattr(world_mod.World, "run", no_run)
    scn = tmp_path / "two_slit.scn"
    scn.write_text(TWO_SLIT)
    path = str(tmp_path / where)
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", str(scn), option, path])
    assert exc.value.code == EXIT_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith(f"usage: syncell {command} ")
    assert f"{option} {path}: not a file path in an existing directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["two_slit.scn"]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_negative_instants_in_the_file_exits_2(tmp_path, capsys, command):
    scn = tmp_path / "negative.scn"
    scn.write_text(SMALL.replace("instants=90", "instants=-5"))
    assert main([command, "--scenario", str(scn)]) == EXIT_SCENARIO
    assert "line 20: instants expects an integer >= 0, got '-5'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_repeated_key_exits_2_naming_its_line(tmp_path, capsys, command):
    scn = tmp_path / "repeated.scn"
    scn.write_text("[grid]\nwidth=9\nwidth=9\nheight=9\n")
    assert main([command, "--scenario", str(scn)]) == EXIT_SCENARIO
    assert capsys.readouterr().err == "scenario error: line 3: repeated [grid] key 'width'\n"


@pytest.mark.parametrize(
    "text,fragment",
    [
        (SMALL.replace("shots=2", "shots=2\nvx=2"), "source #0 (line 5): vx=2.0 is outside"),
        (SMALL.replace("shots=2", "shots=2\nvy=nan"), "source #0 (line 5): vy=nan is outside"),
        (
            SMALL.replace("width=31\nheight=31", "width=100000\nheight=100000"),
            "grid 100000x100000 has more than 1,000,000 cells",
        ),
        (  # a corner off the grid names its section and the section's line
            TWO_SLIT.replace("y1=25", "y1=41"),
            "wall #0 (line 5): corner (39,41) is off the grid",
        ),
        (
            SMALL.replace("x1=29", "x1=31"),
            "detector #0 (line 12): corner (31,17) is off the grid",
        ),
    ],
    ids=["vx", "vy-nan", "huge-grid", "wall-off-grid", "detector-off-grid"],
)
def test_unbuildable_scenarios_exit_2(tmp_path, capsys, text, fragment):
    scn = tmp_path / "bad.scn"
    scn.write_text(text)
    assert main(["run", "--scenario", str(scn)]) == EXIT_SCENARIO
    assert fragment in capsys.readouterr().err


def test_compare_needs_an_open_slit(tmp_path):
    closed = TWO_SLIT.replace("open=true", "open=false")
    scn = tmp_path / "closed.scn"
    scn.write_text(closed)
    assert main(["compare", "--scenario", str(scn)]) == EXIT_SCENARIO


@pytest.mark.parametrize("close", [1, 9], ids=["closed", "missing"])
def test_compare_close_of_a_slit_that_is_not_open_exits_2(tmp_path, capsys, close):
    scn = tmp_path / "one_open.scn"
    scn.write_text(TWO_SLIT.replace("x1=24\nopen=true", "x1=24\nopen=false"))
    assert main(["compare", "--scenario", str(scn), "--close", str(close)]) == EXIT_SCENARIO
    err = capsys.readouterr().err
    assert err == f"scenario error: slit {close} is not an open slit of this scenario\n"


def python(*args):
    """Run a fresh interpreter on this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_the_cli_module_runs_without_warnings():
    done = python("-W", "error", "-m", "syncell.cli", "run", "--scenario", "scenarios/single.scn")
    assert (done.returncode, done.stderr) == (0, "")
    assert "detections_total=" in done.stdout


def test_importing_the_library_leaves_the_cli_unloaded():
    done = python("-c", "import sys, syncell; print('syncell.cli' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n")


@pytest.mark.parametrize(
    "module", ["kernel", "world", "measure", "particles", "scenario", "render", "stats", "cli"]
)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # world imports measure at its end, and measure imports world: whichever
    # of them is imported first, the other must find what it needs
    done = python("-W", "error", "-c", f"import syncell.{module}")
    assert (done.returncode, done.stderr) == (0, "")
