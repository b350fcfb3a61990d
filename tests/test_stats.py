"""Frequency tables, fractions, and report stability."""

from syncell.stats import (
    DetectionRecord,
    FrequencyRow,
    RunReport,
    frequency_csv,
    frequency_text,
)


def report_with_counts(counts, seed=42):
    return RunReport(
        seed=seed,
        instants=100,
        base=len(counts),
        scenario_digest="d" * 64,
        detector_counts=[list(counts)],
        detector_sizes=[[sum(counts)]],
        detections_total=sum(counts),
        unresolved=0,
        ctx_collisions=0,
    )


def test_frequency_table_normalizes_counts():
    report = report_with_counts([327, 23, 281, 153, 17, 199])
    row = FrequencyRow.from_counts("1 slit", report.detector_counts, report.base)
    assert row.label == "1 slit"
    assert row.fractions == [0.327, 0.023, 0.281, 0.153, 0.017, 0.199]
    assert abs(sum(row.fractions) - 1.0) < 1e-9
    assert row.total == 1000


def test_zero_detections_row_is_flagged_empty():
    for base in (6, 3):
        report = report_with_counts([0] * base)
        row = FrequencyRow.from_counts("run0", report.detector_counts, report.base)
        assert row.empty and row.fractions == [0.0] * base
        header, line = frequency_csv([row]).splitlines()
        assert header == "variant," + "".join(f"state{s}," for s in range(base)) + "total"
        assert line == "run0 (no detections)," + "0.000000," * base + "0"


def test_single_state_gives_a_unit_entry():
    report = report_with_counts([0, 0, 250, 0, 0, 0])
    row = FrequencyRow.from_counts("run0", report.detector_counts, report.base)
    assert row.fractions[2] == 1.0 and sum(row.fractions) == 1.0


def test_a_detection_size_is_its_census_total():
    # census of a 4-cell superposition holding [0, 0, 2, 3]; size is not stored
    rec = DetectionRecord(instant=5, detector=0, ctx_serial=1, state_counts=(2, 0, 1, 1, 0, 0))
    assert rec.size == 4
    assert DetectionRecord(0, 0, 1, (0,) * 6).size == 0


def test_stats_csv_shape_and_totals():
    rep = report_with_counts([5, 0, 3, 1, 0, 1])
    lines = rep.stats_csv().splitlines()
    assert lines[0] == "detector,state0,state1,state2,state3,state4,state5,total"
    assert lines[1] == "0,5,0,3,1,0,1,10"


def test_report_rendering_is_stable():
    a = report_with_counts([5, 0, 3, 1, 0, 1]).text()
    b = report_with_counts([5, 0, 3, 1, 0, 1]).text()
    assert a == b
    assert "detections_total=10" in a
    assert "superposition_sizes=min:10,max:10,mean:10.000" in a


def test_frequency_text_formats_three_decimals():
    row = FrequencyRow("2 slits", [0.226, 0.039, 0.298, 0.171, 0.116, 0.15], 1000)
    out = frequency_text([row])
    assert "0.226" in out and "2 slits" in out
