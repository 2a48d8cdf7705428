"""Tests of the benchmark's own arithmetic: self times, percentiles, floors, names.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
from pathlib import Path

import pytest

import ledger
import run


def span(span_id, start, end, parent=-1, name="dispatch.solve_block"):
    return (span_id, name, start, end, parent)


# ----------------------------------------------------------------- self times
def test_self_time_subtracts_children():
    spans = [span(0, 0, 100), span(1, 10, 30, parent=0), span(2, 50, 90, parent=0)]
    assert ledger.self_times(spans) == {0: 40, 1: 20, 2: 40}


def test_self_time_counts_only_direct_children():
    spans = [span(0, 0, 100), span(1, 10, 60, parent=0), span(2, 20, 50, parent=1)]
    assert ledger.self_times(spans) == {0: 50, 1: 20, 2: 30}
    assert sum(ledger.self_times(spans).values()) == 100


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        span(0, 0, 100),
        span(1, 10, 40, parent=0),
        span(2, 30, 60, parent=0),  # overlaps child 1 by 10
        span(3, 90, 120, parent=0),  # runs past the parent's end
    ]
    assert ledger.self_times(spans)[0] == 100 - 50 - 10


def test_recorder_ledger_reconciles_with_wall():
    rec = ledger.SpanRecorder()
    rec.start()
    rec.begin("session.observe")
    rec.begin("dispatch.solve_block")
    sum(range(1000))
    rec.end()
    rec.begin("transitions.apply")
    sum(range(1000))
    rec.end()
    rec.end()
    sum(range(1000))  # unattributed glue
    rec.begin("exp.run_plan")
    rec.end()
    rec.stop()
    result = rec.ledger()
    assert sum(result["layers"].values()) + result["unattributed_ns"] == result["wall_ns"]
    assert result["unattributed_ns"] > 0
    assert set(result["layers"]) == {"serve.session", "dispatch", "offline.transitions", "exp"}
    assert result["names"]["dispatch.solve_block"]["calls"] == 1


def test_recorder_refuses_to_stop_with_open_spans():
    rec = ledger.SpanRecorder()
    rec.start()
    rec.begin("feed.next")
    with pytest.raises(RuntimeError):
        rec.stop()


def test_chrome_trace_carries_ids_parents_and_layers():
    spans = [span(0, 1000, 5000, name="online.step.A"), span(1, 2000, 3000, parent=0, name="tracker.observe")]
    trace = ledger.to_chrome_trace(spans, meta={"workload": "w"}, limit=1)
    assert len(trace["traceEvents"]) == 1
    event = trace["traceEvents"][0]
    assert event == {
        "name": "online.step.A", "cat": "online", "ph": "X", "pid": 1, "tid": 1,
        "ts": 0.0, "dur": 4.0, "args": {"id": 0, "parent": -1},
    }
    assert trace["otherData"] == {"workload": "w", "dropped_spans": 1}


# ---------------------------------------------------------------- percentiles
def test_percentile_needs_ten_samples_beyond_it():
    assert ledger.percentile(list(range(1, 1001)), 99) == 990
    with pytest.raises(ValueError, match="at least 10"):
        ledger.percentile(list(range(1, 1000)), 99)
    assert ledger.percentile(list(range(1, 22)), 50) == 11
    with pytest.raises(ValueError):
        ledger.percentile(list(range(1, 20)), 50)


def test_percentile_is_nearest_rank_on_unsorted_input():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert ledger.percentile(samples, 50) == 3.0


# ----------------------------------------------------------------- estimators
def test_split_records_each_part_and_the_rest():
    from workloads import PassRecord

    rec = PassRecord()
    rec.split("wall_s", "engine.run", 1.0, [200_000_000, 300_000_000])
    assert rec.units["wall_s"] == {"engine.run#0": [0.2], "engine.run#1": [0.3], "engine.run#rest": [0.5]}
    assert rec.total("wall_s") == pytest.approx(1.0)


def test_phase_time_sums_unit_floors_and_takes_the_setup_median():
    from workloads import PassRecord

    records = []
    for setup, a, b in ((0.3, 2.0, 1.0), (0.1, 1.0, 3.0), (0.2, 3.0, 2.0)):
        rec = PassRecord()
        rec.time("setup_s", "setup", setup)
        rec.time("wall_s", "a", a)
        rec.time("wall_s", "b", b)
        records.append(rec)
    assert run.phase_time(records, "wall_s") == 2.0
    assert run.phase_time(records, "setup_s") == 0.2


def test_per_sample_floor_keeps_each_sample_apart():
    assert run.per_sample_floor([[3, 1, 5], [2, 4, 5], [9, 9, 0]]) == [2, 1, 0]
    with pytest.raises(AssertionError, match="different sample counts"):
        run.per_sample_floor([[1, 2], [1]])


# ---------------------------------------------------------------------- names
@pytest.mark.parametrize("name", ["setup_s", "tick_p99_us", "online.step.LCP.self_s", "a-b.c_9"])
def test_valid_metric_names(name):
    assert ledger.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", "tick p99", "cost/ratio", "a" * 65, "µs"])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        ledger.check_metric_name(name)


def test_every_printed_metric_name_is_valid_and_timed_spans_have_layers():
    for name in list(run.END_TO_END) + list(run.ADVISORY) + list(run.PER_LAYER):
        ledger.check_metric_name(name)
    for name in run.PER_LAYER:
        if name.endswith(".self_s") and not name.startswith("layer."):
            ledger.layer_of(name)
    with pytest.raises(ValueError):
        ledger.layer_of("kernel.min_plus")


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
