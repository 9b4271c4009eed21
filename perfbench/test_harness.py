"""Tests of the benchmark's own helpers.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import gzip
import json
import time
from pathlib import Path

import pytest

import harness
import run
from harness import REFERENCE_S, Tally, Tracer, speed_scale, tail
from workloads import WORKLOADS


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(100, 0, -1))
    assert tail(values) == (90, 90.0)
    assert tail(list(range(1, 1001))) == (990, 99.0)
    value, pct = tail(list(range(1, 12)))
    assert value == 1 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        tail(list(range(10)))


def test_speed_scale_uses_the_probes_on_both_sides():
    slow, fast = 2 * REFERENCE_S, REFERENCE_S
    assert [speed_scale(fast, fast), speed_scale(fast, slow), speed_scale(slow, slow)] \
        == pytest.approx([1, 2 / 3, 1 / 2])


def test_tally_counts_failed_ratio():
    tally = Tally()
    assert tally.check(True, "a") and tally.check(True, "b") and tally.check(True, "c")
    assert not tally.check(False, "d went wrong")
    assert (tally.attempted, tally.failed, tally.failed_ratio) == (4, 1, 0.25)
    assert tally.messages == ["d went wrong"]
    assert Tally().failed_ratio == 1.0  # nothing checked is not a pass


@pytest.fixture
def clock(monkeypatch):
    """perf_counter replaced by a clock that ticks when told to."""
    now = [0.0]
    monkeypatch.setattr(harness.time, "perf_counter", lambda: now[0])
    return now


def test_self_time_subtracts_nested_children(clock):
    tr = Tracer()
    root = tr.begin("x.root", 1)      # 0 .. 10
    clock[0] = 1
    a = tr.begin("y.a", 1)            # 1 .. 4
    clock[0] = 2
    g = tr.begin("y.g", 1)            # 2 .. 3
    clock[0] = 3
    tr.end(g)
    clock[0] = 4
    tr.end(a)
    clock[0] = 5
    b = tr.begin("x.b", 1)            # 5 .. 9
    clock[0] = 9
    tr.end(b)
    clock[0] = 10
    tr.end(root)
    assert list(tr.parent) == [-1, root, a, root]
    assert tr.self_times() == [3, 2, 1, 4]
    summary = tr.summary()
    assert summary["y.a"] == {"calls": 1, "busy_s": 3, "self_s": 2}
    assert tr.layer_self_times() == {"x": 7, "y": 3}


def test_spans_close_in_order_and_calls_record_on_error(clock):
    tr = Tracer()
    outer = tr.begin("x.outer", 0)
    tr.begin("x.inner", 0)
    with pytest.raises(RuntimeError):
        tr.end(outer)
    tr = Tracer()
    assert tr.call("x.f", 5, divmod, 7, 2) == (3, 1)
    with pytest.raises(ZeroDivisionError):
        tr.call("x.f", 6, divmod, 1, 0)
    assert tr.summary()["x.f"]["calls"] == 2 and tr.n == [5, 6]


def test_spans_written_as_gzip_tsv(tmp_path):
    tr = Tracer()
    tr.call("x.f", 3, time.sleep, 0)
    path = tmp_path / "spans.tsv.gz"
    tr.write(str(path))
    with gzip.open(path, "rt") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "id\tname\tstart\tend\tparent\tn"
    assert lines[1].split("\t")[1::3] == ["x.f", "-1"] and lines[1].endswith("\t3")


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    for workload in WORKLOADS.values():
        assert workload.inputs(7) == workload.inputs(7)
        assert workload.inputs(7) != workload.inputs(8)
    census = WORKLOADS["census-weak"].inputs(0)
    assert census.start == 3 and census.stop - census.start + 1 == 5 * (1 << 16)
