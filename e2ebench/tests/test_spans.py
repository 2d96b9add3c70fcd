import threading

import pytest

from spans import Recorder, Span, covered, instrument, layer_metrics, self_times


def span(id, name, start, end, parent=None, thread=1, run="r", **counts):
    return Span(id, name, start, end, parent, thread, run, counts)


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == pytest.approx(7.0)
    assert covered(2.0, 5.0, [(0.0, 3.0), (4.0, 4.5)]) == pytest.approx(1.5)


def test_self_time_on_hand_built_tree():
    # root 0-10; two children on different threads overlap in 3-4;
    # a grandchild 2-3 inside the first child.
    spans = [
        span(1, "detect_day", 0.0, 10.0),
        span(2, "materialize", 1.0, 4.0, parent=1),
        span(3, "materialize", 3.0, 6.0, parent=1, thread=2),
        span(4, "engine", 2.0, 3.0, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)  # 10 - |[1, 6]|
    assert own[2] == pytest.approx(2.0)  # 3 - 1
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    metrics = layer_metrics(spans)
    assert metrics["detect_day.self_s"] == pytest.approx(5.0)
    assert metrics["materialize.s"] == pytest.approx(5.0)
    assert metrics["engine.s"] == pytest.approx(1.0)
    assert metrics["detect_day.threads"] == 0  # no command.detect span in this tree


def test_layer_totals_count_nested_calls_once():
    spans = [
        span(1, "command.detect", 0.0, 20.0, run="d"),
        span(2, "store_read.fetch_history", 1.0, 5.0, parent=1, run="d"),
        span(3, "store_read.get_snapshot", 1.5, 3.0, parent=2, run="d", cells=7),
        span(4, "store_read.get_snapshot", 3.0, 4.5, parent=2, run="d", cells=5),
        span(5, "store_read.get_snapshot", 6.0, 7.0, parent=1, thread=9, run="d", cells=1),
    ]
    metrics = layer_metrics(spans)
    assert metrics["store_read.s"] == pytest.approx(5.0)  # fetch_history 4 + top-level get_snapshot 1
    assert metrics["store_read.get_snapshot.s"] == pytest.approx(4.0)
    assert metrics["store_read.get_snapshot.calls"] == 3
    assert metrics["store_read.cells_returned"] == 13
    assert metrics["detect.wall_s"] == pytest.approx(20.0)
    assert metrics["detect_day.threads"] == 2


def test_worker_thread_span_takes_the_waiting_span_as_parent():
    recorder = Recorder()
    outer = recorder.begin("detect_day")
    worker = threading.Thread(target=recorder.call, args=("engine", lambda: None))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    recorder.end(outer)
    inner, root = recorder.spans
    assert (inner.name, root.name) == ("engine", "detect_day")
    assert inner.parent == root.id and root.parent is None
    assert inner.thread != root.thread


def test_instrument_wraps_every_binding_and_restores():
    from odmwatch import cli, detector, ingestion
    from odmwatch.store import HistoryStore

    originals = (ingestion.parse_file, cli.parse_file, cli.detect_day, HistoryStore.get_snapshot)
    restore = instrument(Recorder())
    try:
        assert cli.parse_file is ingestion.parse_file is not originals[0]
        assert cli.detect_day is detector.detect_day is not originals[2]
        assert HistoryStore.get_snapshot is not originals[3]
    finally:
        restore()
    assert (ingestion.parse_file, cli.parse_file, cli.detect_day, HistoryStore.get_snapshot) == originals


def test_instrument_refuses_a_program_without_a_layer_function(monkeypatch):
    from odmwatch import ingestion
    from odmwatch.store import HistoryStore

    original = ingestion.parse_file
    monkeypatch.delattr(HistoryStore, "day_digest")
    with pytest.raises(AttributeError, match="HistoryStore.day_digest"):
        instrument(Recorder())
    assert ingestion.parse_file is original  # nothing was left wrapped


def test_traced_run_fails_when_a_count_no_longer_fits(monkeypatch, tmp_path):
    import dataclasses

    import spans
    from bench import Result, replay
    from pipeline import argvs
    from workloads import WORKLOADS, generate

    from odmwatch import cli

    def engine_without_timings(counts, args, result):
        raise KeyError("stats")

    monkeypatch.setattr(spans, "_count_engine", engine_without_timings)
    workload = dataclasses.replace(WORKLOADS["heavytail-daily"], areas=60, pool=2000)
    inputs = generate(workload, 3, tmp_path / "inputs")
    commands = argvs(workload, inputs, tmp_path / "store", tmp_path)
    result = Result()
    recorder = Recorder()
    restore = instrument(recorder)
    try:
        replay(cli, workload, inputs, commands, result, recorder, "r", None)
    finally:
        restore()
    assert result.failed == 1  # the detect command; the five ingests pass
    assert any("KeyError" in p for p in result.problems)
