"""Trace recorder: spans, ring buffer, Chrome trace_event export."""

import json
import sys
import threading
import time

import numpy as np

from repro.telemetry import (
    Telemetry,
    TraceRecorder,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)


class TestTraceRecorder:
    def test_span_context_manager_records_duration(self):
        rec = TraceRecorder()
        with rec.span("mpu.gemm", m=4):
            time.sleep(0.001)
        (ev,) = rec.events()
        assert ev.name == "mpu.gemm"
        assert ev.phase == "X"
        assert ev.dur_ns >= 1_000_000
        assert ev.args == {"m": 4}
        assert ev.end_ns == ev.start_ns + ev.dur_ns

    def test_retro_record_and_instant(self):
        rec = TraceRecorder()
        t0 = time.perf_counter_ns()
        rec.record("request.queue", t0, t0 + 500, request_id=1)
        rec.instant("scheduler.backpressure", free_pages=0)
        span, inst = rec.events()
        assert (span.start_ns, span.dur_ns) == (t0, 500)
        assert inst.phase == "i"
        assert inst.args == {"free_pages": 0}

    def test_negative_duration_clamped(self):
        rec = TraceRecorder()
        rec.record("x", 100, 50)
        assert rec.events()[0].dur_ns == 0

    def test_ring_buffer_evicts_oldest(self):
        rec = TraceRecorder(capacity=8)
        for i in range(20):
            rec.record("e", i, i + 1, i=i)
        events = rec.events()
        assert len(events) == 8
        assert [e.args["i"] for e in events] == list(range(12, 20))

    def test_concurrent_records_and_reads_lose_nothing(self):
        """Appends take no lock: writers racing a reader that copies the
        buffer must neither lose an event nor break the copy."""
        rec = TraceRecorder()
        writers, per_writer = 4, 2000
        start = threading.Barrier(writers + 1)
        done = threading.Event()
        errors = []

        def write(w):
            start.wait(timeout=30)
            for i in range(per_writer):
                rec.record("e", i, i + 1, w=w, i=i)

        def read():
            start.wait(timeout=30)
            while not done.is_set():
                try:
                    rec.events()
                    len(rec)
                except RuntimeError as exc:  # "deque mutated during iteration"
                    errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write, args=(w,))
                       for w in range(writers)]
            reader = threading.Thread(target=read)
            for t in [*threads, reader]:
                t.start()
            for t in threads:
                t.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [*threads, reader])
        assert errors == []
        events = rec.events()
        assert len(events) == writers * per_writer
        assert {(e.args["w"], e.args["i"]) for e in events} == {
            (w, i) for w in range(writers) for i in range(per_writer)}

    def test_numpy_args_are_json_safe(self):
        rec = TraceRecorder()
        rec.instant("n", count=np.int64(3), ratio=np.float32(0.5),
                    ids=np.arange(2), flag=True, label="x")
        args = rec.events()[0].args
        assert args == {"count": 3, "ratio": 0.5, "ids": [0, 1],
                        "flag": True, "label": "x"}
        json.dumps(args)  # round-trips

    def test_clear(self):
        rec = TraceRecorder()
        rec.instant("a")
        rec.clear()
        assert len(rec) == 0


class TestChromeExport:
    def test_export_structure(self, tmp_path):
        rec = TraceRecorder()
        with rec.span("scheduler.step"):
            with rec.span("mpu.gemm", m=8):
                pass
        rec.instant("request.departure", request_id=0)
        path = rec.export_chrome(tmp_path / "trace.json")

        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {s["name"] for s in spans} == {"scheduler.step", "mpu.gemm"}
        assert instants[0]["s"] == "g"
        assert meta and meta[0]["name"] == "thread_name"

        # Timestamps rebased to the earliest event and nested: the inner
        # gemm span lies inside the outer step span.
        outer = next(s for s in spans if s["name"] == "scheduler.step")
        inner = next(s for s in spans if s["name"] == "mpu.gemm")
        assert outer["ts"] == 0
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3
        assert inner["cat"] == "mpu"
        assert outer["tid"] == threading.get_ident()


class TestTelemetryHandle:
    def test_disabled_by_default_records_nothing(self):
        tel = Telemetry()
        with tel.span("x"):
            pass
        tel.instant("y")
        assert len(tel.trace) == 0
        assert not tel.enabled

    def test_session_swaps_and_restores_global_handle(self):
        baseline = get_telemetry()
        with telemetry_session() as tel:
            assert get_telemetry() is tel
            assert tel.enabled
        assert get_telemetry() is baseline

    def test_set_telemetry_returns_previous(self):
        baseline = get_telemetry()
        mine = Telemetry(enabled=True)
        prev = set_telemetry(mine)
        try:
            assert prev is baseline
            assert get_telemetry() is mine
        finally:
            set_telemetry(prev)

    def test_profile_rollups_render_as_gauges(self):
        with telemetry_session(profiling=True) as tel:
            tel.profile.record("program.luts", 0.5, nbytes=1024, count=2)
            text = tel.render_prometheus()
        assert 'profile_seconds_total{op="program.luts"} 0.5' in text
        assert 'profile_ops_total{op="program.luts"} 2' in text
        assert 'profile_bytes_total{op="program.luts"} 1024' in text
