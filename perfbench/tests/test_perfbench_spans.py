"""Self-time arithmetic on spans and the tail sample-count rule."""

import pytest

from perfbench.spans import (
    Span,
    SpanLog,
    layer_self_ns,
    samples_beyond,
    self_times,
    tail_supported,
)


def _synthetic() -> list[Span]:
    # step [0, 100) > decode [10, 90) > two GEMMs [20, 50) and [60, 80);
    # a second step [100, 130) with no children.
    return [Span("scheduler", 0, 100, -1),
            Span("models.decode", 10, 90, 0),
            Span("core", 20, 50, 1, ("layer0.attn.wq", 8)),
            Span("core", 60, 80, 1, ("lm_head.weight", 8)),
            Span("scheduler", 100, 130, -1)]


def test_self_time_subtracts_direct_children():
    assert self_times(_synthetic()) == [20, 30, 30, 20, 30]


def test_layer_self_times_add_up_to_top_level_spans():
    spans = _synthetic()
    per_layer = layer_self_ns(spans)
    assert per_layer == {"scheduler": 50, "models.decode": 30, "core": 50}
    top = sum(s.duration_ns for s in spans if s.parent < 0)
    assert sum(per_layer.values()) == top
    shares = {k: v / top for k, v in per_layer.items()}
    assert shares["core"] == pytest.approx(50 / 130)


def test_span_log_nests_by_call_stack():
    log = SpanLog()

    def gemm(name, flat):
        return flat, ("stats", name)

    traced_gemm = log.wrap_gemm("core", gemm)

    class Flat:
        shape = (4, 3)

    inner = log.wrap("models.decode", lambda: traced_gemm("w", Flat()))
    outer = log.wrap("scheduler", inner)
    outer()
    layers = [(s.layer, s.parent, s.tag) for s in log.spans]
    assert layers == [("scheduler", -1, None), ("models.decode", 0, None),
                      ("core", 1, ("w", 3))]
    assert log.gemm_calls == [("w", 3, ("stats", "w"))]
    assert all(s.end_ns >= s.start_ns for s in log.spans)
    assert sum(self_times(log.spans)) == log.spans[0].duration_ns


def test_span_closes_when_the_call_raises():
    log = SpanLog()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        log.wrap("scheduler", boom)()
    assert [s.layer for s in log.spans] == ["scheduler"]
    assert log.wrap("scheduler", lambda: 1)() == 1
    assert log.spans[1].parent == -1


@pytest.mark.parametrize("n, q, beyond, ok", [
    (1000, 99, 10, True), (999, 99, 9, False),
    (100, 90, 10, True), (99, 90, 9, False),
    (20, 50, 10, True), (19, 50, 9, False), (0, 90, 0, False),
])
def test_tail_needs_ten_samples_beyond(n, q, beyond, ok):
    assert samples_beyond(n, q) == beyond
    assert tail_supported(n, q) is ok
