"""Closed-loop serving benchmark over ``repro.serve.DecodeScheduler``.

One model for every workload: d512/ff2048, 2 layers, 8 heads, vocab 512,
2-bit BCQ with group size 32, run on ``MPUConfig(pe_rows=4, pe_cols=2,
mu=4, k=4)`` through the default compiled ``prepared_gemm``.  One thread
drives the scheduler synchronously; a round is one pass over the
workload's request lists with a fresh scheduler, so every round of one
seed dispatches the same iterations, admissions and GEMMs.

The untraced run measures the end-to-end metrics.  The traced run wraps
the benchmark's view of each layer (the ``gemm`` callable, the model's
``prefill`` / ``decode_step``, the scheduler's ``step``) in spans and
reports per-layer self times; it never instruments ``src/``.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import resource
import time
from collections import deque
from dataclasses import astuple, dataclass, field

import numpy as np

from repro.core.mpu import MPUConfig, MPURunStats
from repro.models.quantized_model import QuantizationRecipe, QuantizedLM
from repro.models.transformer import PagePool, TransformerConfig, TransformerLM
from repro.serve import CacheConfig, DecodeMetrics, DecodeScheduler
from repro.telemetry import telemetry_session

from perfbench.spans import SpanLog, layer_self_ns, samples_beyond, tail_supported
from perfbench.workloads import (
    WORKLOADS,
    Request,
    make_primers,
    make_round,
    truncate,
)

MODEL_CONFIG = TransformerConfig(vocab_size=512, max_seq_len=128, d_model=512,
                                 n_heads=8, n_layers=2, d_ff=2048, seed=0)
RECIPE = QuantizationRecipe(method="bcq", bits=2, group_size=32)
MPU_CONFIG = MPUConfig(pe_rows=4, pe_cols=2, mu=4, k=4)
PAGE_SIZE = 8
SETUP_REPEATS = 3
WARMUP_TOKENS = 4
SOLO_SAMPLE = (0, -1)      # submit-order indices checked against solo generate
OP_NAMES = (("fused", "luts"), ("fused", "plane"), ("fused", "scale"),
            ("fused", "offset"), ("blocked", "luts"), ("blocked", "plane_block"),
            ("blocked", "scale"), ("blocked", "offset"))
GEMM_GROUPS = ("qkv", "wo", "w1", "w2", "lm_head")


# -- set-up ---------------------------------------------------------------
def build_model() -> tuple[QuantizedLM, float, float]:
    """Build, quantize and prepare (plan, pack keys, compile) the model.

    Returns ``(qlm, quantize_s, prepare_s)``; quantize time includes the
    float model's construction.
    """
    t0 = time.perf_counter()
    qlm = QuantizedLM.build(TransformerLM(MODEL_CONFIG), RECIPE,
                            engine="figlut-f")
    t1 = time.perf_counter()
    qlm.prepared_weights(MPU_CONFIG)
    return qlm, t1 - t0, time.perf_counter() - t1


def setup(repeats: int = SETUP_REPEATS) -> tuple[QuantizedLM, list[tuple]]:
    """Set the model up ``repeats`` times; keep the last one."""
    timings = []
    qlm = None
    for _ in range(repeats):
        qlm = None
        gc.collect()
        t0 = time.perf_counter()
        qlm, quantize_s, prepare_s = build_model()
        timings.append((time.perf_counter() - t0, quantize_s, prepare_s))
    return qlm, timings


# -- one round ------------------------------------------------------------
@dataclass
class Round:
    wall_ns: int
    ttft_ns: list[int]
    itl_ns: list[int]
    queue_wait_ns: list[int]
    prefill_ns: int
    seqs: list
    requests: list[Request]
    metrics: DecodeMetrics
    gathered_slots: int
    log: SpanLog
    pages_peak: int = 0
    steps: int = 0
    profile: dict = field(default_factory=dict)

    @property
    def generated(self) -> int:
        return self.metrics.generated_tokens

    def failed_requests(self) -> int:
        """Requests that did not finish by length with exactly their
        ``max_new_tokens`` tokens."""
        return sum(1 for seq, req in zip(self.seqs, self.requests, strict=True)
                   if seq.finish_reason != "length"
                   or len(seq.generated) != req.max_new_tokens)

    def schedule(self) -> dict:
        """The round's schedule fingerprint: identical on every round of
        one seed, and on every run of it."""
        m = self.metrics
        digest = hashlib.sha256()
        for seq in self.seqs:
            digest.update(np.asarray(seq.generated, dtype=np.int64).tobytes())
        return {"iterations": m.iterations, "admissions": m.admissions,
                "backpressure_events": m.backpressure_events,
                "prefill_tokens": m.prefill_tokens,
                "prefix_hit_tokens": m.prefix_hit_tokens,
                "generated_tokens": m.generated_tokens,
                "mpu_stats": list(astuple(m.mpu_stats)),
                "tokens_sha256": digest.hexdigest()}


def primed_pool(qlm: QuantizedLM, prompts, max_active: int, gemm) -> PagePool:
    """A page pool sized as a scheduler's, with each prompt served once so
    its pages are resident and registered."""
    pool = qlm.model.make_page_pool(
        CacheConfig(page_size=PAGE_SIZE).pool_pages(
            max_active, MODEL_CONFIG.max_seq_len), PAGE_SIZE)
    for prompt in prompts:
        qlm.generate(np.asarray(prompt, dtype=np.int64), 1, gemm=gemm,
                     pool=pool)
    return pool


def run_round(qlm: QuantizedLM, plan: list[list[Request]], max_active: int,
              gemm, pool: PagePool | None = None,
              traced: bool = False) -> Round:
    """Drive one closed-loop round to idle on a fresh scheduler.

    With ``pool`` the scheduler starts on a copy of it (a primed pool), so
    every round starts from the same resident pages.
    Untraced, only ``qlm.prefill`` is timed (one clock pair per admission,
    for prefill throughput).  Traced, the ``gemm`` callable, ``prefill``,
    ``decode_step`` and ``step`` each record a span per call.
    """
    log = SpanLog()
    sched = DecodeScheduler(qlm, gemm=log.wrap_gemm("core", gemm) if traced
                            else gemm, max_active=max_active,
                            cache_config=CacheConfig(page_size=PAGE_SIZE))
    if pool is not None:
        sched.pool = copy.deepcopy(pool)
    pool, peak = sched.pool, [0]
    primed_slots = pool.counters.gathered_slots
    if traced:
        traced_step = log.wrap("scheduler", sched.step)

        def step():
            finished = traced_step()
            peak[0] = max(peak[0], pool.num_pages - pool.num_free)
            return finished
        sched.step = step

    ttft, itl, qwait, seqs, requests = [], [], [], [], []
    pending = [deque(reqs) for reqs in plan]
    last_prefill = log.last_start_ns

    def submit(client: int) -> None:
        req = pending[client].popleft()
        sent = time.perf_counter_ns()
        last = [0]

        def on_token(seq, token, done):
            now = time.perf_counter_ns()
            if token is not None:
                if last[0]:
                    itl.append(now - last[0])
                else:
                    ttft.append(now - sent)
                    if traced:
                        qwait.append(last_prefill["models.prefill"] - sent)
                last[0] = now
            if done and pending[client]:
                submit(client)

        requests.append(req)
        seqs.append(sched.submit(np.asarray(req.prompt, dtype=np.int64),
                                 req.max_new_tokens, on_token=on_token))

    gc.collect()
    try:
        qlm.prefill = log.wrap("models.prefill", qlm.prefill)
        if traced:
            qlm.decode_step = log.wrap("models.decode", qlm.decode_step)
        t0 = time.perf_counter_ns()
        for client in range(len(plan)):
            submit(client)
        sched.run_until_idle()
        wall = time.perf_counter_ns() - t0
    finally:
        for attr in ("prefill", "decode_step"):
            qlm.__dict__.pop(attr, None)
    for seq in seqs:
        seq.on_token = None  # the callback holds the scheduler and its pool
    prefill_ns = sum(s.duration_ns for s in log.spans
                     if s.layer == "models.prefill")
    return Round(wall_ns=wall, ttft_ns=ttft, itl_ns=itl, queue_wait_ns=qwait,
                 prefill_ns=prefill_ns, seqs=seqs, requests=requests,
                 metrics=sched.metrics,
                 gathered_slots=pool.counters.gathered_slots - primed_slots,
                 log=log, pages_peak=peak[0],
                 steps=sum(1 for s in log.spans if s.layer == "scheduler"))


# -- correctness gate -------------------------------------------------------
@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def check_round(self, rnd: Round) -> None:
        self.attempted += len(rnd.seqs)
        bad = rnd.failed_requests()
        if bad:
            self.failed += bad
            self.problems.append(f"{bad} request(s) did not finish by length")

    def check_solo(self, qlm: QuantizedLM, rnd: Round) -> None:
        """Served tokens of a fixed sample equal solo ``qlm.generate``."""
        for i in SOLO_SAMPLE:
            req, seq = rnd.requests[i], rnd.seqs[i]
            solo = qlm.generate(np.asarray(req.prompt, dtype=np.int64),
                                req.max_new_tokens, mpu_config=MPU_CONFIG)
            if not np.array_equal(solo.tokens, seq.tokens):
                self.failed += 1
                self.problems.append(
                    f"request {seq.request_id} differs from solo generate")

    def check_gemm_stats(self, qlm: QuantizedLM, rnd: Round) -> None:
        """Every GEMM's stats equal the analytic plan stats at its width;
        a mismatch fails every request of the round."""
        expected: dict[tuple[str, int], MPURunStats] = {}
        for name, cols, stats in rnd.log.gemm_calls:
            key = (name, cols)
            if key not in expected:
                expected[key] = qlm.layer_mpu_stats(name, cols, MPU_CONFIG)
            if stats != expected[key]:
                self.failed += len(rnd.seqs)
                self.problems.append(f"GEMM {name} at {cols} columns returned "
                                     f"stats off its plan")
                return

    def check_schedules(self, rounds: list[Round]) -> dict:
        """Every round's schedule matches the first.  The run prints the
        first; ``steadiness.py`` compares it across runs of one seed."""
        first = rounds[0].schedule()
        for rnd in rounds[1:]:
            if rnd.schedule() != first:
                self.problems.append("schedule differs between rounds")
                break
        return first


# -- runs -------------------------------------------------------------------
def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def setup_peak_rss_mb() -> float:
    """The process's peak resident memory so far (it never resets)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Reset the kernel's resident high-water mark (``VmHWM``) to the
    current resident size, so :func:`peak_rss_mb` sees only what follows."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _measure(seconds: float, one_round, min_rounds: int) -> list:
    """Run at least ``min_rounds`` rounds, and more while another round is
    expected to end nearer to ``seconds`` than stopping now."""
    rounds = []
    t0 = time.perf_counter()
    elapsed = last = 0.0
    while len(rounds) < min_rounds or elapsed + last / 2 < seconds:
        rounds.append(one_round())
        last = time.perf_counter() - t0 - elapsed
        elapsed += last
    return rounds


@dataclass
class RunResult:
    metrics: dict
    gate: Gate
    report: list[str]


class Bench:
    """One workload and seed on a freshly set-up, warmed-up model."""

    def __init__(self, workload: str, seed: int) -> None:
        self.max_active = WORKLOADS[workload].max_active
        self.plan = make_round(workload, seed)
        self.qlm, self.setups = setup()
        self.gemm = self.qlm.prepared_gemm(MPU_CONFIG)
        primers = make_primers(workload, seed)
        self.pool = (primed_pool(self.qlm, primers, self.max_active,
                                 self.gemm) if primers else None)
        run_round(self.qlm, truncate(self.plan, WARMUP_TOKENS),
                  self.max_active, self.gemm, self.pool)
        # The process peak so far includes set-up; peak_rss_mb is serving's.
        self.setup_rss_mb = setup_peak_rss_mb()
        reset_peak_rss()

    def round(self, traced: bool = False) -> Round:
        return run_round(self.qlm, self.plan, self.max_active, self.gemm,
                         self.pool, traced)

    def profiled_round(self) -> Round:
        """One round with the compiled executor's opcode profiling on."""
        with telemetry_session(profiling=True) as tel:
            rnd = self.round()
            rnd.profile = tel.profile.snapshot()
        return rnd


def untraced_run(workload: str, seed: int, seconds: float) -> RunResult:
    bench = Bench(workload, seed)
    rounds = _measure(seconds, bench.round, min_rounds=2)
    gate = Gate()
    for rnd in rounds:
        gate.check_round(rnd)
    serving_rss_mb = peak_rss_mb()
    gate.check_solo(bench.qlm, rounds[0])
    schedule = gate.check_schedules(rounds)
    setups = bench.setups

    ttft = [t for r in rounds for t in r.ttft_ns]
    itl = [t for r in rounds for t in r.itl_ns]
    generated = sum(r.generated for r in rounds)
    wall_s = sum(r.wall_ns for r in rounds) / 1e9
    prefill_s = sum(r.prefill_ns for r in rounds) / 1e9
    prefill_tokens = sum(r.metrics.prefill_tokens for r in rounds)
    cycles = sum(r.metrics.mpu_stats.cycles for r in rounds)
    metrics = {
        "setup_s": _metric(np.median([s[0] for s in setups]), "s"),
        "output_tok_s": _metric(generated / wall_s, "tok/s"),
        "ttft_p50_ms": _metric(np.percentile(ttft, 50) / 1e6, "ms"),
        "itl_p50_ms": _metric(np.percentile(itl, 50) / 1e6, "ms"),
        "itl_p90_ms": _metric(np.percentile(itl, 90) / 1e6, "ms"),
        "prefill_tok_s": _metric(prefill_tokens / prefill_s, "tok/s"),
        "peak_rss_mb": _metric(serving_rss_mb, "MB"),
        "sim_cycles_per_tok": _metric(cycles / generated, "cycle/tok"),
    }
    report = [f"rounds {len(rounds)}, timed wall {wall_s:.3f} s, "
              f"{generated} tokens, {prefill_tokens} prefill tokens",
              f"peak RSS: set-up {bench.setup_rss_mb:.1f} MB, serving "
              f"{serving_rss_mb:.1f} MB (peak_rss_mb)",
              "schedule " + json.dumps(schedule)]
    for name, samples, q in (("ttft", ttft, 90), ("itl", itl, 99)):
        n, beyond = len(samples), samples_beyond(len(samples), q)
        if tail_supported(n, q):
            report.append(f"{name}_p{q}_ms {np.percentile(samples, q) / 1e6:.4f}"
                          f" ms (n={n}, {beyond} beyond)")
        else:
            report.append(f"{name}_p{q}_ms omitted: n={n}, only {beyond} "
                          f"samples beyond")
    return RunResult(metrics, gate, report)


def _gemm_group(name: str) -> str:
    if name.startswith("lm_head"):
        return "lm_head"
    tail = name.rsplit(".", 1)[1]
    return "qkv" if tail in ("wq", "wk", "wv") else tail


def _span_phase(spans, span) -> str:
    parent = spans[span.parent].layer if span.parent >= 0 else ""
    return "prefill" if parent == "models.prefill" else "decode"


def traced_run(workload: str, seed: int, seconds: float) -> RunResult:
    """Alternate untraced and traced rounds, then profile one round."""
    bench = Bench(workload, seed)
    qlm, setups = bench.qlm, bench.setups
    pairs = _measure(seconds, lambda: (bench.round(), bench.round(traced=True)),
                     min_rounds=1)
    untraced = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    profiled = bench.profiled_round()
    rounds = untraced + traced + [profiled]

    gate = Gate()
    for rnd in rounds:
        gate.check_round(rnd)
    for rnd in traced:
        gate.check_gemm_stats(qlm, rnd)
    gate.check_solo(qlm, traced[0])
    schedule = gate.check_schedules(rounds)

    spans = [s for r in traced for s in r.log.spans]
    self_ns = layer_self_ns(spans)
    wall_ns = sum(r.wall_ns for r in traced)
    top_ns = sum(s.duration_ns for s in spans if s.parent < 0)
    m0 = traced[0].metrics
    n = len(traced)
    iterations = m0.iterations * n
    prefill_tokens = m0.prefill_tokens * n
    steps = sum(r.steps for r in traced)

    gemm_ns = {(g, ph): 0 for g in GEMM_GROUPS for ph in ("decode", "prefill")}
    cols = {"decode": [], "prefill": []}
    lut_reads = 0
    for r in traced:
        lut_reads += r.metrics.mpu_stats.lut_reads
        for s in r.log.spans:
            if s.layer == "core":
                phase = _span_phase(r.log.spans, s)
                gemm_ns[_gemm_group(s.tag[0]), phase] += s.duration_ns
                cols[phase].append(s.tag[1])
    decode_gemm = sum(v for (_, ph), v in gemm_ns.items() if ph == "decode")
    prefill_gemm = sum(v for (_, ph), v in gemm_ns.items() if ph == "prefill")
    program_s = {k: v["seconds"] for k, v in profiled.profile.items()
                 if k.startswith("program.")}
    program_total = sum(program_s.values()) or 1.0

    def per(total_ns, count, scale=1e6):
        return total_ns / scale / count if count else 0.0

    models_self = {ph: self_ns.get(f"models.{ph}", 0)
                   for ph in ("decode", "prefill")}
    m: dict[str, dict] = {
        "core.gemm_ms_per_step": _metric(per(decode_gemm, iterations), "ms/step"),
        "core.gemm_ms_per_prefill_tok": _metric(
            per(prefill_gemm, prefill_tokens), "ms/tok"),
    }
    for g in GEMM_GROUPS:
        m[f"core.gemm.{g}.decode_ms"] = _metric(
            per(gemm_ns[g, "decode"], iterations), "ms/step")
        m[f"core.gemm.{g}.prefill_ms"] = _metric(
            per(gemm_ns[g, "prefill"], prefill_tokens), "ms/tok")
    for ph in ("decode", "prefill"):
        m[f"core.cols_per_call.{ph}"] = _metric(
            float(np.mean(cols[ph])) if cols[ph] else 0.0, "count")
    m["core.host_ns_per_lut_read"] = _metric(
        (decode_gemm + prefill_gemm) / lut_reads, "ns/read")
    for tier, op in OP_NAMES:
        m[f"core.op.{tier}.{op}_share"] = _metric(
            program_s.get(f"program.{tier}.{op}", 0.0) / program_total, "frac")
    m["models.decode_self_ms_per_step"] = _metric(
        per(models_self["decode"], iterations), "ms/step")
    m["models.prefill_self_ms_per_tok"] = _metric(
        per(models_self["prefill"], prefill_tokens), "ms/tok")
    m["models.kv.prefix_hit_rate"] = _metric(m0.prefix_hit_rate, "frac")
    m["models.kv.gathered_slots_per_step"] = _metric(
        traced[0].gathered_slots / traced[0].steps, "count")
    m["models.kv.pages_peak"] = _metric(
        max(r.pages_peak for r in traced), "count")
    qwait = [t for r in traced for t in r.queue_wait_ns]
    m["scheduler.self_ms_per_step"] = _metric(
        per(self_ns.get("scheduler", 0), steps), "ms/step")
    m["scheduler.queue_wait_p50_ms"] = _metric(np.percentile(qwait, 50) / 1e6, "ms")
    m["scheduler.mean_active"] = _metric(m0.mean_active, "count")
    m["scheduler.iterations"] = _metric(schedule["iterations"], "count")
    m["scheduler.admission_waves"] = _metric(schedule["admissions"], "count")
    m["scheduler.backpressure_events"] = _metric(
        schedule["backpressure_events"], "count")
    m["quant.quantize_s"] = _metric(np.median([s[1] for s in setups]), "s")
    m["core.prepare_s"] = _metric(np.median([s[2] for s in setups]), "s")
    m["trace.unattributed_frac"] = _metric(1.0 - top_ns / wall_ns, "frac")
    m["trace.overhead_frac"] = _metric(
        np.median([r.wall_ns for r in traced])
        / np.median([r.wall_ns for r in untraced]) - 1.0, "frac")

    report = [f"traced rounds {n} (+{len(untraced)} untraced, 1 profiled), "
              f"traced wall {wall_ns / 1e6:.1f} ms",
              f"{'layer':<16}{'self ms':>12}{'share':>9}"]
    for layer in ("core", "models.decode", "models.prefill", "scheduler"):
        ns = self_ns.get(layer, 0)
        report.append(f"{layer:<16}{ns / 1e6:>12.2f}{ns / wall_ns:>9.2%}")
    report.append(f"{'unattributed':<16}{(wall_ns - top_ns) / 1e6:>12.2f}"
                  f"{1 - top_ns / wall_ns:>9.2%}")
    report.append("tracing overhead: traced round "
                  f"{np.median([r.wall_ns for r in traced]) / 1e6:.1f} ms vs "
                  f"untraced {np.median([r.wall_ns for r in untraced]) / 1e6:.1f} ms")
    if top_ns < 0.95 * wall_ns:
        gate.problems.append(f"only {top_ns / wall_ns:.1%} of traced wall "
                             f"time is attributed to a layer")
    return RunResult(m, gate, report)
