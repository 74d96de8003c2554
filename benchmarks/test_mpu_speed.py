"""Perf trajectory for the batched MPU tile executor.

Like :mod:`benchmarks.test_quantize_speed`, these rows pin *throughput*
rather than a paper figure: the MPU's tile × batch × bit-plane walk was the
repo's last dominant interpreter-bound loop, and the planner/executor split
turned it into a batched NumPy pass.  Measured on the reference machine, a
full OPT-layer shape (4096×4096, batch 32, 4-bit) now runs `detailed=True`
in ~1.7 s, and the batched executor beats the retained scalar reference by
~38× on the benchmark slice (the gap widens with shape, so the slice floor
is conservative for full layers).
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import record_bench, run_once
from repro.core import native
from repro.core.gemm import figlut_gemm, prepare_weights
from repro.core.mpu import MPUConfig, MatrixProcessingUnit
from repro.core.program import compile_plan
from repro.eval.tables import format_table
from repro.quant.bcq import BCQConfig, quantize_bcq


def test_mpu_gemm_full_layer_shape(benchmark):
    """Detailed MPU simulation of a full OPT layer GEMM (4096×4096 @ 32).

    This shape was unusable on the seed's scalar walk (hours); the batched
    executor must keep it interactive.
    """
    rng = np.random.default_rng(0)
    w = rng.standard_normal((4096, 4096)) * 0.05
    x = rng.standard_normal((4096, 32))
    packed = prepare_weights(w, bits=4, method="uniform", group_size=128)
    mpu = MatrixProcessingUnit(MPUConfig())

    y, stats = run_once(benchmark, mpu.gemm, packed, x,
                        accumulate_dtype=np.float32)

    assert y.shape == (4096, 32)
    reference = packed.dequantize() @ x
    rel = float(np.linalg.norm(y - reference) / np.linalg.norm(reference))
    print("\n[MPU speed] 4096x4096 @ batch 32 / 4-bit detailed MPU: "
          f"relative error {rel:.2e}, cycles {stats.cycles:,}, "
          f"LUT reads {stats.lut_reads:,}")
    assert rel < 1e-5
    assert stats.tiles == (4096 // 64) * (4096 // 64)


def test_mpu_batched_speedup_vs_scalar_reference(benchmark):
    """Batched executor vs the retained scalar reference on the same plan.

    The scalar reference costs ~µs per (step, batch, µ-group) scalar LUT
    pass, so the comparison runs on a slice small enough to stay quick; the
    per-step cost of both paths is shape-linear (the batched path only gets
    *more* efficient on full layers, where its per-call overheads amortise
    further), so the floor asserted here is conservative for the full-layer
    shape above.
    """
    rng = np.random.default_rng(1)
    w = rng.standard_normal((256, 512)) * 0.05
    x = rng.standard_normal((512, 8))
    packed = prepare_weights(w, bits=4, method="uniform", group_size=128)
    mpu = MatrixProcessingUnit(MPUConfig())

    mpu.gemm(packed, x, accumulate_dtype=np.float32)  # warm caches
    y, stats = run_once(benchmark, mpu.gemm, packed, x,
                        accumulate_dtype=np.float32)

    start = time.perf_counter()
    y_ref, stats_ref = mpu.gemm_reference(packed, x, accumulate_dtype=np.float32)
    t_ref = time.perf_counter() - start
    best_batched = 1e9
    for _ in range(3):
        start = time.perf_counter()
        mpu.gemm(packed, x, accumulate_dtype=np.float32)
        best_batched = min(best_batched, time.perf_counter() - start)
    speedup = t_ref / best_batched

    rows = [["scalar reference", t_ref * 1e3, 1.0],
            ["batched executor", best_batched * 1e3, speedup]]
    print("\n[MPU speed] 256x512 @ batch 8 / 4-bit / fp32 accumulators\n"
          + format_table(["Path", "Time (ms)", "Speedup"], rows))

    np.testing.assert_array_equal(y, y_ref)
    assert stats == stats_ref
    record_bench("mpu_speed::batched_vs_scalar", "speedup_x", speedup,
                 floor=10.0)
    # Conservative floor (measured ~38x); catches a return to scalar loops.
    assert speedup > 10.0


def test_mpu_compiled_speedup_vs_interpreted(benchmark):
    """Compiled program vs the interpreted plan walk on a serving slice.

    Batch-1 is the shape the plan compiler targets: the interpreted
    executor's per-(segment, plane, µ-group) Python dispatch dominates when
    each NumPy op touches little data, while the compiled program replays
    the plan from flat buffers in a handful of fused calls.  Outputs and
    stats must stay bit-identical (the compilation contract); the floor is
    conservative (measured ~2.5x; large-batch, large-shape GEMMs amortise
    the interpreter loop and the two paths converge).
    """
    rng = np.random.default_rng(3)
    w = rng.standard_normal((256, 512)) * 0.05
    x = rng.standard_normal((512, 1))
    packed = prepare_weights(w, bits=4, method="bcq", group_size=128)
    mpu = MatrixProcessingUnit(MPUConfig())
    prepared = mpu.prepare(packed.weights if hasattr(packed, "weights")
                           else packed)

    mpu.gemm(prepared, x, accumulate_dtype=np.float32)  # warm both paths
    mpu.gemm(prepared, x, accumulate_dtype=np.float32, executor="interpreted")
    y, stats = run_once(benchmark, mpu.gemm, prepared, x,
                        accumulate_dtype=np.float32)

    best_compiled = best_interp = 1e9
    for _ in range(7):
        start = time.perf_counter()
        mpu.gemm(prepared, x, accumulate_dtype=np.float32)
        best_compiled = min(best_compiled, time.perf_counter() - start)
        start = time.perf_counter()
        y_int, stats_int = mpu.gemm(prepared, x, accumulate_dtype=np.float32,
                                    executor="interpreted")
        best_interp = min(best_interp, time.perf_counter() - start)
    speedup = best_interp / best_compiled

    rows = [["interpreted executor", best_interp * 1e3, 1.0],
            ["compiled program", best_compiled * 1e3, speedup]]
    print("\n[MPU speed] 256x512 @ batch 1 / 4-bit / fp32 accumulators\n"
          + format_table(["Path", "Time (ms)", "Speedup"], rows))

    np.testing.assert_array_equal(y, y_int)
    assert stats == stats_int
    record_bench("mpu_speed::compiled_vs_interpreted", "speedup_x",
                 speedup, floor=1.5)
    # Conservative floor (measured ~2.5x); catches the compiled path
    # silently falling back to the plan walk.
    assert speedup > 1.5


def test_mpu_large_shape_compiled_vs_interpreted(benchmark):
    """Auto-tier compiled vs interpreted on a large prefill shape.

    1024×1024 at batch 8/32 is where the fused one-big-gather loses to the
    interpreted walk — its (slots × rows × batch) intermediate stops
    fitting cache — and exactly what the blocked lowering tier exists for:
    ``tier="auto"`` must lower this shape blocked, and the compiled
    program must never run slower than the interpreted executor (floor
    1.0x, target 1.3x) while staying bit-identical, outputs and stats.
    """
    rng = np.random.default_rng(5)
    w = rng.standard_normal((1024, 1024)) * 0.05
    packed = prepare_weights(w, bits=3, method="bcq", group_size=128)
    mpu = MatrixProcessingUnit(MPUConfig())
    prepared = mpu.prepare(packed.weights if hasattr(packed, "weights")
                           else packed)
    assert prepared.tier == "blocked", \
        "auto tier selection must lower this working set blocked"

    x8 = rng.standard_normal((1024, 8))
    run_once(benchmark, mpu.gemm, prepared, x8, accumulate_dtype=np.float32)

    rows, worst = [], float("inf")
    for batch in (8, 32):
        x = x8 if batch == 8 else rng.standard_normal((1024, batch))
        y_c, s_c = mpu.gemm(prepared, x, accumulate_dtype=np.float32)  # warm
        y_i, s_i = mpu.gemm(prepared, x, accumulate_dtype=np.float32,
                            executor="interpreted")
        np.testing.assert_array_equal(y_c, y_i)
        assert s_c == s_i
        # Median of paired per-round ratios (like the telemetry-overhead
        # benchmark): both paths run back-to-back each round, so ambient
        # machine load cancels out of the ratio instead of skewing a
        # best-of comparison.
        ratios, med_c, med_i = [], [], []
        for _ in range(11):
            start = time.perf_counter()
            mpu.gemm(prepared, x, accumulate_dtype=np.float32)
            t_compiled = time.perf_counter() - start
            start = time.perf_counter()
            mpu.gemm(prepared, x, accumulate_dtype=np.float32,
                     executor="interpreted")
            t_interp = time.perf_counter() - start
            ratios.append(t_interp / t_compiled)
            med_c.append(t_compiled)
            med_i.append(t_interp)
        speedup = sorted(ratios)[len(ratios) // 2]
        worst = min(worst, speedup)
        rows.append([f"batch {batch}",
                     sorted(med_i)[len(med_i) // 2] * 1e3,
                     sorted(med_c)[len(med_c) // 2] * 1e3, speedup])

    print("\n[MPU speed] 1024x1024 / 3-bit / fp32 accumulators "
          f"(blocked tier, budget {prepared.program.gather_budget})\n"
          + format_table(["Shape", "Interpreted (ms)", "Compiled (ms)",
                          "Speedup"], rows))
    record_bench("mpu_speed::large_shape_compiled_vs_interpreted",
                 "speedup_x", worst, floor=1.0)
    # Floor 1.0x: the blocked tier replays the interpreted update order
    # from flat buffers, so it must never lose to the interpreter it
    # mirrors (target 1.3x; measured above that on the reference machine).
    assert worst > 1.0


def test_mpu_native_speedup_vs_numpy_fused(benchmark):
    """Native executor vs the NumPy fused program at 512×2048, batch 8.

    The same float64 program runs through :meth:`~repro.core.program.
    CompiledProgram.execute` (one native C call) and through
    :meth:`~repro.core.program.CompiledProgram.execute_numpy` on the fused
    tier (the NumPy executor and the native executor's oracle).  Outputs
    must be bitwise identical; the floor is 3x (prototype measured ~3.8x
    on the w2 layer shape).  Skipped where the native library cannot be
    built — CI fails separately if it does not load there.
    """
    if native.load() is None:
        pytest.skip("native executor unavailable (no C compiler)")
    rng = np.random.default_rng(7)
    w = rng.standard_normal((512, 2048)) * 0.05
    tensor = quantize_bcq(w, BCQConfig(bits=2, group_size=32, iterations=1))
    config = MPUConfig(pe_rows=4, pe_cols=2, mu=4, k=4)
    mpu = MatrixProcessingUnit(config)
    program = compile_plan(mpu.plan(tensor), tensor, config, tier="fused")
    x = rng.standard_normal((2048, 8))
    f64 = np.dtype(np.float64)

    y, stats = run_once(benchmark, program.execute, x)
    np.testing.assert_array_equal(y, program.execute_numpy(x, f64))
    assert stats == mpu.gemm(tensor, x, executor="interpreted")[1]

    # Median of paired per-round ratios, so ambient load cancels out.
    ratios, t_native, t_numpy = [], [], []
    for _ in range(9):
        start = time.perf_counter()
        program.execute(x)
        t_n = time.perf_counter() - start
        start = time.perf_counter()
        program.execute_numpy(x, f64)
        t_p = time.perf_counter() - start
        ratios.append(t_p / t_n)
        t_native.append(t_n)
        t_numpy.append(t_p)
    speedup = float(np.median(ratios))
    rows = [["NumPy fused program", np.median(t_numpy) * 1e3, 1.0],
            ["native executor", np.median(t_native) * 1e3, speedup]]
    print("\n[MPU speed] 512x2048 @ batch 8 / 2-bit / fp64 accumulators\n"
          + format_table(["Path", "Time (ms)", "Speedup"], rows))
    record_bench("mpu_speed::native_vs_numpy_fused", "speedup_x", speedup,
                 floor=3.0)
    assert speedup > 3.0


def test_mpu_detailed_api_full_stack(benchmark):
    """`figlut_gemm(detailed=True)` end-to-end on a production-shaped slice."""
    rng = np.random.default_rng(2)
    w = rng.standard_normal((1024, 1024)) * 0.05
    x = rng.standard_normal((1024, 16))
    packed = prepare_weights(w, bits=3, method="bcq", group_size=128)

    y, stats = run_once(benchmark, figlut_gemm, packed, x, detailed=True,
                        accumulator="fp32")

    assert y.shape == (1024, 16)
    reference = packed.dequantize() @ x
    rel = float(np.linalg.norm(y - reference) / np.linalg.norm(reference))
    print(f"\n[MPU speed] figlut_gemm(detailed=True) 1024x1024 @ 16: "
          f"relative error {rel:.2e}, cycles {stats.cycles:,}")
    assert rel < 1e-5
    assert stats.cycles > 0
