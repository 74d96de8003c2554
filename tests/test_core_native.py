"""Native executor tests: one C call per GEMM, bitwise equal to NumPy.

:meth:`~repro.core.program.CompiledProgram.execute` runs float64 fused and
blocked programs on the native executor (:mod:`repro.core.native`) when
its library builds.  The contract pinned here: native == NumPy compiled
(:meth:`~repro.core.program.CompiledProgram.execute_numpy`, both tiers)
== interpreted == reference, outputs bitwise and ``MPURunStats`` with
``==``, on every plan family, batch width and activation layout — and
every fallback route (fp16/fp32 accumulators, a missing or failing
compiler, a malformed program) lands on the NumPy executor with identical
bits and at most one warning.

On a machine without a C compiler the equivalence tests still run: they
then pin the NumPy fallback against the oracles.
"""

import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import native
from repro.core.mpu import MPUConfig, MatrixProcessingUnit
from repro.core.program import compile_plan
from repro.quant.bcq import BCQConfig, quantize_bcq, quantize_bcq_mixed
from repro.serve import compile_shard_programs, merge_shard_outputs, shard_plan
from repro.telemetry import telemetry_session

# Segments of 4 (µ=4) and 5 (µ=3) LUT groups: with three or more partial
# terms per row a reordered accumulation changes the bits, so the kernel's
# summation order is actually tested.
CONFIGS = {"mu4": MPUConfig(pe_rows=4, pe_cols=2, mu=4, k=4),
           "mu3": MPUConfig(pe_rows=5, pe_cols=2, mu=3, k=2)}
MPU_CFG = CONFIGS["mu4"]

KINDS = ["uniform", "ragged", "mixed"]
# (batch, activation layout): every batch C-, F-ordered and strided, plus
# vector input (batch 1).
CASES = [(b, layout) for b in (0, 1, 2, 8, 128)
         for layout in ("C", "F", "strided")] + [(1, "vector")]
F64 = np.dtype(np.float64)

NATIVE = native.load() is not None


def _tensor(rng, kind):
    if kind == "uniform":
        w = rng.standard_normal((32, 64)) * 0.1
        return quantize_bcq(w, BCQConfig(bits=3, group_size=32, iterations=1))
    if kind == "ragged":  # ragged µ tails and padded slots
        w = rng.standard_normal((29, 53)) * 0.1
        return quantize_bcq(w, BCQConfig(bits=3, group_size=19, iterations=1))
    # mixed per-row precision: masked passes (rows is not None)
    w = rng.standard_normal((30, 52)) * 0.1
    row_bits = rng.choice([1, 2, 3, 4], size=30)
    return quantize_bcq_mixed(w, row_bits, BCQConfig(group_size=26, iterations=1))


def _activations(rng, n, batch, layout):
    if layout == "vector":
        return rng.standard_normal(n)
    if layout == "strided":
        return rng.standard_normal((2 * n, 3 * batch + 1))[::2, ::3][:, :batch]
    x = rng.standard_normal((n, batch))
    return np.asfortranarray(x) if layout == "F" else x


def _assert_same(lhs, rhs):
    np.testing.assert_array_equal(lhs[0], rhs[0])
    assert lhs[1] == rhs[1]


def _numpy(program, x, acc=F64):
    """The NumPy executor's result, shaped like execute()'s."""
    x2 = np.asarray(x, dtype=np.float64)
    y = program.execute_numpy(x2[:, None] if x2.ndim == 1 else x2, acc)
    batch = 1 if x2.ndim == 1 else x2.shape[1]
    return (y[:, 0] if x2.ndim == 1 else y), program.stats(batch)


@pytest.fixture
def fresh_native():
    """Forget the loaded library and issued warnings around a test."""
    native._reset()
    yield
    native._reset()


class TestNativeEquivalence:
    @pytest.mark.parametrize("cfg", sorted(CONFIGS))
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("batch,layout", CASES)
    def test_native_matches_numpy_interpreted_reference(self, rng, cfg, kind,
                                                        batch, layout):
        config = CONFIGS[cfg]
        tensor = _tensor(rng, kind)
        x = _activations(rng, tensor.shape[1], batch, layout)
        mpu = MatrixProcessingUnit(config)
        plan = mpu.plan(tensor)
        out = mpu.gemm(tensor, x)
        for tier in ("fused", "blocked"):
            program = compile_plan(plan, tensor, config, tier=tier)
            _assert_same(program.execute(x), out)
            _assert_same(_numpy(program, x), out)
        _assert_same(out, mpu.gemm(tensor, x, executor="interpreted"))
        if batch <= 8:  # the scalar walk is slow; interpreted covers 128
            _assert_same(out, mpu.gemm(tensor, x, executor="reference"))

    @pytest.mark.skipif(not NATIVE, reason="native executor unavailable")
    @pytest.mark.parametrize("cfg", sorted(CONFIGS))
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("batch", [1, 3, 8, 13, 128])
    def test_kernel_called_directly(self, rng, cfg, kind, batch):
        """The kernel itself (not a silent fallback) produces the bits."""
        tensor = _tensor(rng, kind)
        program = MatrixProcessingUnit(CONFIGS[cfg]).prepare(tensor).program
        x = rng.standard_normal((tensor.shape[1], batch))
        sums = np.concatenate([program._group_sum(x, k)
                               for k in range(len(program.offset_slices))])
        y = native.run(program, x, sums)
        assert y is not None
        np.testing.assert_array_equal(y, program.execute_numpy(x, F64))

    def test_nonfinite_and_signed_zero_activations(self, rng):
        tensor = _tensor(rng, "ragged")
        mpu = MatrixProcessingUnit(MPU_CFG)
        x = rng.standard_normal((tensor.shape[1], 9))
        x[3, 2], x[5, 4], x[0, 0] = np.inf, -np.inf, 0.0
        x[7, 1] = -0.0
        program = mpu.prepare(tensor).program
        with np.errstate(invalid="ignore"):  # inf - inf in the oracles
            _assert_same(program.execute(x), _numpy(program, x))
            _assert_same(program.execute(x),
                         mpu.gemm(tensor, x, executor="interpreted"))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("num_shards", [2, 5])
    @pytest.mark.parametrize("batch", [1, 8])
    def test_segment_shard_subprograms(self, rng, kind, num_shards, batch):
        tensor = _tensor(rng, kind)
        x = rng.standard_normal((tensor.shape[1], batch))
        mpu = MatrixProcessingUnit(MPU_CFG)
        shards = shard_plan(mpu.plan(tensor), num_shards, axis="segments")
        results = []
        for shard, prog in zip(shards, compile_shard_programs(
                shards, tensor, MPU_CFG), strict=True):
            got = prog.execute(x)
            _assert_same(got, _numpy(prog, x))
            _assert_same(got, mpu.gemm(tensor, x, shard=shard,
                                       executor="interpreted"))
            results.append(got)
        assert merge_shard_outputs(shards, results)[1] == mpu.gemm(tensor, x)[1]

    def test_threads_share_one_program(self, rng, fresh_native):
        """More threads than cores race the first load, the first handle
        build and the kernel itself on one program; every result stays
        bitwise equal to the NumPy executor's."""
        tensor = _tensor(rng, "mixed")
        program = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        inputs = [rng.standard_normal((tensor.shape[1], b))
                  for b in (1, 8, 3, 16) * 4]
        expected = [_numpy(program, x) for x in inputs]
        failures = []
        start = threading.Barrier(4)

        def worker(offset):
            start.wait(timeout=30)
            for i in range(offset, len(inputs), 4):
                for _ in range(5):
                    got = program.execute(inputs[i])
                    if not (np.array_equal(got[0], expected[i][0])
                            and got[1] == expected[i][1]):
                        failures.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(o,))
                       for o in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestFallback:
    @pytest.mark.parametrize("acc", [np.float16, np.float32])
    def test_narrow_accumulators_run_numpy_with_one_warning(
            self, rng, acc, fresh_native):
        tensor = _tensor(rng, "mixed")
        x = rng.standard_normal((tensor.shape[1], 4))
        mpu = MatrixProcessingUnit(MPU_CFG)
        program = mpu.prepare(tensor).program
        with pytest.warns(RuntimeWarning, match="float64 only") as record:
            first = program.execute(x, accumulate_dtype=acc)
            second = program.execute(x, accumulate_dtype=acc)
        assert len(record) == 1
        _assert_same(first, second)
        _assert_same(first, _numpy(program, x, np.dtype(acc)))
        _assert_same(first, mpu.gemm(tensor, x, accumulate_dtype=acc,
                                     executor="interpreted"))

    def _assert_falls_back(self, rng, match):
        tensor = _tensor(rng, "ragged")
        x = rng.standard_normal((tensor.shape[1], 8))
        mpu = MatrixProcessingUnit(MPU_CFG)
        program = mpu.prepare(tensor).program
        with pytest.warns(RuntimeWarning, match=match) as record:
            got = [program.execute(x) for _ in range(3)]
        assert len(record) == 1
        assert native.load() is None
        for g in got:
            _assert_same(g, _numpy(program, x))
            _assert_same(g, mpu.gemm(tensor, x, executor="interpreted"))

    def test_missing_compiler(self, rng, monkeypatch, fresh_native):
        monkeypatch.setattr(native, "_find_compiler", lambda: None)
        self._assert_falls_back(rng, "no C compiler")

    def test_failing_compiler(self, rng, monkeypatch, tmp_path, fresh_native):
        fake = tmp_path / "cc"
        fake.write_text("#!/bin/sh\n"
                        "if [ \"$1\" = --version ]; then echo fake-cc 0; "
                        "exit 0; fi\necho 'cc: error' >&2\nexit 1\n")
        fake.chmod(0o755)
        monkeypatch.setattr(native, "_find_compiler", lambda: str(fake))
        monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
        self._assert_falls_back(rng, "exited 1")
        assert not list(tmp_path.glob("*.so"))

    def test_failing_loader(self, rng, monkeypatch, fresh_native):
        def broken():
            raise OSError("cannot load library")
        monkeypatch.setattr(native, "_load_library", broken)
        self._assert_falls_back(rng, "cannot load library")

    @pytest.mark.skipif(not NATIVE, reason="native executor unavailable")
    def test_out_of_range_key_stays_on_numpy(self, rng):
        tensor = _tensor(rng, "uniform")
        program = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        program.passes[0].keys[0, 0] = 1 << MPU_CFG.mu
        x = rng.standard_normal((tensor.shape[1], 2))
        assert native.run(program, x, np.zeros((0, 2))) is None
        with pytest.raises(IndexError):
            program.execute(x)

    def test_relaxed_tier_stays_on_numpy(self, rng):
        tensor = _tensor(rng, "uniform")
        mpu = MatrixProcessingUnit(MPU_CFG)
        program = compile_plan(mpu.plan(tensor), tensor, MPU_CFG,
                               tier="relaxed", allow_reassociation=True)
        x = rng.standard_normal((tensor.shape[1], 3))
        _assert_same(program.execute(x), _numpy(program, x))


@pytest.mark.skipif(not NATIVE, reason="native executor unavailable")
class TestNativeProfile:
    def test_rollups_keyed_native_with_numpy_byte_accounting(self, rng):
        tensor = _tensor(rng, "mixed")
        program = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        x = rng.standard_normal((tensor.shape[1], 8))
        with telemetry_session(profiling=True) as tel:
            program.execute(x)
            profile = tel.profile.snapshot()
        assert set(profile) == {"program.native.luts", "program.native.plane",
                                "program.native.offset"}
        nbytes = program._profile_bytes(8, 8)
        assert profile["program.native.luts"]["bytes"] == nbytes["luts"]
        assert profile["program.native.plane"]["bytes"] == (
            nbytes["plane"] + nbytes["scale"])
        assert profile["program.native.offset"]["bytes"] == nbytes["offset"]
        assert profile["program.native.plane"]["count"] == len(program.passes)
        assert profile["program.native.offset"]["count"] == len(
            program.offset_slices)
        assert all(e["seconds"] > 0 for e in profile.values())

    def test_profiling_leaves_bits_alone(self, rng):
        tensor = _tensor(rng, "ragged")
        program = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        x = rng.standard_normal((tensor.shape[1], 5))
        with telemetry_session(profiling=True):
            profiled = program.execute(x)
        _assert_same(profiled, program.execute(x))


class TestBuild:
    def test_flags_pin_ieee_order(self):
        assert "-ffp-contract=off" in native.CFLAGS
        for flag in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations"):
            assert flag not in native.CFLAGS

    def test_prepare_does_not_build(self, rng, monkeypatch, fresh_native):
        def no_build():
            raise AssertionError("library built outside execute()")
        monkeypatch.setattr(native, "_load_library", no_build)
        MatrixProcessingUnit(MPU_CFG).prepare(_tensor(rng, "uniform"))

    @pytest.mark.skipif(not NATIVE, reason="native executor unavailable")
    def test_two_processes_build_a_cold_cache(self, tmp_path):
        script = textwrap.dedent("""
            import sys, time, warnings
            from pathlib import Path
            import numpy as np
            from repro.core import native
            from repro.core.mpu import MPUConfig, MatrixProcessingUnit
            from repro.quant.bcq import BCQConfig, quantize_bcq
            native._cache_dir = lambda: Path(sys.argv[1])
            time.sleep(max(0.0, float(sys.argv[2]) - time.time()))
            warnings.simplefilter("error")
            assert native.load() is not None
            rng = np.random.default_rng(0)
            t = quantize_bcq(rng.standard_normal((24, 40)),
                             BCQConfig(bits=2, group_size=8, iterations=1))
            cfg = MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=2)
            prog = MatrixProcessingUnit(cfg).prepare(t).program
            x = rng.standard_normal((40, 8))
            y, _ = prog.execute(x)
            assert np.array_equal(y, prog.execute_numpy(x, np.dtype("f8")))
            print("ok")
        """)
        src = Path(native.__file__).resolve().parents[2]
        start = str(time.time() + 1.0)
        procs = [subprocess.Popen([sys.executable, "-c", script,
                                   str(tmp_path), start],
                                  cwd=src, env={**os.environ, "PYTHONPATH": str(src)},
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        for proc in procs:
            out, err = proc.communicate(timeout=240)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        libs = list(tmp_path.glob("*.so"))
        assert len(libs) == 1
        assert not list(tmp_path.glob(".*.tmp"))

