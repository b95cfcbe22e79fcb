"""Unit tests for the benchmark drivers (repro.bench)."""

import numpy as np
import pytest

from repro.bench import (
    RANKS_PER_NODE,
    SETUP_PHASES,
    SOLVE_PHASES,
    bench_scale,
    machine_for,
    run_amgx,
    run_distributed,
    run_single_node,
)
from repro.config import amgx_config, multi_node_config, single_node_config
from repro.problems import laplace_2d_5pt


class TestMachineFor:
    def test_prefetch_changes_irregular_efficiency(self):
        m_opt = machine_for(single_node_config(True))
        m_base = machine_for(single_node_config(False))
        assert m_opt.irregular_efficiency > m_base.irregular_efficiency

    def test_gpu_model(self):
        m = machine_for(amgx_config(), gpu=True)
        assert m.stream_bw == pytest.approx(249e9)
        assert m.launch_overhead > 0

    def test_thread_cap(self):
        m = machine_for(single_node_config(True, nthreads=500))
        assert m.threads == 14


class TestRunSingleNode:
    @pytest.fixture(scope="class")
    def result(self):
        A = laplace_2d_5pt(24)
        return run_single_node(A, single_node_config(True, nthreads=4),
                               label="opt", name="lap")

    def test_phase_buckets_complete(self, result):
        assert set(result.setup_phase_times) == set(SETUP_PHASES)
        assert set(result.solve_phase_times) == set(SOLVE_PHASES)

    def test_times_positive_and_consistent(self, result):
        assert result.setup_time > 0
        assert result.solve_time > 0
        assert result.total_time == pytest.approx(
            result.setup_time + result.solve_time
        )
        assert result.time_per_iteration == pytest.approx(
            result.solve_time / result.iterations
        )

    def test_converged(self, result):
        assert result.converged and result.iterations > 0
        assert 1.0 < result.operator_complexity < 6.0

    def test_amgx_buckets_are_totals_only(self):
        A = laplace_2d_5pt(16)
        r = run_amgx(A, name="lap")
        assert r.setup_phase_times["Strength+Coarsen"] == 0.0
        assert r.setup_phase_times["Setup_etc"] == r.setup_time
        assert r.solve_phase_times["Solve_etc"] == r.solve_time


class TestRunDistributed:
    @pytest.fixture(scope="class")
    def result(self):
        A = laplace_2d_5pt(20)
        return run_distributed(A, multi_node_config("ei", nthreads=4), 2,
                               label="ei", tol=1e-7)

    def test_rank_count(self, result):
        assert result.nranks == 2 * RANKS_PER_NODE

    def test_phases_split(self, result):
        assert result.setup_comm > 0
        assert result.solve_comm > 0
        assert "RAP" in result.setup_compute
        assert "GS" in result.solve_compute
        pt = result.phase_times()
        assert "Solve_MPI" in pt and "Setup_MPI" in pt

    def test_comm_volume_positive(self, result):
        assert result.comm_volume > 0
        assert result.halo_messages > 0

    def test_converged(self, result):
        assert result.converged

    def test_standalone_outer(self):
        A = laplace_2d_5pt(16)
        r = run_distributed(A, multi_node_config("ei", nthreads=2), 1,
                            label="ei", outer="amg", tol=1e-7)
        assert r.converged


class TestBenchScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale(64) == 64

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "128")
        assert bench_scale(64) == 128


class TestThreadPins:
    """``tests/conftest.py`` pins the BLAS / OpenMP pools before numpy loads."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def test_pin_came_before_numpy(self):
        import os

        import conftest

        # No plugin imported numpy ahead of the root conftest ...
        assert conftest.BLAS_PINNED
        # ... so every pool variable is set (to 1 unless the user chose).
        assert all(os.environ.get(v) for v in self.VARS)

    def test_users_own_setting_wins(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env["OPENBLAS_NUM_THREADS"] = "3"
        env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c",
             "import os, runpy; runpy.run_path('conftest.py'); "
             f"print([os.environ[v] for v in {self.VARS!r}])"],
            cwd=Path(__file__).parent, env=env, capture_output=True,
            text=True, check=True).stdout
        assert out.strip() == "['3', '1', '1']"
