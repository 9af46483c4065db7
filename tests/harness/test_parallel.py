"""Parallel sweep engine: determinism, failure identity, job plumbing."""

import os
import pickle
import time

import pytest

from repro.errors import ConfigError, SweepWorkerError
from repro.harness import parallel
from repro.harness.config import setup_for
from repro.harness.parallel import (JobSpec, JobTimeout, execute_jobs,
                                    expected_nodes_for, fork_available,
                                    job_timeout, resolve_jobs)
from repro.harness.sweep import run_sweep

SETUP = setup_for("fig4", "test")

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="platform lacks fork")


def _fingerprint(run):
    """Everything a figure reads from a run (host timings excluded)."""
    return (
        run.algorithm, run.n_threads, run.chunk_size, run.machine_name,
        run.tree_description, run.total_nodes, run.sim_time,
        run.node_visit_time,
        tuple(
            (s.rank, s.nodes_visited, s.releases, s.reacquires, s.probes,
             s.steal_attempts, s.steals_ok, s.chunks_stolen, s.nodes_stolen,
             s.requests_granted, s.requests_denied, s.barrier_entries,
             s.barrier_exits, s.msgs_sent, s.tokens_forwarded,
             tuple(sorted(s.timer.times.items())))
            for s in run.per_thread
        ),
    )


@needs_fork
class TestDeterminism:
    def test_parallel_matches_serial(self):
        serial = run_sweep(SETUP, jobs=1)
        parallel = run_sweep(SETUP, jobs=4)
        assert len(serial.runs) == len(parallel.runs) == (
            len(SETUP.algorithms) * len(SETUP.thread_counts)
            * len(SETUP.chunk_sizes))
        for a, b in zip(serial.runs, parallel.runs):
            assert _fingerprint(a) == _fingerprint(b)
        assert serial.expected_nodes == parallel.expected_nodes

    def test_grid_order_preserved(self):
        parallel = run_sweep(SETUP, jobs=3)
        expected_cells = [
            (alg, threads, k)
            for alg in SETUP.algorithms
            for threads in SETUP.thread_counts
            for k in SETUP.chunk_sizes
        ]
        got = [(r.algorithm, r.n_threads, r.chunk_size)
               for r in parallel.runs]
        assert got == expected_cells

    def test_progress_reports_wall_clock_and_speedup(self):
        lines = []
        run_sweep(SETUP, jobs=2, progress=lines.append)
        summary = lines[-1]
        assert "host wall-clock" in summary
        assert "speedup" in summary
        assert "jobs=2" in summary


class TestWorkerFailure:
    def _bad_jobs(self):
        expected = expected_nodes_for(SETUP.tree)
        good = JobSpec(index=0, algorithm="upc-distmem", tree=SETUP.tree,
                       threads=4, preset=SETUP.preset, chunk_size=4,
                       expected_nodes=expected)
        # threads=0 raises ConfigError inside the worker.
        bad = JobSpec(index=1, algorithm="upc-term", tree=SETUP.tree,
                      threads=0, preset=SETUP.preset, chunk_size=2,
                      expected_nodes=expected)
        return [good, bad]

    def test_serial_failure_carries_identity(self):
        with pytest.raises(SweepWorkerError) as err:
            execute_jobs(self._bad_jobs(), n_jobs=1)
        msg = str(err.value)
        assert "upc-term" in msg and "T=0" in msg and "k=2" in msg
        assert "ConfigError" in msg  # worker traceback included

    @needs_fork
    def test_parallel_failure_carries_identity(self):
        with pytest.raises(SweepWorkerError) as err:
            execute_jobs(self._bad_jobs(), n_jobs=2)
        msg = str(err.value)
        assert "upc-term" in msg and "T=0" in msg and "k=2" in msg

    def test_verification_failure_surfaces(self):
        job = JobSpec(index=0, algorithm="upc-distmem", tree=SETUP.tree,
                      threads=2, preset=SETUP.preset, chunk_size=2,
                      expected_nodes=12345)  # wrong oracle on purpose
        with pytest.raises(SweepWorkerError, match="upc-distmem"):
            execute_jobs([job], n_jobs=1)


class TestPlumbing:
    def test_jobspec_picklable(self):
        job = JobSpec(index=3, algorithm="mpi-ws", tree=SETUP.tree,
                      threads=8, preset="topsail", chunk_size=16,
                      expected_nodes=99)
        assert pickle.loads(pickle.dumps(job)) == job

    def test_run_result_picklable(self):
        run = execute_jobs([JobSpec(
            index=0, algorithm="upc-distmem", tree=SETUP.tree, threads=2,
            preset=SETUP.preset, chunk_size=4,
            expected_nodes=expected_nodes_for(SETUP.tree))], n_jobs=1)[0]
        clone = pickle.loads(pickle.dumps(run))
        assert _fingerprint(clone) == _fingerprint(run)

    def test_resolve_jobs_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(5) == 5
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3
        assert resolve_jobs(2) == 2  # explicit argument wins
        import os
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_cost_hint_orders_small_k_first(self):
        mk = lambda alg, k: JobSpec(index=0, algorithm=alg, tree=SETUP.tree,
                                    threads=8, preset="kittyhawk",
                                    chunk_size=k)
        assert mk("upc-distmem", 1).cost_hint() > \
            mk("upc-distmem", 64).cost_hint()
        assert mk("upc-sharedmem", 1).cost_hint() > \
            mk("upc-distmem", 1).cost_hint()

    def test_empty_job_list(self):
        assert execute_jobs([], n_jobs=4) == []


class TestHardening:
    """Retry-once, exception chaining, and env-var validation."""

    def _job(self):
        return JobSpec(index=0, algorithm="upc-distmem", tree=SETUP.tree,
                       threads=2, preset=SETUP.preset, chunk_size=4,
                       expected_nodes=expected_nodes_for(SETUP.tree))

    def test_resolve_jobs_rejects_non_integer_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError, match="'many'"):
            resolve_jobs(None)

    def test_resolve_jobs_rejects_negative_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ConfigError, match="'-2'"):
            resolve_jobs(None)

    @pytest.mark.parametrize("jobs", [-1, -3])
    def test_resolve_jobs_rejects_negative_argument(self, monkeypatch, jobs):
        """``--jobs -3`` is rejected like ``REPRO_JOBS=-3``, not read as
        "one worker per CPU"."""
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        with pytest.raises(ConfigError, match=f"jobs={jobs} is negative"):
            resolve_jobs(jobs)

    def test_resolve_jobs_env_zero_means_one_per_cpu(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_job_timeout_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)
        assert job_timeout() == 0.0
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "2.5")
        assert job_timeout() == 2.5
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "soon")
        with pytest.raises(ConfigError, match="'soon'"):
            job_timeout()
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "-1")
        with pytest.raises(ConfigError, match="'-1'"):
            job_timeout()

    def test_transient_failure_retried_once(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)
        real = parallel._execute_job
        calls = []

        def flaky(job):
            calls.append(job.index)
            if len(calls) == 1:
                raise OSError("transient host trouble")
            return real(job)

        monkeypatch.setattr(parallel, "_execute_job", flaky)
        before = parallel.retried_jobs
        results = execute_jobs([self._job()], n_jobs=1)
        assert len(results) == 1 and results[0].total_nodes > 0
        assert calls == [0, 0]
        assert parallel.retried_jobs == before + 1

    def test_persistent_failure_chains_cause(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)

        def broken(job):
            raise ValueError("always broken")

        monkeypatch.setattr(parallel, "_execute_job", broken)
        with pytest.raises(SweepWorkerError) as err:
            execute_jobs([self._job()], n_jobs=1)
        assert isinstance(err.value.__cause__, ValueError)
        assert "always broken" in str(err.value)
        assert "upc-distmem" in str(err.value)

    def test_job_timeout_interrupts_and_is_not_retried(self, monkeypatch):
        calls = []

        def hangs(job):
            calls.append(1)
            time.sleep(10.0)
            raise AssertionError("deadline never fired")

        monkeypatch.setattr(parallel, "_execute_job", hangs)
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0.1")
        with pytest.raises(SweepWorkerError, match="REPRO_JOB_TIMEOUT") as err:
            execute_jobs([self._job()], n_jobs=1)
        assert isinstance(err.value.__cause__, JobTimeout)
        assert calls == [1]  # timeouts are not retried

    def test_no_timeout_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)
        results = execute_jobs([self._job()], n_jobs=1)
        assert results[0].total_nodes == expected_nodes_for(SETUP.tree)
