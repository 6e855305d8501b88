"""SpanProfiler: analytic DAG pins, attribution identity."""

import json

import pytest

from repro.apps.fib import (
    FIB_NODE_CYCLES,
    FIB_SUM_CYCLES,
    fib_job,
    fib_serial,
    node_count,
    task_count,
)
from repro.cluster.platform import SPARCSTATION_1
from repro.obs import SpanProfiler
from repro.obs.probe import Probe
from repro.obs.prof import BUCKETS, PROFILE_SCHEMA
from repro.phish import run_job
from tests.obs.emitting import emitter


def _task_emitter(prof):
    """Feed a profiler the way a run does: through a Probe's table."""
    probe = Probe()
    prof.subscribe(probe)
    return emitter(probe)


def _profiled_fib(n, n_workers, seed):
    prof = SpanProfiler()
    res = run_job(fib_job(n), n_workers=n_workers, seed=seed, profiler=prof)
    assert res.result == fib_serial(n)
    return res, prof


# Per-task charged cycles under the paper's cost model: every task pays
# dispatch + poll + dynamic-set, then its app work plus per-operation
# scheduling costs (spawn/successor, send) — see tasks/program.py.
_P = SPARCSTATION_1
_BASE = _P.schedule_cycles + _P.poll_cycles + _P.dynamic_set_cycles
#: internal fib: work + one successor + two spawns.
_FIB_INTERNAL = _BASE + FIB_NODE_CYCLES + 3 * _P.spawn_cycles
#: leaf fib (n < 2): work + one send.
_FIB_LEAF = _BASE + FIB_NODE_CYCLES + _P.sync_cycles
#: fib_sum join: work + one send.
_FIB_SUM = _BASE + FIB_SUM_CYCLES + _P.sync_cycles


def _t1_cycles(n):
    nodes = node_count(n)
    internal = (nodes - 1) // 2
    leaves = nodes - internal
    return internal * _FIB_INTERNAL + leaves * _FIB_LEAF + internal * _FIB_SUM


def _t_inf_cycles(n):
    """Deepest chain: fib(n)..fib(2) internal, the fib(1) leaf, then the
    n-1 fib_sum joins back up."""
    return (n - 1) * _FIB_INTERNAL + _FIB_LEAF + (n - 1) * _FIB_SUM


class TestFibAnalyticPin:
    """fib(n)'s recorded DAG must reproduce the closed forms exactly:
    the task DAG is determined by the program alone, so node count,
    critical-path depth, T1 and T-inf are seed- and P-independent."""

    N = 10
    P = 4
    SEED = 1

    @pytest.fixture(scope="class")
    def run(self):
        return _profiled_fib(self.N, self.P, self.SEED)

    def test_node_count_exact(self, run):
        _res, prof = run
        assert prof.nodes == task_count(self.N)

    def test_critical_path_depth_exact(self, run):
        # Deepest chain: fib(n) -> ... -> fib(1), then n-1 fib_sum joins.
        _res, prof = run
        assert prof.max_depth == 2 * self.N - 1

    def test_t1_matches_closed_form(self, run):
        _res, prof = run
        assert prof.t1_s == pytest.approx(
            SPARCSTATION_1.seconds(_t1_cycles(self.N)))

    def test_t_inf_matches_closed_form(self, run):
        _res, prof = run
        assert prof.t_inf_s == pytest.approx(
            SPARCSTATION_1.seconds(_t_inf_cycles(self.N)))

    def test_parallelism_is_ratio(self, run):
        _res, prof = run
        assert prof.parallelism == pytest.approx(prof.t1_s / prof.t_inf_s)

    def test_dag_independent_of_worker_count_and_seed(self, run):
        _res, prof = run
        _res1, prof1 = _profiled_fib(self.N, 1, self.SEED + 7)
        assert prof1.nodes == prof.nodes
        assert prof1.max_depth == prof.max_depth
        assert prof1.t1_s == pytest.approx(prof.t1_s)
        assert prof1.t_inf_s == pytest.approx(prof.t_inf_s)

    def test_live_dag_state_drains(self, run):
        """O(live-closures) claim: after a clean run nothing is pending."""
        _res, prof = run
        assert prof._base == {}
        assert prof._bdepth == {}
        assert all(out is None for out in prof._exec.values())

    def test_bound_report_sane(self, run):
        res, prof = run
        rep = prof.bound_report(res.makespan, self.P,
                                SPARCSTATION_1.net.wire_latency_s)
        assert rep["greedy_bound_s"] == pytest.approx(
            prof.t1_s / self.P + prof.t_inf_s)
        assert rep["gast_bound_s"] > prof.t1_s / self.P
        assert 0.0 < rep["efficiency"] <= 1.0


class TestAttribution:
    def test_buckets_partition_wall(self):
        res, prof = _profiled_fib(12, 4, 3)
        workers = res.profile["workers"]
        assert len(workers) == 4
        for name, row in workers.items():
            measured = sum(row[f"{b}_s"] for b in BUCKETS)
            assert measured <= row["wall_s"] + 1e-9, name
            assert row["idle_s"] == pytest.approx(
                row["wall_s"] - measured, abs=1e-12)
            assert row["exit"] == "done"

    def test_working_bucket_sums_to_at_least_t1(self):
        # "working" spans the charged execution yield, so summed across
        # workers it can't be smaller than the work it charged.
        res, prof = _profiled_fib(12, 4, 3)
        working = sum(row["working_s"]
                      for row in res.profile["workers"].values())
        assert working >= prof.t1_s - 1e-9

    def test_summary_is_json_ready_and_schema_tagged(self):
        res, _prof = _profiled_fib(8, 2, 0)
        summary = res.profile
        assert summary["schema"] == PROFILE_SCHEMA
        json.dumps(summary)  # must not raise

    def test_finalize_idempotent(self):
        _res, prof = _profiled_fib(8, 2, 0)
        before = json.dumps(prof.summary(), sort_keys=True)
        prof.finalize()
        assert json.dumps(prof.summary(), sort_keys=True) == before


class TestRedoInheritance:
    def test_copy_extends_original_critical_path(self):
        """A re-keyed redo copy inherits the original's pending span and
        depth, so the redone subtree extends the path, not restarts it."""
        prof = SpanProfiler()
        emit = _task_emitter(prof)
        emit(0.0, "closure.exec", "w0", cid=1, thread="t")
        emit(0.0, "closure.new", "w0", cid=2)
        emit(0.0, "task.done", "w0", cid=1, thread="t", depth=0, service_s=1.0)
        emit(1.0, "task.charged", "w0", cid=1)
        assert prof.t_inf_s == 1.0 and prof.max_depth == 1
        # Closure 2 is lost before executing; its redo copy is 9.
        emit(1.5, "redo", "w0", dead="w9", n=1, pairs=[(2, 9)])
        emit(2.0, "closure.exec", "w1", cid=9, thread="t")
        emit(2.0, "task.done", "w1", cid=9, thread="t", depth=0, service_s=2.0)
        emit(4.0, "task.charged", "w1", cid=9)
        assert prof.redo_copies == 1
        assert prof.t_inf_s == pytest.approx(3.0)  # 1.0 inherited + 2.0
        assert prof.max_depth == 2
        assert prof.t1_s == pytest.approx(3.0)  # redone work still counts

    def test_redo_of_untouched_closure_is_noop_on_dag(self):
        prof = SpanProfiler()
        emit = _task_emitter(prof)
        emit(0.0, "redo", "w0", dead="w9", n=1, pairs=[(5, 6)])
        emit(1.0, "closure.exec", "w0", cid=6, thread="t")
        emit(1.0, "task.done", "w0", cid=6, thread="t", depth=0, service_s=1.0)
        emit(2.0, "task.charged", "w0", cid=6)
        assert prof.t_inf_s == pytest.approx(1.0)
        assert prof.max_depth == 1
