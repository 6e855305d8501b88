"""Serial-vs-sharded fuzz equivalence (the `--jobs` determinism
contract): same seed window => identical failing-seed sets, identical
shrunk-schedule fingerprints, byte-identical summaries."""

import pytest

from repro.check import fuzz, fuzz_sharded
from repro.check.fuzzer import _describe_shard, _run_fuzz_shard
from repro.errors import ReproError


def _fingerprint(result):
    """Everything the determinism contract covers, as plain data."""
    return [
        (f.seed, f.perturbation.describe(), f.shrunk.describe(),
         f.report_summary, f.completed, f.shrink_runs)
        for f in result.failures
    ]


class TestCleanRunEquivalence:
    @pytest.fixture(scope="class")
    def serial(self):
        return fuzz(app="fib", n_seeds=10, start_seed=0)

    def test_jobs_2_matches_serial(self, serial):
        sharded = fuzz_sharded(app="fib", n_seeds=10, start_seed=0, jobs=2)
        assert sharded.result.seeds == serial.seeds
        assert _fingerprint(sharded.result) == _fingerprint(serial)
        assert sharded.result.summary() == serial.summary()

    def test_jobs_1_matches_serial(self, serial):
        sharded = fuzz_sharded(app="fib", n_seeds=10, start_seed=0, jobs=1)
        assert sharded.result.summary() == serial.summary()
        assert sharded.stats.mode == "inline"

    def test_metrics_merged_across_shards(self, serial):
        sharded = fuzz_sharded(app="fib", n_seeds=10, start_seed=0, jobs=2)
        assert sharded.metrics["check.seeds_run"]["value"] == 10
        assert sharded.metrics["check.seed_wall_s"]["count"] == 10
        assert "check.failures" not in sharded.metrics  # clean run

    def test_progress_covers_every_seed(self):
        seen = {}
        fuzz_sharded(app="fib", n_seeds=6, start_seed=0, jobs=2,
                     progress=lambda seed, ok: seen.__setitem__(seed, ok))
        assert seen == {s: True for s in range(6)}


class TestInjectedBugEquivalence:
    """An --inject-bug sweep fails; the failures (and their shrunk
    reproductions, computed in the owning shard) must be identical."""

    @pytest.fixture(scope="class")
    def serial(self):
        return fuzz(app="fib", n_seeds=4, start_seed=25, bug="skip-redo")

    @pytest.fixture(scope="class")
    def sharded(self):
        return fuzz_sharded(app="fib", n_seeds=4, start_seed=25,
                            bug="skip-redo", jobs=2)

    def test_sweep_fails_both_ways(self, serial, sharded):
        assert not serial.ok
        assert not sharded.result.ok

    def test_failing_seed_sets_identical(self, serial, sharded):
        assert ([f.seed for f in sharded.result.failures]
                == [f.seed for f in serial.failures])

    def test_shrunk_fingerprints_identical(self, serial, sharded):
        assert _fingerprint(sharded.result) == _fingerprint(serial)

    def test_summary_byte_identical(self, serial, sharded):
        assert sharded.result.summary() == serial.summary()

    def test_failure_metrics_counted(self, sharded):
        n_failures = len(sharded.result.failures)
        assert sharded.metrics["check.failures"]["value"] == n_failures
        assert sharded.metrics["check.shrink_runs"]["value"] > 0


class TestShardPlumbing:
    def test_unknown_app_rejected_in_parent(self):
        with pytest.raises(ReproError, match="unknown app"):
            fuzz_sharded(app="quicksort", jobs=2)

    def test_explicit_seed_list_matches_range(self):
        by_range = fuzz(app="fib", n_seeds=5, start_seed=3)
        by_list = fuzz(app="fib", seeds=[3, 4, 5, 6, 7])
        assert by_list.summary() == by_range.summary()

    def test_shard_task_is_spawn_safe_data(self):
        """The shard item (fuzz()'s kwargs) and its result survive a
        pickle round-trip — the contract that makes the pool work under
        spawn."""
        import pickle

        spec = dict(app="fib", seeds=(0, 1), n_workers=4,
                    bug=None, shrink=True, horizon_s=60.0)
        spec = pickle.loads(pickle.dumps(spec))
        result, snapshot = _run_fuzz_shard(spec)
        result2, snapshot2 = pickle.loads(pickle.dumps((result, snapshot)))
        assert result2.seeds == (0, 1)
        assert snapshot2["check.seeds_run"]["value"] == 2

    def test_spec_describe(self):
        assert _describe_shard({"app": "fib", "seeds": (5, 6, 7)}) == \
            "seeds 5..7 (3)"
        assert _describe_shard({"app": "fib", "seeds": ()}) == "no seeds"

    def test_seed_context_attached_to_child_errors(self, monkeypatch):
        """A crash inside one seed's run names the owning seed."""
        import repro.check.fuzzer as fz

        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(fz, "run_checked", boom)
        with pytest.raises(ReproError, match=r"seed 2 .*RuntimeError: kaboom"):
            fuzz(app="fib", seeds=[2])
