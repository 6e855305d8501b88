"""Smoke tests for the command-line interface."""

import pytest

from repro.cli import main


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "fib" in out and "nqueens" in out and "ray" in out
    assert "regenerated in" in out


def test_macro_demo_command(capsys):
    assert main(["--seed", "5", "macro-demo"]) == 0
    out = capsys.readouterr().out
    assert "Macro demo" in out
    assert "nqueens(8) = 92" in out


def test_timeline_command(capsys):
    assert main(["timeline"]) == 0
    out = capsys.readouterr().out
    assert "timeline 0 .." in out
    assert "reclaimed" in out


def test_ablation_single_section(capsys):
    assert main(["ablations", "retirement"]) == 0
    out = capsys.readouterr().out
    assert "retirement" in out
    assert "Ablation" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["no-such-thing"])


def test_unknown_ablation_rejected():
    with pytest.raises(SystemExit):
        main(["ablations", "astrology"])


def test_seed_changes_runs(capsys):
    main(["--seed", "1", "ablations", "victim"])
    out1 = capsys.readouterr().out
    main(["--seed", "2", "ablations", "victim"])
    out2 = capsys.readouterr().out
    # Strip the wall-time footer before comparing.
    strip = lambda s: "\n".join(l for l in s.splitlines() if "regenerated" not in l)  # noqa: E731
    assert strip(out1) != strip(out2)


def test_obs_command_writes_manifest(capsys, tmp_path):
    import json

    from repro.obs import validate_manifest

    manifest_path = tmp_path / "obs_manifest.json"
    assert main(["obs", "--seed", "1", "--app", "fib", "--scale", "18",
                 "--manifest", str(manifest_path)]) == 0
    out = capsys.readouterr().out
    # The report prints steal-latency percentiles and the counters.
    assert "micro.steal.latency_s" in out
    assert "p50" in out and "p90" in out and "p99" in out
    assert "net.msg.sent.count" in out
    assert "job.result" in out
    manifest = json.loads(manifest_path.read_text())
    assert validate_manifest(manifest) == []
    assert manifest["command"] == "obs"
    assert manifest["seed"] == 1
    assert "micro.steal.latency_s" in manifest["metrics"]


def test_timeline_perfetto_export(capsys, tmp_path):
    import json

    from repro.obs import validate_perfetto

    out_path = tmp_path / "timeline.json"
    assert main(["timeline", "--perfetto", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "timeline 0 .." in out  # ASCII output is unchanged
    assert "wrote Perfetto trace" in out
    doc = json.loads(out_path.read_text())
    assert validate_perfetto(doc) == []
    counters = {ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "C"}
    assert "macro.participants" in counters
    assert any(name.startswith("deque depth") for name in counters)


def test_check_command_sharded_smoke(capsys, tmp_path):
    import json

    from repro.obs import validate_manifest

    manifest_path = tmp_path / "check_manifest.json"
    assert main(["check", "--seeds", "6", "--jobs", "2",
                 "--manifest", str(manifest_path)]) == 0
    captured = capsys.readouterr()
    assert "all schedules clean" in captured.out
    # Fuzz-budget telemetry on stderr: dot line, seeds/s, shard breakdown.
    assert "seeds in" in captured.err
    assert "seeds/s" in captured.err
    manifest = json.loads(manifest_path.read_text())
    assert validate_manifest(manifest) == []
    assert manifest["parallel"]["jobs"] == 2
    assert manifest["parallel"]["speedup"] > 0
    assert len(manifest["parallel"]["shards"]) >= 2
    assert manifest["fuzz"] == {"seeds": 6, "failures": 0, "bug": None,
                                "scenario": "mixed"}
    assert manifest["metrics"]["check.seeds_run"]["value"] == 6


def test_check_command_serial_matches_sharded_stdout(capsys):
    strip = lambda s: "\n".join(l for l in s.splitlines() if "regenerated" not in l)  # noqa: E731
    assert main(["check", "--seeds", "5", "--jobs", "1"]) == 0
    serial = strip(capsys.readouterr().out)
    assert main(["check", "--seeds", "5", "--jobs", "2"]) == 0
    sharded = strip(capsys.readouterr().out)
    assert serial == sharded


def test_check_verify_queue_shards_and_matches_serial_stdout(capsys, monkeypatch):
    from repro import parallel

    strip = lambda s: "\n".join(l for l in s.splitlines() if "regenerated" not in l)  # noqa: E731
    runner_jobs = []

    class RecordingRunner(parallel.ShardedRunner):
        def map(self, *args, **kwargs):
            runner_jobs.append(self.jobs)
            return super().map(*args, **kwargs)

    monkeypatch.setattr(parallel, "ShardedRunner", RecordingRunner)
    outputs = []
    for jobs in ("1", "2"):
        assert main(["check", "--verify-queue", "--seeds", "6",
                     "--jobs", jobs]) == 0
        outputs.append(strip(capsys.readouterr().out))
    assert runner_jobs == [1, 2]
    assert outputs[0] == outputs[1]
    assert "6 seeds x 4 workers, heap vs calendar" in outputs[0]
    assert "all traces byte-identical" in outputs[0]


def test_jobs_flag_rides_every_sweep_command(capsys):
    # --jobs parses everywhere it is advertised (victim is the quickest
    # section; the figure/table sweeps have their own equivalence tests).
    assert main(["ablations", "victim", "--jobs", "1"]) == 0
    assert "Ablation" in capsys.readouterr().out


def test_seed_accepted_after_subcommand(capsys):
    main(["ablations", "victim", "--seed", "1"])
    out1 = capsys.readouterr().out
    main(["--seed", "1", "ablations", "victim"])
    out2 = capsys.readouterr().out
    strip = lambda s: "\n".join(l for l in s.splitlines() if "regenerated" not in l)  # noqa: E731
    assert strip(out1) == strip(out2)


def test_profile_command_reports_bounds_and_attribution(capsys):
    assert main(["--seed", "1", "profile", "--scale", "12"]) == 0
    out = capsys.readouterr().out
    assert "Critical-path profile" in out
    assert "T1 (total work)" in out and "T-inf (span)" in out
    assert "parallelism T1/T-inf" in out
    assert "greedy  T1/P + T-inf" in out
    assert "Gast (latency-aware" in out
    # The per-worker attribution table carries every overhead bucket.
    assert "Per-worker wall-clock attribution" in out
    for column in ("working (s)", "stealing (s)", "migrating (s)",
                   "protocol (s)", "idle (s)"):
        assert column in out
    assert "TOTAL" in out


def test_profile_command_knary(capsys):
    assert main(["--seed", "2", "profile", "--app", "knary",
                 "--scale", "5"]) == 0
    out = capsys.readouterr().out
    assert "Critical-path profile" in out
    assert "parallelism T1/T-inf" in out


def test_profile_command_streams_both_outputs(capsys, tmp_path):
    import json

    from repro.apps.fib import task_count
    from repro.obs import read_profile_summary, validate_perfetto

    jsonl = tmp_path / "prof.jsonl"
    trace = tmp_path / "prof_trace.json"
    assert main(["--seed", "1", "profile", "--scale", "10",
                 "--out", str(jsonl), "--perfetto", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "wrote span stream" in out and "wrote Perfetto profile" in out
    summary = read_profile_summary(str(jsonl))
    assert summary["nodes"] == task_count(10)
    doc = json.loads(trace.read_text())
    assert validate_perfetto(doc) == []
    assert doc["otherData"]["nodes"] == task_count(10)


def test_warn_truncated_helper(capsys):
    import io

    from repro.cli import _warn_truncated
    from repro.util.trace import TraceLog

    quiet = TraceLog()
    quiet.emit(0.0, "worker.start", "ws00")
    assert _warn_truncated(quiet) is False
    assert capsys.readouterr().err == ""

    noisy = TraceLog(capacity=2)
    for i in range(5):
        noisy.emit(float(i), "steal.request", "ws00", victim="ws01")
    stream = io.StringIO()
    assert _warn_truncated(noisy, stream=stream) is True
    message = stream.getvalue()
    assert "truncated" in message
    assert str(noisy.dropped) in message
    assert "starts mid-run" in message


def test_traffic_command(capsys):
    assert main(["--seed", "2", "traffic", "--njobs", "30",
                 "--machines", "4", "--policies", "rr,srp",
                 "--arrivals", "poisson", "--sizes", "exponential"]) == 0
    out = capsys.readouterr().out
    assert "Macro policy competition" in out
    for header in ("policy", "arrival", "makespan", "jobs/s",
                   "lat p99", "wait p99"):
        assert header in out
    assert "round-robin" in out and "srp" in out
    assert "30/30" in out  # every job completed


def test_traffic_command_rejects_unknown_policy(capsys):
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        main(["traffic", "--njobs", "5", "--policies", "lottery"])


def test_diagnose_command_spike_timeline(capsys, tmp_path):
    import json

    from repro.obs import validate_manifest, validate_perfetto

    manifest_path = tmp_path / "diag_manifest.json"
    trace_path = tmp_path / "diag.json"
    incidents_path = tmp_path / "incidents.jsonl"
    assert main(["diagnose", "--app", "fib", "--scenario", "spike",
                 "--seed", "2", "--seeds", "1",
                 "--incidents", str(incidents_path),
                 "--perfetto", str(trace_path),
                 "--manifest", str(manifest_path)]) == 0
    out = capsys.readouterr().out
    assert "Incident timeline" in out and "Diagnosis summary" in out
    assert "steal-storm" in out
    lines = [json.loads(x) for x in incidents_path.read_text().splitlines()]
    assert lines and all(line["kind"] for line in lines)
    doc = json.loads(trace_path.read_text())
    assert validate_perfetto(doc) == []
    assert any(e.get("cat") == "health" for e in doc["traceEvents"])
    manifest = json.loads(manifest_path.read_text())
    assert validate_manifest(manifest) == []
    assert manifest["diagnose"]["scenario"] == "spike"
    assert manifest["diagnose"]["incidents"] > 0


def test_diagnose_command_clean_seed_silent(capsys):
    import re

    assert main(["diagnose", "--app", "fib", "--seed", "0",
                 "--fail-on-incident"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"incidents\s+0", out)
    assert "incomplete runs" in out


def test_diagnose_command_fail_on_incident_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diagnose", "--app", "fib", "--scenario", "spike",
              "--seed", "2", "--fail-on-incident"])
    assert exc.value.code == 1
    assert "steal-storm" in capsys.readouterr().out


def test_diagnose_command_diff(capsys, tmp_path):
    import json

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path, seed in ((a, 0), (b, 1)):
        assert main(["diagnose", "--app", "fib", "--seed", str(seed),
                     "--manifest", str(path)]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "provenance drift" in out and "seed" in out
