"""CLI tests (driven in-process via repro.cli.main)."""

import json

import pytest

from repro.cli import main

from tests.helpers import RACY_ASM


@pytest.fixture
def racy_source(tmp_path):
    path = tmp_path / "racy.s"
    path.write_text(RACY_ASM)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestWorkloads:
    def test_lists_everything(self, capsys):
        code, out = run_cli(capsys, "workloads")
        assert code == 0
        assert "blackscholes" in out
        assert "apache-21287" in out
        assert "pc relative" in out


class TestRun:
    def test_runs_catalogued_workload(self, capsys):
        code, out = run_cli(capsys, "run", "swaptions", "--iterations", "5")
        assert code == 0
        assert "instructions" in out

    def test_runs_source_file(self, capsys, racy_source):
        code, out = run_cli(capsys, "run", "-", "--source", racy_source)
        assert code == 0

    def test_unknown_program(self, capsys):
        with pytest.raises(SystemExit, match="unknown program"):
            main(["run", "nonsense"])


class TestTraceAnalyze:
    def test_trace_then_analyze(self, capsys, racy_source, tmp_path):
        trace_path = str(tmp_path / "out.prtr")
        code, out = run_cli(
            capsys, "trace", "-", "--source", racy_source,
            "--period", "5", "-o", trace_path, "--seed", "3",
        )
        assert code == 0
        assert "wrote" in out
        code, out = run_cli(
            capsys, "analyze", "-", "--source", racy_source, trace_path
        )
        assert code == 1  # races found → nonzero exit
        assert "data race on" in out
        assert "racy" in out

    def test_analyze_json(self, capsys, racy_source, tmp_path):
        trace_path = str(tmp_path / "out.prtr")
        run_cli(capsys, "trace", "-", "--source", racy_source,
                "--period", "5", "-o", trace_path, "--seed", "3")
        code, out = run_cli(
            capsys, "analyze", "-", "--source", racy_source, trace_path,
            "--json",
        )
        payload = json.loads(out)
        assert payload["races"]


class TestAnalyzeErrors:
    def test_missing_trace_file(self, capsys, racy_source):
        code = main(["analyze", "-", "--source", racy_source,
                     "/no/such/file.prtr"])
        captured = capsys.readouterr()
        assert code == 2
        assert "trace file not found" in captured.err
        assert captured.err.count("\n") == 1

    def test_unreadable_trace(self, capsys, racy_source, tmp_path):
        bad = tmp_path / "bad.prtr"
        bad.write_bytes(b"garbage bytes, not a trace")
        code = main(["analyze", "-", "--source", racy_source, str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "unreadable trace" in captured.err
        assert captured.err.count("\n") == 1

    def test_allow_partial_salvages(self, capsys, racy_source, tmp_path):
        from repro.faults import corrupt_trace_file

        trace_path = str(tmp_path / "out.prtr")
        run_cli(capsys, "trace", "-", "--source", racy_source,
                "--period", "5", "-o", trace_path, "--seed", "3")
        corrupt_trace_file(trace_path, seed=1, section_index=1)  # pebs
        # Strict read refuses...
        code = main(["analyze", "-", "--source", racy_source, trace_path])
        assert code == 2
        capsys.readouterr()
        # ...salvage mode analyzes what survived.
        code, out = run_cli(
            capsys, "analyze", "-", "--source", racy_source, trace_path,
            "--allow-partial",
        )
        assert code in (0, 1)
        assert "degraded inputs" in out


class TestChaos:
    def test_smoke_sweep(self, capsys):
        code, out = run_cli(
            capsys, "chaos", "aget-bug2", "--runs", "2", "--seed", "7",
            "--intensities", "0.1", "--iterations", "8",
        )
        assert code == 0
        assert "baseline detection" in out
        for name in ("pebs-overflow", "pt-gap", "crash-truncation",
                     "tsc-jitter", "combined"):
            assert name in out
        assert "chaos sweep complete" in out

    def test_plan_subset(self, capsys, racy_source):
        code, out = run_cli(
            capsys, "chaos", "-", "--source", racy_source,
            "--runs", "2", "--plans", "pt-gap",
            "--intensities", "0.1,0.2",
        )
        assert code == 0
        assert "pt-gap" in out
        assert "pebs-overflow" not in out

    def test_unknown_plan(self, racy_source):
        with pytest.raises(SystemExit, match="unknown fault plan"):
            main(["chaos", "-", "--source", racy_source,
                  "--plans", "nonsense"])


class TestSupervisedExitCodes:
    """The documented exit-code taxonomy: 2 = bad input (covered by
    TestAnalyzeErrors), 3 = deadline, 4 = quarantine — each distinct so
    a fleet scheduler can requeue/quarantine/discard without parsing
    messages."""

    def test_deadline_exits_3(self, capsys):
        code = main([
            "sweep", "detection", "--target", "aget-bug2",
            "--periods", "100", "--runs", "2", "--iterations", "8",
            "--deadline", "0",
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert "deadline" in captured.err

    def test_quarantine_exits_4(self, capsys):
        # Every attempt of every trial raises: the retry budget drains
        # and the items land in quarantine.
        code = main([
            "chaos", "aget-bug2", "--iterations", "8", "--runs", "2",
            "--period", "100", "--fail-workers", "1.0",
            "--retries", "1", "--fault-attempts", "99",
        ])
        captured = capsys.readouterr()
        assert code == 4
        assert "quarantined" in captured.err

    def test_chaos_needs_known_bug(self):
        with pytest.raises(SystemExit, match="race bug"):
            main(["chaos", "swaptions", "--kill-workers", "0.5"])

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="--checkpoint-dir"):
            main([
                "sweep", "detection", "--target", "aget-bug2",
                "--periods", "100", "--runs", "2", "--iterations", "8",
                "--resume",
            ])


class TestSweepCheckpointResume:
    def test_resume_bit_identical(self, capsys, tmp_path):
        args = [
            "sweep", "detection", "--target", "aget-bug2",
            "--periods", "100", "--runs", "2", "--iterations", "8",
            "--json",
        ]
        code, baseline = run_cli(capsys, *args)
        assert code == 0
        checkpoint = str(tmp_path / "ck")
        code, _ = run_cli(capsys, *args, "--checkpoint-dir", checkpoint)
        assert code == 0
        code, resumed = run_cli(capsys, *args, "--checkpoint-dir",
                                checkpoint, "--resume")
        assert code == 0
        base, res = json.loads(baseline), json.loads(resumed)
        # The deterministic payload is identical to the unsupervised
        # run; the ledger records that nothing was recomputed.
        assert base["cells"] == res["cells"]
        assert base["totals"] == res["totals"]
        assert res["run_ledger"]["resumed"] == 2
        assert res["run_ledger"]["attempts"] == 0


class TestDetect:
    def test_single_run_report(self, capsys, racy_source):
        code, out = run_cli(
            capsys, "detect", "-", "--source", racy_source,
            "--period", "5", "--seed", "2",
        )
        assert code == 1
        assert "ProRace report" in out

    def test_fleet_summary(self, capsys, racy_source):
        code, out = run_cli(
            capsys, "detect", "-", "--source", racy_source,
            "--period", "5", "--runs", "3",
        )
        assert code == 1
        assert "fleet summary" in out
        assert "/3 runs" in out

    def test_clean_program_exits_zero(self, capsys):
        code, out = run_cli(
            capsys, "detect", "blackscholes", "--iterations", "5",
            "--period", "5",
        )
        assert code == 0
        assert "no data races detected" in out


class TestPositiveIntArguments:
    """Counts and periods below 1 (or not integers) are usage errors:
    exit 2 with a message, never a hang, a traceback or exit 0."""

    @pytest.mark.parametrize("argv", [
        ("detect", "aget-bug2", "--iterations", "0"),
        ("detect", "aget-bug2", "--iterations", "-3"),
        ("detect", "aget-bug2", "--period", "0"),
        ("detect", "aget-bug2", "--period", "-5"),
        ("detect", "aget-bug2", "--runs", "0"),
        ("detect", "aget-bug2", "--runs", "two"),
        ("trace", "aget-bug2", "--period", "0", "-o", "unused.prtr"),
        ("analyze", "aget-bug2", "unused.prtr", "--iterations", "0"),
        ("confirm", "aget-bug2", "--period", "0"),
        ("shootout", "--runs", "0"),
        ("chaos", "aget-bug2", "--period", "-1"),
        ("fleet", "--iterations", "0"),
        ("sweep", "detection", "--periods", "abc"),
        ("sweep", "detection", "--periods", "0"),
        ("sweep", "detection", "--periods", "100,-5"),
        ("sweep", "detection", "--runs", "0"),
        ("overhead", "swaptions", "--periods", "10,0"),
    ], ids=" ".join)
    def test_exits_two_with_usage_message(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "integer" in err


class TestOverhead:
    def test_sweep(self, capsys):
        code, out = run_cli(
            capsys, "overhead", "swaptions", "--iterations", "20",
            "--periods", "100,10000",
        )
        assert code == 0
        assert "prorace" in out and "vanilla" in out
        assert out.count("%") >= 4


class TestSweep:
    def test_detection_sweep_single_bug(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "detection", "--target", "aget-bug2",
            "--periods", "100", "--runs", "2", "--iterations", "8",
        )
        assert code == 0
        assert "aget-bug2" in out and "total" in out

    def test_overhead_sweep_single_workload(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "overhead", "--target", "swaptions",
            "--periods", "100,10000", "--iterations", "20",
        )
        assert code == 0
        assert "geomean" in out

    def test_unknown_sweep_target(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "overhead", "--target", "nope"])


class TestJitFlags:
    def _trace(self, capsys, racy_source, tmp_path):
        trace_path = str(tmp_path / "out.prtr")
        run_cli(capsys, "trace", "-", "--source", racy_source,
                "--period", "5", "-o", trace_path, "--seed", "3")
        return trace_path

    def test_no_jit_identical_analysis(self, capsys, racy_source, tmp_path):
        trace_path = self._trace(capsys, racy_source, tmp_path)
        code_jit, out_jit = run_cli(
            capsys, "analyze", "-", "--source", racy_source, trace_path,
            "--json",
        )
        code_nojit, out_nojit = run_cli(
            capsys, "analyze", "-", "--source", racy_source, trace_path,
            "--json", "--no-jit",
        )
        assert code_jit == code_nojit
        jit, nojit = json.loads(out_jit), json.loads(out_nojit)
        assert jit["races"] == nojit["races"]
        assert jit["stats"] == nojit["stats"]
        assert (jit["replay_speed"]["executed_steps"]
                == nojit["replay_speed"]["executed_steps"])

    def test_profile_writes_pstats(self, capsys, racy_source, tmp_path):
        import pstats

        trace_path = self._trace(capsys, racy_source, tmp_path)
        profile_path = str(tmp_path / "analyze.pstats")
        code, out = run_cli(
            capsys, "analyze", "-", "--source", racy_source, trace_path,
            "--profile", profile_path,
        )
        assert code == 1  # profiling must not change the verdict
        stats = pstats.Stats(profile_path)
        assert stats.total_calls > 0


class TestGovernorFlags:
    def test_trace_governed_prints_summary(self, capsys, tmp_path):
        trace_path = str(tmp_path / "gov.prtr")
        code, out = run_cli(
            capsys, "trace", "pbzip2-0.9.4", "--iterations", "50",
            "--period", "2", "--governor", "--overhead-budget", "0.02",
            "--k-max", "16384", "--load-bursts", "16",
            "-o", trace_path, "--seed", "1",
        )
        assert code == 0
        assert "governor" in out
        assert "wrote" in out

    def test_ungoverned_trace_has_no_governor_line(self, capsys,
                                                   racy_source, tmp_path):
        trace_path = str(tmp_path / "plain.prtr")
        code, out = run_cli(
            capsys, "trace", "-", "--source", racy_source,
            "--period", "5", "-o", trace_path,
        )
        assert code == 0
        assert "governor" not in out

    def test_watchdog_degraded_trace_exits_6(self, capsys, tmp_path):
        """A stalled PEBS engine degrades the run to sync-only tracing:
        the trace file is still written, but the exit code tells a fleet
        scheduler to score it lower (exit code 6)."""
        trace_path = str(tmp_path / "stalled.prtr")
        code, out = run_cli(
            capsys, "trace", "pbzip2-0.9.4", "--iterations", "50",
            "--period", "100", "--governor", "--overhead-budget", "0.5",
            "--stall-pebs-at", "3000", "-o", trace_path,
        )
        assert code == 6
        assert "watchdog" in out.lower()
        # The degraded trace is still loadable and analyzable.
        code, _ = run_cli(
            capsys, "analyze", "pbzip2-0.9.4", "--iterations", "50",
            trace_path,
        )
        assert code in (0, 1)


class TestChaosLoadBursts:
    def test_json_contract(self, capsys, racy_source):
        code, out = run_cli(
            capsys, "chaos", "-", "--source", racy_source,
            "--load-bursts", "8", "--period", "2", "--runs", "2",
            "--governor", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "load-bursts"
        summary = payload["summary"]
        for key in ("governed_detections", "fixed_detections",
                    "budget_respected", "throttle_tripped",
                    "governed_beats_fixed"):
            assert key in summary
        assert len(payload["rows"]) == 2
        for row in payload["rows"]:
            assert row["governed"]["governor"]["budget"] == 0.02
            assert "within_budget" in row["governed"]["governor"]
            assert "governor" not in row["fixed"]

    def test_text_table(self, capsys, racy_source):
        code, out = run_cli(
            capsys, "chaos", "-", "--source", racy_source,
            "--load-bursts", "8", "--period", "2", "--runs", "2",
        )
        assert code == 0
        assert "load-burst chaos" in out
        assert "detections:" in out


class TestDetectorSelection:
    def test_unknown_detector_exits_2_with_suggestion(self, capsys,
                                                      racy_source):
        code = main(["detect", "-", "--source", racy_source,
                     "--period", "5", "--detector", "fastrack"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown detector 'fastrack'" in err
        assert "did you mean 'fasttrack'" in err
        assert "available:" in err

    def test_unknown_detector_on_sweep(self, capsys):
        code = main(["sweep", "detection", "--target", "pfscan",
                     "--iterations", "5", "--runs", "1",
                     "--periods", "100", "--detector", "locksets"])
        err = capsys.readouterr().err
        assert code == 2
        assert "did you mean 'lockset'" in err

    def test_default_report_has_no_backend_sections(self, capsys,
                                                    racy_source):
        code, out = run_cli(capsys, "detect", "-", "--source", racy_source,
                            "--period", "5", "--seed", "3")
        assert code == 1
        assert "detectors:" not in out
        assert "--- backend" not in out

    def test_multi_backend_report_sections(self, capsys, racy_source):
        code, out = run_cli(
            capsys, "detect", "-", "--source", racy_source,
            "--period", "5", "--seed", "3",
            "--detector", "fasttrack,lockset", "--detector", "o1",
        )
        assert code == 1
        assert "detectors: fasttrack, lockset, o1 (primary: fasttrack)" \
            in out
        assert "--- backend lockset:" in out
        assert "--- backend o1:" in out

    def test_multi_backend_json(self, capsys, racy_source, tmp_path):
        trace_path = str(tmp_path / "out.prtr")
        run_cli(capsys, "trace", "-", "--source", racy_source,
                "--period", "5", "-o", trace_path, "--seed", "3")
        code, out = run_cli(
            capsys, "analyze", "-", "--source", racy_source, trace_path,
            "--json", "--detector", "fasttrack,predict",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["detectors"] == ["fasttrack", "predict"]
        backends = payload["backends"]
        assert set(backends) == {"fasttrack", "predict"}
        predict = backends["predict"]
        assert "candidates" in predict["details"]
        # Witnessed races carry their schedule.
        for race in predict["races"]:
            assert race["witness"] is not None


class TestShootout:
    def test_smoke_two_backends(self, capsys, tmp_path):
        out_path = str(tmp_path / "BENCH_detectors.json")
        code, out = run_cli(
            capsys, "shootout", "--bugs", "pfscan,aget-bug2",
            "--iterations", "8", "--runs", "1",
            "--detector", "fasttrack,o1", "--baselines", "datacollider",
            "-o", out_path,
        )
        assert code == 0
        assert "shootout: 2 bugs x 1 runs" in out
        assert "fasttrack" in out
        payload = json.loads(open(out_path).read())
        names = {row["name"] for row in payload["ranked"]}
        assert names == {"fasttrack", "o1", "datacollider"}

    def test_unknown_bug_rejected(self):
        with pytest.raises(SystemExit, match="unknown race bugs"):
            main(["shootout", "--bugs", "nonsense"])

    def test_unknown_detector_exits_2(self, capsys):
        code = main(["shootout", "--bugs", "pfscan", "--iterations", "5",
                     "--detector", "fastrack"])
        err = capsys.readouterr().err
        assert code == 2
        assert "did you mean 'fasttrack'" in err
