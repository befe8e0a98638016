"""Tests for the CLI entry point."""


import pytest

from repro.cli import FIGURES, main


class TestList:
    def test_lists_all_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_registry_complete(self):
        assert set(FIGURES) == {
            "fig01", "fig06", "fig07a", "fig07b", "fig08", "fig09",
            "fig10", "fig11", "fig12", "fig13",
        }


class TestFigure:
    def test_runs_fig01_and_prints_table(self, capsys):
        assert main(["figure", "fig01"]) == 0
        out = capsys.readouterr().out
        assert "ImageNet" in out
        assert "paper vs measured" in out

    def test_writes_output_file(self, tmp_path, capsys):
        assert main(["figure", "fig01", "--out", str(tmp_path)]) == 0
        written = tmp_path / "fig01.txt"
        assert written.exists()
        assert "IMDB" in written.read_text()

    def test_scaled_figure_runs(self, capsys):
        assert main(["figure", "fig13", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Full_Rand" in out

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_bad_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestScenario:
    """The `scenario` subcommand: list/run/record/check round trip.

    Heavy paths stay on the cheapest scenario in quick mode; the pack's
    full-scale goldens are exercised by the committed-golden check in
    CI, not here.
    """

    def test_list_names_the_pack(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("flash-crowd", "rolling-upgrade", "diurnal-day"):
            assert name in out

    def test_list_json(self, capsys):
        import json

        assert main(["scenario", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in rows} >= {"flash-crowd", "pushdown-surge"}
        assert all("golden" in r for r in rows)

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenario", "run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_quick_prints_digest(self, capsys):
        assert main(["scenario", "run", "flash-crowd", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "flash-crowd" in out and "[quick]" in out and "digest" in out

    def test_record_requires_label(self, tmp_path, capsys):
        assert main([
            "scenario", "record", "flash-crowd",
            "--golden-root", str(tmp_path),
        ]) == 2
        assert "label" in capsys.readouterr().err

    def test_record_then_check_roundtrip(self, tmp_path, capsys):
        import json

        root = str(tmp_path)
        # record writes both modes; check --quick replays the quick one.
        assert main([
            "scenario", "record", "flash-crowd",
            "--label", "test baseline", "--golden-root", root,
        ]) == 0
        assert (tmp_path / "scenarios" / "golden"
                / "flash-crowd.json").exists()
        capsys.readouterr()
        assert main([
            "scenario", "check", "flash-crowd", "--quick",
            "--golden-root", root,
        ]) == 0
        out = capsys.readouterr().out
        assert "OK flash-crowd [quick]" in out
        assert "scenario check: PASS" in out
        # the JSON report carries the per-mode verdicts
        assert main([
            "scenario", "check", "flash-crowd", "--quick", "--json",
            "--golden-root", root,
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["flash-crowd"]["quick"]["ok"] is True

    def test_check_catches_injected_drift(self, tmp_path, capsys):
        root = str(tmp_path)
        assert main([
            "scenario", "record", "flash-crowd",
            "--label", "test baseline", "--golden-root", root,
        ]) == 0
        capsys.readouterr()
        assert main([
            "scenario", "check", "flash-crowd", "--quick",
            "--perturb", "0.01", "--golden-root", root,
        ]) == 1
        out = capsys.readouterr().out
        assert "DRIFT flash-crowd [quick]" in out
        assert "label: test baseline" in out
        assert "scenario check: FAIL" in out
        # attribution: at least one drifted metric names a phase window
        assert "[phase " in out

    def test_check_without_golden_exits_2(self, tmp_path, capsys):
        assert main([
            "scenario", "check", "flash-crowd",
            "--golden-root", str(tmp_path),
        ]) == 2
        assert "no golden master" in capsys.readouterr().err


def _exit_code(argv) -> int:
    """``main``'s exit code, whether it returns it or argparse raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestRunCommands:
    """chaos/trace/serve/cluster/xform: exit codes and JSON summaries.

    Each ``--json`` summary must keep at least these keys; new keys may
    be added, none may go away.
    """

    KEYS = {
        "chaos": {
            "delivered", "failed", "expected", "accounted", "sim_time",
            "sample_throughput", "fault_counts", "recovery",
        },
        "serve": {
            "delivered", "failed", "rejected_jobs", "sim_time",
            "service_shares", "preemptions", "forced_serves", "window_rows",
            "per_tenant",
        },
        "cluster": {
            "storage", "clients", "replicas", "delivered", "failed", "jobs",
            "sim_time", "sample_throughput", "balancer", "recovery",
            "lifecycle", "per_tenant",
        },
        "xform": {
            "storage", "workers", "clients", "stages", "placement", "packed",
            "delivered", "failed", "jobs", "sim_time", "sample_throughput",
            "tier", "links", "utilization", "routed", "per_tenant",
        },
    }

    def _summary(self, capsys, argv) -> dict:
        import json

        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_chaos_json(self, capsys):
        blob = self._summary(capsys, ["chaos", "--quick", "--json"])
        assert set(blob) >= self.KEYS["chaos"]
        assert blob["accounted"] is True
        assert blob["delivered"] + blob["failed"] == blob["expected"]

    def test_chaos_out_matches_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "chaos.json"
        assert main(["chaos", "--quick", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "accounted" in text and f"wrote {out}" in text
        assert set(json.loads(out.read_text())) >= self.KEYS["chaos"]

    def test_serve_json(self, capsys):
        blob = self._summary(capsys, ["serve", "--quick", "--json"])
        assert set(blob) >= self.KEYS["serve"]
        assert {row["tenant"] for row in blob["per_tenant"]} == {
            "scan", "train_a", "train_b",
        }

    def test_cluster_json(self, capsys):
        blob = self._summary(capsys, [
            "cluster", "--quick", "--crash", "1=0.004:0.008", "--json",
        ])
        assert set(blob) >= self.KEYS["cluster"]
        assert blob["failed"] == 0
        assert blob["lifecycle"]["crashes"] == 1

    def test_xform_json(self, capsys):
        blob = self._summary(capsys, ["xform", "--quick", "--json"])
        assert set(blob) >= self.KEYS["xform"]
        assert blob["tier"]["tasks"] == blob["jobs"]

    def test_trace_writes_artifacts(self, tmp_path, capsys):
        assert main(["trace", "--samples", "200", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "spans" in out
        for name in ("trace.json", "metrics.json", "breakdown.txt"):
            assert (tmp_path / name).exists()

    @pytest.mark.parametrize("argv", [
        ["chaos", "--fault-plan", "bogus=1"],
        ["serve", "--fault-plan", "media=notanumber"],
        ["trace", "--fault-plan", "media"],
    ])
    def test_malformed_fault_plan_exits_2(self, argv, capsys):
        assert _exit_code(argv) == 2
        assert "--fault-plan" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["cluster", "--crash", "1:0.004"],
        ["cluster", "--crash", "x=0.004"],
        ["xform", "--crash", "0=soon"],
    ])
    def test_malformed_crash_exits_2(self, argv, capsys):
        assert _exit_code(argv) == 2
        assert "--crash" in capsys.readouterr().err
