"""Command-line interface."""

import pytest

from repro.cli import main
from repro.experiments import parallel


@pytest.fixture(autouse=True)
def _isolated_execution(tmp_path, monkeypatch):
    """Point the CLI's persistent cache at a temp dir and restore the
    process-default pool afterwards (``main`` reconfigures it)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    saved = parallel.default_pool()
    yield
    parallel._default_pool = saved


class TestList:
    def test_lists_workloads_and_policies(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "BT-MZ.C" in out
        assert "HPCG" in out
        assert "min_energy" in out


class TestRun:
    def test_run_all_configs(self, capsys):
        assert main(["run", "-w", "BT-MZ.C", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "me_eufs" in out
        assert "time penalty" in out

    def test_run_single_config(self, capsys):
        assert main(["run", "-w", "BT-MZ.C", "-p", "me", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "me" in out
        assert "me_eufs" not in out

    def test_unknown_workload_fails(self):
        with pytest.raises(SystemExit):
            main(["run", "-w", "NOPE"])

    def test_unknown_config_fails(self):
        with pytest.raises(SystemExit):
            main(["run", "-w", "BT-MZ.C", "-p", "warp_speed"])

    def test_workload_name_case_insensitive(self, capsys):
        assert main(["run", "-w", "bt-mz.c", "-p", "me", "--scale", "0.2"]) == 0


class TestTable:
    @pytest.mark.parametrize("number", [1, 2, 3, 4])
    def test_kernel_tables_render(self, capsys, number):
        assert main(["table", str(number), "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert f"Table" in out
        assert "BT-MZ.C" in out

    def test_invalid_table(self):
        with pytest.raises(SystemExit):
            main(["table", "9", "--scale", "0.2"])


class TestFigureAndSweep:
    def test_figure4_renders(self, capsys):
        assert main(["figure", "4", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "BT-MZ" in out
        assert "me_eufs_0" in out

    def test_invalid_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "2", "--scale", "0.2"])

    def test_sweep_renders(self, capsys):
        assert main(["sweep", "-w", "BT-MZ.C.mpi", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "uncore GHz" in out
        assert "2.40" in out


class TestTimelineAndCampaign:
    def test_timeline_renders(self, capsys):
        # long enough that the descent settles (READY reached)
        assert main(["timeline", "-w", "BT-MZ.C", "--scale", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "frequency timeline" in out
        assert "imc [" in out
        assert "settled uncore ceiling" in out

    def test_telemetry_renders_both_views(self, capsys):
        # the default intensity of 0 injects nothing; 1 puts faults on
        # node 0's ladder even at this scale
        argv = ["telemetry", "-w", "BT-MZ.C", "--scale", "0.05", "--fault-intensity", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "BT-MZ.C: node 0 policy descent" in out
        _, ladder = out.split("BT-MZ.C: node 0 degradation ladder", 1)
        assert "faults/" in ladder.split("\n\n", 1)[0]

    def test_timeline_rejects_config_name(self):
        # timeline takes registered policy names, not config names
        with pytest.raises(SystemExit) as exc:
            main(["timeline", "-w", "BT-MZ.C", "-p", "me_eufs", "--scale", "0.05"])
        message = str(exc.value.code)
        assert "unknown policy 'me_eufs'" in message
        assert "min_energy" in message and "monitoring" in message

    def test_export_csv_to_stdout(self, capsys):
        assert main(["export", "2", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("kernel,")
        assert "BT-MZ.C" in out

    def test_export_csv_to_file(self, tmp_path, capsys):
        target = str(tmp_path / "t2.csv")
        assert main(["export", "2", "-o", target, "--scale", "0.1"]) == 0
        assert (tmp_path / "t2.csv").read_text().startswith("kernel,")

    def test_export_invalid_table(self):
        with pytest.raises(SystemExit):
            main(["export", "12", "--scale", "0.1"])

    def test_campaign_runs_under_budget_control(self, capsys):
        assert main(["campaign", "--scale", "0.05", "--budget-mj", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "campaign:" in out
        assert "BQCD" in out
        # the tight budget must escalate at some point
        assert "WARNING" in out or "PANIC" in out


class TestCluster:
    SMALL = ["cluster", "--n-jobs", "4", "--nodes", "4", "--scale", "0.2"]

    def test_single_policy_campaign(self, capsys):
        assert main(self.SMALL + ["-p", "me_eufs"]) == 0
        out = capsys.readouterr().out
        assert "cluster campaign" in out
        assert "min_energy" in out
        assert "eardbd rows" in out

    def test_compare_renders_all_policies(self, capsys):
        assert main(self.SMALL + ["--summary"]) == 0
        out = capsys.readouterr().out
        for name in ("none", "me", "me_eufs"):
            assert name in out
        assert "saving" in out and "penalty" in out

    def test_budget_line_with_eargm(self, capsys):
        assert main(self.SMALL + ["-p", "none", "--budget-mj", "100"]) == 0
        out = capsys.readouterr().out
        assert "budget" in out

    def test_json_export(self, tmp_path, capsys):
        import json

        target = tmp_path / "cluster.json"
        assert main(self.SMALL + ["-p", "me_eufs", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["me_eufs"]["n_jobs"] == 4
        assert len(payload["me_eufs"]["jobs"]) == 4

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(self.SMALL + ["-p", "warp_speed"])

    def test_monitoring_alias_via_p(self, tmp_path, capsys):
        import json

        target = tmp_path / "cluster.json"
        argv = self.SMALL + ["-p", "monitoring", "--summary", "--json", str(target)]
        assert main(argv) == 0
        assert list(json.loads(target.read_text())) == ["monitoring"]

    def test_policies_compare_equals_p_compare(self, capsys):
        assert main(self.SMALL + ["--summary", "-p", "compare"]) == 0
        via_p = capsys.readouterr().out
        assert main(self.SMALL + ["--summary", "--policies", "compare"]) == 0
        assert capsys.readouterr().out == via_p


class TestEacct:
    def write_db(self, tmp_path, capsys):
        path = tmp_path / "eacct.json"
        assert (
            main(
                [
                    "cluster",
                    "--n-jobs",
                    "4",
                    "--nodes",
                    "4",
                    "--scale",
                    "0.2",
                    "-p",
                    "me_eufs",
                    "--summary",
                    "--accounting",
                    str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()  # discard the campaign rendering
        return path

    def test_lists_all_jobs(self, tmp_path, capsys):
        db = self.write_db(tmp_path, capsys)
        assert main(["eacct", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "4 job(s)" in out
        assert "min_energy" in out

    def test_job_filter(self, tmp_path, capsys):
        db = self.write_db(tmp_path, capsys)
        assert main(["eacct", "--db", str(db), "--job", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 job(s)" in out

    def test_policy_filter_empty(self, tmp_path, capsys):
        db = self.write_db(tmp_path, capsys)
        assert main(["eacct", "--db", str(db), "--policy", "min_time"]) == 0
        out = capsys.readouterr().out
        assert "0 job(s)" in out

    def test_json_round_trips_through_accounting_db(self, tmp_path, capsys):
        import json

        from repro.ear.accounting import AccountingDB

        db_path = self.write_db(tmp_path, capsys)
        assert main(["eacct", "--db", str(db_path), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 4
        # the export is exactly what AccountingDB.load sees
        reloaded = AccountingDB.load(db_path)
        assert json.loads(reloaded.to_json()) == records

    def test_missing_db_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no accounting database"):
            main(["eacct", "--db", str(tmp_path / "absent.json")])


#: invocations that fail inside the library or on a bad argument value,
#: with a fragment of the one-line message each must exit with.
BAD_INVOCATIONS = [
    (["eacct", "--db", "absent.json"], "no accounting database"),
    (["cluster", "--nodes", "0"], "at least one node"),
    (["learn", "--scale", "0"], "grid scale"),
    (["campaign", "--scale", "0"], "must be > 0"),
    (["run", "-w", "BT-MZ.C", "--scale", "0"], "must be > 0"),
    (["resilience", "--intensities=-1", "--scale", "0.02"], "cannot be negative"),
    (
        ["telemetry", "-w", "BT-MZ.C", "--scale", "0.05", "--fault-intensity", "-1"],
        "cannot be negative",
    ),
    (
        ["cluster", "--nodes", "2", "--n-jobs", "2", "--scale", "0.05", "-p", "none",
         "--fault-intensity", "-1"],
        "cannot be negative",
    ),
    (["sweep", "-w", "BT-MZ.C", "--cpu-ghz", "9", "--scale", "0.02"], "quarantined"),
    (["table", "6", "--scale", "inf"], "finite"),
]


class TestCleanErrors:
    @pytest.mark.parametrize(
        "argv, fragment", BAD_INVOCATIONS, ids=[" ".join(a) for a, _ in BAD_INVOCATIONS]
    )
    def test_exits_with_one_line_message(self, argv, fragment, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code = exc.value.code
        assert code not in (0, None)
        # argparse prints its message and exits 2; the CLI's own exits
        # carry the message as the exit code.
        message = code if isinstance(code, str) else capsys.readouterr().err.splitlines()[-1]
        assert "\n" not in message
        assert fragment in message

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "-w", "BT-MZ.C"],
            ["table", "3"],
            ["figure", "4"],
            ["sweep", "-w", "BT-MZ.C"],
            ["resilience"],
            ["timeline", "-w", "BT-MZ.C"],
            ["telemetry", "-w", "BT-MZ.C"],
            ["campaign"],
            ["cluster"],
            ["export", "3"],
        ],
    )
    def test_scale_must_be_positive(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--scale", "0"])
        assert exc.value.code == 2
        assert "must be > 0" in capsys.readouterr().err


class TestExecutionFlags:
    def test_jobs_flag_parallel_run(self, capsys):
        assert main(["--jobs", "2", "run", "-w", "BT-MZ.C", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "me_eufs" in out
        assert parallel.default_pool().jobs == 2

    def test_no_cache_disables_caching(self, capsys):
        assert main(["--no-cache", "run", "-w", "BT-MZ.C", "-p", "me", "--scale", "0.2"]) == 0
        assert parallel.default_pool().cache is None

    def test_warm_disk_cache_skips_simulations(self, capsys):
        args = ["run", "-w", "BT-MZ.C", "-p", "me", "--scale", "0.2"]
        assert main(args) == 0
        first = parallel.default_pool().stats.simulations
        assert first > 0
        assert main(args) == 0  # fresh pool, same cache dir
        assert parallel.default_pool().stats.simulations == 0
        assert parallel.default_pool().cache.stats.disk_hits > 0

    def test_negative_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["--jobs", "-3", "list"])


class TestLearn:
    ARGS = ["learn", "--grid", "coarse", "--kernels", "BT-MZ.C,STREAM", "--scale", "0.1"]

    def test_learn_fits_and_saves(self, tmp_path, capsys):
        out = tmp_path / "coeffs"
        jsonl = tmp_path / "events.jsonl"
        assert main([*self.ARGS, "--out", str(out), "--jsonl", str(jsonl)]) == 0
        printed = capsys.readouterr().out
        assert "min R^2" in printed
        assert list(out.glob("*.json"))
        assert jsonl.exists()

    def test_learn_without_saving(self, tmp_path, capsys):
        assert main([*self.ARGS, "--out", "none"]) == 0
        assert "saved to" not in capsys.readouterr().out

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit, match="unknown kernel"):
            main(["learn", "--kernels", "WARP-SPEED", "--out", "none"])

    def test_dump_docs_matches_generated_reference(self, capsys):
        import pathlib

        assert main(["--dump-docs"]) == 0
        dumped = capsys.readouterr().out
        repo = pathlib.Path(__file__).resolve().parent.parent
        assert dumped == (repo / "docs" / "CLI.md").read_text()
