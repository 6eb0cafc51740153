"""CLI observability flags: ``--metrics-out`` and ``--profile``.

The acceptance check for the whole layer lives here: a CLI invocation's
JSONL must be parseable, and its states-expanded / cache-hit counters
must exactly match an instrumented serial re-run of the same search.
"""

import json

from repro.cli import main
from repro.kernels import get_kernel
from repro.obs import metrics as obs_metrics
from repro.obs.runlog import SCHEMA, read_records


class TestMetricsOut:
    def test_emits_parseable_jsonl(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(
            ["kernel", "atomicity_lost_update", "--metrics-out", str(path)]
        ) == 0
        capsys.readouterr()
        with path.open() as fh:
            records = [json.loads(line) for line in fh]
        assert records
        assert all(r["schema"] == SCHEMA for r in records)
        events = [r["event"] for r in records]
        assert "explorer.search" in events
        assert events[-1] == "cli"

    def test_record_matches_instrumented_serial_rerun(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(
            [
                "kernel", "atomicity_lost_update",
                "--metrics-out", str(path), "--profile",
            ]
        ) == 0
        capsys.readouterr()
        kernel = get_kernel("atomicity_lost_update")
        # The fix-check search is the one search of the fixed program.
        record = next(
            r for r in read_records(path)
            if r["event"] == "explorer.search"
            and r["program"] == kernel.fixed.name
        )

        # Instrumented serial re-run of the same search.
        registry = obs_metrics.enable()
        try:
            assert kernel.verify_fixed()
        finally:
            obs_metrics.disable()
        labels = {"program": kernel.fixed.name, "explorer": "dfs"}
        assert record["program"] == kernel.fixed.name
        assert record["result"]["states_expanded"] == registry.counter(
            "explorer.states_expanded", **labels
        )
        assert record["result"]["cache_hits"] == registry.counter(
            "explorer.cache_hits", **labels
        )
        assert record["result"]["schedules_run"] == registry.counter(
            "explorer.schedules_run", **labels
        )

        # The CLI summary record's snapshot carries the same counters.
        cli = next(r for r in read_records(path) if r["event"] == "cli")
        key = (
            "explorer.states_expanded"
            f"{{explorer=dfs,program={kernel.fixed.name}}}"
        )
        assert cli["metrics"]["counters"][key] == record["result"]["states_expanded"]
        assert cli["exit_code"] == 0
        assert cli["command"] == "kernel"
        assert cli["profile"] is not None
        assert "engine.execute" in cli["profile"]

    def test_memoized_run_records_cache_hits(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(
            [
                "estimate", "atomicity_lost_update", "--runs", "10",
                "--metrics-out", str(path),
            ]
        ) == 0
        capsys.readouterr()
        records = read_records(path)
        sweeps = [r for r in records if r["event"] == "estimate_manifestation"]
        strategies = {r["strategy"] for r in sweeps}
        assert {"cooperative", "random", "pct"} <= strategies
        for sweep in sweeps:
            assert sweep["result"]["manifested"] <= sweep["args"]["runs"]


class TestProfileFlag:
    def test_profile_table_on_stderr(self, capsys):
        assert main(["kernel", "atomicity_lost_update", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "span" in err
        assert "engine.execute" in err

    def test_observability_globals_torn_down(self, tmp_path, capsys):
        from repro.obs import profile as obs_profile
        from repro.obs import runlog as obs_runlog

        path = tmp_path / "run.jsonl"
        main(
            [
                "kernel", "atomicity_lost_update",
                "--metrics-out", str(path), "--profile",
            ]
        )
        capsys.readouterr()
        assert not obs_metrics.enabled()
        assert not obs_profile.enabled()
        assert obs_runlog.active_runlog() is None

    def test_plain_invocation_untouched(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr()
        assert "atomicity_lost_update" in out.out
        assert "span" not in out.err
        assert not obs_metrics.enabled()
