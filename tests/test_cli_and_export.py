"""CLI and export-module tests."""

import io
import json

import pytest

from repro.analysis.export import (
    ledger_to_csv,
    ledger_to_rows,
    results_to_json,
    run_summary,
    traces_to_csv,
)
from repro.cli import EXPERIMENTS, build_parser, main
from repro.kernel import us
from repro.power import EnergyLedger, TraceSet
from repro.telemetry import validate_chrome_trace


class TestExportLedger:
    def make_ledger(self):
        ledger = EnergyLedger()
        ledger.charge_cycle("WRITE_READ", {"M2S": 2e-12, "ARB": 1e-12})
        ledger.charge_cycle("IDLE_IDLE", {"ARB": 1e-12})
        return ledger

    def test_rows_cover_instructions_blocks_total(self):
        rows = ledger_to_rows(self.make_ledger())
        kinds = {row[0] for row in rows}
        assert kinds == {"instruction", "block", "total"}
        total_row = [row for row in rows if row[0] == "total"][0]
        assert total_row[3] == pytest.approx(4e-12)

    def test_csv_format(self):
        buffer = io.StringIO()
        ledger_to_csv(self.make_ledger(), buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "kind,key,count,energy_j,share"
        assert any(line.startswith("instruction,WRITE_READ")
                   for line in lines)

    def test_traces_csv(self):
        traces = TraceSet(("A", "B"))
        traces.record(500, {"A": 1e-12, "B": 2e-12})
        traces.record(1500, {"A": 3e-12})
        buffer = io.StringIO()
        traces_to_csv(traces, 1000, buffer, t_end=2000)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "time_s,A_w,B_w"
        assert len(lines) == 3


class TestExportResults:
    def test_result_roundtrips_through_json(self):
        from repro.analysis import run_macromodel_validation
        result = run_macromodel_validation(samples=80)
        payload = json.loads(results_to_json([result]))
        assert payload["total"] == 1
        assert payload["experiments"][0]["name"] == result.name
        assert payload["experiments"][0]["passed"] == result.passed
        assert "fit quality" in payload["experiments"][0]["tables"]

    def test_run_summary(self):
        from repro.workloads import build_paper_testbench
        tb = build_paper_testbench(seed=1)
        tb.run(us(5))
        summary = run_summary(tb)
        assert summary["cycles"] == 500
        assert summary["transactions"] > 0
        assert summary["protocol_violations"] == 0
        assert 0.99 < sum(summary["block_shares"].values()) < 1.01


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "wireless-modem" in out

    def test_every_experiment_is_wired(self):
        expected = {"table1", "fig3", "fig4", "fig5", "fig6",
                    "overhead", "validation", "granularity", "styles",
                    "design-space"}
        assert set(EXPERIMENTS) == expected

    def test_run_validation(self, capsys, tmp_path):
        json_path = tmp_path / "out.json"
        code = main(["run", "validation", "--json", str(json_path)])
        assert code == 0
        assert "Macromodel validation" in capsys.readouterr().out
        payload = json.loads(json_path.read_text())
        assert payload["passed"] == 1

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2

    def test_scenario_command(self, capsys):
        code = main(["scenario", "portable-audio-player",
                     "--duration-us", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cycles"] == 500
        assert payload["protocol_violations"] == 0

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_telemetry_reports_the_engine_used(self, engine, capsys,
                                               tmp_path):
        trace = str(tmp_path / "trace.json")
        code = main(["telemetry", "--duration-us", "2", "--engine",
                     engine, "--trace-out", trace])
        assert code == 0
        err = capsys.readouterr().err
        assert "engine: requested %s, used %s\n" % (engine, engine) \
            in err
        assert validate_chrome_trace(trace) == []

    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])
