import io
import json

import numpy as np
import pytest

from graphon_cpd.cliio import (
    DataError,
    cli_main,
    dumps_json,
    parse_edge_csv,
    report_to_dict,
    write_edge_csv,
    write_report_json,
)
from graphon_cpd.cpd import default_params, detect
from graphon_cpd.genmodels import ScenarioSpec, scenario_sequence


class TestEdgeCsv:
    def test_empty_file_with_declared_sizes(self):
        seq = parse_edge_csv(io.StringIO("t,i,j\n"), n=3, T=2)
        assert seq.shape == (2, 3, 3)
        assert (seq == 0).all()

    def test_duplicate_rows_idempotent(self):
        seq = parse_edge_csv(io.StringIO("t,i,j\n0,0,1\n0,1,0\n"))
        assert seq[0].sum() == 2  # one undirected edge, mirrored
        assert seq[0, 0, 1] == 1

    def test_bad_header(self):
        with pytest.raises(DataError):
            parse_edge_csv(io.StringIO("time,a,b\n"))

    def test_malformed_row_reports_line(self):
        with pytest.raises(DataError, match="line 3"):
            parse_edge_csv(io.StringIO("t,i,j\n0,0,1\n0,x,1\n"))

    def test_declared_bounds_enforced(self):
        with pytest.raises(DataError):
            parse_edge_csv(io.StringIO("t,i,j\n5,0,1\n"), T=3)

    def test_round_trip_canonical(self):
        rng = np.random.default_rng(12)
        seq = rng.integers(0, 2, (3, 6, 6)).astype(np.int8)
        seq = np.triu(seq) | np.triu(seq).transpose(0, 2, 1)
        buf = io.StringIO()
        write_edge_csv(seq, buf)
        reparsed = parse_edge_csv(io.StringIO(buf.getvalue()), n=6, T=3)
        # the off-diagonal structure must round-trip; note self-loops too
        assert np.array_equal(reparsed, seq)
        buf2 = io.StringIO()
        write_edge_csv(reparsed, buf2)
        assert buf.getvalue() == buf2.getvalue()


@pytest.fixture(scope="module")
def report():
    seq, _ = scenario_sequence(ScenarioSpec(id="DSBM-I", n=15, T=16, seed=2))
    return detect(seq, default_params(16, 15))


class TestReportJson:

    def test_round_trip_exact(self, report, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(report, str(path))
        payload = json.loads(path.read_text())
        assert payload["n"] == 15 and payload["T"] == 16
        assert payload["threshold"] == report.threshold
        assert payload["local_max"] == report.local_max
        assert [t for t, _ in payload["scan"]] == list(report.scan.ts)
        assert [v for _, v in payload["scan"]] == list(report.scan.values)

    def test_scan_length(self, report, tmp_path):
        payload = report_to_dict(report)
        T, h = payload["T"], payload["h"]
        assert len(payload["scan"]) == T - 2 * h + 1

    def test_empty_changepoints_serialize_as_list(self):
        assert '"changepoints": []' in dumps_json({"changepoints": []})


class TestCli:
    def test_simulate_then_detect(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        truth = tmp_path / "truth.json"
        out = tmp_path / "report.json"
        scan = tmp_path / "scan.csv"
        assert cli_main([
            "simulate", "--scenario", "DSBM-I", "--n", "30", "--T", "16",
            "--seed", "7", "--out", str(edges), "--truth-out", str(truth),
        ]) == 0
        assert json.loads(truth.read_text())["changepoints"] == [8]
        assert cli_main([
            "detect", str(edges), "--n", "30", "--T", "16",
            "--out", str(out), "--scan-out", str(scan),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["h"] == 4
        assert len(scan.read_text().splitlines()) == 1 + len(payload["scan"])

    def test_detect_h_too_large_is_usage_error(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        cli_main([
            "simulate", "--scenario", "DSBM-I", "--n", "30", "--T", "16",
            "--seed", "7", "--out", str(edges),
        ])
        code = cli_main([
            "detect", str(edges), "--T", "16", "--h", "9", "--out", "x.json",
        ])
        assert code == 1
        assert "2h <= T" in capsys.readouterr().err

    def test_eval_subcommand(self, capsys):
        assert cli_main(["eval", "--est", "48,90", "--truth", "50", "--T", "100"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"xi1": 2, "xi2": 40}

    def test_missing_input_is_data_error(self, capsys):
        assert cli_main(["detect", "no-such-file.csv", "--out", "x.json"]) == 2

    # T * n^2 bytes exceeds the largest virtual address space 64-bit CPUs
    # implement, 2^57 bytes (first case), or numpy's array size limit
    # (second), so the allocation fails at once under every overcommit
    # policy and nothing large is ever touched.
    @pytest.mark.parametrize("node", ["999999999", "99999999999"])
    def test_oversized_input_is_data_error(self, tmp_path, capsys, node):
        edges = tmp_path / "edges.csv"
        edges.write_text(f"t,i,j\n0,0,{node}\n")
        assert cli_main(["detect", str(edges), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert f"n={int(node) + 1}, T=1" in err

    def test_estimate_matrix_shape(self, tmp_path):
        edges = tmp_path / "edges.csv"
        cli_main([
            "simulate", "--scenario", "NOCHANGE-SBM-III", "--n", "12", "--T", "6",
            "--seed", "1", "--out", str(edges),
        ])
        out = tmp_path / "mat.csv"
        assert cli_main([
            "estimate", str(edges), "--n", "12", "--T", "6",
            "--from", "1", "--to", "6", "--out", str(out),
        ]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 12 and len(rows[0].split(",")) == 12
        out2 = tmp_path / "mat2.csv"
        assert cli_main([
            "estimate", str(edges), "--n", "12", "--T", "6",
            "--from", "1", "--to", "6", "--method", "musvt", "--out", str(out2),
        ]) == 0

    def test_bench_writes_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert cli_main([
            "bench", "--scenario", "DSBM-I", "--n", "20", "--T", "16",
            "--seed", "5", "--reps", "2", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scenario,T,n,Jhat,xi1,xi2,reps,excluded"
        assert lines[1].startswith("DSBM-I,16,20,")

    def test_usage_error_on_unknown_flag(self):
        assert cli_main(["detect", "--bogus"]) == 1
