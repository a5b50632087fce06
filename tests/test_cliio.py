import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphon_cpd import cliio, cpd, estim
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

# The row-by-row reader is the oracle for the single-pass one.
row_loop = cliio._parse_edge_rows


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

    @pytest.mark.parametrize("text,line", [
        ("t,i,j\n0,0,1\r0,1,2\n", 2),  # a lone \r without universal newlines
        ("t,i,j\n0,0,1\n0,1," + "1" * 200000 + "\n", 3),  # over csv's field limit
        ("t,i," + "j" * 200000 + "\n0,0,1\n", 1),  # the same in the header
    ], ids=["lone CR", "long field", "long header field"])
    def test_csv_error_is_data_error(self, text, line):
        with pytest.raises(DataError, match=f"^line {line}: "):
            parse_edge_csv(io.StringIO(text))

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

    def test_write_rows(self):
        seq = np.zeros((12, 11, 11), dtype=np.int8)
        seq[0, 3, 3] = seq[0, 10, 2] = seq[0, 2, 10] = seq[11, 0, 1] = seq[11, 1, 0] = 1
        buf = io.StringIO()
        write_edge_csv(seq, buf)
        assert buf.getvalue() == "t,i,j\n0,2,10\n0,3,3\n11,0,1\n"

    def test_empty_body(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for text in ("t,i,j\n", "t,i,j\r\n\r\n\n"):
                with pytest.raises(DataError, match="^empty file needs explicit n and T$"):
                    parse_edge_csv(io.StringIO(text))
            seq = parse_edge_csv(io.StringIO("t,i,j\r\n\n"), n=2, T=1)
        assert seq.tolist() == [[[0, 0], [0, 0]]]
        assert caught == []  # neither reader warns on an empty body

    def test_size_bound_checked_before_allocating(self, monkeypatch):
        # 1 MiB and a page: the (1, 1024, 1024) array and its one edge's row.
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 257}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        assert parse_edge_csv(io.StringIO("t,i,j\n0,0,1023\n")).shape == (1, 1024, 1024)
        with pytest.raises(DataError, match=r"^sizes \(n=1024, T=2\) too large"):
            parse_edge_csv(io.StringIO("t,i,j\n1,0,1023\n"))
        monkeypatch.delattr(os, "sysconf")
        assert parse_edge_csv(io.StringIO("t,i,j\n1,0,1023\n")).shape == (2, 1024, 1024)

    def test_size_bound_counts_the_rows_held(self, monkeypatch, tmp_path):
        # The (4, 256, 256) array fits with a page to spare, but the 2000
        # rows the byte reader holds until the scatter, 3 bytes each, do not.
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4 * 256 * 256 // 4096 + 1}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        rng = np.random.default_rng(0)
        pairs = np.sort(rng.choice(256, (2000, 2)), axis=1)
        rows = [(t % 4, i, j) for t, (i, j) in enumerate(pairs)] + [(3, 0, 255)]
        path = tmp_path / "edges.csv"
        path.write_text("t,i,j\n" + "".join(f"{t},{i},{j}\n" for t, i, j in rows))
        with open(path, newline="") as fh:
            with pytest.raises(DataError, match=r"^sizes \(n=256, T=4\) too large"):
                parse_edge_csv(fh)
        assert cli_main(["detect", str(path), "--out", str(tmp_path / "r.json")]) == 2

    def test_size_bound_counts_the_rows_the_row_loop_holds(self, monkeypatch, tmp_path):
        # As above, with the spaces after each comma sending the file to the
        # row loop: its 20001 rows, 24 bytes each, count against the bound.
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4 * 256 * 256 // 4096 + 1}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        rng = np.random.default_rng(0)
        pairs = np.sort(rng.choice(256, (20000, 2)), axis=1)
        rows = [(t % 4, i, j) for t, (i, j) in enumerate(pairs)] + [(3, 0, 255)]
        path = tmp_path / "edges.csv"
        path.write_text("t,i,j\n" + "".join(f"{t}, {i}, {j}\n" for t, i, j in rows))
        with open(path, newline="") as fh:
            with pytest.raises(DataError, match=r"^sizes \(n=256, T=4\) too large"):
                parse_edge_csv(fh)
        assert cli_main(["detect", str(path), "--out", str(tmp_path / "r.json")]) == 2
        # Ids past int64 are counted but not kept, and fail the same bound.
        with pytest.raises(DataError, match=r"^sizes \(n=3, T=18446744073709551620\) too large"):
            row_loop(io.StringIO(f"t,i,j\n0, 1, 2\n{2**64 + 3}, 0, 1\n"), None, None)

    def test_undecodable_file_fails_as_in_the_row_loop(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_bytes(b"t,i,j\n" + b"0,1,2\n" * 20000 + b"0,\xff,1\n")
        errors = []
        for parse in (parse_edge_csv, row_loop):
            with open(path, newline="", encoding="utf-8") as fh:
                with pytest.raises(UnicodeDecodeError) as caught:
                    parse(fh, n=None, T=None)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    def test_parse_memory_is_near_the_dense_array(self, tmp_path):
        # The values are kept in the narrowest unsigned dtype of each block
        # (6 bytes per edge here), not as an (edges, 3) int64 body: the
        # latter peaked at about 6.5x the dense array on this file.
        seq, path = written_csv(tmp_path)
        with open(path, newline="", encoding="utf-8") as fh:
            parsed, peak = traced_parse(fh)
        assert np.array_equal(parsed, seq)
        assert peak <= 3 * parsed.nbytes

    def test_row_loop_parse_memory(self, tmp_path):
        # Padded fields send the file to the row loop, whose int64 block is
        # scattered in place: copying it first peaked at about 14x here.
        seq, path = written_csv(tmp_path)
        header, body = path.read_text(encoding="utf-8").split("\n", 1)
        path.write_text(header + "\n" + body.replace(",", ", "), encoding="utf-8")
        with open(path, newline="", encoding="utf-8") as fh:
            parsed, peak = traced_parse(fh)
        assert np.array_equal(parsed, seq)
        assert peak < 10 * parsed.nbytes

    def test_non_seekable_parse_memory_is_near_the_dense_array(self, tmp_path):
        # A stream that cannot seek is spooled to a temporary file; an
        # io.StringIO copy of it peaked at about 11x the dense array here.
        class Pipe:
            def __init__(self, fh):
                self.read = fh.read

            def seekable(self):
                return False

        seq, path = written_csv(tmp_path)
        with open(path, newline="", encoding="utf-8") as fh:
            parsed, peak = traced_parse(Pipe(fh))
        assert np.array_equal(parsed, seq)
        assert peak <= 3 * parsed.nbytes

    @pytest.mark.parametrize("text", [
        "t,i,j\r\n0,2,1\r\n1,0,0\n\n01,3,0\r\n\r\n\n0,1,2",
        None,  # write_edge_csv output
    ], ids=["crlf-mixed-empty", "writer-output"])
    def test_canonical_file_takes_single_pass(self, monkeypatch, text):
        if text is None:
            rng = np.random.default_rng(5)
            seq = np.triu(rng.integers(0, 2, (5, 40, 40), dtype=np.int8))
            buf = io.StringIO()
            write_edge_csv(seq | seq.transpose(0, 2, 1), buf)
            text = buf.getvalue()
        expected = row_loop(io.StringIO(text), None, None)
        monkeypatch.setattr(cliio, "_parse_edge_rows", None)  # a fallback would fail
        seq = parse_edge_csv(io.StringIO(text))
        assert seq.dtype == np.int8 and np.array_equal(seq, expected)

    @pytest.mark.parametrize("text", [
        "t,i,j\r\n0,2,1\r\n+1, 0 ,0\n\n-0,1,2\n01,3,0\n0,1,2",
        "t,i,j\n0,1,2\n   \n1,0,1\n",
    ], ids=["padded", "space-only-line"])
    def test_other_body_takes_row_loop(self, monkeypatch, text):
        calls = []

        def spy(*args):
            calls.append(args)
            return row_loop(*args)

        monkeypatch.setattr(cliio, "_parse_edge_rows", spy)
        seq = parse_edge_csv(io.StringIO(text))
        assert len(calls) == 1
        assert seq.dtype == np.int8 and np.array_equal(seq, row_loop(io.StringIO(text), None, None))

    @pytest.mark.parametrize("text", [
        "t,i,j\n0,1,2\n1,2,0\n",
        "t,i,j\n0,1,2\n1,2,1_0\n",
        "t,i,j\n0,1,2\n1,x,0\n",
    ])
    def test_non_seekable_stream(self, text):
        class Pipe(io.StringIO):
            def seekable(self):
                return False

            def seek(self, *args):
                raise io.UnsupportedOperation("seek")

            def tell(self):
                raise io.UnsupportedOperation("tell")

        assert_same(outcome(parse_edge_csv, Pipe(text)), outcome(row_loop, io.StringIO(text)))

    def test_stream_read_from_its_current_position(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("preamble\nt,i,j\n0,0,1\n1,1_0,2\n", encoding="utf-8")
        expected = row_loop(io.StringIO("t,i,j\n0,0,1\n1,1_0,2\n"), None, None)
        with open(path, newline="", encoding="utf-8") as fh:
            next(fh)  # iterating disables tell(); the rest is buffered
            assert np.array_equal(parse_edge_csv(fh), expected)
        stream = io.StringIO(path.read_text(encoding="utf-8"))
        stream.readline()  # the fallback rewinds to here, not to 0
        assert np.array_equal(parse_edge_csv(stream), expected)


def written_csv(tmp_path):
    """A writer-made MDSBM-I (60, 400) edge CSV (3.1 MB) and its sequence."""
    seq, _ = scenario_sequence(ScenarioSpec(id="MDSBM-I", n=60, T=400, seed=1))
    path = tmp_path / "edges.csv"
    with open(path, "w", encoding="utf-8") as fh:
        write_edge_csv(seq, fh)
    return seq, path


def traced_parse(stream):
    """parse_edge_csv's array and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        parsed = parse_edge_csv(stream)
        return parsed, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def outcome(parse, stream, n=None, T=None):
    """The parsed array, or the message of the DataError raised instead."""
    try:
        return parse(stream, n=n, T=T)
    except DataError as exc:
        return str(exc)


def assert_same(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert np.array_equal(got, want)


def _spellings(value):
    """Spellings of a small id: the first five are ones numpy also reads."""
    return [str(value), f"+{value}", f" {value} ", f"0{value}", f"{value}\u00a0",
            "٠١٢٣٤٥"[value], f'"{value}"', f"{value}.0", hex(value), f"{value}_0"]


HOSTILE_FIELDS = ["-0", "-1", "1_0", "1.0", "0x1", "١", str(2**63), str(2**64 + 3),
                  "", " ", "#", "1e0"]
plain = st.integers(0, 5).map(str)
readable = st.one_of(st.integers(0, 5).flatmap(lambda v: st.sampled_from(_spellings(v)[:5])),
                     st.just("-0"))
any_field = st.one_of(st.integers(0, 5).flatmap(lambda v: st.sampled_from(_spellings(v))),
                      st.sampled_from(HOSTILE_FIELDS))
endings = st.sampled_from(["\n", "\r\n"])
clean_lines = st.one_of(
    st.tuples(plain, plain, plain).map(",".join),  # self-loops, both orientations
    st.tuples(readable, readable, readable).map(",".join),
    st.just(""),
)
hostile_lines = st.one_of(
    st.tuples(any_field, any_field, any_field).map(",".join),
    st.lists(plain, min_size=2, max_size=4).map(",".join),
    st.tuples(plain, plain, plain).map(lambda r: ",".join(r) + ","),
    st.sampled_from(["   ", "# comment", "#0,1,2"]),
)


@st.composite
def edge_files(draw):
    header = draw(st.sampled_from(["t,i,j"] * 4 + [" t, i ,j", "t,i,j,", '"t",i,j', "i,j,t"]))
    body = draw(st.lists(st.tuples(clean_lines, endings), max_size=12))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(body)))
        body.insert(at, draw(st.tuples(hostile_lines, endings)))
    if body and draw(st.booleans()):  # an unterminated last line
        body[-1] = (body[-1][0], "")
    return header + draw(endings) + "".join(line + end for line, end in body)


@pytest.mark.parametrize("text", [
    "t,i,j\n0,1\n2,3\n",
    "t,i,j\n0,1,2,3\n",
    "t,i,j\n0,1,2,\n",
    "t,i,j\n0,-1,2\n",
    't,i,j\n"1",0,1\n',
    "t,i,j\n1_0,0,1\n",
    "t,i,j\n0,0,9223372036854775808\n",
    "t,i,j\n#0,0,1\n0,0,1\n",
    "t,i,j\n0,0,1\n \t\n",
    "t,i,j\n0,0,1\r0,1,2\n",
    "t,i,j\n0,+ 1,2\n",
    "t,i,j\n0,1 2,2\n",
    "t,i,j\n0,1+2,2\n",
    "t,i,j\n--0,1,2\n",
    "t,i,j\n0,-3,2\n",
    "t,i,j\n0,0000000000000000001,2\n",
    "t,i,j\n0,1,2\n   \n1,0,1\n",
    "t,i,j\n0,1,2\r\n\r\n",
])
def test_hostile_file_matches_row_loop(text):
    # newline="" as in the CLI: the row loop takes a lone \r as a line end
    got = outcome(parse_edge_csv, io.StringIO(text, newline=""))
    assert_same(got, outcome(row_loop, io.StringIO(text, newline="")))


@given(edge_files(), st.none() | st.integers(1, 8), st.none() | st.integers(1, 8),
       st.sampled_from(["\n", ""]), st.sampled_from([1, 2, 3, 5, 64, cliio._READ_CHARS]))
@settings(max_examples=400, deadline=None)
def test_parse_matches_row_loop(text, n, T, newline, read_chars):
    # Small blocks put line ends, CRLF pairs and the last line across block edges.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cliio, "_READ_CHARS", read_chars)
        got = outcome(parse_edge_csv, io.StringIO(text, newline=newline), n, T)
    assert_same(got, outcome(row_loop, io.StringIO(text, newline=newline), n, T))


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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_float_leaves_no_report(self, report, tmp_path, value):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="cannot write .* to a JSON report"):
            write_report_json(dataclasses.replace(report, threshold=value), str(path))
        assert not path.exists()


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
        for command in (
            ["detect", str(edges), "--T", "16", "--h", "9", "--out", "x.json"],
            ["bench", "--scenario", "DSBM-I", "--n", "30", "--T", "16", "--seed", "1",
             "--reps", "1", "--h", "9"],
        ):
            assert cli_main(command) == 1
            assert capsys.readouterr().err == "error: need 2h <= T, got h=9, T=16\n"

    def test_detect_given_h_skips_default_check(self, tmp_path, capsys):
        # T = 3 is too short for the default h = floor(sqrt(T)), not for --h 1.
        edges = tmp_path / "edges.csv"
        edges.write_text("t,i,j\n0,0,1\n1,1,2\n2,0,2\n")
        out = tmp_path / "report.json"
        assert cli_main(["detect", str(edges), "--h", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads(out.read_text())
        assert (payload["h"], payload["T"], payload["changepoints"]) == (1, 3, [])

    @pytest.mark.parametrize("threads", ["abc", "-1"])
    def test_bad_thread_setting_is_usage_error(self, monkeypatch, capsys, threads):
        monkeypatch.setenv("GRAPHON_CPD_THREADS", threads)
        assert cli_main([
            "bench", "--scenario", "DSBM-I", "--n", "20", "--T", "16", "--seed", "1",
            "--reps", "1",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: GRAPHON_CPD_THREADS") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    @pytest.mark.parametrize("args,err", [
        (["BOGUS", "12", "12", "1"], "unknown scenario id 'BOGUS'"),
        (["DSBM-I", "3", "12", "1"], "require n >= 6 and T >= 1"),
        (["MDSBM-II", "12", "12", "1"], "MDSBM-II needs T divisible by 5, got T=12"),
        (["DSBM-I", "12", "12", "-1"], "seed must fit in 64 bits"),
    ], ids=["unknown id", "small n", "indivisible T", "negative seed"])
    def test_bad_scenario_argument_is_usage_error(self, tmp_path, capsys, command,
                                                  args, err):
        sid, n, T, seed = args
        extra = {"simulate": ["--out", str(tmp_path / "x.csv")], "bench": ["--reps", "1"]}
        assert cli_main([
            command, "--scenario", sid, "--n", n, "--T", T, "--seed", seed,
            *extra[command],
        ]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_scenario_out_of_model_range_is_numeric_error(self, tmp_path, capsys):
        # The arguments are valid; SBM-V's connectivity leaves [0, 1] at this delta.
        assert cli_main([
            "simulate", "--scenario", "MDSBM-I", "--n", "10", "--T", "12",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        ]) == 3
        assert capsys.readouterr().err.startswith(
            "numeric error: SBM-V: block connectivity leaves [0, 1]")

    def test_eval_subcommand(self, capsys):
        assert cli_main(["eval", "--est", "48,90", "--truth", "50", "--T", "100"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"xi1": 2, "xi2": 40}

    @pytest.mark.parametrize("args", [
        ["--est", "a", "--T", "10"],
        ["--est", "0", "--T", "10"],
        ["--truth", "101", "--T", "100"],
    ])
    def test_eval_bad_points_are_usage_errors(self, args, capsys):
        assert cli_main(["eval", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_module_entry_point(self):
        # The child imports the same package as this process, installed or not.
        src = os.path.dirname(os.path.dirname(cliio.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "graphon_cpd",
             "eval", "--est", "48", "--truth", "50", "--T", "100"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout) == {"xi1": 2, "xi2": 2}

    @pytest.mark.parametrize("args", [
        ["detect", "no-such-file.csv", "--out", "x.json"],
        ["estimate", "no-such-file.csv", "--from", "1", "--to", "1", "--out", "x.csv"],
    ], ids=["detect", "estimate"])
    def test_missing_input_is_data_error(self, capsys, args):
        assert cli_main(args) == 2

    # 91 TiB could be reserved under memory overcommit, so the first case
    # needs the physical-memory bound checked before allocating. The others
    # exceed the 2^57-byte virtual address space of 64-bit CPUs or numpy's
    # array size limit, so even the allocation fails at once; nothing large
    # is ever touched.
    @pytest.mark.parametrize("node", [
        pytest.param("10000000", marks=pytest.mark.skipif(
            not hasattr(os, "sysconf"), reason="physical memory size unknown")),
        "999999999",
        "99999999999",
    ])
    def test_oversized_input_is_data_error(self, tmp_path, capsys, node):
        edges = tmp_path / "edges.csv"
        edges.write_text(f"t,i,j\n0,0,{node}\n")
        assert cli_main(["detect", str(edges), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert f"n={int(node) + 1}, T=1" in err

    # A bad byte in the first block and one 120 KB in, past it.
    @pytest.mark.parametrize("body", [b"0,\xff,1\n", b"0,1,2\n" * 20000 + b"0,\xff,1\n"],
                             ids=["first block", "later block"])
    def test_undecodable_input_is_data_error(self, tmp_path, capsys, body):
        edges = tmp_path / "edges.csv"
        edges.write_bytes(b"t,i,j\n" + body)
        assert cli_main(["detect", str(edges), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_oversized_field_is_data_error(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text("t,i,j\n0,0," + "1" * 200000 + "\n")
        assert cli_main(["detect", str(edges), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err == "data error: line 2: field larger than field limit (131072)\n"

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

    def test_estimate_default_method_is_mnbs(self, tmp_path):
        edges = tmp_path / "edges.csv"
        cli_main([
            "simulate", "--scenario", "NOCHANGE-SBM-III", "--n", "12", "--T", "6",
            "--seed", "1", "--out", str(edges),
        ])
        window = ["estimate", str(edges), "--from", "1", "--to", "6"]
        outs = [tmp_path / "default.csv", tmp_path / "mnbs.csv"]
        assert cli_main([*window, "--out", str(outs[0])]) == 0
        assert cli_main([*window, "--method", "mnbs", "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("b0", ["0", "inf"])
    def test_estimate_nonpositive_b0_is_numeric_error(self, tmp_path, capsys, b0):
        edges = tmp_path / "edges.csv"
        edges.write_text("t,i,j\n0,0,1\n0,1,2\n")
        out = tmp_path / "mat.csv"
        assert cli_main(["estimate", str(edges), "--from", "1", "--to", "1",
                         "--B0", b0, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric error: require n >= 3, omega > 0, finite b0 > 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command,flag", [
        ("detect", "B0"), ("detect", "D0"), ("detect", "delta0"),
        ("bench", "B0"), ("bench", "D0"), ("bench", "delta0"),
        ("estimate", "B0"),
    ])
    def test_non_finite_detector_value_is_numeric_error(self, tmp_path, capsys, command,
                                                        flag, value):
        edges, out = tmp_path / "edges.csv", tmp_path / "out"
        edges.write_text("t,i,j\n0,0,1\n1,1,2\n2,0,2\n3,1,3\n")
        args = {
            "detect": ["detect", str(edges), "--h", "1"],
            "bench": ["bench", "--scenario", "DSBM-I", "--n", "20", "--T", "16",
                      "--seed", "1", "--reps", "1"],
            "estimate": ["estimate", str(edges), "--from", "1", "--to", "2"],
        }[command]
        assert cli_main([*args, f"--{flag}={value}", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,flags", [
        ("detect", ["--delta0", "1000"]),
        ("detect", ["--D0", "1e308", "--delta0", "5"]),
        ("bench", ["--delta0", "1e308"]),
    ], ids=["detect-delta0", "detect-D0-delta0", "bench-delta0"])
    def test_overflowing_threshold_is_numeric_error(self, tmp_path, monkeypatch, capsys,
                                                    command, flags):
        # Refused before the scan: no window is estimated.
        estimated, original = [], cpd.mnbs_from_average

        def spy(abar, window, b0):
            estimated.append(window)
            return original(abar, window, b0)

        monkeypatch.setattr(cpd, "mnbs_from_average", spy)
        edges, out = tmp_path / "edges.csv", tmp_path / "out"
        scenario = ["--scenario", "DSBM-I", "--n", "50", "--T", "20", "--seed", "1"]
        assert cli_main(["simulate", *scenario, "--out", str(edges)]) == 0
        args = {"detect": ["detect", str(edges)], "bench": ["bench", *scenario, "--reps", "1"]}
        assert cli_main([*args[command], *flags, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: threshold") and err.count("\n") == 1
        assert not out.exists() and estimated == []

    def test_memory_error_is_data_error(self, tmp_path, monkeypatch, capsys):
        def out_of_memory(abar):
            raise MemoryError

        monkeypatch.setattr(estim, "_gram", out_of_memory)
        edges = tmp_path / "edges.csv"
        edges.write_text("t,i,j\n0,0,1\n1,1,2\n2,0,2\n3,1,3\n")
        assert cli_main(["detect", str(edges), "--h", "1", "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == "data error: out of memory.\n"

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


# --- the command-line contract under random arguments ----------------------

# (flag, good values, bad values). Every value parses as the flag's type, so a
# failure is the program's: exit 1, 2 or 3 with one line. Sizes stay small,
# so no case allocates much.
DETECTOR_FLAGS = [
    ("h", ["1", "2", "4"], ["-1", "0", "9"]),
    ("B0", ["3", "1e-300", "1e308"], ["0", "-1", "nan"]),
    ("D0", ["0.25", "1e-300"], ["0", "inf", "1e308"]),
    ("delta0", ["0.1", "5"], ["1000", "1e308", "nan"]),
]
SIZE_FLAGS = [("n", ["12", "13"], ["2", "3"]), ("T", ["16", "17"], ["0", "3"])]
SCENARIO_FLAGS = [
    ("scenario", ["DSBM-I", "dsbm-iv", "NOCHANGE-GRAPHON-II"], ["BOGUS", "MDSBM-I"]),
    ("n", ["6", "12"], ["-1", "5"]),
    ("T", ["8", "12"], ["0", "5"]),
    ("seed", ["0", "1", str(2**63)], ["-1", str(2**64)]),
]
POINTS = (["", "5", "3,9"], ["0", "a", "9,3", "48"])


@st.composite
def cli_argv(draw):
    """argv for one of the five commands, each value bad one time in four;
    {d} stands for a directory that holds dsbm.csv, tiny.csv and empty.csv."""
    def value(good, bad):
        return draw(st.sampled_from(bad if bad and draw(st.integers(0, 3)) == 3 else good))

    def required(flags):
        return [f"--{name}={value(good, bad)}" for name, good, bad in flags]

    def optional(flags):
        return [arg for arg in required(flags) if draw(st.booleans())]

    edges = value(["{d}/dsbm.csv", "{d}/tiny.csv"], ["{d}/empty.csv", "{d}/none.csv"])
    command = draw(st.sampled_from(["detect", "estimate", "simulate", "eval", "bench"]))
    if command == "detect":
        return ["detect", edges, *optional(SIZE_FLAGS + DETECTOR_FLAGS),
                "--out={d}/report.json", *optional([("scan-out", ["{d}/scan.csv"], [])])]
    if command == "estimate":
        window = [("from", ["1", "3"], ["-1", "0", "17"]), ("to", ["4", "16"], ["0", "2", "17"])]
        return ["estimate", edges, *optional(SIZE_FLAGS), *required(window),
                *optional([("method", ["mnbs", "musvt"], []), DETECTOR_FLAGS[1]]),
                "--out={d}/matrix.csv"]
    if command == "simulate":
        return ["simulate", *required(SCENARIO_FLAGS), "--out={d}/edges.csv",
                *optional([("truth-out", ["{d}/truth.json"], [])])]
    if command == "eval":
        return ["eval", *optional([("est", *POINTS), ("truth", *POINTS)]),
                *required([("T", ["10", "100"], ["-1", "0"])])]
    return ["bench", *required(SCENARIO_FLAGS + [("reps", ["1", "2"], ["-1", "0"])]),
            *optional(DETECTOR_FLAGS), "--out={d}/bench.csv"]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert cli_main(["simulate", "--scenario", "DSBM-I", "--n", "12", "--T", "16",
                     "--seed", "1", "--out", str(root / "dsbm.csv")]) == 0
    (root / "tiny.csv").write_text("t,i,j\n0,0,1\n1,1,2\n2,0,2\n3,1,2\n")
    (root / "empty.csv").write_text("t,i,j\n")
    return root


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@given(cli_argv())
@example(["detect", "{d}/dsbm.csv", "--delta0=1000", "--out={d}/report.json"])
@example(["detect", "{d}/dsbm.csv", "--D0=1e308", "--delta0=5", "--out={d}/report.json"])
@settings(max_examples=300, deadline=None)
def test_cli_contract(cli_dir, argv):
    argv = [arg.format(d=cli_dir) for arg in argv]
    written = ["report.json", "scan.csv", "matrix.csv", "edges.csv", "truth.json", "bench.csv"]
    for name in written:
        (cli_dir / name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        return
    reports = [p.read_text() for p in (cli_dir / "report.json", cli_dir / "truth.json")
               if p.exists()]
    if argv[0] == "eval":
        reports.append(out.getvalue())
    for text in reports:
        json.loads(text, parse_constant=_refuse)
    for name, header in (("matrix.csv", 0), ("scan.csv", 1)):
        if (cli_dir / name).exists():
            values = np.loadtxt(cli_dir / name, delimiter=",", ndmin=2, skiprows=header)
            assert np.isfinite(values).all()
