"""Edge-list ingestion, serialization and the command-line surface.

File formats
    edge CSV      header ``t,i,j``; one row per undirected edge occurrence;
                  0-based snapshot index and node ids; duplicates idempotent.
    matrix CSV    n rows of n comma-separated reals.
    report JSON   keys n, T, h, B0, D0, delta0, threshold, scan, local_max,
                  changepoints; floats written with 17 significant digits.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import IO

import numpy as np

from ._parallel import thread_count
from .cpd import ChangePointReport, DetectorParams, default_params, detect
from .estim import mnbs_estimate, musvt_estimate
from .evalbench import BENCH_CSV_HEADER, boysen, monte_carlo
from .genmodels import ScenarioSpec, scenario_sequence
from .netcore import average_adjacency

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class DataError(Exception):
    pass


# --- edge CSV -------------------------------------------------------------

# The byte reader takes the body _READ_CHARS characters at a time (64 KiB of
# bytes: the parse of a 6 MB file ran 1.3x slower with 2^14, from per-block
# overhead, and 1.7x slower with 2^20, whose temporaries leave the cache).
# A field is at most _FIELD_BYTES digits, so every value it takes fits in
# int64 and csv's field limit never applies; no line it takes is longer than
# _LINE_CHARS.
_READ_CHARS = 2**16
_FIELD_BYTES = 18
_LINE_CHARS = 3 * _FIELD_BYTES + 3  # three fields, two commas and a CR


def parse_edge_csv(stream: IO[str], n: int | None = None, T: int | None = None) -> np.ndarray:
    """Read an edge-list CSV into a dense (T, n, n) binary sequence.

    Sizes default to the largest observed id/time plus one; explicit values
    must cover the data.
    """
    try:
        start = stream.tell() if stream.seekable() else None
    except OSError:  # e.g. a text file that is being iterated with next()
        start = None
    if start is None:  # a seekable copy, kept on disk rather than in memory
        import shutil
        import tempfile  # with what it loads, about 4 ms that only a spool needs
        with tempfile.TemporaryFile("w+", encoding="utf-8", errors="surrogatepass",
                                    newline="") as spool:
            shutil.copyfileobj(stream, spool)
            spool.seek(0)
            return parse_edge_csv(spool, n, T)
    body = _read_blocks(stream)
    if body is None:
        # Only the row loop reports line numbers, and it also takes the
        # non-canonical files it has always accepted.
        stream.seek(start)
        return _parse_edge_rows(stream, n, T)
    return _dense_sequence(*body, n, T)


def _read_blocks(stream: IO[str]) -> tuple[list[np.ndarray], int, int] | None:
    """The body of a file with header exactly ``t,i,j`` as (rows, 3) blocks,
    each in the narrowest unsigned dtype that holds its values, with the
    largest time and node id (-1 for none); None for a file that
    `_block_rows` does not take."""
    if stream.readline() not in ("t,i,j\n", "t,i,j\r\n"):
        return None
    blocks, max_t, max_node = [], -1, -1
    carry = ""
    while carry is not None:
        try:
            chunk = stream.read(_READ_CHARS)
        except UnicodeDecodeError:  # reported by the row loop, at its own offset
            return None
        if chunk:  # whole lines now, the rest with the next chunk
            text = carry + chunk
            cut = text.rfind("\n") + 1
            text, carry = text[:cut], text[cut:]
            if len(carry) > _LINE_CHARS:
                return None
        else:  # the last line may have no newline
            text, carry = carry + "\n" if carry else "", None
        try:
            raw = text.encode("ascii")
        except UnicodeEncodeError:
            return None
        b = np.frombuffer(raw, np.uint8)
        rows = _block_rows(b)
        if rows is None:  # other bytes or empty lines: try it as the writer writes it
            rows = _block_rows(_writer_form(b))
            if rows is None:
                return None
        if len(rows):
            top = rows.max(axis=0)
            max_t, max_node = max(max_t, int(top[0])), max(max_node, int(top[1:].max()))
            blocks.append(rows.astype(np.min_scalar_type(top.max()), copy=False))
    return blocks, max_t, max_node


def _block_rows(b: np.ndarray) -> np.ndarray | None:
    """The (rows, 3) values of a block of whole lines given as ASCII bytes,
    or None unless every line is three fields ``[0-9]{1,18}`` joined by
    commas."""
    digits = np.subtract(b, 48, dtype=np.uint8)
    sep = np.flatnonzero(digits > 9)
    if b[sep].tobytes() != b",,\n" * (sep.size // 3):
        return None
    if not sep.size:
        return np.empty((0, 3), np.uint8)
    length = np.empty_like(sep)
    length[0] = sep[0]
    np.subtract(sep[1:], sep[:-1] + 1, out=length[1:])
    width = int(length.max())
    if length.min() < 1 or width > _FIELD_BYTES:
        return None
    # Digit k from the right of every field at once, in a dtype that holds
    # width digits.
    dtype = np.uint16 if width <= 4 else np.uint32 if width <= 9 else np.uint64
    values = np.zeros(sep.size, dtype)
    for k in range(1, width + 1):
        digit = digits.take(sep - k)
        if k > 1:
            digit *= length >= k
        values += np.multiply(digit, dtype(10 ** (k - 1)), dtype=dtype)
    return values.reshape(-1, 3)


def _writer_form(b: np.ndarray) -> np.ndarray:
    """A block of whole lines given as ASCII bytes as the writer would write
    it: each CR before an LF and every empty line dropped."""
    cr = np.flatnonzero(b == 13)
    b = np.delete(b, cr[b[cr + 1] == 10])  # b ends in a newline, so cr + 1 is in it
    newline = b == 10
    blank = newline.copy()
    blank[1:] &= newline[:-1]
    return b[~blank]


def _parse_edge_rows(stream: IO[str], n: int | None, T: int | None) -> np.ndarray:
    """Row-by-row reader: accepts what ``csv`` and ``int`` accept, and names
    the first bad line."""
    import array  # an extension module (0.14 MiB resident) that only this reader needs
    import csv  # only the row loop reads with it
    reader = csv.reader(stream)
    values = array.array("q")  # t, i, j of every edge
    max_t = max_node = -1
    try:  # a malformed or oversized field is a DataError
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["t", "i", "j"]:
            raise DataError("expected header 't,i,j'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise DataError(f"line {lineno}: expected 3 fields, got {len(row)}")
            try:
                t, i, j = (int(field) for field in row)
            except ValueError:
                raise DataError(f"line {lineno}: non-integer field in {row}")
            if t < 0 or i < 0 or j < 0:
                raise DataError(f"line {lineno}: negative index in {row}")
            if t > max_t:
                max_t = t
            if i > max_node:
                max_node = i
            if j > max_node:
                max_node = j
            if max_t < 2**63 and max_node < 2**63:  # int64 holds it; larger ids fail the size check
                values.extend((t, i, j))
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None
    rows = np.frombuffer(values, np.int64).reshape(-1, 3)
    return _dense_sequence([rows], max_t, max_node, n, T)


def _dense_sequence(blocks: list[np.ndarray], max_t: int, max_node: int,
                    n: int | None, T: int | None) -> np.ndarray:
    """The (T, n, n) int8 sequence of the edges in (rows, 3) blocks whose
    largest time and node id are given (-1 for none), after checking the
    declared sizes against them. The blocks are consumed: an intp block is
    used, and overwritten, in place."""
    inferred_T, inferred_n = max_t + 1, max_node + 1
    T = inferred_T if T is None else T
    n = inferred_n if n is None else n
    if T < inferred_T or n < inferred_n:
        raise DataError(
            f"declared sizes (n={n}, T={T}) below observed (n={inferred_n}, T={inferred_T})"
        )
    if T < 1 or n < 1:
        raise DataError("empty file needs explicit n and T")
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        physical = float("inf")
    try:
        # Refused before allocating: under memory overcommit np.zeros can
        # succeed for a size that could never be filled. The blocks are
        # still held while it is filled.
        if T * n * n + sum(rows.nbytes for rows in blocks) > physical:
            raise MemoryError
        seq = np.zeros((T, n, n), dtype=np.int8)
    except (MemoryError, ValueError):
        raise DataError(f"sizes (n={n}, T={T}) too large for a dense (T, n, n) int8 array")
    flat = seq.reshape(-1)
    for rows in blocks:
        t, i, j = rows.T.astype(np.intp, copy=False)
        t *= n
        flat[(t + i) * n + j] = 1  # both orientations are set, so rows need no ordering
        flat[(t + j) * n + i] = 1
    return seq


def write_edge_csv(seq: np.ndarray, stream: IO[str]) -> None:
    """Write the canonical edge list: rows sorted by (t, i, j), i <= j."""
    stream.write("t,i,j\n")
    labels = [str(k) for k in range(max(seq.shape[0], seq.shape[1]))]
    for t in range(seq.shape[0]):
        i_idx, j_idx = np.nonzero(np.triu(seq[t]))
        prefix = labels[t] + ","
        stream.write("".join([
            f"{prefix}{labels[i]},{labels[j]}\n"
            for i, j in zip(i_idx.tolist(), j_idx.tolist())
        ]))


# --- JSON with fixed float formatting -------------------------------------

def _json_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if np.isfinite(value):  # inf and nan are not JSON
            return format(float(value), ".17g")
        raise ValueError(f"cannot write {value} to a JSON report")
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{_json_value(str(k))}: {_json_value(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(value)}")


def dumps_json(obj: dict) -> str:
    return _json_value(obj) + "\n"


def report_to_dict(report: ChangePointReport) -> dict:
    return {
        "n": report.n,
        "T": report.T,
        "h": report.params.h,
        "B0": report.params.b0,
        "D0": report.params.d0,
        "delta0": report.params.delta0,
        "threshold": report.threshold,
        "scan": [
            [int(t), float(v)] for t, v in zip(report.scan.ts, report.scan.values)
        ],
        "local_max": list(report.local_max),
        "changepoints": [
            [int(t), float(v)]
            for t, v in zip(report.changepoints, report.changepoint_values)
        ],
    }


def write_report_json(report: ChangePointReport, path: str) -> None:
    text = dumps_json(report_to_dict(report))  # before the file, so no partial report
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_matrix_csv(mat: np.ndarray, stream: IO[str]) -> None:
    for row in np.asarray(mat, dtype=float):
        stream.write(",".join(format(v, ".17g") for v in row) + "\n")


# --- CLI ------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphon-cpd",
        description="Dynamic-network change-point detection via smoothed "
        "link-probability estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_detector_flags(p):
        p.add_argument("--h", type=int, default=None, help="window half-width")
        p.add_argument("--B0", type=float, default=3.0)
        p.add_argument("--D0", type=float, default=0.25)
        p.add_argument("--delta0", type=float, default=0.1)

    p = sub.add_parser("detect", help="detect change-points in an edge CSV")
    p.add_argument("input", help="edge CSV path")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--T", type=int, default=None)
    add_detector_flags(p)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--scan-out", default=None, help="optional scan CSV path")

    p = sub.add_parser("estimate", help="estimate link probabilities on a window")
    p.add_argument("input")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--from", dest="t_from", type=int, required=True,
                   help="window start (1-based, inclusive)")
    p.add_argument("--to", dest="t_to", type=int, required=True)
    p.add_argument("--method", choices=["mnbs", "musvt"], default="mnbs")
    p.add_argument("--B0", type=float, default=3.0)
    p.add_argument("--out", required=True, help="matrix CSV path")

    p = sub.add_parser("simulate", help="sample a synthetic scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="edge CSV path")
    p.add_argument("--truth-out", default=None, help="ground-truth JSON path")

    p = sub.add_parser("eval", help="Boysen distances between change-point lists")
    p.add_argument("--est", default="", help="comma-separated estimates")
    p.add_argument("--truth", default="", help="comma-separated true points")
    p.add_argument("--T", type=int, required=True)

    p = sub.add_parser("bench", help="Monte Carlo benchmark of one scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    add_detector_flags(p)
    p.add_argument("--out", default=None, help="BenchRow CSV path (default stdout)")

    return parser


def _detector_params(args, T: int, n: int) -> DetectorParams:
    h = args.h if args.h is not None else default_params(T, n).h
    if h < 1:  # as --h above T / 2, a bad argument
        raise UsageError("h must be a positive integer")
    if 2 * h > T:
        raise UsageError(f"need 2h <= T, got h={h}, T={T}")
    return DetectorParams(h=h, b0=args.B0, d0=args.D0, delta0=args.delta0)


def _scenario_spec(args) -> ScenarioSpec:
    try:  # an unknown id, a size or a seed the scenario cannot take is a bad argument
        return ScenarioSpec(id=args.scenario, n=args.n, T=args.T, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_points(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _run(args) -> int:
    if args.command in ("detect", "estimate"):
        with open(args.input, newline="", encoding="utf-8") as fh:
            seq = parse_edge_csv(fh, n=args.n, T=args.T)
        T, n, _ = seq.shape

    if args.command == "detect":
        params = _detector_params(args, T, n)
        report = detect(seq, params)
        write_report_json(report, args.out)
        if args.scan_out:
            with open(args.scan_out, "w", encoding="utf-8") as fh:
                fh.write("t,D\n")
                for t, v in zip(report.scan.ts, report.scan.values):
                    fh.write(f"{int(t)},{format(float(v), '.17g')}\n")
        return EXIT_OK

    if args.command == "estimate":
        if not 1 <= args.t_from <= args.t_to <= T:
            raise UsageError(f"window [{args.t_from}, {args.t_to}] invalid for T={T}")
        if args.method == "mnbs":
            est = mnbs_estimate(seq, args.t_from, args.t_to, args.B0)
        else:
            abar = average_adjacency(seq, args.t_from, args.t_to)
            est = musvt_estimate(abar, args.t_to - args.t_from + 1)
        with open(args.out, "w", encoding="utf-8") as fh:
            write_matrix_csv(est, fh)
        return EXIT_OK

    if args.command == "simulate":
        spec = _scenario_spec(args)
        seq, truth = scenario_sequence(spec)
        with open(args.out, "w", encoding="utf-8") as fh:
            write_edge_csv(seq, fh)
        if args.truth_out:
            payload = {
                "scenario": spec.id,
                "n": spec.n,
                "T": spec.T,
                "seed": spec.seed,
                "changepoints": truth.changepoints,
            }
            with open(args.truth_out, "w", encoding="utf-8") as fh:
                fh.write(dumps_json(payload))
        return EXIT_OK

    if args.command == "eval":
        try:  # a malformed or out-of-range point is a bad argument
            res = boysen(_parse_points(args.est), _parse_points(args.truth), args.T)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        payload = {"xi1": res.xi1, "xi2": res.xi2 if res.xi2 is not None else "-"}
        sys.stdout.write(dumps_json(payload))
        return EXIT_OK

    if args.command == "bench":
        spec = _scenario_spec(args)
        params = _detector_params(args, args.T, args.n)
        if args.reps < 1:
            raise UsageError("reps must be >= 1")
        row = monte_carlo(spec, args.reps, params)
        text = BENCH_CSV_HEADER + "\n" + row.csv_line() + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK

    raise UsageError(f"unknown command {args.command!r}")


class UsageError(Exception):
    pass


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        try:  # a bad GRAPHON_CPD_THREADS is a bad setting, whatever the command
            thread_count()
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # numpy's names the size it could not allocate
        print(f"data error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return EXIT_DATA
    except (ValueError, IndexError, ArithmeticError) as exc:  # LinAlgError is a ValueError
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(cli_main())
