"""Command-line driver.

Subcommands: table, moments, fit, verify, shortinterval, constants.
Output is RFC-4180 CSV (header row, '.' decimal, 17 significant digits);
the runtime_ms column sits last so everything before it is byte-identical
across reruns.  A moments row's predicted_value is theory.predicted's main
term, blank where it has none.  A cell's runtime_ms can include one-time
work shared with later cells: the first cell of each statistic evaluates
every X of that statistic's grid in one pass, so it carries its grid's whole
time and the statistic's later cells read about 0.

Commands raise; main alone turns an exception into a message on stderr and
an exit code, by its class:
  0  success
  1  verify found a failing check
  2  usage error: ValueError, or an OverflowError (including a table entry
     r_k(n) beyond 64 bits: a request too large for the tables)
  3  I/O or cache error: OSError (CacheLockedError: a locked cache directory)
  4  internal fault: any other exception; main prints its traceback to stderr
GAUSSLAB_CACHE_DIR sets the default cache directory.
"""

from __future__ import annotations

import argparse
import csv
import fcntl
import io
import math
import os
import sys
import time
import traceback

import numpy as np

from . import moments, rk, theory, verify
from .fit import c3_standard_error, recover_c3
from .discrepancy import DiscrepancySeries, prefix_counts
from .moments import MomentSample, Statistic

__all__ = ["CacheLockedError", "main", "run_moments"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

def _cache_path(cache_dir: str, k: int, n_max: int) -> str:
    return os.path.join(cache_dir, f"rk{k}_{n_max}.rktb")


class CacheLockedError(OSError):
    """Another process holds the cache directory's lock."""


def _obtain_table(k: int, n_max: int, cache_dir: str | None, keep: bool = True) -> tuple[rk.RkTable | None, str]:
    """r_k(0..n_max) and how it was obtained: "hit" (a valid cache file),
    "miss" (built, and saved if there is a cache directory) or "rebuild"
    (the cache file failed its checks; built and saved over it).  Every
    outcome returns a table made by this call, which nothing else holds;
    with keep false a hit only checks the file and returns None for it."""
    if cache_dir is None:
        return rk.build_rk_table(k, n_max), "miss"
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, k, n_max)
    outcome = "miss"
    # one process owns a cache directory; closing the file releases the lock
    with open(os.path.join(cache_dir, ".gausslab.lock"), "a+") as lock:
        try:
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            raise CacheLockedError(f"cache directory is locked by another process: {exc}") from exc
        if os.path.exists(path):
            try:
                if keep:
                    table = rk.load_table(path)
                    held = table.k, table.n_max
                else:
                    table, held = None, rk.check_table(path)
                if held != (k, n_max):
                    raise rk.CacheFormatError(f"it holds r_{held[0]} to n_max = {held[1]}")
                return table, "hit"
            except rk.CacheError as exc:
                print(f"warning: rebuilding bad cache {path}: {exc}", file=sys.stderr)
                outcome = "rebuild"
        table = rk.build_rk_table(k, n_max)
        rk.save_table(table, path)
    return table, outcome


def _series(k: int, n_max: int, cache_dir: str | None) -> DiscrepancySeries:
    """S_k and P_k to n_max from the cache or a build.  The table is
    _obtain_table's own, loaded or built and saved, so S_k is summed in place
    over its counts and is the one array of its size that the moments passes
    share room with."""
    table, _ = _obtain_table(k, n_max, cache_dir)
    table.counts.flags.writeable = True
    return prefix_counts(table, out=table.counts)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str | None, header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    data = buf.getvalue()
    if path is None:
        sys.stdout.write(data)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(data)


MOMENTS_HEADER = ["k", "X", "statistic", "value", "truncation_bound", "predicted_value", "runtime_ms"]


def run_moments(
    k: int,
    x_grid: list[float],
    statistics: list[Statistic],
    cache_dir: str | None = None,
    n_max: int | None = None,
    c3: float | None = None,
) -> tuple[list[list[str]], int]:
    """All (statistic, X) cells as CSV rows; returns (rows, exit_code).

    The series runs to n_max, by default the smallest one every cell needs.
    A kernel's ValueError (an X the table or the statistic cannot take, such
    as SharpWeightedFirst at k != 3), or a finite c3 so large that a cell's
    predicted value is not, becomes an ERROR row and exit code 2; any other
    exception propagates.  A non-finite c3 is refused before any table is
    obtained.
    """
    if c3 is not None and not math.isfinite(c3):
        raise ValueError(f"c3 = {c3} is not finite")
    if n_max is None:
        n_max = max(stat.n_needed(k, x) for stat in statistics for x in x_grid)
    series = _series(k, n_max, cache_dir)

    cells = [(stat, stat.scale(x)) for stat in statistics for x in x_grid]
    grids = {stat: dict.fromkeys(x for s, x in cells if s is stat) for stat in statistics}
    rows = []
    status = EXIT_OK
    for stat, x in cells:
        start = time.perf_counter()
        try:
            # the first cell of each statistic evaluates its whole grid in one pass
            outcome = moments.KERNELS[stat](series, x, grid=grids[stat])
        except ValueError as exc:
            outcome = exc
        ms = (time.perf_counter() - start) * 1e3
        predicted = None if isinstance(outcome, ValueError) else theory.predicted(stat, k, x, c3)
        if predicted is not None and not math.isfinite(predicted):
            outcome = ValueError(f"c3 = {c3} gives a predicted value that is not finite")
        if isinstance(outcome, ValueError):
            cols, status = [f"ERROR: {outcome}", "", ""], EXIT_USAGE
        else:
            shown = "" if predicted is None else _fmt(predicted)
            cols = [_fmt(outcome.value), _fmt(outcome.truncation_bound), shown]
        rows.append([str(k), _fmt(x), stat.value, *cols, f"{ms:.3f}"])
    return rows, status


def _geometric_grid(x_min: float, x_max: float, points: int) -> list[float]:
    if points < 1 or not (0 < x_min <= x_max):
        raise ValueError("bad grid: need 0 < x-min <= x-max and points >= 1")
    if points == 1:
        return [x_min]
    quotient = x_max / x_min
    if math.isinf(quotient) and math.isfinite(x_max):
        # finite bounds whose quotient overflows: step in logs, end at x_max
        lo, step = math.log(x_min), (math.log(x_max) - math.log(x_min)) / (points - 1)
        return [x_min] + [math.exp(lo + step * j) for j in range(1, points - 1)] + [x_max]
    ratio = quotient ** (1.0 / (points - 1))
    return [x_min * ratio**j for j in range(points)]


def cmd_table(args) -> int:
    cache_dir = args.cache_dir or "."
    path = _cache_path(cache_dir, args.k, args.n_max)
    start = time.perf_counter()
    _, outcome = _obtain_table(args.k, args.n_max, cache_dir, keep=False)
    elapsed = time.perf_counter() - start
    if outcome == "hit":
        print(f"cache {path} is valid; skipping rebuild")
        return EXIT_OK
    rate = (args.n_max + 1) / max(elapsed, 1e-9)
    size = os.path.getsize(path)
    print(
        f"built and saved r_{args.k}(0..{args.n_max}) in {elapsed:.2f} s "
        f"({rate:,.0f} values/s) -> {path} ({size} bytes)"
    )
    return EXIT_OK


def cmd_moments(args) -> int:
    rows, status = run_moments(
        args.k,
        _geometric_grid(args.x_min, args.x_max, args.points),
        [Statistic(s) for s in args.stat],
        cache_dir=args.cache_dir,
        n_max=args.n_max,
        c3=args.c3,
    )
    _write_csv(args.out, MOMENTS_HEADER, rows)
    return status


def _read_moment_csv(path: str) -> list[MomentSample]:
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:6] != MOMENTS_HEADER[:6]:
            raise ValueError(f"{path}:1: not a moments CSV (header {header})")
        for lineno, row in enumerate(reader, start=2):
            if len(row) < 6:
                raise ValueError(f"{path}:{lineno}: expected >= 6 columns, got {len(row)}")
            try:
                k = int(row[0])
                x = float(row[1])
                stat = Statistic(row[2])
                value = float(row[3])
                bound = float(row[4]) if row[4] else 0.0
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not (math.isfinite(x) and x > 0.0):
                raise ValueError(f"{path}:{lineno}: X = {row[1]} is not a finite positive number")
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: value = {row[3]} is not finite")
            samples.append(MomentSample(k, x, stat, value, bound))
    return samples


def cmd_fit(args) -> int:
    samples = _read_moment_csv(args.csv_in)
    wanted = Statistic.SMOOTH_SECOND if args.mode == "smooth" else Statistic.SHARP_SECOND
    subset = [s for s in samples if s.statistic is wanted and s.k == 3]
    if not subset:
        raise ValueError(f"no k=3 {wanted.value} rows in {args.csv_in}")
    c3, diag = recover_c3(subset)
    se = c3_standard_error(subset)
    c3p = theory.constants_for(3).c3_prime
    print(f"mode: {args.mode}")
    print(f"samples_used: {diag.samples_used}")
    print(f"c3_prime_fixed: {_fmt(c3p)}")
    print(f"c3_estimate: {_fmt(c3)}")
    print(f"c3_stderr: {_fmt(se)}")
    print(f"residual_rms: {_fmt(diag.residual_rms)}")
    print(f"condition_estimate: {_fmt(diag.condition_estimate)}")
    print(f"deviation_from_10.6: {_fmt(abs(c3 - 10.6))}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_battery(
        args.level, report=lambda r: print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    )
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed ({args.level})")
    if failed:
        print("failed: " + ", ".join(r.name for r in failed))
        return EXIT_VERIFY
    return EXIT_OK


def cmd_shortinterval(args) -> int:
    beta = args.beta
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must be in (0, 1]")
    grid = [int(x) for x in _geometric_grid(args.x_min, args.x_max, args.points)]
    if grid[0] < 2:
        raise ValueError(f"X = {grid[0]} too small: the ratio divides by log X, so int(X) >= 2")
    n_max = max(int(x + x**beta) for x in grid)
    series = _series(3, n_max, args.cache_dir)
    rows = []
    for x in grid:
        width = float(x) ** beta
        lo = max(1, math.ceil(x - width))
        hi = min(n_max, math.floor(x + width))
        p = series.p_values(lo, hi + 1)
        window = float(np.sum(p * p))
        ratio = window / (float(x) ** (1.0 + beta) * math.log(x))
        rows.append(
            [
                "3",
                _fmt(x),
                _fmt(beta),
                str(lo),
                str(hi),
                _fmt(window),
                _fmt(ratio),
            ]
        )
    _write_csv(args.out, ["k", "X", "beta", "n_lo", "n_hi", "window_sum", "ratio"], rows)
    return EXIT_OK


def cmd_constants(args) -> int:
    consts = theory.constants_for(args.k)
    rows = [[str(args.k), name, _fmt(value)] for name, value in consts.rows()]
    _write_csv(args.out, ["k", "constant", "value"], rows)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gausslab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    cache_dir = os.environ.get("GAUSSLAB_CACHE_DIR")

    p = sub.add_parser("table", help="build a representation table and cache it")
    p.add_argument("--k", type=int, required=True, choices=range(1, rk.MAX_K + 1))
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--cache-dir", default=cache_dir)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("moments", help="compute moment statistics on a geometric X grid")
    p.add_argument("--k", type=int, required=True, choices=range(1, rk.MAX_K + 1))
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--stat", action="append", required=True, choices=sorted(s.value for s in Statistic))
    p.add_argument("--n-max", type=int, default=None, help="override the derived table size")
    p.add_argument("--cache-dir", default=cache_dir)
    p.add_argument("--threads", type=int, default=None, help="accepted for compatibility; has no effect")
    p.add_argument("--c3", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("fit", help="recover the dimension-3 constant from a moments CSV")
    p.add_argument("csv_in")
    p.add_argument("--mode", choices=("smooth", "sharp"), default="smooth")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify", help="run the identity battery")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("shortinterval", help="short-interval diagnostic scan (k = 3)")
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--cache-dir", default=cache_dir)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_shortinterval)

    p = sub.add_parser("constants", help="print the explicit constants for one dimension")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_constants)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
