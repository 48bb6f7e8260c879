import contextlib
import csv
import fcntl
import hashlib
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from gausslab import cli, dirichlet, moments, rk, theory, verify
from gausslab.cli import main
from gausslab.convolve import ConvolutionOverflowError
from gausslab.dirichlet import Cusp
from gausslab.discrepancy import prefix_counts
from gausslab.moments import KERNELS, Statistic, sharp_second_moment
from gausslab.rk import build_rk_table, load_table, save_table


def run_cli(args):
    return main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestTable:
    def test_build_and_cache_file(self, tmp_path, capsys):
        code = run_cli(["table", "--k", "3", "--n-max", "5000", "--cache-dir", str(tmp_path)])
        assert code == 0
        path = tmp_path / "rk3_5000.rktb"
        assert path.exists()
        assert os.path.getsize(path) == 4 + 4 + 4 + 8 + 8 * 5001 + 8
        table = load_table(path)
        assert table.counts[:6].tolist() == [1, 6, 12, 8, 6, 24]

    def test_k_out_of_range_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["table", "--k", "9", "--n-max", "10", "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_env_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAUSSLAB_CACHE_DIR", str(tmp_path))
        assert run_cli(["table", "--k", "1", "--n-max", "100"]) == 0
        assert (tmp_path / "rk1_100.rktb").exists()


class TestMoments:
    def test_rows_positive_and_increasing(self, tmp_path):
        out = tmp_path / "m.csv"
        code = run_cli(
            [
                "moments",
                "--k", "3",
                "--x-min", "100",
                "--x-max", "400",
                "--points", "3",
                "--stat", "SmoothSecond",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == cli.MOMENTS_HEADER
        values = [float(r[3]) for r in rows[1:]]
        assert len(values) == 3
        assert all(v > 0 for v in values)
        assert values == sorted(values)

    def test_predicted_blank_without_c3_for_k3(self, tmp_path):
        out = tmp_path / "m.csv"
        run_cli(
            [
                "moments",
                "--k", "3",
                "--x-min", "100",
                "--x-max", "200",
                "--points", "2",
                "--stat", "SmoothSecond",
                "--out", str(out),
            ]
        )
        rows = read_csv(out)
        assert all(r[5] == "" for r in rows[1:])

    def test_predicted_filled_with_c3(self, tmp_path):
        out = tmp_path / "m.csv"
        run_cli(
            [
                "moments",
                "--k", "3",
                "--x-min", "100",
                "--x-max", "200",
                "--points", "2",
                "--stat", "SmoothSecond",
                "--c3", "10.6",
                "--out", str(out),
            ]
        )
        rows = read_csv(out)
        for r in rows[1:]:
            want = theory.predicted(Statistic.SMOOTH_SECOND, 3, float(r[1]), 10.6)
            assert abs(float(r[5]) - want) <= 1e-9 * want

    def test_moments_never_loads_numpy_fft(self, tmp_path):
        # only verify's Kloosterman sums take a DFT; the c3 commands start without it
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        stats = [a for s in Statistic for a in ("--stat", s.value)]
        argv = ["moments", "--k", "3", "--x-min", "100", "--x-max", "400", "--points", "3", *stats]
        argv += ["--cache-dir", str(tmp_path), "--out", str(tmp_path / "m.csv")]
        code = (
            "import sys\n"
            "import numpy\n"
            "bare = 'numpy.fft' in sys.modules\n"
            "from gausslab import cli\n"
            f"code = cli.main({argv!r})\n"
            "print(bare, code, 'numpy.fft' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
        if out.startswith("True"):
            pytest.skip("bare import numpy loads numpy.fft (numpy < 2)")
        assert out == "False 0 False\n"

    def test_k4_predicted_column(self, tmp_path):
        out = tmp_path / "m.csv"
        run_cli(
            [
                "moments",
                "--k", "4",
                "--x-min", "50",
                "--x-max", "100",
                "--points", "2",
                "--stat", "SmoothSecond",
                "--out", str(out),
            ]
        )
        rows = read_csv(out)
        for r in rows[1:]:
            want = theory.predicted(Statistic.SMOOTH_SECOND, 4, float(r[1]))
            assert abs(float(r[5]) - want) <= 1e-9 * abs(want)

    def test_deterministic_apart_from_runtime(self, tmp_path):
        args = [
            "moments",
            "--k", "3",
            "--x-min", "50",
            "--x-max", "200",
            "--points", "4",
            "--stat", "SmoothSecond",
            "--stat", "SharpSecond",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(args + ["--out", str(out1), "--threads", "1"])
        run_cli(args + ["--out", str(out2), "--threads", "2"])
        strip = lambda rows: [r[:-1] for r in rows]
        assert strip(read_csv(out1)) == strip(read_csv(out2))

    def test_empty_grid_usage_error(self, tmp_path):
        code = run_cli(
            [
                "moments",
                "--k", "3",
                "--x-min", "100",
                "--x-max", "50",
                "--points", "2",
                "--stat", "SmoothSecond",
                "--out", str(tmp_path / "m.csv"),
            ]
        )
        assert code == 2

    def test_infeasible_x_row_level_error(self, tmp_path):
        out = tmp_path / "m.csv"
        code = run_cli(
            [
                "moments",
                "--k", "3",
                "--x-min", "100",
                "--x-max", "1000",
                "--points", "2",
                "--stat", "SharpSecond",
                "--n-max", "500",
                "--out", str(out),
            ]
        )
        assert code == 2
        rows = read_csv(out)
        assert rows[1][3].startswith("ERROR") or rows[2][3].startswith("ERROR")
        assert any(not r[3].startswith("ERROR") for r in rows[1:])

    def test_error_rows_print_x_like_the_x_column(self, tmp_path):
        out = tmp_path / "m.csv"
        argv = "moments --k 3 --x-min 100 --x-max 1e200 --points 2 --stat SharpSecond --stat SmoothSecond"
        assert run_cli(argv.split() + ["--n-max", "1000", "--out", str(out)]) == 2
        errors = [r for r in read_csv(out)[1:] if r[3].startswith("ERROR")]
        assert len(errors) == 3
        for row in errors:
            assert f"X = {row[1]}" in row[3]
            assert not re.search(r"\d{18}", row[3]), row[3]

    def test_tiny_x_bounds_finite(self):
        # below X of about 1e-101 at k = 3 and 8e-38 at k = 8 the tail's e^{-T/X}
        # underflows, and its product with an overflowed sum was nan
        exp_cut = [Statistic.SMOOTH_SECOND, Statistic.LAPLACE_SECOND, Statistic.SMOOTH_WEIGHTED_FIRST]
        for k, xs, stats in ((3, [1e-300, 1e-200], exp_cut), (8, [1e-40], exp_cut[:1])):
            rows, code = cli.run_moments(k, xs, stats)
            assert code == 0 and len(rows) == len(xs) * len(stats)
            for row in rows:
                assert math.isfinite(float(row[4])) and float(row[4]) >= 0.0, row

    def test_crlf_line_endings(self, tmp_path):
        out = tmp_path / "m.csv"
        run_cli(
            [
                "moments",
                "--k", "3",
                "--x-min", "100",
                "--x-max", "100",
                "--points", "1",
                "--stat", "SmoothSecond",
                "--out", str(out),
            ]
        )
        raw = out.read_bytes()
        assert b"\r\n" in raw


class TestLaplaceGrid:
    """run_moments hands each statistic its own grid memo: the first cell of a
    statistic evaluates that statistic's whole grid in one pass."""

    GRID = [100.0, 215.44346900318845, 464.15888336127773, 1000.0]
    # statistic -> the moments function that runs its grid pass; two
    # statistics share each of the exp-cut and prefix passes
    PASSES = {
        Statistic.SMOOTH_SECOND: "_exp_cut_pass",
        Statistic.SHARP_SECOND: "_prefix_pass",
        Statistic.LAPLACE_SECOND: "_laplace_pass",
        Statistic.SHARP_INTEGRAL_SECOND: "_sharp_integral_pass",
        Statistic.SMOOTH_WEIGHTED_FIRST: "_exp_cut_pass",
        Statistic.SHARP_WEIGHTED_FIRST: "_prefix_pass",
    }

    @staticmethod
    def _count_main_passes(monkeypatch):
        """The sorted scales of each run of the exp-weighted cell generator
        over a whole range, in order: a k = 3 run whose sizes are the
        cutoffs of its scales (an audit run's sizes are its sample's)."""
        passes = []
        real = moments._exp_cells

        def counting(source, g, sizes, nodes):
            if sizes == {x: moments.exp_cutoff(3, x) for x in sizes}:
                passes.append(sorted(sizes))
            return real(source, g, sizes, nodes)

        monkeypatch.setattr(moments, "_exp_cells", counting)
        return passes

    def _count_grid_passes(self, monkeypatch):
        """pass name -> the sorted scales of each of its calls, in order."""
        passes = {name: [] for name in self.PASSES.values()}
        for name in passes:
            real = getattr(moments, name)

            def counting(series, sizes, *args, _name=name, _real=real):
                passes[_name].append(sorted(sizes))
                return _real(series, sizes, *args)

            monkeypatch.setattr(moments, name, counting)
        return passes

    def _one_pass_each(self, stats, scales):
        """pass name -> one call per statistic of `stats` it serves, in that
        order, each over the statistic's own scales of `scales`."""
        want = {name: [] for name in self.PASSES.values()}
        for stat in stats:
            want[self.PASSES[stat]].append(sorted({stat.scale(x) for x in scales}))
        return want

    @staticmethod
    def _plain_row(series, stat, x):
        plain = KERNELS[stat](series, x)
        # run_moments without c3
        predicted = theory.predicted(stat, series.k, x)
        shown = "" if predicted is None else cli._fmt(predicted)
        return [str(series.k), cli._fmt(x), stat.value, cli._fmt(plain.value), cli._fmt(plain.truncation_bound), shown]

    FIVE = [s.value for s in Statistic if s is not Statistic.SHARP_WEIGHTED_FIRST]
    SHARP = [s.value for s in Statistic if not s.exp_cut]
    # (k, x_min, x_max, n_max, statistics): k = 1 cuts X = 1000 off at
    # n = 52,910, k = 5 at n = 80,549 and k = 6 at n = 87,459; k = 2 and 6
    # take the even-k volume path.  The sharp passes walk their cells in
    # 2^14-cell chunks: each X of the last grid ends mid-chunk, in a
    # different chunk.
    CLI_GRIDS = [
        (1, 100, 1000, 80000, FIVE),
        (2, 100, 1000, 80000, FIVE),
        (3, 100, 1000, 80000, FIVE + ["SharpWeightedFirst"]),
        (4, 100, 1000, 80000, FIVE),
        (5, 100, 1000, 81000, FIVE),
        (6, 100, 1000, 88000, FIVE),
        (3, 10000, 100000, 100000, SHARP),
    ]

    @pytest.mark.parametrize(
        "k, x_min, x_max, n_max, stats", CLI_GRIDS, ids=[f"k{k}-to-{x_max}" for k, _, x_max, *_ in CLI_GRIDS]
    )
    def test_grid_run_matches_single_x_runs(self, tmp_path, k, x_min, x_max, n_max, stats):
        # each single-X run reads its X from the grid CSV's X column, so the
        # .17g text goes back through argparse and a one-point grid
        options = [a for s in stats for a in ("--stat", s)] + ["--n-max", str(n_max), "--cache-dir", str(tmp_path)]
        out = tmp_path / "m.csv"

        def rows(lo, hi, points):
            argv = ["moments", "--k", str(k), "--x-min", lo, "--x-max", hi, "--points", str(points)]
            assert run_cli(argv + options + ["--out", str(out)]) == 0
            return [row[:-1] for row in read_csv(out)[1:]]

        grid = rows(str(x_min), str(x_max), 4)
        assert len(grid) == 4 * len(stats)
        singles = [row for x in [row[1] for row in grid[:4]] for row in rows(x, x, 1)]
        assert sorted(singles) == sorted(grid)
        assert [p.name for p in tmp_path.glob("*.rktb")] == [f"rk{k}_{n_max}.rktb"]

    def test_one_main_pass_per_grid(self, monkeypatch):
        passes = self._count_grid_passes(monkeypatch)
        exp_cells = self._count_main_passes(monkeypatch)
        rows, status = cli.run_moments(3, self.GRID, list(Statistic))
        assert status == 0 and len(rows) == 4 * len(Statistic)
        assert passes == self._one_pass_each(Statistic, self.GRID)
        # SmoothSecond, LaplaceSecond and SmoothWeightedFirst: one run each
        assert exp_cells == [self.GRID] * sum(stat.exp_cut for stat in Statistic)

    def test_plain_calls_pass_each_time(self, monkeypatch):
        series = prefix_counts(build_rk_table(3, moments.exp_cutoff(3, 300.0)))
        passes = self._count_main_passes(monkeypatch)
        a = moments.laplace_second_moment(series, 300.0)
        b = moments.laplace_second_moment(series, 300.0)
        assert a == b and passes == [[300.0], [300.0]]

    def test_short_table_errors_only_the_largest_x(self):
        for stat in Statistic:
            n_max = stat.n_needed(3, self.GRID[-1]) - 1
            rows, status = cli.run_moments(3, self.GRID, [stat], n_max=n_max)
            assert status == 2
            if stat.exp_cut:
                want = f"ERROR: series n_max = {n_max} too small for X = 1000; need n_cut = {n_max + 1}"
            else:
                want = f"ERROR: X = 1000 exceeds n_max = {n_max}"
            assert rows[-1][:-1] == ["3", "1000", stat.value, want, "", ""]
            series = prefix_counts(build_rk_table(3, n_max))
            for row, x in zip(rows[:-1], self.GRID):
                assert row[:-1] == self._plain_row(series, stat, stat.scale(x)), stat

    def test_sharp_weighted_first_errors_every_cell_at_k4(self):
        rows, status = cli.run_moments(4, self.GRID, [Statistic.SHARP_WEIGHTED_FIRST])
        assert status == 2 and len(rows) == 4
        want = "ERROR: sharp_weighted_first_moment_p3 needs k = 3, got k = 4"
        want_rows = [["4", str(round(x)), "SharpWeightedFirst", want, "", ""] for x in self.GRID]
        assert [row[:-1] for row in rows] == want_rows

    def test_x_rounding_to_one_sharp_scale_shares_its_entry(self, monkeypatch):
        passes = self._count_grid_passes(monkeypatch)
        grid = [99.6, 100.0, 100.4, 215.2]
        sharp = [stat for stat in Statistic if not stat.exp_cut]
        rows, status = cli.run_moments(3, grid, sharp)
        assert status == 0
        series = prefix_counts(build_rk_table(3, 215))
        assert passes == self._one_pass_each(sharp, grid)
        assert passes["_prefix_pass"] == [[100, 215], [100, 215]]
        for stat in sharp:
            got = [row[:-1] for row in rows if row[2] == stat.value]
            assert got == [self._plain_row(series, stat, x) for x in (100, 100, 100, 215)]


class TestPrefixOverflow:
    """S_8 passes 2^64 at n = 46,172, far below the cutoff of the Laplace
    and smooth sums at X = 1000: the series carries past it and every cell
    is a value.  Only a request whose r_8 table would hold a coefficient
    past 2^64 (from n = 987,840) is refused, before any step is taken."""

    def test_doomed_request_never_builds(self, monkeypatch, capsys):
        monkeypatch.delenv("GAUSSLAB_CACHE_DIR", raising=False)

        def refuse(counts):
            raise AssertionError("_square_step called")

        monkeypatch.setattr(rk, "_square_step", refuse)
        argv = "moments --k 8 --x-min 1e6 --x-max 1e6 --points 1 --stat SharpSecond"
        assert run_cli(argv.split()) == 2
        err = capsys.readouterr().err
        assert err == f"error: r_8(n) exceeds 64 bits from n = {rk.R8_FIRST_OVERFLOW}; n_max = 1000000 cannot be built\n"

    # both sides of S_8's first carry exit 0; SharpSecond at X sums P_8(n)^2
    # to n = X, so at 46,172 it holds the first carried term
    @pytest.mark.parametrize("x, code", [(46171, 0), (46172, 0)])
    def test_k8_sharp_boundary(self, tmp_path, monkeypatch, capsys, x, code):
        monkeypatch.delenv("GAUSSLAB_CACHE_DIR", raising=False)
        out = tmp_path / "m.csv"
        argv = f"moments --k 8 --x-min {x} --x-max {x} --points 1 --stat SharpSecond --out {out}"
        assert run_cli(argv.split()) == code
        assert capsys.readouterr().err == ""
        rows = read_csv(out)
        assert len(rows) == 2
        # Python-int S_8 against V_8 n^4 rounded to an integer: each P_8(n)
        # is within 2^12 of exact, about 1e-10 of its size near n = X
        s8 = np.cumsum(build_rk_table(8, x).counts.astype(object))
        v8 = math.pi**4 / 24
        want = sum((int(s8[n]) - round(v8 * n**4)) ** 2 for n in range(1, x + 1))
        assert float(rows[1][3]) == pytest.approx(want, rel=1e-9)

    def test_k8_moments_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("GAUSSLAB_CACHE_DIR", raising=False)
        out = tmp_path / "m.csv"
        stats = " ".join(f"--stat {s}" for s in ("SmoothSecond", "LaplaceSecond", "SharpSecond"))
        argv = f"moments --k 8 --x-min 100 --x-max 1000 --points 4 {stats} --out {out}"
        assert run_cli(argv.split()) == 0
        assert capsys.readouterr().err == ""
        rows = read_csv(out)[1:]
        assert len(rows) == 12 and not any(row[3].startswith("ERROR:") for row in rows)
        assert all(float(row[3]) > 0 for row in rows)


def _stripped_digest(path):
    """sha256 of the CSV bytes with each line's last field (runtime_ms) cut."""
    lines = [line.rsplit(b",", 1)[0] for line in path.read_bytes().split(b"\r\n") if line]
    return hashlib.sha256(b"\r\n".join(lines)).hexdigest()


class TestPinnedBytes:
    """Moments CSV columns before runtime_ms, pinned by digest: any change
    to a kernel, a prediction, the integer snap of X, the table size or the
    float conversion of the counts shows here."""

    ALL = [s.value for s in Statistic]
    PINNED = {
        (3, None): "f8411be1faac686bcc93b87d0197b8b046f9737498d4287718625b3e0c0a8078",
        (3, "10.56"): "22bde1d463a8c728eb4d5a424931bfe71dd63166dfd697822e5a1a7ac0d0704e",
        (4, None): "a28395e7e7e7489882f875e69313f32058c32490d2fe515dae80125375dadff5",
    }

    @pytest.mark.parametrize("k, c3", sorted(PINNED, key=str))
    def test_digest_unchanged(self, tmp_path, monkeypatch, k, c3, extra=()):
        monkeypatch.delenv("GAUSSLAB_CACHE_DIR", raising=False)
        stats = self.ALL if k == 3 else [s for s in self.ALL if s != "SharpWeightedFirst"]
        out = tmp_path / "m.csv"
        argv = ["moments", "--k", str(k), "--x-min", "100", "--x-max", "1000", "--points", "4"]
        argv += [a for s in stats for a in ("--stat", s)]
        argv += [*extra, "--out", str(out)]
        argv += ["--c3", c3] if c3 else []
        assert run_cli(argv) == 0
        assert len(read_csv(out)) == 1 + 4 * len(stats)
        assert _stripped_digest(out) == self.PINNED[(k, c3)]

    def test_no_thread_started(self, tmp_path, monkeypatch):
        # --threads is accepted, as the benchmark passes it, and starts nothing
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        self.test_digest_unchanged(tmp_path, monkeypatch, 3, None, ("--threads", "2"))


class TestRegistry:
    def test_every_statistic_has_a_kernel_and_a_prediction(self):
        assert set(KERNELS) == set(Statistic)
        assert all(theory.predicted(stat, 3, 1e4, c3=10.56) is not None for stat in Statistic)

    def test_sharp_scale_snaps_to_integer(self, tmp_path):
        assert Statistic.SHARP_SECOND.scale(215.44) == 215
        assert Statistic.SMOOTH_SECOND.scale(215.44) == 215.44
        # the derived table size shows as the name of the cache file run_moments writes
        stats = [Statistic.SHARP_INTEGRAL_SECOND]
        for sub, want in (("sharp", 215), ("laplace", moments.exp_cutoff(3, 215.44))):
            cache = tmp_path / sub
            rows, status = cli.run_moments(3, [215.44], stats, cache_dir=str(cache))
            assert status == 0 and len(rows) == len(stats)
            assert [p.name for p in cache.glob("rk3_*.rktb")] == [f"rk3_{want}.rktb"]
            stats = stats + [Statistic.LAPLACE_SECOND]


class TestMomentsCache:
    """SharpSecond runs through a cache: a table to 200, read in one rk.PIECE,
    and one to 100,000, read in two.  Corrupt files at the moments command
    are test_reader.py::TestBadCache's."""

    @staticmethod
    def _args(tmp_path, x_max):
        grid = ["--x-min", str(x_max // 2), "--x-max", str(x_max), "--points", "2"]
        return ["moments", "--k", "3", *grid, "--stat", "SharpSecond", "--cache-dir", str(tmp_path)]

    @pytest.mark.parametrize("x_max", [200, 100_000], ids=["one-piece", "two-pieces"])
    def test_miss_then_hit_leaves_file_alone(self, tmp_path, capsys, x_max):
        assert run_cli(self._args(tmp_path, x_max)) == 0
        path = tmp_path / f"rk3_{x_max}.rktb"
        first = capsys.readouterr()
        before = os.stat(path)
        assert run_cli(self._args(tmp_path, x_max)) == 0
        second = capsys.readouterr()
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert first.err == second.err == ""
        # with --out unset, stdout holds the CSV and nothing else
        rows = list(csv.reader(second.out.splitlines()))
        assert rows[0] == cli.MOMENTS_HEADER and len(rows) == 3
        assert [r[:-1] for r in rows] == [r[:-1] for r in csv.reader(first.out.splitlines())]

    def test_obtain_table_outcomes(self, tmp_path, capsys):
        cache = str(tmp_path)
        table, outcome = cli._obtain_table(2, 300, cache)
        assert outcome == "miss"
        assert cli._obtain_table(2, 300, cache) == (table, "hit")
        (tmp_path / "rk2_300.rktb").write_bytes(b"RKTB")
        assert cli._obtain_table(2, 300, cache) == (table, "rebuild")
        assert cli._obtain_table(2, 300, None) == (table, "miss")
        assert "rebuilding bad cache" in capsys.readouterr().err

    @pytest.mark.parametrize("k, n_max", [(4, 500), (3, 400)])
    def test_file_for_another_table_rebuilt(self, tmp_path, capsys, k, n_max):
        path = tmp_path / "rk3_500.rktb"
        save_table(build_rk_table(k, n_max), path)
        table, outcome = cli._obtain_table(3, 500, str(tmp_path))
        assert outcome == "rebuild"
        assert table == build_rk_table(3, 500) == load_table(path)
        err = capsys.readouterr().err
        assert err.startswith(f"warning: rebuilding bad cache {path}: ")
        assert err.count("\n") == 1


class TestFitCommand:
    def _write_synthetic(self, path, c3=10.6):
        xs = [2e3 * (10.0) ** (j / 11.0) for j in range(12)]
        rows = [cli.MOMENTS_HEADER]
        for x in xs:
            rows.append(
                [
                    "3",
                    format(x, ".17g"),
                    "SmoothSecond",
                    format(theory.predicted(Statistic.SMOOTH_SECOND, 3, x, c3), ".17g"),
                    "0",
                    "",
                    "0.0",
                ]
            )
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\r\n").writerows(rows)

    def test_synthetic_round_trip(self, tmp_path, capsys):
        path = tmp_path / "synth.csv"
        self._write_synthetic(path)
        assert run_cli(["fit", str(path), "--mode", "smooth"]) == 0
        out = capsys.readouterr().out
        est = float(re.search(r"c3_estimate: ([-\d.e+]+)", out).group(1))
        dev = float(re.search(r"deviation_from_10.6: ([-\d.e+]+)", out).group(1))
        assert abs(est - 10.6) < 1e-8
        assert dev < 1e-8


def _bruteforce_off_at_61(monkeypatch):
    real = rk.rk_bruteforce
    monkeypatch.setattr(rk, "rk_bruteforce", lambda k, n: real(k, n) + (k == 4 and n == 61))
    return verify._Tables()


def _r4_off_at_6(monkeypatch):
    # r_4(6)/8 no longer equals r_4(2)/8 * r_4(3)/8
    counts = build_rk_table(4, 300**2).counts.copy()
    counts[6] += 8
    return verify._Tables({4: rk.RkTable(4, 300**2, counts)})


def _ramanujan_off_by_one(monkeypatch):
    real = dirichlet.ramanujan_sum
    monkeypatch.setattr(dirichlet, "ramanujan_sum", lambda q, n: real(q, n) + 1)
    return verify._Tables()


def _r3_lifted(monkeypatch):
    # a million extra points at n = 1 keep P_3 positive to 2000
    counts = build_rk_table(3, 2000).counts.copy()
    counts[1] += 10**6
    return verify._Tables({3: rk.RkTable(3, 2000, counts)})


def _save_off_by_one(monkeypatch):
    real = rk.save_table
    monkeypatch.setattr(rk, "save_table", lambda t, path: real(rk.RkTable(t.k, t.n_max, t.counts + np.uint64(1)), path))
    return verify._Tables()


def _load_unchecked(monkeypatch):
    # a loader that skips the checksum hands back the table whatever the bytes
    table = build_rk_table(3, 1000)
    monkeypatch.setattr(rk, "load_table", lambda path: table)
    return verify._Tables({3: table})


class TestVerifyCommand:
    def test_exit_zero_on_all_pass(self, monkeypatch, capsys):
        fake = [("alpha", lambda q, t: (True, "ok"))]
        monkeypatch.setattr(verify, "BATTERY", fake)
        assert run_cli(["verify", "--level", "quick"]) == 0
        assert "[PASS] alpha" in capsys.readouterr().out

    def test_exit_one_on_failure(self, monkeypatch, capsys):
        fake = [
            ("alpha", lambda q, t: (True, "ok")),
            ("beta", lambda q, t: (False, "broken")),
        ]
        monkeypatch.setattr(verify, "BATTERY", fake)
        assert run_cli(["verify", "--level", "quick"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] beta" in out and "failed: beta" in out

    def test_fault_injection_caught_by_oracle_check(self):
        # off-by-one in a k=3 table must be reported by name
        table = build_rk_table(3, 2000)
        counts = table.counts.copy()
        counts[1500] += 1
        bad = type(table)(k=3, n_max=2000, counts=counts)
        passed, detail = verify.check_oracle_equivalence(False, verify._Tables({3: bad}))
        assert not passed
        assert "n=1500" in detail

    @pytest.mark.parametrize("k, n, name", [(4, 77_777, "r4 Jacobi"), (2, 65, "r2 two-squares")])
    def test_fault_injection_caught_by_divisor_oracles(self, k, n, name):
        # one count off in a table the full-level check reads must be named with its n
        table = build_rk_table(k, 10**5)
        counts = table.counts.copy()
        counts[n] += 8
        passed, detail = verify.check_divisor_oracles(False, verify._Tables({k: rk.RkTable(k, 10**5, counts)}))
        assert not passed
        assert detail == f"{name} mismatch at n={n}"

    # each fault: a setup that injects it and returns the check's tables, the
    # check, and the pattern its whole detail must match at the quick level
    FAULTS = {
        "oracle-bruteforce": (_bruteforce_off_at_61, verify.check_oracle_equivalence, "bruteforce mismatch k=4 n=61"),
        "r4-multiplicativity": (_r4_off_at_6, verify.check_r4_multiplicativity, r"fails at \(2, 3\)"),
        "ramanujan-reduction": (
            _ramanujan_off_by_one, verify.check_ramanujan_reduction, r"gamma=101 h=133: \(.+\) vs 0"
        ),
        "p3-sign-changes": (_r3_lifted, verify.check_sign_changes, r"no sign change in \[100, 200\]"),
        "cache-save-load": (_save_off_by_one, verify.check_cache_roundtrip, "save/load not bit-exact"),
        "cache-flipped-byte": (_load_unchecked, verify.check_cache_roundtrip, "a flipped payload byte loads"),
    }

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_fault_injection_caught_by_name(self, monkeypatch, fault):
        inject, check, want = self.FAULTS[fault]
        passed, detail = check(True, inject(monkeypatch))
        assert not passed
        assert re.fullmatch(want, detail), detail

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="level must be 'quick' or 'full', got 'medium'"):
            verify.run_battery("medium")

    def test_quick_battery_loads_neither_numpy_random_nor_openssl(self):
        # the battery runs reversed: each check sees tables of exactly the size
        # it asks for, whatever ran before it
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = (
            "import sys\n"
            "from gausslab import verify\n"
            "verify.BATTERY.reverse()\n"
            "results = verify.run_battery('quick')\n"
            "print(len(results), [r.name for r in results if not r.passed])\n"
            "print(sorted(m for m in ('numpy.random', '_hashlib') if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
        assert out == "21 []\n[]\n"

    def test_fault_injection_caught_by_phi_checks(self, monkeypatch):
        # a cusp-1/2 closed form that lost its (-1)^h sign fails both checks that use it
        real = dirichlet.phi_closed
        unsigned = lambda cusp, h_max, s: real(Cusp.ZERO if cusp is Cusp.HALF else cusp, h_max, s)
        monkeypatch.setattr(dirichlet, "phi_closed", unsigned)
        passed, detail = verify.check_phi_cross(True, verify._Tables())
        assert not passed and detail.startswith("cusp 1/2 h=1:")
        assert not verify.check_phi_series(True, verify._Tables())[0]

    def test_nonreal_di_sum_fails_by_name(self, monkeypatch):
        real_deltas = dirichlet._admissible_deltas
        monkeypatch.setattr(dirichlet, "_admissible_deltas", lambda *a: real_deltas(*a)[:1])
        monkeypatch.setattr(verify, "BATTERY", [b for b in verify.BATTERY if b[0] == "phi-closed-vs-di"])
        [res] = verify.run_battery("quick")
        assert not res.passed and "ArithmeticError" in res.detail and "nonreal" in res.detail

    def test_overflow_abort_steps_from_the_r6_closed_form(self, monkeypatch):
        tables = verify._Tables()
        monkeypatch.setattr(rk, "build_rk_table", _raise(AssertionError("build_rk_table called")))
        real, steps = rk._square_step, []
        monkeypatch.setattr(rk, "_square_step", lambda base: steps.append(base.shape[0]) or real(base))
        passed, detail = verify.check_overflow_abort(False, tables)
        # r_8 first passes 2^64 at 987,840, so only the top block [983,040, 995,000] wraps
        assert passed and detail.endswith("step j = 741")
        assert steps == [995_001, 995_001] and tables._held == {}

    def test_fault_injection_caught_by_overflow_check(self, monkeypatch):
        monkeypatch.setattr(rk, "r6_closed_form", lambda n_max: np.zeros(8, dtype=np.uint64))
        passed, detail = verify.check_overflow_abort(False, verify._Tables())
        assert (passed, detail) == (False, "r_8 coefficient beyond 2^64 not caught")

    def test_coprime_mask_matches_gcd(self):
        m = np.arange(1, 1001, dtype=np.int64)
        assert np.array_equal(verify._coprime_mask(1000), np.gcd.outer(m, m) == 1)

    def test_tables_hand_out_requested_size(self):
        tables = verify._Tables()
        assert tables.get(3, 5000).n_max == 5000
        small = tables.get(3, 300)
        assert small.n_max == 300 and small.counts.shape == (301,)
        assert small == build_rk_table(3, 300)
        assert list(tables._held) == [3] and tables._held[3].n_max == 5000
        assert not small.counts.flags.writeable


class TestShortInterval:
    def test_finite_positive_ratios(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli(
            [
                "shortinterval",
                "--x-min", "2000",
                "--x-max", "10000",
                "--points", "2",
                "--beta", "0.9",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        ratios = [float(r[6]) for r in rows[1:]]
        assert all(math.isfinite(r) and r > 0 for r in ratios)

    def test_beta_one_telescopes_to_sharp_sum(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(
            [
                "shortinterval",
                "--x-min", "3000",
                "--x-max", "3000",
                "--points", "1",
                "--beta", "1.0",
                "--out", str(out),
            ]
        )
        rows = read_csv(out)
        window = float(rows[1][5])
        series = prefix_counts(build_rk_table(3, 6000))
        want = sharp_second_moment(series, 6000).value
        assert abs(window - want) <= 1e-11 * want

    # sha256 of each whole CSV; the beta = 1 windows are longer than CHUNK
    PINNED = {
        ("2000", "200000", "5", "1.0"): "950041e35fe019b62826371ac7387344aaedbf0f72fd638f9093a29264ed05bd",
        ("1000", "100000", "4", "0.5"): "878eb9f6117944f030d4690192f3b1cb537da63816fa76d32e6addb687eedfae",
    }

    @pytest.mark.parametrize("x_min, x_max, points, beta", sorted(PINNED))
    def test_csv_bytes_pinned(self, tmp_path, monkeypatch, x_min, x_max, points, beta):
        monkeypatch.delenv("GAUSSLAB_CACHE_DIR", raising=False)
        out = tmp_path / "s.csv"
        argv = ["shortinterval", "--x-min", x_min, "--x-max", x_max, "--points", points, "--beta", beta]
        assert run_cli(argv + ["--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.PINNED[(x_min, x_max, points, beta)]

    def test_bad_beta(self, tmp_path):
        code = run_cli(
            ["shortinterval", "--x-min", "10", "--x-max", "20", "--beta", "1.5"]
        )
        assert code == 2


class TestConstantsCommand:
    def test_csv_rows(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(["constants", "--k", "4", "--out", str(out)]) == 0
        rows = read_csv(out)
        as_dict = {r[1]: float(r[2]) for r in rows[1:]}
        assert abs(as_dict["c_k"] - (math.pi**4 / 6 + 2 * math.pi**2)) < 1e-10
        assert as_dict["c4_prime"] < 0
        assert "c3_prime" not in as_dict

    def test_k_range(self, tmp_path):
        assert run_cli(["constants", "--k", "2"]) == 2

    # sha256 of the stdout of `constants --k K` for K = 3..8, concatenated
    PINNED_STDOUT = "ff92872816262ff4a9a1a763f2881582c9aeea5b0814bc569655e50cb4c7b5a2"

    def test_stdout_bytes_pinned(self, capsys):
        out = ""
        for k in range(3, 9):
            assert run_cli(["constants", "--k", str(k)]) == 0
            out += capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_STDOUT


def _hold_lock(stack, cache_dir):
    """Hold cache_dir's lock, as another process would, until stack closes."""
    fh = stack.enter_context(open(os.path.join(cache_dir, ".gausslab.lock"), "a+"))
    fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)


class TestLock:
    def test_second_locker_fails(self, tmp_path):
        with contextlib.ExitStack() as stack:
            _hold_lock(stack, str(tmp_path))
            with pytest.raises(cli.CacheLockedError, match="locked by another process"):
                cli._obtain_table(2, 100, str(tmp_path))
        # closing the file released the lock, and _obtain_table released its own
        assert cli._obtain_table(2, 100, str(tmp_path))[1] == "miss"
        assert cli._obtain_table(2, 100, str(tmp_path))[1] == "hit"


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc

    return raiser


def _csv(name, rows):
    with open(name, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(r.split(",") for r in rows)
    return ["fit", name]


def _moments_csv(name, rows):
    return _csv(name, [",".join(cli.MOMENTS_HEADER)] + rows)


def _failing_verify(monkeypatch, stack):
    monkeypatch.setattr(verify, "BATTERY", [("beta", lambda q, t: (False, "broken"))])
    return ["verify"]


def _overflowing_table(monkeypatch, stack):
    monkeypatch.setattr(rk, "build_rk_table", _raise(ConvolutionOverflowError("beyond 64 bits")))
    return ["table", "--k", "3", "--n-max", "100", "--cache-dir", "."]


def _locked_cache(monkeypatch, stack):
    _hold_lock(stack, ".")
    return ["table", "--k", "2", "--n-max", "100", "--cache-dir", "."]


def _kernel_raising(exc):
    def setup(monkeypatch, stack):
        monkeypatch.setitem(moments.KERNELS, Statistic.SMOOTH_SECOND, _raise(exc))
        return "moments --k 3 --x-min 100 --x-max 100 --points 1 --stat SmoothSecond".split()

    return setup


_ROW = "3,2000,SmoothSecond,1.0,0,,0"


class TestExitCodes:
    """main alone maps an exception to an exit code by its class: usage
    (ValueError, OverflowError, a table entry beyond 64 bits among them) 2,
    I/O and cache (OSError) 3, any other exception (an internal fault) 4 with
    its traceback on stderr; exit 1 means only that verify failed.  Each case
    is argv, or a setup returning it, then the exit code and a fragment of
    main's stderr: its one line, or the traceback at code 4 (None: stderr
    stays empty)."""

    CASES = {
        "verify-fails": (_failing_verify, 1, None),
        "table-overflow": (_overflowing_table, 2, "error: beyond 64 bits"),
        "table-k8-doomed": ("table --k 8 --n-max 1000000 --cache-dir .", 2, "exceeds 64 bits from n = 987840;"),
        # S_8 passes 2^64 at n = 46,172: the series carries past it, no error
        "moments-prefix-overflow": ("moments --k 8 --x-min 50000 --x-max 50000 --points 1 --stat SharpSecond", 0, None),
        "moments-float-overflow": (
            "moments --k 3 --x-min 1 --x-max 1e308 --points 2 --stat SmoothSecond", 2, "too large"
        ),
        "moments-cell-float-overflow": (
            "moments --k 3 --x-min 100 --x-max 1e308 --points 2 --stat SmoothSecond --n-max 1000", 2, None
        ),
        "moments-x-inf": ("moments --k 3 --x-min 1 --x-max inf --points 2 --stat SharpSecond", 2, "infinity"),
        # x-max / x-min overflows: the grid is 1e-300, 1, 1e300, with no X = inf
        "moments-wide-grid-smooth": (
            "moments --k 3 --x-min 1e-300 --x-max 1e300 --points 3 --stat SmoothSecond",
            2,
            "n_max = 2.1183265836946413e+303",
        ),
        "moments-wide-grid-sharp": (
            "moments --k 3 --x-min 1e-300 --x-max 1e300 --points 3 --stat SharpSecond",
            2,
            "n_max = 1.0000000000000001e+300",
        ),
        # the whole line: n_max = int(1e300) shows 17 significant digits, not 301
        "moments-n-max-17-digits": (
            "moments --k 3 --x-min 1e300 --x-max 1e300 --points 1 --stat SharpSecond",
            2,
            "error: n_max = 1.0000000000000001e+300 outside [0, 100000000]\n",
        ),
        "moments-x-min-nan": ("moments --k 3 --x-min nan --x-max 10 --points 2 --stat SmoothSecond", 2, "bad grid"),
        "moments-x-max-nan": ("moments --k 3 --x-min 1 --x-max nan --points 2 --stat SharpSecond", 2, "bad grid"),
        "moments-c3-nan": (
            "moments --k 3 --x-min 100 --x-max 200 --points 2 --stat SmoothSecond --c3 nan", 2, "c3 = nan"
        ),
        "moments-c3-inf": (
            "moments --k 3 --x-min 100 --x-max 200 --points 2 --stat SmoothSecond --c3 inf", 2, "c3 = inf"
        ),
        # a finite c3 whose main term overflows: an ERROR row, not inf
        "moments-c3-huge": (
            "moments --k 3 --x-min 100 --x-max 100 --points 1 --stat SharpSecond --c3 1e308", 2, None
        ),
        "shortinterval-x-below-2": ("shortinterval --x-min 1 --x-max 1 --points 1 --beta 0.5", 2, "X = 1"),
        "shortinterval-bad-beta": ("shortinterval --x-min 10 --x-max 20 --beta 1.5", 2, "error: beta"),
        "fit-missing-file": ("fit nope.csv", 3, "error: "),
        "fit-not-moments-csv": (lambda *_: _csv("other.csv", ["k,X,value", _ROW]), 2, "other.csv:1: not a moments CSV"),
        "fit-short-row": (
            lambda *_: _moments_csv("short.csv", [_ROW, "3,2000,SmoothSecond,1.0,0"]), 2, ":3: expected >= 6"
        ),
        "fit-malformed-csv": (
            lambda *_: _moments_csv("bad.csv", [_ROW, _ROW, "3,not_a_number,SmoothSecond,1.0,0,,0"]), 2, ":4:"
        ),
        "fit-unknown-statistic": (
            lambda *_: _moments_csv("stat.csv", [_ROW, "3,2000,SmoothThird,1.0,0,,0"]), 2, ":3:"
        ),
        "fit-no-k3-rows": (lambda *_: _moments_csv("k4.csv", ["4" + _ROW[1:]]), 2, "error: no k=3"),
        "fit-value-nan": (lambda *_: _moments_csv("vnan.csv", [_ROW, "3,2000,SmoothSecond,nan,0,,0"]), 2, ":3:"),
        "fit-value-inf": (lambda *_: _moments_csv("vinf.csv", [_ROW, "3,2000,SmoothSecond,inf,0,,0"]), 2, ":3:"),
        "fit-x-zero": (lambda *_: _moments_csv("x0.csv", [_ROW, "3,0,SmoothSecond,1.0,0,,0"]), 2, ":3:"),
        "fit-x-nan": (lambda *_: _moments_csv("xnan.csv", [_ROW, "3,nan,SmoothSecond,1.0,0,,0"]), 2, ":3:"),
        "table-locked-cache": (_locked_cache, 3, "error: cache directory is locked"),
        "kernel-internal-fault": (_kernel_raising(TypeError("internal fault")), 4, "TypeError: internal fault"),
        "kernel-runtime-error": (_kernel_raising(RecursionError("too deep")), 4, "RecursionError: too deep"),
    }

    @pytest.mark.parametrize("bad_x", ["0", "nan", "inf"])
    def test_bad_x_stops_before_the_solver(self, tmp_path, monkeypatch, capfd, bad_x):
        # on a full c3 grid a nonpositive or non-finite X used to reach LAPACK,
        # which wrote DLASCL complaints straight to the file descriptors
        monkeypatch.chdir(tmp_path)
        rows = [f"3,{2000 * 10 ** (j / 11)!r},SmoothSecond,{1e6 * (j + 1)!r},0,,0" for j in range(12)]
        rows[5] = f"3,{bad_x},SmoothSecond,1e6,0,,0"
        assert run_cli(_moments_csv("grid.csv", rows)) == 2
        out, err = capfd.readouterr()
        assert "grid.csv:7:" in err and "DLASCL" not in out + err

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_code(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("GAUSSLAB_CACHE_DIR", raising=False)
        setup, want, err_part = self.CASES[case]
        with contextlib.ExitStack() as stack:
            argv = setup.split() if isinstance(setup, str) else setup(monkeypatch, stack)
            assert run_cli(argv) == want
        err = capsys.readouterr().err
        if err_part is None:
            assert err == ""
        elif want == 4:
            assert err.startswith("Traceback (most recent call last):") and err.endswith(err_part + "\n")
        else:
            assert err.startswith("error: ") and err_part in err and err.count("\n") == 1
