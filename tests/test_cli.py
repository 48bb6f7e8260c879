import contextlib
import csv
import fcntl
import hashlib
import math
import os
import re
import threading

import pytest

from gausslab import cli, moments, rk, theory, verify
from gausslab.cli import main
from gausslab.convolve import ConvolutionOverflowError
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

    def test_rebuild_skips_valid_cache(self, tmp_path, capsys):
        run_cli(["table", "--k", "2", "--n-max", "1000", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        code = run_cli(["table", "--k", "2", "--n-max", "1000", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "skipping" in capsys.readouterr().out

    def test_corrupt_cache_rebuilt_loudly(self, tmp_path, capsys):
        run_cli(["table", "--k", "2", "--n-max", "500", "--cache-dir", str(tmp_path)])
        path = tmp_path / "rk2_500.rktb"
        data = bytearray(path.read_bytes())
        data[40] ^= 0x55
        path.write_bytes(bytes(data))
        capsys.readouterr()
        code = run_cli(["table", "--k", "2", "--n-max", "500", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "rebuilding" in capsys.readouterr().err
        assert load_table(path).counts[2] == 4

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
            want = theory.predicted_smooth(3, float(r[1]), c3=10.6)
            assert abs(float(r[5]) - want) <= 1e-9 * want

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
            want = theory.predicted_smooth(4, float(r[1]))
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

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("k, c3", sorted(PINNED, key=str))
    def test_digest_unchanged(self, tmp_path, monkeypatch, k, c3, threads):
        monkeypatch.delenv("GAUSSLAB_CACHE_DIR", raising=False)
        stats = self.ALL if k == 3 else [s for s in self.ALL if s != "SharpWeightedFirst"]
        out = tmp_path / "m.csv"
        argv = ["moments", "--k", str(k), "--x-min", "100", "--x-max", "1000", "--points", "4"]
        argv += [a for s in stats for a in ("--stat", s)]
        argv += ["--threads", str(threads), "--out", str(out)]
        argv += ["--c3", c3] if c3 else []
        assert run_cli(argv) == 0
        assert len(read_csv(out)) == 1 + 4 * len(stats)
        assert _stripped_digest(out) == self.PINNED[(k, c3)]

    def test_no_thread_started(self, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        self.test_digest_unchanged(tmp_path, monkeypatch, 3, None, 2)


class TestRegistry:
    def test_every_statistic_has_a_kernel_and_a_prediction(self):
        assert set(KERNELS) == set(Statistic) == set(cli._PREDICTED)

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
    ARGS = ["moments", "--k", "3", "--x-min", "100", "--x-max", "200", "--points", "2", "--stat", "SharpSecond"]

    def test_miss_then_hit_leaves_file_alone(self, tmp_path, capsys):
        assert run_cli(self.ARGS + ["--cache-dir", str(tmp_path)]) == 0
        path = tmp_path / "rk3_200.rktb"
        first = capsys.readouterr()
        before = os.stat(path)
        assert run_cli(self.ARGS + ["--cache-dir", str(tmp_path)]) == 0
        second = capsys.readouterr()
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert first.err == second.err == ""
        # with --out unset, stdout holds the CSV and nothing else
        rows = list(csv.reader(second.out.splitlines()))
        assert rows[0] == cli.MOMENTS_HEADER and len(rows) == 3
        assert [r[:-1] for r in rows] == [r[:-1] for r in csv.reader(first.out.splitlines())]

    def test_corrupt_cache_rebuilt_with_warning(self, tmp_path, capsys):
        assert run_cli(self.ARGS + ["--cache-dir", str(tmp_path)]) == 0
        good = capsys.readouterr().out
        path = tmp_path / "rk3_200.rktb"
        data = bytearray(path.read_bytes())
        data[40] ^= 0x55
        path.write_bytes(bytes(data))
        assert run_cli(self.ARGS + ["--cache-dir", str(tmp_path)]) == 0
        got = capsys.readouterr()
        assert got.err.startswith(f"warning: rebuilding bad cache {path}: ")
        assert got.err.count("\n") == 1
        assert [r[:-1] for r in csv.reader(got.out.splitlines())] == [
            r[:-1] for r in csv.reader(good.splitlines())
        ]
        assert load_table(path) == build_rk_table(3, 200)

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
                    format(theory.predicted_smooth(3, x, c3=c3), ".17g"),
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

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        self._write_synthetic(path)
        lines = path.read_text().splitlines()
        lines[3] = "3,not_a_number,SmoothSecond,1.0,0,,0"
        path.write_text("\n".join(lines))
        code = run_cli(["fit", str(path), "--mode", "smooth"])
        assert code == 2
        err = capsys.readouterr().err
        assert ":4:" in err  # 1-based line number of the bad row

    def test_missing_file_io_error(self, tmp_path):
        assert run_cli(["fit", str(tmp_path / "nope.csv")]) == 3


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


def _moments_csv(name, rows):
    with open(name, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows([cli.MOMENTS_HEADER] + [r.split(",") for r in rows])
    return ["fit", name]


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
    (ValueError, OverflowError, an exact count beyond 64 bits among them) 2,
    I/O and cache (OSError) 3; exit 1 means only that verify failed, and an
    internal fault propagates.  Each case is argv, or a setup returning it,
    then the exit code (or escaping exception) and a fragment of main's one
    stderr line (None: stderr stays empty)."""

    CASES = {
        "verify-fails": (_failing_verify, 1, None),
        "table-overflow": (_overflowing_table, 2, "error: beyond 64 bits"),
        "moments-prefix-overflow": (
            "moments --k 8 --x-min 50000 --x-max 50000 --points 1 --stat SharpSecond", 2, "S_8 exceeds 64 bits"
        ),
        "moments-float-overflow": (
            "moments --k 3 --x-min 1 --x-max 1e308 --points 2 --stat SmoothSecond", 2, "too large"
        ),
        "moments-cell-float-overflow": (
            "moments --k 3 --x-min 100 --x-max 1e308 --points 2 --stat SmoothSecond --n-max 1000", 2, None
        ),
        "moments-x-inf": ("moments --k 3 --x-min 1 --x-max inf --points 2 --stat SharpSecond", 2, "infinity"),
        "shortinterval-x-below-2": ("shortinterval --x-min 1 --x-max 1 --points 1 --beta 0.5", 2, "X = 1"),
        "shortinterval-bad-beta": ("shortinterval --x-min 10 --x-max 20 --beta 1.5", 2, "error: beta"),
        "fit-missing-file": ("fit nope.csv", 3, "error: "),
        "fit-malformed-csv": (
            lambda *_: _moments_csv("bad.csv", [_ROW, _ROW, "3,not_a_number,SmoothSecond,1.0,0,,0"]), 2, ":4:"
        ),
        "fit-no-k3-rows": (lambda *_: _moments_csv("k4.csv", ["4" + _ROW[1:]]), 2, "error: no k=3"),
        "table-locked-cache": (_locked_cache, 3, "error: cache directory is locked"),
        "kernel-internal-fault": (_kernel_raising(TypeError("internal fault")), TypeError, None),
        "kernel-runtime-error": (_kernel_raising(RecursionError("too deep")), RecursionError, None),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_code(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("GAUSSLAB_CACHE_DIR", raising=False)
        setup, want, err_part = self.CASES[case]
        with contextlib.ExitStack() as stack:
            argv = setup.split() if isinstance(setup, str) else setup(monkeypatch, stack)
            if isinstance(want, type):
                with pytest.raises(want):
                    run_cli(argv)
                return
            assert run_cli(argv) == want
        err = capsys.readouterr().err
        if err_part is None:
            assert err == ""
        else:
            assert err.startswith("error: ") and err_part in err and err.count("\n") == 1
