"""The cache reader and the in-place sums: a cache hit reads the file's
payload a piece at a time into a new table, and cli._series sums S_k in
place over that table's counts; the table command checks a hit the same
way without keeping its payload."""

import csv
import hashlib
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from gausslab import cli, rk
from gausslab.discrepancy import prefix_counts
from gausslab.rk import PIECE, RkTable, build_rk_table, load_table, save_table
from gausslab.summation import CHUNK

from conftest import allocated_peak

# n_max + 1 values: one, and one less and one more than one and two pieces
# (each piece is a whole number of the sums' chunks)
SIZES = [1, PIECE - 1, PIECE, PIECE + 1, 2 * PIECE - 1, 2 * PIECE + 1]


@pytest.fixture(scope="module")
def tables():
    top = max(SIZES) - 1
    return {k: build_rk_table(k, top) for k in range(1, 9)}


def _save(tmp_path, table):
    path = tmp_path / f"rk{table.k}_{table.n_max}.rktb"
    save_table(table, path)
    return path


def _cut(table, n_max):
    return RkTable(k=table.k, n_max=n_max, counts=table.counts[: n_max + 1].copy())


def _in_place(table):
    """prefix_counts over a writable copy of the table's counts, as _series
    sums the table it obtained."""
    own = RkTable(k=table.k, n_max=table.n_max, counts=table.counts.copy())
    own.counts.flags.writeable = True
    series = prefix_counts(own, out=own.counts)
    assert series.prefix is own.counts
    return series


class TestLoadedSeries:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_equals_copying_form(self, tmp_path, tables, k):
        # at k = 8 S_8 first passes 2^64 at n = 46,172: both forms then
        # record the same carries
        for size in SIZES:
            table = _cut(tables[k], size - 1)
            loaded = load_table(_save(tmp_path, table))
            assert loaded == table and not loaded.counts.flags.writeable, size
            want, got = prefix_counts(table), _in_place(loaded)
            assert want.prefix.shape == (size,) and np.array_equal(got.prefix, want.prefix), size
            assert np.array_equal(got.wraps, want.wraps)
            assert want.wraps[:1].tolist() == ([46_172] if k == 8 and size > 46_172 else []), size

    def test_out_must_fit(self, tables):
        table = _cut(tables[3], 99)
        readonly = np.zeros(100, dtype=np.uint64)
        readonly.flags.writeable = False
        for out in (np.zeros(100, dtype=np.int64), np.zeros(101, dtype=np.uint64), readonly):
            with pytest.raises(ValueError, match="out must be a writable uint64 array of 100 values"):
                prefix_counts(table, out=out)


def _wrapping_counts(n_wrap: int, n_max: int) -> np.ndarray:
    """Counts whose running sum reaches 2^64 at n_wrap and nowhere else."""
    counts = np.ones(n_max + 1, dtype=np.uint64)
    counts[n_wrap - 1] = np.uint64(2**63)
    counts[n_wrap] = np.uint64(2**63)
    return counts


class TestSyntheticWrap:
    # the wrap on the first value of a chunk, on its last, and inside it
    @pytest.mark.parametrize("n_wrap", [CHUNK, 2 * CHUNK, CHUNK - 1, CHUNK + 5, 7])
    def test_names_first_n(self, tmp_path, capsys, n_wrap):
        n_max = 2 * CHUNK + 10
        counts = _wrapping_counts(n_wrap, n_max)
        running, first = 0, None
        for n, c in enumerate(counts.tolist()):
            running += c
            if running >= 2**64:
                first = n
                break
        assert first == n_wrap
        table = RkTable(k=1, n_max=n_max, counts=counts)
        _save(tmp_path, table)
        want = [int(s) % 2**64 for s in np.cumsum(counts.astype(object))]
        # a hit sums the file it read in place, and records the same carry
        for series in (prefix_counts(table), _in_place(table), cli._series(1, n_max, str(tmp_path))):
            assert series.wraps.tolist() == [n_wrap]
            assert series.prefix.tolist() == want
        assert capsys.readouterr().err == ""

    def test_bad_checksum_wins_over_wrap(self, tmp_path, capsys):
        n_max = 2 * CHUNK + 10
        path = _save(tmp_path, RkTable(k=1, n_max=n_max, counts=_wrapping_counts(CHUNK + 5, n_max)))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(rk.CacheChecksumError):
            load_table(path)
        series = cli._series(1, n_max, str(tmp_path))
        assert "warning: rebuilding bad cache" in capsys.readouterr().err
        assert np.array_equal(series.prefix, prefix_counts(build_rk_table(1, n_max)).prefix)


def _corrupt(path, how):
    data = bytearray(path.read_bytes())
    if how == "magic":
        data[:4] = b"XKTB"
    elif how == "version":
        struct.pack_into("<I", data, 4, 99)
    elif how == "version-1":
        struct.pack_into("<I", data, 4, 1)
    elif how == "truncated":
        data = data[:-9]
    elif how == "trailing":
        data += b"x"
    elif how == "checksum":
        data[20 + 8 * 5] ^= 0x55  # a payload byte in the first read piece
    elif how == "checksum-piece-2":
        data[20 + 8 * (PIECE + 3)] ^= 0x55  # and one in the second
    path.write_bytes(bytes(data))


# each corruption's error class and text, as load_table has raised them
CORRUPTIONS = {
    "magic": (rk.CacheFormatError, "{path}: bad magic bytes"),
    "version": (rk.CacheFormatError, "{path}: unsupported format version 99"),
    "version-1": (rk.CacheFormatError, "{path}: unsupported format version 1"),
    "truncated": (rk.CacheTruncatedError, "{path}: truncated ({size} bytes, need {need})"),
    "trailing": (rk.CacheFormatError, "{path}: trailing bytes after checksum"),
    "checksum": (rk.CacheChecksumError, "{path}: checksum mismatch"),
    "checksum-piece-2": (rk.CacheChecksumError, "{path}: checksum mismatch"),
}


class TestBadCache:
    """The one home of cache-file faults: each corruption kind at each entry
    point that reads the file.  load_table raises the kind's class and text;
    cli._series, the table command and the moments command each print that
    text in one warning line, give a clean run's result and write the file's
    bytes back."""

    K, N_MAX = 3, PIECE + 7

    @pytest.mark.parametrize("how", list(CORRUPTIONS))
    def test_same_error_then_warned_rebuild(self, tmp_path, capsys, how):
        cache = tmp_path / "cache"
        path = cache / f"rk{self.K}_{self.N_MAX}.rktb"
        rows_path = tmp_path / "rows.csv"
        grid = ["--x-min", "1000", "--x-max", str(PIECE), "--points", "2", "--n-max", str(self.N_MAX)]
        moments_argv = ["moments", "--k", str(self.K), *grid, "--stat", "SharpSecond"]
        moments_argv += ["--cache-dir", str(cache), "--out", str(rows_path)]

        def moments_rows():
            assert cli.main(moments_argv) == 0
            with open(rows_path, newline="") as fh:
                return [row[:-1] for row in csv.reader(fh)]  # all but runtime_ms

        clean_rows = moments_rows()  # a miss, which writes the file
        clean_prefix = prefix_counts(build_rk_table(self.K, self.N_MAX)).prefix
        good = path.read_bytes()
        assert capsys.readouterr().err == ""
        _corrupt(path, how)
        bad = path.read_bytes()
        cls, text = CORRUPTIONS[how]
        text = text.format(path=path, size=path.stat().st_size, need=len(good))
        with pytest.raises(cls) as exc:
            load_table(path)
        assert type(exc.value) is cls and str(exc.value) == text
        table_argv = ["table", "--k", str(self.K), "--n-max", str(self.N_MAX), "--cache-dir", str(cache)]
        entries = {
            "_series": lambda: np.array_equal(cli._series(self.K, self.N_MAX, str(cache)).prefix, clean_prefix),
            # checks the file without keeping it
            "table": lambda: cli.main(table_argv) == 0,
            "moments": lambda: moments_rows() == clean_rows,
        }
        for entry, run in entries.items():
            path.write_bytes(bad)
            assert run(), entry
            assert capsys.readouterr().err == f"warning: rebuilding bad cache {path}: {text}\n", entry
            assert path.read_bytes() == good, entry

    def test_file_for_another_table_checked_before_its_payload(self, tmp_path, capsys):
        # r_8 to 50,000, whose S_8 carries at n = 46,172: the header alone
        # sends it to a rebuild, before any sum is formed
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / "rk3_50000.rktb"
        save_table(build_rk_table(8, 50_000), path)
        series = cli._series(3, 50_000, str(cache))
        err = capsys.readouterr().err
        assert err == f"warning: rebuilding bad cache {path}: it holds r_8 to n_max = 50000\n"
        assert np.array_equal(series.prefix, prefix_counts(build_rk_table(3, 50_000)).prefix)
        save_table(build_rk_table(8, 50_000), path)
        assert cli.main(["table", "--k", "3", "--n-max", "50000", "--cache-dir", str(cache)]) == 0
        assert capsys.readouterr().err == err
        assert load_table(path) == build_rk_table(3, 50_000)


class TestHit:
    def test_every_outcome_gives_the_same_series(self, tmp_path, capsys):
        want = prefix_counts(build_rk_table(3, 5000)).prefix
        cache = tmp_path / "cache"
        path = cache / "rk3_5000.rktb"
        for expect in ("miss", "hit", "rebuild", None):
            if expect == "rebuild":
                path.write_bytes(b"RKTB")
            series = cli._series(3, 5000, None if expect is None else str(cache))
            assert series.prefix.dtype == np.uint64 and np.array_equal(series.prefix, want), expect
            assert not series.prefix.flags.writeable
        assert "rebuilding bad cache" in capsys.readouterr().err

    def test_hit_leaves_file_unchanged(self, tmp_path):
        cache = str(tmp_path)
        cli._series(3, 3 * PIECE, cache)
        path = tmp_path / f"rk3_{3 * PIECE}.rktb"
        before = hashlib.sha256(path.read_bytes()).hexdigest()
        assert cli._obtain_table(3, 3 * PIECE, cache)[1] == "hit"
        cli._series(3, 3 * PIECE, cache)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == before

    def test_hit_allocates_only_the_sums(self, tmp_path):
        # the copying form held r_k beside S_k: 16 B per n
        n_max = 2**20 + 2
        cache = str(tmp_path)
        cli._obtain_table(3, n_max, cache)
        series, grown = allocated_peak(cli._series, 3, n_max, cache)
        assert series.n_max == n_max
        assert grown <= 8 * (n_max + 1) + 1e6, grown

    def test_table_hit_allocates_one_piece(self, tmp_path, capsys):
        # loading the hit held the whole 8 MB table to report it valid
        n_max = 2**20 + 2
        cache = str(tmp_path)
        cli._obtain_table(3, n_max, cache)
        code, grown = allocated_peak(cli.main, ["table", "--k", "3", "--n-max", str(n_max), "--cache-dir", cache])
        assert code == 0 and capsys.readouterr().out.endswith(" is valid; skipping rebuild\n")
        assert grown <= 8 * PIECE + 1e6, grown

    def test_only_the_table_command_skips_the_load(self, tmp_path, monkeypatch):
        # moments and shortinterval read a hit through _series: one load_table
        cache = str(tmp_path)
        cli._obtain_table(3, 5000, cache)
        calls = []
        for name in ("load_table", "check_table"):
            real = getattr(rk, name)
            monkeypatch.setattr(rk, name, lambda path, real=real, name=name: calls.append(name) or real(path))
        cli._series(3, 5000, cache)
        assert cli.main(["table", "--k", "3", "--n-max", "5000", "--cache-dir", cache]) == 0
        assert calls == ["load_table", "check_table"]


def test_import_floor():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys\n"
        "import gausslab\n"
        "bare = sorted(m for m in sys.modules if m.startswith('gausslab.') or m == 'numpy')\n"
        "import gausslab.cli\n"
        "loaded = sorted(m for m in ('_hashlib', 'numpy.polynomial') if m in sys.modules)\n"
        "import hashlib\n"
        "from numpy.polynomial.legendre import leggauss\n"
        "from gausslab import moments, rk\n"
        "nodes, weights = leggauss(8)\n"
        "same = [a.tobytes() == b.tobytes() for a, b in ((moments._GL_NODES, nodes), (moments._GL_WEIGHTS, weights))]\n"
        "print(bare, loaded, same, rk.blake2b is hashlib.blake2b)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out == "[] [] [True, True] True\n"
