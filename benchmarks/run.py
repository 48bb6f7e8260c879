"""gausslab benchmark: the c3 study with a cold and a warm table cache, and
the full identity battery, end to end and per module.

    python3 benchmarks/run.py [--workload c3-cold|c3-warm|verify-full|all]
                              [--seed N] [--seconds S] [--trace 0|1]

Every job runs in a fresh worker process (worker.py) that calls
gausslab.cli.main with argv, one client in a closed loop: the next job
starts when the previous one has ended.  Jobs repeat until --seconds have
passed.  Each invocation's output is checked (golden.json for seed 0,
invariants for other seeds) and the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, job_s, cpu_s,
peak_rss_mb); with --trace 1 jobs alternate untraced and traced and the
metrics are the per-module ones from the traced jobs' spans.  Per-run
records and spans are written under .bench_out/.  BASELINE.md describes the
workloads, the metrics and the first results.

  --write-golden   run one c3-cold job and one verify-full job at seed 0 and
                   store their outputs in golden.json
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH, "worker.py")
GOLDEN = os.path.join(BENCH, "golden.json")

WORKLOADS = ("c3-cold", "c3-warm", "verify-full")
# The seed moves x_min of each c3 grid within these shares, to whole numbers:
# the sharp statistics snap X to integers, and fit needs the snapped grid to
# span a full decade.  The smooth table dominates the job and its size follows
# x_min, so its jitter is kept small enough that input size alone does not
# spread job_s across seeds beyond the bounds in BENCHMARK.json.
SMOOTH_JITTER = 0.02
SHARP_JITTER = 0.10
SETUP_ROUNDS = 5
RUN_LIMIT_S = 170.0
C3_RANGE = (10.3, 10.9)
C3_AGREEMENT = 0.05
STATISTICS = (
    "SmoothSecond",
    "SharpSecond",
    "LaplaceSecond",
    "SharpIntegralSecond",
    "SmoothWeightedFirst",
    "SharpWeightedFirst",
)
BUILD_KS = (1, 2, 3, 4, 5)

C3_SPANS = [
    "cli.moments",
    "cli.fit",
    "discrepancy.prefix_counts",
    "discrepancy.p_values",
    "discrepancy.prefix_float",
    *(f"moments.{stat}" for stat in STATISTICS),
    "fit.recover_c3",
    "fit.c3_standard_error",
]
# spans each traced job must show, and span-name prefixes it must not show;
# verify-full also needs one span per check in golden.json
EXPECTED_SPANS = {
    "c3-cold": ([*C3_SPANS, "rk.build_rk_table.k3", "rk.save_table"], ["rk.load_table", "convolve."]),
    "c3-warm": ([*C3_SPANS, "rk.load_table"], ["rk.build_rk_table", "rk.save_table", "convolve."]),
    "verify-full": (["cli.verify", "rk.build_rk_table.k4", "convolve.exact_convolve"], []),
}


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------- inputs


def c3_grids(seed: int) -> tuple[int, int]:
    """x_min of the smooth and the sharp grid; seed 0 is the README grid."""
    if seed == 0:
        return 2000, 10000
    rng = random.Random(seed)
    smooth = rng.randint(round(2000 * (1 - SMOOTH_JITTER)), round(2000 * (1 + SMOOTH_JITTER)))
    sharp = rng.randint(round(10000 * (1 - SHARP_JITTER)), round(10000 * (1 + SHARP_JITTER)))
    return smooth, sharp


def csv_path(job_dir: str, grid: str) -> str:
    return os.path.join(job_dir, f"{grid}.csv")


def c3_ops(seed: int, job_dir: str, cache_dir: str, threads: int, fits: bool = True) -> list[list[str]]:
    smooth_min, sharp_min = c3_grids(seed)
    common = ["--k", "3", "--points", "12", "--cache-dir", cache_dir, "--threads", str(threads)]
    smooth_csv = csv_path(job_dir, "smooth")
    sharp_csv = csv_path(job_dir, "sharp")
    ops = [
        ["moments", "--x-min", str(smooth_min), "--x-max", str(10 * smooth_min), *common,
         "--stat", "SmoothSecond", "--stat", "LaplaceSecond", "--stat", "SmoothWeightedFirst",
         "--c3", "10.6", "--out", smooth_csv],
        ["moments", "--x-min", str(sharp_min), "--x-max", str(10 * sharp_min), *common,
         "--stat", "SharpSecond", "--stat", "SharpIntegralSecond", "--stat", "SharpWeightedFirst",
         "--out", sharp_csv],
    ]
    if fits:
        ops += [["fit", smooth_csv, "--mode", "smooth"], ["fit", sharp_csv, "--mode", "sharp"]]
    return ops


# ---------------------------------------------------------------- workers


def run_worker(ops, cache_dir, trace: bool, deadline: float) -> dict:
    """One fresh worker process; returns its result plus the parent's view:
    wall time from spawn to exit and the child's own rusage."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    env.pop("GAUSSLAB_CACHE_DIR", None)
    payload = json.dumps({"ops": ops, "cache_dir": cache_dir, "trace": trace}).encode()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - start), proc.kill)
    timer.start()
    try:
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        result = {"error": f"worker exited with {proc.returncode}", "ops": [], "spans": []}
    result["wall_s"] = wall
    result["maxrss_mb"] = usage.ru_maxrss / 1024.0
    return result


# ---------------------------------------------------------------- checks


def csv_prefix(path: str) -> list[str] | None:
    """Each CSV line without its last column (runtime_ms), split on CRLF, so
    equal lists mean byte-identical columns before runtime_ms."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    return [line.rsplit(b",", 1)[0].decode("ascii", "replace") for line in data.split(b"\r\n")]


def passed_checks(stdout: str) -> list[str]:
    """Names of the verify checks reported as [PASS], in report order."""
    return [line[len("[PASS] "):].split(":", 1)[0] for line in stdout.splitlines() if line.startswith("[PASS] ")]


def c3_line(stdout: str) -> str | None:
    return next((line for line in stdout.splitlines() if line.startswith("c3_estimate: ")), None)


def cache_outcome(op: dict) -> tuple[str, str | None]:
    """hit, miss or rebuild, seen from the cache directory alone: a new table
    file is a miss, a replaced one a rebuild, no change a hit."""
    before, after = op["cache_before"], op["cache_after"]
    created = sorted(set(after) - set(before))
    if created:
        return "miss", created[0]
    changed = sorted(name for name in before if name in after and after[name] != before[name])
    if changed:
        return "rebuild", changed[0]
    return "hit", None


def n_max_of(table_file: str | None) -> int:
    return int(table_file.rsplit("_", 1)[1].split(".")[0]) if table_file else 0


class Checker:
    """Judges each CLI invocation; every finding marks that invocation failed."""

    def __init__(self, workload: str, seed: int, golden: dict):
        self.workload = workload
        self.golden = golden if seed == 0 else None
        self.verify_names = golden["verify_passed"]
        self.first: dict[str, object] = {}
        self.tables: dict[str, str] = {}  # grid -> table file the warm cache holds

    def _same_as_first(self, key: str, value, errors: list[str]) -> None:
        first = self.first.setdefault(key, value)
        if value != first:
            errors.append(f"{key} differs from the run's first job")

    def moments(self, op: dict, grid: str, csv_path: str, expect: str, job: dict) -> None:
        errors = op["errors"]
        prefix = csv_prefix(csv_path)
        if prefix is None:
            errors.append(f"{grid}: no CSV written")
        else:
            if any(",ERROR" in line for line in prefix):
                errors.append(f"{grid}: ERROR rows")
            if self.golden and prefix != self.golden[f"{grid}_csv"]:
                errors.append(f"{grid}: CSV columns before runtime_ms differ from golden")
            self._same_as_first(f"{grid} CSV", prefix, errors)
        outcome, table = cache_outcome(op)
        job["cache"][outcome] += 1
        if expect == "miss":
            self.tables.setdefault(grid, table)
        elif table is None and self.tables.get(grid) not in op["cache_after"]:
            outcome = "no table"
        job["n_max"][grid] = n_max_of(table or self.tables.get(grid))
        if outcome != expect:
            errors.append(f"{grid}: cache {outcome}, expected {expect}")
        if self.golden and job["n_max"][grid] != self.golden["n_max"][grid]:
            errors.append(f"{grid}: n_max {job['n_max'][grid]} != golden {self.golden['n_max'][grid]}")

    def fit(self, op: dict, grid: str) -> float | None:
        errors = op["errors"]
        line = c3_line(op["stdout"])
        if line is None:
            errors.append(f"{grid} fit: no c3_estimate line")
            return None
        c3 = float(line.split(":", 1)[1])
        if not C3_RANGE[0] <= c3 <= C3_RANGE[1]:
            errors.append(f"{grid} fit: c3 = {c3} outside {C3_RANGE}")
        if self.golden and line != self.golden["c3_estimate"][grid]:
            errors.append(f"{grid} fit: {line!r} != golden {self.golden['c3_estimate'][grid]!r}")
        self._same_as_first(f"{grid} c3", line, errors)
        return c3

    def verify(self, op: dict) -> None:
        passed = passed_checks(op["stdout"])
        if sorted(passed) != sorted(self.verify_names):
            missing = sorted(set(self.verify_names) - set(passed))
            op["errors"].append(f"verify: passing checks differ from golden (missing {missing})")

    def job(self, job: dict, job_dir: str, expect: str | None) -> None:
        """Check every invocation of one finished job, whose CSVs are in job_dir."""
        job["cache"] = {"hit": 0, "miss": 0, "rebuild": 0}
        job["n_max"] = {"smooth": 0, "sharp": 0}
        for op in job["ops"]:
            op["errors"] = []
            if op["rc"] != 0:
                op["errors"].append(f"exit code {op['rc']}: {op['stderr'].strip()[-300:]}")
        if self.workload == "verify-full":
            for op in job["ops"]:
                self.verify(op)
            return
        for op, grid in zip(job["ops"][:2], ("smooth", "sharp")):
            self.moments(op, grid, csv_path(job_dir, grid), expect, job)
        if len(job["ops"]) == 4:
            c3 = {grid: self.fit(op, grid) for op, grid in zip(job["ops"][2:], ("smooth", "sharp"))}
            if None not in c3.values() and abs(c3["smooth"] - c3["sharp"]) > C3_AGREEMENT * abs(c3["smooth"]):
                job["ops"][3]["errors"].append(f"smooth c3 {c3['smooth']} and sharp c3 {c3['sharp']} differ by > 5%")


# ---------------------------------------------------------------- spans


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def layer_metrics(job: dict, verify_names: list[str]) -> dict[str, float]:
    """Per-module metrics of one traced job.  A module's time is its self
    time: the union of that span name's intervals less the union of its child
    spans (spans overlap across the moments worker threads, hence unions).  A
    verify check's time includes its children, so the checks add up to the
    battery."""
    spans = job["spans"]
    by_id = {s["id"]: s for s in spans}
    own, children = defaultdict(list), defaultdict(list)
    attr = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        interval = (s["start"], s["end"])
        own[s["name"]].append(interval)
        calls[s["name"]] += 1
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] != s["name"]:
            children[parent["name"]].append(interval)
        base = "rk.build_rk_table" if s["name"].startswith("rk.build_rk_table.") else s["name"]
        for key in ("values", "bytes", "points", "terms"):
            attr[(base, key)] += s.get(key, 0)

    def self_s(name):
        return covered(own[name]) - covered(children[name]) if name in own else 0.0

    m = {}
    for k in BUILD_KS:
        m[f"rk.build_rk_table_s.k{k}"] = self_s(f"rk.build_rk_table.k{k}")
    m["rk.build_calls"] = sum(n for name, n in calls.items() if name.startswith("rk.build_rk_table."))
    m["rk.build_values"] = attr[("rk.build_rk_table", "values")]
    m["rk.save_table_s"] = self_s("rk.save_table")
    m["rk.save_bytes"] = attr[("rk.save_table", "bytes")]
    m["rk.load_table_s"] = self_s("rk.load_table")
    m["rk.load_bytes"] = attr[("rk.load_table", "bytes")]
    m["convolve.exact_convolve_s"] = self_s("convolve.exact_convolve")
    m["convolve.calls"] = calls["convolve.exact_convolve"]
    m["convolve.transform_points"] = attr[("convolve.exact_convolve", "points")]
    for name in ("prefix_counts", "p_values", "prefix_float"):
        m[f"discrepancy.{name}_s"] = self_s(f"discrepancy.{name}")
    for stat in STATISTICS:
        m[f"moments.{stat}_s"] = self_s(f"moments.{stat}")
    m["moments.cells"] = sum(calls[f"moments.{stat}"] for stat in STATISTICS)
    m["moments.terms"] = sum(attr[(f"moments.{stat}", "terms")] for stat in STATISTICS)
    m["fit.recover_c3_s"] = self_s("fit.recover_c3")
    m["fit.c3_standard_error_s"] = self_s("fit.c3_standard_error")
    for name in verify_names:
        m[f"verify.{name}_s"] = covered(own[f"verify.{name}"])
    for cmd in ("moments", "fit", "verify"):
        m[f"cli.{cmd}_s"] = self_s(f"cli.{cmd}")
    for outcome in ("hit", "miss", "rebuild"):
        m[f"cli.cache_{outcome}"] = job["cache"][outcome]
    m["cli.n_max_smooth"] = job["n_max"]["smooth"]
    m["cli.n_max_sharp"] = job["n_max"]["sharp"]
    below_cli = [(s["start"], s["end"]) for s in spans if not s["name"].startswith("cli.")]
    m["trace.covered_ratio"] = covered(below_cli) / job["job_s"]
    return m


def missing_spans(workload: str, job: dict, verify_names: list[str]) -> list[str]:
    names = {s["name"] for s in job["spans"]}
    present, absent = EXPECTED_SPANS[workload]
    if workload == "verify-full":
        present = present + [f"verify.{n}" for n in verify_names]
    problems = [f"no {name} span" for name in present if name not in names]
    problems += [f"unexpected {prefix}* span" for prefix in absent if any(n.startswith(prefix) for n in names)]
    return problems


# ---------------------------------------------------------------- one workload


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, "load1": os.getloadavg()[0]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    env = environment()
    threads = min(2, env["nproc"])
    run_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    checker = Checker(workload, seed, golden)
    attempted, failures = 0, []

    def account(ops, extra=()):
        nonlocal attempted
        for op in ops:
            attempted += 1
            errors = op.get("errors", []) + list(extra)
            if errors:
                failures.append(f"{' '.join(op['argv'][:1])}: {'; '.join(errors)}")

    # set-up: worker start and imports, plus the cache fill on c3-warm
    setup_s, warm_cache = [], None
    for i in range(SETUP_ROUNDS):
        round_dir = os.path.join(run_dir, f"setup{i}")
        os.makedirs(round_dir)
        ops, cache = [], None
        if workload == "c3-warm":
            cache = os.path.join(round_dir, "cache")
            ops = c3_ops(seed, round_dir, cache, threads, fits=False)
        res = run_worker(ops, cache, False, deadline)
        setup_s.append(res["wall_s"])
        env.update({k: res[k] for k in ("python", "numpy") if k in res})
        if "error" in res:
            attempted += 1
            failures.append(f"set-up worker: {res['error']}")
            continue
        if workload == "c3-warm":
            fill = Checker(workload, seed, golden)
            fill.job(res, round_dir, "miss")
            account(res["ops"])
            checker.tables = fill.tables
            if warm_cache:
                shutil.rmtree(os.path.dirname(warm_cache))
            warm_cache = cache

    jobs = []
    loop_start = time.perf_counter()

    def another_job() -> bool:
        if workload == "c3-warm" and warm_cache is None:
            return False
        if not jobs:
            return True
        now = time.perf_counter()
        if now + 1.5 * jobs[-1]["wall_s"] > deadline:
            return False
        return now - loop_start < seconds or (trace and len(jobs) < 2)

    while another_job():
        traced = trace and len(jobs) % 2 == 1
        job_dir = os.path.join(run_dir, f"job{len(jobs)}")
        os.makedirs(job_dir)
        if workload == "verify-full":
            ops, cache, expect = [["verify", "--level", "full"]], None, None
        elif workload == "c3-cold":
            cache, expect = os.path.join(job_dir, "cache"), "miss"
            ops = c3_ops(seed, job_dir, cache, threads)
        else:
            cache, expect = warm_cache, "hit"
            ops = c3_ops(seed, job_dir, cache, threads)
        job = run_worker(ops, cache, traced, deadline)
        job.update(id=len(jobs), traced=traced)
        if "error" in job:
            attempted += len(ops)
            failures.extend(f"{op[0]}: {job['error']}" for op in ops)
            jobs.append(job)
            break
        checker.job(job, job_dir, expect)
        problems = missing_spans(workload, job, checker.verify_names) if traced else []
        account(job["ops"], [f"trace: {p}" for p in problems])
        shutil.rmtree(job_dir)
        jobs.append(job)

    good = [j for j in jobs if "error" not in j]
    plain = [j for j in good if not j["traced"]]
    traced_jobs = [j for j in good if j["traced"]]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "threads": threads,
        "grids": dict(zip(("smooth_x_min", "sharp_x_min"), c3_grids(seed))) if workload != "verify-full" else {},
        "n_max": good[0]["n_max"] if good else {},
        "setup_s": setup_s,
        "jobs": [
            {k: j.get(k) for k in ("id", "traced", "job_s", "cpu_s", "wall_s", "maxrss_mb", "cache")} for j in jobs
        ],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
    }
    if trace:
        units = dict(per_layer_units(checker.verify_names))
        per_job = [layer_metrics(j, checker.verify_names) for j in traced_jobs]
        metrics = {name: median([m[name] for m in per_job]) for name in units if name != "trace.overhead_ratio"}
        overhead = 0.0
        if plain and traced_jobs:
            overhead = median([j["job_s"] for j in traced_jobs]) / median([j["job_s"] for j in plain])
        metrics["trace.overhead_ratio"] = overhead
        with open(os.path.join(OUT, f"{workload}-seed{seed}-spans.jsonl"), "w") as fh:
            for j in traced_jobs:
                for s in j["spans"]:
                    fh.write(json.dumps({"job": j["id"], **s}) + "\n")
    else:
        metrics = {
            "setup_s": median(setup_s),
            "job_s": median([j["job_s"] for j in plain]),
            "cpu_s": median([j["cpu_s"] for j in plain]),
            "peak_rss_mb": median([j["maxrss_mb"] for j in plain]),
        }
        units = {"setup_s": "s", "job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    record["metrics"] = {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()}
    record["samples"] = len(traced_jobs if trace else plain)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)
    return record


def per_layer_units(verify_names: list[str]):
    for k in BUILD_KS:
        yield f"rk.build_rk_table_s.k{k}", "s"
    yield from [
        ("rk.build_calls", "count"),
        ("rk.build_values", "count"),
        ("rk.save_table_s", "s"),
        ("rk.save_bytes", "bytes"),
        ("rk.load_table_s", "s"),
        ("rk.load_bytes", "bytes"),
        ("convolve.exact_convolve_s", "s"),
        ("convolve.calls", "count"),
        ("convolve.transform_points", "count"),
        ("discrepancy.prefix_counts_s", "s"),
        ("discrepancy.p_values_s", "s"),
        ("discrepancy.prefix_float_s", "s"),
    ]
    for stat in STATISTICS:
        yield f"moments.{stat}_s", "s"
    yield from [
        ("moments.cells", "count"),
        ("moments.terms", "count"),
        ("fit.recover_c3_s", "s"),
        ("fit.c3_standard_error_s", "s"),
    ]
    for name in verify_names:
        yield f"verify.{name}_s", "s"
    yield from [
        ("cli.moments_s", "s"),
        ("cli.fit_s", "s"),
        ("cli.verify_s", "s"),
        ("cli.cache_hit", "count"),
        ("cli.cache_miss", "count"),
        ("cli.cache_rebuild", "count"),
        ("cli.n_max_smooth", "count"),
        ("cli.n_max_sharp", "count"),
        ("trace.covered_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]


def report(record: dict) -> None:
    env = record["env"]
    print(
        f"env: nproc={env['nproc']} cpu={env['cpu']!r} load1={env['load1']:.2f} "
        f"python={env.get('python')} numpy={env.get('numpy')} threads={record['threads']}"
    )
    grids = " ".join(f"{k}={v!r}" for k, v in record["grids"].items())
    n_max = " ".join(f"n_max_{k}={v}" for k, v in record["n_max"].items() if v)
    print(
        f"{record['workload']} seed={record['seed']} trace={int(record['trace'])} "
        f"samples={record['samples']} {grids} {n_max}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    ratio = record["failed"] / max(record["attempted"], 1)
    print(f"  {'failed_ratio':<40} {ratio:.6g} ({record['failed']}/{record['attempted']} invocations)")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}", file=sys.stderr)


# ---------------------------------------------------------------- golden


def write_golden() -> int:
    """Store seed-0 outputs of one c3-cold and one verify-full job."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    job_dir = os.path.join(OUT, "golden")
    shutil.rmtree(job_dir, ignore_errors=True)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    cache = os.path.join(job_dir, "cache")
    c3 = run_worker(c3_ops(0, job_dir, cache, min(2, len(os.sched_getaffinity(0)))), cache, False, deadline)
    ver = run_worker([["verify", "--level", "full"]], None, False, deadline)
    ops = c3.get("ops", []) + ver.get("ops", [])
    if len(ops) != 5 or any(op["rc"] != 0 for op in ops):
        print("write-golden: an invocation failed", file=sys.stderr)
        return 1
    golden = {
        "seed": 0,
        "n_max": {g: n_max_of(cache_outcome(op)[1]) for g, op in zip(("smooth", "sharp"), ops[:2])},
        "smooth_csv": csv_prefix(csv_path(job_dir, "smooth")),
        "sharp_csv": csv_prefix(csv_path(job_dir, "sharp")),
        "c3_estimate": {g: c3_line(op["stdout"]) for g, op in zip(("smooth", "sharp"), ops[2:4])},
        "verify_passed": passed_checks(ops[4]["stdout"]),
    }
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    shutil.rmtree(job_dir)
    print(f"wrote {GOLDEN}")
    return 0


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gausslab", "cli.py")):
        print(f"error: no gausslab sources under {src}", file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)
    if args.write_golden:
        return write_golden()
    with open(GOLDEN) as fh:
        golden = json.load(fh)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace), golden) for w in workloads]
    for record in records:
        report(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records for name, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
