"""One benchmark job in a fresh process: a list of gausslab CLI invocations.

Started by run.py, never by hand.  Reads one JSON job from stdin,

    {"ops": [[argv, ...], ...], "cache_dir": str or null, "trace": bool}

runs each argv through gausslab.cli.main in this process and writes one JSON
line to stdout with the job's wall and CPU time, each invocation's exit code,
captured output and the cache directory before and after it, and, with
"trace", the spans recorded around calls into the library's modules.

Tracing wraps public module-level functions from here only; the library is
not changed.  Spans stay in memory and leave with the result.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import platform
import resource
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from gausslab import cli, convolve, discrepancy, moments, rk, verify  # noqa: E402
from gausslab.fit import c3_standard_error, recover_c3  # noqa: E402

# statistic name -> (kernel attribute in gausslab.moments, truncated at the
# exponential cutoff rather than at integer X)
KERNELS = {
    "SmoothSecond": ("smooth_second_moment", True),
    "SharpSecond": ("sharp_second_moment", False),
    "LaplaceSecond": ("laplace_second_moment", True),
    "SharpIntegralSecond": ("sharp_integral_second_moment", False),
    "SmoothWeightedFirst": ("smooth_weighted_first_moment", True),
    "SharpWeightedFirst": ("sharp_weighted_first_moment_p3", False),
}


class Tracer:
    """Spans (id, name, parent, start, end, attributes) kept in memory.

    Each thread keeps its own stack of open spans.  Spans opened on a thread
    with an empty stack (the moments worker pool) take the open CLI span as
    their parent.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            rec = {"id": len(self.spans), "name": name, "parent": stack[-1] if stack else self.root}
            self.spans.append(rec)
        rec.update(attrs)
        stack.append(rec["id"])
        rec["start"] = time.perf_counter() - self._t0
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            stack.pop()

    def wrap(self, func, name, before=None, after=None):
        """func inside a span; before(*args) names the span and gives its
        attributes, after(rec, result, *args) adds attributes."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_name, attrs = before(*args, **kwargs) if before else (name, {})
            with self.span(span_name, **attrs) as rec:
                result = func(*args, **kwargs)
                if after:
                    after(rec, result, *args)
                return result

        return traced


def _rebind(old, new) -> None:
    """Point every module-level reference to `old` in gausslab at `new`.

    The CLI binds some functions by name at import and keeps its kernels in a
    module-level dict, so patching only the defining module would miss calls.
    """
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "gausslab" and not mod_name.startswith("gausslab."):
            continue
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)
            elif isinstance(val, dict):
                for dkey, dval in list(val.items()):
                    if dval is old:
                        val[dkey] = new


def _transform_points(a, b, n_out: int) -> int:
    """Transform length exact_convolve uses for these arguments."""
    if n_out <= 0:
        return 0
    need = min(len(a), n_out) + min(len(b), n_out) - 1
    return 1 << max(1, (need - 1).bit_length())


def install_tracer(tracer: Tracer) -> None:
    """Wrap the public functions of rk, convolve, discrepancy, moments, fit
    and every verify.BATTERY check."""

    def build_attrs(k, n_max):
        return f"rk.build_rk_table.k{k}", {"values": n_max + 1}

    def save_size(rec, _result, _table, path):
        rec["bytes"] = os.path.getsize(path)

    def load_attrs(path):
        return "rk.load_table", {"bytes": os.path.getsize(path)}

    def conv_attrs(a, b, n_out):
        return "convolve.exact_convolve", {"points": _transform_points(a, b, n_out)}

    for func, name, before, after in (
        (rk.build_rk_table, None, build_attrs, None),
        (rk.save_table, "rk.save_table", None, save_size),
        (rk.load_table, None, load_attrs, None),
        (convolve.exact_convolve, None, conv_attrs, None),
        (discrepancy.prefix_counts, "discrepancy.prefix_counts", None, None),
        (recover_c3, "fit.recover_c3", None, None),
        (c3_standard_error, "fit.c3_standard_error", None, None),
    ):
        _rebind(func, tracer.wrap(func, name, before, after))
    series_cls = discrepancy.DiscrepancySeries
    series_cls.p_values = tracer.wrap(series_cls.p_values, "discrepancy.p_values")
    series_cls.prefix_float = tracer.wrap(series_cls.prefix_float, "discrepancy.prefix_float")
    for stat, (attr, exp_cut) in KERNELS.items():
        kernel = getattr(moments, attr)

        def before(series, x, *args, _stat=stat, _exp=exp_cut, **kwargs):
            terms = moments.exp_cutoff(series.k, x) if _exp else int(x)
            return f"moments.{_stat}", {"terms": terms}

        _rebind(kernel, tracer.wrap(kernel, None, before=before))
    verify.BATTERY[:] = [(name, tracer.wrap(check, f"verify.{name}")) for name, check in verify.BATTERY]


def _cache_snapshot(cache_dir: str | None) -> dict[str, list[int]]:
    if not cache_dir or not os.path.isdir(cache_dir):
        return {}
    snap = {}
    for name in os.listdir(cache_dir):
        if name.endswith(".rktb"):
            st = os.stat(os.path.join(cache_dir, name))
            snap[name] = [st.st_ino, st.st_mtime_ns]
    return snap


def run_op(argv: list[str], cache_dir: str | None, tracer: Tracer | None) -> dict:
    before = _cache_snapshot(cache_dir)
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span as rec:
        if rec is not None:
            tracer.root = rec["id"]
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        except Exception as exc:  # an escaped error fails this invocation only
            rc = f"exception: {exc!r}"
    return {
        "argv": argv,
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "cache_before": before,
        "cache_after": _cache_snapshot(cache_dir),
    }


def main() -> int:
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "gausslab"):
        print(f"worker: gausslab imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    job = json.loads(sys.stdin.read())
    tracer = Tracer() if job["trace"] else None
    if tracer:
        install_tracer(tracer)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    ops = [run_op(argv, job["cache_dir"], tracer) for argv in job["ops"]]
    job_s = time.perf_counter() - start
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    result = {
        "job_s": job_s,
        "cpu_s": cpu_s,
        "ops": ops,
        "spans": tracer.spans if tracer else [],
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
