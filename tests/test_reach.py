"""The library holds what a command reaches.

One subprocess starts sys.setprofile before `import gausslab`, so code run at
import counts, and runs every subcommand in-process through cli.main at small
scale.  The test fails on any def of the package (module level or class
method; nested functions and lambdas are not counted) whose code object no
run entered, unless ALLOWED names it.  A function only tests call belongs in
the tests, as their oracle.
"""

import os
import subprocess
import sys

from gausslab import cli
from gausslab.moments import Statistic

# public API that no command calls: the free least-squares fit, criterion 6b's solver
ALLOWED = {"fit.fit"}

COMMANDS = [
    "table --k 3 --n-max 2000 --cache-dir .",  # a miss
    "table --k 3 --n-max 2000 --cache-dir .",  # a hit
    "moments --k 3 --x-min 1000 --x-max 10000 --points 4 --c3 10.6 --out m3.csv"
    + "".join(f" --stat {stat.value}" for stat in Statistic),
    # S_8 carries past 2^64 at n = 46,172
    "moments --k 8 --x-min 50000 --x-max 50000 --points 1 --stat SharpSecond",
    "moments --k 5 --x-min 100 --x-max 1000 --points 2 --stat SmoothSecond --stat SharpSecond",
    "fit m3.csv --mode smooth",
    "fit m3.csv --mode sharp",
    "verify --level full",
    "shortinterval --x-min 1000 --x-max 10000 --points 2 --beta 0.5",
    "constants --k 3",
]

RUN = r"""
import contextlib, inspect, io, os, sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
from gausslab import cli

os.chdir(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv.split()) for argv in sys.argv[2:]]
sys.setprofile(None)


def defs(module):
    for obj in list(vars(module).values()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr in vars(obj).values():
                attr = getattr(attr, "__func__", attr)  # staticmethod, classmethod
                if isinstance(attr, property):
                    yield from filter(None, (attr.fget, attr.fset, attr.fdel))
                elif inspect.isfunction(attr):
                    yield attr
        elif inspect.isfunction(obj):
            yield obj


modules = [m for name, m in list(sys.modules.items()) if name == "gausslab" or name.startswith("gausslab.")]
loaded = sorted(os.path.basename(m.__file__) for m in modules)
missed = set()
for module in modules:
    for func in defs(module):
        func = inspect.unwrap(func)
        code = func.__code__
        # dataclass-made methods have no file of the module's own
        if code.co_filename == module.__file__ and code.co_name != "<lambda>" and code not in entered:
            missed.add(module.__name__.removeprefix("gausslab.") + "." + func.__qualname__)
print(codes)
print(" ".join(loaded))
print(" ".join(sorted(missed)))
"""


def test_every_def_is_reached_by_a_command(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("GAUSSLAB_CACHE_DIR", None)
    argv = [sys.executable, "-c", RUN, str(tmp_path), *COMMANDS]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout
    codes, loaded, missed = out.splitlines()
    assert codes == str([0] * len(COMMANDS))
    # every module but __main__ was imported, so its defs were all counted
    package = sorted(f for f in os.listdir(os.path.join(src, "gausslab")) if f.endswith(".py") and f != "__main__.py")
    assert loaded.split() == package
    unreached = sorted(set(missed.split()) - ALLOWED)
    assert not unreached, "no command reaches " + ", ".join(unreached)
