"""One run process: set up, solve, check, and report as JSON.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE --out FILE

run.py starts a fresh one of these for every measurement, so each pays
interpreter start and imports the way a user's process does.  Modes:

  env    import every package module (compiling it) and record versions
  setup  stop at the point of the first call into the package
  solve  run and check the workload untraced
  trace  the same with the spans of tracing.py, written to --spans

`t_first`, the clock reading just before the first call, lets the parent
compute set-up time from its own reading taken before the process started;
time.monotonic is one clock for all processes on the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas_record() -> dict:
    """OpenBLAS version and thread count of the numpy in use, if found."""
    import ctypes
    import glob

    import numpy as np

    out = {"blas": None, "blas_threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = "%s %s" % (deps.get("name"), deps.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out["blas_threads"] = fn()
                return out
    return out


def env_record() -> dict:
    import importlib
    import pkgutil

    import freejordan
    import numpy as np

    for info in pkgutil.iter_modules(freejordan.__path__):
        importlib.import_module("freejordan." + info.name)
    rec = {
        "package": os.path.dirname(freejordan.__file__),
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    rec.update(_blas_record())
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("env", "setup", "solve", "trace"))
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    if args.mode == "env":
        result = env_record()
    else:
        wl = workloads.WORKLOADS[args.workload]
        inputs = wl.plan(args.seed, nproc())
        api = wl.import_api()
        tracer = None
        if args.mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        t_first = time.monotonic()
        result = {"t_first": t_first}
        if args.mode != "setup":
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            ctx, checks = {}, []
            for name, step, want in wl.steps:
                try:
                    got = step(api, inputs, ctx)
                    ok = got == workloads.expected(want, inputs)
                    detail = "" if ok else "got %r" % (got,)
                except Exception as err:  # a raising step is a failed check
                    ok, detail = False, "%s: %s" % (type(err).__name__, err)
                checks.append({"name": name, "ok": ok, "detail": detail})
            solve_s = time.monotonic() - t_first
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            result.update(
                solve_s=solve_s,
                cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
                peak_rss_mb=ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
                checks=checks,
                inputs=repr(inputs),
            )
            if tracer is not None:
                tracer.write(args.spans, "%s-%d" % (args.workload, os.getpid()), tracing.gauges())
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
