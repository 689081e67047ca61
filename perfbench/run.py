"""The freejordan benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it runs the package in ./src.  Every
measurement is a fresh process (child.py) with its own empty
FREEJORDAN_CACHE, all started from this one process.  Workloads and their
checks are in workloads.py, the reasons and predictions in DESIGN.md.

--trace 0 measures the end-to-end metrics.  It solves the workload in
fresh processes, one after another, while the next one is expected to end
within --seconds (always at least one).  Half of SETUP_PROBES processes that
stop at the first call into the package (set-up time) run before them, half
after, so that set-up samples span the run.  Each metric is the median over
its processes.

--trace 1 solves the workload once untraced and once traced, and reports
the per-layer metrics of tracing.py; trace.overhead_s is the traced minus
the untraced solve time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted and failed count checks.
The lines before it describe the run and the machine.  The exit code is 2,
with no result, when the package is not there to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 12
DEADLINE_S = 170  # every process ends by then, so the run exits within 180 s
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


class Runner:
    """Starts run processes in a private work directory under the checkout."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        base = os.path.join(root, ".perfbench_work")
        os.makedirs(base, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=base)
        self._count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        # the first (env) process compiles every module into the work
        # directory, not into src/, so that set-up time never includes
        # compilation
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(self.work, "pycache")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run still uses it

    def spawn(self, mode: str):
        """Run one process; returns (result dict or None, spawn time, wall s)."""
        self._count += 1
        tag = "%s-%d" % (mode, self._count)
        out = os.path.join(self.work, tag + ".json")
        cache = os.path.join(self.work, "cache-" + tag)
        os.mkdir(cache)
        env = dict(self.env, FREEJORDAN_CACHE=cache)
        cmd = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--out", out,
        ]
        spans = os.path.join(self.work, tag + ".spans")
        if mode == "trace":
            cmd += ["--spans", spans]
        timeout = max(1.0, self.deadline - time.monotonic())
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=self.root, stdin=subprocess.DEVNULL,
                stdout=sys.stderr, timeout=timeout,
            )
            ok = proc.returncode == 0
        except subprocess.TimeoutExpired:
            print("%s process killed after %.0f s" % (mode, timeout), file=sys.stderr)
            ok = False
        wall = time.monotonic() - t_spawn
        result = None
        if ok:
            with open(out) as fh:
                result = json.load(fh)
            if mode == "trace":
                result["spans"] = spans
        shutil.rmtree(cache, ignore_errors=True)
        return result, t_spawn, wall


def _tally(results, nsteps):
    """(attempted, failed, lines describing failures) over solve processes."""
    attempted = failed = 0
    notes = []
    for res in results:
        if res is None:  # crashed or killed: every check of the run failed
            attempted += nsteps
            failed += nsteps
            notes.append("run process failed")
            continue
        for chk in res["checks"]:
            attempted += 1
            if not chk["ok"]:
                failed += 1
                notes.append("FAIL %s: %s" % (chk["name"], chk["detail"]))
    return attempted, failed, notes


def _probe_setup(runner: Runner, setups: list, count: int) -> None:
    for _ in range(count):
        res, t_spawn, _wall = runner.spawn("setup")
        if res is not None:
            setups.append(res["t_first"] - t_spawn)


def measure(runner: Runner, seconds: int):
    setups = []
    t0 = time.monotonic()
    _probe_setup(runner, setups, SETUP_PROBES // 2)
    solves = []
    while True:
        res, t_spawn, wall = runner.spawn("solve")
        solves.append(res)
        if res is not None:
            setups.append(res["t_first"] - t_spawn)
        if time.monotonic() - t0 + wall > seconds or time.monotonic() + wall > runner.deadline:
            break
    _probe_setup(runner, setups, SETUP_PROBES - SETUP_PROBES // 2)
    good = [r for r in solves if r is not None]
    metrics = {}
    samples = {"setup_s": setups}
    for key in ("solve_s", "cpu_s", "peak_rss_mb"):
        samples[key] = [r[key] for r in good]
    for key, unit in END_TO_END:
        if samples[key]:
            metrics[key] = {"value": statistics.median(samples[key]), "unit": unit}
    return solves, metrics, samples


def measure_traced(runner: Runner):
    plain, _t, _w = runner.spawn("solve")
    traced, _t, _w = runner.spawn("trace")
    samples = {}
    metrics = {}
    if plain is not None and traced is not None:
        spans, tail = tracing.read(traced["spans"])
        if tail.get("missing"):
            print("not traced (absent): %s" % ", ".join(tail["missing"]), file=sys.stderr)
        overhead = traced["solve_s"] - plain["solve_s"]
        metrics = tracing.layer_metrics(spans, tail.get("gauges", {}), overhead)
        samples = {"untraced solve_s": [plain["solve_s"]], "traced solve_s": [traced["solve_s"]]}
    return [plain, traced], metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "freejordan", "__init__.py")):
        print("error: no package at src/freejordan; run from the repository root",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    try:
        env, _t, _w = runner.spawn("env")  # also compiles every module once
        if env is None or not env["package"].startswith(os.path.join(root, "src")):
            print("error: the package in src/ does not import", file=sys.stderr)
            return 2
        wl = workloads.WORKLOADS[args.workload]
        inputs = wl.plan(args.seed, env["nproc"])
        env["jord_module_workers"] = inputs.get("workers")  # None: no pool used
        if args.trace:
            solves, metrics, samples = measure_traced(runner)
            expected_keys = [name for name, _u, _b in tracing.PER_LAYER]
        else:
            solves, metrics, samples = measure(runner, args.seconds)
            expected_keys = [name for name, _u in END_TO_END]
    finally:
        runner.close()

    attempted, failed, notes = _tally(solves, len(wl.steps))
    print("workload %s, seed %d, inputs %s" % (args.workload, args.seed, inputs))
    print("environment %s" % json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for key, values in samples.items():
        print("%s samples: %s" % (key, " ".join("%.4f" % v for v in values)))
    for key in expected_keys:
        if key in metrics:
            print("%-32s %14.6f %s" % (key, metrics[key]["value"], metrics[key]["unit"]))
    print("failed_frac %d/%d = %.4f" % (failed, attempted, failed / attempted))
    correct = failed == 0 and all(key in metrics for key in expected_keys)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
