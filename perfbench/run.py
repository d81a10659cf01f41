"""Benchmark for ``blends``: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload march --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Each run is one process with one client thread, closed loop: the next op is
issued when the previous one returns.  A run sets up several times (fresh
import of ``blends`` from ``src/``, input generation, one untimed warm-up of
each op kind) and reports the median set-up time; then it repeats the
seeded op sequence ("pass") until ``--seconds`` have elapsed, timing every
op and checking every output against an independent reference outside the
timed region.  ``--trace 1`` runs untraced passes for a third of the time,
then patches ``blends`` and runs traced passes; it reports per-layer counts
and self times per pass, and the tracing overhead.  ``--profile 1`` adds one
pass under cProfile and writes the top entries by self time beside the trace.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table.  Full results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import os

# one thread for BLAS/OpenMP pools (double_point calls numpy.linalg.eigvals);
# must be set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import cProfile
import importlib
import io
import json
import math
import platform
import pstats
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import common
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("march", "analysis", "tabulate", "construct")
SETUP_REPEATS = 3
# a run keeps going until it has this many ops, so at least ten lie beyond p90
MIN_OPS = 100
# end-to-end metrics of the JSON line; fail_ratio is printed in the table
# and equals failed/attempted of that line, but a healthy run has it at 0,
# so it cannot be a metric bounded by a share of its median
E2E = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "accurate_digits", "peak_rss_mb")
UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "accurate_digits": "digits", "fail_ratio": "ratio", "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_import():
    """Import blends (and blends.cli) from src/, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "blends" or m.startswith("blends.")]:
        del sys.modules[name]
    B = importlib.import_module("blends")
    importlib.import_module("blends.cli")
    if Path(B.__file__).resolve().parent != (SRC / "blends").resolve():
        raise ImportError(f"blends imported from {B.__file__}, not from {SRC}")
    return B


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            for line in packed:
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


class Runner:
    def __init__(self, wl, args, refs, tmpdir):
        self.wl = wl
        self.args = args
        self.ctx = SimpleNamespace(oracle=lambda f: f, tmpdir=tmpdir, refs=refs)
        self.B = None
        self.ops = None
        self.state = None
        self.lat = []
        self.kind_lat = {}
        self.kind_err = {}
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def setup(self) -> float:
        t0 = time.perf_counter()
        self.B = fresh_import()
        self.ops, inputs = self.wl.make_ops(random.Random(self.args.seed), self.ctx.refs)
        self.state = self.wl.prepare(self.B, inputs, self.ctx)
        seen = set()
        for op in self.ops:
            if op.kind not in seen:
                seen.add(op.kind)
                self.wl.run(self.B, self.ctx, op, self.state)
        return time.perf_counter() - t0

    def one_op(self, op, index):
        B, ctx, state = self.B, self.ctx, self.state
        tr = self.tracer
        t0 = time.perf_counter()
        try:
            if tr is not None:
                tr.op_id = index
                tr.active = True
                try:
                    out = tr.span("bench.op", self.wl.run, B, ctx, op, state)
                finally:
                    tr.active = False
            else:
                out = self.wl.run(B, ctx, op, state)
            exc = None
        except Exception as e:  # an op that raises is a failed op, not a crash
            out, exc = None, e
        dt = time.perf_counter() - t0
        self.attempted += 1
        self.lat.append(dt)
        self.kind_lat.setdefault(op.kind, []).append(dt)
        err = None
        if exc is None:
            try:
                err = self.wl.check(op, out, state)
            except Exception as e:
                exc = e
        if err is not None:
            self.kind_err[op.kind] = max(self.kind_err.get(op.kind, 0.0), err)
            if not err <= op.bound:
                exc = common.CheckFailed(f"relative error {err:.3e} > bound {op.bound:.1e}")
        if exc is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"op {index} {op.kind} {str(op.params)[:200]}: {type(exc).__name__}: {exc}")

    def passes(self, seconds) -> int:
        """Run whole passes over the op sequence until seconds have elapsed."""
        deadline = time.perf_counter() + seconds
        start = len(self.lat)
        n = 0
        while True:
            for i, op in enumerate(self.ops):
                self.one_op(op, n * len(self.ops) + i)
            n += 1
            if time.perf_counter() >= deadline and len(self.lat) - start >= MIN_OPS:
                return n

    def reset_samples(self):
        self.lat = []
        self.kind_lat = {}


def percentile(sorted_vals, frac):
    """Linear-interpolated percentile of an already sorted list."""
    pos = frac * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def end_to_end(r: Runner, setup_s: float) -> dict:
    lat = sorted(r.lat)
    worst = max(r.kind_err.values(), default=math.inf)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * percentile(lat, 0.5),
        "latency_p90_ms": 1e3 * percentile(lat, 0.9),
        "accurate_digits": common.digits(worst),
        "fail_ratio": r.failed / r.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(args) -> int:
    wl = importlib.import_module(args.workload)
    refs = common.load_refs()
    OUT.mkdir(exist_ok=True)
    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir()
    try:
        r = Runner(wl, args, refs, tmpdir)
        setups = [r.setup() for _ in range(SETUP_REPEATS)]
        setup_s = statistics.median(setups)
        env = environment()
        result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "setup_runs_s": setups}
        if args.trace:
            untraced = r.passes(args.seconds / 3)
            base_ops = len(r.lat) / sum(r.lat)
            r.reset_samples()
            tr = r.tracer = tracing.Tracer()
            r.ctx.oracle = tr.oracle
            tr.install(r.B)
            try:
                npass = r.passes(args.seconds * 2 / 3)
            finally:
                tr.uninstall()
                r.ctx.oracle = lambda f: f
            metrics = tr.metrics(npass, sum(r.lat), len(r.lat) / sum(r.lat) / base_ops)
            result.update(untraced_passes=untraced, traced_passes=npass)
            tr.write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        else:
            result.update(passes=r.passes(args.seconds))
        if args.profile:
            write_profile(r, OUT / f"{args.workload}-seed{args.seed}.profile.txt")
        e2e = end_to_end(r, setup_s)
        if not args.trace:
            metrics = e2e
        result.update(
            ops_per_pass=len(r.ops), attempted=r.attempted, failed=r.failed,
            failures=r.failures, metrics=metrics, end_to_end=e2e,
            kinds={k: {"n": len(v), "p50_ms": 1e3 * statistics.median(v),
                       "digits": common.digits(r.kind_err.get(k, math.inf))} for k, v in r.kind_lat.items()},
        )
        # the self times must account for the traced wall time
        consistent = abs(metrics.get("trace.unaccounted_s", 0.0)) <= 0.01 * metrics.get("trace.wall_s", 0.0)
        correct = r.failed == 0 and consistent
        print_table(result, e2e, metrics if args.trace else None)
        with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
            json.dump(result, f, indent=1)
        keys = tracing.LAYER_UNITS if args.trace else E2E
        line = {
            "correct": correct,
            "attempted": r.attempted,
            "failed": r.failed,
            "metrics": {k: {"value": metrics[k], "unit": unit_of(k)} for k in keys},
        }
        print(json.dumps(line))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def unit_of(name):
    return UNITS.get(name) or tracing.LAYER_UNITS[name]


def write_profile(r: Runner, path: Path) -> None:
    """One extra, untimed pass under cProfile; top entries by self time."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        for op in r.ops:
            r.wl.run(r.B, r.ctx, op, r.state)
    finally:
        prof.disable()
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).sort_stats("tottime").print_stats(40)
    path.write_text(buf.getvalue())


def print_table(result, e2e, layers):
    env = result["env"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  "
          f"trace {result['trace']}  ops/pass {result['ops_per_pass']}  attempted {result['attempted']}")
    print(f"env nproc {env['nproc']} (affinity {env['affinity']})  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  commit {env['commit'][:12]}")
    n = result["attempted"]
    notes = {
        "setup_s": f"median of {len(result['setup_runs_s'])} set-ups",
        "latency_p50_ms": f"{n} samples",
        "latency_p90_ms": f"{n - math.ceil(0.9 * n)} samples above",
        "fail_ratio": f"{result['failed']}/{n}",
    }
    if result["trace"]:
        print("end-to-end (traced passes; use --trace 0 for the real figures):")
    for k in ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "accurate_digits", "fail_ratio", "peak_rss_mb"):
        print(f"  {k:<18} {e2e[k]:>12.6g} {UNITS[k]:<7} {notes.get(k, '')}")
    print("per op kind:")
    for kind, v in result["kinds"].items():
        print(f"  {kind:<22} n={v['n']:<5} p50={v['p50_ms']:8.3f} ms  digits={v['digits']:.2f}")
    if layers:
        print("per layer, per pass:")
        for k, v in layers.items():
            print(f"  {k:<40} {v:>14.6g} {unit_of(k)}")
    for f in result["failures"]:
        print("FAILED", f)


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    import subprocess

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--profile", str(args.profile)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blends" / "__init__.py").is_file():
        print(f"error: no blends sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
