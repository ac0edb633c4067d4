"""carnotpde benchmark.

    python3 perfbench/run.py --workload heis33_march --seed 0 --seconds 25 --trace 0

Runs from the root of a checkout and imports the package from ``src/`` there.
With ``--trace 0`` it repeats the workload's operation for ``--seconds``
seconds and reports the end-to-end metrics; with ``--trace 1`` it runs a
fixed set of operations untraced, then the same set traced, and reports the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2 without a
result when the package sources are missing.  See perfbench/NOTES.md.
"""

import os
import sys

# Single-threaded by construction: pin every BLAS/OpenMP pool before numpy
# is imported.  (CARNOTPDE_THREADS needs threadpoolctl, which may be absent.)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import time
import traceback
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Operations per phase of a traced run: fixed, so that counts repeat exactly.
TRACE_OPS = {"heis33_march": 1, "heis17_pairs": 14,
             "line129_flow": 1, "line129_elliptic": 1}
MIN_OPS = 2
SETUP_REPS = {"heis33_march": 3, "heis17_pairs": 5,
              "line129_flow": 5, "line129_elliptic": 5}


def machine_record():
    record = {"nproc": os.cpu_count(), "cpu_model": None, "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    record["caches_per_core"] = caches
    for package in ("numpy", "sympy", "scipy"):
        try:
            record[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            record[package] = None
    record["threads"] = {var: os.environ[var] for var in ("OMP_NUM_THREADS",
                                                          "OPENBLAS_NUM_THREADS")}
    record["byte_figures"] = "computed from array sizes, not measured"
    return record


def run_op(workload, i):
    """One operation; an exception counts as a failed operation."""
    try:
        outcome = workload.op(i)
    except Exception:
        traceback.print_exc()
        return None
    if not outcome.ok:
        print(f"operation {i} failed: {outcome.detail}", file=sys.stderr)
    return outcome


def timed_run(name, workload, seconds):
    setups = [workload.setup() for _ in range(SETUP_REPS[name])]
    times, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - start < seconds:
        outcome = run_op(workload, attempted)
        attempted += 1
        if outcome is None:
            failed += 1
            continue
        failed += not outcome.ok
        times.append(outcome.seconds)
        setups.append(outcome.setup_seconds)
    if not times:
        return None
    print("samples", json.dumps({"operations": len(times), "setups": len(setups)}))
    metrics = {
        "setup_s": (float(np.median(setups)), "s"),
        "solve_s": (float(np.median(times)), "s"),
        "solve_p75_s": (float(np.percentile(times, 75)), "s"),
        "solves_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return attempted, failed, metrics


def traced_run(name, seed, workload):
    import spans

    n = TRACE_OPS[name]
    plain = [run_op(workload, i) for i in range(n)]
    recorder = spans.Recorder()
    recorder.install()
    try:
        traced = []
        for i in range(n):
            recorder.current_op = i
            traced.append(run_op(workload, i))
    finally:
        recorder.uninstall()
    done = [o for o in plain + traced if o is not None]
    failed = sum(1 for o in plain + traced if o is None or not o.ok)
    if len(done) < 2 * n:
        return None
    values = spans.layer_metrics(recorder)
    for key in ("solver.rungs_flow", "solver.rungs_elliptic",
                "solver.err_flow", "solver.err_elliptic"):
        values[key] = float(max(o.layer.get(key, 0.0) for o in traced))
    values["trace.overhead_frac"] = (sum(o.seconds for o in traced)
                                     / sum(o.seconds for o in plain) - 1.0)
    print("absent", json.dumps(recorder.absent))
    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"trace-{name}-seed{seed}.npz",
                   json.dumps({"workload": name, "seed": seed, "machine": machine_record()}))
    metrics = {key: (value, spans.UNITS[key]) for key, value in values.items()}
    return 2 * n, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(TRACE_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "carnotpde" / "__init__.py").is_file():
        print(f"error: no carnotpde package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import carnotpde
    if Path(carnotpde.__file__).resolve().parent != (SRC / "carnotpde").resolve():
        print(f"error: carnotpde imported from {carnotpde.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    # numpy seeds must be non-negative; any integer maps to one.
    workload = workloads.WORKLOADS[args.workload](args.seed % 2**63, OUT)
    print("machine", json.dumps(machine_record()))
    if args.trace:
        result = traced_run(args.workload, args.seed, workload)
    else:
        result = timed_run(args.workload, workload, args.seconds)
    if result is None:
        print("error: operations raised before a result could be formed", file=sys.stderr)
        return 1
    attempted, failed, metrics = result
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
