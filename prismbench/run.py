"""Benchmark of prismlab: training, long-sequence and evaluation throughput.

Run from the repository root:

    python3 prismbench/run.py --workload train-n128 --seed 1 --seconds 50 --trace 0

Workloads are listed in ``suite.WORKLOADS`` and ``BENCHMARK.json``; metric
names and units are read from ``BENCHMARK.json``. The
package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``. The line
before it records the machine, the thread count, the checks and the load.
With ``--trace 0`` each part of the workload runs in a worker process of
its own, this script with ``--worker``; the run stops and waits for every
worker before it exits.
Spans of a traced run are written to ``.prismbench_out/``.

``train.run_bench`` is not used: it reports the best of three calls after
one warmup, which hides the spread, and it times neither training steps
nor memory. This benchmark reports a percentile of many step or call
times, through the same ``run_training`` and ``evaluate`` entry points a
probe sweep uses.
"""

import os
import sys

# The BLAS pool is sized when numpy loads, so pin it before any import.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".prismbench_out"
MANIFEST = ROOT / "BENCHMARK.json"


class MissingProgram(Exception):
    pass


def load_prismlab():
    """Import prismlab from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "prismlab" / "__init__.py").is_file():
        raise MissingProgram(f"no prismlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import prismlab
    if Path(prismlab.__file__).resolve().parent != SRC / "prismlab":
        raise MissingProgram(f"prismlab was imported from {prismlab.__file__}")
    from prismlab import cell, config, errors, models, optim, tasks, tensor, train
    errors_tuple = tuple(v for v in vars(errors).values()
                         if isinstance(v, type) and issubclass(v, Exception)
                         and v.__module__ == errors.__name__)
    return SimpleNamespace(cell=cell, config=config, errors=errors, models=models,
                           optim=optim, tasks=tasks, tensor=tensor, train=train,
                           errors_tuple=errors_tuple)


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked of the library."""
    import numpy as np
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed):
    import numpy as np
    import scipy
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {"seed": seed, "blas_threads": blas_threads(),
            "thread_env": {v: os.environ[v] for v in THREAD_VARS},
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": openblas, "cpu": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def base_command(args):
    """This benchmark's command for the workload, seed and sizes of ``args``."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed)]
    return cmd + ["--tiny"] if args.tiny else cmd


def parse_args(argv):
    from suite import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="toy sizes, for the self-test")
    ap.add_argument("--worker", metavar="ACTIVITY:MODEL", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        pl = load_prismlab()
        manifest = json.loads(MANIFEST.read_text())
    except (MissingProgram, ImportError, OSError, ValueError) as exc:
        print(f"prismbench: cannot load the program or {MANIFEST.name}: {exc}",
              file=sys.stderr)
        return 2
    import suite
    wl = suite.WORKLOADS[args.workload]
    if args.tiny:
        wl = wl.tiny()
    if args.worker:
        # Replies go to the real standard output; anything else printed
        # goes to standard error.
        replies, sys.stdout = sys.stdout, sys.stderr
        return suite.serve(pl, wl, args.seed, *args.worker.split(":"),
                           sys.stdin, replies)

    load_start = os.getloadavg()
    ledger = suite.Ledger()
    info = {"workload": args.workload, "trace": args.trace, "tiny": args.tiny,
            "seconds": args.seconds, "env": environment(args.seed)}
    if args.trace:
        metrics, tracer, parts = suite.run_traced(pl, wl, args.seed, args.seconds,
                                                  ledger)
        info["unattributed_step_pct"] = gap = suite.unattributed_pct(tracer)
        # Spans must account for the step: what no child span covers may
        # not exceed the tracing overhead, or 1% when that reads lower.
        overhead = abs(metrics["train.tracing_overhead_pct"])
        ledger.check("spans_cover_steps", gap <= max(overhead, 1.0),
                     {"unattributed_pct": gap, "overhead_pct": overhead})
        spans = tracer.to_json()
    else:
        metrics, parts = suite.run_untraced(pl, wl, args.seed, args.seconds, ledger,
                                            base_command(args))
        spans = None
    info.update(loadavg_start=load_start, loadavg_end=os.getloadavg(),
                parts=parts, checks=ledger.checks, errors=ledger.errors)

    table = manifest["per_layer" if args.trace else "end_to_end"]
    result = {"correct": all(c["ok"] for c in ledger.checks.values()),
              "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                      "unit": m["unit"]} for m in table}}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}{'-tiny' if args.tiny else ''}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"info": info, "result": result, "spans": spans}, fh)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
