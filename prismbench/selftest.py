"""Self-test of the benchmark at toy sizes (about a minute).

    python3 prismbench/selftest.py

Checks that every workload of ``BENCHMARK.json`` emits every metric it
names, with its unit, in both modes; that ``catalog.SHOULD_MOVE`` covers
exactly its per-layer metrics; that each span's self time lies between
zero and its duration; and that the benchmark refuses to run where the
program's sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalog import SHOULD_MOVE  # noqa: E402
from run import MANIFEST, OUT  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    raise SystemExit(f"selftest FAILED: {msg}")


def run_bench(cwd, workload, trace, tiny=True):
    cmd = [sys.executable, str(Path(cwd) / "prismbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, table, label):
    if proc.returncode != 0:
        fail(f"{label} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        info = json.loads(proc.stdout.splitlines()[-2])
        fail(f"{label}: not correct: {info['checks']} {info['errors']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in table}
    if got != want:
        fail(f"{label}: metrics {sorted(set(got) ^ set(want))} differ in name or unit")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], float) or not math.isfinite(m["value"]):
            fail(f"{label}: {name} = {m['value']!r}")
    return result


def check_spans(workload):
    spans = json.loads((OUT / f"{workload}-s7-t1-tiny.json").read_text())["spans"]
    if not spans:
        fail(f"{workload}: traced run recorded no spans")
    for s in spans:
        dur = s["end"] - s["start"]
        if not (-1e-9 <= s["self"] <= dur + 1e-9):
            fail(f"{workload}: span {s['name']} self {s['self']} outside [0, {dur}]")
        if s["parent"] is not None:
            p = spans[s["parent"]]
            if s["start"] < p["start"] or s["end"] > p["end"]:
                fail(f"{workload}: span {s['name']} leaves its parent {p['name']}")


def check_refuses_without_program():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "prismbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench(bare, "train-n128", 0, tiny=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("benchmark ran without the program's sources")


def main():
    bench = json.loads(MANIFEST.read_text())
    if set(SHOULD_MOVE) != {m["name"] for m in bench["per_layer"]}:
        fail("catalog.SHOULD_MOVE does not cover exactly the per-layer metrics")
    for workload in (w["name"] for w in bench["workloads"]):
        e2e = check_result(run_bench(ROOT, workload, 0), bench["end_to_end"],
                           f"{workload} t0")
        for name, value in e2e["metrics"].items():
            if value["value"] <= 0:
                fail(f"{workload}: end-to-end {name} reads {value['value']}")
        check_result(run_bench(ROOT, workload, 1), bench["per_layer"], f"{workload} t1")
        check_spans(workload)
        print(f"ok {workload}")
    check_refuses_without_program()
    print("selftest passed")


if __name__ == "__main__":
    main()
