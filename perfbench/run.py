"""Benchmark of the rotoshift command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 -m pytest -q perfbench        # the benchmark's own tests

Each workload is 100 JSON configs generated from --seed (gen.py) before any
timing.  A child process (worker.py), with ROTOSHIFT_THREADS unset so the
sweep pool runs at its default size, calls rotoshift.cli.main on them in
process, one call after another, and checks every output (checks.py).

--trace 0 reports the end-to-end metrics.  The worker cycles through the
inputs for --seconds; each input is then taken at its median over its runs:
  setup_s      median wall time of a fresh interpreter that imports
               rotoshift.cli (SETUP_REPEATS runs)
  op_p50_s     median over the 100 inputs of an input's op wall time
  op_p90_s     90th percentile of the same (10 inputs lie beyond it)
  rows_per_s   output rows of one pass over the inputs, divided by the sum
               of their op wall times
  cpu_s        user + system CPU seconds of the workload process, all its
               threads, for one pass over the inputs: the sum of each
               input's CPU time
  peak_rss_mb  peak resident memory of the workload process
  ok_frac      1 - fail_frac, where fail_frac is the share of ops with a
               wrong exit code or a failed output check; kept as ok_frac
               so that the metric does not read 0 on a healthy run
--trace 1 reports per-layer figures from instrumented ops (spans.py) as
averages per op, the import times of numpy, scipy and rotoshift from
`python -X importtime`, and trace.overhead_frac, the extra op time of
instrumented ops over plain ones.

Before the last line, which is the JSON result, the benchmark prints the
environment, fail_frac, any failed checks, and a SHA-256 digest of the
outputs of every input run, which is the same for the same seed and
code as long as the CSV bytes are.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
WORKER_TIMEOUT_S = 150
IMPORT_PACKAGES = ("numpy", "scipy", "rotoshift")


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("ROTOSHIFT_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_cli(extra_args=()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *extra_args, "-c", "import rotoshift.cli"],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=60, check=True)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing rotoshift.cli."""
    _import_cli()  # bytecode compiled once, as in an installed package
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _import_cli()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def parse_importtime(stderr: str) -> dict:
    """Seconds of import time per package, from `python -X importtime`.

    numpy and scipy each get the cumulative time of the imports they
    start, everything they pull in included; rotoshift gets the rest of
    the import of rotoshift.cli.  The three add up to the whole import.
    """
    entries = []
    for line in stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(fields[1]) / 1e6, name.strip().split(".")[0]))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    ancestors = []  # (depth, nearest package of IMPORT_PACKAGES at or above)
    for depth, cumulative, package in reversed(entries):  # parents first
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        owner = ancestors[-1][1] if ancestors else None
        if package in totals and owner in (None, "rotoshift") and package != owner:
            totals[package] += cumulative
            if owner is not None:
                totals[owner] -= cumulative
            owner = package
        ancestors.append((depth, owner))
    return totals


def measure_imports() -> dict:
    runs = [parse_importtime(_import_cli(["-X", "importtime"]).stderr)
            for _ in range(IMPORT_REPEATS)]
    return {f"import.{p}_s": (statistics.median(r[p] for r in runs), "s")
            for p in IMPORT_PACKAGES}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    workdir = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        gen.write_inputs(gen.generate(workload, seed), workdir / "in")
        extra = {"setup_s": (measure_setup(), "s")} if trace == 0 else measure_imports()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
             "--inputs", str(workdir / "in"), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while not empty
            workdir.parent.rmdir()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["metrics"].update({name: {"value": value, "unit": unit}
                              for name, (value, unit) in extra.items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "rotoshift" / "cli.py").is_file():
        print(f"error: no rotoshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    print(json.dumps({"environment": next(iter(results.values()))["environment"]}))
    for workload, result in results.items():
        fail_frac = result["failed"] / result["attempted"]
        print(f"{workload} seed={args.seed}: {result['attempted']} ops, "
              f"fail_frac={fail_frac:g}, digest sha256:{result['digest']} "
              f"over {result['digest_inputs']} of {gen.OPS_PER_WORKLOAD} inputs")
        for note in result["notes"]:
            print(f"  {note}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<38} {metric['value']:.6g} {metric['unit']}")

    if len(results) == 1:
        metrics = result["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items()
                   for name, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
