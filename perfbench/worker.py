"""Workload process of the rotoshift benchmark; started by run.py.

Usage: python3 perfbench/worker.py --root <checkout> --inputs <dir>
           --seconds <s> --trace <0|1>

Reads the ops run.py generated into <inputs>, calls rotoshift.cli.main in
process as a closed loop with one client, checks every op's exit code and
output, and prints one JSON line with the results.  An op covers argument
parsing, config read, validation, compute, rendering and the atomic write
of the output file.  The loop cycles through the ops for --seconds of wall
time, and at least once through all of them.  With --trace 1 each op runs
once plain and once instrumented, in alternating order, and the result
holds the per-layer figures and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import spans

WARMUP_OPS = 3
MAX_LOOP_S = 100.0


class Runner:
    """Runs ops through the CLI entry point and checks their outputs."""

    def __init__(self, ops: list, inputs: Path, main, constants):
        self.ops = ops
        self.inputs = inputs
        self.outputs = inputs.parent / "out"
        self.outputs.mkdir(exist_ok=True)
        self.main = main
        self.constants = constants
        self.first_digest = {}
        self.notes = []

    def _call(self, argv: list) -> int:
        try:
            return self.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the CLI must never end in a traceback: count it, go on
            traceback.print_exc()
            return -1

    def run(self, op: dict, tracer=None) -> dict:
        out = self.outputs / op["name"]
        out.unlink(missing_ok=True)
        argv = [op["command"], "--config", str(self.inputs / f"{op['name']}.json"),
                "--out", str(out)]
        err = io.StringIO()
        span = None
        with contextlib.redirect_stderr(err):
            cpu0, wall0 = time.process_time(), time.perf_counter()
            if tracer is None:
                code = self._call(argv)
            else:
                with tracer.op() as span:
                    code = self._call(argv)
            wall1, cpu1 = time.perf_counter(), time.process_time()
        output = out.read_bytes() if out.exists() else None
        record = {"wall": wall1 - wall0, "cpu": cpu1 - cpu0, "code": code,
                  "rows": 0, "bytes": len(output or b""),
                  "span": span.id if span else None, "ok": True}
        try:
            record["rows"] = checks.check_op(op, code, err.getvalue(), output,
                                             self.constants)
            entry = output if code == 0 else "".join(
                [f"exit {code}\n"] + [line + "\n" for line in err.getvalue().splitlines()
                                      if line.startswith("error:")]).encode()
            digest = hashlib.sha256(entry).hexdigest()
            if self.first_digest.setdefault(op["name"], digest) != digest:
                raise checks.CheckFailure("output differs from the first run of this input")
        except (checks.CheckFailure, ValueError, LookupError, TypeError) as exc:
            record["ok"] = False
            if len(self.notes) < 10:
                self.notes.append(f"failed {op['name']}: {exc!r}")
        return record

    def digest(self) -> tuple:
        """SHA-256 over the output digest of each op run, in input order."""
        lines = [f"{op['name']} {self.first_digest[op['name']]}\n" for op in self.ops
                 if op["name"] in self.first_digest]
        return hashlib.sha256("".join(lines).encode()).hexdigest(), len(lines)


def end_to_end(records: list, inputs: int) -> dict:
    """End-to-end figures from the op records of a run, in the order run.

    Record i ran input i % inputs.  Each input is taken at its median over
    its runs, so every input weighs the same and a burst of load on the
    host that hits fewer than half of an input's runs does not move it.
    op_p50_s and op_p90_s are percentiles over the inputs of their median
    wall time, cpu_s is the sum over the inputs of their median CPU time
    (the CPU one pass over the inputs costs), and rows_per_s is the rows
    of one pass over the sum of the median wall times.
    """
    by_input = collections.defaultdict(list)
    for i, record in enumerate(records):
        by_input[i % inputs].append(record)
    walls = [statistics.median(r["wall"] for r in runs) for runs in by_input.values()]
    cuts = statistics.quantiles(walls, n=10, method="inclusive")
    rows = sum(runs[0]["rows"] for runs in by_input.values())
    cpu = sum(statistics.median(r["cpu"] for r in runs) for runs in by_input.values())
    return {
        "op_p50_s": (cuts[4], "s"),
        "op_p90_s": (cuts[8], "s"),
        "rows_per_s": (rows / sum(walls), "1/s"),
        "cpu_s": (cpu, "s"),
        "ok_frac": (sum(r["ok"] for r in records) / len(records), "ratio"),
    }


def _plain_run(runner: Runner, seconds: float) -> tuple:
    """Ops cycled for `seconds` and at least one pass; end-to-end figures."""
    records = []
    start = time.perf_counter()
    while ((time.perf_counter() - start < seconds or len(records) < len(runner.ops))
           and time.perf_counter() - start < MAX_LOOP_S):
        records.append(runner.run(runner.ops[len(records) % len(runner.ops)]))
    metrics = end_to_end(records, len(runner.ops))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MiB")
    return records, metrics


def _traced_run(runner: Runner, seconds: float, modules: dict) -> tuple:
    """Per-layer figures: each op once plain and once instrumented."""
    records = []
    totals = collections.Counter()
    traced = 0
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = runner.ops[traced % len(runner.ops)]
        for instrument in ((False, True) if traced % 2 == 0 else (True, False)):
            if instrument:
                tracer = spans.Tracer()
                with spans.instrumented(tracer, modules):
                    record = runner.run(op, tracer)
                traced_s += record["wall"]
                totals.update(spans.op_totals(tracer.spans, record))
            else:
                record = runner.run(op)
                plain_s += record["wall"]
            records.append(record)
        traced += 1
    units = dict(spans.LAYER_METRICS)
    metrics = {name: (value, units[name])
               for name, value in spans.layer_metrics(totals, traced).items()}
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    return records, metrics


def _environment() -> dict:
    """Versions, BLAS and thread settings the workload actually ran with."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        **{var: os.environ.get(var) for var in
           ("ROTOSHIFT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args(argv)

    import rotoshift
    import rotoshift.cli
    expected = (args.root / "src" / "rotoshift").resolve()
    if Path(rotoshift.__file__).resolve().parent != expected:
        print(f"error: imported rotoshift from {rotoshift.__file__}, not {expected}",
              file=sys.stderr)
        return 2
    ops = json.loads((args.inputs / "manifest.json").read_text())
    runner = Runner(ops, args.inputs, rotoshift.cli.main, rotoshift.CODATA2018)
    for op in ops[:WARMUP_OPS]:
        runner.run(op)

    if args.trace == "0":
        records, metrics = _plain_run(runner, args.seconds)
    else:
        modules = {"cli": rotoshift.cli, "operators": rotoshift.operators,
                   "quasienergy": rotoshift.quasienergy, "shifts": rotoshift.shifts}
        records, metrics = _traced_run(runner, args.seconds, modules)
    failed = sum(not r["ok"] for r in records)
    digest, covered = runner.digest()
    print(json.dumps({
        "attempted": len(records), "failed": failed, "notes": runner.notes,
        "digest": digest, "digest_inputs": covered, "environment": _environment(),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
