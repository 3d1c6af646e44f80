"""Self-tests of the benchmark: seeded inputs, span arithmetic, checks.

Run with `python3 -m pytest -q perfbench` from the repository root.
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import checks
import gen
import run
import spans
import worker


@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_same_seed_same_inputs(workload, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    gen.write_inputs(gen.generate(workload, 11), first)
    gen.write_inputs(gen.generate(workload, 11), second)
    names = sorted(p.name for p in first.iterdir())
    assert len(names) == gen.OPS_PER_WORKLOAD + 1
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert gen.generate(workload, 12) != gen.generate(workload, 11)


def test_workload_mix_is_the_same_for_every_seed():
    for seed in (1, 2, 3):
        oracle = gen.generate("harmonic_oracle", seed)
        for b in range(0, len(oracle), 5):
            assert sorted(op["config"]["basis_n_max"] for op in oracle[b:b + 5]) \
                == [10, 11, 12, 13, 14]
        mix = gen.generate("scenario_mix", seed)
        assert sum(op["expect"] is not None for op in mix) == 5
        assert sum(op["command"] == "spectrum" and op["expect"] is None
                   for op in mix) == 25
        sweeps = gen.generate("sweep_table", seed)
        points = sorted(op["config"]["sweep"]["points"] for op in sweeps)
        assert 300 <= points[0] and points[-1] < 1500
        assert sum(op["config"]["model"] == "harmonic" for op in sweeps) == 20


def _span(span_id, parent, start, end, layer="cli", name="x", op=0):
    return spans.Span(span_id, parent, op, layer, name, start, end)


def test_self_time_subtracts_the_union_of_children():
    parent = _span(0, None, 0.0, 10.0)
    kids = [_span(1, 0, 1.0, 3.0), _span(2, 0, 2.0, 5.0),  # overlap: two threads
            _span(3, 0, 8.0, 12.0),                         # clipped to the parent
            _span(4, 1, 1.5, 2.5)]                          # grandchild
    own = spans.self_times([parent, *kids])
    assert own[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)


def _union(intervals):
    # sweep over endpoints with a depth counter
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    depth, covered, opened = 0, 0.0, None
    for t, step in events:
        if depth == 0 and step == 1:
            opened = t
        depth += step
        if depth == 0:
            covered += t - opened
    return covered


def test_spans_from_pool_threads_hang_off_the_op():
    tracer = spans.Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def task():
        outer = tracer.open("rotor", "rotor.config")
        inner = tracer.open("shifts", "shifts.report")
        barrier.wait()  # both threads inside their spans at once
        tracer.close(inner)
        tracer.close(outer)
        return outer.id

    with tracer.op() as op:
        with ThreadPoolExecutor(max_workers=2) as pool:
            ids = [f.result(timeout=10) for f in [pool.submit(task) for _ in range(2)]]
    by_id = {s.id: s for s in tracer.spans}
    assert all(by_id[i].parent == op.id for i in ids)
    assert all(s.op == op.id for s in tracer.spans)
    assert sorted(by_id[s.parent].name for s in tracer.spans
                  if s.name == "shifts.report") == ["rotor.config"] * 2
    children = [(by_id[i].start, by_id[i].end) for i in ids]
    assert _union(children) < sum(e - s for s, e in children)
    own = spans.self_times(tracer.spans)
    assert own[op.id] == pytest.approx(op.end - op.start - _union(children), abs=1e-12)


def test_op_totals():
    trace = [_span(0, None, 0.0, 10.0, "cli", "cli.main"),
             _span(1, 0, 0.5, 1.0, "cli", "cli.validate"),
             _span(2, 0, 1.0, 2.0, "rotor", "rotor.config"),
             _span(3, 0, 2.0, 6.0, "shifts", "shifts.report"),
             _span(4, 3, 3.0, 4.0, "quasienergy", "quasienergy.closed_form"),
             _span(5, 0, 6.0, 7.0, "shifts", "shifts.series"),
             _span(6, 0, 7.0, 7.5, "shifts", "shifts.series")]
    trace[6].info["raised"] = True
    total = spans.op_totals(trace, {"span": 0, "code": 0, "rows": 3, "bytes": 90})
    assert total["cli.validate_s"] == 0.5
    assert total["cli.self_s"] == pytest.approx((10.0 - 7.0) + 0.5)
    assert total["cli.emit_s"] == 2.5
    assert total["rotor.config_calls"] == 1
    assert total["shifts.report_s"] == 4.0
    assert total["quasienergy.closed_form_s"] == 1.0
    metrics = spans.layer_metrics(total, 2)
    assert metrics["shifts.series_attempts"] == 1.0
    assert metrics["shifts.series_ok_ratio"] == 0.5
    assert metrics["cli.rows_out"] == 1.5


def test_end_to_end_takes_each_input_at_its_median():
    # record i ran input i % 3; input 0 has one slow run out of three
    walls = [1.0, 3.0, 4.0, 9.0, 3.0, 5.0, 2.0]
    records = [{"wall": w, "cpu": w / 2, "rows": 10 * (i % 3 + 1), "ok": i != 4}
               for i, w in enumerate(walls)]
    metrics = worker.end_to_end(records, 3)
    assert metrics["op_p50_s"] == (3.0, "s")
    assert metrics["op_p90_s"][0] == pytest.approx(3.0 + 0.8 * 1.5)
    assert metrics["rows_per_s"][0] == pytest.approx(60 / (2.0 + 3.0 + 4.5))
    assert metrics["cpu_s"][0] == pytest.approx((2.0 + 3.0 + 4.5) / 2)
    assert metrics["ok_frac"][0] == pytest.approx(6 / 7)


def test_importtime_partition():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        30 |         30 |       numpy.testing",
        "import time:        20 |         50 |     scipy.special",
        "import time:        10 |        210 |   rotoshift.operators",
        "import time:         5 |        215 | rotoshift.cli",
    ])
    totals = run.parse_importtime(text)
    assert totals == pytest.approx({"numpy": 150e-6, "scipy": 50e-6, "rotoshift": 15e-6})


def _drfs_op(model="coulomb"):
    return {"name": "000-drfs", "command": "drfs", "expect": None,
            "config": {"model": model, "transition": {"upper": [3, 2], "lower": [2, 1]}}}


def _report_csv(series, alt, dynamic="1.0"):
    columns = ["swept_value", "M", "quasi_energy_upper_J", "quasi_energy_lower_J",
               "omega_rest_rad_s", "drfs_exact_rad_s", "drfs_series_rad_s",
               "drfs_series_alt_rad_s", "kinematic_rad_s", "dynamic_rad_s",
               "splitting_factor_upper", "splitting_factor_lower",
               "transverse_doppler_ratio", "force_ratio"]
    row = ["1", "1", "-1", "-2", "3", "4", series, alt, "0", dynamic, "1", "1", "", ""]
    return (",".join(columns) + "\n" + ",".join(row) + "\n").encode()


def test_checks_catch_wrong_outputs():
    series = -0.0405
    good = _report_csv(f"{series:.11e}", f"{4 * math.pi ** 2 * series:.11e}")
    assert checks.check_op(_drfs_op(), 0, "", good, None) == 1
    with pytest.raises(checks.CheckFailure):
        checks.check_op(_drfs_op(), 0, "", _report_csv(f"{series:.11e}", f"{series:.11e}"), None)
    with pytest.raises(checks.CheckFailure):
        checks.check_op(_drfs_op("harmonic"), 0, "", good, None)
    reject = {"name": "001-drfs", "command": "drfs", "config": {},
              "expect": [2, "rotor.radius_nm"]}
    assert checks.check_op(reject, 2, "error: rotor.radius_nm: unknown field\n",
                           None, None) == 0
    with pytest.raises(checks.CheckFailure):
        checks.check_op(reject, 0, "", good, None)


def test_instrumented_cli_call(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    import rotoshift.cli
    import rotoshift.operators
    import rotoshift.quasienergy
    import rotoshift.shifts
    modules = {"cli": rotoshift.cli, "operators": rotoshift.operators,
               "quasienergy": rotoshift.quasienergy, "shifts": rotoshift.shifts}
    config = tmp_path / "drfs.json"
    config.write_text('{"model": "coulomb", "rotor": {"omega_rad_s": 1e12, '
                      '"radius_m": 1e-10}, "transition": {"upper": [3, 2], "lower": [2, 1]}}')
    original = rotoshift.cli.drfs_exact
    tracer = spans.Tracer()
    with spans.instrumented(tracer, modules), tracer.op():
        argv = ["drfs", "--config", str(config), "--out", str(tmp_path / "out.csv")]
        assert rotoshift.cli.main(argv) == 0
    assert rotoshift.cli.drfs_exact is original
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "cli.validate", "rotor.config", "shifts.report",
            "shifts.series", "quasienergy.closed_form"} <= names
