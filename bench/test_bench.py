"""Tests of the benchmark's own arithmetic: scaling, span self time, counts.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

import measure
import tracing
import workloads

import gainops as g
from gainops import neural_op as nn

HERE = Path(__file__).resolve().parent


def test_scale_factor_uses_mean_of_bracketing_samples():
    assert measure.scale_factor(0.01, 0.01, 0.03) == pytest.approx(0.5)
    assert measure.scale_factor(0.01, 0.005, 0.005) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        measure.scale_factor(0.01, 0.0, 0.01)


def test_median():
    assert measure.median([3, 1, 2]) == 2
    assert measure.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        measure.median([])


def test_clock_shares_yardstick_samples_and_sums_scaled_time(monkeypatch):
    calls = {"a": 0, "b": 0}

    def yardstick(name):
        def run():
            calls[name] += 1

        return run

    monkeypatch.setitem(measure.YARDSTICKS, "a", (yardstick("a"), 1e-3))
    monkeypatch.setitem(measure.YARDSTICKS, "b", (yardstick("b"), 1e-3))
    clock = measure.Clock(keep_blocks=True)
    results = [clock.time_with("a", sum, [1, 2]), clock.time_with("a", max, [1, 2])]
    assert calls == {"a": 3, "b": 0}  # before + after, then only after
    results.append(clock.time_with("b", min, [1, 2]))
    assert calls == {"a": 3, "b": 2}  # a new yardstick samples before again
    assert [r[0] for r in results] == [3, 2, 1]
    assert clock.raw_total == pytest.approx(sum(r[1] for r in results))
    assert clock.scaled_total == pytest.approx(sum(r[1] * r[2] for r in results))
    assert [b[2] for b in clock.blocks] == [r[2] for r in results]


def test_record_counts_and_rates():
    rec = measure.Record()
    rec.ops(3)
    rec.ops(1, failed=1)
    rec.work(8, raw_s=2.0, scaled_s=4.0)
    rec.gain(0.5, factor=2.0)
    assert (rec.attempted, rec.failed, rec.units) == (4, 1, 8)
    assert rec.rates == [2.0] and rec.raw_rates == [4.0]
    assert rec.gain_s == [1.0] and rec.raw_gain_s == [0.5]


def span(name, start, end, parent=None, qty=1.0):
    return [name, start, end, parent, qty]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 3.0, parent=0),
        span("c", 2.0, 4.0, parent=0),  # overlaps b: covered is [1, 4]
        span("d", 1.5, 2.0, parent=1),
        span("e", 6.0, 7.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([7.0, 1.5, 2.0, 0.5, 1.0])


def test_block_factors_and_layer_metrics():
    blocks = [(0.0, 1.0, 2.0), (2.0, 3.0, 0.5)]
    spans = [
        span("kernel_solver.solve_kernels", 0.1, 0.2),
        span("kernel_solver.solve_kernels", 2.1, 2.5),
        span("plant_sim.simulate", 0.3, 0.7, qty=100),
        span("neural_op.forward", 1.5, 1.6),  # between blocks: unscaled
    ]
    factors = tracing.block_factors(spans, blocks)
    assert factors == [2.0, 0.5, 2.0, 1.0]
    counts = {"coefficients.resample": 30, "numerics.trapezoid_integral": 0}
    m = tracing.layer_metrics(spans, factors, counts, units=10, bytes_per_sample=[8.0, 8.0])
    assert m["kernel_solver.solve_kernels.ms"] == pytest.approx(200.0)  # median of 200 and 200
    assert m["plant_sim.simulate.us_per_step"] == pytest.approx(0.4 * 2.0 / 100 * 1e6)
    assert m["neural_op.forward.ms"] == pytest.approx(100.0)
    assert m["coefficients.resample.calls"] == 3.0
    assert m["numerics.trapezoid_integral.calls"] == 0.0
    assert m["data_store.file_bytes_per_sample"] == 8.0
    assert "kernel_solver.solve_kappa_c.ms" not in m


def test_tracer_counts_calls_made_inside_the_program_and_uninstalls():
    originals = (g.solve_kernels, g.plant_sim.trapezoid_integral, g.KernelField.as_matrix)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ks = g.solve_kernels(g.gamma_family(1.0), g.TriangularGrid(4))
        ks.k1.as_matrix()
        g.plant_sim.trapezoid_integral(np.ones(3), 0.5)
        g.analysis.phi(g.reference_initial_state(g.IntervalGrid(4)))
    finally:
        tracer.uninstall()
    assert [s[0] for s in tracer.spans] == ["kernel_solver.solve_kernels"]
    assert tracer.counts == {
        "coefficients.resample": 1,
        "numerics.trapezoid_integral": 3,
        "kernel_solver.KernelField.as_matrix": 1,
    }
    assert (g.solve_kernels, g.plant_sim.trapezoid_integral, g.KernelField.as_matrix) == originals


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v[0] for k, v in tracing.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_independent_checks_agree_with_the_program():
    # the double trapezoid rule integrates 1 over the triangle exactly
    assert workloads.tri_weights(6).sum() == pytest.approx(0.5)
    assert workloads.tri_weights(6) == pytest.approx(g.numerics.tri_quad_weights(g.TriangularGrid(6)))
    assert workloads.l2(np.ones(11), 0.1) == pytest.approx(1.0)
    config = nn.TrainConfig(m_enc=5, p=4, branch_hidden=(6,), trunk_hidden=(6,))
    model = nn.init_model(config)
    coeffs = g.gamma_family(2.0)
    pts = np.array([[1.0, 0.0], [1.0, 0.5], [0.5, 0.25]])
    assert workloads.model_outputs(model, coeffs, pts) == pytest.approx(
        nn.forward(model, nn.encode_input(coeffs, 5), pts), rel=1e-12, abs=1e-14
    )
