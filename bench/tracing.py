"""Traced mode: spans and call counts at the public functions of each layer.

Nothing here reaches inside ``src/``.  ``Tracer.install`` rebinds each traced
function in every gainops namespace that holds it (for example both
``kernel_solver.solve_kernels`` and ``data_store.solve_kernels``), so callers
inside the program go through the wrapper too.  A span records name, start,
end, parent span and a quantity (steps for the simulators, epochs for
training, 1 otherwise).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import bisect
import os
import sys
import time

import gainops  # noqa: F401  (the layer modules must be loaded before install)

from measure import median

# traced function -> the quantity one call is divided by
SPANNED = {
    "coefficients.sample_random": None,
    "kernel_solver.solve_kernels": None,
    "kernel_solver.solve_kappa_c": None,
    "kernel_solver.solve_inverse_kernels": None,
    "data_store.generate": None,
    "data_store.write": None,
    "data_store.read": None,
    "controller.forward_transform": None,
    "controller.inverse_transform": None,
    "analysis.residual_operators": None,
    "analysis.lyapunov_v1": None,
    "analysis.fit_decay": None,
    "plant_sim.simulate": lambda args, kwargs, result: len(result.times) - 1,
    "plant_sim.simulate_target": lambda args, kwargs, result: len(result.times) - 1,
    "neural_op.train": lambda args, kwargs, result: args[1].epochs,
    "neural_op.evaluate": None,
    "neural_op.encode_input": None,
    "neural_op.forward": None,
    "neural_op.infer_gains": None,
}
COUNTED = (
    "coefficients.resample",
    "numerics.trapezoid_integral",
    "kernel_solver.KernelField.as_matrix",
)

# per-layer metric -> (unit, traced function or count, scale to the unit)
PER_LAYER = {
    "kernel_solver.solve_kernels.ms": ("ms/call", "kernel_solver.solve_kernels", 1e3),
    "coefficients.sample_random.ms": ("ms/call", "coefficients.sample_random", 1e3),
    "coefficients.resample.calls": ("calls/unit", "coefficients.resample", None),
    "data_store.write.ms": ("ms/chunk", "data_store.write", 1e3),
    "data_store.read.ms": ("ms/chunk", "data_store.read", 1e3),
    "data_store.file_bytes_per_sample": ("B", None, None),
    "kernel_solver.solve_kappa_c.ms": ("ms/call", "kernel_solver.solve_kappa_c", 1e3),
    "kernel_solver.solve_inverse_kernels.ms": ("ms/call", "kernel_solver.solve_inverse_kernels", 1e3),
    "kernel_solver.as_matrix.calls": ("calls/unit", "kernel_solver.KernelField.as_matrix", None),
    "controller.forward_transform.ms": ("ms/call", "controller.forward_transform", 1e3),
    "controller.inverse_transform.ms": ("ms/call", "controller.inverse_transform", 1e3),
    "analysis.residual_operators.ms": ("ms/call", "analysis.residual_operators", 1e3),
    "analysis.lyapunov_v1.ms": ("ms/call", "analysis.lyapunov_v1", 1e3),
    "plant_sim.simulate_target.us_per_step": ("us", "plant_sim.simulate_target", 1e6),
    "plant_sim.simulate.us_per_step": ("us", "plant_sim.simulate", 1e6),
    "numerics.trapezoid_integral.calls": ("calls/unit", "numerics.trapezoid_integral", None),
    "analysis.fit_decay.ms": ("ms/call", "analysis.fit_decay", 1e3),
    "neural_op.train.ms_per_epoch": ("ms", "neural_op.train", 1e3),
    "neural_op.evaluate.ms": ("ms/call", "neural_op.evaluate", 1e3),
    "neural_op.encode_input.ms": ("ms/call", "neural_op.encode_input", 1e3),
    "neural_op.forward.ms": ("ms/call", "neural_op.forward", 1e3),
    "neural_op.infer_gains.ms": ("ms/call", "neural_op.infer_gains", 1e3),
    "trace.overhead_s": ("s", None, None),
}

NAME, START, END, PARENT, QTY = range(5)


def _resolve(target: str):
    """(owner object, attribute) of a dotted target below the gainops package."""
    *path, attr = target.split(".")
    owner = sys.modules["gainops." + path[0]]
    for part in path[1:]:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTED, 0)
        self.bytes_per_sample: list[float] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _spanned(self, name, fn, per):
        spans, stack = self.spans, self._stack
        tracer = self

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, 1.0])
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid][START] = t0
                spans[sid][END] = t1
            if per is not None:
                spans[sid][QTY] = float(per(args, kwargs, result))
            if name == "data_store.write":
                tracer.bytes_per_sample.append(os.path.getsize(args[1]) / len(args[0].samples))
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        wrappers = {}
        for name, per in SPANNED.items():
            owner, attr = _resolve(name)
            wrappers[id(getattr(owner, attr))] = self._spanned(name, getattr(owner, attr), per)
        for name in COUNTED:
            owner, attr = _resolve(name)
            original = getattr(owner, attr)
            if isinstance(owner, type):  # a method: rebind it on its class only
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self._counted(name, original))
            else:
                wrappers[id(original)] = self._counted(name, original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gainops" and not mod_name.startswith("gainops."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def block_factors(spans, blocks) -> list[float]:
    """Scale factor of the timed block each span started in (1.0 if none)."""
    starts = [b[0] for b in blocks]
    out = []
    for s in spans:
        k = bisect.bisect_right(starts, s[START]) - 1
        inside = k >= 0 and s[START] <= blocks[k][1]
        out.append(blocks[k][2] if inside else 1.0)
    return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for sid, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, reach), min(b, s[END])
            if b > a:
                covered += b - a
                reach = b
        out.append((s[END] - s[START]) - covered)
    return out


def layer_metrics(spans, factors, counts, units, bytes_per_sample) -> dict[str, float]:
    """Per-layer metrics that have samples; the others are left out.

    Times are medians over calls of the yardstick-scaled span duration divided
    by the span's quantity; counts are calls per work unit of the workload.
    """
    per_call: dict[str, list[float]] = {}
    for s, f in zip(spans, factors):
        per_call.setdefault(s[NAME], []).append((s[END] - s[START]) * f / s[QTY])
    out = {}
    for metric, (_, source, scale) in PER_LAYER.items():
        if source in counts:
            out[metric] = counts[source] / units
        elif source in per_call:
            out[metric] = median(per_call[source]) * scale
    if bytes_per_sample:
        out["data_store.file_bytes_per_sample"] = median(bytes_per_sample)
    return out


def layer_summary(spans, factors) -> dict[str, dict[str, float]]:
    """Calls, inclusive and self seconds (yardstick-scaled) per traced function."""
    summary: dict[str, dict[str, float]] = {}
    for s, f, own in zip(spans, factors, self_times(spans)):
        row = summary.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (s[END] - s[START]) * f
        row["self_s"] += own * f
    return summary
