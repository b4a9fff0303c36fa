"""Yardstick-scaled timing and the per-run record of operations and samples.

The host this benchmark was built on is shared: its speed swings by up to 2x
over a few seconds, so raw wall-clock rates do not repeat from run to run.
Every timed block of work is therefore bracketed by a short, fixed yardstick
computation, and the block's time is rescaled to the yardstick's reference
speed:

    scaled = raw * ref_s / mean(yardstick before, yardstick after)

The yardsticks are frozen here and share no code with gainops, so a change to
the program cannot move them.  Each kind of work is scaled by the one that
tracked it best in the steadiness runs (bench/README.md):

* ``small_ops``, a loop of numpy operations on 101-element arrays: kernel
  solves, Volterra solves, simulation, dataset I/O;
* ``mlp_ops``, a few branch/trunk MLP training steps: training and learned
  gain updates;
* ``python_ops``, a pure-Python loop: the imports at start-up, which it
  brackets before numpy is loaded.
"""

from __future__ import annotations

import functools
import time


def python_ops() -> int:
    """Fixed pure-Python integer loop (about 4 ms here); runs before numpy loads."""
    s = 0
    for i in range(40000):
        s = (s * 31 + i) & 0xFFFF
    return s


@functools.cache
def _operands():
    import numpy as np

    rng = np.random.default_rng(0)
    x = np.linspace(0.0, 1.0, 101)
    return {
        "np": np,
        "x": x,
        "c": np.cos(3.0 * x),
        "inputs": rng.standard_normal((64, 106)),
        "points": rng.standard_normal((200, 2)),
        "w1": rng.standard_normal((106, 128)) * 0.1,
        "w2": rng.standard_normal((128, 128)) * 0.1,
        "t1": rng.standard_normal((2, 128)) * 0.5,
        "t2": rng.standard_normal((128, 128)) * 0.1,
    }


def small_ops() -> float:
    """Fixed loop of small-array numpy operations (about 7 ms here)."""
    o = _operands()
    x, c = o["x"], o["c"]
    u = x.copy()
    acc = 0.0
    for _ in range(600):
        un = u.copy()
        un[1:] = u[1:] - 0.01 * x[1:] * (u[1:] - u[:-1]) + 0.01 * c[1:] * u[1:]
        u = un
        acc += float(0.01 * (0.5 * u[0] + u[1:-1].sum() + 0.5 * u[-1]))
    return acc


def mlp_ops() -> float:
    """Four fixed branch/trunk MLP steps: forward, backward, moment updates (about 6 ms here)."""
    o = _operands()
    np, inputs, points = o["np"], o["inputs"], o["points"]
    w1, w2 = o["w1"].copy(), o["w2"].copy()
    moments = [(np.zeros_like(w), np.zeros_like(w)) for w in (w1, w2)]
    for _ in range(4):
        a1 = np.tanh(inputs @ w1)
        branch = a1 @ w2
        trunk = np.tanh(np.tanh(points @ o["t1"]) @ o["t2"])
        pred = branch @ trunk.T
        d = (pred - 0.1) * (2.0 / pred.size)
        d_branch = d @ trunk
        g2 = a1.T @ d_branch
        g1 = inputs.T @ ((d_branch @ w2.T) * (1 - a1 * a1))
        for w, grad, (m, v) in zip((w1, w2), (g1, g2), moments):
            m *= 0.9
            m += 0.1 * grad
            v *= 0.99
            v += 0.01 * grad * grad
            w -= 1e-3 * m / (np.sqrt(v) + 1e-8)
    return float(w1[0, 0])


# Reference time of each yardstick: its median over 300 samples on the
# 2-core host (Intel Xeon, 2.1 GHz, one BLAS thread) the benchmark was tuned
# on.  Scaled times read as seconds at that speed.
YARDSTICKS = {
    "python_ops": (python_ops, 0.0040),
    "small_ops": (small_ops, 0.0070),
    "mlp_ops": (mlp_ops, 0.0055),
}


def scale_factor(ref_s: float, before_s: float, after_s: float) -> float:
    """Factor turning a raw time into one at the yardstick's reference speed."""
    if min(ref_s, before_s, after_s) <= 0:
        raise ValueError("yardstick times must be positive")
    return ref_s / (0.5 * (before_s + after_s))


def sample(yardstick) -> float:
    """Seconds one run of a yardstick takes."""
    t0 = time.perf_counter()
    yardstick()
    return time.perf_counter() - t0


def median(values) -> float:
    v = sorted(values)
    if not v:
        raise ValueError("median of no values")
    mid = len(v) // 2
    return float(v[mid]) if len(v) % 2 else 0.5 * (v[mid - 1] + v[mid])


class Clock:
    """Times blocks of work, each scaled by a yardstick sampled on both sides.

    A block's "before" sample is the previous block's "after" sample when
    both used the same yardstick, so a run of such blocks costs one
    yardstick run per block.  With ``keep_blocks`` the (start, end, factor)
    of each block is kept so that spans recorded inside it can be scaled
    alike.  ``raw_total`` and ``scaled_total`` sum over all blocks.
    """

    def __init__(self, keep_blocks: bool = False):
        self.blocks: list[tuple[float, float, float]] | None = [] if keep_blocks else None
        self.raw_total = 0.0
        self.scaled_total = 0.0
        self._last: tuple[str, float] | None = None

    def time(self, fn, *args, **kwargs):
        """Run fn as a block scaled by ``small_ops``; see ``time_with``."""
        return self.time_with("small_ops", fn, *args, **kwargs)

    def time_with(self, yardstick: str, fn, *args, **kwargs):
        """Run fn; return (result, raw seconds, scale factor)."""
        run, ref_s = YARDSTICKS[yardstick]
        if self._last is not None and self._last[0] == yardstick:
            before = self._last[1]
        else:
            before = sample(run)
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        after = sample(run)
        factor = scale_factor(ref_s, before, after)
        self._last = (yardstick, after)
        self.raw_total += t1 - t0
        self.scaled_total += (t1 - t0) * factor
        if self.blocks is not None:
            self.blocks.append((t0, t1, factor))
        return result, t1 - t0, factor


class CheckFailed(Exception):
    """A program output failed a correctness check; the run reports no numbers."""


def check(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Record:
    """Operations attempted and failed, plus the timing samples of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rates: list[float] = []
        self.raw_rates: list[float] = []
        self.units = 0
        self.gain_s: list[float] = []
        self.raw_gain_s: list[float] = []
        self.notes: dict = {}

    def ops(self, n: int = 1, failed: int = 0) -> None:
        self.attempted += n
        self.failed += failed

    def work(self, units: int, raw_s: float, scaled_s: float) -> None:
        """One block of work: its rate enters the work_per_s median."""
        self.units += units
        self.rates.append(units / scaled_s)
        self.raw_rates.append(units / raw_s)

    def gain(self, raw_s: float, factor: float) -> None:
        self.gain_s.append(raw_s * factor)
        self.raw_gain_s.append(raw_s)
