"""Time-domain simulation of the counter-convecting plant and its target system.

First-order explicit upwind in space, forward Euler in time, CFL 0.9.  u
convects rightward (backward difference), v leftward (forward difference);
coupling terms are explicit.  After every step the boundary identities
u(0) = q v(0) and v(1) = U hold exactly.  The target system is the same
scheme with theta = 0 and the c/kappa integral terms as a source in the u
equation.

Both runs are linear with a fixed dt.  ``_step_matrix`` writes a run's step
once, as a dense 2n x 2n matrix S over the free unknowns y = (u[1:], v[:-1]),
with the closure row a of the actuated v(1): the scheme is written entry by
entry on its stencil bands (``_stencil``), and the target system's integral
rows are one dense source block.  ``_trace`` only runs S: a long run raises S to
P = S^BLOCK and fills each block of BLOCK states with one matrix product
from the block before it; a short run steps with S itself, one product per
state.  States go into a buffer of at most CHUNK states; u(0), the actuated
v(1), phi, the snapshots and the blow-up stop are computed from the states
of a chunk at once, and the trajectory itself is never kept: the records
go straight into one (4, n_steps + 1) table, reserved with ``np.empty``
(pages are committed as the run writes them) before the first step.  A
chunk's snapshots, its steps on the stride and the run's last step, are
built by one ``_full`` call on those buffer rows and hold row views of its
result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSet, resample
from .controller import GainVector
from .kernel_solver import KernelSet, target_couplings
from .numerics import IntervalGrid, row_weights, trapezoid_integral, trapezoid_weights  # noqa: F401  (bench/test_bench.py reads it from here)

BLOWUP_THRESHOLD = 1e12
CFL_NUMBER = 0.9
CHUNK = 1024  # states a run holds at a time; bounds memory only
BLOCK = 64  # states filled by one product with S^BLOCK in a long run


@dataclass(eq=False)
class PlantState:
    grid: IntervalGrid
    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        m = self.grid.n + 1
        if self.u.shape != (m,) or self.v.shape != (m,):
            raise ValueError("state arrays must match the grid")


@dataclass(eq=False)
class SimTrace:
    """Per-step history of a simulation run."""

    times: np.ndarray
    phi: np.ndarray
    u_boundary: np.ndarray
    v_boundary: np.ndarray
    control: np.ndarray
    dt: float
    blew_up: bool = False
    snapshots: list[PlantState] = field(default_factory=list)


@dataclass(frozen=True)
class ControllerSpec:
    """Boundary controller: open loop (U == 0) or gain feedback."""

    kind: str
    gains: GainVector | None = None

    def __post_init__(self):
        if self.kind not in ("open", "feedback"):
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if self.kind == "feedback" and self.gains is None:
            raise ValueError("feedback controller needs gains")

    @classmethod
    def open_loop(cls) -> "ControllerSpec":
        return cls("open")

    @classmethod
    def feedback(cls, gains: GainVector) -> "ControllerSpec":
        return cls("feedback", gains)


def cfl_dt(coeffs: CoefficientSet, grid: IntervalGrid) -> float:
    """Largest stable explicit step: 0.9 h / max(sup lam, sup mu)."""
    return CFL_NUMBER * grid.h / float(max(coeffs.lam.max(), coeffs.mu.max()))


def step_count(coeffs: CoefficientSet, grid: IntervalGrid, T: float) -> int:
    """Steps of a run to time T; its step T / step_count is at most cfl_dt."""
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"T must be finite and positive, got T = {T}")
    return max(1, int(np.ceil(T / cfl_dt(coeffs, grid))))


def reference_initial_state(grid: IntervalGrid) -> PlantState:
    """The standard experiment initial data u0 = 1, v0 = sin(x)."""
    return PlantState(grid, np.ones(grid.n + 1), np.sin(grid.points))


def _free(u, v):
    """The free unknowns y = (u[1:], v[:-1]) of states on the last axis."""
    return np.concatenate((u[..., 1:], v[..., :-1]), axis=-1)


def _full(y, q, U):
    """States (u, v) from free unknowns y, with u(0) = q v(0) and v(1) = U."""
    n = y.shape[-1] // 2
    u = np.empty(y.shape[:-1] + (n + 1,))
    v = np.empty_like(u)
    u[..., 1:] = y[..., :n]
    v[..., :-1] = y[..., n:]
    u[..., 0] = q * v[..., 0]
    v[..., -1] = U
    return u, v


def _block_length(n_steps: int, n: int) -> int:
    """States per product of a run: BLOCK if n_steps repay the squarings, else 1.

    The log2(BLOCK) squarings of the 2n x 2n step matrix cost O(n^3), a
    one-step product O(n^2): with one BLAS thread at n = 25 .. 200 a run of
    4n steps is faster one product per state and one of 6n to 8n steps is
    faster in blocks, so a run blocks from 8n steps on.
    """
    return BLOCK if n_steps >= 8 * n else 1


@functools.cache
def _stencil(n: int):
    """The entries of S that a nonzero input can reach: (rows, nodes) of u(1 .. n), then of v(0 .. n-1).

    Row k of S is the step of unit k of y.  u(i) reads u(i), u(i-1) and v(i),
    v(j) reads v(j), v(j+1) and u(j); u(0) = q v(0) is in row n, and the
    actuated v(1) in every row.  An entry listed twice is written twice.
    """
    i, rows = np.arange(1, n + 1), np.arange(2 * n)
    u_row = np.r_[n, :n]  # the row of u(x), x = 0 .. n
    v_row = np.r_[n : 2 * n, 2 * n - 1]  # of v(x); v(n)'s rows are all listed
    ru = np.concatenate((u_row[i], u_row[i - 1], v_row[i], rows))
    rv = np.concatenate((v_row[i - 1], v_row[i], u_row[i - 1], rows))
    nodes = np.concatenate((i, i, i, np.full(2 * n, n)))
    return ru, nodes, rv, nodes - 1


def _step_matrix(coeffs: CoefficientSet, grid: IntervalGrid, T: float, cf, a=None, src=None):
    """The step of a run to time T as a matrix: (S, a, dt, n_steps).

    S is the explicit upwind step on the resampled coefficients ``cf``, dt
    at the CFL bound, over the free unknowns y = (u[1:], v[:-1]):
    y_next = y @ S, and row k of S steps unit k of y with u(0) = q v(0) and
    v(1) = y @ a (``a`` the closure row; None: v(1) is +0.0).  Row k of
    ``src`` (2n x n), if given, is unit k's u-equation source at nodes 1 .. n.

    S is written, not stepped: an entry that no nonzero input reaches
    (``_stencil``) is what the step gives it, 0.0 + dt * src, and every other
    entry is the step's expression on its unit's inputs, in its operation
    order.  So S is bitwise the step applied to the identity, signed zeros
    included (a test holds it to ``_advance`` in ``tests/conftest.py``).
    """
    n_steps = step_count(coeffs, grid, T)
    n, h, q = grid.n, grid.h, coeffs.q
    dt = T / n_steps
    lam, mu = cf["lam"], cf["mu"]
    sig, omg, tht = cf["sigma"], cf["omega"], cf["theta"]
    ak = np.zeros(2 * n) if a is None else a

    def u(k, x):  # u(x) of unit k, u(0) = q v(0)
        return np.where(x == 0, q * (k == n), k == x - 1)

    def v(k, x):  # v(x) of unit k, v(n) = y @ a
        return np.where(x == n, ak[k], k == n + x)

    # off the stencil sigma * 0 + omega * 0 adds a signed zero only; written in place,
    # as np.zeros or temporaries of this size fault per page (0.2 ms at n = 100)
    S = np.full((2 * n, 2 * n), 0.0)
    if src is not None:
        np.multiply(src, dt, out=S[:, :n])
        S[:, :n] += 0.0
    ru, i, rv, j = _stencil(n)
    ui = u(ru, i)
    s = src[ru, i - 1] if src is not None else -0.0
    S[ru, i - 1] = ui - dt * lam[i] * (ui - u(ru, i - 1)) / h + dt * (sig[i] * ui + omg[i] * v(ru, i) + s)
    vj = v(rv, j)
    S[rv, n + j] = vj + dt * mu[j] * (v(rv, j + 1) - vj) / h + dt * tht[j] * u(rv, j)
    return S, a, dt, n_steps


def _trace(init: PlantState, q: float, S, a, dt: float, n_steps: int, snapshot_stride: int) -> SimTrace:
    """Run ``n_steps`` steps y_next = y @ S from ``init`` and record them.

    ``q`` closes u(0) = q v(0), and the closure row ``a`` (None for the
    zero control) gives v(1) = y @ a; both come with S from
    ``_step_matrix``.

    A run of b = ``_block_length`` states per product raises S to
    P = S^b.  States 1 .. b-1 are stepped with S, one product each; after
    that each block of b states is one product with P of the b states
    before it, the last block possibly short.  With b = 1, P is S and every
    state is one product.  States go into a buffer of at most CHUNK states
    that carries the last b across chunks.  Once per chunk the run writes
    phi, u(0) = q v(0), v(0) and the control v(1) into the chunk's columns
    of the record table and takes the snapshots; it stops with ``blew_up``
    set at the first step whose phi exceeds 1e12 or is non-finite.  Only the
    records and the snapshots outlive a chunk.  The trace's records are the
    rows of that table; a blown-up run's are rows of a copy of the columns
    it wrote, so that the trace does not pin the rest.  A table that cannot
    be reserved refuses the run, before its first step, with a ValueError
    that names the step count and the bytes.

    Snapshots are taken at step 0, at every step that is a multiple of
    ``snapshot_stride`` and at the last step (none if the stride is not
    positive).  The run lists those steps once; a chunk takes the rows of
    its own from the buffer with one index array and completes them to
    (u, v) with one ``_full`` call; each ``PlantState`` holds a row of that
    call's arrays and the time ``init.t + m * dt`` of its step m.
    """
    grid = init.grid
    n, h = grid.n, grid.h

    w = trapezoid_weights(n + 1, h)
    wy = np.concatenate((w[1:], w[:-1]))

    def records(Y, out):
        """Write phi, u(0), v(0) and v(1) of the states in the rows of Y into the columns of ``out``."""
        v0 = Y[:, n]
        u0 = q * v0
        U = Y @ a if a is not None else np.zeros(len(Y))
        out[0] = np.einsum("ij,ij,j->i", Y, Y, wy) + w[0] * u0 * u0 + w[-1] * U * U
        out[1:] = u0, v0, U

    def snapshots_at(Y, U, steps):
        """Snapshots of the states in the rows of Y at the given steps, from one ``_full`` call."""
        us, vs = _full(Y, q, U)
        return [PlantState(grid, u, v, init.t + m * dt) for u, v, m in zip(us, vs, steps.tolist())]

    try:
        table = np.empty((4, n_steps + 1))
    except (MemoryError, ValueError):  # ValueError: more elements than an array can index
        raise ValueError(f"a run of {n_steps:.6g} steps needs {32 * (n_steps + 1):.3g} bytes for its records, more than can be reserved") from None
    # rows 0 .. block - 1 hold the last block states, up to state done in row
    # block - 1 (only state 0 before the first chunk); new state done + i
    # goes to row block - 1 + i
    block = _block_length(n_steps, n)
    rows = min(CHUNK, n_steps)
    buf = np.empty((block + rows, 2 * n))
    buf[block - 1] = _free(init.u, init.v)
    records(buf[block - 1 : block], table[:, :1])
    # a stride past the run snapshots what n_steps does: step 0 and the last
    stride = min(snapshot_stride, n_steps)
    shots = np.append(np.arange(0, n_steps, stride), n_steps) if stride > 0 else np.zeros(0, int)
    snapshots = snapshots_at(buf[block - 1 : block], table[3, :1], shots[:1])
    done = 0
    blew_up = False
    # past a blow-up the rest of its chunk may overflow; its columns are cut.
    # P overflows only if states can grow by 1e308 in BLOCK steps: such a run
    # blows up in its first BLOCK - 1 states or at its first non-finite block.
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.linalg.matrix_power(S, block)
        while done < n_steps and not blew_up:
            # states 1 .. block - 1 form a chunk of their own, stepped with S
            lag, M = (1, S) if done < block - 1 else (block, P)
            m = min(rows if lag == block else block - 1, n_steps - done)
            for i in range(0, m, lag):
                j, b = block + i, min(lag, m - i)
                np.dot(buf[j - lag : j - lag + b], M, out=buf[j : j + b])
            rec = table[:, done + 1 : done + 1 + m]
            records(buf[block : block + m], rec)
            bad = np.flatnonzero(~np.isfinite(rec[0]) | (rec[0] > BLOWUP_THRESHOLD))
            if bad.size:
                blew_up = True
                m = int(bad[0]) + 1
            # the chunk's snapshot steps done + i, 0 < i <= m, are rows block - 1 + i
            i = shots[np.searchsorted(shots, done, "right") : np.searchsorted(shots, done + m, "right")] - done
            snapshots += snapshots_at(buf[block - 1 + i], rec[3, i - 1], done + i)
            done += m
            buf[:block] = buf[m : m + block]

    if blew_up:
        table = table[:, : done + 1].copy()
    phi, u0, v0, control = table
    times = np.arange(done + 1.0)  # init.t + m * dt, without temporaries
    times *= dt
    times += init.t
    return SimTrace(
        times=times,
        phi=phi,
        u_boundary=u0,
        v_boundary=v0,
        control=control,
        dt=dt,
        blew_up=blew_up,
        snapshots=snapshots,
    )


def simulate(
    coeffs: CoefficientSet,
    init: PlantState,
    controller: ControllerSpec,
    T: float,
    snapshot_stride: int = 0,
) -> SimTrace:
    """Run the closed (or open) loop to time T with dt at the CFL bound.

    For gain feedback the actuated value v(1) is solved from the scalar
    implicit equation v(1) = quadrature(g1*u) + quadrature(g2*v), so the
    recorded control and v(1) agree at every recorded time, including t = 0;
    the transformed state then vanishes at x = 1 identically.  The upwind
    step and this closure are assembled once into the step matrix that the
    run iterates (see ``_step_matrix``).  The run stops early with
    ``blew_up`` set once phi exceeds 1e12 or turns non-finite.
    """
    grid = init.grid
    n, h = grid.n, grid.h
    q, a = coeffs.q, None
    if controller.kind == "feedback":
        w = trapezoid_weights(n + 1, h)
        gains = controller.gains.resample(grid)
        g1, g2 = gains.g1, gains.g2
        closure = 1.0 - w[-1] * g2[-1]
        if abs(closure) < 1e-12:
            raise ZeroDivisionError("feedback closure is singular on this grid")
        # quadrature(g1 u) + quadrature(g2 v) of each unit of y, u(0) = q v(0) with v(0)'s;
        # + 0.0 makes a zero entry +0.0, as those sums of products give it
        a = (np.concatenate(((g1 * w)[1:], [g1[0] * q * w[0] + g2[0] * w[0]], (g2 * w)[1:n])) + 0.0) / closure

    return _trace(init, q, *_step_matrix(coeffs, grid, T, resample(coeffs, n), a), snapshot_stride)


def simulate_target(
    coeffs: CoefficientSet,
    kernels: KernelSet,
    init: PlantState,
    T: float,
    snapshot_stride: int = 0,
) -> SimTrace:
    """Simulate the nominal transformed system (u, beta) for cross-checks.

    This is the plant scheme with theta = 0, so beta is a pure leftward
    transport with zero inflow, and with the integral couplings through c
    and kappa under the row-wise trapezoid rule as a source in the u
    equation.  The step, integral rows included, is assembled once into the
    dense step matrix that the run iterates (see ``_step_matrix``).
    ``init.v`` is taken as the initial beta, and the recorded control is the
    zero inflow beta(1).
    """
    grid = init.grid
    n, h = grid.n, grid.h
    if kernels.grid.n != n:
        raise ValueError("kernel grid must match the simulation grid")
    cf = resample(coeffs, n)
    cf["theta"] = np.zeros(n + 1)

    # the integral rows u @ c_wt + beta @ kap_wt under the row-wise trapezoid
    # rule, of each unit of y (u(0) = q beta(0) with beta(0)'s)
    wtri = row_weights(n, h)
    c_wt, kap_wt = ((f * wtri).T for f in target_couplings(cf["omega"], kernels))
    src = np.concatenate((c_wt[1:], [coeffs.q * c_wt[0] + kap_wt[0]], kap_wt[1:n]))[:, 1:]
    step = _step_matrix(coeffs, grid, T, cf, src=src)
    del wtri, c_wt, kap_wt, src  # the run needs S only
    return _trace(init, coeffs.q, *step, snapshot_stride)

