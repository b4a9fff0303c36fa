"""Time-domain simulation of the counter-convecting plant and its target system.

First-order explicit upwind in space, forward Euler in time, CFL 0.9.  u
convects rightward (backward difference), v leftward (forward difference);
coupling terms are explicit.  After every step the boundary identities
u(0) = q v(0) and v(1) = U hold exactly.

Both schemes are linear with a fixed dt.  A run therefore assembles its step
once, as a dense 2n x 2n matrix S over the free unknowns y = (u[1:], v[:-1])
(the update applied to the identity).  A long run also squares S up to
P = S^BLOCK and fills each block of BLOCK states with one matrix product
from the block before it; a short run steps with S itself, one product per
state.  States go into a buffer of at most CHUNK states; u(0), the actuated
v(1), phi, the snapshots and the blow-up stop are computed from the states
of a chunk at once, and the trajectory itself is never kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .coefficients import CoefficientSet, resample, sup_bounds
from .controller import GainVector
from .numerics import IntervalGrid, row_weights, trapezoid_integral, trapezoid_weights  # noqa: F401  (callers read it from here)

BLOWUP_THRESHOLD = 1e12
CFL_NUMBER = 0.9
CHUNK = 1024  # states a run holds at a time; bounds memory only
BLOCK = 64  # states filled by one product with S^BLOCK in a long run; a power of two
ASSEMBLY_ROWS = 32  # rows of the step matrix assembled at a time; bounds memory only


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

    def copy(self) -> "PlantState":
        return PlantState(self.grid, self.u.copy(), self.v.copy(), self.t)


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
    b = sup_bounds(coeffs)
    return CFL_NUMBER * grid.h / max(b.lam_max, b.mu_max)


def reference_initial_state(grid: IntervalGrid) -> PlantState:
    """The standard experiment initial data u0 = 1, v0 = sin(x)."""
    return PlantState(grid, np.ones(grid.n + 1), np.sin(grid.points))


def _advance(u, v, dt, cf, q, h):
    """One explicit upwind step without the actuated boundary value.

    Acts on the last axis, so a stack of states advances in one call.
    """
    lam, mu = cf["lam"], cf["mu"]
    sig, omg, tht = cf["sigma"], cf["omega"], cf["theta"]
    un = u.copy()
    vn = v.copy()
    un[..., 1:] = (
        u[..., 1:]
        - dt * lam[1:] * (u[..., 1:] - u[..., :-1]) / h
        + dt * (sig[1:] * u[..., 1:] + omg[1:] * v[..., 1:])
    )
    vn[..., :-1] = v[..., :-1] + dt * mu[:-1] * (v[..., 1:] - v[..., :-1]) / h + dt * tht[:-1] * u[..., :-1]
    un[..., 0] = q * vn[..., 0]
    return un, vn


def step(state: PlantState, coeffs: CoefficientSet, U: float, dt: float) -> PlantState:
    """Single explicit step with prescribed boundary input v(1) = U."""
    grid = state.grid
    if dt > cfl_dt(coeffs, grid) * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} violates the CFL bound {cfl_dt(coeffs, grid)}")
    cf = resample(coeffs, grid.n)
    un, vn = _advance(state.u, state.v, dt, cf, coeffs.q, grid.h)
    vn[-1] = U
    return PlantState(grid, un, vn, state.t + dt)


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


def _trace(coeffs: CoefficientSet, init: PlantState, T: float, snapshot_stride: int, advance, actuate) -> SimTrace:
    """Trace loop shared by both simulators, with dt at the CFL bound.

    ``advance(u, v, dt)`` returns the next states and ``actuate(u, v)`` the
    actuated value v(1), 0 when ``actuate`` is None; both act on the last
    axis and are linear.  They are applied once, to the identity: that
    assembles the step as a dense 2n x 2n matrix S over the free unknowns
    y = (u[1:], v[:-1]), y_next = y @ S, and the closure row a, v(1) = y @ a
    (v(1) is +0.0 without an actuator).

    A run of b = ``_block_length`` states per product squares S up to
    P = S^b.  States 1 .. b-1 are stepped with S, one product each; after
    that each block of b states is one product with P of the b states
    before it, the last block possibly short.  With b = 1, P is S and every
    state is one product.  States go into a buffer of at most CHUNK states
    that carries the last b across chunks.  Once per chunk the run records
    phi, u(0) = q v(0), v(0) and the control v(1) and takes the snapshots; it
    stops with ``blew_up`` set at the first step whose phi exceeds 1e12 or
    is non-finite.  Only those four records and the snapshots outlive a
    chunk.
    """
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"T must be finite and positive, got T = {T}")
    grid = init.grid
    n, h, q = grid.n, grid.h, coeffs.q
    n_steps = max(1, int(np.ceil(T / cfl_dt(coeffs, grid))))
    dt = T / n_steps

    # row k of S (of a) is the next state (the control) of unknown k alone,
    # assembled ASSEMBLY_ROWS rows at a time to keep the temporaries small
    S = np.empty((2 * n, 2 * n))
    a = np.empty(2 * n) if actuate else None
    for k in range(0, 2 * n, ASSEMBLY_ROWS):
        u, v = _full(np.eye(min(ASSEMBLY_ROWS, 2 * n - k), 2 * n, k), q, 0.0)
        if actuate:
            a[k : k + len(u)] = v[:, -1] = actuate(u, v)
        S[k : k + len(u)] = _free(*advance(u, v, dt))

    w = trapezoid_weights(n + 1, h)
    wy = np.concatenate((w[1:], w[:-1]))

    def records(Y):
        """phi, u(0), v(0) and v(1) of the states in the rows of Y."""
        v0 = Y[:, n].copy()
        u0 = q * v0
        U = Y @ a if actuate else np.zeros(len(Y))
        return np.stack((np.einsum("ij,ij,j->i", Y, Y, wy) + w[0] * u0 * u0 + w[-1] * U * U, u0, v0, U))

    def snapshot(y, U, m):
        return PlantState(grid, *_full(y, q, U), init.t + m * dt)

    # rows 0 .. block - 1 hold the last block states, up to state done in row
    # block - 1 (only state 0 before the first chunk); new state done + i
    # goes to row block - 1 + i
    block = _block_length(n_steps, n)
    rows = min(CHUNK, n_steps)
    buf = np.empty((block + rows, 2 * n))
    buf[block - 1] = _free(init.u, init.v)
    chunks = [records(buf[block - 1 : block])]
    snapshots = [snapshot(buf[block - 1], chunks[0][3, 0], 0)] if snapshot_stride > 0 else []
    done = 0
    blew_up = False
    # past a blow-up the rest of its chunk may overflow; it is not recorded.
    # P overflows only if states can grow by 1e308 in BLOCK steps: such a run
    # blows up in its first BLOCK - 1 states or at its first non-finite block.
    with np.errstate(over="ignore", invalid="ignore"):
        P = S
        for _ in range(block.bit_length() - 1):
            P = P @ P
        while done < n_steps and not blew_up:
            # states 1 .. block - 1 form a chunk of their own, stepped with S
            lag, M = (1, S) if done < block - 1 else (block, P)
            m = min(rows if lag == block else block - 1, n_steps - done)
            for i in range(0, m, lag):
                j, b = block + i, min(lag, m - i)
                np.dot(buf[j - lag : j - lag + b], M, out=buf[j : j + b])
            rec = records(buf[block : block + m])
            bad = np.flatnonzero(~np.isfinite(rec[0]) | (rec[0] > BLOWUP_THRESHOLD))
            if bad.size:
                blew_up = True
                m = int(bad[0]) + 1
                rec = rec[:, :m]
            chunks.append(rec)
            if snapshot_stride > 0:
                for i in range(1, m + 1):
                    if (done + i) % snapshot_stride == 0 or done + i == n_steps:
                        snapshots.append(snapshot(buf[block - 1 + i], rec[3, i - 1], done + i))
            done += m
            buf[:block] = buf[m : m + block]

    phi, u0, v0, control = np.concatenate(chunks, axis=1)
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
    run iterates (see ``_trace``).  The run stops early with ``blew_up`` set
    once phi exceeds 1e12 or turns non-finite.
    """
    grid = init.grid
    n, h = grid.n, grid.h
    actuate = None
    if controller.kind == "feedback":
        w = trapezoid_weights(n + 1, h)
        gains = controller.gains.resample(grid)
        g1, g2 = gains.g1, gains.g2
        closure = 1.0 - w[-1] * g2[-1]
        if abs(closure) < 1e-12:
            raise ZeroDivisionError("feedback closure is singular on this grid")

        def actuate(u, v):
            return ((g1 * u) @ w + (g2[:-1] * v[..., :-1]) @ w[:-1]) / closure

    advance = partial(_advance, cf=resample(coeffs, n), q=coeffs.q, h=h)
    return _trace(coeffs, init, T, snapshot_stride, advance, actuate)


def simulate_target(
    coeffs: CoefficientSet,
    kernels,
    init: PlantState,
    T: float,
    snapshot_stride: int = 0,
) -> SimTrace:
    """Simulate the nominal transformed system (u, beta) for cross-checks.

    beta is a pure leftward transport with zero inflow; the u equation keeps
    its local terms plus the integral couplings through c and kappa under the
    row-wise trapezoid rule.  The step, integral rows included, is assembled
    once into the dense step matrix that the run iterates (see ``_trace``).
    ``init.v`` is taken as the initial beta, and the recorded control is the
    zero inflow beta(1).
    """
    if kernels.kappa is None or kernels.c is None:
        raise ValueError("target simulation needs kappa and c; run solve_kappa_c")
    grid = init.grid
    n, h = grid.n, grid.h
    if kernels.grid.n != n:
        raise ValueError("kernel grid must match the simulation grid")
    cf = resample(coeffs, n)
    lam, mu = cf["lam"], cf["mu"]
    sig, omg = cf["sigma"], cf["omega"]

    # fold the row-wise trapezoid weights into the kernel matrices once
    wtri = row_weights(n, h)
    c_wt = (kernels.c.as_matrix() * wtri).T
    kap_wt = (kernels.kappa.as_matrix() * wtri).T

    def advance(u, beta, dt):
        # u(0) is left to _trace, which imposes u(0) = q beta(0)
        integral = u @ c_wt + beta @ kap_wt
        un = u.copy()
        un[..., 1:] = (
            u[..., 1:]
            - dt * lam[1:] * (u[..., 1:] - u[..., :-1]) / h
            + dt * (sig[1:] * u[..., 1:] + omg[1:] * beta[..., 1:] + integral[..., 1:])
        )
        bn = beta.copy()
        bn[..., :-1] = beta[..., :-1] + dt * mu[:-1] * (beta[..., 1:] - beta[..., :-1]) / h
        return un, bn

    return _trace(coeffs, init, T, snapshot_stride, advance, None)


def trace_to_csv(trace: SimTrace, path) -> None:
    """Write the per-step history as CSV: t,phi,u0,v0,U with 17 digits."""
    with open(path, "w") as f:
        f.write("t,phi,u0,v0,U\n")
        for row in zip(trace.times, trace.phi, trace.u_boundary, trace.v_boundary, trace.control):
            f.write(",".join(f"{x:.17g}" for x in row) + "\n")
