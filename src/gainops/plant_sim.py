"""Time-domain simulation of the counter-convecting plant and its target system.

First-order explicit upwind in space, forward Euler in time, CFL 0.9.  u
convects rightward (backward difference), v leftward (forward difference);
coupling terms are explicit.  After every step the boundary identities
u(0) = q v(0) and v(1) = U hold exactly.

Both schemes are linear with a fixed dt.  A run therefore assembles its step
once, as a dense 2n x 2n matrix over the free unknowns y = (u[1:], v[:-1])
(the update applied to the identity), and iterates it with one
matrix-vector product per step, in chunks of at most CHUNK states.  u(0),
the actuated v(1), phi, the snapshots and the blow-up stop are computed from
the states of a chunk at once; the trajectory itself is never kept.
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


def _trace(coeffs: CoefficientSet, init: PlantState, T: float, snapshot_stride: int, advance, actuate) -> SimTrace:
    """Trace loop shared by both simulators, with dt at the CFL bound.

    ``advance(u, v, dt)`` returns the next states and ``actuate(u, v)`` the
    actuated value v(1), 0 when ``actuate`` is None; both act on the last
    axis and are linear.  They are applied once, to the identity: that
    assembles the step as a dense 2n x 2n matrix S over the free unknowns
    y = (u[1:], v[:-1]), y_next = y @ S, and the closure row a, v(1) = y @ a
    (v(1) is +0.0 without an actuator).  The run iterates S with one
    matrix-vector product per step, into a buffer of at most CHUNK states.
    Once per chunk it records phi, u(0) = q v(0), v(0) and the control v(1)
    and takes the snapshots; it stops with ``blew_up`` set at the first step
    whose phi exceeds 1e12 or is non-finite.  Only those four records and the
    snapshots outlive a chunk.
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

    rows = min(CHUNK, n_steps)
    buf = np.empty((rows + 1, 2 * n))
    buf[0] = _free(init.u, init.v)
    views = list(buf)  # row views, made once for the step loop
    chunks = [records(buf[:1])]
    snapshots = [snapshot(buf[0], chunks[0][3, 0], 0)] if snapshot_stride > 0 else []
    done = 0
    blew_up = False
    # past a blow-up the rest of its chunk may overflow; it is not recorded
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n_steps and not blew_up:
            m = min(rows, n_steps - done)
            for i in range(m):
                np.dot(views[i], S, out=views[i + 1])
            rec = records(buf[1 : m + 1])
            bad = np.flatnonzero(~np.isfinite(rec[0]) | (rec[0] > BLOWUP_THRESHOLD))
            if bad.size:
                blew_up = True
                m = int(bad[0]) + 1
                rec = rec[:, :m]
            chunks.append(rec)
            if snapshot_stride > 0:
                for i in range(1, m + 1):
                    if (done + i) % snapshot_stride == 0 or done + i == n_steps:
                        snapshots.append(snapshot(buf[i], rec[3, i - 1], done + i))
            done += m
            buf[0] = buf[m]

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
