"""Time-domain simulation of the counter-convecting plant and its target system.

First-order explicit upwind in space, forward Euler in time, CFL 0.9.  u
convects rightward (backward difference), v leftward (forward difference);
coupling terms are explicit.  After every step the boundary identities
u(0) = q v(0) and v(1) = U hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .coefficients import CoefficientSet, resample, sup_bounds
from .controller import GainVector
from .numerics import IntervalGrid, row_weights, trapezoid_integral, trapezoid_weights

BLOWUP_THRESHOLD = 1e12
CFL_NUMBER = 0.9


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
    """One explicit upwind step without the actuated boundary value."""
    lam, mu = cf["lam"], cf["mu"]
    sig, omg, tht = cf["sigma"], cf["omega"], cf["theta"]
    un = u.copy()
    vn = v.copy()
    un[1:] = u[1:] - dt * lam[1:] * (u[1:] - u[:-1]) / h + dt * (sig[1:] * u[1:] + omg[1:] * v[1:])
    vn[:-1] = v[:-1] + dt * mu[:-1] * (v[1:] - v[:-1]) / h + dt * tht[:-1] * u[:-1]
    un[0] = q * vn[0]
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


def _phi_of(u, v, h):
    return trapezoid_integral(u * u, h) + trapezoid_integral(v * v, h)


def _trace(coeffs: CoefficientSet, init: PlantState, T: float, snapshot_stride: int, advance, actuate) -> SimTrace:
    """Trace loop shared by both simulators, with dt at the CFL bound.

    ``advance(u, v, dt)`` returns the next state with u(0) = q v(0) already
    set; ``actuate(u, v)`` gives the actuated value v(1), which is 0 when
    ``actuate`` is None and is recorded as the control.  The run stops early
    with ``blew_up`` set once phi exceeds 1e12 or turns non-finite.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    grid = init.grid
    h = grid.h
    n_steps = max(1, int(np.ceil(T / cfl_dt(coeffs, grid))))
    dt = T / n_steps

    u = init.u.copy()
    v = init.v.copy()
    # make the initial data consistent with the boundary identities
    u[0] = coeffs.q * v[0]
    v[-1] = actuate(u, v) if actuate else 0.0

    times = [init.t]
    phi = [_phi_of(u, v, h)]
    u0s, v0s = [u[0]], [v[0]]
    controls = [v[-1]]
    snapshots = []
    if snapshot_stride > 0:
        snapshots.append(PlantState(grid, u.copy(), v.copy(), init.t))

    blew_up = False
    for m in range(1, n_steps + 1):
        u, v = advance(u, v, dt)
        v[-1] = actuate(u, v) if actuate else 0.0
        t = init.t + m * dt
        p = _phi_of(u, v, h)
        times.append(t)
        phi.append(p)
        u0s.append(u[0])
        v0s.append(v[0])
        controls.append(v[-1])
        if snapshot_stride > 0 and (m % snapshot_stride == 0 or m == n_steps):
            snapshots.append(PlantState(grid, u.copy(), v.copy(), t))
        if not np.isfinite(p) or p > BLOWUP_THRESHOLD:
            blew_up = True
            break

    return SimTrace(
        times=np.array(times),
        phi=np.array(phi),
        u_boundary=np.array(u0s),
        v_boundary=np.array(v0s),
        control=np.array(controls),
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
    the transformed state then vanishes at x = 1 identically.  The run stops
    early with ``blew_up`` set once phi exceeds 1e12 or turns non-finite.
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
            return (w @ (g1 * u) + w[:-1] @ (g2[:-1] * v[:-1])) / closure

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
    its local terms plus the integral couplings through c and kappa, which are
    applied with row-wise trapezoid weights each step.  ``init.v`` is taken as
    the initial beta, and the recorded control is the zero inflow beta(1).
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
    q = coeffs.q

    # fold the row-wise trapezoid weights into the kernel matrices once
    wtri = row_weights(n, h)
    c_w = kernels.c.as_matrix() * wtri
    kap_w = kernels.kappa.as_matrix() * wtri

    def advance(u, beta, dt):
        integral = c_w @ u + kap_w @ beta
        un = u.copy()
        un[1:] = (
            u[1:]
            - dt * lam[1:] * (u[1:] - u[:-1]) / h
            + dt * (sig[1:] * u[1:] + omg[1:] * beta[1:] + integral[1:])
        )
        bn = beta.copy()
        bn[:-1] = beta[:-1] + dt * mu[:-1] * (beta[1:] - beta[:-1]) / h
        un[0] = q * bn[0]
        return un, bn

    return _trace(coeffs, init, T, snapshot_stride, advance, None)


def trace_to_csv(trace: SimTrace, path) -> None:
    """Write the per-step history as CSV: t,phi,u0,v0,U with 17 digits."""
    with open(path, "w") as f:
        f.write("t,phi,u0,v0,U\n")
        for row in zip(trace.times, trace.phi, trace.u_boundary, trace.v_boundary, trace.control):
            f.write(",".join(f"{x:.17g}" for x in row) + "\n")
