"""Gain-kernel computation and learning for 2x2 counter-convecting plants."""

from .analysis import (
    EpsilonReport,
    ResidualReport,
    StabilityReport,
    epsilon_estimate,
    fit_decay,
    lyapunov_v1,
    norm_equivalence_constants,
    p2_lower_bound,
    phi,
    residual_operators,
)
from .coefficients import (
    CoefficientFamily,
    CoefficientSet,
    gamma_family,
    sample_random,
)
from .controller import GainVector, forward_transform, inverse_transform
from .data_store import Dataset, SampleRecord, generate, read, write
from .kernel_solver import (
    KernelField,
    KernelSet,
    gain_slice,
    solve_inverse_kernels,
    solve_kappa_c,
    solve_kernels,
    solve_kernels_batch,
    target_couplings,
)
from .neural_op import (
    DeepONetModel,
    TrainConfig,
    encode_input,
    evaluate,
    forward,
    infer_gains,
    load_model,
    save_model,
    train,
)
from .numerics import IntervalGrid, TriangularGrid, trapezoid_integral
from .plant_sim import (
    ControllerSpec,
    PlantState,
    SimTrace,
    cfl_dt,
    reference_initial_state,
    simulate,
    simulate_target,
)

__all__ = [name for name in dir() if not name.startswith("_")]
