"""All-at-once versus reduced iterative regularization for dynamic inverse problems."""

from .aao import AaoPoint, AllAtOnceOperator, ResidualTriple, zero_point
from .errors import InnerSolveError, SelfTestError, SolverError, ValidationError
from .grids import KaczmarzPartition, TimeGrid, make_partition, make_time_grid
from .harness import (
    DenseOracle,
    ExperimentConfig,
    NoisyDataset,
    add_noise,
    compare,
    make_instance,
    run_experiment,
    selftest,
    sweep,
    synthesize_truth,
)
from .methods import (
    MethodConfig,
    ProblemInstance,
    RunRecord,
    conjugate_gradient,
    estimate_operator_norm,
    run,
)
from .problem import SemilinearDiffusion, signed_square, signed_square_slope
from .reduced import ReducedOperator
from .spaces import (
    DiscreteGelfandTriple,
    Trajectory,
    apply_stiffness,
    build_triple,
    evolve_backward,
    evolve_forward,
    inner_dual_load,
    inner_observation,
    inner_state,
    solve_stiffness,
    zero_trajectory,
)

__version__ = "0.1.0"
