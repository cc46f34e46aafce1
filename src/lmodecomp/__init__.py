"""Certificate-based decomposition of huge matrix games and monotone
variational inequalities over LMO-represented domains."""

from .certificates import (
    AccuracyCertificate,
    CertificateError,
    ExecutionProtocol,
    ResidualReport,
    residual,
    residual_ball_product,
)
from .domains import Ball, Domain, FiniteAtoms, Product, Simplex
from .oracles import (
    ColumnHit,
    DenseMatrixOracle,
    DpOracle,
    DpSystem,
    KnapsackOracle,
    KnapsackSpec,
    bellman_backward,
    dp_from_knapsack,
    enumerate_columns,
)
from .solvers import (
    FieldOracle,
    SolveResult,
    SolverConfig,
    central_cut_log_volume_ratio,
    ellipsoid_run,
    md_run,
    optimize_certificate,
)
from .saddle import (
    BilinearSpSpec,
    MasterProblem,
    SparseAtomSolution,
    build_master_example1,
    build_master_example2,
    exact_gap,
    primal_value_grad,
    solve_sp,
)
from .vi import (
    AffineViSpec,
    DenseSkewSystem,
    NashSpec,
    SkewViSpec,
    build_affine_vi_primal,
    build_skew_vi_primal,
    eps_nash,
    eps_vi_exact,
    nash_to_skew,
    solve_vi,
)
from .blotto import (
    BlottoReport,
    BlottoSpec,
    blotto_from_json,
    build_blotto,
    random_rank1_omegas,
    rank_factor,
    solve_blotto,
)

__version__ = "0.1.0"
