"""brakeopt: safety-gear brake mechanics, uncertainty quantification and design optimization."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AllStartsFailed,
    BrakeOptError,
    InsufficientSamples,
    MeanOutOfSupport,
    NoFeasiblePoint,
    OutOfMemory,
    ParseError,
    SingularDenominator,
    SingularSystem,
    ValidationError,
)
from .mechmodel import (  # noqa: F401
    BrakeGeometry,
    FrictionSet,
    LoadCase,
    braking_force,
    solve_equilibrium,
)
from .maxent import (  # noqa: F401
    TruncatedExponential,
    fit_truncexp,
    mean_of,
    sample_inverse_cdf,
)
from .mc_uq import (  # noqa: F401
    convergence_trace,
    draw_uniform_matrix,
    propagate,
    summarize,
)
from .optimizer import (  # noqa: F401
    ConstraintSpec,
    DesignBox,
    DesignPoint,
    RobustWeights,
    classical_values,
    grid_scan,
    optimize_classical,
    optimize_robust,
    robust_objective,
)
