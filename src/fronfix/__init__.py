"""American put pricing by a front-fixing Crank-Nicolson scheme with an
exponential-kernel fractional time derivative, plus validation tooling."""

from .analysis import (
    AuditReport,
    Lemma1Report,
    OrderEstimate,
    StudyRow,
    amplification_factor,
    lemma1_check,
    monotonicity_audit,
    observed_order,
    root_condition,
    y_truncation_study,
)
from .cfkernel import (
    CFWeights,
    cf_weights,
    history_push,
    history_sum_naive,
)
from .errors import (
    DenominatorNearZeroError,
    DomainError,
    FronfixError,
    NonConvergenceError,
    ValidationError,
)
from .model import (
    GridSpec,
    ModelParams,
    SolutionSurface,
    build_grid,
    validate_params,
)
from .oracles import (
    OraclePrice,
    binomial_american_put,
    european_put_closed_form,
    psor_american_put,
)
from .scheme import (
    SolverRun,
    price_at,
    run_solver,
)

__version__ = "0.1.0"
