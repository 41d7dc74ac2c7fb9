"""mfclab: numerical laboratory for mean-field control under model uncertainty."""

from .measures import (
    BoundCheck,
    DiscreteMeasure,
    QuadratureRule,
    SQRT_PI,
    fourier_tables,
    gauss_hermite_rule,
    inner_product,
    law_distance_bound_check,
    norm_sq,
)
from .lawproc import (
    ItoLevyCoeffs,
    LevyMeasure,
    MeasurePath,
    abs_continuity_scan,
    empirical_law,
    generator_on_test_fn,
    law_derivative_fd,
    loglog_slope,
)
from .sde import (
    CoefficientPartials,
    ControlPair,
    ControlledModel,
    Direction,
    InadmissiblePerturbation,
    InfoPattern,
    NoiseBank,
    ParticleBundle,
    PerformanceSpec,
    SimulationError,
    draw_noise,
    negate_performance,
    performance_samples,
    perturbed_controls,
    simulate,
    simulate_derivative_process,
)
from .bsde import (
    BsdeSolution,
    GammaPositivityError,
    LinearBsdeSpec,
    adjoint_p0_solve,
    backward_euler_reference,
    solve,
)
from .game import (
    GameSpec,
    GateauxResult,
    IntervalMass,
    PerturbationPlan,
    ResidualCurves,
    SweepTable,
    UnsupportedModelError,
    first_order_residuals,
    gateaux_check,
    nash_perturbation_sweep,
    solve_adjoints,
)
from .consumption import (
    ClosedFormControls,
    ConsumptionModel,
    closed_form_controls,
    feedback_pair,
    frozen_pair,
    game_spec,
    product_process_check,
    verify_consumption_game,
)
from .report import CheckResult, VERSION

__version__ = VERSION
