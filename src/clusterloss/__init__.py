"""Portfolio credit-loss models with common-shock cluster defaults.

Exact loss distributions (one uniformised forward-equation kernel for both
models), Monte Carlo simulation of cluster defaults under four
repeated-default treatments, credit index and CDO tranche pricing, and
greedy joint calibration to tranche quote panels.
"""
from .calibrator import (
    CalibrationResult,
    fit_intensities,
    greedy_calibrate,
)
from .loss_engine import (
    GPCL,
    GPL,
    STRATEGIES,
    IntensitySchedule,
    LossDistribution,
    PoolSpec,
    cluster_cumulated_intensity,
    counting_intensity,
    distribution_term_structure,
    loss_distribution,
)
from .market_data import (
    DiscountCurve,
    IndexQuote,
    PaymentSchedule,
    QuotePanel,
    TrancheQuote,
    load_curve,
    load_quotes,
)
from .pricer import (
    PanelPricer,
    TrancheDef,
    expected_tranched_loss,
    tranched_loss,
)
from .simulator import empirical_distributions

__version__ = "0.1.0"
