"""Numerical laboratory for a doubly nonlocal parabolic system: two fields
coupled through a logarithmic reaction, each diffused by a fractional
p-Laplacian whose strength is modulated by a Kirchhoff coefficient of the
field's own seminorm.

The package evaluates the variational machinery of the flow (energy, Nehari
functionals, fibering maps, well depth, classification thresholds),
integrates the semi-discrete gradient flow in time, and checks the computable
predictions: exact energy dissipation, the finite-horizon bound for blow-up
data, and the decay of global solutions.
"""

from .params import ModelParams, ParamError, critical_exponent, validate_params
from .grids import (
    FieldPair, GridDomain, GridError, GridField, build_grid, discrete_norm,
    inner, sample_field,
)
from .fracops import (
    apply_operator, bilinear_form, bracket, gagliardo_sum, operator_and_bracket,
)
from .kirchhoff import (
    HypothesisReport, KirchhoffFn, check_hypotheses, k_antideriv, k_eval,
    scaling_suite,
)
from .variational import (
    BracketingError, Classification, EnergyReport, EpsilonStar, FiberingRay,
    WellEstimate, blowup_time_bound, classify_initial_data, compute_d_star,
    coupling_mass, energy_phi, energy_report, estimate_embedding_constant,
    estimate_well_depth, fibering_scan, find_epsilon_star, log_coupling,
    log_coupling_bound_gap, nehari_psi, well_lower_bound,
)
from .dynamics import (
    ConcavityReport, DecayFit, IntegratorControls, RunOutcome, SimTrace,
    StepRecord, concavity_diagnostic, decay_fit, energy_identity_residual,
    fit_decay, integrate, rhs, tail_decay_check,
)
from .config import ConfigError, ExperimentConfig

__version__ = "0.1.0"
