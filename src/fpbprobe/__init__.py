"""Eavesdropping-probe analysis for BB84 under generalized discrimination.

The package builds the probe's angle theta(P_E), the interpolating
three-outcome discrimination measurement, Shannon/Renyi information
measures over the resulting (b', e') tables, entropic and majorization
uncertainty bounds, and a seeded Monte-Carlo session oracle.
"""

from .discrimination import (
    DiscriminationConfig,
    OutcomeProbs,
    build_povm,
    error_lower_bound,
    outcome_probs,
    outcome_probs_grid,
    xi_to_phi,
)
from .entropy import (
    Distribution,
    JointDistribution,
    Order,
    binary_entropy,
    closed_form_i1,
    closed_form_i2,
    closed_form_i4,
    closed_form_i_std,
    joint_from_outcome_probs,
    mutual_information,
    renyi_entropy,
    shannon_entropy,
    shor_preskill_rate,
)
from .probe import theta_grid
from .simulator import (
    SessionConfig,
    SessionTally,
    empirical_joint,
    empirical_mutual_information,
    run_session,
)
from .uncertainty import (
    BOUNDS_COLUMNS,
    MajorizationData,
    NaimarkExtension,
    bounds_table,
    coles_piani_bound,
    majorization_bound_direct_sum,
    majorization_bound_tensor,
    majorization_data,
    majorization_entropy_bound,
    mu_factor,
    mutual_info_upper_bound,
    naimark_basis,
    optimize_s_max,
    overlap_matrix,
    zeta_closed_form,
    zeta_coefficients,
)

__version__ = "0.1.0"
