"""Eavesdropping-probe analysis for BB84 under generalized discrimination.

The package builds the probe geometry, the interpolating three-outcome
discrimination measurement, Shannon/Renyi information measures over the
resulting (b', e') tables, entropic and majorization uncertainty bounds,
and a seeded Monte-Carlo session oracle.
"""

from .discrimination import (
    DiscriminationConfig,
    OutcomeProbs,
    Povm,
    born_probs,
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
    alpha_mutual_information,
    binary_entropy,
    closed_form_i1,
    closed_form_i2,
    closed_form_i4,
    closed_form_i_std,
    conditional_renyi,
    conditional_std,
    joint_from_outcome_probs,
    mutual_information,
    renyi_entropy,
    shannon_entropy,
    shor_preskill_rate,
)
from .probe import (
    BASES,
    DIAGONAL,
    RECTILINEAR,
    ProbeConfig,
    ProbeGeometry,
    cnot_action,
    probe_geometry,
    probe_input,
    theta_from_error_rate,
    theta_grid,
)
from .simulator import (
    SessionConfig,
    SessionTally,
    empirical_joint,
    empirical_mutual_information,
    run_session,
)
from .uncertainty import (
    MajorizationData,
    NaimarkExtension,
    coles_piani_bound,
    majorization_bound_direct_sum,
    majorization_bound_tensor,
    majorization_data,
    majorization_entropy_bound,
    mu_bound,
    mu_factor,
    mutual_info_upper_bound,
    naimark_basis,
    optimize_s_max,
    overlap_matrix,
    s_max,
    s_second,
    zeta2_closed_form,
    zeta_closed_form,
    zeta_coefficients,
)

__version__ = "0.1.0"
