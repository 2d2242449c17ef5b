"""Feedback coding laboratory for the symmetric K-user fully connected
interference channel: exact finite-field schemes, closed-form rate theory,
and Monte Carlo checks of the Gaussian signal algebra."""

from .channel import (
    DetParams,
    Scheme,
    Transcript,
    apply_channel,
    run_feedback_session,
)
from .gauss_sim import (
    EffectiveChannelStats,
    MCConfig,
    NestedLattice1D,
    make_lattice,
    mod_lattice,
    simulate_strong_two_block,
    sum_decode_check,
    zero_forcing_signal_coef,
)
from .gf import SingularSystem, is_prime
from .rates import (
    GapFact,
    GaussParams,
    RegimeMismatch,
    SecrecyBound,
    alpha_one_upper,
    det_converse,
    gap_grid,
    gap_report,
    gauss_achievable,
    gdof_fb,
    gdof_nofb,
    gdof_slope_estimate,
    secrecy_bound,
)
from .schemes import (
    AlignmentSolution,
    NoSolution,
    VerifyReport,
    build_scheme,
    moderate_scheme,
    qsym_solve,
    select_prime,
    verify_scheme,
)

__version__ = "0.1.0"
