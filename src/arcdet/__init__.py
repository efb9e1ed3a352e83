"""arcdet: exact jet-space arithmetic and finite-field contact-locus counting
for determinantal hypersurfaces."""

from .errors import (
    ArcdetError,
    BudgetExceeded,
    InternalInvariantError,
    ParseError,
    TruncationInsufficient,
    ValidationError,
)
from .fields import GF, QQ
from .series import TruncSeries
from .poly import MultiPoly, parse_poly, poly_to_string
from .matrices import PolyMatrix, SeriesMatrix, det_division_free, minors
from .snf import LambdaProfile, SnfResult, smith_normal_form
from .jets import IdealGens, JetPoint, enumerate_jets, jet_space_size, ord_along_ideal, substitute_jet
from .consensus import CountReport, cyclotomic_fit, extract_codim
from .contact import ContactQuery, count_contact, proj_count_contact
from .lct import LctEstimate, lct_estimate
from .determinantal import (
    ConeCheck,
    CorollaryReport,
    DeterminantalPair,
    FiberCheck,
    StratumReport,
    cone_comparison_check,
    corollary_check,
    fiber_codim_formula,
    fiber_count_check,
    lambda_profile,
    minor_ideal_tower,
    stratum_counts,
    threshold_bound_backward,
    threshold_bound_forward,
)
from .configurations import (
    ConfigurationMatrix,
    GenericityVerdict,
    cauchy_binet_expansion,
    configuration_lct_campaign,
    cross_oracle_payload,
    hadamard_one_generic,
    is_connected,
    is_square_free,
    linear_one_generic,
    patterson_matrix,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
