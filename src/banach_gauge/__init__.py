"""banach-gauge: desk-scale computation in Banach space geometry.

Exact Tsirelson-type norm engines with verifiable certificates, type-2 /
cotype-2 ratio estimation, covariance-preserving cone reductions, random
projection experiments on Walsh point sets, flat-vector searches yielding
certified Euclidean-distortion lower bounds, and calculators for the
iterated-log / inverse-Ackermann growth scale.
"""

__version__ = "0.1.0"

from .errors import (
    AllPointsCoincide,
    BadEpsilon,
    BadSupportBound,
    BanachGaugeError,
    DegenerateInput,
    DomainError,
    EmbeddingFailed,
    InvalidBound,
    MalformedCertificate,
    MTooLarge,
    NegativeEntry,
    RatioUndefined,
    SupportTooLarge,
    TooManyVectors,
    ZeroFamily,
    ZeroTail,
)
from .flatsearch import (
    CotypeCertificate,
    FlatSearchResult,
    cotype_certificate,
    flatness,
    search_flat,
)
from .gauss import (
    C2LowerBound,
    ConeReduction,
    RatioEstimate,
    SpaceOracle,
    VectorFamily,
    c2_lower_from_witness,
    caratheodory_reduce,
    diagonal_sqrt_family,
    flm_reduce,
    gaussian_ratio,
    kwapien_upper,
    rademacher_ratio,
)
from .growth import (
    GrowthResult,
    ackermann_g,
    alpha,
    alpha_diag,
    delta_bound,
    fit_tower_constant,
    log_star,
)
from .jl import (
    DistortionReport,
    LinearMap,
    MechanismReport,
    PointSet,
    WalshEnsemble,
    distortion_of_map,
    fwht,
    jl_embed,
    jl_mechanism_experiment,
    walsh_orthogonality_check,
    walsh_pointset,
)
from .seqvec import (
    FinVec,
    Rat,
    abs_square,
    l1_norm,
    sup_norm,
)
from .tsirelson import (
    EvalStats,
    Leaf,
    NormCertificate,
    NormResult,
    Part,
    Split,
    certificate_from_json,
    certificate_to_json,
    certificate_value,
    modified_norm,
    modified_norm_batch,
    modified_norm_batch_exact,
    modified_t2_norm_sq,
    norming_functional,
    t2_norm,
    t2_norm_sq,
    tsirelson_norm,
    tsirelson_norm_batch,
    tsirelson_norm_batch_exact,
    tsirelson_norm_bruteforce,
    validate_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
