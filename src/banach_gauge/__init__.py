"""banach-gauge: desk-scale computation in Banach space geometry.

Exact Tsirelson-type norm engines with verifiable certificates, type-2 /
cotype-2 ratio estimation, covariance-preserving cone reductions, random
projection experiments on Walsh point sets, flat-vector searches yielding
certified Euclidean-distortion lower bounds, and calculators for the
iterated-log / inverse-Ackermann growth scale.

The exports below are resolved on first use (PEP 562), so importing the
package, or an exact-arithmetic module of it, does not import numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "AllPointsCoincide BadEpsilon BadSupportBound BanachGaugeError DegenerateInput "
              "DomainError EmbeddingFailed InvalidBound MalformedCertificate MTooLarge "
              "NegativeEntry RatioUndefined SupportTooLarge TooManyVectors ZeroFamily ZeroTail",
    "flatsearch": "CotypeCertificate FlatSearchResult cotype_certificate flatness search_flat",
    "gauss": "C2LowerBound ConeReduction RatioEstimate SpaceOracle VectorFamily "
             "c2_lower_from_witness caratheodory_reduce diagonal_sqrt_family flm_reduce "
             "gaussian_ratio kwapien_upper rademacher_ratio",
    "growth": "GrowthResult ackermann_g alpha alpha_diag delta_bound fit_tower_constant log_star",
    "jl": "DistortionReport LinearMap MechanismReport PointSet WalshEnsemble distortion_of_map "
          "fwht jl_embed jl_mechanism_experiment walsh_orthogonality_check walsh_pointset",
    "seqvec": "FinVec Rat abs_square l1_norm sup_norm",
    "tsirelson": "EvalStats Leaf NormCertificate NormResult Part Split certificate_from_json "
                 "certificate_to_json certificate_value modified_norm modified_t2_norm_sq "
                 "norming_functional t2_norm t2_norm_sq tsirelson_norm tsirelson_norm_bruteforce "
                 "validate_certificate",
    "batch": "modified_norm_batch modified_norm_batch_exact tsirelson_norm_batch "
             "tsirelson_norm_batch_exact",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {"errors", "flatsearch", "gauss", "growth", "jl", "seeds", "seqvec", "simplex",
               "tsirelson"}

__all__ = sorted({*_HOME, *_SUBMODULES})


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
