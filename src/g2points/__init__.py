"""Rational points on genus-2 curves with rank-1 Jacobians.

The package certifies the full set of rational points on a curve
y^2 = f(x), deg f = 5 monic, when the Jacobian is simple of Mordell-Weil
rank 1: p-adic Jacobian logarithms produce an annihilating differential,
Strassmann counts bound the zeros of its antiderivative on each residue
disc, and a Mordell-Weil sieve resolves the discs the analytic bound
leaves ambiguous.
"""

from .coleman import (
    DecompositionFailureError,
    DiscCertificate,
    LogVector,
    annihilating_form,
    disc_zero_count,
    log_jacobian,
    point_anchored_series,
    single_point_criterion,
    tiny_integral,
    transversality_certificate,
)
from .curve import (
    CurvePoint,
    Differential,
    HyperellipticCurve,
    disc_center,
    expand_differential,
    fp_curve_points,
    is_on_curve,
    reduce_point,
)
from .jacobian import (
    FpJacobian,
    MumfordDivisor,
    cantor_add,
    curve_preimage,
    embed_point,
    enumerate_Fp_jacobian,
    reduce_divisor,
    scalar_mul,
)
from .oracle import (
    exhaustive_jacobian,
    exhaustive_series_zeros,
    naive_rational_points,
)
from .padic import (
    DEFAULT_PRECISION,
    InconclusiveTruncationError,
    NotHenselLiftableError,
    PadicNumber,
    PadicPoly,
    PadicPowerSeries,
    PrecisionLossError,
    QuadExtension,
    QuadExtNumber,
    hensel_root,
    mahler_bound_holds,
    padic_sqrt,
    strassmann_count,
    with_precision_retry,
)
from .sieve import (
    HYPOTHESES,
    PointRecord,
    SieveContext,
    SieveResult,
)
from .sieve import run as run_sieve

__all__ = [
    "DEFAULT_PRECISION",
    "HYPOTHESES",
    "CurvePoint",
    "DecompositionFailureError",
    "Differential",
    "DiscCertificate",
    "FpJacobian",
    "HyperellipticCurve",
    "InconclusiveTruncationError",
    "LogVector",
    "MumfordDivisor",
    "NotHenselLiftableError",
    "PadicNumber",
    "PadicPoly",
    "PadicPowerSeries",
    "PointRecord",
    "PrecisionLossError",
    "QuadExtension",
    "QuadExtNumber",
    "SieveContext",
    "SieveResult",
    "annihilating_form",
    "cantor_add",
    "curve_preimage",
    "disc_center",
    "disc_zero_count",
    "embed_point",
    "enumerate_Fp_jacobian",
    "exhaustive_jacobian",
    "exhaustive_series_zeros",
    "expand_differential",
    "fp_curve_points",
    "hensel_root",
    "is_on_curve",
    "log_jacobian",
    "mahler_bound_holds",
    "naive_rational_points",
    "padic_sqrt",
    "point_anchored_series",
    "reduce_divisor",
    "reduce_point",
    "run_sieve",
    "scalar_mul",
    "single_point_criterion",
    "strassmann_count",
    "tiny_integral",
    "transversality_certificate",
    "with_precision_retry",
]
