"""Exact and p-adic computation for the weight-0 q-Euler and q-Bernoulli
families, with a mechanically verified identity catalog."""

from .exactarith import (
    DivisionByZero,
    NonUnitError,
    PoleError,
    PolyQ,
    RatFuncQ,
    XPolyQ,
)
from .identities import (
    IdentityId,
    NumericContext,
    VerificationResult,
    verify,
    verify_grid,
)
from .padic import (
    PadicApprox,
    PrecisionExhausted,
    padic_distance,
)
from .qintegral import (
    ConvergenceNotReached,
    IntegralRequest,
    IntegralResult,
    bernoulli_number_padic,
    euler_number_padic,
    integrate,
    riemann_level,
)
from .qspecial import (
    DomainError,
    InternalInconsistency,
    beta_exact,
    binom,
    classical_euler_number,
    euler_number,
    euler_poly,
    euler_poly_integral01,
    q_bracket,
)
from .report import TOOL_VERSION, Report, ResultCache

__version__ = TOOL_VERSION

__all__ = [
    "DivisionByZero", "NonUnitError", "PoleError", "PolyQ", "RatFuncQ",
    "XPolyQ",
    "IdentityId", "NumericContext", "VerificationResult", "verify", "verify_grid",
    "PadicApprox", "PrecisionExhausted",
    "padic_distance",
    "ConvergenceNotReached", "IntegralRequest",
    "IntegralResult", "bernoulli_number_padic", "euler_number_padic",
    "integrate", "riemann_level",
    "DomainError", "InternalInconsistency", "beta_exact", "binom",
    "classical_euler_number", "euler_number", "euler_poly",
    "euler_poly_integral01", "q_bracket",
    "Report", "ResultCache",
    "__version__",
]
