"""zetazeros: zeta-family evaluation and rectangle zero scans."""

__version__ = "0.1.0"

from .config import ComplexValue, EvalConfig, DEFAULT_CONFIG
from .zeta import (
    hurwitz_zeta,
    hurwitz_zeta_shifted,
    riemann_zeta,
    log_gamma,
    completed_zeta,
)
from .families import (
    BarnesParams,
    LinearFormSeries,
    PartitionTerm,
    SphereParams,
    SymMatrixParams,
    barnes_direct,
    barnes_zeta,
    ez_diagonal,
    ez_direct,
    hoffman_diagonal_coeffs,
    linear_form_eval,
    linear_form_from_config,
    sphere_mult_poly,
    sphere_spectral,
    symmat_zeta,
)
from .expr import eval_batch, eval_expr, parse_expr, pole_set, to_text
from .zeros import (
    ContourConfig,
    DEFAULT_CONTOUR,
    CriticalLineReport,
    DensityScan,
    LocalizeResult,
    Rectangle,
    ZeroRecord,
    critical_line_check,
    density_scan,
    localize_zeros,
    winding_number,
)

__all__ = [
    "__version__",
    "ComplexValue", "EvalConfig", "DEFAULT_CONFIG",
    "hurwitz_zeta", "hurwitz_zeta_shifted", "riemann_zeta",
    "log_gamma", "completed_zeta",
    "BarnesParams", "LinearFormSeries", "PartitionTerm", "SphereParams",
    "SymMatrixParams", "barnes_direct", "barnes_zeta", "ez_diagonal",
    "ez_direct", "hoffman_diagonal_coeffs", "linear_form_eval",
    "linear_form_from_config", "sphere_mult_poly", "sphere_spectral",
    "symmat_zeta",
    "eval_batch", "eval_expr", "parse_expr", "pole_set", "to_text",
    "ContourConfig", "DEFAULT_CONTOUR", "CriticalLineReport", "DensityScan",
    "LocalizeResult", "Rectangle", "ZeroRecord", "critical_line_check",
    "density_scan", "localize_zeros", "winding_number",
]
