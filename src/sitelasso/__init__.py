"""Two-site spatial interpolation with LASSO-regularized linear models.

Point observations from two field sites are expanded into polynomial and
interaction terms, standardized, and fitted along the full least-angle
regularization path; repeated train/validation splits pick one model each,
and the inverse validation-error weighted ensemble predicts points or
full-cover rasters. Four site-effect treatments are provided: per-site fits
(m1), a pooled fit (m2), a pooled fit with per-site residual stages (m3),
and a pooled fit over global plus site-scoped column blocks (m4).
"""

from .ensemble import (
    Ensemble,
    ensemble_weights,
    fit_ensemble,
    member_predictions,
    model_average,
    select_knot,
    tally_selection,
)
from .errors import (
    CollinearTermsError,
    ConfigError,
    DataError,
    NumericalError,
    SiteLassoError,
)
from .features import (
    assemble_site_blocks,
    expand_terms,
    filter_collinear,
    term_rank,
)
from .gridpredict import prediction_rows, two_stage_rows
from .lars import LassoPath, lar_lasso_path
from .models import FitMetrics, fit_metrics
from .pipeline import (
    MethodRun,
    RunDesigns,
    covariate_support_report,
    evaluate_transfer,
    run_method1,
    run_method2,
    run_method3,
    run_method4,
)
from .pointdata import PointDataset, read_points_csv, write_points_csv
from .rasters import RasterGrid, read_ascii_grid, write_ascii_grid
from .splits import SplitPlan, make_splits
from .standardize import (
    StandardizationTransform,
    apply_transform,
    check_standardized,
    fit_transform,
)
from .synthetic import FieldSpec, SyntheticSpec, generate_synthetic
from .terms import RawDesign, TermSpec, parse_term_id

__version__ = "0.1.0"

__all__ = [
    "CollinearTermsError",
    "ConfigError",
    "DataError",
    "Ensemble",
    "FieldSpec",
    "FitMetrics",
    "LassoPath",
    "MethodRun",
    "NumericalError",
    "PointDataset",
    "RasterGrid",
    "RawDesign",
    "RunDesigns",
    "SiteLassoError",
    "SplitPlan",
    "StandardizationTransform",
    "SyntheticSpec",
    "TermSpec",
    "apply_transform",
    "assemble_site_blocks",
    "check_standardized",
    "covariate_support_report",
    "ensemble_weights",
    "evaluate_transfer",
    "expand_terms",
    "filter_collinear",
    "fit_ensemble",
    "fit_metrics",
    "fit_transform",
    "generate_synthetic",
    "lar_lasso_path",
    "make_splits",
    "member_predictions",
    "model_average",
    "parse_term_id",
    "prediction_rows",
    "read_ascii_grid",
    "read_points_csv",
    "run_method1",
    "run_method2",
    "run_method3",
    "run_method4",
    "select_knot",
    "tally_selection",
    "term_rank",
    "two_stage_rows",
    "write_ascii_grid",
    "write_points_csv",
]
