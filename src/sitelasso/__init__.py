"""Two-site spatial interpolation with LASSO-regularized linear models.

Point observations from two field sites are expanded into polynomial and
interaction terms, standardized, and fitted along the full least-angle
regularization path; repeated train/validation splits pick one model each,
and the inverse validation-error weighted ensemble predicts points or
full-cover rasters. Four site-effect treatments are provided: per-site fits
(m1), a pooled fit (m2), a pooled fit with per-site residual stages (m3),
and a pooled fit over global plus site-scoped column blocks (m4).
"""

from .cd import cd_lasso, kkt_residuals, lasso_objective
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
    TransformMismatchError,
)
from .features import (
    assemble_site_blocks,
    expand_terms,
    filter_collinear,
    term_rank,
)
from .gridpredict import predict_raster, predict_raster_two_stage
from .lars import LassoPath, PathKnot, lar_lasso_path
from .models import FitMetrics, SelectedModel, fit_metrics, predict
from .pipeline import (
    MethodRun,
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
    StandardizedMatrix,
    apply_transform,
    check_standardized,
    fit_transform,
)
from .synthetic import FieldSpec, SyntheticSpec, generate_synthetic
from .terms import RawDesign, TermSpec, build_term_matrix, parse_term_id

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
    "PathKnot",
    "PointDataset",
    "RasterGrid",
    "RawDesign",
    "SelectedModel",
    "SiteLassoError",
    "SplitPlan",
    "StandardizationTransform",
    "StandardizedMatrix",
    "SyntheticSpec",
    "TermSpec",
    "TransformMismatchError",
    "apply_transform",
    "assemble_site_blocks",
    "build_term_matrix",
    "cd_lasso",
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
    "kkt_residuals",
    "lar_lasso_path",
    "lasso_objective",
    "make_splits",
    "member_predictions",
    "model_average",
    "parse_term_id",
    "predict",
    "predict_raster",
    "predict_raster_two_stage",
    "read_ascii_grid",
    "read_points_csv",
    "run_method1",
    "run_method2",
    "run_method3",
    "run_method4",
    "select_knot",
    "tally_selection",
    "term_rank",
    "write_ascii_grid",
    "write_points_csv",
]
