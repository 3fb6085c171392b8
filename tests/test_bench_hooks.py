"""The pipeline benchmark's tracer must find the names it hooks."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "pipebench", "tracing.py")

# gridpredict evaluates linear forms and no longer calls model_average.
# ensemble fits its splits through lars.lockstep_paths and scores each knot
# during that pass, so it imports no lar_lasso_path; select_knot still
# resolves there (it is public API) but the pipeline no longer calls it.
# run streams each prediction raster to disk a block of rows at a time, with
# gridpredict.prediction_rows / two_stage_rows and rasters.write_ascii_rows;
# those two are gridpredict's only prediction entry points, so neither the CLI
# nor gridpredict has predict_raster or predict_raster_two_stage. The
# prediction rasters of run are no longer counted in gridpredict.predict_s,
# gridpredict.pixels_out, rasters.write_s or rasters.cells_written (synth's
# grids still are, through write_ascii_grid).
KNOWN_MISSING = {
    "sitelasso.gridpredict.model_average",
    "sitelasso.ensemble.lar_lasso_path",
    "sitelasso.cli.predict_raster",
    "sitelasso.cli.predict_raster_two_stage",
    "sitelasso.gridpredict.predict_raster",
}


def test_every_benchmark_hook_resolves():
    spec = importlib.util.spec_from_file_location("pipebench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = {
        f"{module}.{attr}"
        for module, attr, _metric, _counter in tracing.HOOKS
        if not hasattr(importlib.import_module(module), attr)
    }
    assert missing == KNOWN_MISSING
