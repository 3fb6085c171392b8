"""The pipeline benchmark's tracer must find the names it hooks."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "pipebench", "tracing.py")

# gridpredict evaluates linear forms and no longer calls model_average.
# ensemble fits its splits through lars.lockstep_paths and scores each knot
# during that pass, so it imports no lar_lasso_path; select_knot still
# resolves there (it is public API) but the pipeline no longer calls it.
KNOWN_MISSING = {
    "sitelasso.gridpredict.model_average",
    "sitelasso.ensemble.lar_lasso_path",
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
