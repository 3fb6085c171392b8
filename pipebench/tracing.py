"""Per-layer tracing of sitelasso commands, from outside the package.

A traced command runs in a child process (traced_cli.py) that replaces
public functions with timing wrappers where their callers look them up (for
example ``sitelasso.ensemble.lar_lasso_path``, which the split-fitting loop
calls), then runs ``sitelasso.cli.main``. Each call records a span: name, start, end
and the index of its parent span. Work counts are read from the arguments
and return values. Spans stay in memory and are written once, when the
command ends. The parent process turns the spans of all commands into
per-layer self times: a span's duration minus its child spans. Every hooked
name is charged to exactly one SELF_TIME metric, and the root span's self
time is ``cli.other_s``, so the self-time metrics add up to the command time.
"""

import json
import os
import time

import numpy as np

ROOT = "sitelasso.cli.main"


def _grid_cells(grid):
    return int(grid.values.size)


def _valid_cells(grid):
    values = grid.values
    return int(np.count_nonzero((values != grid.nodata) & ~np.isnan(values)))


# (module, attribute, self-time metric, counter of (args, result) -> {metric: n})
HOOKS = [
    ("sitelasso.cli", "read_points_csv", "pointdata.read_s",
     lambda a, r: {"pointdata.rows_read": r.n_rows}),
    ("sitelasso.pointdata", "write_points_csv", "pointdata.write_s", None),
    ("sitelasso.cli", "generate_synthetic", "synthetic.generate_s", None),
    ("sitelasso.cli", "read_ascii_grid", "rasters.read_s",
     lambda a, r: {"rasters.cells_read": _grid_cells(r)}),
    ("sitelasso.cli", "write_ascii_grid", "rasters.write_s",
     lambda a, r: {"rasters.cells_written": _grid_cells(a[1])}),
    ("sitelasso.cli", "make_splits", "splits.make_s", None),
    ("sitelasso.artifacts", "write_json", "artifacts.json_write_s",
     lambda a, r: {"artifacts.json_bytes": os.path.getsize(a[0])}),
    ("sitelasso.artifacts", "ensemble_to_dict", "artifacts.json_write_s", None),
    ("sitelasso.artifacts", "read_json", "artifacts.json_load_s", None),
    ("sitelasso.artifacts", "ensemble_from_dict", "artifacts.json_load_s", None),
    ("sitelasso.artifacts", "build_manifest", "artifacts.manifest_s", None),
    ("sitelasso.artifacts", "sha256_file", "artifacts.manifest_s",
     lambda a, r: {"artifacts.bytes_hashed": os.path.getsize(a[0])}),
    ("sitelasso.cli", "run_method1", "pipeline.self_s", None),
    ("sitelasso.cli", "run_method2", "pipeline.self_s", None),
    ("sitelasso.cli", "run_method3", "pipeline.self_s", None),
    ("sitelasso.cli", "run_method4", "pipeline.self_s", None),
    ("sitelasso.cli", "evaluate_transfer", "pipeline.transfer_s", None),
    ("sitelasso.cli", "covariate_support_report", "pipeline.transfer_s", None),
    ("sitelasso.pipeline", "expand_terms", "features.expand_s",
     lambda a, r: {"features.expand_calls": 1}),
    ("sitelasso.pipeline", "filter_collinear", "features.filter_s",
     lambda a, r: {"features.filter_calls": 1, "features.columns_kept": r[0].n_cols}),
    ("sitelasso.pipeline", "assemble_site_blocks", "features.blocks_s", None),
    ("sitelasso.pipeline", "fit_ensemble", "ensemble.fit_self_s", None),
    ("sitelasso.ensemble", "fit_transform", "standardize.fit_s",
     lambda a, r: {"standardize.fit_calls": 1,
                   "standardize.columns_dropped": int(r[1].dropped.sum())}),
    ("sitelasso.ensemble", "apply_transform", "standardize.apply_s",
     lambda a, r: {"standardize.apply_calls": 1}),
    ("sitelasso.ensemble", "lar_lasso_path", "lars.path_s",
     lambda a, r: {"lars.paths": 1, "lars.knots": len(r.knots),
                   "lars.degenerate_stops": int(r.degenerate_stop),
                   "lars.step_cap_hits": int(r.max_steps_reached)}),
    ("sitelasso.ensemble", "select_knot", "ensemble.select_s",
     lambda a, r: {"ensemble.knots_scored": len(a[0].knots)}),
    ("sitelasso.ensemble", "member_predictions", "ensemble.member_predict_s",
     lambda a, r: {"ensemble.member_rows": r.size}),
    ("sitelasso.pipeline", "member_predictions", "ensemble.member_predict_s",
     lambda a, r: {"ensemble.member_rows": r.size}),
    ("sitelasso.pipeline", "model_average", "ensemble.member_predict_s", None),
    ("sitelasso.gridpredict", "model_average", "ensemble.member_predict_s",
     lambda a, r: {"gridpredict.pixels_predicted": r.size}),
    ("sitelasso.cli", "predict_raster", "gridpredict.predict_s",
     lambda a, r: {"gridpredict.pixels_out": _valid_cells(r)}),
    ("sitelasso.cli", "predict_raster_two_stage", "gridpredict.predict_s",
     lambda a, r: {"gridpredict.pixels_out": _valid_cells(r)}),
    ("sitelasso.gridpredict", "predict_raster", "gridpredict.predict_s", None),
    ("sitelasso.cli", "write_residuals_csv", "pipeline.write_s", None),
    ("sitelasso.cli", "write_method_comparison_csv", "pipeline.write_s", None),
    ("sitelasso.cli", "write_support_csv", "pipeline.write_s", None),
    ("sitelasso.cli", "write_selection_csv", "pipeline.write_s", None),
    ("sitelasso.cli", "write_size_histogram_csv", "pipeline.write_s", None),
    ("sitelasso.cli", "write_transform_csv", "pipeline.write_s", None),
    ("sitelasso.cli", "write_removal_log", "pipeline.write_s", None),
    ("sitelasso.cli", "tally_selection", "pipeline.write_s", None),
]

# Inclusive times: a method's whole call, children included.
INCLUSIVE = {
    "sitelasso.cli.run_method1": "pipeline.m1_s",
    "sitelasso.cli.run_method2": "pipeline.m2_s",
    "sitelasso.cli.run_method3": "pipeline.m3_s",
    "sitelasso.cli.run_method4": "pipeline.m4_s",
}

SELF_TIME = {f"{mod}.{attr}": metric for mod, attr, metric, _ in HOOKS}
SELF_TIME[ROOT] = "cli.other_s"

COUNTS = sorted(
    {
        "pointdata.rows_read", "rasters.cells_read", "rasters.cells_written",
        "artifacts.json_bytes", "artifacts.bytes_hashed", "features.expand_calls",
        "features.filter_calls", "features.columns_kept", "standardize.fit_calls",
        "standardize.columns_dropped", "standardize.apply_calls", "lars.paths",
        "lars.knots", "lars.degenerate_stops", "lars.step_cap_hits",
        "ensemble.knots_scored", "ensemble.member_rows",
        "gridpredict.pixels_predicted", "gridpredict.pixels_out",
    }
)


class Tracer:
    """Span and count recorder for one traced command."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = {}
        self.missing = []

    def wrap(self, fn, name, counter=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = [start, end]
            if counter is not None:
                for key, n in counter(args, result).items():
                    counts[key] = counts.get(key, 0) + n
            return result

        return traced

    def install(self, import_module):
        """Wrap every hook target that exists; record the rest as missing."""
        for mod_name, attr, _metric, counter in HOOKS:
            name = f"{mod_name}.{attr}"
            try:
                module = import_module(mod_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            setattr(module, attr, self.wrap(fn, name, counter))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "missing": self.missing}, handle)


def aggregate(traces):
    """Per-layer metrics summed over the span files of several commands.

    Returns (metrics, command_s, missing): metric name -> value, the summed
    root-span time, and the hook names that were not found.
    """
    metrics = {m: 0.0 for m in set(SELF_TIME.values()) | set(INCLUSIVE.values())}
    metrics.update({m: 0 for m in COUNTS})
    command_s = 0.0
    missing = set()
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for k, (name, start, end, parent) in enumerate(spans):
            metrics[SELF_TIME[name]] += (end - start) - child_time[k]
            if name in INCLUSIVE:
                metrics[INCLUSIVE[name]] += end - start
            if parent < 0:
                command_s += end - start
        for key, n in trace["counts"].items():
            metrics[key] += n
        missing.update(trace["missing"])
    metrics["lars.knots_per_path"] = metrics["lars.knots"] / max(metrics["lars.paths"], 1)
    metrics["gridpredict.pixels_per_output"] = (
        metrics["gridpredict.pixels_predicted"] / max(metrics["gridpredict.pixels_out"], 1)
    )
    return metrics, command_s, sorted(missing)
