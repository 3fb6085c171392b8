"""Command-line entry point.

Subcommands
-----------
run       fit the requested site-effect methods end to end from a config file
synth     generate a seeded synthetic two-site dataset with known truth
transfer  score a saved single-site ensemble on another dataset

Exit codes: 0 success, 1 numerical failure, 2 configuration error,
3 data error. Every failure prints a single diagnostic line to stderr.
"""

import argparse
import glob
import os
import shutil
import sys

import numpy as np

from . import artifacts
from .config import (
    ENV_OUTPUT_DIR,
    METHOD_LABELS,
    check_output_dir,
    load_run_config,
    load_synth_spec,
)
from .ensemble import tally_selection, write_selection_csv, write_size_histogram_csv
from .errors import ConfigError, DataError, NumericalError, SiteLassoError
from .features import write_removal_log
from .gridpredict import (
    check_registration,
    prediction_rows,
    site_specific,
    sites_from_raster,
)
from .pipeline import (
    COMBINED,
    RunDesigns,
    covariate_support_report,
    evaluate_transfer,
    run_method1,
    run_method2,
    run_method3,
    run_method4,
    write_method_comparison_csv,
    write_residuals_csv,
    write_support_csv,
)
from .pointdata import format_float, read_points_csv, write_csv
from .rasters import read_ascii_grid, write_ascii_grid, write_ascii_rows
from .splits import make_splits, plan_to_dict
from .standardize import write_transform_csv
from .synthetic import generate_synthetic

_EXIT_BY_ERROR = ((ConfigError, 2), (DataError, 3), (NumericalError, 1))


def _tag(label):
    return label.replace("-", "_")


def _read_rasters(rasters_dir):
    """(path, grid) pairs of the covariate rasters, in file name order."""
    paths = sorted(glob.glob(os.path.join(rasters_dir, "*.asc")))
    if not paths:
        raise DataError(f"no .asc rasters found in {rasters_dir}")
    return [(path, read_ascii_grid(path)) for path in paths]


def _quota_for(config, site, n_rows):
    if site in config.train_quota_by_site:
        return config.train_quota_by_site[site]
    if config.train_quota > 0:
        return config.train_quota
    return max(1, round(2 * n_rows / 3))


def _write_ensemble_files(run_dir, label, run):
    """Selection tallies, size histograms, transform audits, artifacts."""
    for sub_label, site, ens in run.ensembles_by_label():
        tag = _tag(label) if not sub_label else f"{_tag(label)}_{sub_label}"
        freq, sizes = tally_selection(ens)
        write_selection_csv(os.path.join(run_dir, f"selection_{tag}.csv"), freq)
        write_size_histogram_csv(
            os.path.join(run_dir, f"subset_sizes_{tag}.csv"), sizes
        )
        write_transform_csv(
            os.path.join(run_dir, f"transforms_{tag}_v1.csv"), ens.transforms[0]
        )
        payload = artifacts.ensemble_to_dict(ens)
        payload["method"] = label
        payload["site"] = site
        artifacts.write_json(os.path.join(run_dir, f"ensemble_{tag}.json"), payload)
    write_removal_log(
        os.path.join(run_dir, f"removal_log_{_tag(label)}.csv"), run.removal_records
    )


def _write_prediction_raster(run_dir, label, run, rasters, sites):
    """Write a method's prediction raster a block of rows at a time.

    ``sites`` is the site raster's ``(names, codes)``, or None without one;
    a prediction that is not site-specific reads no site codes.
    """
    stages = run.stages
    if not site_specific(stages):
        sites = None
    elif sites is None:
        return f"{label}: needs site_raster"
    path = os.path.join(run_dir, f"prediction_{_tag(label)}.asc")
    write_ascii_rows(path, *prediction_rows(stages, rasters, sites))
    return None


def cmd_run(args):
    config = load_run_config(args.config, args.output_dir)
    data = read_points_csv(config.points)
    sites = data.sites()
    if len(sites) != 2:
        raise DataError(f"run expects exactly two sites, found {len(sites)}")
    config.check_sites(sites)
    quotas = {s: _quota_for(config, s, len(data.site_rows(s))) for s in sites}
    plan = make_splits(data, quotas, config.n_splits, config.seed)

    # Every raster fault ends the run here, before anything is fitted or
    # written, whether or not a requested method reads the faulty raster.
    # Of the site raster only its site names and int8 codes are kept. They
    # are made before the covariate rasters are read, so its float grid is
    # freed first: read last, whether its memory went back to the system hung
    # on where malloc put the codes, about 1 MB of `run`'s peak RSS.
    rasters = pixel_sites = None
    grids = []
    if config.site_raster:
        site_grid = read_ascii_grid(config.site_raster)
        pixel_sites = sites_from_raster(site_grid, config.site_codes)
        # its geometry alone, for the registration check
        shape = site_grid.values.shape
        site_grid = site_grid.with_values(np.broadcast_to(site_grid.nodata, shape))
    if config.rasters_dir:
        grids = _read_rasters(config.rasters_dir)
        rasters = {os.path.splitext(os.path.basename(p))[0]: g for p, g in grids}
    if config.site_raster:
        grids.append((config.site_raster, site_grid))
    check_registration(grids)

    # Expanding the terms rejects a non-finite covariate, and filtering each
    # row set the requested methods train on rejects a design that filters to
    # nothing, also before writing. The filtered designs are kept for the
    # fits, and each filter seeds its own generator, so no output depends on
    # the order. Every row is filtered first: the order moves only where the
    # allocator places the designs, and in the methods' order (sites first)
    # the peak RSS of `run` on pipebench's wide workload read higher in 3 of
    # 4 directory layouts measured.
    site_by_label = {"m1-b1": sites[0], "m1-b2": sites[1]}
    requested = [m for m in METHOD_LABELS if m in config.methods]
    try:
        designs = RunDesigns(
            data,
            threshold=config.correlation_threshold,
            hierarchy=config.hierarchy or None,
            max_order=config.max_order,
            filter_seed=config.seed,
        )
        row_sets = dict.fromkeys(site_by_label.get(m) for m in requested)
        for row_set in reversed(row_sets):
            designs.filtered(row_set)
    except DataError as exc:
        raise DataError(f"{config.points}: {exc}") from None

    run_dir = config.output_dir
    os.makedirs(run_dir, exist_ok=True)
    shutil.copyfile(config.points, os.path.join(run_dir, "points.csv"))
    artifacts.write_json(os.path.join(run_dir, "splits.json"), plan_to_dict(plan))

    table = {}
    columns = []
    notes = {}
    runs = {}
    m2_run = None
    for label in requested:
        transfer = {}
        if label.startswith("m1-"):
            run = run_method1(designs, site_by_label[label], plan, config.workers)
            other = sites[1] if run.site == sites[0] else sites[0]
            transfer[other] = evaluate_transfer(
                run.ensemble, data.subset(data.site_rows(other))
            ).metrics
        elif label == "m2":
            run = m2_run = run_method2(designs, plan, config.workers)
        elif label == "m3":
            run = run_method3(designs, plan, config.workers, stage1=m2_run)
            notes["m3_stage1_source"] = "m2" if m2_run is not None else "internal"
        else:
            run = run_method4(designs, plan, config.workers)
        runs[label] = run
        _write_ensemble_files(run_dir, label, run)
        for column, predictions, metrics in run.reports(label):
            table[column] = dict(metrics)
            columns.append(column)
            write_residuals_csv(
                os.path.join(run_dir, f"residuals_{_tag(column)}.csv"),
                data,
                run.row_ids,
                predictions,
            )
        table[label].update(transfer)

    targets = sites + [COMBINED]
    write_method_comparison_csv(
        os.path.join(run_dir, "metrics.csv"), table, targets, columns
    )

    # Rasters are printed after the last fit. Printed after each method, the
    # printer's code pages and heap came before m4's fit: +0.3-0.6 MB peak RSS.
    skipped = []
    if rasters is not None:
        for label, run in runs.items():
            note = _write_prediction_raster(run_dir, label, run, rasters, pixel_sites)
            if note:
                skipped.append(note)
    if skipped:
        notes["rasters_skipped"] = skipped

    manifest = artifacts.build_manifest(
        run_dir,
        config.echo(),
        extra={
            "sites": sites,
            "quotas": quotas,
            "method_sites": {m: site_by_label[m] for m in requested if m in site_by_label},
            **notes,
        },
    )
    artifacts.write_json(os.path.join(run_dir, "manifest.json"), manifest)

    for label in columns:
        cells = table[label]
        summary = "  ".join(
            f"{t}: R2={cells[t].r2:.4f} RMSE={cells[t].rmse:.4f}"
            for t in targets
            if t in cells
        )
        print(f"{label:7s} {summary}")
    print(f"run complete: {len(manifest['outputs'])} files in {run_dir}")
    return 0


def cmd_synth(args):
    spec, out_dir = load_synth_spec(args.spec, args.output_dir)
    points, rasters, site_raster, truth = generate_synthetic(spec)
    os.makedirs(out_dir, exist_ok=True)
    rasters_dir = os.path.join(out_dir, "rasters")
    os.makedirs(rasters_dir, exist_ok=True)
    # local: pipebench hooks pointdata.write_points_csv after importing this module
    from .pointdata import write_points_csv

    write_points_csv(os.path.join(out_dir, "points.csv"), points)
    for name in sorted(rasters):
        write_ascii_grid(os.path.join(rasters_dir, f"{name}.asc"), rasters[name])
    write_ascii_grid(os.path.join(out_dir, "site.asc"), site_raster)
    artifacts.write_json(os.path.join(out_dir, "truth.json"), truth)
    manifest = artifacts.build_manifest(out_dir, truth)
    artifacts.write_json(os.path.join(out_dir, "manifest.json"), manifest)
    n1, n2 = spec.n_site1, spec.n_site2
    print(
        f"synthetic dataset: {n1}+{n2} points, {len(rasters)} covariate rasters "
        f"({spec.ncols}x{spec.nrows}) in {out_dir}"
    )
    return 0


def _load_m1_ensemble(path):
    """(source site, Ensemble) of one method-1 artifact; its payload is dropped.

    Any fault in the file, malformed JSON included, is one DataError naming it.
    """
    try:
        payload = artifacts.read_json(path)
        if not isinstance(payload, dict):
            raise DataError("not a JSON object")
        ens = artifacts.ensemble_from_dict(payload)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{path}: ensemble artifact has no key {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise DataError(f"{path}: malformed ensemble artifact ({exc})") from None
    name = os.path.splitext(os.path.basename(path))[0]
    return payload.get("site") or name.replace("ensemble_m1_", ""), ens


def cmd_transfer(args):
    out_dir = args.output_dir or os.environ.get(ENV_OUTPUT_DIR, "") or args.run_dir
    check_output_dir(out_dir)
    target = read_points_csv(args.target)
    paths = sorted(glob.glob(os.path.join(args.run_dir, "ensemble_m1_*.json")))
    if not paths:
        raise DataError(f"no method-1 ensemble artifacts in {args.run_dir}")
    # Everything is loaded, checked and scored before the output directory is
    # made, so a bad artifact or target leaves no half-written directory.
    sources = [_load_m1_ensemble(path) for path in paths]
    source_points_path = os.path.join(args.run_dir, "points.csv")
    source_data = (
        read_points_csv(source_points_path)
        if os.path.exists(source_points_path)
        else None
    )
    rows = []
    report = None
    for source_site, ens in sources:
        result = evaluate_transfer(ens, target)
        rows.append(
            (
                source_site,
                result.target_site,
                result.metrics.r2,
                result.metrics.rmse,
                result.metrics.n,
            )
        )
        # the predictions are not written; free them before the support report
        del result
        if source_data is not None and report is None:
            for tsite in target.sites():
                if tsite == source_site or source_site not in source_data.sites():
                    continue
                report = covariate_support_report(
                    (source_data, source_site), (target, tsite), ens.terms
                )
                break
    os.makedirs(out_dir, exist_ok=True)
    if report is not None:
        write_support_csv(os.path.join(out_dir, "support_report.csv"), report)
    metrics_path = os.path.join(out_dir, "transfer_metrics.csv")
    write_csv(
        metrics_path,
        ["source_site", "target", "r2", "rmse", "n"],
        (
            [source_site, tgt, format_float(r2), format_float(rmse), n]
            for source_site, tgt, r2, rmse, n in rows
        ),
    )
    for source_site, tgt, r2, rmse, n in rows:
        print(f"{source_site} -> {tgt}: R2={r2:.4f} RMSE={rmse:.4f} (n={n})")
    print(f"transfer metrics in {metrics_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sitelasso",
        description=(
            "Two-site interpolation with LASSO-regularized multiple linear "
            "regression: cross-validated model selection, inverse-SSE model "
            "averaging, and full-cover raster prediction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="fit methods from a config file")
    p_run.add_argument("config", help="key-value run configuration file")
    p_run.add_argument(
        "--output-dir", default=None, help="override output_dir / " + ENV_OUTPUT_DIR
    )
    p_run.set_defaults(func=cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("spec", help="key-value generator spec file")
    p_synth.add_argument(
        "--output-dir", default=None, help="override output_dir / " + ENV_OUTPUT_DIR
    )
    p_synth.set_defaults(func=cmd_synth)

    p_tr = sub.add_parser("transfer", help="score a saved m1 ensemble elsewhere")
    p_tr.add_argument("run_dir", help="a completed run directory")
    p_tr.add_argument("target", help="target points CSV")
    p_tr.add_argument(
        "--output-dir", default=None, help="where to write transfer outputs"
    )
    p_tr.set_defaults(func=cmd_transfer)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SiteLassoError as exc:
        for err_type, code in _EXIT_BY_ERROR:
            if isinstance(exc, err_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
