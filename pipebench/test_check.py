"""Tests of the benchmark's output checker and tracer on a tiny workload.

Run from the repository root:  python3 -m pytest pipebench
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

from run import SRC, Bench
from tracing import SELF_TIME, Tracer, aggregate
from workloads import SITE_CODES, Workload

sys.path.insert(0, SRC)

from sitelasso import artifacts  # noqa: E402

from check import Checker  # noqa: E402

# 60+56 points and 6 splits on a 24x18 grid, so that a recheck can test every
# raster cell and every split.
TINY = Workload(
    "tiny", "checker tests", n_splits=6,
    synth={"n_site1": 60, "n_site2": 56, "ncols": 24, "nrows": 18, "cellsize": 50,
           "gap_cols": 2},
)
SEED = 3


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    bench = Bench(TINY, SEED, work=str(tmp_path_factory.mktemp("tiny") / "work"))
    bench.setup()
    assert bench.iteration() is not None
    return bench


def rechecked(bench, tmp_path, edit):
    """Copy the run directory, apply ``edit``, re-hash it and check it again."""
    run_dir = str(tmp_path / "run")
    shutil.copytree(bench.run_dir, run_dir)
    edit(run_dir)
    manifest = artifacts.read_json(os.path.join(run_dir, "manifest.json"))
    extra = {k: v for k, v in manifest.items() if k not in ("config", "outputs")}
    artifacts.write_json(
        os.path.join(run_dir, "manifest.json"),
        artifacts.build_manifest(run_dir, manifest["config"], extra),
    )
    return Checker(
        study_dir=bench.study, target_dir=bench.target, run_dir=run_dir,
        transfer_dir=bench.transfer_dir, site_codes=SITE_CODES, seed=SEED,
        pixel_sample=24 * 18, kkt_sample=TINY.n_splits,
    ).check()


def test_untouched_outputs_pass(finished):
    assert finished.failed == 0
    assert finished.failures == []


def test_unchanged_copy_passes(finished, tmp_path):
    assert rechecked(finished, tmp_path, lambda run_dir: None) == []


def test_rejects_a_perturbed_residual_prediction(finished, tmp_path):
    def edit(run_dir):
        path = os.path.join(run_dir, "residuals_m2.csv")
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        cells = lines[4].split(",")
        cells[4] = "%.17g" % (float(cells[4]) * (1 + 1e-7))
        lines[4] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    failures = rechecked(finished, tmp_path, edit)
    assert any(f.startswith("residuals_m2.csv predicted: element 3") for f in failures)


def test_rejects_a_perturbed_raster_cell(finished, tmp_path):
    def edit(run_dir):
        path = os.path.join(run_dir, "prediction_m4.asc")
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        row = lines[6 + 9].split()
        row[5] = "%.17g" % (float(row[5]) + 1e-8)
        lines[6 + 9] = " ".join(row)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    failures = rechecked(finished, tmp_path, edit)
    assert any(f.startswith("prediction_m4.asc: sampled cell") for f in failures)


def test_rejects_weights_that_are_not_inverse_sse(finished, tmp_path):
    def edit(run_dir):
        path = os.path.join(run_dir, "ensemble_m2.json")
        payload = artifacts.read_json(path)
        payload["weights"][0] += 1e-11  # too small for any prediction check to see
        payload["weights"][1] -= 1e-11
        artifacts.write_json(path, payload)

    failures = rechecked(finished, tmp_path, edit)
    assert failures == ["m2: weights are not normalised inverse validation SSE"]


def test_missing_hook_is_reported_not_raised():
    import types

    present = types.SimpleNamespace()

    def import_module(name):
        if name == "sitelasso.cli":
            raise ImportError(name)
        return present

    tracer = Tracer()
    tracer.install(import_module)
    assert "sitelasso.cli.read_points_csv" in tracer.missing
    assert "sitelasso.ensemble.lar_lasso_path" in tracer.missing


def test_self_times_add_up_to_the_command_time():
    tracer = Tracer()
    lars = tracer.wrap(lambda: sum(range(1000)), "sitelasso.ensemble.lar_lasso_path")
    fit = tracer.wrap(lambda: [lars() for _ in range(3)], "sitelasso.pipeline.fit_ensemble")
    main = tracer.wrap(lambda: fit(), "sitelasso.cli.main")
    main()
    trace = {"spans": tracer.spans, "counts": tracer.counts, "missing": []}
    metrics, command_s, _ = aggregate([json.loads(json.dumps(trace))])
    self_sum = sum(metrics[m] for m in set(SELF_TIME.values()))
    assert np.isclose(self_sum, command_s, rtol=1e-12)
    assert metrics["lars.path_s"] > 0 and metrics["ensemble.fit_self_s"] > 0
