import csv
import filecmp
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest
from _toys import quickstart_config

import sitelasso
from sitelasso import artifacts, pipeline
from sitelasso.cli import _EXIT_BY_ERROR, main
from sitelasso.ensemble import linear_form
from sitelasso.errors import ConfigError, DataError, NumericalError

SYNTH_SPEC = """\
seed = 1
n_site1 = 26
n_site2 = 24
n_covariates = 3
length_scale = 120
noise_sd = 0.2
ncols = 16
nrows = 12
coef.cov0 = 2.0
coef.cov1 = 1.2
site_coef.B2.cov2 = 0.8
"""

RUN_CFG = """\
points = {points}
output_dir = {out}
n_splits = 16
max_order = 3
seed = 2
rasters_dir = {rasters}
site_raster = {site}
site_codes = 1:B1, 2:B2
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset plus one full run, shared by the read-only tests."""
    base = tmp_path_factory.mktemp("cli")
    synth_dir = base / "synth"
    spec = base / "synth.cfg"
    spec.write_text(SYNTH_SPEC + f"output_dir = {synth_dir}\n")
    assert main(["synth", str(spec)]) == 0

    run_dir = base / "run"
    cfg = base / "run.cfg"
    cfg.write_text(
        RUN_CFG.format(
            points=synth_dir / "points.csv",
            out=run_dir,
            rasters=synth_dir / "rasters",
            site=synth_dir / "site.asc",
        )
    )
    assert main(["run", str(cfg)]) == 0
    return {"base": base, "synth": synth_dir, "run": run_dir, "cfg": cfg}


def rerun_into(workspace, out_dir, extra=""):
    cfg = workspace["base"] / f"rerun_{os.path.basename(out_dir)}.cfg"
    cfg.write_text(
        RUN_CFG.format(
            points=workspace["synth"] / "points.csv",
            out=out_dir,
            rasters=workspace["synth"] / "rasters",
            site=workspace["synth"] / "site.asc",
        )
        + extra
    )
    assert main(["run", str(cfg)]) == 0


def comparable_files(run_dir):
    out = []
    for root, _, files in os.walk(run_dir):
        for name in files:
            if name == "manifest.json":
                continue
            path = os.path.join(root, name)
            out.append(os.path.relpath(path, run_dir))
    return sorted(out)


def test_synth_outputs_and_manifest(workspace):
    synth = workspace["synth"]
    for name in ("points.csv", "site.asc", "truth.json", "manifest.json"):
        assert (synth / name).exists()
    rasters = sorted(os.listdir(synth / "rasters"))
    assert rasters == ["cov0.asc", "cov1.asc", "cov2.asc"]
    assert artifacts.verify_manifest(str(synth)) == []


def test_run_writes_every_method_artifact(workspace):
    run = workspace["run"]
    expected = {
        "points.csv",
        "splits.json",
        "metrics.csv",
        "manifest.json",
        "residuals_m3_oos.csv",
    }
    for tag in ("m1_b1", "m1_b2", "m2", "m4"):
        expected |= {
            f"selection_{tag}.csv",
            f"subset_sizes_{tag}.csv",
            f"transforms_{tag}_v1.csv",
            f"ensemble_{tag}.json",
            f"removal_log_{tag}.csv",
            f"residuals_{tag}.csv",
            f"prediction_{tag}.asc",
        }
    expected |= {"removal_log_m3.csv", "residuals_m3.csv", "prediction_m3.asc"}
    for site_tag in ("m3_stage2_B1", "m3_stage2_B2"):
        expected |= {
            f"selection_{site_tag}.csv",
            f"subset_sizes_{site_tag}.csv",
            f"transforms_{site_tag}_v1.csv",
            f"ensemble_{site_tag}.json",
        }
    have = set(os.listdir(run)) - {"rasters"}
    missing = expected - have
    assert not missing, f"missing outputs: {sorted(missing)}"


def test_run_manifest_lists_and_hashes_everything(workspace):
    run = workspace["run"]
    manifest = artifacts.read_json(run / "manifest.json")
    assert artifacts.verify_manifest(str(run)) == []
    assert manifest["sites"] == ["B1", "B2"]
    assert manifest["m3_stage1_source"] == "m2"
    assert manifest["method_sites"] == {"m1-b1": "B1", "m1-b2": "B2"}
    assert manifest["config"]["n_splits"] == 16


def test_metrics_table_shape(workspace):
    with open(workspace["run"] / "metrics.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    assert header[0] == "target"
    labels = [h[: -len("_r2")] for h in header[1::2]]
    assert labels == ["m1-b1", "m1-b2", "m2", "m3", "m3-oos", "m4"]
    targets = [r[0] for r in rows[1:]]
    assert targets == ["B1", "B2", "combined"]
    by_target = {r[0]: r for r in rows[1:]}
    # m1 fills the other site's row through transfer, so no cell is NA
    assert "NA" not in by_target["B1"] and "NA" not in by_target["B2"]


def test_rerun_is_byte_identical(workspace):
    other = workspace["base"] / "run_again"
    rerun_into(workspace, other)
    first = workspace["run"]
    names = comparable_files(first)
    assert names == comparable_files(other)
    diff = [
        n for n in names if not filecmp.cmp(first / n, other / n, shallow=False)
    ]
    assert diff == []


def test_run_expands_once_and_filters_once_per_row_set(workspace, monkeypatch):
    calls = {"expand_terms": 0, "filter_collinear": 0}

    def counting(name):
        fn = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(name))
    rerun_into(workspace, workspace["base"] / "run_counted")
    # one expansion; one filter for each site (m1) and one for all rows (m2-m4)
    assert calls == {"expand_terms": 1, "filter_collinear": 3}


def test_method3_alone_fits_its_own_stage1(workspace):
    alone = workspace["base"] / "run_m3"
    rerun_into(workspace, alone, extra="methods = m3\n")
    manifest = artifacts.read_json(alone / "manifest.json")
    assert manifest["m3_stage1_source"] == "internal"
    assert artifacts.verify_manifest(str(alone)) == []
    names = [n for n in comparable_files(alone) if "m3" in n]
    for name in (
        "ensemble_m3_stage2_B1.json",
        "ensemble_m3_stage2_B2.json",
        "residuals_m3.csv",
        "residuals_m3_oos.csv",
        "prediction_m3.asc",
    ):
        assert name in names
    full = workspace["run"]
    diff = [n for n in names if not filecmp.cmp(full / n, alone / n, shallow=False)]
    assert diff == []


def test_run_without_a_site_raster_skips_only_site_specific_rasters(workspace):
    out = workspace["base"] / "run_no_site_raster"
    cfg = workspace["base"] / "run_no_site_raster.cfg"
    lines = RUN_CFG.format(
        points=workspace["synth"] / "points.csv",
        out=out,
        rasters=workspace["synth"] / "rasters",
        site="",
    ).splitlines(keepends=True)
    cfg.write_text("".join(l for l in lines if not l.startswith("site_")))
    assert main(["run", str(cfg)]) == 0
    # m1 and m2 read no site codes, so the site raster does not change them
    for tag in ("m1_b1", "m1_b2", "m2"):
        name = f"prediction_{tag}.asc"
        assert filecmp.cmp(workspace["run"] / name, out / name, shallow=False)
    assert not (out / "prediction_m3.asc").exists()
    m4 = artifacts.ensemble_from_dict(artifacts.read_json(out / "ensemble_m4.json"))
    m4_scoped = bool(linear_form(m4).sites)
    assert (out / "prediction_m4.asc").exists() != m4_scoped
    expected = ["m3: needs site_raster"] + ["m4: needs site_raster"] * m4_scoped
    manifest = artifacts.read_json(out / "manifest.json")
    assert manifest["rasters_skipped"] == expected
    assert artifacts.verify_manifest(str(out)) == []


def test_worker_count_does_not_change_outputs(workspace):
    other = workspace["base"] / "run_workers"
    rerun_into(workspace, other, extra="workers = 3\n")
    first = workspace["run"]
    names = comparable_files(first)
    assert names == comparable_files(other)
    diff = [
        n for n in names if not filecmp.cmp(first / n, other / n, shallow=False)
    ]
    assert diff == []


def test_transfer_matches_run_metrics(workspace, tmp_path):
    run = workspace["run"]
    out = tmp_path / "transfer"
    assert main(["transfer", str(run), str(run / "points.csv"), "--output-dir", str(out)]) == 0
    with open(out / "transfer_metrics.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["source_site", "target", "r2", "rmse", "n"]
    by_source = {r[0]: r for r in rows[1:]}
    assert set(by_source) == {"b1", "b2"} or set(by_source) == {"B1", "B2"}
    # the target CSV holds both sites, so the score is over the combined rows
    assert all(r[1] == "combined" for r in rows[1:])
    assert (out / "support_report.csv").exists()


def test_transfer_single_site_target_equals_metrics_row(workspace, tmp_path):
    run = workspace["run"]
    # carve a B2-only target CSV out of the run's own points
    with open(run / "points.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    target = tmp_path / "b2_only.csv"
    with open(target, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(rows[0])
        site_col = rows[0].index("site")
        writer.writerows(r for r in rows[1:] if r[site_col] == "B2")
    out = tmp_path / "transfer_b2"
    assert main(["transfer", str(run), str(target), "--output-dir", str(out)]) == 0
    with open(out / "transfer_metrics.csv", newline="") as handle:
        trows = list(csv.reader(handle))
    by_source = {r[0]: r for r in trows[1:]}
    # cross-check against metrics.csv: the m1-b1 transfer cell for target B2
    with open(run / "metrics.csv", newline="") as handle:
        mrows = list(csv.reader(handle))
    header = mrows[0]
    b2_row = next(r for r in mrows[1:] if r[0] == "B2")
    r2_col = header.index("m1-b1_r2")
    rmse_col = header.index("m1-b1_rmse")
    src = by_source[next(s for s in by_source if s.endswith("1"))]
    assert src[1] == "B2"
    assert src[2] == b2_row[r2_col]
    assert src[3] == b2_row[rmse_col]


def test_exit_code_2_for_config_errors(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("points = x.csv\noutput_dir = o\nwibble = 1\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "wibble" in err


def test_exit_code_3_for_data_errors(workspace, tmp_path, capsys):
    # single-site points file: structurally valid config, unusable data
    src = workspace["synth"] / "points.csv"
    with open(src, newline="") as handle:
        rows = list(csv.reader(handle))
    site_col = rows[0].index("site")
    solo = tmp_path / "solo.csv"
    with open(solo, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(r for r in rows[1:] if r[site_col] == "B1")
    cfg = tmp_path / "solo.cfg"
    cfg.write_text(f"points = {solo}\noutput_dir = {tmp_path / 'out'}\nn_splits = 4\n")
    assert main(["run", str(cfg)]) == 3
    assert "two sites" in capsys.readouterr().err


def test_exit_code_3_for_a_malformed_raster_token(workspace, tmp_path, capsys):
    rasters = tmp_path / "rasters"
    rasters.mkdir()
    for src in sorted((workspace["synth"] / "rasters").glob("*.asc")):
        (rasters / src.name).write_bytes(src.read_bytes())
    lines = (rasters / "cov1.asc").read_text().splitlines(keepends=True)
    lines[8] = lines[8].replace(" ", " x7 ", 1)
    (rasters / "cov1.asc").write_text("".join(lines))
    cfg = tmp_path / "bad_raster.cfg"
    cfg.write_text(
        RUN_CFG.format(
            points=workspace["synth"] / "points.csv",
            out=tmp_path / "out",
            rasters=rasters,
            site=workspace["synth"] / "site.asc",
        )
    )
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "cov1.asc has a malformed value" in err and "x7" in err


def test_exit_code_3_for_transfer_without_artifacts(tmp_path, workspace, capsys):
    empty = tmp_path / "emptyrun"
    empty.mkdir()
    target = workspace["synth"] / "points.csv"
    assert main(["transfer", str(empty), str(target)]) == 3
    assert "no method-1 ensemble" in capsys.readouterr().err


def test_a_bad_transform_ref_ends_transfer_before_its_output_directory(
    workspace, tmp_path, capsys
):
    # b1's artifact is sound; b2's was the one that failed, after b1's support
    # report had already been written into the new directory. A truncated
    # artifact and one without weights failed with a traceback and exit code 1.
    run = tmp_path / "run"
    shutil.copytree(workspace["run"], run)
    artifact = run / "ensemble_m1_b2.json"
    sound = artifact.read_bytes()
    bad_ref = json.loads(sound)
    bad_ref["models"][1]["transform_ref"] = "xf-0000000000000000"
    no_weights = json.loads(sound)
    del no_weights["weights"]
    short_weights = json.loads(sound)
    short_weights["weights"] = short_weights["weights"][1:]
    # every per-member list holds one entry per model, and there is a model
    surplus_model = json.loads(sound)
    surplus_model["models"].append(surplus_model["models"][0])
    short_rows = json.loads(sound)
    short_rows["validation_rows"] = short_rows["validation_rows"][:3]
    long_errors = json.loads(sound)
    long_errors["validation_errors"].append([])
    no_members = json.loads(sound)
    for key in ("models", "transforms", "weights", "validation_rows", "validation_errors"):
        no_members[key] = []
    faults = [
        (json.dumps(bad_ref), "references transform xf-0000000000000000"),
        (sound[: len(sound) // 2].decode(), "malformed ensemble artifact"),
        (json.dumps(no_weights), "has no key 'weights'"),
        (json.dumps(short_weights), "mismatched weight/model counts"),
        (json.dumps(surplus_model), "mismatched transform/model counts"),
        (json.dumps(short_rows), "mismatched validation row/model counts"),
        (json.dumps(long_errors), "mismatched validation error/model counts"),
        (json.dumps(no_members), "ensemble has no models"),
    ]
    target = workspace["synth"] / "points.csv"
    for content, message in faults:
        artifact.write_text(content, encoding="utf-8")
        out = tmp_path / "transfer"
        assert main(["transfer", str(run), str(target), "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert f"{artifact}: " in err[0]
        assert message in err[0]
        assert not out.exists()


def test_transform_ids_are_sha1_digests_of_the_transform_lines(workspace):
    # the built-in SHA-1 that transform_id uses gives hashlib's digest
    paths = sorted(workspace["run"].glob("ensemble_*.json"))
    assert len(paths) >= 5
    for path in paths:
        payload = artifacts.read_json(path)
        ens = artifacts.ensemble_from_dict(payload)
        for model, xf in zip(payload["models"], ens.transforms, strict=True):
            digest = hashlib.sha1()
            for term, m, s, d in zip(xf.terms, xf.means, xf.norms, xf.dropped):
                digest.update(f"{term.term_id}|{m!r}|{s!r}|{int(d)}\n".encode())
            assert xf.transform_id == "xf-" + digest.hexdigest()[:16]
            assert model["transform_ref"] == xf.transform_id


def test_every_ensemble_artifact_is_rewritten_byte_for_byte(workspace, tmp_path):
    paths = sorted(workspace["run"].glob("ensemble_*.json"))
    assert len(paths) >= 5
    for path in paths:
        payload = artifacts.read_json(path)
        again = artifacts.ensemble_to_dict(artifacts.ensemble_from_dict(payload))
        again["method"], again["site"] = payload["method"], payload["site"]
        copy = tmp_path / path.name
        artifacts.write_json(copy, again)
        assert copy.read_bytes() == path.read_bytes(), path.name


def test_error_to_exit_code_mapping():
    mapping = dict((err, code) for err, code in _EXIT_BY_ERROR)
    assert mapping[ConfigError] == 2
    assert mapping[DataError] == 3
    assert mapping[NumericalError] == 1


def test_synth_env_output_dir(tmp_path, monkeypatch):
    spec = tmp_path / "s.cfg"
    spec.write_text("n_site1 = 4\nn_site2 = 4\nn_covariates = 1\ncoef.cov0 = 1.0\nncols = 6\nnrows = 4\nsite_coef.B2.cov0 = 0.1\n")
    dest = tmp_path / "via_env"
    monkeypatch.setenv("SITELASSO_OUTPUT_DIR", str(dest))
    assert main(["synth", str(spec)]) == 0
    assert (dest / "points.csv").exists()


def package_env():
    """Environment for a child interpreter that imports this sitelasso."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sitelasso.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_importing_the_cli_loads_no_process_pool():
    # the pool is imported only when a fit asks for more than one worker, and
    # the coordinate-descent oracle and its compile switch left the package,
    # and hashlib loads OpenSSL (3.4-3.7 MB of RSS) only to hash files
    unwanted = [
        "concurrent.futures", "sitelasso.cd", "sitelasso._accel", "hashlib", "_hashlib",
    ]
    code = f"import sys, sitelasso.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=package_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def quickstart_data(tmp_path_factory):
    """The dataset configs/synth_quickstart.cfg writes."""
    base = tmp_path_factory.mktemp("quickstart")
    data = base / "quickstart_data"
    assert main(["synth", quickstart_config(base, "synth_quickstart.cfg", output_dir=data)]) == 0
    return data


@pytest.mark.parametrize(
    "site_codes, shifted, culprit",
    [
        ("1: B1", None, "site raster value 2 has no site in the site_codes setting"),
        ("1: B1, 2: B2", "site.asc", "site.asc: xllcorner 5 differs from 0 in "),
        ("1: B1, 2: B2", "rasters/cov1.asc", "rasters/cov1.asc: xllcorner 5 differs from 0 in "),
    ],
    ids=["unmapped_code", "shifted_site_raster", "shifted_covariate_raster"],
)
def test_site_raster_faults_end_with_one_line_and_exit_code_3(
    quickstart_data, tmp_path, capsys, site_codes, shifted, culprit
):
    data = tmp_path / "data"
    shutil.copytree(quickstart_data, data)
    if shifted:
        path = data / shifted
        text, n = re.subn(r"^xllcorner .*$", "xllcorner 5", path.read_text(), flags=re.M)
        assert n == 1
        path.write_text(text)
    # m1-b1 never reads the site raster; a faulty one fails the run all the same
    methods = "m1-b1" if shifted == "site.asc" else "m4"
    cfg = quickstart_config(
        tmp_path, "run_quickstart.cfg", points=data / "points.csv",
        output_dir=tmp_path / "run", methods=methods, n_splits=8,
        rasters_dir=data / "rasters", site_raster=data / "site.asc",
        site_codes=site_codes,
    )
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert culprit in err[0]
    # the fault is found before fitting, so no run directory is started
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "site_codes, extra, culprit",
    [
        ("1: b1, 2: B2", "", "error: site_codes names site 'b1', which "),
        ("1: B1, 2: B2", "train_quota.b1 = 3\n", "error: train_quota.b1 names site 'b1', which "),
    ],
    ids=["site_codes", "train_quota"],
)
def test_a_site_the_points_file_lacks_ends_run_with_exit_code_2(
    quickstart_data, tmp_path, capsys, site_codes, extra, culprit
):
    # 'b1' is a typo for B1: unchecked, b1 pixels would get the intercept of
    # no scoped site, and the quota would be ignored
    cfg = quickstart_config(
        tmp_path, "run_quickstart.cfg", points=quickstart_data / "points.csv",
        output_dir=tmp_path / "run", methods="m4", n_splits=8,
        rasters_dir=quickstart_data / "rasters", site_raster=quickstart_data / "site.asc",
        site_codes=site_codes,
    )
    with open(cfg, "a", encoding="utf-8") as handle:
        handle.write(extra)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(culprit)
    assert err[0].endswith("points.csv does not have (its sites: B1, B2)")
    assert not (tmp_path / "run").exists()


def test_a_site_raster_without_site_codes_ends_run_with_exit_code_2(tmp_path, capsys):
    # synth codes South, its first site name, as 1; coded by the points
    # file's sorted sites (North first), every pixel would get the other
    # site's terms
    data = tmp_path / "data"
    spec = tmp_path / "synth.cfg"
    spec.write_text(f"seed = 3\nsite_names = South, North\nn_covariates = 3\noutput_dir = {data}\n")
    assert main(["synth", str(spec)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"points = {data / 'points.csv'}\noutput_dir = {tmp_path / 'run'}\nmethods = m4\n"
        f"n_splits = 8\nrasters_dir = {data / 'rasters'}\nsite_raster = {data / 'site.asc'}\n"
    )
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: site_raster needs site_codes")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "setting, culprit",
    [
        ("cellsize = -3", "cellsize must be positive, got -3.0"),
        ("cellsize = 0", "cellsize must be positive, got 0.0"),
        ("cellsize = nan", "cellsize must be finite, got nan"),
        ("cellsize = inf", "cellsize must be finite, got inf"),
        ("noise_sd = nan", "noise_sd must be finite, got nan"),
        ("noise_sd = inf", "noise_sd must be finite, got inf"),
        ("intercept = nan", "intercept must be finite, got nan"),
        ("length_scale = nan", "field cov0: length_scale must be finite, got nan"),
        ("length_scale = inf", "field cov0: length_scale must be finite, got inf"),
        ("coef.cov0 = nan", "coef.cov0 must be finite, got nan"),
        ("scale.cov0 = nan", "scale.cov0 must be finite, got nan"),
        ("shift.cov0 = inf", "shift.cov0 must be finite, got inf"),
        ("xllcorner = -inf", "xllcorner must be finite, got -inf"),
    ],
)
def test_a_non_finite_or_non_positive_synth_setting_ends_with_exit_code_2(
    tmp_path, capsys, setting, culprit
):
    out = tmp_path / "data"
    spec = tmp_path / "synth.cfg"
    spec.write_text(f"n_covariates = 3\nncols = 16\nnrows = 12\n{setting}\noutput_dir = {out}\n")
    assert main(["synth", str(spec)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {culprit}"]
    assert not out.exists()


def _edit_lines(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def _malformed_token(data):
    def edit(lines):
        lines[8] = lines[8].replace(" ", " x7 ", 1)
        return lines

    _edit_lines(data / "rasters" / "cov1.asc", edit)


def _four_b1_points(data):
    # 4 B1 rows train on 3: only 4 distinct training sets for 8 splits
    def edit(lines):
        b1 = [line for line in lines[1:] if line.startswith("B1,")]
        return [lines[0], *b1[:4], *(line for line in lines[1:] if line.startswith("B2,"))]

    _edit_lines(data / "points.csv", edit)


def _nan_covariate(data):
    def edit(lines):
        cells = lines[6].split(",")  # data row 5
        assert lines[0].split(",")[6] == "cov2"
        cells[6] = "nan"
        lines[6] = ",".join(cells)
        return lines

    _edit_lines(data / "points.csv", edit)


def _constant_covariates(data):
    # a fully collinear design: every term filters out as constant
    def edit(lines):
        header = lines[0].rstrip("\n").split(",")
        covs = [j for j, name in enumerate(header) if name.startswith("cov")]
        rows = []
        for line in lines[1:]:
            cells = line.rstrip("\n").split(",")
            for j in covs:
                cells[j] = "1.5"
            rows.append(",".join(cells) + "\n")
        return [lines[0], *rows]

    _edit_lines(data / "points.csv", edit)


@pytest.mark.parametrize(
    "fault, code, culprit",
    [
        (_malformed_token, 3, "rasters/cov1.asc has a malformed value"),
        (_four_b1_points, 2, "site B1: only 4 distinct training sets of size 3 from 4 rows"),
        (_nan_covariate, 3, "points.csv: covariate 'cov2' has a non-finite value at row 5"),
        (_constant_covariates, 3,
         "points.csv: empty design after filtering: every column is constant"),
    ],
    ids=[
        "malformed_asc", "too_few_distinct_splits", "non_finite_covariate",
        "constant_covariates",
    ],
)
def test_input_faults_end_before_the_run_directory(
    quickstart_data, tmp_path, capsys, fault, code, culprit
):
    data = tmp_path / "data"
    shutil.copytree(quickstart_data, data)
    fault(data)
    cfg = quickstart_config(
        tmp_path, "run_quickstart.cfg", points=data / "points.csv",
        output_dir=tmp_path / "run", methods="m4", n_splits=8,
        rasters_dir=data / "rasters", site_raster=data / "site.asc",
    )
    assert main(["run", cfg]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert culprit in err[0]
    assert not (tmp_path / "run").exists()


def test_a_max_order_outside_1_to_4_ends_run_before_the_run_directory(
    quickstart_data, tmp_path, capsys
):
    # term expansion rejects these too, but as a data error (exit code 3)
    # prefixed with the points file
    for order in (0, 5):
        cfg = quickstart_config(
            tmp_path, "run_quickstart.cfg", points=quickstart_data / "points.csv",
            output_dir=tmp_path / "run", max_order=order,
        )
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: max_order must be in 1..4, got {order}"]
        assert not (tmp_path / "run").exists()


def test_a_negative_seed_ends_run_and_synth_with_exit_code_2(
    quickstart_data, tmp_path, capsys
):
    # numpy's SeedSequence used to reject these with a traceback and exit code 1
    cfg = quickstart_config(
        tmp_path, "run_quickstart.cfg", points=quickstart_data / "points.csv",
        output_dir=tmp_path / "run", seed=-1,
    )
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]
    assert not (tmp_path / "run").exists()
    spec = quickstart_config(tmp_path, "synth_quickstart.cfg", output_dir=tmp_path / "data", seed=-3)
    assert main(["synth", spec]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -3"]
    assert not (tmp_path / "data").exists()


def test_run_and_transfer_do_not_load_numpy_ma(workspace, tmp_path):
    # numpy.ma costs about 1.3 MB of RSS; np.setdiff1d and np.quantile load
    # it through np.unique. transfer also leaves OpenSSL unloaded (3.4-3.7 MB);
    # run loads it to hash its outputs.
    code = (
        "import sys; from sitelasso.cli import main; rc = main(sys.argv[1:]); "
        "print(rc, [m for m in ('numpy.ma', 'hashlib', '_hashlib') if m in sys.modules])"
    )
    run_dir = tmp_path / "run"
    commands = [
        (["run", str(workspace["cfg"]), "--output-dir", str(run_dir)],
         "0 ['hashlib', '_hashlib']"),
        (["transfer", str(run_dir), str(workspace["synth"] / "points.csv"),
          "--output-dir", str(tmp_path / "transfer")], "0 []"),
    ]
    for args, expected in commands:
        out = subprocess.run(
            [sys.executable, "-c", code, *args],
            env=package_env(), capture_output=True, text=True, check=True,
        )
        assert out.stdout.splitlines()[-1] == expected, args
    assert (tmp_path / "transfer" / "support_report.csv").exists()


def test_run_loads_no_numpy_random_and_transfer_no_hashlib(workspace, tmp_path):
    # run draws its splits and tie-breaks from sitelasso.rng: numpy.random
    # would load secrets and hmac, and through them OpenSSL, for about 6 MB of
    # RSS. transfer hashes nothing, so it loads none of them
    code = (
        "import sys; from sitelasso.cli import main; rc = main(sys.argv[1:]); "
        "print(rc, [m for m in ('numpy.random', 'secrets', 'hmac', 'hashlib') "
        "if m in sys.modules])"
    )
    run_dir = tmp_path / "run"
    commands = [
        (["run", str(workspace["cfg"]), "--output-dir", str(run_dir)], "0 ['hashlib']"),
        (["transfer", str(run_dir), str(workspace["synth"] / "points.csv"),
          "--output-dir", str(tmp_path / "transfer")], "0 []"),
    ]
    for args, expected in commands:
        out = subprocess.run(
            [sys.executable, "-c", code, *args],
            env=package_env(), capture_output=True, text=True, check=True,
        )
        assert out.stdout.splitlines()[-1] == expected, args


def test_quickstart_paths_end_without_a_degenerate_stop(quickstart_data, tmp_path):
    """No quickstart m4 path ends with a "path ended early ... degenerate" warning.

    With an absolute stopping tolerance, four of these paths stepped on past
    the least-squares fit into rank-deficient geometry and each warned. Since
    ``lars.LSQ_FLOOR``, a degenerate step at lambda <= 1e-9 * lambda_0 is an
    ordinary end, so "degenerate" here means a failure above that floor: a
    path that had not yet reached the least-squares fit. One m4 path (seed 7,
    knot 152) fails at 1.7 * CORR_TOL * lambda_0 and ends under that rule.
    """
    run = quickstart_config(
        tmp_path, "run_quickstart.cfg", points=quickstart_data / "points.csv",
        output_dir=tmp_path / "run", methods="m4", rasters_dir="", site_raster="",
        site_codes="",
    )
    out = subprocess.run(
        [sys.executable, "-m", "sitelasso.cli", "run", run],
        env=package_env(), capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert "ended early" not in out.stderr and "degenerate" not in out.stderr


def _tree(root):
    """Every file under ``root`` with its bytes, by relative path."""
    out = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


def _run_into_a_file(workspace, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        RUN_CFG.format(
            points=workspace["synth"] / "points.csv",
            out=tmp_path / "unused",
            rasters=workspace["synth"] / "rasters",
            site=workspace["synth"] / "site.asc",
        )
    )
    return ["run", str(cfg), "--output-dir", str(taken)], taken


def _run_over_its_own_points(workspace, tmp_path):
    study = tmp_path / "study"
    study.mkdir()
    shutil.copyfile(workspace["synth"] / "points.csv", study / "points.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        RUN_CFG.format(
            points=study / "points.csv",
            out=study,
            rasters=workspace["synth"] / "rasters",
            site=workspace["synth"] / "site.asc",
        )
    )
    return ["run", str(cfg)], study / "points.csv"


def _synth_into_a_file(workspace, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    spec = tmp_path / "synth.cfg"
    spec.write_text(SYNTH_SPEC + f"output_dir = {tmp_path / 'unused'}\n")
    return ["synth", str(spec), "--output-dir", str(taken)], taken


def _synth_under_a_file(workspace, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    spec = tmp_path / "synth.cfg"
    spec.write_text(SYNTH_SPEC + f"output_dir = {taken / 'sub'}\n")
    return ["synth", str(spec)], taken


def _synth_over_a_rasters_file(workspace, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "rasters").write_text("not a directory\n")
    spec = tmp_path / "synth.cfg"
    spec.write_text(SYNTH_SPEC + f"output_dir = {out}\n")
    return ["synth", str(spec)], out / "rasters"


def _transfer_into_a_file(workspace, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    target = workspace["synth"] / "points.csv"
    return ["transfer", str(workspace["run"]), str(target), "--output-dir", str(taken)], taken


@pytest.mark.parametrize(
    "collide",
    [
        _run_into_a_file,
        _run_over_its_own_points,
        _synth_into_a_file,
        _synth_under_a_file,
        _synth_over_a_rasters_file,
        _transfer_into_a_file,
    ],
    ids=["run_into_a_file", "run_over_its_own_points", "synth_into_a_file",
         "synth_under_a_file", "synth_over_a_rasters_file", "transfer_into_a_file"],
)
def test_an_output_directory_collision_ends_with_exit_code_2_before_any_work(
    workspace, tmp_path, capsys, collide
):
    argv, culprit = collide(workspace, tmp_path)
    before, run_before = _tree(tmp_path), _tree(workspace["run"])
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert str(culprit) in err[0]
    assert _tree(tmp_path) == before and _tree(workspace["run"]) == run_before

