"""``sitelasso transfer`` against the whole-array reference, byte for byte.

The command holds each target value once: blocked predictions, in-place
metrics and a support report evaluated on each dataset's own columns.
``_reference_transfer`` builds the same two files from whole-array
predictions and one combined two-site dataset; every case compares
``transfer_metrics.csv`` and ``support_report.csv`` bit for bit, or the one
error line.
"""

import csv
import re
import shutil

import _reference_transfer as reference
import pytest
from _toys import quickstart_config

from sitelasso import artifacts
from sitelasso.cli import main
from sitelasso.errors import DataError
from sitelasso.terms import parse_term_id

OUTPUTS = ("transfer_metrics.csv", "support_report.csv")


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    """The quickstart run (m1-b1, m1-b2, m4) and a 300 + 300 point target."""
    base = tmp_path_factory.mktemp("transfer")
    study, target = base / "study", base / "target"
    study_cfg = quickstart_config(base, "synth_quickstart.cfg", output_dir=study)
    assert main(["synth", study_cfg]) == 0
    target_cfg = quickstart_config(
        base, "synth_quickstart.cfg", output_dir=target, n_site1=300, n_site2=300
    )
    assert main(["synth", target_cfg]) == 0
    run = base / "run"
    run_cfg = quickstart_config(
        base, "run_quickstart.cfg", points=study / "points.csv", output_dir=run,
        methods="m1-b1, m1-b2, m4", n_splits=20, rasters_dir="", site_raster="",
        site_codes="",
    )
    assert main(["run", run_cfg]) == 0
    return {"run": run, "target": target / "points.csv"}


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    return path


def assert_same_outputs(run_dir, target, tmp_path, capsys):
    """The bytes of both output files, or the error line, equal the reference's."""
    try:
        reference.transfer(run_dir, target, tmp_path / "reference")
        want = {name: (tmp_path / "reference" / name).read_bytes() for name in OUTPUTS}
    except DataError as exc:
        want = f"error: {exc}"
    capsys.readouterr()
    code = main(["transfer", str(run_dir), str(target), "--output-dir", str(tmp_path / "cli")])
    if code == 0:
        got = {name: (tmp_path / "cli" / name).read_bytes() for name in OUTPUTS}
    else:
        assert code == 3
        got = capsys.readouterr().err.strip()
    assert got == want
    return got


def test_quickstart_target(quickstart, tmp_path, capsys):
    got = assert_same_outputs(quickstart["run"], quickstart["target"], tmp_path, capsys)
    metrics = got["transfer_metrics.csv"].decode().splitlines()
    assert [row.split(",")[:2] for row in metrics[1:]] == [["B1", "combined"], ["B2", "combined"]]
    support = got["support_report.csv"].decode().splitlines()
    assert {row.split(",")[1] for row in support[1:]} == {"B1", "B2"}


def test_three_site_target_reports_against_the_first_other_site(quickstart, tmp_path, capsys):
    rows = read_rows(quickstart["target"])
    for k, row in enumerate(rows[1:]):
        if k % 3 == 0:
            row[0] = "A0"  # sorts first, so the support report reads A0's rows
    target = write_rows(tmp_path / "three_sites.csv", rows)
    got = assert_same_outputs(quickstart["run"], target, tmp_path, capsys)
    metrics = got["transfer_metrics.csv"].decode().splitlines()
    assert all(row.split(",")[1] == "combined" for row in metrics[1:])
    support = got["support_report.csv"].decode().splitlines()
    assert [row.split(",")[1] for row in support[1:3]] == ["A0", "B1"]


def test_a_site_scoped_term_is_reported_unscoped(quickstart, tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(quickstart["run"] / "points.csv", run)
    payload = artifacts.read_json(quickstart["run"] / "ensemble_m4.json")
    assert any(parse_term_id(t).scope for t in payload["terms"])
    payload["site"] = "B1"
    artifacts.write_json(run / "ensemble_m1_b1.json", payload)
    assert_same_outputs(run, quickstart["target"], tmp_path, capsys)


def test_a_covariate_only_unselected_terms_read(quickstart, tmp_path, capsys):
    # strip every coefficient on a cov4 term, so the predictions read no cov4
    # but the support report, which covers every term, still needs it
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(quickstart["run"] / "points.csv", run)
    for name in ("ensemble_m1_b1.json", "ensemble_m1_b2.json"):
        payload = artifacts.read_json(quickstart["run"] / name)
        reads = {t for t in payload["terms"] if "cov4" in parse_term_id(t).covariates}
        assert reads
        for model in payload["models"]:
            model["coef"] = {c: v for c, v in model["coef"].items() if c not in reads}
        artifacts.write_json(run / name, payload)
    rows = read_rows(quickstart["target"])
    drop = rows[0].index("cov4")
    target = write_rows(tmp_path / "no_cov4.csv", [r[:drop] + r[drop + 1 :] for r in rows])
    got = assert_same_outputs(run, target, tmp_path, capsys)
    assert re.fullmatch(r"error: term \S*cov4\S* needs missing covariate 'cov4'", got)
