from dataclasses import asdict, fields, replace

import pytest

from sitelasso.config import (
    ENV_OUTPUT_DIR,
    METHOD_LABELS,
    RunConfig,
    load_run_config,
    load_synth_spec,
    parse_kv_file,
)
from sitelasso.errors import ConfigError
from sitelasso.synthetic import SyntheticSpec, default_fields


@pytest.fixture()
def points_file(tmp_path):
    # outside tmp_path itself, which the configs below name as output_dir:
    # a run may not write its copy of the points over the points file
    (tmp_path / "data").mkdir()
    path = tmp_path / "data" / "points.csv"
    path.write_text("site,x,y,response,cov0\nB1,0,0,1.0,0.5\nB2,9,9,2.0,0.7\n")
    return path


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestKvParsing:
    def test_comments_blanks_and_spacing(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "# heading\n\n  key1 = a value \nkey2=b\n   # trailing comment line\n",
        )
        assert parse_kv_file(path) == {"key1": "a value", "key2": "b"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_kv_file(tmp_path / "nope.cfg")

    def test_line_without_equals_reports_lineno(self, tmp_path):
        path = write_cfg(tmp_path, "good = 1\nbadline\n")
        with pytest.raises(ConfigError, match=r":2:"):
            parse_kv_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "a = 1\na = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv_file(path)

    def test_empty_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, " = 2\n")
        with pytest.raises(ConfigError, match="empty key"):
            parse_kv_file(path)


class TestRunConfig:
    def test_defaults(self, tmp_path, points_file):
        cfg = write_cfg(tmp_path, f"points = {points_file}\noutput_dir = {tmp_path}\n")
        config = load_run_config(cfg)
        assert config.methods == list(METHOD_LABELS)
        assert config.n_splits == 500
        assert config.train_quota == 0
        assert config.correlation_threshold == 0.95
        assert config.max_order == 4
        assert config.seed == 0
        assert config.workers == 1

    def test_unknown_key_rejected(self, tmp_path, points_file):
        cfg = write_cfg(
            tmp_path,
            f"points = {points_file}\noutput_dir = {tmp_path}\nbogus = 1\n",
        )
        with pytest.raises(ConfigError, match="bogus"):
            load_run_config(cfg)

    def test_unknown_dotted_key_rejected(self, tmp_path, points_file):
        cfg = write_cfg(
            tmp_path,
            f"points = {points_file}\noutput_dir = {tmp_path}\nseed.extra = 1\n",
        )
        with pytest.raises(ConfigError, match="seed.extra"):
            load_run_config(cfg)

    def test_per_site_quotas(self, tmp_path, points_file):
        cfg = write_cfg(
            tmp_path,
            f"points = {points_file}\noutput_dir = {tmp_path}\n"
            "train_quota = 10\ntrain_quota.B2 = 7\n",
        )
        config = load_run_config(cfg)
        assert config.train_quota == 10
        assert config.train_quota_by_site == {"B2": 7}

    def test_site_codes_and_hierarchy_parsing(self, tmp_path, points_file):
        cfg = write_cfg(
            tmp_path,
            f"points = {points_file}\noutput_dir = {tmp_path}\n"
            "site_codes = 1:B1, 2:B2\nhierarchy = cov0:1, cov1:2\n",
        )
        config = load_run_config(cfg)
        assert config.site_codes == {1.0: "B1", 2.0: "B2"}
        assert config.hierarchy == {"cov0": 1, "cov1": 2}

    def test_hierarchy_ranks_outside_1_to_10_are_config_errors(self, tmp_path, points_file):
        # a rank of 11 used to pass here and fail in the collinearity filter
        # as a data error, after the run directory was made
        for rank in (0, 11):
            cfg = write_cfg(
                tmp_path,
                f"points = {points_file}\noutput_dir = {tmp_path}\nhierarchy = cov0:{rank}\n",
            )
            with pytest.raises(ConfigError, match=r"hierarchy rank for 'cov0' must be 1\.\.10"):
                load_run_config(cfg)

    def test_max_orders_outside_1_to_4_are_config_errors(self, tmp_path, points_file):
        # term expansion rejects these too, but as a data error that the CLI
        # prefixes with the points file
        for order in (0, 5):
            cfg = write_cfg(
                tmp_path,
                f"points = {points_file}\noutput_dir = {tmp_path}\nmax_order = {order}\n",
            )
            with pytest.raises(ConfigError, match=rf"^max_order must be in 1\.\.4, got {order}$"):
                load_run_config(cfg)

    def test_malformed_site_codes(self, tmp_path, points_file):
        cfg = write_cfg(
            tmp_path,
            f"points = {points_file}\noutput_dir = {tmp_path}\nsite_codes = oops\n",
        )
        with pytest.raises(ConfigError, match="site_codes"):
            load_run_config(cfg)

    def test_method_validation(self, tmp_path, points_file):
        cfg = write_cfg(
            tmp_path,
            f"points = {points_file}\noutput_dir = {tmp_path}\nmethods = m2, m9\n",
        )
        with pytest.raises(ConfigError, match="m9"):
            load_run_config(cfg)

    def test_output_dir_priority(self, tmp_path, points_file, monkeypatch):
        cfg = write_cfg(
            tmp_path, f"points = {points_file}\noutput_dir = {tmp_path}/from_file\n"
        )
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "from_env"))
        assert load_run_config(cfg).output_dir == str(tmp_path / "from_env")
        assert (
            load_run_config(cfg, output_dir_override=str(tmp_path / "cli")).output_dir
            == str(tmp_path / "cli")
        )
        monkeypatch.delenv(ENV_OUTPUT_DIR)
        assert load_run_config(cfg).output_dir == str(tmp_path / "from_file")

    def test_missing_points_file(self, tmp_path):
        cfg = write_cfg(
            tmp_path, f"points = {tmp_path}/absent.csv\noutput_dir = {tmp_path}\n"
        )
        with pytest.raises(ConfigError, match="points file not found"):
            load_run_config(cfg)

    def test_bad_numbers(self, tmp_path, points_file):
        cfg = write_cfg(
            tmp_path,
            f"points = {points_file}\noutput_dir = {tmp_path}\nn_splits = lots\n",
        )
        with pytest.raises(ConfigError, match="n_splits"):
            load_run_config(cfg)

    def test_echo_round_trips_everything(self, tmp_path, points_file):
        site_raster = write_cfg(tmp_path, "", "site.asc")
        cfg = write_cfg(
            tmp_path,
            f"points = {points_file}\noutput_dir = {tmp_path}/run\nmethods = m4, m2\n"
            "n_splits = 7\ntrain_quota = 5\ntrain_quota.B2 = 4\n"
            "correlation_threshold = 0.9\nmax_order = 3\nseed = 3\nworkers = 2\n"
            f"rasters_dir = {tmp_path}\nsite_raster = {site_raster}\n"
            "site_codes = 2:B2, 1:B1\nhierarchy = cov1:2, cov0:1\n",
        )
        echo = load_run_config(cfg).echo()
        assert echo == {
            "points": str(points_file),
            "output_dir": f"{tmp_path}/run",
            "methods": ["m4", "m2"],
            "n_splits": 7,
            "train_quota": 5,
            "train_quota_by_site": {"B2": 4},
            "correlation_threshold": 0.9,
            "max_order": 3,
            "seed": 3,
            "workers": 2,
            "rasters_dir": str(tmp_path),
            "site_raster": str(site_raster),
            "site_codes": {"1.0": "B1", "2.0": "B2"},
            "hierarchy": {"cov0": 1, "cov1": 2},
        }
        # one entry per setting, each set away from its default
        assert list(echo) == [f.name for f in fields(RunConfig)]
        default = RunConfig().echo()
        assert [k for k in echo if echo[k] == default[k]] == []

    def test_unknown_keys_are_reported_before_any_value_is_parsed(self, tmp_path, points_file):
        cfg = write_cfg(
            tmp_path,
            f"points = {points_file}\noutput_dir = {tmp_path}\nn_splits = lots\nbogus = 1\n",
        )
        with pytest.raises(ConfigError, match="^unknown config key 'bogus'$"):
            load_run_config(cfg)

    def test_site_names_must_be_sites_of_the_points_file(self):
        # a site raster may cover one site, so site_codes may name only some
        RunConfig(site_codes={1.0: "B1"}, train_quota_by_site={"B2": 3}).check_sites(["B1", "B2"])
        for config, key in [
            (RunConfig(site_codes={1.0: "B1", 2.0: "b2"}), "site_codes"),
            (RunConfig(train_quota_by_site={"B1": 3, "b2": 3}), "train_quota.b2"),
        ]:
            with pytest.raises(ConfigError, match=rf"^{key} names site 'b2', "):
                config.check_sites(["B1", "B2"])


class TestSynthSpec:
    def test_defaults_and_output_dir(self, tmp_path):
        cfg = write_cfg(tmp_path, f"output_dir = {tmp_path}/out\n", "synth.cfg")
        spec, out = load_synth_spec(cfg)
        assert out == f"{tmp_path}/out"
        assert spec.n_site1 == 60 and spec.n_site2 == 56
        assert spec.site_names == ("B1", "B2")
        assert len(spec.fields) == 6

    def test_a_file_with_only_output_dir_loads_the_library_defaults(self, tmp_path):
        cfg = write_cfg(tmp_path, f"output_dir = {tmp_path}/out\n", "synth.cfg")
        assert load_synth_spec(cfg)[0] == SyntheticSpec()

    def test_every_key_parses_to_its_value_and_type(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            f"output_dir = {tmp_path}\nseed = 3\nn_site1 = 10\nn_site2 = 12\n"
            "site_names = North, South\nn_covariates = 2\nlength_scale = 90\n"
            "noise_sd = 0.5\nintercept = 2\nncols = 20\nnrows = 8\ncellsize = 5\n"
            "xllcorner = 100\nyllcorner = -50\ngap_cols = 3\ncoef.cov0 = 1\n"
            "site_coef.South.cov1 = 0.25\nshift.cov1 = 0.5\nscale.cov0 = 2\n",
            "synth.cfg",
        )
        spec, _ = load_synth_spec(cfg)
        cov0, cov1 = default_fields(2, length_scale=90.0)
        expected = SyntheticSpec(
            seed=3, n_site1=10, n_site2=12, site_names=("North", "South"),
            fields=(replace(cov0, site1_scale=2.0), replace(cov1, site1_shift=0.5)),
            intercept=2.0, coef_global={"cov0": 1.0}, coef_site={"South": {"cov1": 0.25}},
            noise_sd=0.5, ncols=20, nrows=8, cellsize=5.0, xll=100.0, yll=-50.0, gap_cols=3,
        )
        assert spec == expected
        types = [type(getattr(spec, f.name)) for f in fields(spec)]
        assert types == [type(getattr(expected, f.name)) for f in fields(expected)]
        assert [type(v) for f in spec.fields for v in asdict(f).values()] == (
            [str, float, float, float, float, int] * 2
        )

    def test_unknown_keys_are_reported_before_any_value_is_parsed(self, tmp_path):
        cfg = write_cfg(
            tmp_path, f"output_dir = {tmp_path}\nseed = x\nwibble = 3\n", "synth.cfg"
        )
        with pytest.raises(ConfigError, match="^unknown spec key 'wibble'$"):
            load_synth_spec(cfg)

    def test_output_dir_required(self, tmp_path):
        cfg = write_cfg(tmp_path, "seed = 1\n", "synth.cfg")
        with pytest.raises(ConfigError, match="output_dir"):
            load_synth_spec(cfg)

    def test_custom_truth_and_support_knobs(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            f"output_dir = {tmp_path}\nn_covariates = 3\n"
            "coef.cov0 = 2.5\ncoef.cov0^2 = 0.5\n"
            "site_coef.B2.cov1 = 0.9\n"
            "shift.cov0 = 1.5\nscale.cov0 = 2.0\n",
            "synth.cfg",
        )
        spec, _ = load_synth_spec(cfg)
        assert spec.coef_global == {"cov0": 2.5, "cov0^2": 0.5}
        assert spec.coef_site == {"B2": {"cov1": 0.9}}
        by_name = {f.name: f for f in spec.fields}
        assert by_name["cov0"].site1_shift == 1.5
        assert by_name["cov0"].site1_scale == 2.0
        assert by_name["cov1"].site1_shift == 0.0

    def test_renamed_sites_keep_default_truth_usable(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            f"output_dir = {tmp_path}\nsite_names = North, South\n",
            "synth.cfg",
        )
        spec, _ = load_synth_spec(cfg)
        assert spec.site_names == ("North", "South")
        assert spec.coef_site == {"South": {"cov2": 1.0}}

    def test_bare_prefix_key_rejected(self, tmp_path):
        cfg = write_cfg(
            tmp_path, f"output_dir = {tmp_path}\ncoef = 1.0\n", "synth.cfg"
        )
        with pytest.raises(ConfigError, match="suffix"):
            load_synth_spec(cfg)

    def test_shift_for_unknown_covariate(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            f"output_dir = {tmp_path}\nn_covariates = 2\nshift.cov5 = 1.0\n",
            "synth.cfg",
        )
        with pytest.raises(ConfigError, match="cov5"):
            load_synth_spec(cfg)

    def test_unknown_spec_key(self, tmp_path):
        cfg = write_cfg(
            tmp_path, f"output_dir = {tmp_path}\nwibble = 3\n", "synth.cfg"
        )
        with pytest.raises(ConfigError, match="wibble"):
            load_synth_spec(cfg)
