import json
from pathlib import Path

import pytest

from talbot_lab.cli import main
from talbot_lab.experiments.config import (
    EXPERIMENTS,
    ConfigError,
    counterexample_params,
    load_config,
    parse_config_text,
)
from talbot_lab.experiments.report import RunReport, Sweep, write_report
from talbot_lab.measures import ExponentFit

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# what the error of a rejected config must name, where the row checks it
NAMED_IN_ERROR = {
    "j_list = 2,3\n": "j_list",
    "cov_j_max = 11\n": "level 11 of alpha = 1.0, lam = 64, kappa = 0.125: modulus q",
}


def write_cfg(tmp_path: Path, text: str, name: str = "run.cfg") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestConfigParsing:
    def test_key_value_lines_with_comments(self):
        parsed = parse_config_text("a = 1\n# note\n\nb = two # trailing\n")
        assert parsed == {"a": "1", "b": "two"}

    def test_rejects_malformed_lines(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n")

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_defaults_filled_and_typed(self, tmp_path):
        cfg = load_config("gauss", write_cfg(tmp_path, "q_max = 100\n"))
        assert cfg["q_max"] == 100
        assert cfg["abel_instances"] == 10000

    def test_fraction_values(self, tmp_path):
        from fractions import Fraction

        cfg = load_config("claims", write_cfg(tmp_path, "c1 = 1/300\nc2 = 1/150\n"))
        assert cfg["c1"] == Fraction(1, 300)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config("gauss", write_cfg(tmp_path, "bogus = 1\n"))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            load_config("nonsense", None)

    def test_cross_validation(self, tmp_path):
        # the config only parses; CounterexampleParams owns the c1 < c2 rule
        cfg = load_config("claims", write_cfg(tmp_path, "c1 = 1/50\nc2 = 1/100\n"))
        with pytest.raises(ValueError, match="c1 < c2"):
            counterexample_params(cfg)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_shipped_config_loads_to_the_defaults(self, experiment):
        # the digest gate runs the defaults and stands for configs/<experiment>.cfg
        shipped = load_config(experiment, CONFIGS / f"{experiment}.cfg")
        defaults = load_config(experiment, None)
        assert shipped == defaults
        assert {k: type(v) for k, v in shipped.items()} == {k: type(v) for k, v in defaults.items()}

    def test_fewer_than_three_growth_levels_rejected(self, tmp_path):
        # the growth-slope fit of claim (i) needs three levels
        with pytest.raises(ConfigError, match="j_list needs at least three levels"):
            load_config("claims", write_cfg(tmp_path, "j_list = 2,3\n"))

    def test_frequency_limit_guard(self, tmp_path):
        with pytest.raises(ConfigError, match="frequency limit"):
            load_config("claims", write_cfg(tmp_path, "j_list = 2,3,7\n"))
        with pytest.raises(ConfigError, match="frequency limit"):
            load_config("evolve", write_cfg(tmp_path, "j_max = 9\n"))


class TestCliContract:
    def test_gauss_roundtrip_and_exit_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, "q_max = 120\nabel_instances = 200\nperturbed_q_max = 64\n")
        out = tmp_path / "out"
        assert main(["gauss", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        assert report["experiment"] == "gauss"
        assert (out / "sweep_closed_form_error.csv").exists()
        assert (out / "plot_closed_form_error.dat").exists()

    def test_malformed_config_exits_two_without_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, "q_max = not_a_number\n")
        out = tmp_path / "out"
        assert main(["gauss", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_key_exits_two(self, tmp_path):
        cfg = write_cfg(tmp_path, "mystery = 3\n")
        assert main(["gauss", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file_exits_two(self, tmp_path):
        assert main(["gauss", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, "q_max = 80\nabel_instances = 100\nperturbed_q_max = 32\nseed = 5\n")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["gauss", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["gauss", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("report.json", "sweep_closed_form_error.csv", "plot_closed_form_error.dat"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_config_echo(self, tmp_path):
        cfg = write_cfg(tmp_path, "q_max = 60\nabel_instances = 50\nperturbed_q_max = 32\n")
        out = tmp_path / "o"
        assert main(["gauss", "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 9

    def test_negative_seed_override_exits_two_without_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "q_max = 60\nabel_instances = 50\nperturbed_q_max = 32\n")
        out = tmp_path / "o"
        assert main(["gauss", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
        assert not (out / "report.json").exists()
        assert "seed must be nonnegative" in capsys.readouterr().err

    def test_value_a_layer_rejects_exits_two_without_report(self, tmp_path, capsys):
        # the schema takes any Fraction, but the packing needs beta > 1
        cfg = write_cfg(tmp_path, "sep_beta = 1\n")
        out = tmp_path / "o"
        assert main(["dimension", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        assert capsys.readouterr().err.startswith("error: beta must exceed 1")

    @pytest.mark.parametrize("q_min", [0, 6])
    def test_perturbed_q_min_off_the_multiples_of_four_exits_two(self, tmp_path, capsys, q_min):
        cfg = write_cfg(
            tmp_path, f"q_max = 60\nabel_instances = 50\nperturbed_q_min = {q_min}\n"
        )
        out = tmp_path / "o"
        assert main(["gauss", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "experiment, text",
        [
            ("maximal", "l1_exp_min = 0\n"),
            ("maximal", "conv_exp_min = 0\nconv_exp_max = 4\n"),
            ("maximal", "lp_exp_min = 6\nlp_exp_max = 5\n"),
            ("maximal", "sweep_exp_min = 7\nsweep_exp_max = 6\n"),
            ("maximal", "conv_exp_min = 6\nconv_exp_max = 7\n"),
            ("maximal", "plan_grid = 0\n"),
            ("evolve", "samples_per_q = 0\n"),
            ("evolve", "j_max = 0\n"),
            ("gauss", "q_max = 60\nabel_instances = 50\nperturbed_q_min = 64\nperturbed_q_max = 32\n"),
            # zero spot checks or Abel instances: those checks would pass on no samples
            ("gauss", "q_max = 60\nabel_instances = 50\nspot_checks = 0\n"),
            ("gauss", "q_max = 60\nabel_instances = 0\n"),
            # no pair k < j in the first-derivative regime: claim (ii) would pass on none
            ("claims", "alpha = 0.5\n"),
            # fewer than three levels, none at all included: the growth fit
            # needs three, so j_list is rejected by name before any stage runs
            ("claims", "j_list = 2\n"),
            ("claims", "j_list = \n"),
            ("claims", "j_list = 2,3\n"),
            # a fraction threshold of 0 or below: the claims check would pass on any samples
            ("claims", "factor_frac = 0\n"),
            ("claims", "decay_c_min_frac = -0.5\n"),
            # CounterexampleParams, the first call of claims and evolve, rejects these
            ("claims", "c1 = 1/50\nc2 = 1/100\n"),
            ("evolve", "kappa = 1.5\n"),
            # the level-11 window of case 1:64:1/8 tops out at 2^33, past the modulus limit
            ("dimension", "cov_j_max = 11\n"),
        ],
    )
    def test_empty_or_degenerate_sweep_exits_two_without_report(
        self, tmp_path, capsys, experiment, text
    ):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert NAMED_IN_ERROR.get(text, "") in err

    def test_single_volume_level_exits_two_naming_the_key(self, tmp_path, capsys, monkeypatch):
        # one level gives no consecutive-level ratio; the config check rejects
        # it before the covering, packing and nested stages run
        def no_stage(*args, **kwargs):
            raise AssertionError("a dimension stage ran for a single volume level")

        monkeypatch.setattr("talbot_lab.experiments.dimension.separated_cubes", no_stage)
        cfg = write_cfg(tmp_path, "meas_j_list = 3\n")
        out = tmp_path / "o"
        assert main(["dimension", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        assert "meas_j_list" in capsys.readouterr().err

    @pytest.mark.parametrize("level", [15, 22, 10**9])
    def test_oversized_convolution_grid_exits_two_without_report(
        self, tmp_path, capsys, monkeypatch, level
    ):
        # 2 * 3^level grid points: level 22 passes the atom cap, and its grid
        # would ask numpy for about 470 GiB; the config check rejects every
        # such level before the Cantor measure is built
        def no_measure(*args):
            raise AssertionError("cantor_measure ran for an oversized grid")

        monkeypatch.setattr("talbot_lab.experiments.maximal.cantor_measure", no_measure)
        cfg = write_cfg(tmp_path, f"cantor_level = {level}\n")
        out = tmp_path / "o"
        assert main(["maximal", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        assert "above cap" in capsys.readouterr().err

    def test_failing_check_exits_one_with_report(self, tmp_path):
        cfg = write_cfg(tmp_path, "q_max = 60\nabel_instances = 50\nperturbed_q_max = 32\ntol = 1e-30\n")
        out = tmp_path / "o"
        assert main(["gauss", "--config", str(cfg), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is False

    def test_evolve_with_jobs(self, tmp_path):
        # j_max = 3 gives enough times that two workers evaluate the oracle at once
        cfg = write_cfg(tmp_path, "j_max = 3\nsamples_per_q = 4\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["evolve", "--config", str(cfg), "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["evolve", "--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
        report = json.loads((out2 / "report.json").read_text())
        assert report["checks"][0]["passed"] is True
        csvs = sorted(p.name for p in out1.glob("sweep_*.csv"))
        assert csvs and csvs == sorted(p.name for p in out2.glob("sweep_*.csv"))
        for name in ["report.json", *csvs]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestReportPlumbing:
    def test_duplicate_check_names_rejected(self):
        report = RunReport("gauss", {})
        report.add_check("x", 1.0, 2.0, "<=")
        with pytest.raises(ValueError, match="duplicate"):
            report.add_check("x", 1.0, 2.0, "<=")

    def test_unknown_check_operator_rejected_when_added(self):
        # at add_check, not later when the report is serialised
        report = RunReport("gauss", {})
        with pytest.raises(ValueError, match="unknown check operator"):
            report.add_check("x", 1.0, 2.0, "<")
        assert report.checks == []

    def test_plot_files_have_two_columns(self, tmp_path):
        report = RunReport("gauss", {})
        report.sweeps.append(
            Sweep("demo", ["n", "value"], [[2.0, 4.0], [4.0, 16.0], [8.0, 64.0]],
                  fit=ExponentFit(2.0, 0.0, 0.0))
        )
        write_report(report, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "plot_demo.dat", "plot_demo_fit.dat", "report.json", "sweep_demo.csv"
        ]
        for name in ("plot_demo.dat", "plot_demo_fit.dat"):
            lines = (tmp_path / name).read_text().splitlines()
            assert [[float(v) for v in line.split()] for line in lines] == [
                [2.0, 4.0], [4.0, 16.0], [8.0, 64.0]
            ]
        fit = json.loads((tmp_path / "report.json").read_text())["sweeps"][0]["fit"]
        assert fit == {"slope": 2.0, "intercept": 0.0, "polylog": False}

    def test_sweep_without_rows_writes_csv_and_no_plot(self, tmp_path):
        report = RunReport("gauss", {})
        report.sweeps.append(Sweep("empty", ["n", "value"], [], fit=ExponentFit(2.0, 0.0, 0.0)))
        write_report(report, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "sweep_empty.csv"]
        assert (tmp_path / "sweep_empty.csv").read_text() == "n,value\n"

    def test_csv_headers_match_columns(self, tmp_path):
        report = RunReport("gauss", {})
        report.sweeps.append(Sweep("demo", ["a", "b", "c"], [[1.0, 2.5, 3.0]]))
        write_report(report, tmp_path)
        lines = (tmp_path / "sweep_demo.csv").read_text().splitlines()
        assert lines[0] == "a,b,c"
        assert len(lines) == 2
