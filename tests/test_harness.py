"""Config parsing, experiment runs, report files, CLI exit codes."""
import json

import numpy as np
import pytest

from fourthorder.cli import main
from fourthorder.errors import ConfigError
from fourthorder.harness import ExperimentConfig, parse_config, render_config, run

CLASSIFY_ZERO = """
# zero coupling: the pipeline must come out regular
experiment.name = classify
potential.profile = gaussian
potential.coupling = 0.0
expect.verdict = regular
"""

EXPANSION = """
experiment.name = expansion-check
window.eta_lo = 0.02
window.eta_hi = 0.2
window.samples = 7
expect.exponent = 5.0
"""


PERTURBED = """
experiment.name = perturbed-decay
potential.profile = gaussian
potential.coupling = -1.0
window.t_lo = 10.0
window.t_hi = 50.0
window.samples = 5
geometry.r = 1.0
geometry.r_prime = 0.5
geometry.cos_gamma = 0.2
"""


class TestParsing:
    def test_defaults_materialized(self):
        cfg = parse_config(CLASSIFY_ZERO)
        assert cfg.experiment == "classify"
        assert cfg["grid.count"] == 64
        assert cfg["grid.ell_max"] == 2
        assert cfg["output.json"] == "report.json"

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("experiment.name = classify   # trailing\n\n"
                           "potential.profile = gaussian\npotential.coupling = -2.0\n")
        assert cfg["potential.coupling"] == -2.0

    def test_round_trip_is_identity(self):
        for text in (CLASSIFY_ZERO, EXPANSION):
            cfg = parse_config(text)
            again = parse_config(render_config(cfg))
            assert again == cfg
            assert render_config(again) == render_config(cfg)

    def test_round_trip_normalizes_spacing_and_defaults(self):
        cfg = parse_config("experiment.name=expansion-check\nwindow.eta_lo=0.02\n"
                           "window.eta_hi=0.2\nwindow.samples=7\n")
        text = render_config(cfg)
        assert "expansion.order = 4" in text
        assert "window.eta_lo = 0.02" in text

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("potential.profile = gaussian\n", "missing experiment.name"),
            ("experiment.name = sweep\n", "unknown experiment"),
            (CLASSIFY_ZERO + "banana = 3\n", "not a key"),
            (CLASSIFY_ZERO + "grid.count = 2.5\n", "expected int"),
            (CLASSIFY_ZERO + "grid.count = 8\ngrid.count = 8\n", "duplicate"),
            ("experiment.name = classify\npotential.profile = gaussian\n", "requires"),
            (CLASSIFY_ZERO.replace("coupling = 0.0", "coupling = wide"), "expected float"),
            ("experiment.name = classify\nbroken line\n", "key = value"),
            (EXPANSION.replace("eta_lo = 0.02", "eta_lo = 0.5"), "lo < hi"),
            (EXPANSION.replace("samples = 7", "samples = 3"), "at least 5"),
            (
                "experiment.name = classify\npotential.profile = polynomial\n"
                "potential.coupling = -1.0\n",
                "potential.beta",
            ),
            (
                PERTURBED + "evolution.subtract = none\nexpect.subtracted_exponent = -1.5\n",
                "needs evolution.subtract",
            ),
            (CLASSIFY_ZERO + "grid.ell_max = -1\n", "grid.ell_max must be >= 0"),
            (PERTURBED + "grid.ell_max = -1\n", "grid.ell_max must be >= 0"),
            (
                "experiment.name = resonance-tune\npotential.profile = gaussian\n"
                "bracket.lo = 3.0\nbracket.hi = 6.0\ntune.sector = -1\n",
                "tune.sector must be >= 0",
            ),
        ],
    )
    def test_rejects(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

    def test_resolvent_window_must_be_unambiguous(self):
        base = ("experiment.name = resolvent-bounds\nwindow.samples = 5\n")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(base)
        both = base + ("window.lambda_lo = 1.0\nwindow.lambda_hi = 10.0\n"
                       "window.eta_lo = 1.0\nwindow.eta_hi = 2.0\n")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(both)

    def test_derivative_needs_lambda_window(self):
        text = ("experiment.name = resolvent-bounds\nwindow.samples = 5\n"
                "window.eta_lo = 1.0\nwindow.eta_hi = 2.0\nresolvent.order = 1\n")
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(text)

    def test_tune_rejects_coupling_key(self):
        text = ("experiment.name = resonance-tune\npotential.profile = gaussian\n"
                "potential.coupling = -2.0\nbracket.lo = 3.0\nbracket.hi = 6.0\n")
        with pytest.raises(ConfigError, match="not a key"):
            parse_config(text)


class TestRun:
    def test_classify_zero_potential(self, tmp_path):
        report = run(parse_config(CLASSIFY_ZERO), tmp_path)
        assert report.verdict == "regular"
        assert report.ok
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "samples.csv").exists()
        assert (tmp_path / "report.meta.json").exists()
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["experiment"] == "classify"
        assert doc["verdict"] == "regular"
        assert doc["assertions"][0]["pass"] is True
        assert set(doc["versions"]) == {"fourthorder", "numpy", "scipy", "python"}

    def test_json_carries_no_timestamp(self, tmp_path):
        run(parse_config(CLASSIFY_ZERO), tmp_path)
        doc = (tmp_path / "report.json").read_text()
        meta = json.loads((tmp_path / "report.meta.json").read_text())
        assert "utc" not in doc and "elapsed" not in doc
        assert "written_utc" in meta and "elapsed_seconds" in meta

    def test_expansion_reruns_byte_identical_across_threads(self, tmp_path):
        cfg = parse_config(EXPANSION)
        run(cfg, tmp_path / "a", threads=1)
        run(cfg, tmp_path / "b", threads=8)
        assert (tmp_path / "a/report.json").read_bytes() == (
            tmp_path / "b/report.json"
        ).read_bytes()
        assert (tmp_path / "a/samples.csv").read_bytes() == (
            tmp_path / "b/samples.csv"
        ).read_bytes()

    def test_expansion_fit_and_assertion(self, tmp_path):
        report = run(parse_config(EXPANSION), tmp_path)
        assert report.ok
        (fit,) = report.fits
        assert fit["label"] == "remainder"
        assert abs(fit["exponent"] - 5.0) < 0.1
        assert fit["reliable"]

    def test_csv_full_precision(self, tmp_path):
        report = run(parse_config(EXPANSION), tmp_path)
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "eta,remainder"
        eta, rem = lines[1].split(",")
        assert float(eta) == report.csv_rows[0][0]
        assert float(rem) == report.csv_rows[0][1]
        assert "," not in rem and "." in rem

    def test_failing_expectation_reported(self, tmp_path):
        cfg = parse_config(EXPANSION.replace("5.0", "3.0"))
        report = run(cfg, tmp_path)
        assert not report.ok
        assert report.assertions[0]["pass"] is False

    def test_custom_output_names(self, tmp_path):
        cfg = parse_config(EXPANSION + "output.json = out.json\noutput.csv = out.csv\n")
        report = run(cfg, tmp_path)
        assert (tmp_path / "out.json").exists()
        assert report.paths["json"].endswith("out.json")

    def test_free_resolvent_bounds_high_energy_slope(self, tmp_path):
        cfg = parse_config(
            "experiment.name = resolvent-bounds\nwindow.lambda_lo = 100.0\n"
            "window.lambda_hi = 10000.0\nwindow.samples = 6\ngrid.count = 40\n"
            "expect.exponent = -0.75\nexpect.band = 0.12\n"
        )
        report = run(cfg, tmp_path)
        assert report.ok
        assert report.verdict is None

    def test_threads_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigError, match="threads"):
            run(parse_config(EXPANSION), tmp_path, threads=0)


class TestCli:
    @pytest.fixture()
    def classify_cfg(self, tmp_path):
        path = tmp_path / "classify.cfg"
        path.write_text(CLASSIFY_ZERO)
        return path

    def test_exit_zero_on_pass(self, classify_cfg, tmp_path, capsys):
        code = main(["classify", "--config", str(classify_cfg), "--out", str(tmp_path / "r")])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: regular" in out
        assert "[PASS] verdict" in out

    def test_exit_one_on_failed_assertion(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(CLASSIFY_ZERO.replace("= regular", "= resonance"))
        code = main(["classify", "--config", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "[FAIL] verdict" in capsys.readouterr().out

    def test_exit_two_with_diagnostic_on_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("experiment.name = classify\nwhat = 3\n")
        code = main(["classify", "--config", str(path), "--out", str(tmp_path / "r")])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"]["type"] == "ConfigError"
        assert "not a key" in err["error"]["message"]

    def test_exit_two_on_negative_ell_max(self, tmp_path, capsys):
        # at the tuned n=32 resonance this config used to pass as "regular"
        path = tmp_path / "negative.cfg"
        path.write_text(
            "experiment.name = classify\npotential.profile = gaussian\n"
            "potential.coupling = -4.2604358\ngrid.count = 32\ngrid.ell_max = -1\n"
        )
        code = main(["classify", "--config", str(path), "--out", str(tmp_path / "r")])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"]["type"] == "ConfigError"
        assert "grid.ell_max" in err["error"]["message"]

    def test_exit_two_on_subcommand_mismatch(self, classify_cfg, tmp_path, capsys):
        code = main(
            ["free-decay", "--config", str(classify_cfg), "--out", str(tmp_path / "r")]
        )
        assert code == 2
        assert "does not match" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["classify", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "FileNotFoundError"

    def test_env_var_sets_default_threads(self, classify_cfg, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FOURTHORDER_THREADS", "2")
        code = main(["classify", "--config", str(classify_cfg), "--out", str(tmp_path / "r")])
        assert code == 0
        meta = json.loads((tmp_path / "r" / "report.meta.json").read_text())
        assert meta["threads"] == 2

    def test_malformed_threads_env_is_a_diagnostic(self, classify_cfg, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FOURTHORDER_THREADS", "abc")
        code = main(["classify", "--config", str(classify_cfg), "--out", str(tmp_path / "r")])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert "FOURTHORDER_THREADS" in err["error"]["message"]
