"""Command-line front end: configs, outputs, exit codes, idempotence."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mzbayes
from mzbayes.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, load_config, main
from mzbayes.detector import RetrodictiveWeights


_IDENTITY_WEIGHTS = json.loads(RetrodictiveWeights.identity().to_json())["weights"]
# Weights files as written before weights.json recorded its nbar, and its channel.
_WEIGHTS_WITHOUT_NBAR = json.dumps({"n_max": 4, "weights": _IDENTITY_WEIGHTS})
_WEIGHTS = json.dumps({"n_max": 4, "nbar": 1.08, "weights": _IDENTITY_WEIGHTS})
_WEIGHTS_WITH_NAN = json.dumps(
    {"n_max": 4, "nbar": 1.08, "weights": {**_IDENTITY_WEIGHTS, "(0,0)": {"(0,0)": math.nan}}}
)

_CONFIGS = Path(__file__).resolve().parents[1] / "configs"

_EYE = np.eye(5).tolist()
_NAN_DIAGONAL = np.diag([math.nan, 1.0, 1.0, 1.0, 1.0]).tolist()
# Non-finite config values: (command, config, text the error names).
_NON_FINITE = {
    "nan-theta-grid": ("scan", {"plan": {"theta_grid_pi": [0.5, math.nan]}}, "theta_grid"),
    # fisher and calibrate do not read the plan's phases, but still check them
    "fisher-nan-theta-grid": ("fisher", {"plan": {"theta_grid_pi": [math.nan]}}, "theta_grid"),
    "calibrate-nan-theta-grid": (
        "calibrate", {"plan": {"theta_grid_pi": [math.nan]}}, "theta_grid",
    ),
    "nan-calibration-phase": (
        "calibrate", {"calibration": {"phases_pi": [0.1, math.nan]}}, "calibration phase",
    ),
    "infinite-nbar": ("scan", {"model": {"nbar": math.inf}}, "nbar"),
    "nan-forward-matrix": (
        "calibrate",
        {"noise": {"kind": "matrix", "forward_c": _NAN_DIAGONAL, "forward_d": _EYE}},
        "forward_c",
    ),
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = run("fisher", "--config", str(tmp_path / "nope.json"))
        assert code == EXIT_CONFIG
        assert "config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run("fisher", "--config", str(path)) == EXIT_CONFIG

    def test_unknown_noise_kind(self, tmp_path):
        cfg = write_config(tmp_path, {"noise": {"kind": "gremlins"}})
        assert run("fisher", "--config", cfg) == EXIT_CONFIG

    def test_zero_fisher_step(self, tmp_path):
        cfg = write_config(tmp_path, {"fisher": {"d_theta": 0.0}})
        assert run("fisher", "--config", cfg) == EXIT_CONFIG

    def test_unknown_scan_kind_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, {})
        with pytest.raises(SystemExit) as exc:
            run("scan", "wiggle", "--config", cfg)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, doc",
        [
            pytest.param("calibrate", {"calibration": {"pulses_per_phase": 0}},
                         id="zero-pulses"),
            pytest.param("calibrate", {"calibration": {"phases_pi": [0.1, 1.5]}},
                         id="phase-out-of-range"),
            pytest.param("calibrate", {"calibration": {"pulses_per_phase": "many"}},
                         id="pulses-not-a-number"),
            pytest.param("fisher", {"fisher": {"d_theta": "abc"}}, id="step-not-a-number"),
            pytest.param("fisher", {"fisher": {"theta_grid_pi": [0.0, 0.5]}},
                         id="theta-at-endpoint"),
            pytest.param("fisher", {"fisher": {"theta_grid_pi": []}}, id="empty-theta-grid"),
            pytest.param("fisher", {"plan": {"p": 0}}, id="zero-p"),
            pytest.param("fisher", {"plan": {"replica": 3}}, id="unknown-plan-key"),
            pytest.param("fisher", {"plan": 3}, id="plan-not-an-object"),
            pytest.param("fisher", {"plans": {}}, id="unknown-section"),
            pytest.param("fisher", {"noise": {"kind": "identity", "forward_c": [[1.0]]}},
                         id="key-unused-by-noise-kind"),
            pytest.param("scan", {"plan": {"replica": 3}}, id="scan-unknown-plan-key"),
            pytest.param("scan", {"plan": 3}, id="scan-plan-not-an-object"),
            pytest.param("scan", {"plan": {"seed": -1}}, id="scan-negative-seed"),
            pytest.param("calibrate", {"plan": {"seed": -1}}, id="calibrate-negative-seed"),
            pytest.param("scan", {"plan": {"grid_points": 1}}, id="one-grid-point"),
            pytest.param("scan", {"plan": {"estimators": []}}, id="no-estimators"),
            pytest.param("scan", {"plan": {"estimators": ["bayes", "bayes"]}},
                         id="repeated-estimator"),
            pytest.param("scan", {"plan": {"estimators": "bayes"}}, id="estimators-string"),
            pytest.param("scan", {"plan": {"p": 2.7}}, id="fractional-p"),
            pytest.param("scan", {"plan": {"p": True}}, id="bool-p"),
            pytest.param("scan", {"plan": {"replicas": 2.9}}, id="fractional-replicas"),
            pytest.param("scan", {"plan": {"seed": 7.5}}, id="fractional-seed"),
            pytest.param("scan", {"plan": {"grid_points": 64.5}}, id="fractional-grid-points"),
            pytest.param("scan", {"model": {"n_max": False}}, id="bool-model-n-max"),
            pytest.param("fisher", {"noise": {"kind": "identity", "n_max": 4.5}},
                         id="fractional-noise-n-max"),
            pytest.param("calibrate", {"calibration": {"pulses_per_phase": 1e3 + 0.5}},
                         id="fractional-pulses"),
            pytest.param("calibrate", {"calibration": {"pulses_per_phase": "1000"}},
                         id="string-pulses"),
            pytest.param("fisher", {"plan": {"replicas": 0}}, id="fisher-zero-replicas"),
            pytest.param("calibrate", {"plan": {"replicas": 0}}, id="calibrate-zero-replicas"),
            pytest.param("fisher", {"plan": {"estimators": ["nope"]}},
                         id="fisher-unknown-estimator"),
            pytest.param("calibrate", {"plan": {"estimators": ["nope"]}},
                         id="calibrate-unknown-estimator"),
            pytest.param("scan", {"model": {"nbar": 1e300}}, id="nbar-beyond-sampler"),
            pytest.param("calibrate",
                         {"calibration": {"phases_pi": [0.5], "pulses_per_phase": 10}},
                         id="one-calibration-phase"),
            pytest.param("fisher", {"model": {"nbar": 30}}, id="fisher-nbar-beyond-n-max"),
            pytest.param("fisher", {"model": {"nbar": 1e6}}, id="fisher-huge-nbar"),
            *(pytest.param(command, doc, id=name)
              for name, (command, doc, _) in _NON_FINITE.items()),
        ],
    )
    def test_bad_input_is_config_error(self, tmp_path, capsys, command, doc):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {**doc, "output": {"dir": str(out)}})
        argv = [command, "bias"] if command == "scan" else [command]
        assert run(*argv, "--config", cfg, "--quiet") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("command, doc, named", _NON_FINITE.values(), ids=_NON_FINITE)
    def test_non_finite_value_is_named(self, tmp_path, capsys, command, doc, named):
        cfg = write_config(tmp_path, {**doc, "output": {"dir": str(tmp_path / "out")}})
        argv = [command, "bias"] if command == "scan" else [command]
        assert run(*argv, "--config", cfg, "--quiet") == EXIT_CONFIG
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("nbar", [30, 1e6])
    def test_fisher_count_cut_is_named(self, tmp_path, capsys, nbar):
        cfg = write_config(tmp_path, {"model": {"nbar": nbar}})
        assert run("fisher", "--config", cfg, "--quiet") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "model.n_max 25" in err and f"nbar {float(nbar)}" in err and "mass" in err

    @pytest.mark.parametrize("nbar", [1e300, 1e19])
    def test_nbar_beyond_sampler_is_named(self, tmp_path, capsys, nbar):
        cfg = write_config(tmp_path, {"model": {"nbar": nbar}, "plan": {"replicas": 1}})
        assert run("scan", "bias", "--config", cfg, "--quiet") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "nbar" in err

    # 1e15 pulses need 7.1 PiB per port, more than the 128 TiB a process
    # maps by default, so the allocation fails at once under any overcommit policy.
    @pytest.mark.parametrize(
        "command, doc, named",
        [
            (
                "calibrate",
                {"calibration": {"pulses_per_phase": 1e15}},
                "calibration.pulses_per_phase",
            ),
            ("scan", {"plan": {"p": 1e15, "replicas": 1}}, "plan.p"),
        ],
        ids=["pulses-per-phase", "scan-p"],
    )
    def test_unallocatable_pulse_count_is_named(self, tmp_path, capsys, command, doc, named):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {**doc, "output": {"dir": str(out)}})
        argv = [command, "bias"] if command == "scan" else [command]
        assert run(*argv, "--config", cfg, "--quiet") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not out.exists()

    def test_integral_floats_are_integers(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"plan": {"p": 1e3, "seed": 7.0}}))
        assert cfg["plan"] == {"p": 1000, "seed": 7}
        assert all(type(v) is int for v in cfg["plan"].values())

    def test_unknown_key_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"plan": {"replica": 3}})
        assert run("scan", "bias", "--config", cfg, "--quiet") == EXIT_CONFIG
        assert "plan.replica" in capsys.readouterr().err

    def test_estimators_string_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"plan": {"estimators": "bayes"}})
        assert run("scan", "bias", "--config", cfg, "--quiet") == EXIT_CONFIG
        assert "plan.estimators" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "weights_text, fringe_text, named",
        [
            ('{"n_max": 4}', None, "weights.json"),
            ("{not json", None, "weights.json"),
            (_WEIGHTS_WITHOUT_NBAR, None, "re-run the calibrate command"),
            (_WEIGHTS_WITH_NAN, None, "weights must lie in [0, 1]"),
            (_WEIGHTS, '{"a": 0.0, "b": NaN, "amplitude": 1.0}',
             "fringe parameters must be finite"),
            (_WEIGHTS, None, "forward_c"),
        ],
        ids=["no-weights-key", "not-json", "no-nbar", "nan-weight", "nan-fringe", "no-channel"],
    )
    def test_bad_weights_file_is_config_error(
        self, tmp_path, capsys, weights_text, fringe_text, named
    ):
        weights = tmp_path / "weights.json"
        weights.write_text(weights_text)
        if fringe_text is not None:
            (tmp_path / "fringe.json").write_text(fringe_text)
        cfg = write_config(
            tmp_path,
            {
                "noise": {"kind": "paper_regime"},
                "calibration": {"weights_file": str(weights)},
                "plan": {"theta_grid_pi": [0.5], "p": 10, "replicas": 2},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert run("scan", "bias", "--config", cfg, "--quiet") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        # the message names only the file that failed
        files = ["weights.json", "fringe.json"]
        failed, intact = files[::-1] if fringe_text else files
        assert failed in err and intact not in err

    def test_ymk_without_photons_is_numerical_failure(self, tmp_path, capsys):
        # at theta = pi/2 one pulse per estimation often detects nothing
        out = tmp_path / "out"
        plan = {"theta_grid_pi": [0.5], "p": 1, "replicas": 3, "estimators": ["ymk"], "seed": 3}
        cfg = write_config(tmp_path, {"plan": plan, "output": {"dir": str(out)}})
        assert run("scan", "bias", "--config", cfg, "--quiet") == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:measured pair:UserWarning")
    @pytest.mark.parametrize("estimator", ["bayes", "ml"])
    def test_reading_the_channel_cannot_produce_is_numerical_failure(
        self, tmp_path, capsys, estimator
    ):
        # calibrated under a channel that reads a true 4 as 3 at port c, the
        # fitted channel never reads 4 there; a scan whose noise does read 4
        # at port c (and misreads at port d, so it is not the identity) finds
        # every phase impossible for that run
        out = tmp_path / "out"
        never_four = np.eye(5)
        never_four[:, 4] = [0.0, 0.0, 0.0, 1.0, 0.0]
        doc = {
            "noise": {"kind": "matrix", "forward_c": never_four.tolist(), "forward_d": _EYE},
            "calibration": {"pulses_per_phase": 5000},
            "plan": {"theta_grid_pi": [0.1], "p": 1000, "replicas": 2,
                     "estimators": [estimator]},
            "output": {"dir": str(out)},
        }
        assert run("calibrate", "--config", write_config(tmp_path, doc), "--quiet") == EXIT_OK
        doc["noise"] = {"kind": "matrix", "forward_c": _EYE, "forward_d": never_four.tolist()}
        cfg = write_config(tmp_path, doc, name="scan.json")
        capsys.readouterr()
        assert run("scan", "bias", "--config", cfg, "--quiet") == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not (out / "bias_scan.csv").exists()

    def test_no_partial_outputs_on_failure(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {"fisher": {"d_theta": 0.0}, "output": {"dir": str(out)}},
        )
        assert run("fisher", "--config", cfg) == EXIT_CONFIG
        assert not out.exists()


class TestFisherCommand:
    @pytest.mark.parametrize("name", ["ideal", "noisy"])
    def test_shipped_configs_pass_every_check(self, tmp_path, name):
        config = str(_CONFIGS / f"{name}.json")
        assert run("fisher", "--config", config, "--out-dir", str(tmp_path), "--quiet") == EXIT_OK
        assert (tmp_path / "crlb.csv").exists()

    def test_ideal_constant_fisher(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "fisher": {"theta_grid_pi": [0.1, 0.3, 0.5, 0.7, 0.9]},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert run("fisher", "--config", cfg, "--quiet") == EXIT_OK
        data = np.genfromtxt(tmp_path / "out" / "crlb.csv", delimiter=",", names=True)
        np.testing.assert_allclose(data["fisher"], 1.08, atol=1e-6)

    def test_noisy_fisher_dips_but_stays_positive(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "noise": {"kind": "paper_regime"},
                "fisher": {"theta_grid_pi": [0.02, 0.5, 0.98]},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert run("fisher", "--config", cfg, "--quiet") == EXIT_OK
        data = np.genfromtxt(tmp_path / "out" / "crlb.csv", delimiter=",", names=True)
        assert np.all(data["fisher"] > 0.0)
        assert data["fisher"][0] < data["fisher"][1]
        assert data["fisher"][2] < data["fisher"][1]


class TestCalibrateCommand:
    def test_identity_noise_reports_unit_diagonals(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "noise": {"kind": "identity"},
                "calibration": {"pulses_per_phase": 20_000},
                "output": {"dir": str(out)},
            },
        )
        assert run("calibrate", "--config", cfg, "--seed", "3") == EXIT_OK
        printed = capsys.readouterr().out
        assert "worst diagonal" in printed
        doc = json.loads((out / "weights.json").read_text())
        for pair in ["(0,0)", "(1,1)", "(2,2)"]:
            assert doc["weights"][pair][pair] >= 0.99
        assert (out / "calibration.csv").exists()
        assert (out / "fringe.json").exists()

    def test_paper_regime_worst_diagonal(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "noise": {"kind": "paper_regime"},
                "calibration": {"pulses_per_phase": 50_000},
                "output": {"dir": str(out)},
            },
        )
        assert run("calibrate", "--config", cfg, "--seed", "3") == EXIT_OK
        printed = capsys.readouterr().out
        worst = float(printed.split("worst diagonal weight:")[1].split()[0])
        assert worst == pytest.approx(0.54, abs=0.03)
        assert "(0, 0)" in printed

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "noise": {"kind": "identity"},
                "calibration": {"phases_pi": [0.1, 0.3, 0.5, 0.7, 0.9],
                                "pulses_per_phase": 5000},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert run("calibrate", "--config", cfg, "--quiet") == EXIT_OK
        assert capsys.readouterr().out == ""


class TestScanCommand:
    def test_noise_without_weights_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "noise": {"kind": "paper_regime"},
                "output": {"dir": str(out)},
            },
        )
        assert run("scan", "bias", "--config", cfg, "--quiet") == EXIT_CONFIG
        assert not out.exists()

    def test_weights_n_max_mismatch_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = {
            "noise": {"kind": "paper_regime", "n_max": 3},
            "calibration": {"pulses_per_phase": 5000},
            "plan": {"theta_grid_pi": [0.5], "p": 100, "replicas": 2},
            "output": {"dir": str(out)},
        }
        cfg = write_config(tmp_path, doc)
        assert run("calibrate", "--config", cfg, "--quiet") == EXIT_OK
        doc["noise"]["n_max"] = 4
        cfg = write_config(tmp_path, doc, name="scan.json")
        capsys.readouterr()
        assert run("scan", "bias", "--config", cfg, "--quiet") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "n_max" in err
        assert "Traceback" not in err
        assert not (out / "bias_scan.csv").exists()

    def test_weights_nbar_mismatch_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = {
            "model": {"nbar": 3.0},
            "noise": {"kind": "paper_regime"},
            "calibration": {"pulses_per_phase": 5000},
            "plan": {"theta_grid_pi": [0.5], "p": 100, "replicas": 2},
            "output": {"dir": str(out)},
        }
        cfg = write_config(tmp_path, doc)
        assert run("calibrate", "--config", cfg, "--quiet") == EXIT_OK
        assert json.loads((out / "weights.json").read_text())["nbar"] == 3.0
        doc["model"]["nbar"] = 1.08
        cfg = write_config(tmp_path, doc, name="scan.json")
        capsys.readouterr()
        assert run("scan", "bias", "--config", cfg, "--quiet") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "3.0" in err and "1.08" in err
        assert not (out / "bias_scan.csv").exists()

    def test_ideal_sensitivity_scan(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "plan": {
                    "theta_grid_pi": [0.3, 0.5],
                    "p": 1000,
                    "replicas": 10,
                    "seed": 5,
                },
                "output": {"dir": str(out)},
            },
        )
        assert run("scan", "sensitivity", "--config", cfg) == EXIT_OK
        assert "sqrt(p)*dtheta" in capsys.readouterr().out
        data = np.genfromtxt(
            out / "sensitivity_scan.csv", delimiter=",", names=True,
            encoding="utf-8", dtype=None,
        )
        scaled = np.sqrt(1000) * data["mean_dtheta"]
        np.testing.assert_allclose(scaled, 1 / np.sqrt(1.08), rtol=0.05)
        manifest = json.loads((out / "sensitivity_manifest.json").read_text())
        assert manifest["seed"] == 5

    def test_bias_scan_prints_summary_ratio(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "plan": {"theta_grid_pi": [0.5], "p": 100, "replicas": 5},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert run("scan", "bias", "--config", cfg) == EXIT_OK
        assert "max |bias|/sd_est" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            cfg = write_config(
                tmp_path,
                {
                    "plan": {"theta_grid_pi": [0.4], "p": 200, "replicas": 4},
                    "output": {"dir": str(d)},
                },
                name=f"cfg_{d.name}.json",
            )
            assert run("scan", "bias", "--config", cfg, "--seed", "9",
                       "--quiet") == EXIT_OK
        a = (dirs[0] / "bias_scan.csv").read_bytes()
        b = (dirs[1] / "bias_scan.csv").read_bytes()
        assert a == b


# Imports mzbayes, checks that no scipy module came with it, then blocks
# scipy so that any later import of it raises, and runs every command.
_WITHOUT_SCIPY = """
import sys
import mzbayes, mzbayes.cli
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
if loaded:
    sys.exit(f"importing mzbayes loaded {loaded}")
sys.modules["scipy"] = None
noisy, ideal = sys.argv[1:]
for argv in (
    ["calibrate", "--config", noisy],
    ["scan", "bias", "--config", noisy],
    ["fisher", "--config", noisy],
    ["scan", "sensitivity", "--config", ideal],
):
    code = mzbayes.cli.main([*argv, "--quiet"])
    if code != 0:
        sys.exit(f"{argv} exited {code}")
"""


class TestRuntimeDependencies:
    def test_commands_run_without_scipy(self, tmp_path):
        out = tmp_path / "out"
        noisy = write_config(
            tmp_path,
            {
                "noise": {"kind": "paper_regime"},
                "calibration": {"pulses_per_phase": 5000},
                "plan": {"theta_grid_pi": [0.25, 0.5], "p": 100, "replicas": 2,
                         "estimators": ["bayes", "ymk", "ml", "fringe"]},
                "fisher": {"theta_grid_pi": [0.5]},
                "output": {"dir": str(out)},
            },
            name="noisy.json",
        )
        ideal = write_config(
            tmp_path,
            {"plan": {"theta_grid_pi": [0.5], "p": 100, "replicas": 2},
             "output": {"dir": str(tmp_path / "ideal")}},
            name="ideal.json",
        )
        src = str(Path(mzbayes.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, noisy, ideal],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("weights.json", "bias_scan.csv", "crlb.csv"):
            assert (out / name).exists()
        assert (tmp_path / "ideal" / "sensitivity_scan.csv").exists()
