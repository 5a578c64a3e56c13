"""Command-line front end: configs, outputs, exit codes, idempotence."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mzbayes
from mzbayes.cli import (
    _SCHEMA,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_parser,
    load_config,
    main,
)
from mzbayes.detector import RetrodictiveWeights
from mzbayes.experiment import ESTIMATOR_NAMES, ExperimentPlan


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
# Weights files with a pair key that calibrate never writes, beside a valid
# channel: one beyond n_max, and one negative that numpy would wrap to (4,0).
_WEIGHTS_KEY_BEYOND_N_MAX = json.dumps(
    {"n_max": 4, "nbar": 1.08, "forward_c": _EYE, "forward_d": _EYE,
     "weights": {**_IDENTITY_WEIGHTS, "(9,9)": {"(9,9)": 1.0}}}
)
# A weights file whose (n_max+1)^4 table no machine can hold.
_WEIGHTS_N_MAX_10000 = json.dumps({"n_max": 10000, "nbar": 1.08, "weights": _IDENTITY_WEIGHTS})
_WEIGHTS_NEGATIVE_KEY = json.dumps(
    {"n_max": 4, "nbar": 1.08, "forward_c": _EYE, "forward_d": _EYE,
     "weights": {**{k: v for k, v in _IDENTITY_WEIGHTS.items() if k != "(4,0)"},
                 "(-1,0)": {"(4,0)": 1.0}}}
)
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

# Angle lists given as a string, an object or a list holding a string or a
# bool: (command, config, the key the error names).
_NOT_A_LIST = {
    "theta-grid-string": ("scan", {"plan": {"theta_grid_pi": "1"}}, "plan.theta_grid_pi"),
    "theta-grid-object": ("scan", {"plan": {"theta_grid_pi": {"0.5": 1}}}, "plan.theta_grid_pi"),
    "calibration-phases-string": (
        "calibrate", {"calibration": {"phases_pi": "0.5"}}, "calibration.phases_pi",
    ),
    "calibration-phases-object": (
        "calibrate", {"calibration": {"phases_pi": {"0.3": 1, "0.7": 2}}}, "calibration.phases_pi",
    ),
    "fisher-theta-grid-string": (
        "fisher", {"fisher": {"theta_grid_pi": "1"}}, "fisher.theta_grid_pi",
    ),
    "fisher-theta-grid-object": (
        "fisher", {"fisher": {"theta_grid_pi": {"0.5": 1}}}, "fisher.theta_grid_pi",
    ),
    "theta-grid-string-and-bool": (
        "scan", {"plan": {"theta_grid_pi": ["0.5", True]}}, "plan.theta_grid_pi",
    ),
    "calibration-phases-strings": (
        "calibrate", {"calibration": {"phases_pi": ["0.3", "0.7"]}}, "calibration.phases_pi",
    ),
    "fisher-theta-grid-bool": (
        "fisher", {"fisher": {"theta_grid_pi": [0.5, False]}}, "fisher.theta_grid_pi",
    ),
}

# Sizes beyond numpy's array index range, which it rejects with
# "Maximum allowed dimension/size exceeded", or with "array is too big"
# where only the size in bytes is beyond it, before allocating anything:
# (command, config, the keys the error names).
_TOO_LARGE = {
    "scan-p-beyond-numpy": ("scan", {"plan": {"p": 1e30, "replicas": 1}}, "plan.p"),
    "scan-grid-points-beyond-numpy": (
        "scan", {"plan": {"grid_points": 1e30, "replicas": 1}}, "plan.grid_points",
    ),
    "pulses-per-phase-beyond-numpy": (
        "calibrate", {"calibration": {"pulses_per_phase": 1e30}}, "calibration.pulses_per_phase",
    ),
    "calibrate-n-max-beyond-numpy": ("calibrate", {"model": {"n_max": 1e30}}, "model.n_max"),
    # an ideal scan never reads model.n_max; the identity channel's likelihood does
    "scan-n-max-beyond-numpy": (
        "scan",
        {"model": {"n_max": 1e30}, "noise": {"kind": "identity"}, "plan": {"replicas": 1}},
        "model.n_max",
    ),
    # np.arange reads 2**63 + 1 as an empty range; the log-factorial table checks the size
    "fisher-n-max-beyond-numpy": ("fisher", {"model": {"n_max": 2**63}}, "model.n_max"),
    "scan-p-bytes-beyond-numpy": ("scan", {"plan": {"p": 2**61, "replicas": 1}}, "plan.p"),
    "scan-grid-bytes-beyond-numpy": (
        "scan", {"plan": {"grid_points": 2**61, "replicas": 1}}, "plan.grid_points",
    ),
    # the default plan is large enough for worker processes; the scan's
    # buffers are allocated before its table's nodes, and before any fork
    "scan-grid-points-2-63-default-plan": (
        "scan", {"plan": {"grid_points": 2**63}}, "plan.grid_points",
    ),
}


# Drawn config values, by key. Sizes are small or at least 2**63, past
# numpy's index range: a valid but huge size would only make a run slow.
# Every key may also get a value of the wrong kind.
_SIZES = st.integers(-2, 6) | st.integers(2**63, 2**66)
_ANGLES = st.lists(st.floats(-0.5, 1.5) | st.just(math.nan), max_size=4)
_NUMBERS = st.floats() | st.integers(-2, 40)
_VALUES = {
    "model": {"nbar": _NUMBERS, "n_max": _SIZES},
    "noise": {
        "kind": st.sampled_from(["identity", "paper_regime", "matrix", "gremlins"]),
        "n_max": _SIZES,
        "forward_c": st.lists(st.lists(st.floats(-0.5, 1.5), max_size=3), max_size=3),
        "forward_d": st.sampled_from([np.eye(5).tolist(), np.eye(2).tolist()]),
    },
    "calibration": {
        "phases_pi": _ANGLES,
        "pulses_per_phase": _SIZES,
        "weights_file": st.just("no-such-weights.json"),
    },
    "plan": {
        "theta_grid_pi": _ANGLES,
        "p": _SIZES,
        "replicas": st.integers(-1, 3),
        "seed": _SIZES,
        "grid_points": _SIZES,
        "estimators": st.lists(st.sampled_from([*ESTIMATOR_NAMES, "psychic"]), max_size=3),
    },
    "fisher": {"theta_grid_pi": _ANGLES, "d_theta": _NUMBERS},
    "output": {"dir": st.just("ignored")},
}
_WRONG_KIND = st.sampled_from([None, True, "1", [[1]], {"a": 1}, 2.5, math.inf])
# Small sizes where the config leaves them out, so a valid run stays quick.
_QUICK = {
    "plan": {"theta_grid_pi": [0.5], "p": 5, "replicas": 2, "grid_points": 64},
    "calibration": {"phases_pi": [0.1, 0.3, 0.5, 0.7, 0.9], "pulses_per_phase": 200},
    "fisher": {"theta_grid_pi": [0.5]},
}


@st.composite
def config_docs(draw):
    """A few config keys set to drawn values."""
    keys = draw(st.lists(st.sampled_from([(s, k) for s in _SCHEMA for k in _SCHEMA[s]]),
                         min_size=1, max_size=3, unique=True))
    doc = {}
    for section, key in keys:
        doc.setdefault(section, {})[key] = draw(_VALUES[section][key] | _WRONG_KIND)
    return doc


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

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff{}")
        assert run("fisher", "--config", str(path), "--quiet") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

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

    def test_one_parser_serves_successive_calls(self, tmp_path, capsys):
        # the parser is built once per process; no flag of one call leaks into the next
        assert build_parser() is build_parser()
        cfg = write_config(tmp_path, {"plan": {"theta_grid_pi": [0.5], "p": 10, "replicas": 2}})
        assert run("fisher", "--config", cfg, "--out-dir", str(tmp_path / "a"), "--quiet") == EXIT_OK
        assert capsys.readouterr().out == ""
        assert run("scan", "bias", "--config", cfg, "--seed", "3",
                   "--out-dir", str(tmp_path / "b")) == EXIT_OK
        assert "wrote" in capsys.readouterr().out
        assert (tmp_path / "a" / "crlb.csv").is_file() and not (tmp_path / "a" / "bias_scan.csv").exists()
        manifest = json.loads((tmp_path / "b" / "bias_manifest.json").read_text())
        assert manifest["seed"] == 3
        # the next scan takes no --seed, so it runs at the plan's default seed
        assert run("scan", "bias", "--config", cfg, "--out-dir", str(tmp_path / "c"), "--quiet") == EXIT_OK
        assert capsys.readouterr().out == ""
        manifest = json.loads((tmp_path / "c" / "bias_manifest.json").read_text())
        assert manifest["seed"] == ExperimentPlan.seed != 3
        with pytest.raises(SystemExit) as exc:
            run("scan", "--config", cfg)
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
            pytest.param("fisher", {"fisher": {"d_theta": "1e-5"}}, id="string-step"),
            pytest.param("scan", {"model": {"nbar": True}}, id="bool-nbar"),
            pytest.param("scan", {"model": {"nbar": "1.08"}}, id="string-nbar"),
            pytest.param("scan", {"model": {"nbar": 10**400}}, id="int-nbar-beyond-float"),
            pytest.param("fisher",
                         {"noise": {"kind": "matrix", "n_max": 1,
                                    "forward_c": [["1", "0"], ["0", "1"]],
                                    "forward_d": np.eye(2).tolist()}},
                         id="string-forward-matrix"),
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
            *(pytest.param(command, {"noise": {"kind": "paper_regime", "n_max": -1}},
                           id=f"{command}-paper-regime-negative-n-max")
              for command in ("calibrate", "scan", "fisher")),
            pytest.param("scan",
                         {"noise": {"kind": "identity", "n_max": -1}, "plan": {"replicas": 1}},
                         id="scan-identity-negative-n-max"),
            # 1000 pulses of 1e17 photons would wrap a port total past int64
            pytest.param("scan",
                         {"model": {"nbar": 1e17},
                          "plan": {"p": 1000, "theta_grid_pi": [0.25], "replicas": 1,
                                   "estimators": ["classical"]}},
                         id="port-totals-beyond-int64"),
            *(pytest.param(command, doc, id=name)
              for name, (command, doc, _) in {
                  **_NON_FINITE, **_NOT_A_LIST, **_TOO_LARGE
              }.items()),
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

    @pytest.mark.parametrize("command, doc, named", _NOT_A_LIST.values(), ids=_NOT_A_LIST)
    def test_angle_list_key_is_named(self, tmp_path, capsys, command, doc, named):
        cfg = write_config(tmp_path, {**doc, "output": {"dir": str(tmp_path / "out")}})
        argv = [command, "bias"] if command == "scan" else [command]
        assert run(*argv, "--config", cfg, "--quiet") == EXIT_CONFIG
        assert f"bad {named}: need a list of angles" in capsys.readouterr().err

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

    # 1e15 pulses need 7.1 PiB per port, 1e17 grid nodes or counts 711 PiB
    # per row, and 1e9 reportable counts 6.9 EiB per misread matrix, more
    # than the 128 TiB a process maps by default and less than the 2**63
    # bytes numpy can index, so the allocation fails at once under any
    # overcommit policy.
    @pytest.mark.parametrize(
        "command, doc, named",
        [
            pytest.param(
                "calibrate",
                {"calibration": {"pulses_per_phase": 1e15}},
                "calibration.pulses_per_phase",
                id="pulses-per-phase",
            ),
            pytest.param("scan", {"plan": {"p": 1e15, "replicas": 1}}, "plan.p", id="scan-p"),
            pytest.param("scan", {"plan": {"grid_points": 10**17, "replicas": 1}},
                         "plan.grid_points", id="scan-grid-points"),
            *(pytest.param(command, {"noise": {"kind": "paper_regime", "n_max": 1e9}},
                           "noise.n_max", id=f"{command}-paper-regime-n-max")
              for command in ("calibrate", "scan", "fisher")),
            pytest.param("scan", {"noise": {"kind": "identity", "n_max": 1e9}},
                         "noise.n_max", id="scan-identity-n-max"),
            pytest.param("fisher", {"model": {"n_max": 1e17}}, "model.n_max",
                         id="fisher-n-max"),
            pytest.param("fisher", {"model": {"n_max": 1e17}, "noise": {"kind": "identity"}},
                         "model.n_max", id="fisher-identity-n-max"),
            *(pytest.param(*case, id=name) for name, case in _TOO_LARGE.items()),
        ],
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
        "estimators", [[["bayes"]], [{"a": 1}], ["x", 3]], ids=["list", "object", "number"]
    )
    def test_estimator_not_a_string_is_named(self, tmp_path, capsys, estimators):
        cfg = write_config(tmp_path, {"plan": {"estimators": estimators}})
        assert run("scan", "bias", "--config", cfg, "--quiet") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: bad plan.estimators: ")

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
            (_WEIGHTS_KEY_BEYOND_N_MAX, None, "'(9,9)'"),
            (_WEIGHTS_NEGATIVE_KEY, None, "'(-1,0)'"),
            (_WEIGHTS_N_MAX_10000, None, "n_max 10000, but the noise model has n_max 4"),
        ],
        ids=["no-weights-key", "not-json", "no-nbar", "nan-weight", "nan-fringe", "no-channel",
             "key-beyond-n-max", "negative-key", "n-max-10000"],
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
        # at theta = pi/2 one pulse per estimation often detects nothing; an
        # ideal plan reads each replica's pulses, a noisy one its pair histogram
        out = tmp_path / "out"
        plan = {"theta_grid_pi": [0.5], "p": 1, "replicas": 3, "estimators": ["ymk"], "seed": 3}
        for noise in ({}, {"noise": {"kind": "identity"}}):
            cfg = write_config(tmp_path, {"plan": plan, **noise, "output": {"dir": str(out)}})
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

    @given(doc=config_docs())
    @example(doc={"noise": {"kind": "paper_regime", "n_max": -1}})
    @example(doc={"noise": {"kind": "identity", "n_max": -1}})
    @example(doc={"model": {"nbar": 1e17}, "plan": {"p": 10, "estimators": ["bayes"]}})
    # sizes numpy can index but no process can hold, which _SIZES does not draw
    @example(doc={"noise": {"kind": "paper_regime", "n_max": 1e9}})
    @example(doc={"model": {"n_max": 1e17}})
    @settings(max_examples=25, deadline=None)
    def test_any_config_value_exits_cleanly(self, doc):
        # every command ends in a documented exit code, never a traceback
        assert set(_VALUES) == set(_SCHEMA)
        assert all(set(_VALUES[s]) == set(_SCHEMA[s]) for s in _SCHEMA)
        config = {s: {**_QUICK.get(s, {}), **doc.get(s, {})} for s in {*_QUICK, *doc}}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), config)
            for argv in (["calibrate"], ["scan", "bias"], ["fisher"]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = run(*argv, "--config", cfg, "--out-dir", tmp, "--quiet")
                assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
                if code != EXIT_OK:
                    assert err.getvalue().startswith(("config error:", "numerical failure:"))

    def test_no_partial_outputs_on_failure(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {"fisher": {"d_theta": 0.0}, "output": {"dir": str(out)}},
        )
        assert run("fisher", "--config", cfg) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
    @pytest.mark.parametrize("argv", [["calibrate"], ["scan", "bias"], ["fisher"]],
                             ids=["calibrate", "scan-bias", "fisher"])
    def test_unusable_output_directory_is_config_error(self, tmp_path, capsys, argv, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out" if below else blocker
        # the path below a file comes from output.dir, the file itself from --out-dir
        cfg = write_config(tmp_path, {**_QUICK, "output": {"dir": str(out)}})
        extra = [] if below else ["--out-dir", str(out)]
        assert run(*argv, "--config", cfg, *extra) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(out) in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["blocker", "config.json"]
        assert blocker.read_text() == ""


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

    @pytest.mark.parametrize(
        "noise, estimators, code",
        [
            ("paper_regime", ["fringe", "classical"], EXIT_CONFIG),
            ("paper_regime", ["classical"], EXIT_OK),
            ("identity", ["fringe", "classical"], EXIT_OK),
        ],
        ids=["fringe-listed", "fringe-not-listed", "identity"],
    )
    def test_missing_fringe_file(self, tmp_path, capsys, noise, estimators, code):
        # without fringe.json a noisy fringe row would invert the ideal
        # fringe, and equal the classical row; the identity channel's
        # fringe is the ideal one
        out = tmp_path / "out"
        doc = {
            "noise": {"kind": noise},
            "calibration": {"pulses_per_phase": 5000},
            "plan": {"theta_grid_pi": [0.25], "p": 100, "replicas": 2, "estimators": estimators},
            "output": {"dir": str(out)},
        }
        cfg = write_config(tmp_path, doc)
        assert run("calibrate", "--config", cfg, "--quiet") == EXIT_OK
        (out / "fringe.json").unlink()
        capsys.readouterr()
        assert run("scan", "bias", "--config", cfg, "--quiet") == code
        err = capsys.readouterr().err
        if code == EXIT_CONFIG:
            assert err.startswith("config error:") and str(out / "fringe.json") in err
        assert (out / "bias_scan.csv").exists() == (code == EXIT_OK)

    def test_pipeline_on_workers_leaves_no_thread(self, tmp_path, on_workers):
        # calibrate, then scan, in this process, each map on two forked
        # workers; on_workers checks that no worker outlives them
        cfg = write_config(tmp_path, {
            "noise": {"kind": "paper_regime"},
            "calibration": {"pulses_per_phase": 5000},
            "plan": {"theta_grid_pi": [0.25, 0.5], "p": 100, "replicas": 4},
            "output": {"dir": str(tmp_path / "out")},
        })
        with on_workers(2):
            assert run("calibrate", "--config", cfg, "--quiet") == EXIT_OK
            assert run("scan", "bias", "--config", cfg, "--quiet") == EXIT_OK
        assert threading.active_count() == 1

    @pytest.mark.parametrize("change", ["edited", "other-seed", "weights-without-digest"])
    def test_fringe_file_not_from_the_weights_calibration(self, tmp_path, capsys, change):
        # a fringe.json that the weights do not record would be read with
        # them without a word
        out, other = tmp_path / "out", tmp_path / "other"
        doc = {
            "noise": {"kind": "paper_regime"},
            "calibration": {"pulses_per_phase": 5000},
            "plan": {"theta_grid_pi": [0.25], "p": 100, "replicas": 2,
                     "estimators": ["fringe", "classical"]},
            "output": {"dir": str(out)},
        }
        cfg = write_config(tmp_path, doc)
        assert run("calibrate", "--config", cfg, "--quiet") == EXIT_OK
        weights = json.loads((out / "weights.json").read_text())
        fringe = (out / "fringe.json").read_bytes()
        assert weights["fringe_sha256"] == hashlib.sha256(fringe).hexdigest()
        if change == "edited":
            params = json.loads(fringe)
            params["a"] += 0.01
            (out / "fringe.json").write_text(json.dumps(params, indent=2) + "\n")
        elif change == "other-seed":
            assert run("calibrate", "--config", cfg, "--seed", "8", "--out-dir", str(other),
                       "--quiet") == EXIT_OK
            (out / "fringe.json").write_bytes((other / "fringe.json").read_bytes())
        else:
            del weights["fringe_sha256"]
            (out / "weights.json").write_text(json.dumps(weights, indent=2) + "\n")
        capsys.readouterr()
        assert run("scan", "bias", "--config", cfg, "--quiet") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "re-run the calibrate command" in err
        assert str(out / "weights.json") in err and str(out / "fringe.json") in err
        reason = "does not record" if change == "weights-without-digest" else "sha256 differs"
        assert reason in err
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
