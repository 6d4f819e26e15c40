import contextlib
import copy
import hashlib
import inspect
import io
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from holderlab import cache, cli
from holderlab.conjugacy import conjugacy_residual, rigidity_report
from holderlab.exponents import spectrum_experiment
from holderlab.ifs import ConfigurationError, system_from_json
from holderlab.takagi import eval_derivative_point
from holderlab.transition import gap_probe

DYADIC = {
    "branches": [{"slope": 2.0, "intercept": 0.0},
                 {"slope": 2.0, "intercept": -1.0}],
    "open_set": [0.0, 1.0],
    "p": [0.25],
    "mode": "float",
}
RATIONAL = dict(DYADIC, mode="rational",
                branches=[{"slope": 2, "intercept": 0},
                          {"slope": 2, "intercept": -1}],
                open_set=[0, 1], p=["1/4"])
THREE = dict(DYADIC, branches=[{"slope": 3.0, "intercept": -k}
                               for k in (0.0, 1.0, 2.0)], p=[0.25, 0.25])


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("HOLDERLAB_CACHE", str(tmp_path / "cache"))


def write_config(tmp_path, command, params, system=None, out=None):
    doc = {
        "system": system or DYADIC,
        "command": command,
        "params": params,
        "out": str(out or tmp_path / "out"),
    }
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(doc))
    return path


def run_cli(cfg_path, *extra):
    return cli.main(["--config", str(cfg_path), *extra])


def test_eval_t_monotone_csv(tmp_path):
    cfg = write_config(tmp_path, "eval-t", {"grid_size": 129, "tol": 1e-12})
    assert run_cli(cfg) == 0
    lines = (tmp_path / "out" / "T.csv").read_text().splitlines()
    assert lines[0] == "x,value"
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert vals == sorted(vals)
    assert vals[0] == 0.0 and vals[-1] == 1.0


def test_eval_t_rational_exact(tmp_path):
    system = dict(DYADIC, mode="rational",
                  branches=[{"slope": 2, "intercept": 0},
                            {"slope": 2, "intercept": -1}],
                  open_set=[0, 1], p=["1/4"])
    cfg = write_config(tmp_path, "eval-t", {"grid_size": 9, "margin": 0.25},
                       system=system)
    assert run_cli(cfg) == 0
    lines = (tmp_path / "out" / "T.csv").read_text().splitlines()
    row = dict(l.split(",") for l in lines[1:])
    assert row["1/2"] == "1/4"


def test_eval_c_csv(tmp_path):
    cfg = write_config(tmp_path, "eval-c", {"order": [1], "grid_size": 65})
    assert run_cli(cfg) == 0
    lines = (tmp_path / "out" / "C.csv").read_text().splitlines()
    assert lines[0] == "x,C_value,err_bound"
    assert len(lines) == 66


def test_eval_c_requires_order(tmp_path):
    cfg = write_config(tmp_path, "eval-c", {})
    assert run_cli(cfg) == 1


def test_spectrum_and_summary(tmp_path):
    cfg = write_config(tmp_path, "spectrum",
                       {"alpha_grid": {"count": 9}})
    assert run_cli(cfg) == 0
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "alpha,g,beta_argmin"
    first = float(lines[1].split(",")[0])
    last = float(lines[-1].split(",")[0])
    assert first == pytest.approx(0.4150374992788437, abs=1e-12)
    assert last == pytest.approx(2.0, abs=1e-12)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert set(summary) == {"alpha_minus", "alpha_plus", "alpha_zero",
                            "delta", "rigidity"}
    assert summary["rigidity"] is False


def test_pressure_csv(tmp_path):
    cfg = write_config(tmp_path, "pressure",
                       {"beta_grid": {"lo": -2, "hi": 2, "count": 5}})
    assert run_cli(cfg) == 0
    lines = (tmp_path / "out" / "pressure.csv").read_text().splitlines()
    assert lines[0] == "beta,t,t_prime"
    mid = lines[3].split(",")
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == pytest.approx(1.0, abs=1e-12)


def test_gap_outputs(tmp_path):
    cfg = write_config(tmp_path, "gap",
                       {"alpha": 0.6, "n_max": 25, "grid_size": 1025,
                        "probe_words": 16})
    assert run_cli(cfg) == 0
    lines = (tmp_path / "out" / "gap.csv").read_text().splitlines()
    assert lines[0] == "n,sup_norm,holder_seminorm"
    verdict = json.loads((tmp_path / "out" / "gap.json").read_text())
    assert verdict["verdict"] == "growing"
    assert sorted(verdict) == ["alpha", "slope", "slope_stderr", "verdict"]


def test_exponent_csv_header(tmp_path):
    cfg = write_config(tmp_path, "exponent",
                       {"betas": [0.0], "word_len": 40, "count": 4})
    assert run_cli(cfg) == 0
    lines = (tmp_path / "out" / "exponent.csv").read_text().splitlines()
    assert lines[0] == ("beta,alpha_pred,g,dyn_mean,dyn_sigma,"
                        "emp_mean,emp_sigma,count,seed")


def test_conjugacy_and_report(tmp_path):
    cfg = write_config(tmp_path, "conjugacy", {"sample_count": 32})
    assert run_cli(cfg) == 0
    doc = json.loads((tmp_path / "out" / "conjugacy.json").read_text())
    assert doc["max_conjugacy_residual"] <= 1e-9
    assert sorted(doc) == ["max_conjugacy_residual", "sample_count", "seed"]
    cfg = write_config(tmp_path, "report",
                       {"sample_count": 16, "grid_sizes": [129, 257]})
    assert run_cli(cfg) == 0
    doc = json.loads((tmp_path / "out" / "rigidity.json").read_text())
    assert doc["verdict"] == "non-rigid"


@pytest.mark.parametrize("command, params, files", [
    ("spectrum", {"alpha_grid": {"count": 9}}, ("spectrum.csv",
                                                "summary.json")),
    ("pressure", {"beta_grid": {"lo": -2, "hi": 2, "count": 5}},
     ("pressure.csv",)),
    ("gap", {"alpha": 0.6, "n_max": 25, "grid_size": 1025,
             "probe_words": 16}, ("gap.csv", "gap.json")),
    ("report", {"sample_count": 16, "grid_sizes": [129, 257]},
     ("rigidity.json",)),
    ("exponent", {"betas": [-1.0, 0.0, 1.0], "word_len": 20, "count": 2},
     ("exponent.csv",)),
    ("conjugacy", {"sample_count": 32}, ("conjugacy.json",)),
])
def test_rational_weights_write_the_float_mode_artifacts(tmp_path, command,
                                                         params, files):
    # a float computation reads exact weights as their float twin, the
    # vector a float-mode config of the rounded free weights builds; 7/10
    # rounds up, and 1 - 0.7 is not the float nearest to 3/10
    written = {}
    for system in (dict(RATIONAL, p=["7/10"]), dict(DYADIC, p=[0.7])):
        out = tmp_path / system["mode"]
        cfg = write_config(tmp_path, command, params, system=system, out=out)
        assert run_cli(cfg) == 0
        written[system["mode"]] = [(out / f).read_bytes() for f in files]
    assert written["rational"] == written["float"]


def test_rigidity_rule_at_its_tolerance(tmp_path):
    # summary.json and rigidity.json share one rule, alpha_plus - alpha_minus
    # <= tol: rigid at tol equal to the difference, not one ulp below it
    cfg = write_config(tmp_path, "spectrum", {"alpha_grid": {"count": 5}})
    assert run_cli(cfg) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    diff = summary["alpha_plus"] - summary["alpha_minus"]
    for tol, rigid in ((diff, True), (np.nextafter(diff, 0.0), False)):
        cfg = write_config(tmp_path, "spectrum", {
            "alpha_grid": {"count": 5}, "rigidity_tol": float(tol)})
        assert run_cli(cfg) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["rigidity"] is rigid
        cfg = write_config(tmp_path, "report", {
            "tol": float(tol), "sample_count": 16, "grid_sizes": [129, 257]})
        assert run_cli(cfg) == 0
        doc = json.loads((tmp_path / "out" / "rigidity.json").read_text())
        assert doc["rigid"] is rigid
        assert doc["verdict"] == ("rigid" if rigid else "non-rigid")


def test_manifest_lists_every_file(tmp_path):
    cfg = write_config(tmp_path, "spectrum", {"alpha_grid": {"count": 5}})
    assert run_cli(cfg) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {entry["file"] for entry in manifest["outputs"]}
    written = {f.name for f in out.iterdir()} - {"manifest.json"}
    assert listed == written
    assert manifest["command"] == "spectrum"
    assert "version" in manifest


def test_cache_round_trip_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "spectrum", {"alpha_grid": {"count": 7}})
    assert run_cli(cfg) == 0
    first = (tmp_path / "out" / "spectrum.csv").read_bytes()
    (tmp_path / "out" / "spectrum.csv").unlink()
    assert run_cli(cfg) == 0
    assert (tmp_path / "out" / "spectrum.csv").read_bytes() == first


def test_cache_entry_of_other_code_not_served(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "spectrum", {"alpha_grid": {"count": 7}})
    out = tmp_path / "out" / "spectrum.csv"
    real = cli._code_digest()
    monkeypatch.setattr(cli, "_code_digest", lambda: "0" * 64)
    assert run_cli(cfg) == 0
    fresh = out.read_bytes()
    # replace the one entry, written under the other digest, by a valid one
    # holding a stale spectrum.csv body
    (entry,) = [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]
    stale = b"x,stale\n"
    outputs = json.loads(entry.read_bytes().partition(b"\n")[2])
    assert outputs[0][0] == "spectrum.csv"
    outputs[0][1] = stale.decode()
    payload = cli._json_bytes(outputs)
    entry.write_bytes(hashlib.sha256(payload).hexdigest().encode() + b"\n"
                      + payload)
    assert run_cli(cfg) == 0
    assert out.read_bytes() == stale
    monkeypatch.setattr(cli, "_code_digest", lambda: real)
    assert run_cli(cfg) == 0
    assert out.read_bytes() == fresh


def test_changed_weights_change_key():
    a = cache.cache_key({"op": "spectrum", "p": [0.25]})
    b = cache.cache_key({"op": "spectrum", "p": [0.26]})
    assert a != b


def test_cache_corrupt_entry_recovered(tmp_path, caplog):
    root = tmp_path / "cachedir"
    calls = []

    def produce():
        calls.append(1)
        return b"payload"

    key = cache.cache_key({"x": 1})
    assert cache.cached_bytes(key, produce, root=root) == b"payload"
    entry = root / key[:2] / key
    entry.write_bytes(b"deadbeef\ncorrupted")
    with caplog.at_level(logging.WARNING, logger="holderlab.cache"):
        assert cache.cached_bytes(key, produce, root=root) == b"payload"
    assert len(calls) == 2
    assert any("corrupt" in r.message for r in caplog.records)
    # entry is repaired in place afterwards
    assert cache.cached_bytes(key, produce, root=root) == b"payload"
    assert len(calls) == 2


def test_failed_atomic_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    path = tmp_path / "entries" / "entry"
    with pytest.raises(OSError, match="rename refused"):
        cache._write_atomic(path, b"payload")
    assert list(path.parent.iterdir()) == []


def test_exit_code_config_errors(tmp_path):
    assert cli.main(["--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": DYADIC, "command": "eval-t",
                               "params": {"bogus": 1},
                               "out": str(tmp_path / "o")}))
    assert cli.main(["--config", str(bad)]) == 1
    bad.write_text(json.dumps({"system": DYADIC, "command": "fly",
                               "out": str(tmp_path / "o")}))
    assert cli.main(["--config", str(bad)]) == 1
    bad.write_text("{not json")
    assert cli.main(["--config", str(bad)]) == 1
    assert cli.main(["--nope"]) == 1


MALFORMED = {
    "null-system": ("eval-t", {}, None),
    "scalar-branches": ("eval-t", {}, dict(DYADIC, branches=5)),
    "text-slope": ("eval-t", {}, dict(DYADIC, branches=[
        {"slope": "steep", "intercept": 0.0}, DYADIC["branches"][1]])),
    "text-weight": ("eval-t", {}, dict(DYADIC, p=["heavy"])),
    "null-weight": ("eval-t", {}, dict(DYADIC, p=[None])),
    "text-grid-size": ("eval-t", {"grid_size": "x"}, DYADIC),
    "text-tol": ("eval-t", {"tol": "small"}, DYADIC),
    "text-seed": ("conjugacy", {"seed": "x"}, DYADIC),
    "list-margin": ("eval-c", {"order": [1], "margin": [0.2]}, DYADIC),
    "text-beta-count": ("pressure", {"beta_grid": {"count": "many"}}, DYADIC),
    "scalar-order": ("eval-c", {"order": 1}, DYADIC),
    "scalar-betas": ("exponent", {"betas": 0.5}, DYADIC),
    "text-alpha-grid": ("spectrum", {"alpha_grid": "fine"}, DYADIC),
    "gap-alpha-above-one": ("gap", {"alpha": 1.5}, DYADIC),
    "gap-n-max-one": ("gap", {"alpha": 0.5, "n_max": 1}, DYADIC),
    "exponent-count-zero": ("exponent", {"count": 0}, DYADIC),
    "exponent-word-len-zero": ("exponent", {"word_len": 0}, DYADIC),
    "eval-t-tol-inf": ("eval-t", {"tol": "inf"}, DYADIC),
    "conjugacy-tol-inf": ("conjugacy", {"tol": "inf"}, DYADIC),
    "conjugacy-tol-retired": ("conjugacy", {"tol": 1e-10}, DYADIC),
    "conjugacy-exclusion-retired": ("conjugacy", {"exclusion": 1e-6}, DYADIC),
    "spectrum-rigidity-tol-inf": ("spectrum", {"rigidity_tol": "inf"}, DYADIC),
    "eval-t-margin-nan": ("eval-t", {"margin": "nan"}, DYADIC),
    "eval-t-margin-nan-rational": ("eval-t", {"margin": "nan"}, RATIONAL),
    "eval-t-grid-size-one": ("eval-t", {"grid_size": 1}, DYADIC),
    "eval-t-grid-size-one-rational": ("eval-t", {"grid_size": 1}, RATIONAL),
    "eval-t-grid-size-negative": ("eval-t", {"grid_size": -5}, DYADIC),
    "eval-t-grid-size-negative-rational": ("eval-t", {"grid_size": -5},
                                           RATIONAL),
    "conjugacy-sample-count-zero": ("conjugacy", {"sample_count": 0}, DYADIC),
    "report-sample-count-negative": ("report", {"sample_count": -3}, DYADIC),
    "gap-probe-words-negative": ("gap", {"alpha": 0.5, "probe_words": -1},
                                 DYADIC),
    "gap-grid-size-one": ("gap", {"alpha": 0.5, "grid_size": 1}, DYADIC),
    "gap-margin-nan": ("gap", {"alpha": 0.5, "margin": "nan"}, DYADIC),
    "gap-margin-reverses-grid": ("gap", {"alpha": 0.5, "margin": -0.6},
                                 DYADIC),
    "eval-c-terms-zero": ("eval-c", {"order": [1], "terms": 0}, DYADIC),
    "eval-c-depth-negative-rational": ("eval-c", {"order": [1], "depth": -1},
                                       RATIONAL),
    "eval-c-order-too-short": ("eval-c", {"order": [1]}, THREE),
    "eval-c-order-too-long": ("eval-c", {"order": [1, 0, 0]}, THREE),
    "spectrum-count-zero": ("spectrum", {"alpha_grid": {"count": 0}}, DYADIC),
    "spectrum-count-negative": ("spectrum", {"alpha_grid": {"count": -2}},
                                DYADIC),
    "spectrum-alpha-grid-empty": ("spectrum", {"alpha_grid": []}, DYADIC),
    "spectrum-alpha-grid-nan": ("spectrum", {"alpha_grid": ["nan", 1.0]},
                                DYADIC),
    "pressure-beta-grid-empty": ("pressure", {"beta_grid": []}, DYADIC),
    "pressure-count-negative": ("pressure", {"beta_grid": {"count": -1}},
                                DYADIC),
    "pressure-lo-nan": ("pressure", {"beta_grid": {"lo": "nan"}}, DYADIC),
    "report-grid-sizes-empty": ("report", {"grid_sizes": []}, DYADIC),
    "report-grid-size-one": ("report", {"grid_sizes": [1]}, DYADIC),
    "exponent-with-empirical-text": ("exponent", {"with_empirical": "false"},
                                     DYADIC),
    "exponent-betas-empty": ("exponent", {"betas": []}, DYADIC),
    "exponent-betas-nan": ("exponent", {"betas": ["nan"]}, DYADIC),
    "exponent-scales-empty": ("exponent", {"scales": []}, DYADIC),
    "exponent-seed-negative": ("exponent", {"seed": -1}, DYADIC),
    "conjugacy-seed-fractional": ("conjugacy", {"seed": 1.7}, DYADIC),
    "eval-t-grid-size-fractional": ("eval-t", {"grid_size": 33.9}, DYADIC),
    "flag-seed-negative-eval-t": ("eval-t", {}, DYADIC, "--seed", "-4"),
    "flag-seed-negative-gap": ("gap", {"alpha": 0.5}, DYADIC, "--seed", "-4"),
    "flag-threads-zero": ("exponent", {}, DYADIC, "--threads", "0"),
    "gap-seed-too-big": ("gap", {"alpha": 0.5, "seed": 10 ** 40}, DYADIC),
    "gap-seed-2-128": ("gap", {"alpha": 0.5, "seed": 2 ** 128}, DYADIC),
    "flag-seed-too-big-gap": ("gap", {"alpha": 0.5}, DYADIC,
                              "--seed", str(2 ** 128)),
    "pressure-beta-span-overflow": (
        "pressure", {"beta_grid": {"lo": -1e308, "hi": 1e308, "count": 3}},
        DYADIC),
    "pressure-beta-span-overflow-rational": (
        "pressure", {"beta_grid": {"lo": -1e308, "hi": 1e308, "count": 3}},
        RATIONAL),
    "mode-decimal": ("eval-t", {}, dict(DYADIC, mode="decimal")),
    "open-set-three-numbers": ("eval-t", {},
                               dict(DYADIC, open_set=[0.0, 0.5, 1.0])),
    "open-set-reversed": ("eval-t", {}, dict(DYADIC, open_set=[1.0, 0.0])),
    "two-free-weights-two-branches": ("eval-t", {},
                                      dict(DYADIC, p=[0.25, 0.25])),
    "missing-weights": ("eval-t", {},
                        {k: v for k, v in DYADIC.items() if k != "p"}),
}


# a non-finite, overflowing or undefined number: JSON Infinity and NaN, and
# three strings
NON_FINITE = {"Infinity": float("inf"), "NaN": float("nan"), "inf": "inf",
              "1e400": "1e400", "1by0": "1/0"}
SYSTEM_NUMBERS = ("slope", "intercept", "open_set", "p")


def with_number(system, where, value):
    """A copy of system with one number of kind `where` (one of
    SYSTEM_NUMBERS) replaced by value."""
    system = copy.deepcopy(system)
    if where in ("slope", "intercept"):
        system["branches"][0][where] = value
    else:
        system[where][-1] = value
    return system


MALFORMED.update({
    f"{where}-{name}-{mode}": ("eval-t", {}, with_number(base, where, value))
    for where in SYSTEM_NUMBERS for name, value in NON_FINITE.items()
    for mode, base in (("float", DYADIC), ("rational", RATIONAL))})


def write_raw_config(tmp_path, command, params, system, raw=None):
    """The config as a file in which the bytes raw, if given, replace every
    string "@raw", quotes included."""
    path = tmp_path / "config.json"
    text = json.dumps({"system": system, "command": command,
                       "params": params, "out": str(tmp_path / "out")})
    path.write_bytes(text.encode().replace(b'"@raw"', raw or b'"@raw"'))
    return path


def fresh_cli(cfg, *flags, timeout=120):
    """`python -m holderlab.cli --config cfg *flags` in a fresh interpreter."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "holderlab.cli",
                           "--config", str(cfg), *flags], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_config_exits_1(tmp_path, capsys, name):
    command, params, system, *flags = MALFORMED[name]
    cfg = write_raw_config(tmp_path, command, params, system)
    assert run_cli(cfg, *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("holderlab: config error:")
    assert not (tmp_path / "out").exists()


# config documents of the wrong shape, each made from a valid one, and the
# message each gets
WRONG_SHAPE = {
    "root-list": (lambda doc: [], "config root must be a JSON object"),
    "extra-key": (lambda doc: dict(doc, outt="x"),
                  "unknown config keys ['outt']"),
    "no-command": (lambda doc: {k: v for k, v in doc.items()
                                if k != "command"},
                   "config needs 'system' and 'command'"),
    "params-list": (lambda doc: dict(doc, params=[]),
                    "'params' must be an object"),
}


@pytest.mark.parametrize("name", sorted(WRONG_SHAPE))
def test_config_of_wrong_shape_exits_1(tmp_path, capsys, name):
    reshape, message = WRONG_SHAPE[name]
    doc = {"system": DYADIC, "command": "eval-t", "params": {},
           "out": str(tmp_path / "out")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(reshape(doc)))
    assert run_cli(cfg) == 1
    # one line, so no traceback
    assert capsys.readouterr().err == f"holderlab: config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_malformed_system_no_traceback_in_fresh_process(tmp_path):
    done = fresh_cli(write_raw_config(tmp_path, "eval-t", {}, None))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr


def test_non_finite_system_number_no_traceback_in_fresh_process(tmp_path):
    for name in ("slope-Infinity-rational", "intercept-1e400-float",
                 "slope-1e400-rational", "open_set-Infinity-float"):
        done = fresh_cli(write_raw_config(tmp_path, *MALFORMED[name]))
        assert done.returncode == 1, name
        assert done.stderr.startswith("holderlab: config error:"), name
        assert "Traceback" not in done.stderr, name
        assert not (tmp_path / "out").exists(), name


# raw bytes that make a config file other than UTF-8 JSON: a byte 0xff, and
# a JSON integer of 5000 digits, past Python's 4300-digit limit on int
# strings; each replaces a slope or grid_size
RAW = {"byte-ff": b"\xff", "5000-digits": b"9" * 5000}
RAW_PLACES = {"slope": ({}, with_number(DYADIC, "slope", "@raw")),
              "grid-size": ({"grid_size": "@raw"}, DYADIC)}
RAW_FILES = {f"{name}-{where}": ("eval-t", params, system, raw)
             for name, raw in RAW.items()
             for where, (params, system) in RAW_PLACES.items()}


@pytest.mark.parametrize("name", sorted(RAW_FILES))
def test_config_not_utf8_json_exits_1(tmp_path, capsys, name):
    assert run_cli(write_raw_config(tmp_path, *RAW_FILES[name])) == 1
    err = capsys.readouterr().err
    assert err.startswith("holderlab: config error: config is not valid JSON")
    assert not (tmp_path / "out").exists()


def test_config_not_utf8_json_no_traceback_in_fresh_process(tmp_path):
    for name in sorted(RAW_FILES):
        done = fresh_cli(write_raw_config(tmp_path, *RAW_FILES[name]))
        assert done.returncode == 1, name
        assert done.stderr.startswith("holderlab: config error:"), name
        assert "Traceback" not in done.stderr, name


def test_long_exponent_exits_1_in_fresh_process(tmp_path):
    # Fraction would expand 10**999999999 in full, far past the timeout
    for where in ("p", "intercept", "open_set"):
        for base in (DYADIC, RATIONAL):
            system = with_number(base, where, "1e-999999999")
            done = fresh_cli(write_raw_config(tmp_path, "eval-t", {}, system),
                             timeout=10)
            assert done.returncode == 1, (where, base["mode"])
            assert done.stderr.startswith("holderlab: config error:"), where
            assert "Traceback" not in done.stderr, where


def test_exit_code_numeric_failure(tmp_path):
    # empirical scales below the evaluator floor cannot be fit
    cfg = write_config(tmp_path, "exponent",
                       {"betas": [0.0], "word_len": 20, "count": 2,
                        "with_empirical": True, "scales": [1e-30, 1e-31]})
    assert run_cli(cfg) == 2


def test_duplicate_scales_exit_2_with_no_csv(tmp_path, capsys):
    # two equal scales fit no slope, so no NaN cells may be written
    cfg = write_config(tmp_path, "exponent",
                       {"betas": [0.0], "word_len": 20, "count": 2,
                        "with_empirical": True, "scales": [0.001, 0.001]})
    assert run_cli(cfg) == 2
    assert capsys.readouterr().err == ("holderlab: ValueError: fewer than "
                                       "two distinct scales given\n")
    assert not (tmp_path / "out" / "exponent.csv").exists()


def test_overflowing_pressure_root_exits_2(tmp_path, capsys):
    # a finite beta whose root t(beta) lies beyond the largest double
    cfg = write_config(tmp_path, "pressure", {"beta_grid": [1e308]})
    assert run_cli(cfg) == 2
    assert capsys.readouterr().err.count("overflows a double") == 1


def test_overflowing_pressure_root_prints_one_line(tmp_path):
    cfg = write_config(tmp_path, "pressure", {"beta_grid": [1e308]})
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="default")
    done = subprocess.run([sys.executable, "-m", "holderlab.cli",
                           "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr == ("holderlab: ValueError: pressure root overflows "
                           "a double\n")


def test_spectrum_empty_level_set_is_empty_cells(tmp_path):
    # 3.0 lies outside [alpha_minus, alpha_plus] = [0.415, 2]: empty level set
    cfg = write_config(tmp_path, "spectrum", {"alpha_grid": [1.0, 3.0]})
    assert run_cli(cfg) == 0
    rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert rows[2] == "3.0,,"
    assert "" not in rows[1].split(",")
    # a NaN that is not a missing value still shows
    assert cli._csv("a,b", [(None, float("nan"))]) == b"a,b\n,nan\n"


def test_exponent_without_empirical_is_empty_cells(tmp_path):
    cfg = write_config(tmp_path, "exponent",
                       {"betas": [0.0], "word_len": 20, "count": 2})
    assert run_cli(cfg) == 0
    rows = (tmp_path / "out" / "exponent.csv").read_text().splitlines()
    cells = dict(zip(rows[0].split(","), rows[1].split(",")))
    assert cells["emp_mean"] == cells["emp_sigma"] == ""
    assert "nan" not in rows[1]


def test_out_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, "eval-t", {"grid_size": 33})
    other = tmp_path / "elsewhere"
    assert run_cli(cfg, "--out", str(other)) == 0
    assert (other / "T.csv").exists()


def _refuse(cfg):
    raise AssertionError("the command ran")


# Path.exists is False on a NUL byte or a lone surrogate and raises on a
# name too long, and a long name under a missing parent fails only when it
# is made
@pytest.mark.parametrize("out", [
    "afile", "afile/sub", 5, pytest.param("o\0x", id="nul-byte"),
    pytest.param("o\ud800x", id="lone-surrogate"),
    pytest.param("a" * 300, id="long-name"),
    pytest.param("missing/" + "a" * 300, id="long-name-under-missing")])
def test_out_that_cannot_be_a_directory_exits_1(tmp_path, monkeypatch,
                                                capsys, out):
    (tmp_path / "afile").write_text("not a directory")
    monkeypatch.setitem(cli._DISPATCH, "eval-t", _refuse)
    doc = {"system": DYADIC, "command": "eval-t", "params": {},
           "out": out if isinstance(out, int) else str(tmp_path / out)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(cfg) == 1
    assert capsys.readouterr().err.startswith("holderlab: config error:")
    assert (tmp_path / "afile").read_text() == "not a directory"
    assert not (tmp_path / "cache").exists()


def test_out_that_cannot_be_a_path_exits_1_in_fresh_process(tmp_path):
    doc = {"system": DYADIC, "command": "eval-t", "params": {},
           "out": str(tmp_path) + "/o\0x"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    for flags in [(), ("--out", str(tmp_path / ("a" * 300)))]:
        done = fresh_cli(cfg, *flags)
        assert done.returncode == 1, flags
        assert done.stderr.startswith("holderlab: config error:"), flags
        assert "Traceback" not in done.stderr, flags
        assert not (tmp_path / "cache").exists(), flags


# small parameters for every command
SMALL = {
    "eval-t": {"grid_size": 17},
    "eval-c": {"order": [1], "grid_size": 9, "depth": 20},
    "spectrum": {"alpha_grid": {"count": 5}},
    "pressure": {"beta_grid": {"lo": -2.0, "hi": 2.0, "count": 5}},
    "gap": {"alpha": 0.5, "n_max": 4, "grid_size": 17, "probe_words": 2},
    "exponent": {"betas": [0.0, 1.0], "word_len": 10, "count": 2},
    "conjugacy": {"sample_count": 8},
    "report": {"sample_count": 8, "grid_sizes": [33, 65]},
}


def _files(out):
    return {f.name: f.read_bytes() for f in out.iterdir()}


@pytest.mark.parametrize("system", [DYADIC, RATIONAL],
                         ids=["float", "rational"])
@pytest.mark.parametrize("command", sorted(SMALL))
def test_warm_run_served_from_cache(tmp_path, monkeypatch, command, system):
    assert sorted(SMALL) == sorted(cli.PARAMS)
    cfg = write_config(tmp_path, command, SMALL[command], system=system)
    assert run_cli(cfg, "--out", str(tmp_path / "cold")) == 0
    monkeypatch.setitem(cli._DISPATCH, command, _refuse)
    assert run_cli(cfg, "--out", str(tmp_path / "warm")) == 0
    assert _files(tmp_path / "warm") == _files(tmp_path / "cold")


def test_warm_run_records_its_own_seed(tmp_path, monkeypatch):
    # eval-t holds no seed, so --seed is not in the key but is in the manifest
    cfg = write_config(tmp_path, "eval-t", SMALL["eval-t"])
    assert run_cli(cfg, "--out", str(tmp_path / "cold")) == 0
    monkeypatch.setitem(cli._DISPATCH, "eval-t", _refuse)
    assert run_cli(cfg, "--out", str(tmp_path / "warm"), "--seed", "7") == 0
    cold, warm = _files(tmp_path / "cold"), _files(tmp_path / "warm")
    assert warm["T.csv"] == cold["T.csv"]
    assert json.loads(cold["manifest.json"])["seed"] == 0
    assert json.loads(warm["manifest.json"])["seed"] == 7


def test_mode_flag_overrides(tmp_path):
    system = dict(DYADIC, branches=[{"slope": 2, "intercept": 0},
                                    {"slope": 2, "intercept": -1}],
                  open_set=[0, 1], p=["1/4"])
    cfg = write_config(tmp_path, "eval-t", {"grid_size": 9}, system=system)
    assert run_cli(cfg, "--mode", "rational") == 0
    text = (tmp_path / "out" / "T.csv").read_text()
    assert "/" in text.splitlines()[2]


def test_large_seeds(tmp_path):
    # gap keys a Philox generator, which takes keys below 2**128; the
    # other commands seed generators that take any size
    small = {"alpha": 0.5, "n_max": 4, "grid_size": 9, "probe_words": 2}
    big = 2 ** 128 - 1
    cases = [("gap", dict(small, seed=big), (), big),
             ("gap", small, ("--seed", str(big)), big),
             ("exponent", {"betas": [0.0], "word_len": 10, "count": 2,
                           "seed": 10 ** 40}, (), 10 ** 40),
             ("conjugacy", {"sample_count": 4}, ("--seed", str(2 ** 128)),
              2 ** 128)]
    for k, (command, params, flags, seed) in enumerate(cases):
        out = tmp_path / str(k)
        assert run_cli(write_config(tmp_path, command, params, out=out),
                       *flags) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == seed
        assert "threads" not in manifest


def test_threads_deterministic(tmp_path, monkeypatch):
    for k, betas in enumerate([[0.0, 1.0], [0.5, 0.5]]):
        run = tmp_path / str(k)
        run.mkdir()
        cfg = write_config(run, "exponent",
                           {"betas": betas, "word_len": 30, "count": 4})
        monkeypatch.setenv("HOLDERLAB_CACHE", str(run / "cache1"))
        assert run_cli(cfg) == 0
        single = (run / "out" / "exponent.csv").read_bytes()
        # --threads has no effect and stays out of the cache key and the
        # manifest; recompute in a fresh cache
        monkeypatch.setenv("HOLDERLAB_CACHE", str(run / "cache2"))
        other = run / "out2"
        assert run_cli(cfg, "--out", str(other), "--threads", "4") == 0
        assert (other / "exponent.csv").read_bytes() == single
        # beta number i is seeded with seed + i, repeated betas included
        rows = single.decode().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["0", "1"]


def test_readme_lists_every_parameter():
    readme = Path(cli.__file__).resolve().parents[2] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| command | parameter | type | range | default |")
    listed = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        command, name = (c.strip(" `") for c in line.split("|")[1:3])
        listed.setdefault(command, set()).add(name)
    assert listed == {c: set(t) for c, t in cli.PARAMS.items()}


# the commands whose parameters pass straight to one library entry point,
# with small valid arguments for it
ENTRY_POINTS = {
    "gap": (gap_probe, dict(alpha=0.5, n_max=3, grid_size=9, probe_words=0)),
    "conjugacy": (conjugacy_residual, dict(sample_count=4)),
    "report": (rigidity_report, dict(sample_count=4, grid_sizes=[9])),
    "exponent": (spectrum_experiment, dict(
        betas=[0.0], word_len=4, count=2, scales=[1e-2, 1e-3],
        evaluate=lambda xs: np.sqrt(np.abs(np.asarray(xs, dtype=float))))),
}


def _outside(kind, rng):
    """The first value outside each bound of a CLI range, and NaN for a
    number; in a list of one for a list kind."""
    scalar = kind.removesuffix("[]")
    values = [math.nan] if scalar == "num" else []
    for op, bound in (cond.split() for cond in rng.split(",") if cond):
        base, _, power = bound.partition("**")
        b = float(base) ** int(power or 1)
        if scalar == "int":
            b = int(b)
            values.append({">=": b - 1, ">": b, "<": b, "<=": b + 1}[op])
        else:
            below, above = (math.nextafter(b, d) for d in (-math.inf, math.inf))
            values.append({">=": below, ">": b, "<": b, "<=": above}[op])
    return [[v] for v in values] if kind.endswith("[]") else values


CLI_REFUSALS = [
    pytest.param(command, name, value, id=f"{command}-{name}-{value}")
    for command, (entry, _) in ENTRY_POINTS.items()
    for name, (kind, _, rng) in cli.PARAMS[command].items()
    if name in inspect.signature(entry).parameters
    for value in _outside(kind, rng)
] + [pytest.param("report", "grid_sizes", [], id="report-grid_sizes-[]")]


@pytest.mark.parametrize("command, name, value", CLI_REFUSALS)
def test_library_refuses_what_the_cli_refuses(command, name, value):
    # margins of -0.5 and below, NaN or a tol of 0 once gave a result, as
    # did counts of 0 and empty or one-node grid lists
    kind, _, rng = cli.PARAMS[command][name]
    with pytest.raises(ConfigurationError):
        cli._value(kind, value, rng, name)
    entry, valid = ENTRY_POINTS[command]
    system, p, _ = system_from_json(DYADIC)
    # an out-of-range seed reached numpy, whose message does not name it
    with pytest.raises(ValueError, match="seed" if name == "seed" else None):
        entry(system, p, **dict(valid, **{name: value}))


def test_import_loads_no_scipy():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c",
         "import holderlab.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# float steps of slope 2 and 4 with integer intercepts are exact, so the
# float walk decides every node as the exact walk does at the same float;
# slope-3 systems round their steps and are left out (ROADMAP item 1,
# pinned by a strict xfail in test_takagi.py)
QUAD = dict(DYADIC, branches=[{"slope": 4.0, "intercept": -float(k)}
                              for k in range(4)])


@st.composite
def float_eval_c_runs(draw):
    """A float eval-c config on the dyadic or the four-branch system, with
    weights k/64."""
    system = draw(st.sampled_from([DYADIC, QUAD]))
    free = len(system["branches"]) - 1
    cuts = sorted(draw(st.sets(st.integers(1, 63), min_size=free,
                               max_size=free)))
    weights = [(hi - lo) / 64 for lo, hi in zip([0] + cuts, cuts)]
    order = draw(st.lists(st.integers(0, 2), min_size=free, max_size=free)
                 .filter(lambda o: 1 <= sum(o) <= 2))
    params = {"order": order, "grid_size": draw(st.integers(2, 65)),
              "margin": draw(st.floats(-0.45, 0.45))}
    return dict(system, p=weights), params


@given(float_eval_c_runs())
@example((dict(DYADIC, p=[19 / 64]),
          {"order": [1], "grid_size": 33, "margin": 0.25}))
@settings(max_examples=40, deadline=None)
def test_float_eval_c_within_its_bound(case):
    # every row lies within its err_bound of the exact walk at the same
    # float; at the example's node 1/8 the grid series is off by 9.7e-3
    system, params = case
    exact, p, _ = system_from_json(dict(system, mode="rational"))
    order = tuple(params["order"])
    with tempfile.TemporaryDirectory() as tmp:
        assert run_cli(write_config(Path(tmp), "eval-c", params,
                                    system=system)) == 0
        lines = (Path(tmp) / "out" / "C.csv").read_text().splitlines()[1:]
    assert len(lines) == params["grid_size"]
    for line in lines:
        x, value, bound = (float(v) for v in line.split(","))
        ref, ref_bound = eval_derivative_point(exact, p, order, Fraction(x),
                                               depth=200)
        assert abs(value - ref) <= bound + ref_bound + \
            1e-12 * max(1.0, abs(ref)), x


# small valid values for every parameter of cli.PARAMS but `order`, whose
# length depends on the system
VALID = {
    "grid_size": st.integers(2, 33),
    "margin": st.floats(-0.49, 2.0),
    "tol": st.floats(1e-12, 1.0),
    "depth": st.integers(1, 40),
    "alpha_grid": st.one_of(
        st.fixed_dictionaries({"count": st.integers(1, 9)}),
        st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5)),
    "rigidity_tol": st.floats(1e-12, 1.0),
    "beta_grid": st.one_of(
        st.fixed_dictionaries({"count": st.integers(1, 9)}, optional={
            "lo": st.floats(-10.0, 10.0), "hi": st.floats(-10.0, 10.0)}),
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5)),
    "alpha": st.floats(0.0, 1.0, exclude_min=True),
    "n_max": st.integers(3, 8),
    "probe_words": st.integers(0, 4),
    "seed": st.integers(0, 2 ** 32),
    "betas": st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3),
    "word_len": st.integers(1, 30),
    "count": st.integers(1, 4),
    "with_empirical": st.booleans(),
    "scales": st.lists(st.floats(1e-6, 1e-2), min_size=1, max_size=3),
    "sample_count": st.integers(1, 8),
    "grid_sizes": st.lists(st.integers(2, 65), min_size=1, max_size=2),
}
# always given: the required keys, and the cost-bearing ones kept small
PINNED = {"order", "alpha", "grid_size", "n_max", "sample_count", "count",
          "alpha_grid", "grid_sizes"}
BROKEN = st.sampled_from(["nan", "inf", "-inf", "x", "", -1, 0, 1, -0.6,
                          1.5, 33.9, True, False, None, [], [None], ["nan"],
                          [0], {}, {"count": 0}, {"bogus": 1}])
FLAGS = st.sampled_from([[], ["--seed", "3"], ["--threads", "2"],
                         ["--mode", "rational"]])
BROKEN_FLAGS = st.sampled_from([["--seed", "-1"], ["--seed", "x"],
                                ["--threads", "0"], ["--mode", "exact"]])


@st.composite
def fuzz_configs(draw):
    """A config with valid parameters, or one broken parameter, flag,
    system number or file byte."""
    command = draw(st.sampled_from(sorted(cli.PARAMS)))
    system = draw(st.sampled_from([DYADIC, RATIONAL, THREE]))
    free = len(system["branches"]) - 1
    valid = dict(VALID, order=st.lists(st.integers(0, 2), min_size=free,
                                       max_size=free).filter(any))
    names = sorted(cli.PARAMS[command])
    params = {k: draw(valid[k]) for k in names
              if k in PINNED or draw(st.booleans())}
    flags = draw(FLAGS)
    broken = draw(st.sampled_from(["", "param", "flag", "system", "file"]))
    raw = None
    if broken == "param":
        params[draw(st.sampled_from(names + ["bogus"]))] = draw(BROKEN)
    elif broken == "flag":
        flags = draw(BROKEN_FLAGS)
    elif broken == "system":
        system = with_number(system, draw(st.sampled_from(SYSTEM_NUMBERS)),
                             draw(st.sampled_from(list(NON_FINITE.values()))))
    elif broken == "file":
        raw = draw(st.sampled_from(list(RAW.values())))
        system = with_number(system, draw(st.sampled_from(SYSTEM_NUMBERS)),
                             "@raw")
    return command, params, system, flags, broken, raw


@given(fuzz_configs())
@settings(max_examples=300, deadline=None)
def test_fuzz_configs_keep_the_exit_contract(case):
    command, params, system, flags, broken, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_raw_config(Path(tmp), command, params, system, raw)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(cfg, *flags)
        out = Path(tmp) / "out"
        event(f"{command} exit {code}")
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if broken in ("system", "file"):
            assert code == 1
        if code == 1:
            assert not out.exists()
        if code == 0:
            for f in out.iterdir():
                assert b"nan" not in f.read_bytes().lower(), f.name
