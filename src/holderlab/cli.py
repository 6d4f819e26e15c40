"""Command-line front end: config ingestion, dispatch, caching, export.

A single JSON config names the system, the weights, one command, and its
parameters.  Outputs are CSV/JSON files written atomically into the output
directory together with a manifest listing every artifact.  Heavy results
are memoised in a content-addressed cache keyed by the full request, so a
repeated run returns byte-identical files without recomputation.

Exit codes: 0 success, 1 configuration error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .cache import cache_key, cached_bytes
from .conjugacy import conjugacy_residual, rigidity_report
from .exponents import spectrum_experiment
from .ifs import ConfigurationError, IFSystem, ProbVector, attractor_hull, \
    system_from_json, system_to_json
from .takagi import derivative_grids, eval_derivative_point
from .thermo import PressureCurve, spectrum
from .transition import cdf_values, eval_cdf, gap_probe


class CliError(Exception):
    """Configuration-level problem; maps to exit code 1."""


COMMANDS = ("eval-t", "eval-c", "spectrum", "pressure", "gap", "exponent",
            "conjugacy", "report")

# Per-command parameter whitelists; unknown keys are configuration errors.
_PARAM_KEYS = {
    "eval-t": {"grid_size", "margin", "tol"},
    "eval-c": {"order", "grid_size", "margin", "terms", "tol", "depth"},
    "spectrum": {"alpha_grid", "rigidity_tol"},
    "pressure": {"beta_grid", "rigidity_tol"},
    "gap": {"alpha", "n_max", "grid_size", "margin", "probe_words", "seed"},
    "exponent": {"betas", "word_len", "count", "seed", "with_empirical",
                 "scales"},
    "conjugacy": {"sample_count", "tol", "exclusion", "seed"},
    "report": {"tol", "sample_count", "seed", "grid_sizes"},
}
_TOL_KEYS = {"tol", "rigidity_tol", "exclusion"}


@dataclass
class RunConfig:
    system: IFSystem
    p: ProbVector
    mode: str
    command: str
    params: dict
    out: Path
    seed: int
    threads: int


def load_config(path: str, out: Optional[str] = None, seed: Optional[int] = None,
                mode: Optional[str] = None, threads: int = 1) -> RunConfig:
    """Parse and validate the JSON config, applying CLI overrides."""
    cfg_path = Path(path)
    if not cfg_path.is_file():
        raise CliError(f"config file not found: {path}")
    try:
        doc = json.loads(cfg_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError("config root must be a JSON object")
    extra = set(doc) - {"system", "command", "params", "out"}
    if extra:
        raise CliError(f"unknown config keys {sorted(extra)}")
    if "system" not in doc or "command" not in doc:
        raise CliError("config needs 'system' and 'command'")

    if not isinstance(doc["system"], dict):
        raise CliError("'system' must be an object")
    sysdoc = dict(doc["system"])
    if mode is not None:
        sysdoc["mode"] = mode
    try:
        system, p, eff_mode = system_from_json(sysdoc)
    except ConfigurationError as exc:
        raise CliError(str(exc)) from exc

    command = doc["command"]
    if command not in COMMANDS:
        raise CliError(f"unknown command {command!r}; expected one of "
                       f"{', '.join(COMMANDS)}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise CliError("'params' must be an object")
    extra = set(params) - _PARAM_KEYS[command]
    if extra:
        raise CliError(f"unknown {command} parameters {sorted(extra)}")
    for key in _TOL_KEYS & set(params):
        if not 0 < _num(float, params[key], key) < math.inf:
            raise CliError(f"parameter {key} must be positive and finite")

    out_dir = out if out is not None else doc.get("out")
    if out_dir is None:
        raise CliError("output directory missing: set 'out' or pass --out")
    eff_seed = seed if seed is not None else _num(int, params.get("seed", 0),
                                                  "seed")
    return RunConfig(system=system, p=p, mode=eff_mode, command=command,
                     params=params, out=Path(out_dir), seed=eff_seed,
                     threads=max(1, int(threads)))


def _num(cast, value, name: str):
    """value read through int or float; a value the cast rejects is a
    configuration error, not a numeric failure."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        kind = "an integer" if cast is int else "a number"
        raise CliError(f"parameter {name} must be {kind}, got {value!r}") \
            from exc


def _nums(cast, values, name: str) -> list:
    """Each entry of a list parameter read through _num."""
    if not isinstance(values, (list, tuple)):
        raise CliError(f"parameter {name} must be a list, got {values!r}")
    return [_num(cast, v, name) for v in values]


def _param(cfg: RunConfig, cast, key: str, default):
    return _num(cast, cfg.params.get(key, default), key)


def _grid(cfg: RunConfig, size: int, margin: float):
    if size < 2:
        raise CliError("'grid_size' must be at least 2")
    if not math.isfinite(margin):
        raise CliError("'margin' must be finite")
    a, b = attractor_hull(cfg.system)
    if cfg.mode == "rational":
        a, b = Fraction(a), Fraction(b)
        pad = Fraction(margin).limit_denominator(10**6) * (b - a)
        lo, span = a - pad, (b - a) + 2 * pad
        return [lo + span * Fraction(i, size - 1) for i in range(size)]
    pad = margin * (b - a)
    return np.linspace(a - pad, b + pad, size)


def _cell(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _csv(header: str, rows) -> bytes:
    lines = [header]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _json_default(v):
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    raise TypeError(f"not JSON-serialisable: {type(v).__name__}")


def _json_bytes(obj) -> bytes:
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default)
    return (text + "\n").encode("utf-8")


def _request(cfg: RunConfig, **resolved) -> str:
    return cache_key({
        "version": __version__,
        "op": cfg.command,
        "system": system_to_json(cfg.system, cfg.p, cfg.mode),
        "params": {k: resolved[k] for k in sorted(resolved)},
    })


def _thermo_summary(cfg: RunConfig, rigidity_tol: float) -> bytes:
    curve = PressureCurve(cfg.system, cfg.p)
    ep = curve.endpoints
    return _json_bytes({
        "alpha_minus": ep.alpha_minus,
        "alpha_plus": ep.alpha_plus,
        "alpha_zero": ep.alpha_zero,
        "delta": ep.delta,
        "rigidity": bool(ep.alpha_plus - ep.alpha_minus <= rigidity_tol),
    })


def _cmd_eval_t(cfg: RunConfig):
    size = _param(cfg, int, "grid_size", 4097)
    margin = _param(cfg, float, "margin", 0.25)
    tol = _param(cfg, float, "tol", 1e-12)
    resolved = {"grid_size": size, "margin": margin, "tol": tol,
                "mode": cfg.mode}

    def produce():
        nodes = _grid(cfg, size, margin)
        if cfg.mode == "rational":
            rows = [(x, eval_cdf(cfg.system, cfg.p, x, tol=tol)[0])
                    for x in nodes]
        else:
            rows = zip(nodes, cdf_values(cfg.system, cfg.p, nodes, tol=tol))
        return _csv("x,value", rows)

    body = cached_bytes(_request(cfg, **resolved), produce)
    return [("T.csv", body, resolved)]


def _cmd_eval_c(cfg: RunConfig):
    if "order" not in cfg.params:
        raise CliError("eval-c needs 'order', e.g. [1] or [0, 2]")
    order = tuple(_nums(int, cfg.params["order"], "order"))
    if not order or any(v < 0 for v in order) or sum(order) < 1:
        raise CliError("'order' must be nonnegative with positive total")
    size = _param(cfg, int, "grid_size", 1025)
    margin = _param(cfg, float, "margin", 0.25)
    terms = _param(cfg, int, "terms", 80)
    tol = _param(cfg, float, "tol", 1e-12)
    depth = _param(cfg, int, "depth", 80)
    resolved = {"order": list(order), "grid_size": size, "margin": margin,
                "terms": terms, "tol": tol, "depth": depth, "mode": cfg.mode}

    def produce():
        nodes = _grid(cfg, size, margin)
        if cfg.mode == "rational":
            rows = []
            for x in nodes:
                val, err = eval_derivative_point(cfg.system, cfg.p, order, x,
                                                 depth=depth)
                rows.append((x, val, err))
        else:
            grids = derivative_grids(cfg.system, cfg.p, order,
                                     np.asarray(nodes), terms=terms, tol=tol)
            dg = grids[order]
            rows = [(x, v, dg.tail_estimate)
                    for x, v in zip(dg.grid.nodes, dg.grid.values)]
        return _csv("x,C_value,err_bound", rows)

    body = cached_bytes(_request(cfg, **resolved), produce)
    return [("C.csv", body, resolved)]


def _alpha_grid(cfg: RunConfig, curve: PressureCurve):
    layout = cfg.params.get("alpha_grid", {"count": 201})
    if isinstance(layout, list):
        return _nums(float, layout, "alpha_grid")
    if not isinstance(layout, dict):
        raise CliError("'alpha_grid' must be a list or an object")
    count = _num(int, layout.get("count", 201), "alpha_grid.count")
    extra = set(layout) - {"count"}
    if extra:
        raise CliError(f"unknown alpha_grid keys {sorted(extra)}")
    ep = curve.endpoints
    return list(np.linspace(ep.alpha_minus, ep.alpha_plus, count))


def _cmd_spectrum(cfg: RunConfig):
    rigidity_tol = _param(cfg, float, "rigidity_tol", 1e-9)
    curve = PressureCurve(cfg.system, cfg.p)
    alphas = _alpha_grid(cfg, curve)
    resolved = {"alpha_grid": alphas, "rigidity_tol": rigidity_tol}

    def produce():
        rows = [(pt.alpha, pt.g, pt.beta_argmin)
                for pt in spectrum(cfg.system, cfg.p, alphas, curve=curve)]
        return _csv("alpha,g,beta_argmin", rows)

    body = cached_bytes(_request(cfg, **resolved), produce)
    summary = _thermo_summary(cfg, rigidity_tol)
    return [("spectrum.csv", body, resolved),
            ("summary.json", summary, {"rigidity_tol": rigidity_tol})]


def _beta_grid(cfg: RunConfig):
    layout = cfg.params.get("beta_grid", {"lo": -10.0, "hi": 10.0, "count": 81})
    if isinstance(layout, list):
        return _nums(float, layout, "beta_grid")
    if not isinstance(layout, dict):
        raise CliError("'beta_grid' must be a list or an object")
    extra = set(layout) - {"lo", "hi", "count"}
    if extra:
        raise CliError(f"unknown beta_grid keys {sorted(extra)}")
    lo = _num(float, layout.get("lo", -10.0), "beta_grid.lo")
    hi = _num(float, layout.get("hi", 10.0), "beta_grid.hi")
    count = _num(int, layout.get("count", 81), "beta_grid.count")
    return list(np.linspace(lo, hi, count))


def _cmd_pressure(cfg: RunConfig):
    rigidity_tol = _param(cfg, float, "rigidity_tol", 1e-9)
    betas = _beta_grid(cfg)
    resolved = {"beta_grid": betas, "rigidity_tol": rigidity_tol}

    def produce():
        curve = PressureCurve(cfg.system, cfg.p)
        return _csv("beta,t,t_prime", curve.samples(betas))

    body = cached_bytes(_request(cfg, **resolved), produce)
    summary = _thermo_summary(cfg, rigidity_tol)
    return [("pressure.csv", body, resolved),
            ("summary.json", summary, {"rigidity_tol": rigidity_tol})]


def _cmd_gap(cfg: RunConfig):
    if "alpha" not in cfg.params:
        raise CliError("gap needs 'alpha'")
    alpha = _num(float, cfg.params["alpha"], "alpha")
    if not 0 < alpha <= 1:
        raise CliError("'alpha' must lie in (0, 1]")
    n_max = _param(cfg, int, "n_max", 60)
    if n_max < 3:
        raise CliError("'n_max' must be at least 3")
    size = _param(cfg, int, "grid_size", 8193)
    margin = _param(cfg, float, "margin", 0.25)
    words = _param(cfg, int, "probe_words", 64)
    resolved = {"alpha": alpha, "n_max": n_max, "grid_size": size,
                "margin": margin, "probe_words": words, "seed": cfg.seed}

    report = gap_probe(cfg.system, cfg.p, alpha, n_max=n_max, grid_size=size,
                       margin=margin, probe_words=words, seed=cfg.seed)
    rows = [(n, s, v) for n, (s, v) in
            enumerate(zip(report.sup_norms, report.norms))]
    body = _csv("n,sup_residual,holder_seminorm", rows)
    verdict = _json_bytes({
        "alpha": report.alpha,
        "verdict": report.verdict,
        "slope": report.slope,
        "slope_stderr": report.slope_stderr,
    })
    return [("gap.csv", body, resolved), ("gap.json", verdict, resolved)]


def _cmd_exponent(cfg: RunConfig):
    betas = _nums(float, cfg.params.get("betas", list(np.linspace(-4, 4, 9))),
                  "betas")
    word_len = _param(cfg, int, "word_len", 60)
    count = _param(cfg, int, "count", 32)
    if count < 1 or word_len < 1:
        raise CliError("'count' and 'word_len' must be at least 1")
    with_emp = bool(cfg.params.get("with_empirical", False))
    scales = cfg.params.get("scales")
    if scales is not None:
        scales = _nums(float, scales, "scales")
    resolved = {"betas": betas, "word_len": word_len, "count": count,
                "with_empirical": with_emp, "scales": scales,
                "seed": cfg.seed}

    def produce():
        evaluate = None
        if with_emp:
            evaluate = lambda xs: cdf_values(cfg.system, cfg.p, xs, tol=1e-14)

        # beta number i is seeded with seed + i on every thread count, so
        # each row is computed the same way whichever thread computes it
        def rows_for(i):
            return spectrum_experiment(cfg.system, cfg.p, [betas[i]],
                                       word_len=word_len, count=count,
                                       seed=cfg.seed + i, evaluate=evaluate,
                                       scales=scales)
        if cfg.threads > 1:
            with ThreadPoolExecutor(cfg.threads) as pool:
                parts = list(pool.map(rows_for, range(len(betas))))
        else:
            parts = [rows_for(i) for i in range(len(betas))]
        rows = [r for part in parts for r in part]
        header = "beta,alpha_pred,g,dyn_mean,dyn_sigma,emp_mean,emp_sigma,count,seed"
        return _csv(header, [tuple(r[k] for k in header.split(","))
                             for r in rows])

    body = cached_bytes(_request(cfg, **resolved), produce)
    return [("exponent.csv", body, resolved)]


def _cmd_conjugacy(cfg: RunConfig):
    count = _param(cfg, int, "sample_count", 1000)
    if count < 1:
        raise CliError("'sample_count' must be at least 1")
    tol = _param(cfg, float, "tol", 1e-10)
    exclusion = _param(cfg, float, "exclusion", 1e-6)
    resolved = {"sample_count": count, "tol": tol, "exclusion": exclusion,
                "seed": cfg.seed}

    def produce():
        worst = conjugacy_residual(cfg.system, cfg.p, count, seed=cfg.seed,
                                   tol=tol, exclusion=exclusion)
        return _json_bytes({"max_conjugacy_residual": worst,
                            "sample_count": count, "tol": tol,
                            "seed": cfg.seed})

    body = cached_bytes(_request(cfg, **resolved), produce)
    return [("conjugacy.json", body, resolved)]


def _cmd_report(cfg: RunConfig):
    tol = _param(cfg, float, "tol", 1e-9)
    count = _param(cfg, int, "sample_count", 256)
    if count < 1:
        raise CliError("'sample_count' must be at least 1")
    sizes = tuple(_nums(int, cfg.params.get("grid_sizes", (1025, 2049, 4097)),
                        "grid_sizes"))
    resolved = {"tol": tol, "sample_count": count, "grid_sizes": list(sizes),
                "seed": cfg.seed}

    def produce():
        rep = rigidity_report(cfg.system, cfg.p, tol=tol, sample_count=count,
                              seed=cfg.seed, grid_sizes=sizes)
        return _json_bytes(rep.to_json())

    body = cached_bytes(_request(cfg, **resolved), produce)
    return [("rigidity.json", body, resolved)]


_DISPATCH = {
    "eval-t": _cmd_eval_t,
    "eval-c": _cmd_eval_c,
    "spectrum": _cmd_spectrum,
    "pressure": _cmd_pressure,
    "gap": _cmd_gap,
    "exponent": _cmd_exponent,
    "conjugacy": _cmd_conjugacy,
    "report": _cmd_report,
}


def _write_atomic(path: Path, body: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run(cfg: RunConfig) -> int:
    """Execute one command and write its artifacts plus the manifest."""
    outputs = _DISPATCH[cfg.command](cfg)
    for name, body, _ in outputs:
        _write_atomic(cfg.out / name, body)
    manifest = {
        "version": __version__,
        "command": cfg.command,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "threads": cfg.threads,
        "system": system_to_json(cfg.system, cfg.p, cfg.mode),
        "outputs": [{"file": name, "params": params}
                    for name, _, params in outputs],
    }
    _write_atomic(cfg.out / "manifest.json", _json_bytes(manifest))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="holderlab",
                     description="Random interval dynamics toolkit")
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="RNG seed override")
    parser.add_argument("--mode", choices=("float", "rational"),
                        help="arithmetic mode override")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for the betas of 'exponent'")
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, out=args.out, seed=args.seed,
                          mode=args.mode, threads=args.threads)
    except CliError as exc:
        print(f"holderlab: config error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(cfg)
    except CliError as exc:
        print(f"holderlab: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numeric/runtime failure from the modules
        print(f"holderlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
